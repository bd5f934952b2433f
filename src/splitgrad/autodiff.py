"""Minimal reverse-mode automatic differentiation over float64 arrays.

The engine records operations on an append-only tape; node inputs always
point at earlier nodes, so the tape is topologically ordered by
construction. ``backward`` seeds a node (a scalar, or any node given a
seed gradient of its shape) and sweeps the tape once in reverse,
accumulating gradients additively; nodes unreachable from the seed keep
a zero gradient. A tape is single-use: rerunning backward
requires ``reset_grads``.

A graph-less mode (``no_graph``) executes the same arithmetic without
recording anything, which is what keeps forward-only passes cheap in
activation memory. Values are bit-identical between the two modes
because both call the same kernels.

Design choices that equivalence tests depend on:

* everything is float64;
* ``kernels`` owns the activations (``ACTIVATIONS``, ``activate``,
  ``activation_vjp``); the ``dense`` and ``activation`` ops call it and
  never branch on an activation's name;
* an encoder layer is one ``dense`` node: it saves its input, weight
  and output, and its VJP reads the slope off the output, so no
  pre-activation is kept;
* the gradient of relu at exactly 0 is 0;
* row-softmax and row-logsumexp subtract the row max before
  exponentiation;
* operations allocate fresh output arrays (no views), so the memory
  accounting in ``memtrace`` sees true lifetimes.
"""

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .memtrace import register


class ShapeMismatchError(ValueError):
    """An op received operands with incompatible shapes."""


class NoGraphError(RuntimeError):
    """Backward was requested for a value with no recorded graph."""


class TapeReuseError(RuntimeError):
    """Backward was run twice on a tape without resetting gradients."""


class Tensor:
    """A float64 array, optionally attached to a tape node.

    ``token`` and ``index`` locate the producing node; both are None for
    constants and for values produced under graph-less mode. Tensors
    hold no reference to the tape itself, which keeps the object graph
    free of cycles.
    """

    __slots__ = ("data", "token", "index")

    def __init__(self, data, token=None, index=None):
        self.data = data
        self.token = token
        self.index = index

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_taped(self):
        return self.token is not None

    def __repr__(self):
        tag = f"node {self.index}" if self.is_taped else "constant"
        return f"Tensor(shape={tuple(self.data.shape)}, {tag})"


def constant(data):
    """Wrap an array as a graph-less Tensor."""
    return Tensor(_as_f64(data))


def _as_f64(data):
    return np.asarray(data, dtype=np.float64)


@dataclass
class Node:
    op_kind: str
    inputs: tuple
    output: np.ndarray
    ctx: tuple
    vjp: object


_token_counter = itertools.count(1)


class Tape:
    """Append-only record of operations plus per-node gradient buffers."""

    def __init__(self):
        self.nodes = []
        self.grads = []
        self.token = next(_token_counter)
        self._backward_done = False

    def __len__(self):
        return len(self.nodes)

    def add_node(self, op_kind, inputs, output, ctx, vjp):
        self.nodes.append(Node(op_kind, inputs, output, ctx, vjp))
        self.grads.append(None)
        return len(self.nodes) - 1

    def leaf(self, data):
        """Register an input value as a differentiable leaf node."""
        arr = _as_f64(data)
        idx = self.add_node("leaf", (), arr, (), None)
        return Tensor(arr, self.token, idx)

    def backward(self, node, grad=None):
        """Backpropagate from a node through the tape.

        grad seeds the node's gradient and must have its shape; it is used
        as given, neither copied nor counted again. Without a seed the
        node must be a scalar and is seeded with one.
        """
        idx = self._resolve(node)
        out = self.nodes[idx].output
        if grad is None and out.size != 1:
            raise ValueError(
                f"backward without a seed gradient requires a scalar node, "
                f"got shape {tuple(out.shape)}"
            )
        if grad is not None and grad.shape != out.shape:
            raise _shape_error("backward seed", grad.shape, out.shape)
        if self._backward_done:
            raise TapeReuseError(
                "backward already run on this tape; call reset_grads() first"
            )
        self._backward_done = True
        if grad is None:
            grad = register(np.ones_like(out))
        self.grads[idx] = grad
        for k in range(idx, -1, -1):
            g = self.grads[k]
            if g is None:
                continue
            node = self.nodes[k]
            if node.vjp is None:
                continue
            input_grads = node.vjp(node.ctx, g)
            for in_idx, in_grad in zip(node.inputs, input_grads):
                if in_idx is None or in_grad is None:
                    continue
                # ufuncs on 0-d arrays decay to numpy scalars; keep ndarray
                if not isinstance(in_grad, np.ndarray):
                    in_grad = np.asarray(in_grad, dtype=np.float64)
                register(in_grad)
                if self.grads[in_idx] is None:
                    self.grads[in_idx] = in_grad
                else:
                    self.grads[in_idx] += in_grad
        return self

    def grad(self, ref):
        """Gradient accumulated for a node; zeros if backward never reached it."""
        idx = self._resolve(ref)
        g = self.grads[idx]
        if g is None:
            return np.zeros_like(self.nodes[idx].output)
        return g

    def reset_grads(self):
        self.grads = [None] * len(self.nodes)
        self._backward_done = False

    def _resolve(self, ref):
        if isinstance(ref, Tensor):
            if not ref.is_taped:
                raise NoGraphError("no graph recorded for this tensor")
            if ref.token != self.token:
                raise NoGraphError("tensor belongs to a different tape")
            return ref.index
        return int(ref)


_tls = threading.local()


def _state():
    if not hasattr(_tls, "tape"):
        _tls.tape = None
        _tls.no_graph_depth = 0
    return _tls


def active_tape():
    """The tape recording on this thread, or None (also None inside no_graph)."""
    st = _state()
    if st.no_graph_depth > 0:
        return None
    return st.tape


@contextmanager
def recording(tape):
    """Record operations issued in this block onto the given tape."""
    st = _state()
    prev = st.tape
    st.tape = tape
    try:
        yield tape
    finally:
        st.tape = prev


@contextmanager
def no_graph():
    """Execute without recording; produced Tensors carry no tape reference."""
    st = _state()
    st.no_graph_depth += 1
    try:
        yield
    finally:
        st.no_graph_depth -= 1


def leaf(data):
    """A differentiable leaf on the active tape, or a constant if none."""
    tape = active_tape()
    if tape is None:
        return constant(data)
    return tape.leaf(data)


# ---------------------------------------------------------------------------
# op table
# ---------------------------------------------------------------------------

def _shape_error(op_kind, *shapes):
    listed = ", ".join(str(tuple(s)) for s in shapes)
    return ShapeMismatchError(f"{op_kind}: incompatible shapes {listed}")


def _fw_matmul(attrs, x, w):
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise _shape_error("matmul", x.shape, w.shape)
    return kernels.matmul(x, w), (x, w)


def _bw_matmul(ctx, g):
    x, w = ctx
    return np.matmul(g, w.T), np.matmul(x.T, g)


def _fw_dense(attrs, x, w, b):
    if (x.ndim != 2 or w.ndim != 2 or b.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise _shape_error("dense", x.shape, w.shape, b.shape)
    # the matmul, add and activation ops' arithmetic, in their order, on
    # one fresh array
    out = kernels.matmul(x, w)
    out += b
    kernels.activate(attrs["act"], out)
    return out, (x, w, out, attrs["act"])


def _bw_dense(ctx, g):
    x, w, out, act = ctx
    g = kernels.activation_vjp(act, out, g)
    return np.matmul(g, w.T), np.matmul(x.T, g), g.sum(axis=0)


def _fw_add(attrs, x, y):
    if x.shape == y.shape:
        return x + y, ("same",)
    if x.ndim == 2 and y.ndim == 1 and x.shape[1] == y.shape[0]:
        return x + y, ("rows",)
    raise _shape_error("add", x.shape, y.shape)


def _bw_add(ctx, g):
    if ctx[0] == "rows":
        return g.copy(), g.sum(axis=0)
    return g.copy(), g.copy()


def _fw_mul(attrs, x, y):
    if x.shape != y.shape:
        raise _shape_error("mul", x.shape, y.shape)
    return x * y, (x, y)


def _bw_mul(ctx, g):
    x, y = ctx
    return g * y, g * x


def _fw_scalar_mul(attrs, x):
    return attrs["c"] * x, (attrs["c"],)


def _bw_scalar_mul(ctx, g):
    return (ctx[0] * g,)


def _fw_activation(attrs, x):
    act = attrs["act"]
    out = kernels.activate(act, x.copy())
    return out, (act, out)


def _bw_activation(ctx, g):
    act, out = ctx
    return (kernels.activation_vjp(act, out, g),)


def _fw_row_softmax(attrs, x):
    if x.ndim != 2:
        raise _shape_error("row-softmax", x.shape)
    out = kernels.row_softmax(x)
    return out, (out,)


def _bw_row_softmax(ctx, g):
    return (kernels.row_softmax_vjp(ctx[0], g),)


def _fw_row_logsumexp(attrs, x):
    if x.ndim != 2:
        raise _shape_error("row-logsumexp", x.shape)
    scale = attrs["scale"]
    out, p = kernels.row_logsumexp(x, scale)
    # the softmax is saved for backward: count it while the tape holds it
    return out, (scale, register(p))


def _bw_row_logsumexp(ctx, g):
    scale, p = ctx
    return ((scale * g) * p,)


def _fw_strip_lse_loss(attrs, F, G, neg_pos):
    n = F.shape[0]
    if (F.ndim != 2 or G.ndim != 2 or F.shape[1] != G.shape[1]
            or neg_pos.shape != (n, 1)):
        raise _shape_error("strip-lse-loss", F.shape, G.shape, neg_pos.shape)
    w = 1.0 / n
    lse, dF, dG = kernels.strip_logsumexp(F, G, attrs["scale"], w)
    # the same adds, sum and scaling as the dense tail's taped ops
    return w * np.asarray((lse + neg_pos).sum()), (dF, dG, w)


def _bw_strip_lse_loss(ctx, g):
    dF, dG, w = ctx
    return g * dF, g * dG, np.full((dF.shape[0], 1), w * g)


def _fw_sum(attrs, x):
    return np.asarray(x.sum()), (x.shape,)


def _bw_sum(ctx, g):
    return (np.full(ctx[0], g),)


def _fw_reshape(attrs, x):
    shape = attrs["shape"]
    try:
        out = x.reshape(shape)
    except ValueError:
        raise _shape_error("reshape", x.shape, shape) from None
    return out.copy(), (x.shape,)


def _bw_reshape(ctx, g):
    return (g.reshape(ctx[0]).copy(),)


def _fw_index_rows(attrs, x):
    if x.ndim != 2:
        raise _shape_error("index-rows", x.shape)
    idx = attrs["idx"]
    return x[idx], (x.shape, idx)


def _bw_index_rows(ctx, g):
    shape, idx = ctx
    out = np.zeros(shape)
    kernels.scatter_add_rows(out, idx, g)
    return (out,)


def _fw_pick_per_row(attrs, x):
    idx = attrs["idx"]
    if x.ndim != 2 or idx.shape != (x.shape[0], 1):
        raise _shape_error("pick-per-row", x.shape, idx.shape)
    return np.take_along_axis(x, idx, axis=1), (x.shape, idx)


def _bw_pick_per_row(ctx, g):
    shape, idx = ctx
    out = np.zeros(shape)
    np.put_along_axis(out, idx, g, axis=1)
    return (out,)


def _fw_dot_product_matrix(attrs, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise _shape_error("dot-product-matrix", a.shape, b.shape)
    return kernels.pair_scores(a, b), (a, b)


def _bw_dot_product_matrix(ctx, g):
    # the rows of g @ b go through the row-deterministic lane, so the
    # streamed tail (kernels.strip_logsumexp) gives the same rows bitwise
    a, b = ctx
    return kernels.matmul(g, b), np.matmul(g.T, a)


# Every op here is recorded by a training step or a reference graph,
# except row-softmax: the step benchmark still names it.
OPS = {
    "matmul": (_fw_matmul, _bw_matmul),
    "dense": (_fw_dense, _bw_dense),
    "add": (_fw_add, _bw_add),
    "mul": (_fw_mul, _bw_mul),
    "scalar-mul": (_fw_scalar_mul, _bw_scalar_mul),
    "activation": (_fw_activation, _bw_activation),
    "row-softmax": (_fw_row_softmax, _bw_row_softmax),
    "row-logsumexp": (_fw_row_logsumexp, _bw_row_logsumexp),
    "strip-lse-loss": (_fw_strip_lse_loss, _bw_strip_lse_loss),
    "sum": (_fw_sum, _bw_sum),
    "reshape": (_fw_reshape, _bw_reshape),
    "index-rows": (_fw_index_rows, _bw_index_rows),
    "pick-per-row": (_fw_pick_per_row, _bw_pick_per_row),
    "dot-product-matrix": (_fw_dot_product_matrix, _bw_dot_product_matrix),
}


def record(op_kind, *inputs, **attrs):
    """Apply an op; append a tape node when recording is active.

    Inputs may be Tensors or plain arrays (treated as constants). The
    output joins the tape only if some input is a node of the active
    tape; gradients never flow into constants.
    """
    if op_kind not in OPS:
        raise ValueError(f"unknown op kind {op_kind!r}")
    forward, vjp = OPS[op_kind]
    tensors = [t if isinstance(t, Tensor) else constant(t) for t in inputs]
    arrays = [_as_f64(t.data) for t in tensors]
    out, ctx = forward(attrs, *arrays)
    out = _as_f64(out)
    register(out)
    tape = active_tape()
    if tape is None:
        return Tensor(out)
    input_idxs = tuple(
        t.index if (t.is_taped and t.token == tape.token) else None
        for t in tensors
    )
    if all(i is None for i in input_idxs):
        return Tensor(out)
    idx = tape.add_node(op_kind, input_idxs, out, ctx, vjp)
    return Tensor(out, tape.token, idx)


# Thin wrappers so call sites read as math rather than string dispatch.

def matmul(x, w):
    return record("matmul", x, w)


def dense(x, w, b, act):
    """act(x @ w + b) for a bias row b, as one node.

    act is one of ``kernels.ACTIVATIONS``. The node saves x, w and its
    output and no pre-activation: every slope is read off the output.
    """
    return record("dense", x, w, b, act=act)


def add(x, y):
    return record("add", x, y)


def mul(x, y):
    return record("mul", x, y)


def scalar_mul(c, x):
    return record("scalar-mul", x, c=float(c))


def activation(x, act):
    """The named activation of x; x itself for "linear"."""
    if act == "linear":
        return x
    return record("activation", x, act=act)


def row_softmax(x):
    return record("row-softmax", x)


def row_logsumexp(x, scale=1.0):
    """[n x 1] log-sum-exp of the rows of scale * x."""
    return record("row-logsumexp", x, scale=float(scale))


def strip_lse_loss(F, G, neg_pos, scale):
    """(1/n) sum_i [lse_i(scale * F @ G.T) + neg_pos_i], a scalar.

    The gradients with respect to F and G are computed in the forward
    pass, strip by strip (``kernels.strip_logsumexp``), and saved; no
    n x m array outlives a strip.
    """
    return record("strip-lse-loss", F, G, neg_pos, scale=float(scale))


def sum_all(x):
    return record("sum", x)


def reshape(x, shape):
    return record("reshape", x, shape=tuple(shape))


def index_rows(x, idx):
    return record("index-rows", x, idx=np.asarray(idx, dtype=np.int64))


def pick_per_row(x, idx):
    """[n x 1] column holding x[i, idx[i]] for every row i of x."""
    return record("pick-per-row", x,
                  idx=np.asarray(idx, dtype=np.int64).reshape(-1, 1))


def dot_product_matrix(a, b):
    return record("dot-product-matrix", a, b)


# ---------------------------------------------------------------------------
# numerical checking
# ---------------------------------------------------------------------------

def max_rel_err(a, b, floor_frac=1e-4):
    """Largest elementwise relative difference between two arrays.

    The denominator is floored at floor_frac times the overall magnitude
    scale, so elements that are tiny relative to the array (where float
    reassociation noise dominates any meaningful ratio) are compared
    against that floor instead of against themselves.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise _shape_error("max_rel_err", a.shape, b.shape)
    if a.size == 0:
        return 0.0
    diff = np.abs(a - b)
    scale = max(np.abs(a).max(), np.abs(b).max())
    if scale == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor_frac * scale)
    return float((diff / denom).max())


def flat_max_rel_err(arrays_a, arrays_b, floor_frac=1e-4):
    """max_rel_err over two lists of arrays flattened into one vector.

    Gradient agreement is a statement about the whole parameter vector:
    an individual array whose true gradient is exactly zero carries only
    reassociation noise, and comparing it in isolation would measure the
    ratio of one roundoff term to another. Flattening scales the floor
    by the largest gradient entry overall.
    """
    flat_a = np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                             for a in arrays_a])
    flat_b = np.concatenate([np.asarray(b, dtype=np.float64).ravel()
                             for b in arrays_b])
    return max_rel_err(flat_a, flat_b, floor_frac)


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    n_checked: int
    h: float
    tol: float
    floor: float
    passed: bool


def finite_diff_check(f, params, h=1e-6, tol=1e-5, n_samples=200, seed=0):
    """Compare the taped gradient of f against central differences.

    f maps a Tensor leaf to a scalar Tensor using engine ops. The
    relative-error denominator is floored at the finite-difference noise
    level (roundoff of f divided by h, scaled by 1/tol), so coordinates
    whose true gradient drowns in subtraction noise are judged
    absolutely against that floor rather than failing on noise.
    """
    params = _as_f64(params)
    tape = Tape()
    with recording(tape):
        p_leaf = tape.leaf(params.copy())
        out = f(p_leaf)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued computation")
    tape.backward(out)
    analytic = tape.grad(p_leaf).ravel()

    f0 = float(out.data)
    eps = np.finfo(np.float64).eps
    floor = 20.0 * eps * max(1.0, abs(f0)) / (h * tol)

    flat = params.ravel()
    n_coords = flat.size
    if n_coords <= n_samples:
        coords = np.arange(n_coords)
    else:
        rng = np.random.default_rng(seed)
        coords = rng.choice(n_coords, size=n_samples, replace=False)

    worst = 0.0
    with no_graph():
        for k in coords:
            bumped = flat.copy()
            bumped[k] = flat[k] + h
            f_plus = float(f(constant(bumped.reshape(params.shape))).data)
            bumped[k] = flat[k] - h
            f_minus = float(f(constant(bumped.reshape(params.shape))).data)
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic[k]
            err = abs(a - fd) / max(abs(a), abs(fd), floor)
            if err > worst:
                worst = err
    return FiniteDiffReport(
        max_rel_err=worst,
        n_checked=len(coords),
        h=h,
        tol=tol,
        floor=floor,
        passed=worst < tol,
    )
