"""Minimal reverse-mode automatic differentiation over float64 arrays.

The engine records operations on an append-only tape; node inputs always
point at earlier nodes, so the tape is topologically ordered by
construction. ``backward`` seeds a node (a scalar, or any node given a
seed gradient of its shape) and sweeps the tape once in reverse,
accumulating gradients additively; nodes unreachable from the seed keep
a zero gradient. A tape is single-use: a second backward raises
``TapeReuseError``, since a VJP may overwrite what its forward saved.

An op records a node only when one of its inputs is a node of the
active tape (``recording``); an op over constants alone, or run with no
tape active, records nothing. That is what keeps forward-only passes
cheap in activation memory, and their values are bitwise the taped
ones because both run the same kernels.

Design choices that equivalence tests depend on:

* everything is float64;
* ``kernels`` owns the activations (``ACTIVATIONS``, ``activate``,
  ``activation_vjp``); the ``encoder`` and ``activation`` ops call it
  and never branch on an activation's name;
* an encoder is one ``encoder`` node keeping each layer's output and no
  pre-activation; its forward and VJP (``encoder_forward``,
  ``encoder_vjp``) are the one encoder loop, also run with no tape, and
  write every product into buffers their caller passes in. The VJP
  writes each layer's slope product over the output it has just read,
  so the node saves a sloped top as a copy and never writes its output,
  and forms each input gradient against a contiguous transpose of its
  weight (``weight_transposes``), as the ``matmul`` VJP does;
* a VJP is called as ``vjp(ctx, g, taped)``, ``taped`` holding the
  node's input indices (None for an input not on the tape), and returns
  fresh arrays, one per input. It may return None for an untaped input
  (``encoder``, ``matmul`` and ``add`` then skip its product);
* a forward returns exactly ``(out, ctx)``, and registers in
  ``memtrace`` any other array it made that ctx keeps;
* a leaf may be given a gradient buffer (``Tape.leaf(data, grad)``):
  backward adds into it in place, as it adds into any gradient it
  already holds, so a caller that sums gradients over several tapes
  keeps no per-tape copy;
* a node keeps its output's shape, not the output, and backward drops
  its ctx once its VJP returns and the VJP's results before the next
  VJP: an op's output lives while a Tensor or a later ctx holds it, and
  a result added into an existing gradient is freed at once;
* the gradient of relu at exactly 0 is 0;
* row-softmax and row-logsumexp subtract the row max before
  exponentiation, and row-logsumexp's gradient is the strip kernel's
  (``kernels.strip_logsumexp``) arithmetic;
* operations allocate fresh output arrays (no views). Every array made
  here is counted through ``memtrace.register``, from when it is made
  until it is freed: every op output, taped or not, the arrays a forward
  saves and every gradient backward makes, from the VJP's return on,
  and the weight transposes a VJP multiplies by, as "parameters"; the
  encoder pass counts nothing, and its callers register its buffers and
  transposes.
"""

import itertools
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
    """Backward was run twice on a tape; a tape is single-use."""


class Tensor:
    """A float64 array, optionally attached to a tape node.

    ``token`` and ``index`` locate the producing node; both are None for
    constants and for values computed from constants alone. Tensors
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
    shape: tuple  # the output's; the output is its Tensor's to hold
    ctx: object  # what the forward saved; None once the VJP has run
    vjp: object


_token_counter = itertools.count(1)


class Tape:
    """Append-only record of operations plus per-node gradient buffers.

    A node holds its output's shape and, until backward has run its VJP,
    what its forward saved; a gradient stays until the tape is freed.
    The tape holds no counts: every array it keeps was registered in
    ``memtrace`` when it was made, and is uncounted when it is freed.
    """

    def __init__(self):
        self.nodes = []
        self.grads = []
        self.token = next(_token_counter)
        self._backward_done = False

    def __len__(self):
        return len(self.nodes)

    def add_node(self, op_kind, inputs, output, ctx, vjp):
        self.nodes.append(Node(op_kind, inputs, output.shape, ctx, vjp))
        self.grads.append(None)
        return len(self.nodes) - 1

    def leaf(self, data, grad=None):
        """Register an input value as a differentiable leaf node.

        grad, a float64 array of the leaf's shape, becomes the leaf's
        gradient buffer: backward adds into it in place, and
        ``grad(leaf)`` returns it. It is neither copied nor counted.
        """
        arr = _as_f64(data)
        if grad is not None and grad.shape != arr.shape:
            raise _shape_error("leaf gradient", grad.shape, arr.shape)
        idx = self.add_node("leaf", (), arr, (), None)
        self.grads[idx] = grad
        return Tensor(arr, self.token, idx)

    def backward(self, node, grad=None):
        """Backpropagate from a node through the tape.

        grad seeds the node's gradient and must have its shape; it is used
        as given, neither copied nor counted again. Without a seed the
        node must be a scalar and is seeded with one, registered. A node's
        ctx is dropped when its VJP returns; each result is then registered
        and stored or added, an added one dropped before the next VJP.
        """
        idx = self._resolve(node)
        shape = self.nodes[idx].shape
        if grad is None and np.prod(shape) != 1:
            raise ValueError(
                f"backward without a seed gradient requires a scalar node, "
                f"got shape {shape}"
            )
        if grad is not None and grad.shape != shape:
            raise _shape_error("backward seed", grad.shape, shape)
        if self._backward_done:
            raise TapeReuseError(
                "backward already run on this tape; a tape is single-use")
        self._backward_done = True
        nodes, grads = self.nodes, self.grads
        grads[idx] = register(np.ones(shape)) if grad is None else grad
        for k in range(idx, -1, -1):
            g, node = grads[k], nodes[k]
            if g is None or node.vjp is None:
                continue
            input_grads = node.vjp(node.ctx, g, node.inputs)
            node.ctx = None
            for in_idx, in_grad in zip(node.inputs, input_grads):
                if in_idx is None or in_grad is None:
                    continue
                # ufuncs on 0-d arrays decay to numpy scalars; keep ndarray
                if not isinstance(in_grad, np.ndarray):
                    in_grad = np.asarray(in_grad, dtype=np.float64)
                register(in_grad)
                if grads[in_idx] is None:
                    grads[in_idx] = in_grad
                else:
                    grads[in_idx] += in_grad
            # an added-in gradient is freed here, not held through the
            # next VJP
            input_grads = in_grad = None
        return self

    def grad(self, ref):
        """Gradient accumulated for a node; zeros if backward never reached it."""
        idx = self._resolve(ref)
        g = self.grads[idx]
        if g is None:
            return np.zeros(self.nodes[idx].shape)
        return g

    def _resolve(self, ref):
        if isinstance(ref, Tensor):
            if not ref.is_taped:
                raise NoGraphError("no graph recorded for this tensor")
            if ref.token != self.token:
                raise NoGraphError("tensor belongs to a different tape")
            return ref.index
        return int(ref)


_tape = None  # the tape that ops record onto, or None


@contextmanager
def recording(tape):
    """Record operations issued in this block onto the given tape."""
    global _tape
    prev = _tape
    _tape = tape
    try:
        yield tape
    finally:
        _tape = prev


def leaf(data):
    """A differentiable leaf on the active tape, or a constant if none."""
    return constant(data) if _tape is None else _tape.leaf(data)


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


def _bw_matmul(ctx, g, taped):
    # x's gradient against w's contiguous transpose, as encoder_vjp forms
    # it, so that a layer of three ops gives the encoder node's bits
    x, w = ctx
    return (np.matmul(g, register(w.T.copy(), "parameters"))
            if taped[0] is not None else None,
            np.matmul(x.T, g) if taped[1] is not None else None)


def encoder_widths(x_shape, arrays):
    """[w0, ..., wL], the widths of rows of x_shape and of each layer's
    output for arrays w1, b1, w2, ...; ShapeMismatchError naming
    ``encoder`` if they do not chain."""
    widths = [x_shape[1] if len(x_shape) == 2 else -1]
    for w, b in zip(arrays[::2], arrays[1::2]):
        if w.ndim != 2 or w.shape[0] != widths[-1] or b.shape != w.shape[1:]:
            raise _shape_error("encoder", x_shape, *(a.shape for a in arrays))
        widths.append(w.shape[1])
    return widths


def _encoder_layout(widths, keep_top):
    # (output offset or None, scratch offset) per row; see encoder_views
    at = 0
    for k, w in enumerate(widths[1:], 1):
        out = None
        if k < len(widths) - 1 or keep_top:
            out, at = at, at + w
        yield out, at


def encoder_views(buf, n, widths, keep_top):
    """(outs, scratch): views of the flat buffer an n-row step3 pass
    works in.

    Layer k's output y_k is an n x w_k view, stacked from offset 0; the
    top's is None unless keep_top (no VJP reads a linear top's output).
    Layer k's scratch, a flat view, starts right after y_k, or after
    y_{L-1} for a top not kept, runs to the buffer's end, and takes its
    weight gradient's row blocks, bias and input gradients in turn.
    """
    outs, scratch = [], []
    for (out, at), w in zip(_encoder_layout(widths, keep_top), widths[1:]):
        outs.append(None if out is None
                    else buf[n * out:n * (out + w)].reshape(n, w))
        scratch.append(buf[n * at:])
    return outs, scratch


def encoder_floats(n, widths, keep_top, blocked=False):
    """Floats of the buffer an n-row step3 pass works in: the largest, by
    layer, of its scratch's offset (``encoder_views``) plus its input
    gradient (none for the first layer) or its weight gradient, whole or,
    if blocked, in ``encoder_vjp``'s smallest row blocks (2 rows, 3 for an
    odd k_in > 2)."""
    most = 0
    for k, (_, at) in enumerate(_encoder_layout(widths, keep_top), 1):
        k_in, k_out = widths[k - 1], widths[k]
        rows = -(-k_in // max(1, k_in // 2)) if blocked else k_in
        most = max(most, n * at + rows * k_out,
                   n * (at + k_in) if k > 1 else 0)
    return most


def encoder_forward(x, arrays, acts, outs):
    """act(y @ w + b) layer by layer from y = x, for arrays w1, b1, w2, ...

    Layer k's output goes into outs[k], a C-contiguous n x w_k array; a
    None top entry skips the top layer. Returns outs. Nothing is checked
    (see ``encoder_widths``) or counted here.
    """
    for k, y in enumerate(outs):
        if y is None:
            break
        kernels._tiled_matmul(x, arrays[2 * k], out=y)
        y += arrays[2 * k + 1]
        x = kernels.activate(acts[k], y)
    return outs


def weight_transposes(arrays, need_gx):
    """The weights w1, w2, ... of arrays transposed, each a C-contiguous
    copy registered as "parameters" (its size is its weight's, whatever
    the rows), for ``encoder_vjp``'s input gradients; None for w1 unless
    need_gx. At a sub-batch's rows BLAS forms g @ w.T 1.6-2 times as
    fast from the copy as from the transposed view, with the same
    bits."""
    return [register(w.T.copy(), "parameters") if k or need_gx else None
            for k, w in enumerate(arrays[::2])]


def encoder_vjp(x, arrays, acts, outs, g, grads, scratch, wts):
    """Backpropagate g, the top output's gradient, through the layers.

    Layer k's slope product is written over outs[k], the output its
    forward saved, once the layer above has read it (a linear top saves
    None and has none). Its products go into scratch[k], a flat buffer
    whose size bounds them: its weight gradient, in near-equal row
    blocks x[:, rows].T @ g that fit (bitwise the whole product's rows;
    one block where the whole fits, none of one row, whose matrix-vector
    product would change the bits), and its bias gradient, each added
    into grads, and its input's gradient, g @ wts[k], for wts from
    ``weight_transposes``. Returns x's gradient, a view of scratch[0],
    or None if wts[0] is None. Nothing is counted here.
    """
    n = g.shape[0]
    for k in range(len(acts) - 1, -1, -1):
        k_in, k_out = arrays[2 * k].shape
        if outs[k] is not None:
            g = kernels.activation_vjp(acts[k], outs[k], g, outs[k])
        s, xt, gw = scratch[k], (outs[k - 1] if k else x).T, grads[2 * k]
        if s.size >= k_in * k_out:
            gw += np.matmul(xt, g, out=s[:k_in * k_out].reshape(k_in, k_out))
        else:
            blocks = min(-(-k_in // (s.size // k_out)), k_in // 2)
            for lo, hi in itertools.pairwise(
                    k_in * i // blocks for i in range(blocks + 1)):
                out = s[:(hi - lo) * k_out].reshape(hi - lo, k_out)
                gw[lo:hi] += np.matmul(xt[lo:hi], g, out=out)
        # np.sum's bits without its Python wrapper
        grads[2 * k + 1] += np.add.reduce(g, axis=0, out=s[:k_out])
        if wts[k] is None:
            return None
        g = np.matmul(g, wts[k], out=s[:n * k_in].reshape(n, k_in))
    return g


def _fw_encoder(attrs, x, *arrays):
    n, acts = x.shape[0], attrs["acts"]
    widths = encoder_widths(x.shape, arrays)
    # the outputs below the top one are saved for backward: count them
    # while the tape holds them
    outs = [register(np.empty((n, w))) for w in widths[1:-1]]
    top = np.empty((n, widths[-1]))
    encoder_forward(x, arrays, acts, outs + [top])
    # backward writes over what is saved: a sloped top is saved as a copy
    outs.append(None if acts[-1] == "linear" else register(top.copy()))
    return top, (x, arrays, acts, widths, outs)


def _bw_encoder(ctx, g, taped):
    x, arrays, acts, widths, outs = ctx
    # a first layer's input is a constant: skip its n x k product
    need_gx = taped[0] is not None
    ins = widths[:-1] if need_gx else widths[1:-1]
    # one scratch for every layer's products, each a weight or an input
    # gradient
    scratch = register(np.empty(max(
        [a * b for a, b in zip(widths, widths[1:])]
        + [x.shape[0] * w for w in ins])))
    # backward counts the gradients from the return on, as every VJP's
    grads = [np.zeros_like(a) for a in arrays]
    gx = encoder_vjp(x, arrays, acts, outs, g, grads,
                     [scratch] * len(acts), weight_transposes(arrays, need_gx))
    # x's gradient leaves the scratch, which dies here
    return (None if gx is None else gx.copy(), *grads)


def _fw_add(attrs, x, y):
    if x.shape == y.shape:
        return x + y, ("same",)
    if x.ndim == 2 and y.ndim == 1 and x.shape[1] == y.shape[0]:
        return x + y, ("rows",)
    raise _shape_error("add", x.shape, y.shape)


def _bw_add(ctx, g, taped):
    # an untaped input (a constant lse column, say) gets no copy
    gx = g.copy() if taped[0] is not None else None
    if taped[1] is None:
        return gx, None
    return gx, g.sum(axis=0) if ctx[0] == "rows" else g.copy()


def _fw_mul(attrs, x, y):
    if x.shape != y.shape:
        raise _shape_error("mul", x.shape, y.shape)
    return x * y, [x, y]


def _bw_mul(ctx, g, taped):
    gx = g * ctx[1]
    del ctx[1]  # y (G[r] in the alignment term) is freed before g * x
    return gx, g * ctx[0]


def _fw_scalar_mul(attrs, x):
    return attrs["c"] * x, (attrs["c"],)


def _bw_scalar_mul(ctx, g, taped):
    return (ctx[0] * g,)


def _fw_activation(attrs, x):
    act = attrs["act"]
    out = kernels.activate(act, x.copy())
    return out, (act, out)


def _bw_activation(ctx, g, taped):
    act, out = ctx
    return (kernels.activation_vjp(act, out, g),)


def _fw_row_softmax(attrs, x):
    if x.ndim != 2:
        raise _shape_error("row-softmax", x.shape)
    out = kernels.row_softmax(x)
    return out, (out,)


def _bw_row_softmax(ctx, g, taped):
    return (kernels.row_softmax_vjp(ctx[0], g),)


def _fw_row_logsumexp(attrs, x):
    if x.ndim != 2:
        raise _shape_error("row-logsumexp", x.shape)
    scale = attrs["scale"]
    e = scale * kernels._c64(x)
    out, s = kernels.exp_rows(e)
    # the exponentials and their row sums are saved for backward: count
    # them while the tape holds them
    return out, (scale, register(e), register(s))


def _bw_row_logsumexp(ctx, g, taped):
    # the strip kernel's arithmetic
    scale, e, s = ctx
    return (((scale * g) / s) * e,)


def _fw_sum(attrs, x):
    return np.asarray(x.sum()), (x.shape,)


def _bw_sum(ctx, g, taped):
    return (np.full(ctx[0], g),)


def _fw_reshape(attrs, x):
    shape = attrs["shape"]
    try:
        out = x.reshape(shape)
    except ValueError:
        raise _shape_error("reshape", x.shape, shape) from None
    return out.copy(), (x.shape,)


def _bw_reshape(ctx, g, taped):
    return (g.reshape(ctx[0]).copy(),)


def _fw_index_rows(attrs, x):
    if x.ndim != 2:
        raise _shape_error("index-rows", x.shape)
    idx = attrs["idx"]
    # the VJP's scatter takes row numbers in [0, len(x)), and np.take
    # would wrap a negative one
    if idx.size and idx.min() < 0:
        raise IndexError(f"index-rows: negative row index {idx.min()}")
    return np.take(x, idx, axis=0), (x.shape, idx)


def _bw_index_rows(ctx, g, taped):
    shape, idx = ctx
    return (kernels.scatter_add_rows(np.zeros(shape), idx, g),)


def _fw_pick_per_row(attrs, x):
    idx = attrs["idx"]
    if x.ndim != 2 or idx.shape != (x.shape[0], 1):
        raise _shape_error("pick-per-row", x.shape, idx.shape)
    return np.take_along_axis(x, idx, axis=1), (x.shape, idx)


def _bw_pick_per_row(ctx, g, taped):
    shape, idx = ctx
    out = np.zeros(shape)
    np.put_along_axis(out, idx, g, axis=1)
    return (out,)


def _fw_dot_product_matrix(attrs, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise _shape_error("dot-product-matrix", a.shape, b.shape)
    return kernels.pair_scores(a, b), (a, b)


def _bw_dot_product_matrix(ctx, g, taped):
    # the rows of g @ b go through the row-deterministic lane, so the
    # streamed tail (kernels.strip_logsumexp) gives the same rows bitwise
    a, b = ctx
    return kernels.matmul(g, b), np.matmul(g.T, a)


# Every op here is recorded by a training step or a reference graph,
# except row-softmax: the step benchmark still names it.
OPS = {
    "matmul": (_fw_matmul, _bw_matmul),
    "encoder": (_fw_encoder, _bw_encoder),
    "add": (_fw_add, _bw_add),
    "mul": (_fw_mul, _bw_mul),
    "scalar-mul": (_fw_scalar_mul, _bw_scalar_mul),
    "activation": (_fw_activation, _bw_activation),
    "row-softmax": (_fw_row_softmax, _bw_row_softmax),
    "row-logsumexp": (_fw_row_logsumexp, _bw_row_logsumexp),
    "sum": (_fw_sum, _bw_sum),
    "reshape": (_fw_reshape, _bw_reshape),
    "index-rows": (_fw_index_rows, _bw_index_rows),
    "pick-per-row": (_fw_pick_per_row, _bw_pick_per_row),
    "dot-product-matrix": (_fw_dot_product_matrix, _bw_dot_product_matrix),
}


def record(op_kind, *inputs, **attrs):
    """Apply an op; append a tape node when recording is active.

    Inputs may be Tensors or plain arrays (treated as constants). The
    output, registered in ``memtrace`` either way, joins the tape only if
    some input is a node of the active tape; gradients never flow into
    constants.
    """
    if op_kind not in OPS:
        raise ValueError(f"unknown op kind {op_kind!r}")
    forward, vjp = OPS[op_kind]
    tensors = [t if isinstance(t, Tensor) else constant(t) for t in inputs]
    # every Tensor already holds a float64 array
    out, ctx = forward(attrs, *[t.data for t in tensors])
    out = register(_as_f64(out))
    tape = _tape
    if tape is not None:
        token = tape.token
        input_idxs = [t.index if t.token == token else None
                      for t in tensors]
        if input_idxs.count(None) < len(input_idxs):
            idx = tape.add_node(op_kind, tuple(input_idxs), out, ctx, vjp)
            return Tensor(out, token, idx)
    return Tensor(out)


# Thin wrappers so call sites read as math rather than string dispatch.

def matmul(x, w):
    return record("matmul", x, w)


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
