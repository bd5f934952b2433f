"""Dual-encoder MLPs and the optimizers that consume their gradients.

Encoders are small dense networks mapping input rows to embedding rows.
Hidden layers use one activation from ``kernels.ACTIVATIONS``; the final
layer is linear so embeddings are unconstrained. The same code path runs
taped and graph-less, which is what makes the two modes bit-identical:
``autodiff.encoder_forward`` and ``encoder_vjp`` are the one encoder
loop. A taped pass (``encode_graph``) records one ``encoder`` node over
all layers. With no tape, ``forward_rows`` runs R-row passes of the
forward, for the cached step's step1 and for ``encode``, the value-level
entry, and ``accumulate_rows`` those of the forward and VJP, for step3's
parameter gradients; the cached step picks R (``trainer._pass_plan``).

An encoder's parameters are one flat list, ``EncoderParams.arrays`` =
[w1, b1, w2, b2, ...]: the order the encoder loop, the gradient lists,
the optimizer and a checkpoint's ``layer{k}.w``/``layer{k}.b`` arrays
use. Its widths are read off the weights; nothing stores them twice.

Optimizer steps are pure functions: they return fresh parameter and
state objects and never mutate their inputs. That property is what lets
replicated workers stay bit-identical by construction.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import kernels
from .memtrace import register

CHECKPOINT_FORMAT = "splitgrad-params"
CHECKPOINT_VERSION = 1


@dataclass
class EncoderParams:
    """One encoder's parameters as the flat list that every pass, every
    gradient list and the optimizer take: ``arrays`` is [w1, b1, w2, b2,
    ...], weight k of shape (width k, width k + 1), with one activation
    per layer. The widths are read off the arrays."""

    arrays: list
    activations: list

    def copy(self):
        return EncoderParams([a.copy() for a in self.arrays],
                             list(self.activations))

    @property
    def layers(self):
        """(weight, bias) pairs, bottom layer first."""
        return list(zip(self.arrays[::2], self.arrays[1::2]))

    @property
    def in_dim(self):
        return self.arrays[0].shape[0]

    @property
    def out_dim(self):
        return self.arrays[-2].shape[1]

    def dims(self):
        return [self.in_dim] + [w.shape[1] for w in self.arrays[::2]]


def init_params(seed, dims, activation="tanh"):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Hidden layers take the given activation; the final layer is linear.
    """
    if len(dims) < 2:
        raise ValueError(f"dims needs an input and an output size, got {dims}")
    if min(dims) < 1:
        raise ValueError(f"every width in dims must be at least 1, got {dims}")
    if activation not in kernels.ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    arrays = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        arrays += [rng.uniform(-bound, bound, size=(fan_in, fan_out)),
                   np.zeros(fan_out)]
    return EncoderParams(arrays, [activation] * (len(dims) - 2) + ["linear"])


def identity_params(dim):
    """A single linear layer that reproduces its input exactly."""
    return EncoderParams([np.eye(dim), np.zeros(dim)], ["linear"])


def encode(params, inputs):
    """Embed input rows without recording; returns a plain array, which
    is registered. The rows are bitwise those a tape would give."""
    inputs = np.asarray(inputs, dtype=np.float64)
    out = register(np.empty((inputs.shape[0], params.out_dim)))
    return forward_rows(params, inputs, inputs.shape[0], out)


def forward_floats(n, widths):
    """Floats of the buffer ``forward_rows`` makes for passes of n rows
    through layers of widths w0..wL: two halves of n rows, each as wide
    as the widest layer below the top that it takes."""
    hidden = widths[1:-1]
    return n * (max(hidden[::2], default=0) + max(hidden[1::2], default=0))


def _row_passes(n, R, floats, views, run):
    # run(lo, hi, views(buf, hi - lo)) for each R-row pass of n rows in
    # order, the last one ragged, in one registered buffer of floats, at
    # kernels.PASS_BUFSIZE's ufunc buffer; no rows make no buffer
    if not n:
        return
    R = min(R, n)
    buf = register(np.empty(floats))
    full = views(buf, R)
    with kernels._row_buffer(kernels.PASS_BUFSIZE):
        for lo in range(0, n, R):
            hi = min(lo + R, n)
            run(lo, hi, full if hi - lo == R else views(buf, hi - lo))


def forward_rows(params, rows, R, out):
    """R-row passes of rows through the encoder, with no tape, each
    pass's top layer straight into out[lo:hi]; returns out. Layer k
    below the top goes into half k % 2 of one buffer of
    ``forward_floats`` for the passes."""
    arrays, acts = params.arrays, params.activations
    widths = ad.encoder_widths(rows.shape, arrays)
    m = min(R, rows.shape[0])
    # half 1 starts after m rows of half 0's widest layer
    at = m * max(widths[1:-1:2], default=0)

    def views(buf, n):
        return [buf[k % 2 * at:][:n * w].reshape(n, w)
                for k, w in enumerate(widths[1:-1])]

    def run(lo, hi, outs):
        ad.encoder_forward(rows[lo:hi], arrays, acts, outs + [out[lo:hi]])

    _row_passes(rows.shape[0], R, forward_floats(m, widths), views, run)
    return out


def accumulate_rows(params, rows, R, floats, seed_rows, grads):
    """R-row passes of rows through the encoder and back, with no tape,
    in one buffer of floats laid out by ``autodiff.encoder_views``: each
    pass's forward keeps what its VJP reads, and the VJP, seeded with the
    pass's rows of seed_rows, adds each layer's gradients into grads."""
    arrays, acts = params.arrays, params.activations
    widths = ad.encoder_widths(rows.shape, arrays)
    keep_top = acts[-1] != "linear"
    wts = ad.weight_transposes(arrays, False)

    def run(lo, hi, layout):
        outs, scratch = layout
        x = rows[lo:hi]
        ad.encoder_forward(x, arrays, acts, outs)
        ad.encoder_vjp(x, arrays, acts, outs, seed_rows[lo:hi], grads,
                       scratch, wts)

    _row_passes(rows.shape[0], R, floats,
                lambda buf, n: ad.encoder_views(buf, n, widths, keep_top), run)


def make_leaves(params):
    """The params with every array registered as a leaf on the active tape."""
    return params_from_arrays(params, [ad.leaf(a) for a in params.arrays])


def encode_graph(params, x):
    """Embed a Tensor of input rows through parameter arrays or leaves,
    as one ``encoder`` node."""
    return ad.record("encoder", x, *params.arrays,
                     acts=tuple(params.activations))


def param_arrays(params):
    """The flat list of arrays or leaves (w, b per layer), the caller's
    to keep."""
    return list(params.arrays)


def params_from_arrays(params, arrays):
    """An EncoderParams with params' activations over a flat array list
    (same layout)."""
    return EncoderParams(list(arrays), list(params.activations))


def leaf_grads(tape, leaves):
    """Gradients of the flat parameter list after a backward pass."""
    return [tape.grad(t) for t in leaves.arrays]


def total_floats(params):
    return sum(a.size for a in params.arrays)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    kind: str
    lr: float
    t: int = 0
    m: list = field(default=None)
    v: list = field(default=None)


def init_optimizer(kind="adam", lr=1e-3):
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return OptimizerState(kind=kind, lr=lr)


def optimizer_step(state, params, grads):
    """One update over a flat list of arrays; pure in all arguments. A
    gradient whose square overflows leaves Adam's v infinite, unflagged:
    a run's finite check (``bench._check_finite``) stops it."""
    if len(params) != len(grads):
        raise ValueError(
            f"optimizer_step: {len(params)} params vs {len(grads)} grads"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ad.ShapeMismatchError(
                f"optimizer_step: param shape {tuple(p.shape)} vs grad "
                f"shape {tuple(g.shape)}"
            )
    t = state.t + 1
    if state.kind == "sgd":
        new_params = [p - state.lr * g for p, g in zip(params, grads)]
        return new_params, replace(state, t=t)
    m = state.m if state.m is not None else [np.zeros_like(p) for p in params]
    v = state.v if state.v is not None else [np.zeros_like(p) for p in params]
    size = max((p.size for p in params), default=0)
    scratch = (np.empty(size), np.empty(size))
    with np.errstate(over="ignore"):
        steps = [kernels.adam_update(p, mk, vk, g, state.lr, ADAM_BETA1,
                                     ADAM_BETA2, ADAM_EPS, t, scratch)
                 for p, g, mk, vk in zip(params, grads, m, v)]
    new_params, new_m, new_v = ([s[i] for s in steps] for i in range(3))
    return new_params, replace(state, t=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# checkpoint file
# ---------------------------------------------------------------------------

def _array_names(n_layers):
    """A checkpoint group's array names, in the flat list's order."""
    return [f"layer{k}.{name}" for k in range(n_layers) for name in "wb"]


def params_to_group(params):
    """Serializable description of one encoder's parameters."""
    return {
        "kind": "encoder",
        "meta": {
            "dims": [int(d) for d in params.dims()],
            "activations": list(params.activations),
            "out_dim": int(params.out_dim),
        },
        "arrays": {
            name: a.tolist() for name, a in
            zip(_array_names(len(params.activations)), params.arrays)
        },
    }


def params_from_group(group):
    """The EncoderParams a ``params_to_group`` group describes.

    The group is checked before any pass runs, as it may come from any
    file: one activation per layer, each in ``kernels.ACTIVATIONS``; a w
    and a b for every layer, each non-empty and finite, each weight
    taking the width the layer below gives and each bias as wide as its
    weight; and out_dim the top width. ValueError names the first fault.
    """
    meta, arrays = group["meta"], group["arrays"]
    activations = list(meta["activations"])
    for name in activations:
        if name not in kernels.ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; choose from "
                             f"{kernels.ACTIVATIONS}")
    names = _array_names(len(activations))
    if not activations or set(arrays) != set(names):
        raise ValueError(f"{len(activations)} activations take arrays "
                         f"{names}, not {sorted(arrays)}")
    flat = [np.asarray(arrays[name], dtype=np.float64) for name in names]
    for name, a in zip(names, flat):
        if a.size == 0 or not np.isfinite(a).all():
            raise ValueError(f"array {name} is empty or not finite")
    for k, (w, b) in enumerate(zip(flat[::2], flat[1::2])):
        if (w.ndim != 2 or b.shape != w.shape[1:]
                or (k and w.shape[0] != flat[2 * k - 2].shape[1])):
            raise ValueError(f"layer {k}: weight {w.shape} and bias "
                             f"{b.shape} do not chain onto the layer below")
    params = EncoderParams(flat, activations)
    out_dim = int(meta["out_dim"])
    if out_dim != params.out_dim:
        raise ValueError(f"out_dim {out_dim} is not the top width "
                         f"{params.out_dim}")
    return params


def save_params_file(path, groups):
    """Write named parameter groups as versioned JSON.

    JSON numbers are written with full repr so float64 values round-trip
    exactly.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "groups": groups,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_params_file(path):
    with open(path) as fh:
        payload = json.load(fh)
    if (not isinstance(payload, dict)
            or payload.get("format") != CHECKPOINT_FORMAT):
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')}"
        )
    return payload["groups"]
