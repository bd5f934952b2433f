"""Dual-encoder MLPs and the optimizers that consume their gradients.

Encoders are small dense networks mapping input rows to embedding rows.
Hidden layers use one activation from ``kernels.ACTIVATIONS``; the final
layer is linear so embeddings are unconstrained. The same code path runs
taped and graph-less, which is what makes the two modes bit-identical:
``autodiff.encoder_forward`` and ``encoder_vjp`` are the one encoder
loop. A taped pass (``encode_graph``) records one ``encoder`` node over
all layers; ``forward_rows`` is the graph-less pass, chunk by chunk,
that the cached step's step1 and ``encode``, the value-level entry, run.

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
    """Layer list of (weight, bias) pairs plus per-layer activations."""

    layers: list
    activations: list
    out_dim: int

    def copy(self):
        return EncoderParams(
            layers=[(w.copy(), b.copy()) for w, b in self.layers],
            activations=list(self.activations),
            out_dim=self.out_dim,
        )

    @property
    def in_dim(self):
        return self.layers[0][0].shape[0] if self.layers else self.out_dim

    def dims(self):
        if not self.layers:
            return [self.out_dim]
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]


def init_params(seed, dims, activation="tanh"):
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Hidden layers take the given activation; the final layer is linear.
    """
    if len(dims) < 2:
        raise ValueError(f"dims needs an input and an output size, got {dims}")
    if activation not in kernels.ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    rng = np.random.default_rng(seed)
    layers = []
    activations = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append((w, b))
        activations.append(activation if k < len(dims) - 2 else "linear")
    return EncoderParams(layers=layers, activations=activations, out_dim=dims[-1])


def identity_params(dim):
    """A single linear layer that reproduces its input exactly."""
    return EncoderParams(
        layers=[(np.eye(dim), np.zeros(dim))],
        activations=["linear"],
        out_dim=dim,
    )


def encode(params, inputs):
    """Embed input rows without recording; returns a plain array, which
    is registered. The rows are bitwise those a tape would give."""
    inputs = np.asarray(inputs, dtype=np.float64)
    n = inputs.shape[0]
    out = register(np.empty((n, params.out_dim)))
    return forward_rows(params, inputs, [(0, n)], out)


def forward_floats(n, widths):
    """Floats of the buffer ``forward_rows`` makes for chunks of at most
    n rows through layers of widths w0..wL: two halves of n rows, each
    as wide as the widest layer below the top that it takes."""
    hidden = widths[1:-1]
    return n * (max(hidden[::2], default=0) + max(hidden[1::2], default=0))


def forward_rows(params, rows, chunks, out):
    """Each (lo, hi) chunk of rows through the encoder, with no tape, its
    top layer straight into out[lo:hi]; returns out. Layer k below the
    top goes into half k % 2 of one registered buffer of
    ``forward_floats`` for the largest chunk, viewed once for it."""
    if not chunks:
        return out
    arrays, acts = param_arrays(params), params.activations
    widths = ad.encoder_widths(rows.shape, arrays)
    b = max(hi - lo for lo, hi in chunks)
    buf = register(np.empty(forward_floats(b, widths)))
    # half 1 starts after b rows of half 0's widest layer
    at = b * max(widths[1:-1:2], default=0)

    def views(n):
        return [buf[k % 2 * at:][:n * w].reshape(n, w)
                for k, w in enumerate(widths[1:-1])]

    full = views(b)
    for lo, hi in chunks:
        outs = full if hi - lo == b else views(hi - lo)
        ad.encoder_forward(rows[lo:hi], arrays, acts, outs + [out[lo:hi]])
    return out


def make_leaves(params):
    """The params with every array registered as a leaf on the active tape."""
    leaves = [ad.leaf(a) for a in param_arrays(params)]
    return params_from_arrays(params, leaves)


def encode_graph(params, x):
    """Embed a Tensor of input rows through parameter arrays or leaves,
    as one ``encoder`` node."""
    return ad.record("encoder", x, *param_arrays(params),
                     acts=tuple(params.activations))


def param_arrays(params):
    """Flat list of arrays or leaves in a fixed order (w, b per layer)."""
    out = []
    for w, b in params.layers:
        out.append(w)
        out.append(b)
    return out


def params_from_arrays(params, arrays):
    """Rebuild an EncoderParams from a flat array list (same layout)."""
    layers = []
    it = iter(arrays)
    for _ in params.layers:
        layers.append((next(it), next(it)))
    return EncoderParams(
        layers=layers,
        activations=list(params.activations),
        out_dim=params.out_dim,
    )


def leaf_grads(tape, leaves):
    """Gradients of the flat parameter list after a backward pass."""
    return [tape.grad(t) for t in param_arrays(leaves)]


def total_floats(params):
    return sum(w.size + b.size for w, b in params.layers)


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
    """One update over a flat list of arrays; pure in all arguments."""
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
    new_params, new_m, new_v = [], [], []
    for p, g, mk, vk in zip(params, grads, m, v):
        p2, m2, v2 = kernels.adam_update(
            p, mk, vk, g, state.lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, t,
            scratch,
        )
        new_params.append(p2)
        new_m.append(m2)
        new_v.append(v2)
    return new_params, replace(state, t=t, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# checkpoint file
# ---------------------------------------------------------------------------

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
            f"layer{k}.{name}": arr.tolist()
            for k, (w, b) in enumerate(params.layers)
            for name, arr in (("w", w), ("b", b))
        },
    }


def params_from_group(group):
    """The EncoderParams a ``params_to_group`` group describes.

    The group is checked before any pass runs, as it may come from any
    file: one activation per layer, each in ``kernels.ACTIVATIONS``; a w
    and a b for every layer, each weight taking the width the layer below
    gives and each bias as wide as its weight; and out_dim the top
    width. ValueError names the first fault.
    """
    meta, arrays = group["meta"], group["arrays"]
    activations = list(meta["activations"])
    for name in activations:
        if name not in kernels.ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; choose from "
                             f"{kernels.ACTIVATIONS}")
    if not activations or len(arrays) != 2 * len(activations):
        raise ValueError(f"{len(activations)} activations for "
                         f"{len(arrays)} weight and bias arrays")
    layers = []
    for k in range(len(activations)):
        names = (f"layer{k}.w", f"layer{k}.b")
        if not all(name in arrays for name in names):
            raise ValueError(f"layer {k} lacks {names[0]} or {names[1]}")
        w, b = (np.asarray(arrays[name], dtype=np.float64) for name in names)
        if (w.ndim != 2 or b.shape != w.shape[1:]
                or (layers and w.shape[0] != layers[-1][0].shape[1])):
            raise ValueError(f"layer {k}: weight {w.shape} and bias "
                             f"{b.shape} do not chain onto the layer below")
        layers.append((w, b))
    out_dim = int(meta["out_dim"])
    if out_dim != layers[-1][0].shape[1]:
        raise ValueError(f"out_dim {out_dim} is not the top width "
                         f"{layers[-1][0].shape[1]}")
    return EncoderParams(layers=layers, activations=activations,
                         out_dim=out_dim)


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
