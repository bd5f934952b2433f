"""Cached training through a parameterized distance head.

Instead of a dot product, pair scores come from a scalar head phi
applied to each (anchor embedding, target embedding) pair,
phi(f, g) = act(f w1a + g w1b + b1) w2 + b2. Its first layer is
separable, so the cached step splits at A = F w1a and B = G w1b and runs
phi once per pair, forward and backward, in three phases:

1. ``forward_collect``: a graph-less forward collects all
   representations F and G (the encoder step1) and then A and B, kept as
   the representation store; O(n * (d + h)) floats.
2. ``build_distance_cache``: ``kernels.head_strip_loss`` walks the
   anchors in strips of ``kernels.HEAD_STRIP`` rows, in the step's
   ``trainer.LOSS_PHASE`` window. Each strip runs the rest of phi over
   all its pairs, takes the softmax loss of the scaled distances and
   runs phi's backward straight away, into dL/dA rows, dL/dB and the b1
   and w2 gradients; b2's is an exact zero, as the row softmax ignores a
   shift of every distance of a row. It holds one strip of hidden units
   and one strip of distances, which become their softmax in place, at a
   time, never an n x n array; the dL/dA and dL/dB rows are the distance
   gradient cache.
3. ``update_omega_and_fold``: folds that cache through the first layer,
   u = gA w1a^T and v = gB w1b^T, a representation gradient cache the
   encoder step3 consumes as usual, and adds the w1a and w1b gradients.

``train_step_deep`` frames the step and reads its stats through
``trainer.begin_step`` and ``trainer.step_stats``, and updates through
the trainer's optimizer path with the head's arrays as extras. The three
phases take an mlp head only and raise ValueError, naming the head's
kind, for any other. A fixed dot-product head has no parameters:
``train_step_deep`` runs it as ``trainer.train_step_cached`` itself.
Identity encoders with ``train_encoders=False`` give the
early-interaction case, where all learning lives in the head. ``deep_direct_grads`` keeps the
whole pair graph (``phi_pairs`` and the dense loss tail) on one tape as
the independent reference, for either head.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import kernels
from . import loss as loss_mod
from . import memtrace
from . import trainer
from .trainer import (
    CacheNotFilledError,
    RepresentationGradientCache,
    count,
    plan_subbatches,
)


@dataclass
class DistanceHead:
    """Scalar head over concatenated embedding pairs.

    kind "mlp": one hidden layer; the first weight matrix is stored
    split into the half applied to the anchor embedding (w1a) and the
    half applied to the target embedding (w1b), which is the same linear
    map as concatenating the pair and multiplying by a stacked matrix.
    kind "dot": the fixed dot product, no parameters.
    """

    kind: str
    d: int
    w1a: np.ndarray = None
    w1b: np.ndarray = None
    b1: np.ndarray = None
    w2: np.ndarray = None
    b2: np.ndarray = None
    activation: str = "tanh"


def init_distance_head(seed, d, hidden=8, activation="tanh"):
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(2 * d)
    bound2 = 1.0 / np.sqrt(hidden)
    return DistanceHead(
        kind="mlp",
        d=d,
        w1a=rng.uniform(-bound1, bound1, size=(d, hidden)),
        w1b=rng.uniform(-bound1, bound1, size=(d, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-bound2, bound2, size=(hidden, 1)),
        b2=np.zeros(1),
        activation=activation,
    )


def dot_head(d):
    return DistanceHead(kind="dot", d=d)


HEAD_ARRAYS = ("w1a", "w1b", "b1", "w2", "b2")


def head_arrays(head):
    if head.kind == "dot":
        return []
    return [getattr(head, name) for name in HEAD_ARRAYS]


def head_from_arrays(head, arrays):
    if head.kind == "dot":
        return head
    w1a, w1b, b1, w2, b2 = arrays
    return DistanceHead(
        kind="mlp", d=head.d, w1a=w1a, w1b=w1b, b1=b1, w2=w2, b2=b2,
        activation=head.activation,
    )


def make_head_leaves(head):
    """The head with every array registered as a leaf on the active tape
    (as a constant when nothing is recording)."""
    return head_from_arrays(head, [ad.leaf(a) for a in head_arrays(head)])


def head_leaf_grads(tape, head_leaves):
    return [tape.grad(t) for t in head_arrays(head_leaves)]


def phi_pairs(head, Fb, Gb):
    """Score every (anchor, target) pair of two embedding blocks.

    Output rows are anchor-major: row i * n_b + j is the pair (i, j).
    The head's arrays may be plain arrays or leaves (``make_head_leaves``).
    """
    n_a = Fb.data.shape[0]
    n_b = Gb.data.shape[0]
    d = Fb.data.shape[1]
    rep = np.repeat(np.arange(n_a), n_b)
    tile = np.tile(np.arange(n_b), n_a)
    xf = ad.index_rows(Fb, rep)
    xg = ad.index_rows(Gb, tile)
    if head.kind == "dot":
        return ad.matmul(ad.mul(xf, xg), np.ones((d, 1)))
    w1a, w1b, b1, w2, b2 = head_arrays(head)
    pre = ad.add(ad.add(ad.matmul(xf, w1a), ad.matmul(xg, w1b)), b1)
    hidden = ad.activation(pre, head.activation)
    return ad.add(ad.matmul(hidden, w2), b2)


def _require_mlp(head, phase):
    # the phases run an mlp head only; a dot head is the cached step
    if head.kind != "mlp":
        raise ValueError(
            f"{phase} takes an mlp head, got a {head.kind!r} head; "
            f"train_step_deep runs a dot head as the plain cached step"
        )


@dataclass
class PairInputs:
    """What the loss phase reads: the head and its first layer per side,
    A = F @ w1a and B = G @ w1b."""

    head: DistanceHead
    A: np.ndarray
    B: np.ndarray


@dataclass
class DistanceGradientCache:
    """dL/dA and dL/dB rows, plus the gradients of b1, w2 and b2."""

    gA: np.ndarray
    gB: np.ndarray
    grad_tail: list  # [b1, w2, b2] gradients
    filled: bool = False


def forward_collect(batch, params_f, params_g, head, plan):
    """Graph-less pass: all representations and the head's first layer.

    The first layer is separable, act(F_i w1a + G_j w1b + b1), so its two
    products are taken once per row here, not once per pair.
    """
    _require_mlp(head, "forward_collect")
    F, G = trainer.step1_graphless_forward(batch, params_f, params_g, plan)
    with memtrace.phase("pairs"):
        A = memtrace.register(kernels.matmul(F, head.w1a),
                              "representation-store")
        B = memtrace.register(kernels.matmul(G, head.w1b),
                              "representation-store")
    return F, G, PairInputs(head, A, B)


def build_distance_cache(pairs, r, tau):
    """Loss over every pair, with dL/dA, dL/dB and the later head grads.

    ``kernels.head_strip_loss`` walks strips of anchors: each pair goes
    through the head forward and backward once, and no n x m array is
    held.
    """
    _require_mlp(pairs.head, "build_distance_cache")
    n_pairs = pairs.A.shape[0] * pairs.B.shape[0]
    loss_mod.validate_positive_map(r, pairs.B.shape[0])
    head = pairs.head
    with memtrace.phase(trainer.LOSS_PHASE):
        loss_value, gA, gB, grad_tail = kernels.head_strip_loss(
            pairs.A, pairs.B, r, 1.0 / tau, head.b1, head.w2, head.b2,
            head.activation,
        )
        dcache = DistanceGradientCache(gA, gB, grad_tail, True)
    count("phi_fwd_pairs", n_pairs)
    count("phi_bwd_pairs", n_pairs)
    return dcache, loss_value


def update_omega_and_fold(F, G, head, dcache, plan):
    """Fold dL/dA, dL/dB back through the first layer: u, v and w1 grads.

    u = gA w1a^T and v = gB w1b^T form the representation gradient cache
    the encoder step3 consumes; F^T gA and G^T gB are the w1a and w1b
    gradients. Returns the head gradient list, in ``HEAD_ARRAYS`` order,
    and that cache. The fold works on whole rows, so ``plan`` (taken like
    the other phases) does not change it.
    """
    _require_mlp(head, "update_omega_and_fold")
    if not dcache.filled:
        raise CacheNotFilledError(
            "distance gradient cache consumed before being filled"
        )
    dcache.filled = False
    with memtrace.phase("omega"):
        u_rows = memtrace.register(
            kernels.matmul(dcache.gA, head.w1a.T), "gradient-cache")
        v_rows = memtrace.register(
            kernels.matmul(dcache.gB, head.w1b.T), "gradient-cache")
        grad_head = [
            memtrace.register(np.matmul(F.T, dcache.gA), "parameters"),
            memtrace.register(np.matmul(G.T, dcache.gB), "parameters"),
        ] + dcache.grad_tail
    cache = RepresentationGradientCache(u_rows=u_rows, v_rows=v_rows, filled=True)
    return grad_head, cache


@dataclass
class DeepConfig(trainer.TrainConfig):
    train_encoders: bool = True


def train_step_deep(batch, params_f, params_g, head, opt_state, config):
    """forward_collect -> distance cache -> fold -> encoder step3 -> update.

    A dot head has no parameters and is the plain cached step, which
    this runs; with frozen encoders it would have nothing to train, so
    that raises ValueError.
    """
    if head.kind == "dot":
        if not config.train_encoders:
            raise ValueError(
                "a dot head with frozen encoders has nothing to train"
            )
        res = trainer.train_step_cached(
            batch, params_f, params_g, opt_state, config)
        res.head = head
        return res
    trainer.begin_step(config.tau)
    plan = plan_subbatches(
        batch.n_anchors, batch.n_targets, config.sub_batch_s, config.sub_batch_t
    )
    # frozen encoders run no step3, whose peak step1's passes would fill
    plan.runs_step3 = config.train_encoders
    F, G, pairs = forward_collect(batch, params_f, params_g, head, plan)
    dcache, loss_value = build_distance_cache(pairs, batch.r, config.tau)
    grad_head, rep_cache = update_omega_and_fold(F, G, head, dcache, plan)
    if config.train_encoders:
        grads_f, grads_g = trainer.step3_accumulate(
            batch, params_f, params_g, plan, rep_cache
        )
        new_f, new_g, new_state, new_head_arrays = trainer._apply_optimizer(
            params_f, params_g, grads_f, grads_g, opt_state,
            head_arrays(head), grad_head,
        )
        new_head = head_from_arrays(head, new_head_arrays)
    else:
        new_arrays, new_state = encoders.optimizer_step(
            opt_state, head_arrays(head), grad_head
        )
        new_f, new_g = params_f, params_g
        new_head = head_from_arrays(head, new_arrays)
    return trainer.StepResult(
        loss_value, new_f, new_g, new_state, trainer.step_stats(),
        head=new_head,
    )


def deep_direct_grads(batch, params_f, params_g, head, tau=1.0):
    """Everything in one graph: encoders, head, loss.

    The per-pair scores come back as an anchor-major column, which
    reshapes to the [n_anchors x n_targets] score matrix inside the graph.
    """
    n_s, n_t = batch.n_anchors, batch.n_targets
    tape = ad.Tape()
    with ad.recording(tape):
        leaves_f = encoders.make_leaves(params_f)
        leaves_g = encoders.make_leaves(params_g)
        F_t = encoders.encode_graph(leaves_f, ad.constant(batch.anchors))
        G_t = encoders.encode_graph(leaves_g, ad.constant(batch.targets))
        head_leaves = make_head_leaves(head)
        out = phi_pairs(head_leaves, F_t, G_t)
        d_mat = ad.reshape(out, (n_s, n_t))
        z = ad.scalar_mul(1.0 / tau, d_mat)
        loss_t = loss_mod.loss_graph_from_logits(z, batch.r)
    count("phi_fwd_pairs", n_s * n_t)
    tape.backward(loss_t)
    count("phi_bwd_pairs", n_s * n_t)
    grads_f = encoders.leaf_grads(tape, leaves_f)
    grads_g = encoders.leaf_grads(tape, leaves_g)
    grad_head = head_leaf_grads(tape, head_leaves)
    return grads_f, grads_g, grad_head, float(loss_t.data)


# ---------------------------------------------------------------------------
# checkpoint payload
# ---------------------------------------------------------------------------

def head_to_group(head):
    group = {
        "kind": "distance-head",
        "meta": {"head_kind": head.kind, "d": int(head.d)},
        "arrays": {},
    }
    if head.kind == "mlp":
        group["meta"]["activation"] = head.activation
        for name, arr in zip(HEAD_ARRAYS, head_arrays(head)):
            group["arrays"][name] = arr.tolist()
    return group


def head_from_group(group):
    """The head a ``head_to_group`` group describes, checked as
    ``encoders.params_from_group`` checks an encoder's: ValueError names
    an unknown kind or activation, or an array of the wrong shape."""
    meta = group["meta"]
    kind, d = meta["head_kind"], int(meta["d"])
    if kind == "dot":
        return dot_head(d)
    activation = meta.get("activation", "tanh")
    if kind != "mlp" or activation not in kernels.ACTIVATIONS:
        raise ValueError(f"unknown head kind {kind!r} or activation "
                         f"{activation!r}")
    arrays = [
        np.asarray(group["arrays"][name], dtype=np.float64)
        for name in HEAD_ARRAYS
    ]
    h = arrays[2].size
    for name, arr, shape in zip(HEAD_ARRAYS, arrays,
                                ((d, h), (d, h), (h,), (h, 1), (1,))):
        if arr.shape != shape:
            raise ValueError(f"head array {name} has shape {arr.shape}, "
                             f"not {shape}")
    shell = DistanceHead(kind="mlp", d=d, activation=activation)
    return head_from_arrays(shell, arrays)
