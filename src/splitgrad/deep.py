"""Cached training through a parameterized distance head.

Instead of a dot product, pair scores come from a scalar head phi
applied to each (anchor embedding, target embedding) pair. The cached
procedure then links two caches:

1. a graph-less forward collects all representations and all pairwise
   distances (in sub-batch pair blocks);
2. a tape over the distance matrix alone backpropagates the loss into
   per-pair gradients w_ij, the distance gradient cache;
3. pair blocks are re-run taped through phi, seeded with their w block;
   this simultaneously accumulates the head's parameter gradient and
   folds w into per-row u_i, v_j, i.e. a representation gradient cache
   the encoder step3 can consume as usual.

A fixed dot-product head (no parameters) reduces the whole construction
to the plain trainer; identity encoders give the early-interaction case
where all learning lives in the head.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import loss as loss_mod
from . import trainer
from .trainer import (
    CacheNotFilledError,
    RepresentationGradientCache,
    _begin_step,
    _phase,
    _register,
    count,
    counter_snapshot,
    plan_subbatches,
    reset_counters,
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

    def copy(self):
        return head_from_arrays(self, [a.copy() for a in head_arrays(self)])


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


@dataclass
class HeadLeaves:
    kind: str
    tensors: list
    activation: str = "tanh"


def make_head_leaves(head):
    """Register head parameters as leaves on the active tape (as
    constants when nothing is recording)."""
    if head.kind == "dot":
        return HeadLeaves(kind="dot", tensors=[])
    return HeadLeaves(
        kind="mlp",
        tensors=[ad.leaf(a) for a in head_arrays(head)],
        activation=head.activation,
    )


def head_leaf_grads(tape, head_leaves):
    return [tape.grad(t) for t in head_leaves.tensors]


def phi_pairs(head_leaves, Fb, Gb):
    """Score every (anchor, target) pair of two embedding blocks.

    Output rows are anchor-major: row i * n_b + j is the pair (i, j).
    """
    n_a = Fb.data.shape[0]
    n_b = Gb.data.shape[0]
    d = Fb.data.shape[1]
    rep = np.repeat(np.arange(n_a), n_b)
    tile = np.tile(np.arange(n_b), n_a)
    xf = ad.index_rows(Fb, rep)
    xg = ad.index_rows(Gb, tile)
    if head_leaves.kind == "dot":
        return ad.matmul(ad.mul(xf, xg), np.ones((d, 1)))
    w1a, w1b, b1, w2, b2 = head_leaves.tensors
    pre = ad.add(ad.add(ad.matmul(xf, w1a), ad.matmul(xg, w1b)), b1)
    hidden = encoders.apply_activation(head_leaves.activation, pre)
    return ad.add(ad.matmul(hidden, w2), b2)


@dataclass
class DistanceGradientCache:
    """Per-pair loss gradients w_ij plus the collected distances."""

    w: np.ndarray
    d_vals: np.ndarray
    filled: bool = False


def forward_collect(batch, params_f, params_g, head, plan):
    """Graph-less pass: all representations plus all pair distances."""
    F, G = trainer.step1_graphless_forward(batch, params_f, params_g, plan)
    with _phase("pairs"):
        d_vals = _register(
            np.empty((batch.n_anchors, batch.n_targets)), "representation-store"
        )
        with ad.no_graph():
            head_leaves = make_head_leaves(head)
            for a_lo, a_hi in plan.anchor_chunks:
                for b_lo, b_hi in plan.target_chunks:
                    block = phi_pairs(
                        head_leaves,
                        ad.constant(F[a_lo:a_hi]),
                        ad.constant(G[b_lo:b_hi]),
                    )
                    d_vals[a_lo:a_hi, b_lo:b_hi] = block.data.reshape(
                        a_hi - a_lo, b_hi - b_lo
                    )
                    count("phi_fwd_pairs", (a_hi - a_lo) * (b_hi - b_lo))
    return F, G, d_vals


def build_distance_cache(d_vals, r, tau):
    """Tape over the distance matrix alone; backward fills w."""
    with _phase("step2"):
        tape = ad.Tape()
        with ad.recording(tape):
            d_leaf = tape.leaf(d_vals)
            z = ad.scalar_mul(1.0 / tau, d_leaf)
            loss_t = loss_mod.loss_graph_from_logits(z, r)
        tape.backward(loss_t)
        w = _register(tape.grad(d_leaf).copy(), "gradient-cache")
    return DistanceGradientCache(w=w, d_vals=d_vals, filled=True), float(loss_t.data)


def update_omega_and_fold(F, G, head, dcache, plan, order=None):
    """Per pair block: taped phi seeded with w; collect head grads and u, v.

    Iterates anchor chunks in the outer loop and target chunks in the
    inner loop. Returns the head gradient list and a representation
    gradient cache ready for the encoder step3.
    """
    if not dcache.filled:
        raise CacheNotFilledError(
            "distance gradient cache consumed before being filled"
        )
    dcache.filled = False
    with _phase("omega"):
        grad_head = [
            _register(np.zeros_like(a), "parameters") for a in head_arrays(head)
        ]
        u_rows = _register(np.zeros((F.shape[0], F.shape[1])), "gradient-cache")
        v_rows = _register(np.zeros((G.shape[0], G.shape[1])), "gradient-cache")
        blocks = [
            (a_chunk, b_chunk)
            for a_chunk in plan.anchor_chunks
            for b_chunk in plan.target_chunks
        ]
        if order is not None:
            blocks = [blocks[i] for i in order]
        for (a_lo, a_hi), (b_lo, b_hi) in blocks:
            tape = ad.Tape()
            with ad.recording(tape):
                head_leaves = make_head_leaves(head)
                f_leaf = tape.leaf(F[a_lo:a_hi])
                g_leaf = tape.leaf(G[b_lo:b_hi])
                out = phi_pairs(head_leaves, f_leaf, g_leaf)
            n_pairs = (a_hi - a_lo) * (b_hi - b_lo)
            count("phi_fwd_pairs", n_pairs)
            tape.backward(out, dcache.w[a_lo:a_hi, b_lo:b_hi].reshape(-1, 1))
            count("phi_bwd_pairs", n_pairs)
            u_rows[a_lo:a_hi] += tape.grad(f_leaf)
            v_rows[b_lo:b_hi] += tape.grad(g_leaf)
            for acc, g in zip(grad_head, head_leaf_grads(tape, head_leaves)):
                acc += g
    cache = RepresentationGradientCache(u_rows=u_rows, v_rows=v_rows, filled=True)
    return grad_head, cache


@dataclass
class DeepConfig:
    tau: float = 1.0
    sub_batch_s: int = 8
    sub_batch_t: int = 8
    train_encoders: bool = True


def train_step_deep(batch, params_f, params_g, head, opt_state, config):
    """forward_collect -> distance cache -> fold -> encoder step3 -> update."""
    _begin_step()
    reset_counters()
    plan = plan_subbatches(
        batch.n_anchors, batch.n_targets, config.sub_batch_s, config.sub_batch_t
    )
    F, G, d_vals = forward_collect(batch, params_f, params_g, head, plan)
    dcache, loss_value = build_distance_cache(d_vals, batch.r, config.tau)
    grad_head, rep_cache = update_omega_and_fold(F, G, head, dcache, plan)
    if config.train_encoders:
        grads_f, grads_g = trainer.step3_accumulate(
            batch, params_f, params_g, plan, rep_cache
        )
        arrays = (
            encoders.param_arrays(params_f)
            + encoders.param_arrays(params_g)
            + head_arrays(head)
        )
        grads = grads_f + grads_g + grad_head
        new_arrays, new_state = encoders.optimizer_step(opt_state, arrays, grads)
        n_f = len(grads_f)
        n_g = len(grads_g)
        new_f = encoders.params_from_arrays(params_f, new_arrays[:n_f])
        new_g = encoders.params_from_arrays(params_g, new_arrays[n_f:n_f + n_g])
        new_head = head_from_arrays(head, new_arrays[n_f + n_g:])
    else:
        new_arrays, new_state = encoders.optimizer_step(
            opt_state, head_arrays(head), grad_head
        )
        new_f, new_g = params_f, params_g
        new_head = head_from_arrays(head, new_arrays)
    stats = trainer.step_stats(
        counter_snapshot(), ("step1", "pairs", "omega", "step3"), ("step2",),
        ("step2", "omega"),
    )
    return trainer.StepResult(
        loss_value, new_f, new_g, new_state, stats, head=new_head
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
    meta = group["meta"]
    if meta["head_kind"] == "dot":
        return dot_head(int(meta["d"]))
    arrays = [
        np.asarray(group["arrays"][name], dtype=np.float64)
        for name in HEAD_ARRAYS
    ]
    shell = DistanceHead(kind="mlp", d=int(meta["d"]),
                         activation=meta.get("activation", "tanh"))
    return head_from_arrays(shell, arrays)
