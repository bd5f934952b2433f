"""Training steps for dual encoders under a batch contrastive loss.

Four step flavors share one optimizer path:

* ``train_step_direct``: one taped pass over the whole batch; the
  ground-truth baseline. It keeps the dense n x n loss tail: it then
  shares no strip code with the cached step it checks, and its memory
  grows with the batch as plain large-batch training's does (the
  acceptance suite requires at least 3.9x from batch 64 to 256; with the
  streamed tail it grew 3.81x).
* ``train_step_cached``: the memory-constant procedure. A graph-less
  forward collects all representations (step1); a small tape over the
  representation matrices alone backpropagates the loss into per-row
  gradients, stored as the representation gradient cache (step2); each
  sub-batch is then re-encoded with a tape and backpropagated with its
  cached rows as the seed, accumulating parameter gradients (step3);
  finally the optimizer runs once (step4). Peak activation memory in
  steps 1 and 3 depends only on the sub-batch size. Step2 streams the
  loss over strips of ``kernels.STRIP`` anchors and holds about
  2 * STRIP * n + O(n * d) floats for a batch of n, never the n x n
  scores.
* ``train_step_accumulation``: classic gradient accumulation. Chunks
  are independent small batches, so negatives come only from within a
  chunk; this is deliberately NOT equivalent to the direct step.
* sequential training is just ``train_step_direct`` on small batches.

Forward/backward work is tallied in per-thread counters as encoder rows
processed, so op-count claims are measured rather than assumed.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import loss as loss_mod
from . import memtrace


class CacheNotFilledError(RuntimeError):
    """A representation gradient cache was consumed before being filled."""


@dataclass
class SubBatchPlan:
    """Ordered contiguous partition of anchor and target indices."""

    anchor_chunks: list
    target_chunks: list


def _chunk_ranges(n, size):
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def plan_subbatches(n_anchors, n_targets, bs_s, bs_t):
    """Contiguous chunks of the requested sizes; only the last may be short."""
    if bs_s < 1 or bs_t < 1:
        raise ValueError(f"sub-batch sizes must be >= 1, got {bs_s}, {bs_t}")
    return SubBatchPlan(
        anchor_chunks=_chunk_ranges(n_anchors, bs_s),
        target_chunks=_chunk_ranges(n_targets, bs_t),
    )


@dataclass
class RepresentationGradientCache:
    """Per-row loss gradients for every anchor and target representation."""

    u_rows: np.ndarray
    v_rows: np.ndarray
    filled: bool = False

    @property
    def float_count(self):
        return int(self.u_rows.size + self.v_rows.size)


@dataclass
class TrainConfig:
    tau: float = 1.0
    sub_batch_s: int = 8
    sub_batch_t: int = 8


@dataclass
class StepStats:
    """Measured facts about one training step.

    act_peak covers the encoder-facing windows (graph-less forward plus
    per-sub-batch taped passes for the cached path; the whole fused pass
    for direct and accumulation). loss_phase_peak is the separate
    loss-over-representations window and is 0 for modes without one.
    """

    fwd_rows: int
    bwd_rows: int
    act_peak: int
    loss_phase_peak: int
    cache_floats: int


@dataclass
class StepResult:
    loss: float
    params_f: encoders.EncoderParams
    params_g: encoders.EncoderParams
    opt_state: encoders.OptimizerState
    stats: StepStats
    head: object = None  # the distance head, in deep mode


# ---------------------------------------------------------------------------
# counters and meter plumbing
# ---------------------------------------------------------------------------

_tls = threading.local()

_COUNTER_KEYS = ("fwd_rows", "bwd_rows", "phi_fwd_pairs", "phi_bwd_pairs")


def _counters():
    if not hasattr(_tls, "counters"):
        _tls.counters = {k: 0 for k in _COUNTER_KEYS}
    return _tls.counters


def reset_counters():
    _counters().update({k: 0 for k in _COUNTER_KEYS})


def counter_snapshot():
    return dict(_counters())


def count(key, n):
    _counters()[key] += n


def step_stats(counters, act_phases, loss_phases=(), cache_phases=(),
               meters=None):
    """The StepStats of a step, from its row counters and phase windows.

    Each peak is the largest over its phases: activation floats for
    act_peak and loss_phase_peak, gradient-cache floats for cache_floats.
    With one meter per worker, peaks take the max across workers and
    cache floats the sum: each worker's activation peak is its own, and
    the workers' caches coexist. ``meters`` defaults to the active meter;
    without one every peak is 0.
    """
    if meters is None:
        meters = [memtrace.current_meter()]
    meters = [m for m in meters if m is not None]

    def peak(meter, names, category="activation"):
        return max((meter.phase_peak(n, category) for n in names), default=0)

    return StepStats(
        fwd_rows=counters["fwd_rows"],
        bwd_rows=counters["bwd_rows"],
        act_peak=max((peak(m, act_phases) for m in meters), default=0),
        loss_phase_peak=max((peak(m, loss_phases) for m in meters), default=0),
        cache_floats=sum(
            peak(m, cache_phases, "gradient-cache") for m in meters
        ),
    )


# ---------------------------------------------------------------------------
# the cached procedure
# ---------------------------------------------------------------------------

def step1_graphless_forward(batch, params_f, params_g, plan):
    """Encode every chunk without recording; collect all representations."""
    with memtrace.phase("step1"):
        F = memtrace.register(np.empty((batch.n_anchors, params_f.out_dim)),
                              "representation-store")
        G = memtrace.register(np.empty((batch.n_targets, params_g.out_dim)),
                              "representation-store")
        for lo, hi in plan.anchor_chunks:
            F[lo:hi] = encoders.encode(params_f, batch.anchors[lo:hi])
            count("fwd_rows", hi - lo)
        for lo, hi in plan.target_chunks:
            G[lo:hi] = encoders.encode(params_g, batch.targets[lo:hi])
            count("fwd_rows", hi - lo)
    return F, G


def step2_build_cache(F, G, r, tau):
    """Backpropagate the loss into per-representation gradient rows.

    Only F and G are tape leaves; no encoder participates. Returns the
    filled cache and the full-batch loss value.
    """
    with memtrace.phase("step2"):
        tape = ad.Tape()
        with ad.recording(tape):
            f_leaf = tape.leaf(F)
            g_leaf = tape.leaf(G)
            loss_t = loss_mod.loss_graph_from_reps(f_leaf, g_leaf, r, tau)
        tape.backward(loss_t)
        u_rows = memtrace.register(tape.grad(f_leaf).copy(),
                                   "gradient-cache")
        v_rows = memtrace.register(tape.grad(g_leaf).copy(),
                                   "gradient-cache")
    cache = RepresentationGradientCache(u_rows=u_rows, v_rows=v_rows, filled=True)
    return cache, float(loss_t.data)


def _zero_grads(params):
    return [memtrace.register(np.zeros_like(p), "parameters")
            for p in encoders.param_arrays(params)]


def _accumulate_chunk(params, rows, seed_rows, grad_accumulators):
    """Taped encode of one chunk, backward seeded with its cached rows."""
    tape = ad.Tape()
    with ad.recording(tape):
        leaves = encoders.make_leaves(params)
        out = encoders.encode_graph(leaves, ad.constant(rows))
    count("fwd_rows", rows.shape[0])
    tape.backward(out, seed_rows)
    count("bwd_rows", rows.shape[0])
    for acc, g in zip(grad_accumulators, encoders.leaf_grads(tape, leaves)):
        acc += g


def step3_accumulate(batch, params_f, params_g, plan, cache):
    """Per-sub-batch taped passes seeded from the cache; grads summed.

    Chunks run in the plan's order, which sets the order of the sums.
    """
    if not cache.filled:
        raise CacheNotFilledError(
            "representation gradient cache consumed before being filled"
        )
    cache.filled = False
    with memtrace.phase("step3"):
        grads_f = _zero_grads(params_f)
        grads_g = _zero_grads(params_g)
        for lo, hi in plan.anchor_chunks:
            _accumulate_chunk(
                params_f, batch.anchors[lo:hi], cache.u_rows[lo:hi], grads_f
            )
        for lo, hi in plan.target_chunks:
            _accumulate_chunk(
                params_g, batch.targets[lo:hi], cache.v_rows[lo:hi], grads_g
            )
    return grads_f, grads_g


def _apply_optimizer(params_f, params_g, grads_f, grads_g, opt_state):
    if params_f is params_g:
        combined = [a + b for a, b in zip(grads_f, grads_g)]
        arrays, new_state = encoders.optimizer_step(
            opt_state, encoders.param_arrays(params_f), combined
        )
        new_f = encoders.params_from_arrays(params_f, arrays)
        return new_f, new_f, new_state
    arrays = encoders.param_arrays(params_f) + encoders.param_arrays(params_g)
    grads = grads_f + grads_g
    new_arrays, new_state = encoders.optimizer_step(opt_state, arrays, grads)
    split = len(grads_f)
    new_f = encoders.params_from_arrays(params_f, new_arrays[:split])
    new_g = encoders.params_from_arrays(params_g, new_arrays[split:])
    return new_f, new_g, new_state


def train_step_cached(batch, params_f, params_g, opt_state, config):
    """step1 -> step2 -> step3 -> optimizer; loss is the step2 value."""
    memtrace.begin_step()
    reset_counters()
    plan = plan_subbatches(
        batch.n_anchors, batch.n_targets, config.sub_batch_s, config.sub_batch_t
    )
    F, G = step1_graphless_forward(batch, params_f, params_g, plan)
    cache, loss_value = step2_build_cache(F, G, batch.r, config.tau)
    grads_f, grads_g = step3_accumulate(batch, params_f, params_g, plan, cache)
    new_f, new_g, new_state = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    stats = step_stats(
        counter_snapshot(), ("step1", "step3"), ("step2",), ("step2",)
    )
    return StepResult(loss_value, new_f, new_g, new_state, stats)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def train_step_direct(batch, params_f, params_g, opt_state, tau=1.0):
    """One taped pass over the full batch, then one optimizer step."""
    memtrace.begin_step()
    reset_counters()
    with memtrace.phase("direct"):
        grads_f, grads_g, loss_value = loss_mod.direct_param_grads(
            batch, params_f, params_g, tau
        )
        rows = batch.n_anchors + batch.n_targets
        count("fwd_rows", rows)
        count("bwd_rows", rows)
    new_f, new_g, new_state = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    stats = step_stats(counter_snapshot(), ("direct",))
    return StepResult(loss_value, new_f, new_g, new_state, stats)


def _accumulation_chunks(batch, chunk_size):
    """Chunk anchors contiguously; targets split at proportional bounds.

    Each anchor's positive must land in its own chunk's target range,
    since chunks are scored independently.
    """
    n_s, n_t = batch.n_anchors, batch.n_targets
    out = []
    for a_lo, a_hi in _chunk_ranges(n_s, chunk_size):
        t_lo = a_lo * n_t // n_s
        t_hi = a_hi * n_t // n_s
        r_chunk = batch.r[a_lo:a_hi]
        if r_chunk.size and (r_chunk.min() < t_lo or r_chunk.max() >= t_hi):
            raise ValueError(
                f"accumulation chunk anchors [{a_lo}, {a_hi}) has a positive "
                f"target outside its target range [{t_lo}, {t_hi})"
            )
        sub = loss_mod.Batch(
            batch.anchors[a_lo:a_hi],
            batch.targets[t_lo:t_hi],
            r_chunk - t_lo,
        )
        out.append(sub)
    return out


def train_step_accumulation(batch, params_f, params_g, opt_state,
                            chunk_size, tau=1.0):
    """Independent small batches; per-chunk losses, summed gradients.

    Each chunk normalizes its loss by its own anchor count and sees only
    its own targets as negatives; the reported loss is the mean of chunk
    losses.
    """
    memtrace.begin_step()
    reset_counters()
    with memtrace.phase("accumulation"):
        grads_f = _zero_grads(params_f)
        grads_g = _zero_grads(params_g)
        chunk_losses = []
        for sub in _accumulation_chunks(batch, chunk_size):
            gf, gg, chunk_loss = loss_mod.direct_param_grads(
                sub, params_f, params_g, tau
            )
            rows = sub.n_anchors + sub.n_targets
            count("fwd_rows", rows)
            count("bwd_rows", rows)
            for acc, g in zip(grads_f, gf):
                acc += g
            for acc, g in zip(grads_g, gg):
                acc += g
            chunk_losses.append(chunk_loss)
    new_f, new_g, new_state = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    stats = step_stats(counter_snapshot(), ("accumulation",))
    return StepResult(
        float(np.mean(chunk_losses)), new_f, new_g, new_state, stats
    )
