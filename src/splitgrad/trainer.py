"""Training steps for dual encoders under a batch contrastive loss.

Every public step, here and in ``deep`` and ``multiworker``, opens with
``begin_step(tau)`` and ends with ``step_stats()``, which reads the
counters and meters by one rule keyed on ``LOSS_PHASE``, and updates
through ``_apply_optimizer``. Four step flavors are defined here:

* ``train_step_direct``: one taped pass over the whole batch; the
  ground-truth baseline. It keeps the dense n x n loss tail: it then
  shares no strip code with the cached step it checks, and its memory
  grows with the batch as plain large-batch training's does (the
  acceptance suite requires at least 3.9x from batch 64 to 256; with the
  streamed tail it grew 3.81x).
* ``train_step_cached``: the memory-constant procedure. A graph-less
  forward collects all representations (step1); the loss over the
  representation matrices alone gives its per-row gradients, the
  representation gradient cache (step2); each sub-batch is then
  re-encoded and backpropagated with its cached rows as the seed, in
  encoder passes with no tape, its parameter gradients added in place
  into one buffer per parameter (step3); finally the optimizer runs
  once (step4). Peak activation memory in steps 1 and 3 depends only on
  the sub-batch size: each encoder's passes in a phase work in one flat
  buffer. With a linear top, step3's for sub-batch b and widths w0..wL
  (``autodiff.encoder_views``) is ``max_k [b·Σ_{i<k} w_i + [k<L]·b·w_k +
  max(w_{k−1}·w_k, [k>1]·b·w_{k−1})]`` floats. Either phase adds, for a
  pass of other than a multiple of ``kernels.TILE`` rows, the tiled
  matmul's tail tile and its product. Both run passes of R rows, R the
  largest multiple of b whose floats, tail tiles counted, fit in step3's
  for b (``_side_passes``). Step1's (``encoders.forward_rows``) keeps no
  graph: two halves, R·(max of the odd-numbered w_k + max of the even):
  80 rows at sub-batch 16 for widths 24-128-128-16. Step3's holds R rows
  of outputs and input gradients, and forms each weight gradient in row
  blocks of at least 2 rows that fit in the rest (``encoder_vjp``): 48
  rows there, the 128 x 128 weight's in two 64-row blocks. Where the
  input gradient binds (24-32-16), R stays b; a step with no step3 keeps
  R = b in step1. A pass is a run of consecutive sub-batches, so the
  sums keep the plan's order. Step3's VJPs form each input gradient
  against a
  contiguous transpose of its weight, made once per encoder and side
  and counted as parameters. Step2 is one
  ``kernels.strip_logsumexp`` call, whose dL/dF and dL/dG are the cache,
  and a small tape of the alignment term that adds into them in place.
  It holds the larger of the kernel's term (in its docstring) and the
  tape's (in ``loss.loss_graph_from_reps``'), linear in n, never the
  n x n scores.
* ``train_step_accumulation``: classic gradient accumulation. Chunks
  are independent small batches, so negatives come only from within a
  chunk; this is deliberately NOT equivalent to the direct step.
* sequential training is just ``train_step_direct`` on small batches.

Forward/backward work is tallied in module counters as encoder rows
processed, so op-count claims are measured rather than assumed.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import kernels
from . import loss as loss_mod
from . import memtrace


class CacheNotFilledError(RuntimeError):
    """A representation gradient cache was consumed before being filled."""


@dataclass
class SubBatchPlan:
    """Ordered contiguous partition of anchor and target indices, the
    sub-batches whose runs step3 re-encodes. runs_step3 is False for a
    step that runs no step3 (deep mode with frozen encoders): its step1
    then encodes in the sub-batches, since no step3 buffer covers more."""

    anchor_chunks: list
    target_chunks: list
    runs_step3: bool = True


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
    """Measured facts about one training step, read by ``step_stats``.

    fwd_rows and bwd_rows count encoder rows run forward and backward.
    loss_phase_peak is the activation peak of the ``LOSS_PHASE`` window,
    0 in modes without one; act_peak is that of every other window. In
    the cached path a chunk's parameter gradients pass one at a time
    through its encoder buffer's scratch into the step's accumulators
    (counted as parameters), so act_peak holds one row block of a weight
    gradient (the whole one where it fits) or a bias gradient, never a
    whole encoder's. The weight transposes the VJPs multiply by are
    counted as parameters too: their size is the weights', whatever the
    batch. Step1's and step3's passes take as many sub-batches as fit in
    step3's peak for one, so the step1 window may reach act_peak (and a
    budget trip there) where step3 sets it. cache_floats is the largest
    gradient-cache count over the step, summed over workers in multi
    mode.

    Every array the step's passes make is registered, the encoder
    buffers and the tiled matmul's tail tiles included. The meter does
    not count what the optimizer makes (``encoders.optimizer_step``'s
    and ``kernels.adam_update``'s new parameters, m and v and Adam's two
    scratch buffers), the tied-encoder gradient sum of
    ``_apply_optimizer``, the copies ``multiworker.reduce_grads`` makes,
    the loss kernels' per-row columns of a strip, or the iteration
    buffer numpy gives a broadcasting ufunc call, freed when the call
    returns: up to ``np.getbufsize()`` elements, at most one row inside
    the loss kernels' strip loops (``kernels._row_buffer``), and at most
    ``kernels.PASS_BUFSIZE`` inside the encoder passes' loops.
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

_counts = {"fwd_rows": 0, "bwd_rows": 0, "phi_fwd_pairs": 0,
           "phi_bwd_pairs": 0}


def reset_counters():
    _counts.update(dict.fromkeys(_counts, 0))


def counter_snapshot():
    return dict(_counts)


def count(key, n):
    _counts[key] += n


def begin_step(tau):
    """Open a public step: check tau, then clear the meter's windows and
    the row counters. A bad tau raises ValueError before either changes."""
    loss_mod.validate_temperature(tau)
    memtrace.begin_step()
    reset_counters()


LOSS_PHASE = "step2"


def step_stats(meters=None):
    """The StepStats of a step: the row counters, and the peaks of every
    window of ``meters`` (default: the active meter) by StepStats' rule.
    Activation peaks take the max across workers' meters and cache floats
    the sum, since the workers' caches coexist."""
    if meters is None:
        meters = [memtrace.current_meter()]
    meters = [m for m in meters if m is not None]

    act, loss, cache = [0], [0], [0]
    for m in meters:
        windows = m.phase_peaks
        act.append(max((p["activation"] for name, p in windows.items()
                        if name != LOSS_PHASE), default=0))
        loss.append(m.phase_peak(LOSS_PHASE))
        cache.append(max((p["gradient-cache"] for p in windows.values()),
                         default=0))
    return StepStats(
        fwd_rows=_counts["fwd_rows"],
        bwd_rows=_counts["bwd_rows"],
        act_peak=max(act),
        loss_phase_peak=max(loss),
        cache_floats=sum(cache),
    )


# ---------------------------------------------------------------------------
# the cached procedure
# ---------------------------------------------------------------------------

def _side_passes(params, rows, chunks, step3=False):
    """Step1's (or step3's) passes over one side's rows, and the floats
    step3's buffer takes: R rows each, R the largest multiple of the
    sub-batch b whose floats (``encoders.forward_floats``, or
    ``autodiff.encoder_lines`` with weight gradients in their smallest
    blocks), tail tiles counted, fit in step3's for b; the chunks if no
    R > b does or they are not b-row sub-batches in order. O(layers)."""
    if not chunks:
        return chunks, 0
    widths = ad.encoder_widths(rows.shape, params.arrays)
    keep_top = params.activations[-1] != "linear"
    b, n = max(hi - lo for lo, hi in chunks), rows.shape[0]
    # step3 runs no forward through a linear top
    tails = widths if keep_top else widths[:-1]
    whole = ad.encoder_floats(b, widths, keep_top)
    budget = whole + kernels.tail_floats(tails, chunks)
    if step3:
        lines = list(ad.encoder_lines(widths, keep_top, True))
    else:
        lines, tails = [(encoders.forward_floats(1, widths), 0)], widths

    def most(room):  # sub-batches per pass whose floats fit in room
        return min([-(-n // b)] + [(room - d) // (c * b)
                                   for c, d in lines if c])

    # above `low` a pass fits only with no tail tile
    low = max(1, most(budget - kernels.tail_floats(tails, [(0, 1)])))
    R = b * next((j for j in range(most(budget), low, -1)
                  if j * b % kernels.TILE == n % (j * b) % kernels.TILE
                  == 0), low)
    if R == b or chunks != _chunk_ranges(n, b):
        return chunks, whole
    passes = _chunk_ranges(n, R)
    return passes, budget - kernels.tail_floats(tails, passes)


def step1_graphless_forward(batch, params_f, params_g, plan):
    """Encode every row without recording; collect all representations.

    Each side runs in the passes of ``_side_passes``, or, if the plan
    runs no step3, in its sub-batches. A row's representation does not
    depend on the pass it is in.
    """
    a_chunks, t_chunks = plan.anchor_chunks, plan.target_chunks
    with memtrace.phase("step1"):
        if plan.runs_step3:
            a_chunks = _side_passes(params_f, batch.anchors, a_chunks)[0]
            t_chunks = _side_passes(params_g, batch.targets, t_chunks)[0]
        F = memtrace.register(np.empty((batch.n_anchors, params_f.out_dim)),
                              "representation-store")
        G = memtrace.register(np.empty((batch.n_targets, params_g.out_dim)),
                              "representation-store")
        encoders.forward_rows(params_f, batch.anchors, a_chunks, F)
        encoders.forward_rows(params_g, batch.targets, t_chunks, G)
    count("fwd_rows", batch.n_anchors + batch.n_targets)
    return F, G


def step2_build_cache(F, G, r, tau):
    """Backpropagate the loss into per-representation gradient rows.

    No encoder participates: ``loss.loss_graph_from_reps`` returns the
    full-batch loss and its gradients with respect to F and G, which
    are the cache itself. Returns the filled cache and the loss value.
    """
    with memtrace.phase(LOSS_PHASE):
        loss_value, u_rows, v_rows = loss_mod.loss_graph_from_reps(
            F, G, r, tau)
    return RepresentationGradientCache(u_rows, v_rows, filled=True), loss_value


def _zero_grads(params):
    return [memtrace.register(np.zeros_like(p), "parameters")
            for p in params.arrays]


def _accumulate_side(params, rows, chunks, seed_rows, grads):
    """A side's encoder passes (``_side_passes``), with no tape and at
    ``kernels.PASS_BUFSIZE``'s ufunc buffer, in one buffer registered
    while the side runs and laid out by ``autodiff.encoder_views`` (made
    once for the tallest pass): each pass's forward keeps what its VJP
    reads, and the VJP, seeded with the pass's cached rows, adds each
    layer's gradients into grads."""
    if not chunks:
        return
    arrays, acts = params.arrays, params.activations
    widths = ad.encoder_widths(rows.shape, arrays)
    keep_top = acts[-1] != "linear"
    passes, floats = _side_passes(params, rows, chunks, True)
    R = max(hi - lo for lo, hi in passes)
    wts = ad.weight_transposes(arrays, False)
    buf = memtrace.register(np.empty(floats))
    full = ad.encoder_views(buf, R, widths, keep_top)
    with kernels._row_buffer(kernels.PASS_BUFSIZE):
        for lo, hi in passes:
            outs, scratch = (full if hi - lo == R else ad.encoder_views(
                buf, hi - lo, widths, keep_top))
            x = rows[lo:hi]
            ad.encoder_forward(x, arrays, acts, outs)
            count("fwd_rows", hi - lo)
            ad.encoder_vjp(x, arrays, acts, outs, seed_rows[lo:hi], grads,
                           scratch, wts)
            count("bwd_rows", hi - lo)


def step3_accumulate(batch, params_f, params_g, plan, cache):
    """Encoder passes over runs of sub-batches, seeded from the cache;
    grads summed. Passes run in the plan's order, which sets the order
    of the sums.
    """
    if not cache.filled:
        raise CacheNotFilledError(
            "representation gradient cache consumed before being filled"
        )
    cache.filled = False
    with memtrace.phase("step3"):
        grads_f = _zero_grads(params_f)
        grads_g = _zero_grads(params_g)
        _accumulate_side(params_f, batch.anchors, plan.anchor_chunks,
                         cache.u_rows, grads_f)
        _accumulate_side(params_g, batch.targets, plan.target_chunks,
                         cache.v_rows, grads_g)
    return grads_f, grads_g


def _apply_optimizer(params_f, params_g, grads_f, grads_g, opt_state,
                     extra=(), extra_grads=()):
    """One optimizer step over both encoders and any extra arrays.

    Tied encoders (params_f is params_g) are one parameter set: their
    two gradients add and it is updated once. The extras (a distance
    head's arrays) follow the encoders in the optimizer's array list.
    Returns the new encoders, the new state and the updated extras.
    """
    arrays = params_f.arrays
    if params_f is params_g:
        grads = [a + b for a, b in zip(grads_f, grads_g)]
    else:
        arrays = arrays + params_g.arrays
        grads = grads_f + grads_g
    n_enc = len(arrays)
    new_arrays, new_state = encoders.optimizer_step(
        opt_state, arrays + list(extra), grads + list(extra_grads)
    )
    n_f = len(grads_f)
    new_f = encoders.params_from_arrays(params_f, new_arrays[:n_f])
    new_g = new_f if params_f is params_g else encoders.params_from_arrays(
        params_g, new_arrays[n_f:n_enc])
    return new_f, new_g, new_state, new_arrays[n_enc:]


def train_step_cached(batch, params_f, params_g, opt_state, config):
    """step1 -> step2 -> step3 -> optimizer; loss is the step2 value."""
    begin_step(config.tau)
    plan = plan_subbatches(
        batch.n_anchors, batch.n_targets, config.sub_batch_s, config.sub_batch_t
    )
    F, G = step1_graphless_forward(batch, params_f, params_g, plan)
    cache, loss_value = step2_build_cache(F, G, batch.r, config.tau)
    grads_f, grads_g = step3_accumulate(batch, params_f, params_g, plan, cache)
    new_f, new_g, new_state, _ = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    return StepResult(loss_value, new_f, new_g, new_state, step_stats())


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def train_step_direct(batch, params_f, params_g, opt_state, tau=1.0):
    """One taped pass over the full batch, then one optimizer step."""
    begin_step(tau)
    with memtrace.phase("direct"):
        grads_f, grads_g, loss_value = loss_mod.direct_param_grads(
            batch, params_f, params_g, tau
        )
        rows = batch.n_anchors + batch.n_targets
        count("fwd_rows", rows)
        count("bwd_rows", rows)
    new_f, new_g, new_state, _ = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    return StepResult(loss_value, new_f, new_g, new_state, step_stats())


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
    begin_step(tau)
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
    new_f, new_g, new_state, _ = _apply_optimizer(
        params_f, params_g, grads_f, grads_g, opt_state
    )
    return StepResult(
        float(np.mean(chunk_losses)), new_f, new_g, new_state, step_stats()
    )
