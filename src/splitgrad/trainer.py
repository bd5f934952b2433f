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
  representation gradient cache (step2); the rows are then re-encoded
  and backpropagated with their cached rows as the seed, in encoder
  passes with no tape, their parameter gradients added in place into
  one buffer per parameter (step3); finally the optimizer runs once
  (step4). Peak activation memory in steps 1 and 3 depends only on the
  sub-batch size b: each encoder's passes in a phase work in one flat
  buffer (``encoders.forward_rows``' in step1,
  ``encoders.accumulate_rows``' in step3, whose VJP forms each weight
  gradient in row blocks that fit), and each phase runs R-row passes in
  row order, R the tallest multiple of b whose buffer and tail tiles fit
  a b-row sub-batch's budget (``_pass_plan`` states the rule); a step
  with no step3 keeps step1 in b-row passes. Step2 is one
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

import functools
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
    """Anchor and target sub-batch sizes, each at most its side's rows:
    the memory budget of the side's encoder passes (``_pass_plan``).
    runs_step3 is False for a step that runs no step3 (deep mode with
    frozen encoders), whose step1 then runs sub-batch passes."""

    sub_batch_s: int
    sub_batch_t: int
    runs_step3: bool = True


def plan_subbatches(n_anchors, n_targets, bs_s, bs_t):
    """The requested sub-batch sizes, each capped at its side's rows."""
    if bs_s < 1 or bs_t < 1:
        raise ValueError(f"sub-batch sizes must be >= 1, got {bs_s}, {bs_t}")
    return SubBatchPlan(min(bs_s, n_anchors), min(bs_t, n_targets))


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
    the cached path a pass's parameter gradients pass one at a time
    through its encoder buffer's scratch into the step's accumulators
    (counted as parameters), so act_peak holds one row block of a weight
    gradient (the whole one where it fits) or a bias gradient, never a
    whole encoder's. The weight transposes the VJPs multiply by are
    counted as parameters too: their size is the weights', whatever the
    batch. Step1's and step3's R-row passes fit a b-row sub-batch's
    budget (``_pass_plan``), so the step1 window may reach act_peak (and
    a budget trip there) where step3 sets it. cache_floats is the largest
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

def _side_plan(params, rows, b):
    """``_pass_plan`` for one side's rows in b-row sub-batches."""
    return _pass_plan(tuple(ad.encoder_widths(rows.shape, params.arrays)),
                      params.activations[-1] != "linear", rows.shape[0], b)


@functools.cache
def _pass_plan(widths, keep_top, n, b):
    """(step1's pass height, step3's pass height, step3's buffer floats)
    for n rows in b-row sub-batches through layers of widths; cached, so
    made once per shape.

    Each phase runs R-row passes in row order, the last holding n mod R
    rows: the tallest R of b·⌈n/b⌉, ..., 2b whose floats for min(R, n)
    rows (``encoders.forward_floats`` in step1, ``autodiff.encoder_floats``
    with blocked weight gradients in step3) and tail tiles
    (``kernels.tail_floats``) fit in the phase's budget, else b. Step3's
    budget is its floats and tail tiles for the sub-batches; step1's is
    the larger of that and step1's own for them, which sub-batch passes
    hold anyway. Step3's buffer is its budget less its passes' tail
    tiles, so its peak is the sub-batches'. A side with no rows runs no
    pass.
    """
    if not n:
        return 0, 0, 0
    # step3 runs no forward through a linear top
    tails3 = widths if keep_top else widths[:-1]

    floats1 = functools.partial(encoders.forward_floats, widths=widths)
    floats3 = functools.partial(ad.encoder_floats, widths=widths,
                                keep_top=keep_top, blocked=True)

    def height(floats, tails, budget):
        return next((R for R in range(b * -(-n // b), b, -b)
                     if floats(min(R, n)) + kernels.tail_floats(tails, n, R)
                     <= budget), b)

    budget = (ad.encoder_floats(b, widths, keep_top)
              + kernels.tail_floats(tails3, n, b))
    R3 = height(floats3, tails3, budget)
    R1 = height(floats1, widths,
                max(budget, floats1(b) + kernels.tail_floats(widths, n, b)))
    return R1, R3, budget - kernels.tail_floats(tails3, n, R3)


def step1_graphless_forward(batch, params_f, params_g, plan):
    """Encode every row without recording; collect all representations.

    Each side runs in step1's passes of ``_side_plan``, or, if the plan
    runs no step3, in sub-batch passes. A row's representation does not
    depend on the pass it is in.
    """
    with memtrace.phase("step1"):
        F = memtrace.register(np.empty((batch.n_anchors, params_f.out_dim)),
                              "representation-store")
        G = memtrace.register(np.empty((batch.n_targets, params_g.out_dim)),
                              "representation-store")
        for params, rows, b, out in (
                (params_f, batch.anchors, plan.sub_batch_s, F),
                (params_g, batch.targets, plan.sub_batch_t, G)):
            R = _side_plan(params, rows, b)[0] if plan.runs_step3 else b
            encoders.forward_rows(params, rows, R, out)
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


def step3_accumulate(batch, params_f, params_g, plan, cache):
    """Each side's step3 passes of ``_side_plan`` in row order, seeded
    with its cached rows; returns both sides' parameter gradients, summed
    in the passes' order."""
    if not cache.filled:
        raise CacheNotFilledError(
            "representation gradient cache consumed before being filled"
        )
    cache.filled = False
    with memtrace.phase("step3"):
        grads = _zero_grads(params_f), _zero_grads(params_g)
        sides = ((params_f, batch.anchors, plan.sub_batch_s, cache.u_rows),
                 (params_g, batch.targets, plan.sub_batch_t, cache.v_rows))
        for (params, rows, b, seed_rows), acc in zip(sides, grads):
            _, R, floats = _side_plan(params, rows, b)
            encoders.accumulate_rows(params, rows, R, floats, seed_rows, acc)
    count("fwd_rows", batch.n_anchors + batch.n_targets)
    count("bwd_rows", batch.n_anchors + batch.n_targets)
    return grads


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
    for a_lo in range(0, n_s, chunk_size):
        a_hi = min(a_lo + chunk_size, n_s)
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
