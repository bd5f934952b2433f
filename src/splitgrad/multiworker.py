"""Logical data-parallel workers for cached contrastive training.

N in-process workers each hold a full parameter replica and a contiguous
slice of the global batch. ``WorkerGroup.partition`` owns that slice: it
gives each worker its anchor and target rows and the batch rows they
start at (``a_lo``, ``t_lo``). A step exchanges data exactly twice:

1. after the graph-less forward, an all-gather concatenates every
   worker's representations in rank order;
2. after the per-sub-batch encoder passes, gradients are sum-reduced.

Each worker builds the step2 cache over the gathered sets, normalized by
the global anchor count, and its step3 reads views of the rows of its own
partition range. Summing (not averaging) the per-worker parameter
gradients then reproduces the single-worker full-batch gradient, and
because every worker runs the identical pure optimizer update on
identical inputs, replicas stay bit-identical without broadcasting
parameters.

The workers run in lockstep on the calling thread, phase by phase and
within a phase rank by rank, each under its own meter; the step is
framed by ``trainer.begin_step`` and its stats merged by
``trainer.step_stats``. The exchange log records every cross-worker data
movement so tests can assert there are exactly two per step and none
during the encoder passes.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import memtrace
from . import trainer


def all_gather(rep_pairs, expected_workers=None):
    """Concatenate per-worker (F, G) pairs in rank order: (F_all, G_all)."""
    if expected_workers is not None and len(rep_pairs) != expected_workers:
        raise ValueError(
            f"all_gather: got {len(rep_pairs)} worker contributions, "
            f"expected {expected_workers}"
        )
    if not rep_pairs:
        raise ValueError("all_gather: no worker contributions")
    d_f = rep_pairs[0][0].shape[1]
    d_g = rep_pairs[0][1].shape[1]
    for F, G in rep_pairs:
        if F.shape[1] != d_f or G.shape[1] != d_g:
            raise ad.ShapeMismatchError(
                f"all_gather: embedding widths differ, {F.shape} / {G.shape}"
            )
    return (np.concatenate([F for F, _ in rep_pairs], axis=0),
            np.concatenate([G for _, G in rep_pairs], axis=0))


def reduce_grads(per_worker_grads):
    """Elementwise sum across workers, accumulated in rank order."""
    if not per_worker_grads:
        raise ValueError("reduce_grads: no worker gradients")
    first = per_worker_grads[0]
    for grads in per_worker_grads[1:]:
        if len(grads) != len(first):
            raise ad.ShapeMismatchError(
                f"reduce_grads: gradient list lengths differ, "
                f"{len(grads)} vs {len(first)}"
            )
        for g, g0 in zip(grads, first):
            if g.shape != g0.shape:
                raise ad.ShapeMismatchError(
                    f"reduce_grads: gradient shapes differ, "
                    f"{tuple(g.shape)} vs {tuple(g0.shape)}"
                )
    out = [g.copy() for g in first]
    for grads in per_worker_grads[1:]:
        for acc, g in zip(out, grads):
            acc += g
    return out


@dataclass
class _Rows:
    """The data rows a worker owns and where they start in the batch."""

    anchors: np.ndarray
    targets: np.ndarray
    a_lo: int
    t_lo: int

    @property
    def n_anchors(self):
        return self.anchors.shape[0]

    @property
    def n_targets(self):
        return self.targets.shape[0]


class WorkerGroup:
    """N parameter replicas plus the exchange bookkeeping between them."""

    def __init__(self, n_workers, params_f, params_g, opt_state):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self.params_f = [params_f.copy() for _ in range(n_workers)]
        # tied encoders stay one parameter set in every replica
        self.params_g = (list(self.params_f) if params_g is params_f
                         else [params_g.copy() for _ in range(n_workers)])
        self.opt_states = [opt_state for _ in range(n_workers)]
        self.exchange_log = []

    @property
    def exchange_count(self):
        return len(self.exchange_log)

    def exchange(self, label):
        """Record one cross-worker data movement."""
        self.exchange_log.append(label)

    def partition(self, batch):
        """Contiguous by rank; worker k gets rows [k*n//N, (k+1)*n//N)."""
        n_s, n_t = batch.n_anchors, batch.n_targets
        slices = []
        for k in range(self.n_workers):
            a_lo = k * n_s // self.n_workers
            a_hi = (k + 1) * n_s // self.n_workers
            t_lo = k * n_t // self.n_workers
            t_hi = (k + 1) * n_t // self.n_workers
            slices.append(_Rows(batch.anchors[a_lo:a_hi],
                                batch.targets[t_lo:t_hi], a_lo, t_lo))
        return slices


def train_step_multi(group, batch, config):
    """One cached step across all workers, run in lockstep.

    Every worker runs, under its own meter with the active meter's
    budget: graph-less forward on its slice, all-gather, loss backward
    over the gathered representations, per-sub-batch encoder passes
    seeded from its own rows of that cache (no communication), sum
    reduction, and the optimizer update on its own replica. The result
    carries rank 0's replica.
    """
    trainer.begin_step(config.tau)
    ranks = range(group.n_workers)
    local_rows = group.partition(batch)
    plans = [
        trainer.plan_subbatches(rows.n_anchors, rows.n_targets,
                                config.sub_batch_s, config.sub_batch_t)
        for rows in local_rows
    ]
    active = memtrace.current_meter()
    budget = active.activation_budget if active is not None else None
    meters = [memtrace.MemCounter(activation_budget=budget) for _ in ranks]

    reps = []
    for k in ranks:
        with memtrace.use_meter(meters[k]):
            reps.append(trainer.step1_graphless_forward(
                local_rows[k], group.params_f[k], group.params_g[k], plans[k]
            ))
    group.exchange("all_gather")
    F_all, G_all = all_gather(reps, expected_workers=group.n_workers)

    losses, grads = [], []
    for k, rows in enumerate(local_rows):
        with memtrace.use_meter(meters[k]):
            cache, loss_value = trainer.step2_build_cache(
                F_all, G_all, batch.r, config.tau
            )
            cache.u_rows = cache.u_rows[rows.a_lo:rows.a_lo + rows.n_anchors]
            cache.v_rows = cache.v_rows[rows.t_lo:rows.t_lo + rows.n_targets]
            losses.append(loss_value)
            grads.append(trainer.step3_accumulate(
                rows, group.params_f[k], group.params_g[k], plans[k], cache,
            ))
    group.exchange("reduce")
    reduced_f = reduce_grads([g for g, _ in grads])
    reduced_g = reduce_grads([g for _, g in grads])

    for k in ranks:
        with memtrace.use_meter(meters[k]):
            group.params_f[k], group.params_g[k], group.opt_states[k], _ = (
                trainer._apply_optimizer(
                    group.params_f[k], group.params_g[k],
                    reduced_f, reduced_g, group.opt_states[k],
                )
            )

    return trainer.StepResult(
        losses[0], group.params_f[0], group.params_g[0], group.opt_states[0],
        trainer.step_stats(meters),
    )
