"""Logical data-parallel workers for cached contrastive training.

N in-process workers each hold a full parameter replica and a contiguous
slice of the global batch. A step exchanges data exactly twice:

1. after the graph-less forward, an all-gather makes every worker's
   representations available everywhere (rank order);
2. after the per-sub-batch encoder passes, gradients are sum-reduced.

The loss is computed over the gathered sets and normalized by the
global anchor count; each worker keeps only the gradient rows of its
own representations. Summing (not averaging) the per-worker parameter
gradients then reproduces the single-worker full-batch gradient, and
because every worker runs the identical pure optimizer update on
identical inputs, replicas stay bit-identical without broadcasting
parameters.

Workers are real threads synchronized by barriers; the exchange log
records every cross-worker data movement so tests can assert there are
exactly two per step and none during the encoder passes.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders
from . import loss as loss_mod
from . import memtrace
from . import trainer


@dataclass
class GatheredReps:
    """Concatenated representations with per-worker row offsets."""

    F_all: np.ndarray
    G_all: np.ndarray
    f_offsets: list
    g_offsets: list

    def local_rows_f(self, rank):
        return self.f_offsets[rank], self.f_offsets[rank + 1]

    def local_rows_g(self, rank):
        return self.g_offsets[rank], self.g_offsets[rank + 1]


def all_gather(rep_pairs, expected_workers=None):
    """Concatenate per-worker (F, G) pairs in rank order."""
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
    f_offsets = np.cumsum([0] + [F.shape[0] for F, _ in rep_pairs]).tolist()
    g_offsets = np.cumsum([0] + [G.shape[0] for _, G in rep_pairs]).tolist()
    return GatheredReps(
        F_all=np.concatenate([F for F, _ in rep_pairs], axis=0),
        G_all=np.concatenate([G for _, G in rep_pairs], axis=0),
        f_offsets=f_offsets,
        g_offsets=g_offsets,
    )


def local_rep_grads(rank, gathered, r, tau):
    """Loss over the gathered sets; keep only this worker's gradient rows.

    Normalization uses the global anchor count, so per-worker gradients
    sum to the single-worker full-batch gradient.
    """
    cache, loss_value = trainer.step2_build_cache(
        gathered.F_all, gathered.G_all, r, tau
    )
    f_lo, f_hi = gathered.local_rows_f(rank)
    g_lo, g_hi = gathered.local_rows_g(rank)
    local = trainer.RepresentationGradientCache(
        u_rows=cache.u_rows[f_lo:f_hi].copy(),
        v_rows=cache.v_rows[g_lo:g_hi].copy(),
        filled=True,
    )
    return local, loss_value


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
    """Just the data rows a worker owns; step3 needs nothing else."""

    anchors: np.ndarray
    targets: np.ndarray

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
        self.params_g = [params_g.copy() for _ in range(n_workers)]
        self.opt_states = [opt_state for _ in range(n_workers)]
        self.exchange_count = 0
        self.exchange_log = []

    def partition(self, batch):
        """Contiguous by rank; worker k gets rows [k*n//N, (k+1)*n//N)."""
        n_s, n_t = batch.n_anchors, batch.n_targets
        slices = []
        for k in range(self.n_workers):
            a_lo = k * n_s // self.n_workers
            a_hi = (k + 1) * n_s // self.n_workers
            t_lo = k * n_t // self.n_workers
            t_hi = (k + 1) * n_t // self.n_workers
            slices.append(
                _Rows(batch.anchors[a_lo:a_hi], batch.targets[t_lo:t_hi])
            )
        return slices


@dataclass
class MultiStepResult:
    loss: float
    stats: trainer.StepStats


def train_step_multi(group, batch, config):
    """One synchronized cached step across all workers.

    Every worker runs: graph-less forward on its slice, all-gather,
    loss backward over the gathered representations keeping local rows,
    per-sub-batch encoder passes (no communication), sum reduction, and
    the optimizer update on its own replica.
    """
    n = group.n_workers
    local_rows = group.partition(batch)
    barrier = threading.Barrier(n)
    rep_slots = [None] * n
    grad_slots = [None] * n
    losses = [None] * n
    counters = [None] * n
    meters = [memtrace.MemCounter() for _ in range(n)]
    errors = [None] * n

    def exchange(rank, label):
        barrier.wait()
        if rank == 0:
            group.exchange_count += 1
            group.exchange_log.append(label)
        barrier.wait()

    def run_worker(rank):
        try:
            with memtrace.use_meter(meters[rank]):
                trainer.reset_counters()
                rows = local_rows[rank]
                plan = trainer.plan_subbatches(
                    rows.n_anchors, rows.n_targets,
                    config.sub_batch_s, config.sub_batch_t,
                )
                F_n, G_n = trainer.step1_graphless_forward(
                    rows, group.params_f[rank], group.params_g[rank], plan
                )
                rep_slots[rank] = (F_n, G_n)
                exchange(rank, "all_gather")
                gathered = all_gather(rep_slots, expected_workers=n)
                local_cache, loss_value = local_rep_grads(
                    rank, gathered, batch.r, config.tau
                )
                losses[rank] = loss_value
                grads_f, grads_g = trainer.step3_accumulate(
                    rows, group.params_f[rank], group.params_g[rank],
                    plan, local_cache,
                )
                grad_slots[rank] = (grads_f, grads_g)
                exchange(rank, "reduce")
                reduced_f = reduce_grads([g[0] for g in grad_slots])
                reduced_g = reduce_grads([g[1] for g in grad_slots])
                new_f, new_g, new_state = trainer._apply_optimizer(
                    group.params_f[rank], group.params_g[rank],
                    reduced_f, reduced_g, group.opt_states[rank],
                )
                group.params_f[rank] = new_f
                group.params_g[rank] = new_g
                group.opt_states[rank] = new_state
                counters[rank] = trainer.counter_snapshot()
        except Exception as exc:
            errors[rank] = exc
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [
        threading.Thread(target=run_worker, args=(rank,)) for rank in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    real_errors = [e for e in errors if e is not None]
    if real_errors:
        # A worker failure aborts the barrier; report the root cause, not
        # the BrokenBarrierError the other workers see.
        for exc in real_errors:
            if not isinstance(exc, threading.BrokenBarrierError):
                raise exc
        raise real_errors[0]

    totals = {k: sum(c[k] for c in counters) for k in counters[0]}
    stats = trainer.step_stats(
        totals, ("step1", "step3"), ("step2",), ("step2",), meters
    )
    return MultiStepResult(loss=losses[0], stats=stats)
