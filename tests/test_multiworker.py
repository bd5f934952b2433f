import threading

import numpy as np
import pytest

from splitgrad import encoders, memtrace, trainer
from splitgrad.autodiff import ShapeMismatchError, flat_max_rel_err
from splitgrad.loss import Batch, contrastive_loss, direct_param_grads
from splitgrad.multiworker import (
    WorkerGroup,
    all_gather,
    reduce_grads,
    train_step_multi,
)
from splitgrad.trainer import TrainConfig


def _setup(seed=0, n_s=24, n_t=24, din=10, d=8):
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(n_s, din)), rng.normal(size=(n_t, din)),
                  rng.integers(0, n_t, size=n_s))
    pf = encoders.init_params(seed + 1, [din, 12, d])
    pg = encoders.init_params(seed + 2, [din, 12, d])
    return batch, pf, pg


def _pairs(rng, sizes, d=4):
    return [(rng.normal(size=(a, d)), rng.normal(size=(b, d)))
            for a, b in sizes]


def test_all_gather_concatenates_partition_rows_in_rank_order():
    batch, pf, pg = _setup(n_s=10, n_t=7)
    group = WorkerGroup(3, pf, pg, encoders.init_optimizer("sgd", 1e-3))
    rows = group.partition(batch)
    # the workers' ranges tile the batch, in rank order
    assert [r.a_lo for r in rows] == [0, 3, 6]
    assert [r.t_lo for r in rows] == [0, 2, 4]
    for r, nxt in zip(rows, rows[1:] + [None]):
        a_hi = nxt.a_lo if nxt else batch.n_anchors
        t_hi = nxt.t_lo if nxt else batch.n_targets
        assert r.a_lo + r.n_anchors == a_hi
        assert r.t_lo + r.n_targets == t_hi
        assert np.array_equal(r.anchors, batch.anchors[r.a_lo:a_hi])
        assert np.array_equal(r.targets, batch.targets[r.t_lo:t_hi])
    rng = np.random.default_rng(1)
    pairs = [(rng.normal(size=(r.n_anchors, 4)),
              rng.normal(size=(r.n_targets, 4))) for r in rows]
    F_all, G_all = all_gather(pairs)
    assert np.array_equal(F_all, np.concatenate([p[0] for p in pairs]))
    assert np.array_equal(G_all, np.concatenate([p[1] for p in pairs]))
    for r, (F, G) in zip(rows, pairs):
        assert np.array_equal(F_all[r.a_lo:r.a_lo + r.n_anchors], F)
        assert np.array_equal(G_all[r.t_lo:r.t_lo + r.n_targets], G)


def test_all_gather_checks_worker_count():
    rng = np.random.default_rng(2)
    pairs = _pairs(rng, [(2, 2), (2, 2)])
    with pytest.raises(ValueError, match="expected 3"):
        all_gather(pairs, expected_workers=3)
    with pytest.raises(ValueError, match="no worker"):
        all_gather([])


def test_all_gather_rejects_mismatched_widths():
    rng = np.random.default_rng(3)
    pairs = [(rng.normal(size=(2, 4)), rng.normal(size=(2, 4))),
             (rng.normal(size=(2, 5)), rng.normal(size=(2, 4)))]
    with pytest.raises(ShapeMismatchError, match="widths differ"):
        all_gather(pairs)


@pytest.mark.parametrize("n_workers", [2, 3])
def test_each_worker_step3_reads_its_rows_of_the_one_worker_cache(
        monkeypatch, n_workers):
    batch, pf, pg = _setup(n_s=13, n_t=17)
    F = encoders.encode(pf, batch.anchors)
    G = encoders.encode(pg, batch.targets)
    full, _ = trainer.step2_build_cache(F, G, batch.r, 0.5)
    seen = []
    real = trainer.step3_accumulate

    def spy(rows, params_f, params_g, plan, cache):
        seen.append((rows, cache.u_rows.copy(), cache.v_rows.copy()))
        return real(rows, params_f, params_g, plan, cache)

    monkeypatch.setattr(trainer, "step3_accumulate", spy)
    group = WorkerGroup(n_workers, pf, pg, encoders.init_optimizer("sgd", 1))
    train_step_multi(group, batch, TrainConfig(0.5, 4, 4))
    assert [rows.a_lo for rows, _, _ in seen] == [
        r.a_lo for r in group.partition(batch)]
    for rows, u, v in seen:
        assert np.array_equal(
            u, full.u_rows[rows.a_lo:rows.a_lo + rows.n_anchors])
        assert np.array_equal(
            v, full.v_rows[rows.t_lo:rows.t_lo + rows.n_targets])


def test_reduce_grads_sums_across_workers():
    a = [np.ones((2, 2)), np.full(3, 2.0)]
    b = [np.full((2, 2), 3.0), np.full(3, 5.0)]
    out = reduce_grads([a, b])
    assert np.array_equal(out[0], np.full((2, 2), 4.0))
    assert np.array_equal(out[1], np.full(3, 7.0))
    # inputs untouched
    assert np.all(a[0] == 1.0)


def test_reduce_grads_validation():
    with pytest.raises(ValueError, match="no worker"):
        reduce_grads([])
    with pytest.raises(ShapeMismatchError, match="lengths differ"):
        reduce_grads([[np.zeros(2)], [np.zeros(2), np.zeros(2)]])
    with pytest.raises(ShapeMismatchError, match="shapes differ"):
        reduce_grads([[np.zeros((2, 3))], [np.zeros((3, 2))]])


def test_partition_is_contiguous_and_covers_batch():
    batch, pf, pg = _setup(n_s=10, n_t=7)
    group = WorkerGroup(3, pf, pg, encoders.init_optimizer("sgd", 1e-3))
    rows = group.partition(batch)
    assert [r.n_anchors for r in rows] == [3, 3, 4]
    assert [r.n_targets for r in rows] == [2, 2, 3]
    assert np.array_equal(np.concatenate([r.anchors for r in rows]),
                          batch.anchors)
    assert np.array_equal(np.concatenate([r.targets for r in rows]),
                          batch.targets)


def test_group_requires_at_least_one_worker():
    _, pf, pg = _setup()
    with pytest.raises(ValueError, match="at least one"):
        WorkerGroup(0, pf, pg, encoders.init_optimizer("sgd", 1e-3))


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_multi_step_matches_direct_full_batch(n_workers):
    batch, pf, pg = _setup()
    ref = contrastive_loss(encoders.encode(pf, batch.anchors),
                           encoders.encode(pg, batch.targets), batch.r, 0.7)
    gf, gg, _ = direct_param_grads(batch, pf, pg, 0.7)
    # unit-lr sgd so the replica update reveals the reduced gradient
    group = WorkerGroup(n_workers, pf, pg, encoders.init_optimizer("sgd", 1.0))
    res = train_step_multi(group, batch, TrainConfig(0.7, 8, 8))
    assert res.loss == ref.loss
    old = encoders.param_arrays(pf) + encoders.param_arrays(pg)
    new = (encoders.param_arrays(group.params_f[0])
           + encoders.param_arrays(group.params_g[0]))
    got = [a - b for a, b in zip(old, new)]
    assert flat_max_rel_err(gf + gg, got) < 1e-9


def test_tied_encoders_stay_tied_in_every_replica():
    rng = np.random.default_rng(4)
    p = encoders.init_params(5, [6, 8, 4])
    batch = Batch(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)),
                  np.arange(10))
    opt = encoders.init_optimizer("sgd", 0.1)
    config = TrainConfig(1.0, 4, 4)
    group = WorkerGroup(2, p, p, opt)
    res = train_step_multi(group, batch, config)
    ref = trainer.train_step_cached(batch, p, p, opt, config)
    assert all(f is g for f, g in zip(group.params_f, group.params_g))
    assert flat_max_rel_err(encoders.param_arrays(ref.params_f),
                            encoders.param_arrays(res.params_f)) < 1e-9


@pytest.mark.parametrize("n_workers", [2, 3, 4])
def test_replicas_stay_bit_identical(n_workers):
    batch, pf, pg = _setup(seed=5)
    group = WorkerGroup(n_workers, pf, pg,
                        encoders.init_optimizer("adam", 1e-2))
    for _ in range(3):
        train_step_multi(group, batch, TrainConfig(1.0, 8, 8))
    base_f = encoders.param_arrays(group.params_f[0])
    base_g = encoders.param_arrays(group.params_g[0])
    for rank in range(1, n_workers):
        for a, b in zip(base_f, encoders.param_arrays(group.params_f[rank])):
            assert np.array_equal(a, b)
        for a, b in zip(base_g, encoders.param_arrays(group.params_g[rank])):
            assert np.array_equal(a, b)


def test_exactly_two_exchanges_per_step():
    batch, pf, pg = _setup()
    group = WorkerGroup(3, pf, pg, encoders.init_optimizer("sgd", 1e-3))
    train_step_multi(group, batch, TrainConfig(1.0, 8, 8))
    assert group.exchange_count == 2
    assert group.exchange_log == ["all_gather", "reduce"]
    train_step_multi(group, batch, TrainConfig(1.0, 8, 8))
    assert group.exchange_log == ["all_gather", "reduce"] * 2
    assert group.exchange_log.count("all_gather") == 2


def test_counters_sum_worker_rows():
    batch, pf, pg = _setup()
    group = WorkerGroup(4, pf, pg, encoders.init_optimizer("sgd", 1e-3))
    res = train_step_multi(group, batch, TrainConfig(1.0, 4, 4))
    n = batch.n_anchors + batch.n_targets
    assert res.stats.fwd_rows == 2 * n
    assert res.stats.bwd_rows == n


@pytest.mark.parametrize("n_workers", [2, 3, 5])
def test_step_stats_merge_worker_meters(n_workers):
    # every worker encodes sub-batches of the same size and takes the loss
    # over the gathered batch, so its peaks are the cached step's; each
    # holds the whole batch's cache rows, so the caches add up
    batch, pf, pg = _setup(n_s=48, n_t=48)
    opt = encoders.init_optimizer("sgd", 1e-3)
    config = TrainConfig(1.0, 8, 8)
    with memtrace.MemCounter().activate():
        cached = trainer.train_step_cached(batch, pf, pg, opt, config).stats
    multi = train_step_multi(WorkerGroup(n_workers, pf, pg, opt), batch,
                             config).stats
    assert cached.act_peak > 0 and cached.cache_floats > 0
    assert multi.act_peak == cached.act_peak
    assert multi.loss_phase_peak == cached.loss_phase_peak
    assert multi.cache_floats == n_workers * cached.cache_floats


def test_worker_failure_raises_root_cause(monkeypatch):
    """One failing worker stops the step; the caller must see the
    original error, not a BrokenBarrierError."""
    batch, pf, pg = _setup(n_s=9, n_t=9)
    group = WorkerGroup(2, pf, pg, encoders.init_optimizer("sgd", 1e-3))
    real = trainer.step1_graphless_forward

    def failing(rows, params_f, params_g, plan):
        if rows.n_anchors == 5:  # only the second worker's slice
            raise RuntimeError("encoder exploded")
        return real(rows, params_f, params_g, plan)

    monkeypatch.setattr(trainer, "step1_graphless_forward", failing)
    with pytest.raises(RuntimeError, match="encoder exploded") as info:
        train_step_multi(group, batch, TrainConfig(1.0, 4, 4))
    assert not isinstance(info.value, threading.BrokenBarrierError)


def test_train_step_multi_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("train_step_multi started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    batch, pf, pg = _setup()
    group = WorkerGroup(3, pf, pg, encoders.init_optimizer("adam", 1e-2))
    res = train_step_multi(group, batch, TrainConfig(1.0, 8, 8))
    assert isinstance(res, trainer.StepResult)
    assert res.params_f is group.params_f[0]
    assert res.params_g is group.params_g[0]
    assert res.opt_state is group.opt_states[0]
