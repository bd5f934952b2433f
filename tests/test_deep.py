import math

import numpy as np
import pytest

from splitgrad import encoders, kernels, memtrace, trainer
from splitgrad import autodiff as ad
from splitgrad.autodiff import flat_max_rel_err
from splitgrad.deep import (
    CacheNotFilledError,
    DeepConfig,
    build_distance_cache,
    deep_direct_grads,
    dot_head,
    forward_collect,
    head_arrays,
    head_from_arrays,
    head_from_group,
    head_to_group,
    init_distance_head,
    make_head_leaves,
    phi_pairs,
    train_step_deep,
    update_omega_and_fold,
)
from splitgrad.loss import Batch
from splitgrad.trainer import plan_subbatches


def _setup(seed=0, n_s=12, n_t=15, din=7, d=6, hidden=5):
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(n_s, din)), rng.normal(size=(n_t, din)),
                  rng.integers(0, n_t, size=n_s))
    pf = encoders.init_params(seed + 1, [din, 9, d])
    pg = encoders.init_params(seed + 2, [din, 9, d])
    head = init_distance_head(seed + 3, d, hidden=hidden)
    return batch, pf, pg, head


def test_head_init_shapes_and_determinism():
    h = init_distance_head(3, 6, hidden=5)
    assert h.w1a.shape == (6, 5)
    assert h.w1b.shape == (6, 5)
    assert h.b1.shape == (5,)
    assert h.w2.shape == (5, 1)
    assert h.b2.shape == (1,)
    assert np.all(h.b1 == 0) and np.all(h.b2 == 0)
    again = init_distance_head(3, 6, hidden=5)
    for a, b in zip(head_arrays(h), head_arrays(again)):
        assert np.array_equal(a, b)


def test_dot_head_has_no_parameters():
    h = dot_head(4)
    assert head_arrays(h) == []
    assert head_from_arrays(h, []) is h


def test_head_array_round_trip():
    h = init_distance_head(1, 4)
    rebuilt = head_from_arrays(h, [a.copy() for a in head_arrays(h)])
    for a, b in zip(head_arrays(h), head_arrays(rebuilt)):
        assert np.array_equal(a, b)
    assert rebuilt.activation == h.activation


def test_head_group_round_trip_exact():
    h = init_distance_head(2, 5, hidden=3, activation="relu")
    back = head_from_group(head_to_group(h))
    assert back.kind == "mlp" and back.d == 5 and back.activation == "relu"
    for a, b in zip(head_arrays(h), head_arrays(back)):
        assert np.array_equal(a, b)
    d = head_from_group(head_to_group(dot_head(7)))
    assert d.kind == "dot" and d.d == 7


def test_head_group_rejects_a_malformed_head():
    group = head_to_group(init_distance_head(2, 5, hidden=3))
    group["meta"]["activation"] = "swish"
    with pytest.raises(ValueError, match="'swish'"):
        head_from_group(group)
    group = head_to_group(init_distance_head(2, 5, hidden=3))
    group["arrays"]["w1b"].pop()
    with pytest.raises(ValueError, match=r"w1b has shape \(4, 3\)"):
        head_from_group(group)


@pytest.mark.parametrize("activation", kernels.ACTIVATIONS)
def test_head_scores_are_phi_pairs_bitwise(activation):
    rng = np.random.default_rng(7)
    n, m = 2 * kernels.HEAD_STRIP + 3, 11
    h = init_distance_head(8, 4, hidden=3, activation=activation)
    h.b2 = np.full(1, 0.25)
    F, G = rng.normal(size=(n, 4)), rng.normal(size=(m, 4))
    want = phi_pairs(h, ad.constant(F), ad.constant(G)).data.reshape(n, m)
    got = kernels.head_scores(F, G, *head_arrays(h), activation)
    assert np.array_equal(got, want)


def test_phi_pairs_matches_manual_mlp():
    rng = np.random.default_rng(5)
    h = init_distance_head(6, 4, hidden=3)
    F = rng.normal(size=(3, 4))
    G = rng.normal(size=(5, 4))
    out = phi_pairs(make_head_leaves(h), ad.constant(F), ad.constant(G))
    vals = out.data.reshape(3, 5)
    for i in range(3):
        for j in range(5):
            pre = F[i] @ h.w1a + G[j] @ h.w1b + h.b1
            want = float((np.tanh(pre) @ h.w2 + h.b2)[0])
            assert math.isclose(vals[i, j], want, rel_tol=1e-12)


def test_phi_pairs_dot_kind_is_dot_product():
    rng = np.random.default_rng(6)
    F = rng.normal(size=(4, 6))
    G = rng.normal(size=(3, 6))
    out = phi_pairs(make_head_leaves(dot_head(6)),
                    ad.constant(F), ad.constant(G))
    assert np.allclose(out.data.reshape(4, 3), F @ G.T, rtol=1e-12)


def _loss_phase(batch, pf, pg, head, plan, tau=1.0):
    """The three deep phases, as train_step_deep runs them."""
    F, G, pairs = forward_collect(batch, pf, pg, head, plan)
    dcache, loss_value = build_distance_cache(pairs, batch.r, tau)
    gA, gB = dcache.gA, dcache.gB
    grad_head, rep_cache = update_omega_and_fold(F, G, head, dcache, plan)
    return ([pairs.A, pairs.B, gA, gB] + grad_head
            + [rep_cache.u_rows, rep_cache.v_rows]), loss_value


def test_sub_batch_plan_changes_no_bit_of_the_loss_phase():
    batch, pf, pg, head = _setup()
    ref, ref_loss = _loss_phase(batch, pf, pg, head,
                                plan_subbatches(12, 15, 12, 15))
    for bs in (1, 4, 5, 7):
        got, loss_value = _loss_phase(batch, pf, pg, head,
                                      plan_subbatches(12, 15, bs, bs))
        assert loss_value == ref_loss
        for a, b in zip(got, ref, strict=True):
            assert np.array_equal(a, b)


def test_distance_cache_loss_matches_softmax_over_phi_pairs():
    batch, pf, pg, head = _setup()
    plan = plan_subbatches(12, 15, 5, 6)
    F, G, pairs = forward_collect(batch, pf, pg, head, plan)
    dcache, loss_value = build_distance_cache(pairs, batch.r, 0.5)
    d = phi_pairs(make_head_leaves(head), ad.constant(F),
                  ad.constant(G)).data.reshape(12, 15)
    z = d / 0.5
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(12), batch.r]))
    assert math.isclose(loss_value, want, rel_tol=1e-12)
    assert dcache.gA.shape == (12, head.w1a.shape[1])
    assert dcache.gB.shape == (15, head.w1b.shape[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [0.7, 5e-4])
@pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
def test_cached_step_matches_direct_for_every_head_activation(activation,
                                                              tau):
    batch, pf, pg, _ = _setup(seed=4)
    head = init_distance_head(7, 6, hidden=5, activation=activation)
    gf, gg, gh, ref_loss = deep_direct_grads(batch, pf, pg, head, tau=tau)
    res = train_step_deep(batch, pf, pg, head,
                          encoders.init_optimizer("sgd", 1.0),
                          DeepConfig(tau=tau, sub_batch_s=5, sub_batch_t=6))
    assert res.loss == ref_loss
    old = (encoders.param_arrays(pf) + encoders.param_arrays(pg)
           + head_arrays(head))
    new = (encoders.param_arrays(res.params_f)
           + encoders.param_arrays(res.params_g) + head_arrays(res.head))
    got = [a - b for a, b in zip(old, new)]
    assert flat_max_rel_err(gf + gg + gh, got) <= 1e-9


def test_unknown_head_activation_raises():
    batch, pf, pg, _ = _setup()
    head = init_distance_head(7, 6, hidden=5, activation="gelu")
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        train_step_deep(batch, pf, pg, head,
                        encoders.init_optimizer("sgd", 1.0), DeepConfig())


def test_bad_positive_index_raises_before_the_strip_walk(monkeypatch):
    batch, pf, pg, head = _setup()
    plan = plan_subbatches(12, 15, 5, 6)
    _, _, pairs = forward_collect(batch, pf, pg, head, plan)

    def walked(*args):
        raise AssertionError("the strip walk ran on a bad positive map")

    monkeypatch.setattr(kernels, "head_strip_loss", walked)
    bad = batch.r.copy()
    for value in (15, -1):
        bad[3] = value
        with pytest.raises(ValueError, match="invalid r index"):
            build_distance_cache(pairs, bad, 1.0)


def test_cached_deep_step_matches_direct_graph():
    batch, pf, pg, head = _setup()
    gf, gg, gh, ref_loss = deep_direct_grads(batch, pf, pg, head, tau=0.7)
    opt = encoders.init_optimizer("sgd", 1.0)
    res = train_step_deep(batch, pf, pg, head, opt,
                          DeepConfig(tau=0.7, sub_batch_s=5, sub_batch_t=6))
    assert res.loss == ref_loss
    # unit-lr sgd: old - new recovers the gradient exactly
    old = (encoders.param_arrays(pf) + encoders.param_arrays(pg)
           + head_arrays(head))
    new = (encoders.param_arrays(res.params_f)
           + encoders.param_arrays(res.params_g) + head_arrays(res.head))
    got = [a - b for a, b in zip(old, new)]
    assert flat_max_rel_err(gf + gg + gh, got) < 1e-9


def test_deep_step_keeps_tied_encoders_tied():
    rng = np.random.default_rng(4)
    p = encoders.init_params(5, [6, 8, 4])
    head = init_distance_head(6, 4, hidden=5)
    batch = Batch(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)),
                  np.arange(10))
    gf, gg, gh, _ = deep_direct_grads(batch, p, p, head)
    cfg = DeepConfig(tau=1.0, sub_batch_s=4, sub_batch_t=4)
    res = train_step_deep(batch, p, p, head,
                          encoders.init_optimizer("sgd", 0.1), cfg)
    assert res.params_f is res.params_g
    want = [a - 0.1 * (g1 + g2) for a, g1, g2
            in zip(encoders.param_arrays(p), gf, gg)]
    want += [a - 0.1 * g for a, g in zip(head_arrays(head), gh)]
    assert flat_max_rel_err(
        want, encoders.param_arrays(res.params_f) + head_arrays(res.head)
    ) < 1e-9
    adam = train_step_deep(batch, p, p, head,
                           encoders.init_optimizer("adam", 1e-3), cfg)
    n_arrays = len(encoders.param_arrays(p)) + len(head_arrays(head))
    assert len(adam.opt_state.m) == len(adam.opt_state.v) == n_arrays


def test_dot_head_reduces_to_plain_trainer():
    # the dot head is the cached step itself: same loss, parameters and
    # stats, bit for bit
    batch, pf, pg, _ = _setup()
    head = dot_head(6)
    results = []
    for step in (
        lambda opt: train_step_deep(batch, pf, pg, head, opt,
                                    DeepConfig(0.7, 4, 5)),
        lambda opt: trainer.train_step_cached(batch, pf, pg, opt,
                                              trainer.TrainConfig(0.7, 4, 5)),
    ):
        with memtrace.MemCounter().activate():
            results.append(step(encoders.init_optimizer("adam", 1e-2)))
    res_deep, res_plain = results
    assert res_deep.head is head
    assert res_deep.loss == res_plain.loss
    assert res_deep.stats == res_plain.stats
    assert res_deep.stats.act_peak > 0 and res_deep.stats.cache_floats > 0
    for a, b in zip(encoders.param_arrays(res_deep.params_f)
                    + encoders.param_arrays(res_deep.params_g),
                    encoders.param_arrays(res_plain.params_f)
                    + encoders.param_arrays(res_plain.params_g), strict=True):
        assert np.array_equal(a, b)


def test_dot_head_with_frozen_encoders_is_rejected():
    batch, pf, pg, _ = _setup()
    with pytest.raises(ValueError, match="nothing to train"):
        train_step_deep(batch, pf, pg, dot_head(6),
                        encoders.init_optimizer("sgd", 1e-2),
                        DeepConfig(train_encoders=False))


def test_pair_phases_reject_a_dot_head_by_name():
    # the three phases run an mlp head only; a dot head fails before any
    # work with ValueError naming its kind
    batch, pf, pg, mlp = _setup()
    head = dot_head(6)
    plan = plan_subbatches(batch.n_anchors, batch.n_targets, 4, 5)
    F, G, pairs = forward_collect(batch, pf, pg, mlp, plan)
    dcache, _ = build_distance_cache(pairs, batch.r, 1.0)
    pairs.head = head
    with pytest.raises(ValueError, match="got a 'dot' head"):
        forward_collect(batch, pf, pg, head, plan)
    with pytest.raises(ValueError, match="got a 'dot' head"):
        build_distance_cache(pairs, batch.r, 1.0)
    with pytest.raises(ValueError, match="got a 'dot' head"):
        update_omega_and_fold(F, G, head, dcache, plan)
    assert dcache.filled


def test_early_interaction_trains_head_only():
    rng = np.random.default_rng(9)
    d = 5
    batch = Batch(rng.normal(size=(8, d)), rng.normal(size=(9, d)),
                  rng.integers(0, 9, size=8))
    pf = encoders.identity_params(d)
    pg = encoders.identity_params(d)
    head = init_distance_head(4, d)
    opt = encoders.init_optimizer("sgd", 1e-2)
    res = train_step_deep(batch, pf, pg, head, opt,
                          DeepConfig(train_encoders=False, sub_batch_s=4,
                                     sub_batch_t=3))
    assert res.params_f is pf and res.params_g is pg
    moved = [not np.array_equal(a, b)
             for a, b in zip(head_arrays(head), head_arrays(res.head))]
    assert all(moved[:4])  # b2's gradient is mathematically zero
    assert res.stats.bwd_rows == 0


@pytest.mark.parametrize("train_encoders", [True, False])
def test_adam_leaves_the_head_output_bias_bitwise_unchanged(train_encoders):
    # b2 shifts every distance of a row alike, which the row softmax
    # ignores: head_strip_loss returns its gradient as the exact zero it
    # is, so Adam does not step b2 on roundoff while the rest trains
    batch, pf, pg, head = _setup()
    arrays = head_arrays(head)
    head = head_from_arrays(head, arrays[:4] + [np.array([0.3])])
    start = head_arrays(head)
    opt = encoders.init_optimizer("adam", 1e-2)
    cfg = DeepConfig(sub_batch_s=5, sub_batch_t=6,
                     train_encoders=train_encoders)
    for _ in range(4):
        res = train_step_deep(batch, pf, pg, head, opt, cfg)
        pf, pg, head, opt = res.params_f, res.params_g, res.head, res.opt_state
    end = head_arrays(head)
    assert end[4].tobytes() == start[4].tobytes()
    assert not any(np.array_equal(a, b) for a, b in zip(start[:4], end[:4]))


def test_head_bias_gradient_is_pure_roundoff():
    """A constant shift of every distance cancels in the row softmax, so
    the output-bias gradient is mathematically zero; what survives is
    accumulated rounding from the softmax normalization."""
    batch, pf, pg, head = _setup()
    _, _, gh, _ = deep_direct_grads(batch, pf, pg, head)
    assert np.all(np.abs(gh[-1]) < 1e-14)


def test_distance_cache_single_use():
    batch, pf, pg, head = _setup()
    plan = plan_subbatches(12, 15, 5, 6)
    F, G, d_vals = forward_collect(batch, pf, pg, head, plan)
    dcache, _ = build_distance_cache(d_vals, batch.r, 1.0)
    update_omega_and_fold(F, G, head, dcache, plan)
    with pytest.raises(CacheNotFilledError, match="consumed"):
        update_omega_and_fold(F, G, head, dcache, plan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [0.7, 5e-4])
def test_head_strip_height_changes_no_loss_or_gA_bit(monkeypatch, tau):
    # 13 anchors (ragged against strips of 3 and 8), 20 targets of which
    # 7 are hard negatives, and repeated positives
    batch, pf, pg, head = _setup(seed=5, n_s=13, n_t=20)
    batch.r[:4] = batch.r[4]
    plan = plan_subbatches(13, 20, 5, 6)
    _, _, pairs = forward_collect(batch, pf, pg, head, plan)
    runs = []
    for strip in (1, 3, 8, 13):
        monkeypatch.setattr(kernels, "HEAD_STRIP", strip)
        dcache, loss_value = build_distance_cache(pairs, batch.r, tau)
        runs.append((loss_value, dcache.gA, [dcache.gB] + dcache.grad_tail))
    ref_loss, ref_gA, ref_rest = runs[-1]
    for loss_value, gA, rest in runs:
        assert loss_value == ref_loss
        assert np.array_equal(gA, ref_gA)
        for got, want in zip(rest[:-1], ref_rest[:-1], strict=True):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # b2's gradient is mathematically zero: pure roundoff, which must
        # stay far below the w2 gradient it is summed beside
        assert np.max(np.abs(rest[-1])) <= 1e-13 * np.max(np.abs(rest[-2]))


def test_deep_counters_count_each_pair_once_each_way():
    batch, pf, pg, head = _setup()
    opt = encoders.init_optimizer("sgd", 1e-3)
    train_step_deep(batch, pf, pg, head, opt,
                    DeepConfig(sub_batch_s=5, sub_batch_t=6))
    counters = trainer.counter_snapshot()
    assert counters["phi_fwd_pairs"] == 12 * 15
    assert counters["phi_bwd_pairs"] == 12 * 15
    assert counters["fwd_rows"] == 2 * (12 + 15)
    assert counters["bwd_rows"] == 12 + 15


def test_gate_phase_chain_gives_the_gradients_train_step_deep_applies():
    # the chain stepbench's correctness gate runs, phase by phase
    batch, pf, pg, head = _setup()
    plan = plan_subbatches(12, 15, 5, 6)
    F, G, pairs = forward_collect(batch, pf, pg, head, plan)
    dcache, _ = build_distance_cache(pairs, batch.r, 0.7)
    grad_head, rep_cache = update_omega_and_fold(F, G, head, dcache, plan)
    gf, gg = trainer.step3_accumulate(batch, pf, pg, plan, rep_cache)
    res = train_step_deep(batch, pf, pg, head,
                          encoders.init_optimizer("sgd", 1.0),
                          DeepConfig(tau=0.7, sub_batch_s=5, sub_batch_t=6))
    old = (encoders.param_arrays(pf) + encoders.param_arrays(pg)
           + head_arrays(head))
    new = (encoders.param_arrays(res.params_f)
           + encoders.param_arrays(res.params_g) + head_arrays(res.head))
    for p, g, updated in zip(old, gf + gg + grad_head, new, strict=True):
        assert np.array_equal(updated, p - 1.0 * g)


def test_head_gradient_by_finite_differences():
    batch, pf, pg, head = _setup(n_s=6, n_t=7, din=5, d=4, hidden=3)
    _, _, gh, _ = deep_direct_grads(batch, pf, pg, head, tau=0.8)

    def loss_with(arrays):
        h = head_from_arrays(head, arrays)
        _, _, _, val = deep_direct_grads(batch, pf, pg, h, tau=0.8)
        return val

    rng = np.random.default_rng(0)
    base = [a.copy() for a in head_arrays(head)]
    h_step = 1e-6
    for k in range(4):  # b2 excluded, its gradient is identically zero
        flat_idx = rng.integers(0, base[k].size, size=3)
        for idx in np.unique(flat_idx):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[k].flat[idx] += h_step
            minus[k].flat[idx] -= h_step
            fd = (loss_with(plus) - loss_with(minus)) / (2 * h_step)
            assert math.isclose(gh[k].flat[idx], fd, rel_tol=1e-4,
                                abs_tol=1e-8)
