"""End-to-end acceptance checks, one test per claim the package makes.

Each test prints a single [acceptance] line to the terminal (bypassing
capture) so a full run shows every claim's verdict at a glance.
"""

import time

import numpy as np
import pytest

from splitgrad import bench, deep, encoders, multiworker, trainer
from splitgrad.autodiff import flat_max_rel_err
from splitgrad.bench import RunConfig, profile_single_step, run_experiment
from splitgrad.loss import (
    Batch,
    analytic_rep_grads,
    contrastive_loss,
    direct_param_grads,
)
from splitgrad.trainer import (
    TrainConfig,
    plan_subbatches,
    step1_graphless_forward,
    step2_build_cache,
    step3_accumulate,
)


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num} ({name}): {verdict}{detail}")


def _random_batch(seed, n_s, n_t, din):
    rng = np.random.default_rng(seed)
    return Batch(rng.normal(size=(n_s, din)), rng.normal(size=(n_t, din)),
                 rng.integers(0, n_t, size=n_s))


def _flat_params(*param_objs):
    out = []
    for p in param_objs:
        out += encoders.param_arrays(p)
    return out


def _profile(mode, batch_size, sub_batch):
    return profile_single_step(RunConfig(
        mode=mode, batch_size=batch_size, sub_batch_s=sub_batch,
        sub_batch_t=sub_batch,
    ))


def test_criterion_1_exact_equivalence(capsys):
    """Cached gradients and post-step parameters match direct training
    across encoder depth, temperature, and sub-batch size.

    The parameter leg runs sgd: adam divides each update by
    sqrt(v) + eps, and on coordinates whose gradient is mathematically
    zero that division amplifies shared float roundoff by about 1/eps,
    for any two implementations of the same math. sgd updates are linear
    in the gradient, so parameter agreement there measures what it
    should.
    """
    encoder_dims = {"linear1": [20, 16], "tanh2": [20, 24, 16]}
    worst_grad = 0.0
    worst_param = 0.0
    for e_idx, (kind, dims) in enumerate(encoder_dims.items()):
        for t_idx, tau in enumerate((1.0, 0.05)):
            seed = 100 + 10 * e_idx + t_idx
            batch = _random_batch(seed, 32, 64, 20)
            pf = encoders.init_params(seed + 1, dims)
            pg = encoders.init_params(seed + 2, dims)
            gf, gg, _ = direct_param_grads(batch, pf, pg, tau)
            ref = trainer.train_step_direct(
                batch, pf, pg, encoders.init_optimizer("sgd", 0.1), tau
            )
            for sub in (1, 2, 4, 8, 16, 32):
                plan = plan_subbatches(32, 64, sub, sub)
                F, G = step1_graphless_forward(batch, pf, pg, plan)
                cache, _ = step2_build_cache(F, G, batch.r, tau)
                cgf, cgg = step3_accumulate(batch, pf, pg, plan, cache)
                worst_grad = max(
                    worst_grad, flat_max_rel_err(gf + gg, cgf + cgg)
                )
                res = trainer.train_step_cached(
                    batch, pf, pg, encoders.init_optimizer("sgd", 0.1),
                    TrainConfig(tau, sub, sub),
                )
                worst_param = max(worst_param, flat_max_rel_err(
                    _flat_params(ref.params_f, ref.params_g),
                    _flat_params(res.params_f, res.params_g),
                ))
    ok = worst_grad <= 1e-9 and worst_param <= 1e-9
    _report(capsys, 1, "cached equals direct",
            ok, f" (grad {worst_grad:.2e}, params {worst_param:.2e})")
    assert ok


def test_criterion_2_analytic_representation_gradients(capsys):
    """Closed-form u, v rows agree with the taped loss backward."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n_s = int(rng.integers(2, 24))
        n_t = int(rng.integers(n_s, 32))
        d = int(rng.integers(2, 12))
        tau = float(rng.uniform(0.05, 2.0))
        F = rng.normal(size=(n_s, d))
        G = rng.normal(size=(n_t, d))
        r = rng.integers(0, n_t, size=n_s)
        cache, _ = step2_build_cache(F, G, r, tau)
        got = analytic_rep_grads(F, G, r, tau)
        worst = max(worst, flat_max_rel_err(
            [cache.u_rows, cache.v_rows], [got.u, got.v]
        ))
    ok = worst <= 1e-10
    _report(capsys, 2, "analytic representation gradients",
            ok, f" (max rel err {worst:.2e}, 100 instances)")
    assert ok


def test_criterion_3_finite_differences(capsys):
    """Central differences of the loss confirm every parameter gradient.

    The denominator is floored at the scale below which h=1e-6 central
    differences cannot resolve a derivative of this loss at all, so
    near-zero coordinates are compared at the resolution limit instead
    of producing meaningless ratios.
    """
    batch = _random_batch(21, 12, 14, 10)
    pf = encoders.init_params(22, [10, 12, 8])
    pg = encoders.init_params(23, [10, 12, 8])
    tau = 0.8
    h = 1e-6
    tol = 1e-5

    def loss_of(params_f, params_g):
        return contrastive_loss(
            encoders.encode(params_f, batch.anchors),
            encoders.encode(params_g, batch.targets), batch.r, tau
        ).loss

    gf, gg, loss0 = direct_param_grads(batch, pf, pg, tau)
    grads = gf + gg
    arrays = _flat_params(pf, pg)
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    rng = np.random.default_rng(3)
    picks = rng.choice(total, size=220, replace=False)
    floor = 20 * np.finfo(np.float64).eps * max(1.0, abs(loss0)) / (h * tol)
    n_checked = 0
    worst = 0.0
    bounds = np.cumsum([0] + sizes)
    for flat in np.sort(picks):
        k = int(np.searchsorted(bounds, flat, side="right") - 1)
        idx = int(flat - bounds[k])
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[k].flat[idx] += h
        minus[k].flat[idx] -= h
        n_f = len(encoders.param_arrays(pf))
        lp = loss_of(encoders.params_from_arrays(pf, plus[:n_f]),
                     encoders.params_from_arrays(pg, plus[n_f:]))
        lm = loss_of(encoders.params_from_arrays(pf, minus[:n_f]),
                     encoders.params_from_arrays(pg, minus[n_f:]))
        fd = (lp - lm) / (2 * h)
        g = grads[k].flat[idx]
        worst = max(worst, abs(fd - g) / max(abs(g), floor))
        n_checked += 1
    ok = n_checked >= 200 and worst < tol
    _report(capsys, 3, "finite differences",
            ok, f" (max rel err {worst:.2e} over {n_checked} coordinates)")
    assert ok


def test_criterion_4_multi_worker_equivalence(capsys):
    """Worker counts 1, 2, 4 reproduce the single-process gradient, keep
    replicas bit-identical, and gather representations exactly once."""
    batch = _random_batch(31, 32, 32, 12)
    pf = encoders.init_params(32, [12, 14, 8])
    pg = encoders.init_params(33, [12, 14, 8])
    gf, gg, _ = direct_param_grads(batch, pf, pg, 0.7)
    worst = 0.0
    one_gather_each_step = True
    for n in (1, 2, 4):
        group = multiworker.WorkerGroup(
            n, pf, pg, encoders.init_optimizer("sgd", 1.0)
        )
        multiworker.train_step_multi(group, batch, TrainConfig(0.7, 8, 8))
        one_gather_each_step &= (
            group.exchange_log.count("all_gather") == 1
        )
        # unit-lr sgd: old minus new is the reduced gradient, exactly
        got = [a - b for a, b in zip(
            _flat_params(pf, pg),
            _flat_params(group.params_f[0], group.params_g[0]),
        )]
        worst = max(worst, flat_max_rel_err(gf + gg, got))
    replicas_identical = True
    for n in (2, 4):
        group = multiworker.WorkerGroup(
            n, pf, pg, encoders.init_optimizer("adam", 1e-2)
        )
        for _ in range(2):
            multiworker.train_step_multi(group, batch, TrainConfig(0.7, 8, 8))
        one_gather_each_step &= (
            group.exchange_log.count("all_gather") == 2
        )
        for rank in range(1, n):
            for a, b in zip(
                _flat_params(group.params_f[0], group.params_g[0]),
                _flat_params(group.params_f[rank], group.params_g[rank]),
            ):
                replicas_identical &= bool(np.array_equal(a, b))
    ok = worst <= 1e-9 and replicas_identical and one_gather_each_step
    _report(capsys, 4, "multi-worker equivalence", ok,
            f" (grad {worst:.2e}, replicas identical {replicas_identical}, "
            f"single gather {one_gather_each_step})")
    assert ok


def test_criterion_5_deep_distance_equivalence(capsys):
    """Cached training through a learned scalar head matches the single
    graph; a fixed dot head reproduces plain training; identity encoders
    leave all learning in the head."""
    batch = _random_batch(41, 16, 20, 9)
    pf = encoders.init_params(42, [9, 11, 8])
    pg = encoders.init_params(43, [9, 11, 8])
    head = deep.init_distance_head(44, 8, hidden=6)

    gf, gg, gh, _ = deep.deep_direct_grads(batch, pf, pg, head, tau=0.7)
    res = deep.train_step_deep(
        batch, pf, pg, head, encoders.init_optimizer("sgd", 1.0),
        deep.DeepConfig(tau=0.7, sub_batch_s=5, sub_batch_t=7),
    )
    got = [a - b for a, b in zip(
        _flat_params(pf, pg) + deep.head_arrays(head),
        _flat_params(res.params_f, res.params_g) + deep.head_arrays(res.head),
    )]
    err_mlp = flat_max_rel_err(gf + gg + gh, got)

    dot = deep.dot_head(8)
    res_dot = deep.train_step_deep(
        batch, pf, pg, dot, encoders.init_optimizer("sgd", 0.1),
        deep.DeepConfig(tau=0.7, sub_batch_s=5, sub_batch_t=7),
    )
    res_plain = trainer.train_step_direct(
        batch, pf, pg, encoders.init_optimizer("sgd", 0.1), 0.7
    )
    err_dot = flat_max_rel_err(
        _flat_params(res_dot.params_f, res_dot.params_g),
        _flat_params(res_plain.params_f, res_plain.params_g),
    )

    ident = encoders.identity_params(9)
    head_e = deep.init_distance_head(45, 9, hidden=6)
    _, _, gh_e, _ = deep.deep_direct_grads(batch, ident, ident, head_e)
    res_e = deep.train_step_deep(
        batch, ident, ident, head_e, encoders.init_optimizer("sgd", 1.0),
        deep.DeepConfig(sub_batch_s=4, sub_batch_t=5, train_encoders=False),
    )
    got_e = [a - b for a, b in zip(
        deep.head_arrays(head_e), deep.head_arrays(res_e.head)
    )]
    err_early = flat_max_rel_err(gh_e, got_e)
    encoders_untouched = res_e.params_f is ident and res_e.params_g is ident

    ok = (err_mlp <= 1e-9 and err_dot <= 1e-9 and err_early <= 1e-9
          and encoders_untouched)
    _report(capsys, 5, "deep distance equivalence", ok,
            f" (mlp {err_mlp:.2e}, dot {err_dot:.2e}, early {err_early:.2e})")
    assert ok


def test_criterion_6_constant_memory(capsys):
    """Activation peak is exactly flat in batch size for cached steps,
    the gradient cache holds exactly (|S|+|T|)*d floats, and the direct
    peak grows superlinearly."""
    cache_peaks = {}
    cache_floats_exact = True
    for bs in (64, 128, 256, 512):
        row = _profile("cache", bs, 8)
        cache_peaks[bs] = row["act_peak"]
        cache_floats_exact &= row["gradient_cache"] == (bs + bs) * 16
    flat = len(set(cache_peaks.values())) == 1
    d64 = _profile("direct", 64, 8)["act_peak"]
    d256 = _profile("direct", 256, 8)["act_peak"]
    growth = d256 / d64
    ok = flat and cache_floats_exact and growth >= 3.9
    _report(capsys, 6, "constant activation memory", ok,
            f" (cache peak {cache_peaks[64]} flat across 64..512, "
            f"direct 64->256 grows {growth:.2f}x, {d64} -> {d256})")
    assert ok


def test_criterion_7_accumulation_is_not_equivalent(capsys):
    """Chunked accumulation sees fewer in-batch negatives per chunk and
    therefore computes a genuinely different gradient."""
    rng = np.random.default_rng(51)
    batch = Batch(rng.normal(size=(32, 10)), rng.normal(size=(32, 10)),
                  np.arange(32))
    pf = encoders.init_params(52, [10, 12, 8])
    pg = encoders.init_params(53, [10, 12, 8])
    gf, gg, _ = direct_param_grads(batch, pf, pg, 1.0)
    res = trainer.train_step_accumulation(
        batch, pf, pg, encoders.init_optimizer("sgd", 1.0), 8, 1.0
    )
    n_chunks = 4
    # mean across chunks, so the comparison is not a scale artifact
    acc = [(a - b) / n_chunks for a, b in zip(
        _flat_params(pf, pg), _flat_params(res.params_f, res.params_g)
    )]
    err = flat_max_rel_err(gf + gg, acc)
    ok = err > 1e-3
    _report(capsys, 7, "accumulation differs", ok,
            f" (rel difference {err:.2e})")
    assert ok


def test_criterion_8_op_count_overhead(capsys):
    """Cached steps encode every example twice forward, once backward;
    direct steps once each. Wall-clock is reported, not bounded."""
    batch = _random_batch(61, 64, 64, 16)
    pf = encoders.init_params(62, [16, 24, 12])
    pg = encoders.init_params(63, [16, 24, 12])
    n = batch.n_anchors + batch.n_targets

    t0 = time.perf_counter()
    res_c = trainer.train_step_cached(
        batch, pf, pg, encoders.init_optimizer("sgd", 1e-3),
        TrainConfig(1.0, 8, 8),
    )
    ms_cache = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    res_d = trainer.train_step_direct(
        batch, pf, pg, encoders.init_optimizer("sgd", 1e-3), 1.0
    )
    ms_direct = (time.perf_counter() - t0) * 1e3

    ok = (res_c.stats.fwd_rows == 2 * n and res_c.stats.bwd_rows == n
          and res_d.stats.fwd_rows == n and res_d.stats.bwd_rows == n)
    _report(capsys, 8, "op-count overhead", ok,
            f" (cache 2 fwd / 1 bwd per example, direct 1 / 1; "
            f"wall {ms_cache:.1f} ms vs {ms_direct:.1f} ms)")
    assert ok


def test_criterion_9_synthetic_trend(capsys):
    """More in-batch negatives help retrieval: cached full-batch training
    ranks at least as well as accumulation, which ranks at least as well
    as genuinely small batches; cached and direct agree exactly."""
    base = dict(n_pairs=1000, epochs=5, seed=0, embed_dim=16)
    res_cache = run_experiment(RunConfig(mode="cache", batch_size=128, **base))
    res_direct = run_experiment(RunConfig(mode="direct", batch_size=128, **base))
    res_accum = run_experiment(RunConfig(
        mode="accumulation", batch_size=128, sub_batch_s=8, **base
    ))
    res_seq = run_experiment(RunConfig(mode="sequential", batch_size=8, **base))

    h_cache = res_cache.hits[5]
    h_accum = res_accum.hits[5]
    h_seq = res_seq.hits[5]
    ordered = h_cache >= h_accum >= h_seq
    same_ranks = bool(np.array_equal(res_cache.ranks, res_direct.ranks))
    ok = ordered and same_ranks
    _report(capsys, 9, "synthetic retrieval trend", ok,
            f" (hit@5 cache {h_cache:.3f} >= accumulation {h_accum:.3f} "
            f">= sequential {h_seq:.3f}; cache ranks == direct {same_ranks})")
    assert ok
