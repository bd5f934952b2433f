import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitgrad import autodiff as ad
from splitgrad import deep, encoders, kernels, memtrace, multiworker, trainer
from splitgrad import loss as loss_mod
from splitgrad.autodiff import flat_max_rel_err
from splitgrad.kernels import TILE
from splitgrad.loss import Batch, direct_param_grads
from splitgrad.trainer import (
    CacheNotFilledError,
    TrainConfig,
    plan_subbatches,
    step1_graphless_forward,
    step2_build_cache,
    step3_accumulate,
    train_step_accumulation,
    train_step_cached,
    train_step_direct,
)


def _setup(seed=0, n_s=24, n_t=30, din=10, d=8):
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(n_s, din)), rng.normal(size=(n_t, din)),
                  rng.integers(0, n_t, size=n_s))
    pf = encoders.init_params(seed + 1, [din, 12, d])
    pg = encoders.init_params(seed + 2, [din, 12, d])
    return batch, pf, pg


def test_plan_covers_every_row_once():
    # each size is capped at its side's rows, so one sub-batch covers a
    # short side and a side with no rows has none
    plan = plan_subbatches(10, 7, 4, 3)
    assert (plan.sub_batch_s, plan.sub_batch_t, plan.runs_step3) == (4, 3,
                                                                     True)
    plan = plan_subbatches(3, 0, 4, 3)
    assert (plan.sub_batch_s, plan.sub_batch_t) == (3, 0)


def test_plan_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        plan_subbatches(4, 4, 0, 2)
    with pytest.raises(ValueError):
        plan_subbatches(4, 4, 2, -1)


def test_step1_output_independent_of_chunking():
    batch, pf, pg = _setup()
    ref_F, ref_G = step1_graphless_forward(
        batch, pf, pg, plan_subbatches(24, 30, 24, 30))
    for bs in (1, 5, 8, 13):
        F, G = step1_graphless_forward(
            batch, pf, pg, plan_subbatches(24, 30, bs, bs))
        assert np.array_equal(F, ref_F)
        assert np.array_equal(G, ref_G)


def test_step2_loss_equals_reference_loss_bitwise():
    batch, pf, pg = _setup()
    plan = plan_subbatches(24, 30, 8, 8)
    F, G = step1_graphless_forward(batch, pf, pg, plan)
    for tau in (1.0, 0.25, 0.05):
        cache, loss_value = step2_build_cache(F, G, batch.r, tau)
        ref = loss_mod.contrastive_loss(F, G, batch.r, tau)
        assert loss_value == ref.loss
        assert cache.filled
        assert cache.float_count == (24 + 30) * 8


def test_step2_cache_matches_analytic_gradients():
    batch, pf, pg = _setup()
    plan = plan_subbatches(24, 30, 8, 8)
    F, G = step1_graphless_forward(batch, pf, pg, plan)
    cache, _ = step2_build_cache(F, G, batch.r, 0.5)
    got = loss_mod.analytic_rep_grads(F, G, batch.r, 0.5)
    assert flat_max_rel_err([cache.u_rows, cache.v_rows],
                            [got.u, got.v]) < 1e-12


def test_cached_step2_is_one_kernel_call_and_a_tape_of_the_alignment_term(
        monkeypatch):
    # the kernel's dF and dG are the cache itself; step2's one tape holds
    # the two representation leaves and the alignment term's ops
    batch, pf, pg = _setup()
    outs, ops = [], []
    real_kernel, real_add_node = kernels.strip_logsumexp, ad.Tape.add_node

    def kernel_spy(*args):
        outs.append(real_kernel(*args))
        return outs[-1]

    def node_spy(self, op_kind, *rest):
        if getattr(memtrace.current_meter(), "_phase", None) == "step2":
            ops.append(op_kind)
        return real_add_node(self, op_kind, *rest)

    monkeypatch.setattr(kernels, "strip_logsumexp", kernel_spy)
    monkeypatch.setattr(ad.Tape, "add_node", node_spy)
    with memtrace.MemCounter().activate():
        train_step_cached(batch, pf, pg, encoders.init_optimizer("sgd", 1e-3),
                          TrainConfig(1.0, 8, 8))
    assert len(outs) == 1
    assert ops == ["leaf", "leaf", "index-rows", "mul", "matmul",
                   "scalar-mul", "add", "sum", "scalar-mul"]
    F, G = step1_graphless_forward(batch, pf, pg, plan_subbatches(24, 30, 8, 8))
    cache, _ = step2_build_cache(F, G, batch.r, 1.0)
    assert cache.u_rows is outs[-1][1] and cache.v_rows is outs[-1][2]


def test_single_chunk_step3_reproduces_direct_bitwise():
    batch, pf, pg = _setup()
    gf, gg, _ = direct_param_grads(batch, pf, pg, 0.7)
    plan = plan_subbatches(24, 30, 24, 30)
    F, G = step1_graphless_forward(batch, pf, pg, plan)
    cache, _ = step2_build_cache(F, G, batch.r, 0.7)
    cgf, cgg = step3_accumulate(batch, pf, pg, plan, cache)
    for a, b in zip(gf + gg, cgf + cgg):
        assert np.array_equal(a, b)


def test_sub_batch_sweep_matches_direct():
    batch, pf, pg = _setup()
    gf, gg, _ = direct_param_grads(batch, pf, pg, 0.7)
    for bs_s, bs_t in [(1, 1), (3, 5), (7, 9), (8, 8), (24, 1), (1, 30)]:
        plan = plan_subbatches(24, 30, bs_s, bs_t)
        F, G = step1_graphless_forward(batch, pf, pg, plan)
        cache, _ = step2_build_cache(F, G, batch.r, 0.7)
        cgf, cgg = step3_accumulate(batch, pf, pg, plan, cache)
        assert flat_max_rel_err(gf + gg, cgf + cgg) < 1e-9


def test_cache_is_single_use():
    batch, pf, pg = _setup()
    plan = plan_subbatches(24, 30, 8, 8)
    F, G = step1_graphless_forward(batch, pf, pg, plan)
    cache, _ = step2_build_cache(F, G, batch.r, 1.0)
    step3_accumulate(batch, pf, pg, plan, cache)
    with pytest.raises(CacheNotFilledError, match="consumed"):
        step3_accumulate(batch, pf, pg, plan, cache)


def test_unfilled_cache_rejected():
    batch, pf, pg = _setup()
    plan = plan_subbatches(24, 30, 8, 8)
    empty = trainer.RepresentationGradientCache(
        u_rows=np.zeros((24, 8)), v_rows=np.zeros((30, 8))
    )
    with pytest.raises(CacheNotFilledError):
        step3_accumulate(batch, pf, pg, plan, empty)


# ---------------------------------------------------------------------------
# full steps
# ---------------------------------------------------------------------------

def test_cached_step_matches_direct_step():
    batch, pf, pg = _setup()
    opt = encoders.init_optimizer("sgd", 1e-3)
    ref = train_step_direct(batch, pf, pg, opt, 0.7)
    res = train_step_cached(batch, pf, pg, opt, TrainConfig(0.7, 8, 8))
    assert res.loss == ref.loss
    assert flat_max_rel_err(
        encoders.param_arrays(ref.params_f) + encoders.param_arrays(ref.params_g),
        encoders.param_arrays(res.params_f) + encoders.param_arrays(res.params_g),
    ) < 1e-9


def test_cached_step_with_tied_encoders():
    rng = np.random.default_rng(4)
    p = encoders.init_params(5, [6, 8, 4])
    batch = Batch(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)),
                  np.arange(10))
    opt = encoders.init_optimizer("sgd", 1e-3)
    ref = train_step_direct(batch, p, p, opt, 1.0)
    res = train_step_cached(batch, p, p, opt, TrainConfig(1.0, 4, 4))
    assert res.params_f is res.params_g
    assert flat_max_rel_err(
        encoders.param_arrays(ref.params_f),
        encoders.param_arrays(res.params_f)) < 1e-9


def test_step_counters_cache_vs_direct():
    batch, pf, pg = _setup()
    opt = encoders.init_optimizer("sgd", 1e-3)
    n = batch.n_anchors + batch.n_targets
    res_c = train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, 8, 8))
    assert res_c.stats.fwd_rows == 2 * n
    assert res_c.stats.bwd_rows == n
    res_d = train_step_direct(batch, pf, pg, opt, 1.0)
    assert res_d.stats.fwd_rows == n
    assert res_d.stats.bwd_rows == n


def test_cache_floats_reported_exactly():
    batch, pf, pg = _setup()
    opt = encoders.init_optimizer("sgd", 1e-3)
    meter = memtrace.MemCounter()
    with meter.activate():
        res = train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, 8, 8))
    assert res.stats.cache_floats == (24 + 30) * 8


def test_activation_peak_independent_of_batch_size():
    """Same encoder and sub-batch size, growing batches: equal peaks."""
    peaks = []
    for n in (32, 64, 128):
        rng = np.random.default_rng(6)
        batch = Batch(rng.normal(size=(n, 10)), rng.normal(size=(n, 10)),
                      np.arange(n))
        pf = encoders.init_params(1, [10, 12, 8])
        pg = encoders.init_params(2, [10, 12, 8])
        opt = encoders.init_optimizer("sgd", 1e-3)
        meter = memtrace.MemCounter()
        with meter.activate():
            res = train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, 8, 8))
        peaks.append(res.stats.act_peak)
        assert res.stats.loss_phase_peak > 0
    assert peaks[0] == peaks[1] == peaks[2]


def _step3_peak(widths, n, b, keep_top=False):
    """The cached step's act_peak for n rows, sub-batch b and encoder
    widths with a linear top layer, or a sloped one if keep_top, were
    step3 to run in its sub-batches.

    Each encoder's step3 buffer holds its layer outputs below the top
    (and the top's, if kept), stacked, and after each layer's output
    that layer's scratch: the weight gradient, then the smaller bias
    gradient, then the gradient of the layer below (none below the first
    layer); a linear top's scratch starts after the output below it. A
    chunk of other than a multiple of TILE rows adds, while a layer's
    forward runs, the tiled matmul's zero-padded tail tile and its
    product; step3 skips a linear top's forward.
    """
    L = len(widths) - 1
    buf = max(b * sum(widths[1:k + (k < L or keep_top)])
              + max(widths[k - 1] * widths[k],
                    b * widths[k - 1] if k > 1 else 0)
              for k in range(1, L + 1))
    short = b % TILE or n % b % TILE
    tail = max((TILE * (widths[k - 1] + widths[k])
                for k in range(1, L + keep_top)), default=0)
    return buf + (tail if short else 0)


@pytest.mark.parametrize("widths,act,n,b", [
    ([24, 128, 128, 16], "tanh", 48, 16),
    ([24, 32, 16], "tanh", 64, 32),
    ([10, 20, 12, 6], "relu", 37, 8),  # every chunk is short of a tile
    ([4, 2, 8], "tanh", 70, 64),  # the last chunk holds 6 rows
    ([24, 32, 16], "linear", 64, 16),  # the slope is a copy of g
])
def test_step3_act_peak_holds_one_layer_of_parameter_gradients(widths, act,
                                                               n, b):
    rng = np.random.default_rng(11)
    batch = Batch(rng.normal(size=(n, widths[0])),
                  rng.normal(size=(n, widths[0])), rng.permutation(n))
    pf = encoders.init_params(1, widths, act)
    pg = encoders.init_params(2, widths, act)
    opt = encoders.init_optimizer("sgd", 1e-3)
    with memtrace.MemCounter().activate():
        res = train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, b, b))
    assert res.stats.act_peak == _step3_peak(widths, n, b)


@pytest.mark.parametrize("mode,n,b,widths,act_peak,loss_peak", [
    pytest.param("cache", 1024, 32, [24, 32, 16], 2048, 91136,
                 id="cache-b1024"),
    pytest.param("cache", 256, 16, [24, 128, 128, 16], 20480, 24832,
                 id="cache-wide-b256"),
    pytest.param("deep", 128, 16, [24, 32, 16], 1280, 9344, id="deep-b128"),
])
def test_benchmark_workload_shapes_keep_their_peaks(mode, n, b, widths,
                                                    act_peak, loss_peak):
    # one metered step at each shape of the step benchmark's workloads
    # (cache-b1024, cache-wide-b256, deep-b128 with a head 8 wide)
    rng = np.random.default_rng(5)
    batch = loss_mod.aligned_batch(rng.normal(size=(n, widths[0])),
                                   rng.normal(size=(n, widths[0])))
    pf = encoders.init_params(6, widths)
    pg = encoders.init_params(7, widths)
    opt = encoders.init_optimizer("adam", 1.5e-2)
    with memtrace.MemCounter().activate():
        if mode == "cache":
            res = train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, b, b))
        else:
            head = deep.init_distance_head(8, widths[-1], 8)
            res = deep.train_step_deep(batch, pf, pg, head, opt,
                                       deep.DeepConfig(1.0, b, b))
    assert (res.stats.act_peak, res.stats.loss_phase_peak) == (act_peak,
                                                               loss_peak)


@pytest.mark.parametrize("n,b,widths,rows", [
    (1024, 32, [24, 32, 16], 64),
    (256, 16, [24, 128, 128, 16], 80),  # 20480 of step3's 20480 floats
    (128, 16, [24, 32, 16], 32),
])
def test_step1_passes_fill_step3s_budget_at_the_benchmark_shapes(n, b,
                                                                 widths, rows):
    p = encoders.init_params(6, widths)
    assert trainer._side_plan(p, np.zeros((n, widths[0])), b)[0] == rows


@pytest.mark.parametrize("n,b,widths,rows", [
    pytest.param(1024, 32, [24, 32, 16], 32, id="cache-b1024"),
    # 12288 floats of outputs and two 64-row blocks of the 128 x 128
    # layer's weight gradient: 20480 of step3's 20480 floats for b
    pytest.param(256, 16, [24, 128, 128, 16], 48, id="cache-wide-b256"),
    pytest.param(128, 16, [24, 32, 16], 16, id="deep-b128"),
])
def test_step3_passes_fill_their_budget_at_the_benchmark_shapes(n, b, widths,
                                                                rows):
    # at 24-32-16 the input gradient binds, not the weight gradient, so
    # step3 keeps its sub-batches; its buffer is what it was for them
    p = encoders.init_params(6, widths)
    _, R, floats = trainer._side_plan(p, np.zeros((n, widths[0])), b)
    assert R == rows
    assert floats == _step3_peak(widths, n, b)


@pytest.mark.parametrize("widths,top,n,b,phase,heights", [
    # one pass covers every row: n rows, whole tiles, fit the budget
    ([24, 32, 16], "linear", 16, 3, "step3", [16]),
    ([24, 32, 16], "linear", 32, 5, "step1", [32]),
    ([4, 2, 8], "linear", 16, 3, "step3", [16]),
    # no layer costs step1 floats per row, and every candidate's
    # 32-float tail tile tops step3's 1-float budget but not step1's,
    # which holds the tail tile of its own 8-row sub-batches; step3 keeps
    # no output of a lone linear layer and runs no forward, so no row
    # costs it a float either, and it runs one pass too
    ([1, 1], "linear", 500, 8, "step1", [500]),
    ([1, 1], "linear", 500, 8, "step3", [500]),
])
def test_pass_plan_counts_the_rows_a_pass_holds(widths, top, n, b, phase,
                                                 heights):
    p = encoders.init_params(6, widths)
    p.activations[-1] = top
    step1, step3, _ = trainer._side_plan(p, np.zeros((n, widths[0])), b)
    R = step1 if phase == "step1" else step3
    assert [min(R, n - lo) for lo in range(0, n, R)] == heights


@pytest.mark.parametrize("n_s,n_t,searches", [(24, 30, 2), (24, 24, 1)])
def test_pass_plan_is_made_once_per_side_shape(n_s, n_t, searches):
    # two cached steps call the plan four times each: the search runs
    # once per side shape, and every other call reads its result
    batch, pf, pg = _setup(n_s=n_s, n_t=n_t)
    opt = encoders.init_optimizer("sgd", 1e-2)
    trainer._pass_plan.cache_clear()
    for _ in range(2):
        train_step_cached(batch, pf, pg, opt, TrainConfig(1.0, 8, 8))
    info = trainer._pass_plan.cache_info()
    assert (info.misses, info.hits) == (searches, 8 - searches)


@pytest.mark.parametrize("act", ["tanh", "relu"])
def test_encoder_passes_keep_their_bits_at_any_ufunc_buffer(monkeypatch,
                                                           act):
    # step1's and step3's loops run at kernels.PASS_BUFSIZE's ufunc
    # buffer, which bounds each bias add's: at numpy's default buffer and
    # at 16 elements the representations, the cache and the gradients of
    # 80-row step1 and 48-row step3 passes keep their bits, and the
    # caller's buffer size is given back
    n, widths, b = 64, [24, 128, 128, 16], 16
    rng = np.random.default_rng(8)
    batch = loss_mod.aligned_batch(rng.normal(size=(n, widths[0])),
                                   rng.normal(size=(n, widths[0])))
    pf = encoders.init_params(1, widths, act)
    pg = encoders.init_params(2, widths, act)
    plan = plan_subbatches(n, n, b, b)

    def bits():
        F, G = step1_graphless_forward(batch, pf, pg, plan)
        cache, _ = step2_build_cache(F, G, batch.r, 1.0)
        out = [F, G, cache.u_rows, cache.v_rows]
        out += sum(step3_accumulate(batch, pf, pg, plan, cache), [])
        return [a.tobytes() for a in out]

    want = bits()
    for size in (kernels.UFUNC_BUFSIZE, 16):
        monkeypatch.setattr(kernels, "PASS_BUFSIZE", size)
        assert bits() == want, size
    with np.errstate():
        np.setbufsize(32)
        bits()
        assert np.getbufsize() == 32


def _peaks(step):
    # step's result and its meter's activation peak by window
    c = memtrace.MemCounter()
    with c.activate():
        res = step()
    return res, {name: c.phase_peak(name) for name in c.phase_peaks}


@st.composite
def _row_budget_cases(draw):
    widths = ([draw(st.integers(1, 12))]
              + draw(st.lists(st.integers(1, 40), max_size=3))
              + [draw(st.integers(1, 10))])
    sizes = st.sampled_from((1, 3, 8, 16, 17, 32, 48))
    return dict(
        mode=draw(st.sampled_from(("cache", "deep", "frozen"))),
        widths=widths,
        acts=[draw(st.sampled_from(kernels.ACTIVATIONS)) for _ in widths[1:]],
        n_s=draw(st.integers(1, 70)), n_t=draw(st.integers(1, 70)),
        bs_s=draw(sizes), bs_t=draw(sizes),
        seed=draw(st.integers(0, 2**16)),
    )


def _sub_batch_plan(params, rows, b):
    # the plan of a step that runs both phases in its sub-batches
    widths = ad.encoder_widths(rows.shape, params.arrays)
    return b, b, ad.encoder_floats(
        b, widths, params.activations[-1] != "linear")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_row_budget_cases())
# a linear top's tail tile is step1's alone: counted in step3's budget it
# would admit 16-row passes whose tail tops step3's peak
@example(dict(mode="cache", widths=[4, 2, 8], acts=["tanh", "linear"],
              n_s=70, n_t=70, bs_s=8, bs_t=8, seed=0))
# one pass covers every row and holds n rows, not a multiple of b: step3
# runs one 16-row pass at b = 3, step1 one 32-row pass at b = 5, and at
# 4-2-8 the act peak falls below the sub-batches' (118 against 166)
@example(dict(mode="cache", widths=[24, 32, 16], acts=["tanh", "linear"],
              n_s=16, n_t=16, bs_s=3, bs_t=3, seed=0))
@example(dict(mode="deep", widths=[24, 32, 16], acts=["tanh", "linear"],
              n_s=32, n_t=32, bs_s=5, bs_t=5, seed=0))
@example(dict(mode="cache", widths=[4, 2, 8], acts=["tanh", "linear"],
              n_s=16, n_t=16, bs_s=3, bs_t=3, seed=0))
# a single linear layer: every step1 candidate's tail tile tops step3's
# budget, but not the sub-batches' own step1 floats, which hold one too:
# step1 runs one 500-row pass at the sub-batches' peak
@example(dict(mode="cache", widths=[1, 1], acts=["linear"],
              n_s=500, n_t=500, bs_s=8, bs_t=8, seed=0))
def test_step1_passes_stay_within_step3s_peak(case):
    # step1 and step3 run more rows per pass than a sub-batch only where
    # their buffers and tail tiles fit in step3's for the sub-batch:
    # against the same step run in the sub-batches, the step's act_peak
    # never rises, step3's peak stays the sub-batches' (_step3_peak), F
    # and G and the loss are bitwise the same, the parameters stay within
    # 1e-9 of direct, and a step with no step3 keeps step1 as it was.
    # Cases draw widths, activations (a sloped top included), ragged n,
    # and sub-batches short of a tile or beyond n
    rng = np.random.default_rng(case["seed"])
    widths, n_s, n_t = case["widths"], case["n_s"], case["n_t"]
    batch = Batch(rng.normal(size=(n_s, widths[0])),
                  rng.normal(size=(n_t, widths[0])),
                  rng.integers(0, n_t, size=n_s))
    pf = encoders.init_params(case["seed"] + 1, widths)
    pg = encoders.init_params(case["seed"] + 2, widths)
    pf.activations = pg.activations = list(case["acts"])
    bs_s, bs_t, mode = case["bs_s"], case["bs_t"], case["mode"]
    opt = encoders.init_optimizer("sgd", 1.0)
    head = deep.init_distance_head(case["seed"] + 3, widths[-1], 4)

    def step():
        if mode == "cache":
            return train_step_cached(batch, pf, pg, opt,
                                     TrainConfig(1.0, bs_s, bs_t))
        return deep.train_step_deep(
            batch, pf, pg, head, opt,
            deep.DeepConfig(1.0, bs_s, bs_t, mode == "deep"))

    res, peaks = _peaks(step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_side_plan", _sub_batch_plan)
        ref_res, ref_peaks = _peaks(step)
    assert res.loss == ref_res.loss
    assert res.stats.act_peak <= ref_res.stats.act_peak
    if mode == "frozen":
        assert "step3" not in peaks
        assert peaks == ref_peaks
    else:
        keep_top = case["acts"][-1] != "linear"
        assert peaks["step3"] == ref_peaks["step3"] == max(
            _step3_peak(widths, n, min(b, n), keep_top)
            for n, b in ((n_s, bs_s), (n_t, bs_t)))
        assert peaks["step1"] <= max(peaks["step3"], ref_peaks["step1"])
        if ref_peaks["step1"] <= peaks["step3"]:
            assert res.stats.act_peak == ref_res.stats.act_peak
        old = encoders.param_arrays(pf) + encoders.param_arrays(pg)
        new = (encoders.param_arrays(res.params_f)
               + encoders.param_arrays(res.params_g))
        if mode == "cache":
            gf, gg = direct_param_grads(batch, pf, pg, 1.0)[:2]
        else:
            gf, gg = deep.deep_direct_grads(batch, pf, pg, head, 1.0)[:2]
        want = [a - g for a, g in zip(old, gf + gg)]
        assert flat_max_rel_err(want, new) <= 1e-9
    plan = plan_subbatches(n_s, n_t, bs_s, bs_t)
    F, G = step1_graphless_forward(batch, pf, pg, plan)
    for p, rows, b, got in ((pf, batch.anchors, plan.sub_batch_s, F),
                            (pg, batch.targets, plan.sub_batch_t, G)):
        want = encoders.forward_rows(p, rows, b, np.empty(got.shape))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("acts", [("tanh", "tanh", "linear"),
                                  ("relu", "relu", "linear"),
                                  ("tanh", "relu", "tanh")],
                         ids=["tanh", "relu", "sloped-top"])
def test_step3_chunks_equal_the_taped_encoder_node_bitwise(acts):
    # one encoder loop, two callers: step3's passes run the encoder node's
    # forward and VJP with no tape in one buffer, and must add into the
    # accumulators exactly what encode_graph and Tape.backward give the
    # leaves from the same seed rows, added into zeroed accumulators in
    # the same order, by the test or, with preset leaf buffers, by
    # backward itself; the second pass is ragged. A sloped top's output
    # is kept by step3 and saved as a copy by the node, whose VJP writes
    # its slope product there: the node's output stays as it was
    rng = np.random.default_rng(12)
    p = encoders.init_params(3, [10, 20, 12, 6])
    p.activations = list(acts)
    rows = rng.normal(size=(21, 10))
    seed = rng.normal(size=(21, 6))
    seed0 = seed.copy()
    arrays = encoders.param_arrays(p)
    widths = ad.encoder_widths(rows.shape, arrays)
    keep_top = acts[-1] != "linear"
    untaped = [np.zeros_like(a) for a in arrays]
    encoders.accumulate_rows(p, rows, 16,
                             ad.encoder_floats(16, widths, keep_top), seed,
                             untaped)
    for preset in (False, True):
        taped = [np.zeros_like(a) for a in arrays]
        for lo, hi in [(0, 16), (16, 21)]:
            tape = ad.Tape()
            leaves = [tape.leaf(a, acc if preset else None)
                      for a, acc in zip(arrays, taped)]
            with ad.recording(tape):
                out = encoders.encode_graph(
                    encoders.params_from_arrays(p, leaves),
                    ad.constant(rows[lo:hi]))
            out0 = out.data.copy()
            tape.backward(out, seed[lo:hi])
            assert out.data.tobytes() == out0.tobytes()
            for acc, leaf in zip(taped, leaves):
                if preset:
                    assert tape.grad(leaf) is acc
                else:
                    acc += tape.grad(leaf)
        assert np.array_equal(seed, seed0)
        for a, r in zip(untaped, taped):
            assert a.tobytes() == r.tobytes()
    # and the same as the leaf gradients of one taped pass, for one pass
    first = [np.zeros_like(a) for a in arrays]
    encoders.accumulate_rows(p, rows, 21,
                             ad.encoder_floats(21, widths, keep_top), seed,
                             first)
    tape = ad.Tape()
    with ad.recording(tape):
        leaves = encoders.make_leaves(p)
        out = encoders.encode_graph(leaves, ad.constant(rows))
    assert out.data.tobytes() == encoders.encode(p, rows).tobytes()
    tape.backward(out, seed)
    assert out.data.tobytes() == encoders.encode(p, rows).tobytes()
    for a, r in zip(first, encoders.leaf_grads(tape, leaves)):
        assert np.array_equal(a, r)


BAD_TAUS = (float("nan"), 0.0, 1e-310, -1.0, float("inf"))


def _run_step(kind, batch, pf, pg, opt, tau, group):
    if kind == "cached":
        return train_step_cached(batch, pf, pg, opt, TrainConfig(tau, 8, 8))
    if kind == "direct":
        return train_step_direct(batch, pf, pg, opt, tau)
    if kind == "accumulation":
        return train_step_accumulation(batch, pf, pg, opt, 8, tau)
    if kind == "deep":
        head = deep.init_distance_head(3, 8, 4)
        return deep.train_step_deep(batch, pf, pg, head, opt,
                                    deep.DeepConfig(tau, 8, 8))
    return multiworker.train_step_multi(group, batch, TrainConfig(tau, 8, 8))


@pytest.mark.parametrize("tau", BAD_TAUS)
@pytest.mark.parametrize(
    "kind", ["cached", "direct", "accumulation", "deep", "multi"])
def test_every_step_rejects_an_unusable_temperature(kind, tau):
    batch, pf, pg = _setup(n_s=24, n_t=24)
    batch = Batch(batch.anchors, batch.targets, np.arange(24))
    opt = encoders.init_optimizer("sgd", 1e-3)
    group = multiworker.WorkerGroup(2, pf, pg, opt)
    meter = memtrace.MemCounter()
    with meter.activate():
        _run_step(kind, batch, pf, pg, opt, 1.0, group)
        phases = meter.report()
        counts = trainer.counter_snapshot()
        replica = group.params_f[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="temperature must be"):
                _run_step(kind, batch, pf, pg, opt, tau, group)
    # rejected before the step touched the meter, the counters or the
    # worker group
    assert meter.report() == phases
    assert trainer.counter_snapshot() == counts
    assert group.exchange_log == (["all_gather", "reduce"]
                                  if kind == "multi" else [])
    assert group.params_f[0] is replica


# ---------------------------------------------------------------------------
# gradient accumulation baseline
# ---------------------------------------------------------------------------

def test_accumulation_differs_from_direct_on_random_batch():
    rng = np.random.default_rng(7)
    batch = Batch(rng.normal(size=(32, 10)), rng.normal(size=(32, 10)),
                  np.arange(32))
    pf = encoders.init_params(1, [10, 12, 8])
    pg = encoders.init_params(2, [10, 12, 8])
    gf, gg, _ = direct_param_grads(batch, pf, pg, 1.0)
    opt = encoders.init_optimizer("sgd", 1.0)
    res = train_step_accumulation(batch, pf, pg, opt, 8, 1.0)
    # recover summed chunk gradients from the unit-lr sgd update
    acc = [p - q for p, q in zip(
        encoders.param_arrays(pf) + encoders.param_arrays(pg),
        encoders.param_arrays(res.params_f) + encoders.param_arrays(res.params_g))]
    assert flat_max_rel_err(gf + gg, acc) > 1e-3


def test_accumulation_with_full_chunk_is_direct_bitwise():
    batch, pf, pg = _setup(n_s=16, n_t=16)
    batch = Batch(batch.anchors, batch.targets, np.arange(16))
    opt = encoders.init_optimizer("adam", 1e-3)
    a = train_step_accumulation(batch, pf, pg, opt, 16, 1.0)
    b = train_step_direct(batch, pf, pg, opt, 1.0)
    assert a.loss == b.loss
    for x, y in zip(encoders.param_arrays(a.params_f),
                    encoders.param_arrays(b.params_f)):
        assert np.array_equal(x, y)


def test_accumulation_loss_is_mean_of_chunk_losses():
    rng = np.random.default_rng(8)
    batch = Batch(rng.normal(size=(12, 6)), rng.normal(size=(12, 6)),
                  np.arange(12))
    pf = encoders.init_params(1, [6, 5, 4])
    pg = encoders.init_params(2, [6, 5, 4])
    opt = encoders.init_optimizer("sgd", 1e-3)
    res = train_step_accumulation(batch, pf, pg, opt, 4, 1.0)
    chunk_losses = []
    for lo in (0, 4, 8):
        sub = Batch(batch.anchors[lo:lo + 4], batch.targets[lo:lo + 4],
                    np.arange(4))
        chunk_losses.append(loss_mod.contrastive_loss(
            encoders.encode(pf, sub.anchors),
            encoders.encode(pg, sub.targets), sub.r, 1.0).loss)
    assert res.loss == float(np.mean(chunk_losses))


def test_accumulation_rejects_positive_outside_chunk():
    rng = np.random.default_rng(9)
    batch = Batch(rng.normal(size=(8, 4)), rng.normal(size=(8, 4)),
                  np.full(8, 7))
    pf = encoders.init_params(1, [4, 3])
    pg = encoders.init_params(2, [4, 3])
    opt = encoders.init_optimizer("sgd", 1e-3)
    with pytest.raises(ValueError, match="outside its target range"):
        train_step_accumulation(batch, pf, pg, opt, 4, 1.0)
