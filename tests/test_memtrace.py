import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import encoders, kernels, trainer
from splitgrad.autodiff import Tape
from splitgrad.loss import (
    aligned_batch,
    direct_param_grads,
    loss_graph_from_reps,
)
from splitgrad.memtrace import (
    BudgetExceededError,
    CATEGORIES,
    MemAccountingError,
    MemCounter,
    current_meter,
    register,
    use_meter,
)


def test_categories_fixed():
    assert CATEGORIES == (
        "activation", "representation-store", "gradient-cache", "parameters"
    )


def test_alloc_release_updates_live_and_peak():
    c = MemCounter()
    c.track_alloc("activation", 30)
    arr = c.register_array(np.zeros(120), "activation")
    assert c.live["activation"] == 150
    assert c.peak["activation"] == 150
    del arr
    gc.collect()
    assert c.live["activation"] == 30
    assert c.peak["activation"] == 150
    c.track_alloc("gradient-cache", 7)
    assert c.peak["gradient-cache"] == 7
    assert c.peak["activation"] == 150


def test_unknown_category_rejected():
    c = MemCounter()
    with pytest.raises(MemAccountingError):
        c.track_alloc("scratch", 1)


def test_register_array_releases_on_garbage_collection():
    c = MemCounter()
    arr = np.zeros((10, 10))
    c.register_array(arr, "activation")
    assert c.live["activation"] == 100
    del arr
    gc.collect()
    assert c.live["activation"] == 0
    assert c.peak["activation"] == 100


def test_budget_enforced_on_activation_only():
    c = MemCounter(activation_budget=10)
    c.track_alloc("representation-store", 1000)
    arr = c.register_array(np.zeros(10), "activation")
    with pytest.raises(BudgetExceededError,
                       match="exceed budget 10 outside any phase"):
        c.track_alloc("activation", 1)
    # the failed alloc left nothing live; the message names the phase
    # that was open
    del arr
    gc.collect()
    with pytest.raises(BudgetExceededError, match="in phase 'step2'"):
        with c.phase("step2"):
            c.track_alloc("activation", 11)


def test_array_over_the_budget_leaves_no_floats_live():
    c = MemCounter(activation_budget=10)
    with use_meter(c):
        with pytest.raises(BudgetExceededError, match="floats 20 exceed"):
            register(np.zeros(20))
    gc.collect()
    assert c.live["activation"] == 0
    assert c.peak["activation"] == 0


def test_phase_windows_track_local_peaks():
    c = MemCounter()
    keep = np.zeros(40)
    c.register_array(keep, "activation")
    with c.phase("one"):
        a = np.zeros(60)
        c.register_array(a, "activation")
        del a
        gc.collect()
    with c.phase("two"):
        b = np.zeros(10)
        c.register_array(b, "activation")
        del b
        gc.collect()
    assert c.phase_peak("one") == 100
    assert c.phase_peak("two") == 50
    assert c.peak["activation"] == 100


def test_phase_reentry_merges_by_max():
    c = MemCounter()
    with c.phase("p"):
        a = np.zeros(30)
        c.register_array(a, "activation")
        del a
        gc.collect()
    with c.phase("p"):
        b = np.zeros(12)
        c.register_array(b, "activation")
        del b
        gc.collect()
    assert c.phase_peak("p") == 30


def test_phase_nesting_rejected():
    c = MemCounter()
    with pytest.raises(MemAccountingError):
        with c.phase("outer"):
            with c.phase("inner"):
                pass


def test_begin_step_clears_phase_peaks_not_category_peaks():
    c = MemCounter()
    with c.phase("p"):
        arr = c.register_array(np.zeros(9), "activation")
        del arr
        gc.collect()
    c.begin_step()
    assert c.phase_peak("p") == 0
    assert c.peak["activation"] == 9


def test_meter_stack_nests_and_restores_on_exit():
    outer, inner = MemCounter(), MemCounter()
    with use_meter(outer):
        with use_meter(inner):
            assert current_meter() is inner
        assert current_meter() is outer
        with pytest.raises(RuntimeError, match="boom"):
            with use_meter(inner):
                raise RuntimeError("boom")
        assert current_meter() is outer
    assert current_meter() is None


def test_register_noop_without_meter():
    arr = register(np.zeros(5))
    assert arr.shape == (5,)


def test_register_uses_active_meter():
    c = MemCounter()
    with use_meter(c):
        arr = register(np.zeros(8))
        kept = register(np.zeros(3), "gradient-cache")
    assert c.peak["activation"] == 8
    assert c.live["gradient-cache"] == 3
    del arr, kept
    gc.collect()
    assert c.live["activation"] == 0
    assert c.live["gradient-cache"] == 0


def test_report_lists_all_categories():
    c = MemCounter()
    c.track_alloc("parameters", 3)
    rep = c.report()
    assert set(rep["live"]) == set(CATEGORIES)
    assert set(rep["peak"]) == set(CATEGORIES)
    assert rep["peak"]["parameters"] == 3
    assert rep["peak"]["activation"] == 0



# ---------------------------------------------------------------------------
# who counts what: every array is registered one by one, the cached
# step's encoder buffers included
# ---------------------------------------------------------------------------

def _small_graph(tape):
    """x (4x3) and w (3x5) leaves; s = sum(h * h), h = tanh(x @ w + b).

    Each array is registered on its own and counted until it is freed:
    the caller's h and s (21 floats), and the copy of h that the encoder
    node saves for its VJP to write its slope product over (20), since
    h's own array is never written. h * h (20) is freed as soon as the
    sum is made: the sum's VJP reads only its shape.
    """
    rng = np.random.default_rng(4)
    x = tape.leaf(rng.normal(size=(4, 3)))
    w = tape.leaf(rng.normal(size=(3, 5)))
    with ad.recording(tape):
        h = ad.record("encoder", x, w, np.zeros(5), acts=("tanh",))
        s = ad.sum_all(ad.mul(h, h))
    return x, w, h, s


def test_freed_tape_returns_live_activation_floats():
    c = MemCounter()
    with use_meter(c):
        kept = register(np.zeros(7))
        before = c.live["activation"]
        tape = Tape()
        x, w, h, s = _small_graph(tape)
        assert c.live["activation"] == before + 21 + 20
        h0, enc, mul, top = h.data.copy(), h.index, h.index + 1, s.index
        # with the caller's Tensors dropped the tape holds only what a
        # VJP will read: h, in the mul node's context, and the copy
        del h, s
        assert c.live["activation"] == before + 20 + 20
        live = {}
        for k in (top, mul, enc):
            def spy(ctx, g, taped, vjp=tape.nodes[k].vjp, k=k):
                live[k] = c.live["activation"]
                return vjp(ctx, g, taped)

            tape.nodes[k].vjp = spy
        tape.backward(top)
        # as each VJP starts: the seed (1) is added; then the gradient of
        # h * h (20); then h's gradient (20), while h itself was freed
        # with the mul node's context, before the encoder's VJP ran
        assert live == {top: before + 40 + 1, mul: before + 40 + 21,
                        enc: before + 20 + 41}
        # the copy went with the encoder's context; the gradients stay:
        # the seed, those of h * h and of h, and the leaves' (12 and 15)
        assert c.live["activation"] == before + 41 + 12 + 15
        assert [n.ctx for n in tape.nodes if n.vjp is not None] == [None] * 3
        # an interior node's gradient outlives its VJP
        assert np.array_equal(tape.grad(mul), np.ones((4, 5)))
        assert np.array_equal(tape.grad(enc), 2 * h0)
        del tape, x, w
        assert c.live["activation"] == before
    assert kept.size == 7


def test_leaf_gradients_of_direct_param_grads_stay_counted_until_freed():
    rng = np.random.default_rng(5)
    batch = aligned_batch(rng.normal(size=(12, 6)), rng.normal(size=(12, 6)))
    pf = encoders.init_params(1, [6, 9, 4])
    pg = encoders.init_params(2, [6, 9, 4])
    c = MemCounter()
    with use_meter(c):
        gf, gg, _ = direct_param_grads(batch, pf, pg, 1.0)
        # the tape is gone; the gradients it returned are not
        assert c.live["activation"] == 2 * encoders.total_floats(pf)
        del gf
        assert c.live["activation"] == encoders.total_floats(pg)
        del gg
    assert c.live["activation"] == 0


def test_encoder_node_backward_holds_one_buffer_and_no_copies():
    # the encoder node's VJP writes each slope product over the output
    # its forward saved and every other product into one shared scratch,
    # and returns its parameter gradients as made: the peak is what the
    # tape holds plus that scratch, and once backward has registered the
    # gradients the scratch and the saved outputs are gone. The scratch
    # is the largest of the weight gradients (200, 240 and 72 floats) and
    # the input gradients of layers 2 and 3 (32 x 20 and 32 x 12); the
    # first layer's input is a constant and gets none
    rng = np.random.default_rng(7)
    widths = [10, 20, 12, 6]
    p = encoders.init_params(3, widths, "relu")
    c = MemCounter()
    with use_meter(c):
        tape = Tape()
        with ad.recording(tape):
            leaves = encoders.make_leaves(p)
            out = encoders.encode_graph(leaves, ad.constant(
                rng.normal(size=(32, 10))))
        assert c.live["activation"] == 32 * (20 + 12 + 6)
        # no VJP reads a linear top's output: the caller's Tensor was its
        # one holder, and the tape keeps the two hidden outputs
        idx = out.index
        del out
        held = c.live["activation"]
        assert held == 32 * (20 + 12)
        tape.backward(idx, rng.normal(size=(32, 6)))
        assert c.peak["activation"] == held + 32 * 20
        assert c.live["activation"] == encoders.total_floats(p)
    del tape, leaves
    assert c.live["activation"] == 0


def test_encode_holds_two_hidden_layers_at_most():
    # the graph-less encode puts the layers below the top in turn into
    # the two halves of one buffer, each as wide as the widest layer it
    # takes (the first and third, 20 and 16 wide, and the second, 12),
    # and the result is counted while it lives
    rng = np.random.default_rng(8)
    p = encoders.init_params(3, [10, 20, 12, 16, 6])
    c = MemCounter()
    with use_meter(c):
        y = encoders.encode(p, rng.normal(size=(16, 10)))
        assert c.peak["activation"] == 16 * (20 + 12 + 6) == 608
        assert c.live["activation"] == y.size
        del y
    assert c.live["activation"] == 0


def test_budget_trips_in_the_encoder_pass_and_names_the_phase():
    # step3 registers one buffer per encoder before its first chunk, and
    # at this shape, with no chunk short of a tile, that buffer is the
    # phase's peak: a budget one float below it must stop the step at the
    # registration, before any encoder pass runs, and leave nothing live
    rng = np.random.default_rng(6)
    batch = aligned_batch(rng.normal(size=(32, 10)),
                          rng.normal(size=(32, 10)))
    pf = encoders.init_params(1, [10, 64, 64, 8])
    pg = encoders.init_params(2, [10, 64, 64, 8])
    opt = encoders.init_optimizer("sgd", 1e-3)
    cfg = trainer.TrainConfig(1.0, 16, 16)
    c = MemCounter()
    with use_meter(c):
        trainer.train_step_cached(batch, pf, pg, opt, cfg)
    peak = c.phase_peak("step3")
    assert peak > max(c.phase_peak("step1"), c.phase_peak("step2"))
    failing = MemCounter(activation_budget=peak - 1)
    with use_meter(failing):
        with pytest.raises(BudgetExceededError,
                           match=f"floats {peak} exceed budget {peak - 1} "
                                 f"in phase 'step3'") as info:
            trainer.train_step_cached(batch, pf, pg, opt, cfg)
    names = {e.name for e in info.traceback}
    assert {"accumulate_rows", "register_array", "track_alloc"} <= names
    assert not {"encoder_forward", "encoder_vjp", "backward"} & names
    del info
    gc.collect()
    assert failing.live == dict.fromkeys(CATEGORIES, 0)


@pytest.mark.parametrize("phase", ["step1", "step3"])
def test_budget_error_in_the_encoder_pass_leaves_no_floats_live(phase):
    # the encoder buffers and the tiled matmul's tail tiles are
    # registered: when the budget stops the pass, nothing it counted may
    # stay live
    rng = np.random.default_rng(6)
    batch = aligned_batch(rng.normal(size=(16, 10)),
                          rng.normal(size=(16, 10)))
    pf = encoders.init_params(1, [10, 64, 64, 8])
    pg = encoders.init_params(2, [10, 64, 64, 8])
    opt = encoders.init_optimizer("sgd", 1e-3)
    cfg = trainer.TrainConfig(1.0, 8, 8)
    c = MemCounter()
    with use_meter(c):
        trainer.train_step_cached(batch, pf, pg, opt, cfg)
    failing = MemCounter(activation_budget=c.phase_peak(phase) - 1)
    with use_meter(failing):
        with pytest.raises(BudgetExceededError, match=f"phase '{phase}'"):
            trainer.train_step_cached(batch, pf, pg, opt, cfg)
    gc.collect()
    assert failing.live == dict.fromkeys(CATEGORIES, 0)


@pytest.mark.parametrize("mode", ["direct", "cache"])
def test_budget_error_in_a_taped_step_leaves_no_floats_live(mode):
    # a tape's arrays are registered one by one: once the error, and
    # with it the tape, is dropped, none may stay counted. At this shape
    # the cached step's peak, and so its trip, is in step2's alignment
    # tape
    rng = np.random.default_rng(6)
    batch = aligned_batch(rng.normal(size=(16, 10)),
                          rng.normal(size=(16, 10)))
    pf = encoders.init_params(1, [10, 12, 32])
    pg = encoders.init_params(2, [10, 12, 32])
    opt = encoders.init_optimizer("sgd", 1e-3)
    if mode == "direct":
        phase = "direct"

        def step():
            trainer.train_step_direct(batch, pf, pg, opt)
    else:
        phase = "step2"
        cfg = trainer.TrainConfig(1.0, 8, 8)

        def step():
            trainer.train_step_cached(batch, pf, pg, opt, cfg)
    c = MemCounter()
    with use_meter(c):
        step()
    failing = MemCounter(activation_budget=c.phase_peak(phase) - 1)
    with use_meter(failing):
        with pytest.raises(BudgetExceededError,
                           match=f"phase '{phase}'") as info:
            step()
    assert "backward" in {e.name for e in info.traceback}
    del info
    gc.collect()
    assert failing.live == dict.fromkeys(CATEGORIES, 0)


def test_cached_step_makes_the_derived_per_array_registrations(monkeypatch):
    # the cache-wide shape: batch 256, encoders 24-128-128-16, sub-batch 16
    n, dims, b = 256, [24, 128, 128, 16], 16
    layers = len(dims) - 1
    rng = np.random.default_rng(7)
    batch = aligned_batch(rng.normal(size=(n, dims[0])),
                          rng.normal(size=(n, dims[0])))
    pf = encoders.init_params(1, dims)
    pg = encoders.init_params(2, dims)
    seen = Counter()
    real = MemCounter.register_array

    def spy(self, arr, category):
        seen[self._phase, category] += 1
        return real(self, arr, category)

    monkeypatch.setattr(MemCounter, "register_array", spy)
    with use_meter(MemCounter()):
        trainer.train_step_cached(batch, pf, pg,
                                  encoders.init_optimizer("adam", 1e-3),
                                  trainer.TrainConfig(1.0, b, b))
    expected = {
        # the two stores, and one buffer per encoder for the layers below
        # the top
        ("step1", "representation-store"): 2,
        ("step1", "activation"): 2,
        # strip_logsumexp's strip and product buffers, G transposed and
        # lse (its dF and dG are the cache); the alignment tape's 7 op
        # outputs; its backward's 9 gradients: the all-ones seed, 6 stored
        # and 2 added into the leaves' buffers
        ("step2", "activation"): 4 + 7 + 9,
        ("step2", "gradient-cache"): 2,
        # the transpose of the ones column that the alignment tape's
        # matmul VJP multiplies by
        ("step2", "parameters"): 1,
        # one accumulator per parameter array, one transpose per weight
        # above the first, and one buffer per encoder for both halves of
        # its passes
        ("step3", "parameters"): 2 * 2 * layers + 2 * (layers - 1),
        ("step3", "activation"): 2,
    }
    assert dict(seen) == expected
    assert sum(expected.values()) == 45


def _traced_peak(fn):
    """fn's result and the peak, in floats, that tracemalloc saw while it
    ran, above what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - base) / 8
    finally:
        tracemalloc.stop()


def _floats_the_meter_misses(act):
    """tracemalloc's peak in each phase of a cached step, in floats, above
    the meter's.

    The cache-wide encoder shape at 128 rows, sub-batch 16, so no chunk is
    ragged. The meter's peak of a phase is its activation peak plus the
    arrays of other categories that the phase makes first and holds to
    its end: step1's stores, step2's gradient cache, step3's
    accumulators, and the weight transposes of the side that is running,
    which both sides' encoders make alike. tracemalloc also sees Python
    objects and numpy's iteration buffers.
    """
    n, dims, b = 128, [24, 128, 128, 16], 16
    rng = np.random.default_rng(9)
    batch = aligned_batch(rng.normal(size=(n, dims[0])),
                          rng.normal(size=(n, dims[0])))
    pf = encoders.init_params(1, dims, act)
    pg = encoders.init_params(2, dims, act)
    plan = trainer.plan_subbatches(n, n, b, b)
    c = MemCounter()
    with use_meter(c):
        (F, G), step1 = _traced_peak(
            lambda: trainer.step1_graphless_forward(batch, pf, pg, plan))
        (cache, _), step2 = _traced_peak(
            lambda: trainer.step2_build_cache(F, G, batch.r, 1.0))
        assert c.live["activation"] == 0
        grads, step3 = _traced_peak(
            lambda: trainer.step3_accumulate(batch, pf, pg, plan, cache))
    return {
        "step1": step1 - c.phase_peak("step1") - F.size - G.size,
        "step2": step2 - c.phase_peak("step2") - cache.float_count,
        "step3": step3 - c.phase_peak("step3")
        - sum(g.size for g in grads[0] + grads[1])
        - sum(w.size for w, _ in pf.layers[1:]),
    }


def _alignment_floats_the_meter_misses(n_t):
    # 64 anchors, n_t targets 64 wide: the alignment tape's backward sets
    # step2's peak (see test_alignment_tape_peak_takes_the_larger_side),
    # above the strip kernel's 1344 floats, or 10304 at 64 targets. It
    # also shows a mul VJP that holds y beside both its products: the
    # meter, counting them from the VJP's return, would miss n_s x d
    # floats. With 8 targets the positives repeat; with 64 they are a
    # permutation, as in every aligned batch, so an unregistered copy of
    # the scattered rows shows
    rng = np.random.default_rng(10)
    F, G = rng.normal(size=(64, 64)), rng.normal(size=(n_t, 64))
    r = rng.integers(0, 8, size=64) if n_t == 8 else rng.permutation(n_t)
    c = MemCounter()
    with use_meter(c):
        (_, dF, dG), seen = _traced_peak(
            lambda: loss_graph_from_reps(F, G, r, 1.0))
    assert c.peak["activation"] == 12547
    return seen - c.peak["activation"] - dF.size - dG.size


@pytest.mark.parametrize("n_s, n_t, d, peak", [(64, 8, 64, 12547),
                                              (48, 64, 64, 10435)])
def test_alignment_tape_peak_takes_the_larger_side(n_s, n_t, d, peak):
    # the alignment tape's backward holds F * G[r]'s gradient, four n_s
    # columns and three scalars, and on top either the mul VJP's two
    # n_s x d results, live together until F's is added into dF, or
    # G[r]'s gradient and the n_t x d scatter the index-rows VJP makes of
    # it: the larger side sets the last d-wide term, and the tape, not
    # the strip kernel, sets step2's peak. F * G[r] is gone by then,
    # freed with the ones-matmul node's context, and G[r] goes as soon as
    # the mul VJP has formed its product with it
    rng = np.random.default_rng(10)
    F, G = rng.normal(size=(n_s, d)), rng.normal(size=(n_t, d))
    r = rng.integers(0, n_t, size=n_s)
    c = MemCounter()
    with use_meter(c):
        loss_graph_from_reps(F, G, r, 1.0)
    assert c.peak["activation"] == peak == (
        2 * n_s * d + max(n_s, n_t) * d + 4 * n_s + 3)
    nb = -(-n_t * d // kernels.PROD_FLOATS)
    assert peak > (min(kernels.STRIP, n_s) * n_t + n_t * d
                   + -(-n_t // nb) * d + n_s)


@pytest.mark.parametrize("n_s, n_t, peak", [
    pytest.param(100, 100, 8356, id="100-ragged"),
    pytest.param(1000, 1000, 73256, id="1000-ragged"),
    pytest.param(1536, 1536, 83456, id="1536-kernel-binds"),
    pytest.param(1638, 1638, 113286, id="1638-ragged-kernel-binds"),
    pytest.param(2048, 2048, 108544, id="2048-kernel-binds"),
    pytest.param(2560, 2560, 133632, id="2560-kernel-binds"),
    pytest.param(2576, 2576, 133955, id="2576-tape-binds"),
    pytest.param(2600, 2600, 176200, id="2600-ragged-kernel-binds"),
    pytest.param(1024, 2048, 107520, id="hard-negatives"),
])
def test_step2_peak_is_the_larger_of_the_kernel_and_tape_terms(n_s, n_t,
                                                                peak):
    # the kernel's term (strip_logsumexp's docstring) with the ragged last
    # strip's tail tile and its product, TILE * (n_t + d) floats, when
    # n_s is not a multiple of TILE; the alignment tape's term
    # (loss_graph_from_reps'). At d = 16 the tape binds from n = 2576,
    # where the targets split into six blocks, if TILE divides n (below
    # that only at n = 16, whose one strip is 16 rows); the tail tile
    # keeps the kernel's term the larger at any other n, and with hard
    # negatives the kernel's n_t-wide terms bind
    d = 16
    rng = np.random.default_rng(14)
    F, G = rng.normal(size=(n_s, d)), rng.normal(size=(n_t, d))
    c = MemCounter()
    with use_meter(c):
        loss_graph_from_reps(F, G, rng.permutation(n_t)[:n_s], 1.0)
    nb = -(-n_t * d // kernels.PROD_FLOATS)
    kernel_term = (min(kernels.STRIP, n_s) * n_t + n_t * d
                   + -(-n_t // nb) * d + n_s
                   + kernels.tail_floats([d, n_t], n_s, kernels.STRIP))
    tape_term = 2 * n_s * d + max(n_s, n_t) * d + 4 * n_s + 3
    assert c.peak["activation"] == peak == max(kernel_term, tape_term)


# what no meter sees: numpy (2.x) gives a ufunc call that broadcasts an
# operand, such as a bias row or a per-row column, an iteration buffer of
# up to np.getbufsize() elements (one row inside the loss kernels' strip
# loops, kernels.PASS_BUFSIZE inside the encoder passes' loops), freed
# when the call returns; and
# Python objects (views, lists, the meter's weakrefs) and first-call
# allocations, under ORACLE_SLACK floats (about 1000 are seen: the
# meter's weakrefs and its dict's growth, views, numpy's call overhead).
# One unregistered buffer of the shapes below is 2048 floats or more
ORACLE_SLACK = 1536


def _ufunc_buffer(floats):
    return min(floats, np.getbufsize())


def test_meter_sees_step3_activation_slopes():
    # an independent oracle for the encoder pass's counts: a sloped
    # activation must leave no more of step3 uncounted than a linear one.
    # One uncounted slope product here is 16 x 128 = 2048 floats; the
    # best of two runs drops first-call allocations (up to about 60
    # floats), and the slack covers allocator rounding
    def missed(act):
        return min(_floats_the_meter_misses(act)["step3"] for _ in range(2))

    linear = missed("linear")
    for act in ("tanh", "relu"):
        assert missed(act) - linear <= 128, act


@pytest.mark.parametrize("act", ["linear", "tanh", "relu"])
def test_meter_sees_every_buffer_of_the_cached_step(act):
    # the same oracle, absolute, in every phase: step1's and step3's
    # buffers, the strip kernel's and the alignment term's arrays. The
    # broadcasts are the bias adds of step1's passes of 80 rows and
    # step3's of 48, 128 wide, whose buffer the passes' loops hold to
    # kernels.PASS_BUFSIZE, and the strip's per-row columns, whose buffer
    # the strip loop holds to one row of 128 scores; the best of two runs
    # drops first-call allocations
    runs = [_floats_the_meter_misses(act) for _ in range(2)]
    bounds = {"step1": kernels.PASS_BUFSIZE, "step2": 128,
              "step3": kernels.PASS_BUFSIZE}
    for phase, floats in bounds.items():
        missed = min(run[phase] for run in runs)
        assert missed <= _ufunc_buffer(floats) + ORACLE_SLACK, phase
    for n_t in (8, 64):
        missed = min(_alignment_floats_the_meter_misses(n_t)
                     for _ in range(2))
        assert missed <= ORACLE_SLACK, n_t
