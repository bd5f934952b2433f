import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import encoders, trainer
from splitgrad.autodiff import Tape
from splitgrad.loss import aligned_batch, direct_param_grads
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
    c.track_alloc("activation", 100)
    c.track_alloc("activation", 50)
    assert c.live["activation"] == 150
    assert c.peak["activation"] == 150
    c.track_release("activation", 120)
    assert c.live["activation"] == 30
    assert c.peak["activation"] == 150
    c.track_alloc("gradient-cache", 7)
    assert c.peak["gradient-cache"] == 7
    assert c.peak["activation"] == 150


def test_release_below_zero_is_violation():
    c = MemCounter()
    c.track_alloc("activation", 5)
    with pytest.raises(MemAccountingError):
        c.track_release("activation", 6)


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
    c.track_alloc("activation", 10)
    with pytest.raises(BudgetExceededError,
                       match="exceed budget 10 outside any phase"):
        c.track_alloc("activation", 1)
    # the failed alloc left nothing live; the message names the phase
    # that was open
    c.track_release("activation", 10)
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
        c.track_alloc("activation", 9)
        c.track_release("activation", 9)
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
# who counts what: the encoder pass counts with plain calls, every other
# array is registered one by one
# ---------------------------------------------------------------------------

def _small_graph(tape):
    """x (4x3) and w (3x5) leaves; s = sum(h * h), h = tanh(x @ w + b).

    Each array is registered on its own and counted until it is freed:
    the outputs h, h * h and s (41 floats) and, after backward, the
    gradients it stores: the seed (1), those of h * h and of h (20
    each) and the leaves' (12 and 15). The second VJP result of h * h is
    added into h's gradient and freed at once.
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
        assert c.live["activation"] == before + 41
        tape.backward(s)
        # the second VJP result of h * h was added in and released
        assert c.live["activation"] == before + 41 + 41 + 12 + 15
        del tape, x, w, h, s
        assert c.live["activation"] == before
    assert kept.size == 7


def test_reset_grads_releases_the_gradients_the_tape_owned():
    c = MemCounter()
    with use_meter(c):
        tape = Tape()
        x, w, h, s = _small_graph(tape)
        tape.backward(s)
        gx = tape.grad(x)
        tape.reset_grads()
        # the tape's 41 gradient floats go; x's gradient is still held
        assert c.live["activation"] == 41 + 12
        del gx
        assert c.live["activation"] == 41
        tape.backward(s)
        assert c.live["activation"] == 41 + 41 + 12 + 15
        del tape, x, w, h, s
    assert c.live["activation"] == 0


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


def test_budget_trips_in_the_encoder_pass_and_names_the_phase():
    # step3 counts with plain calls in its encoder pass, which makes no
    # tape; a budget one float below its peak must stop the step there
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
    peak = c.phase_peak("step3")
    assert peak > max(c.phase_peak("step1"), c.phase_peak("step2"))
    with use_meter(MemCounter(activation_budget=peak - 1)):
        with pytest.raises(BudgetExceededError,
                           match=f"floats {peak} exceed budget {peak - 1} "
                                 f"in phase 'step3'") as info:
            trainer.train_step_cached(batch, pf, pg, opt, cfg)
    names = {e.name for e in info.traceback}
    assert {"_accumulate_chunk", "encoder_vjp", "track_alloc"} <= names
    assert not {"register_array", "backward"} & names


@pytest.mark.parametrize("phase", ["step1", "step3"])
def test_budget_error_in_the_encoder_pass_leaves_no_floats_live(phase):
    # the encoder pass counts with plain calls, not weakrefs: when the
    # budget stops it, it must take back what it had counted
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
        # the two stores; the encoder pass counts its layer outputs with
        # plain calls
        ("step1", "representation-store"): 2,
        # strip_logsumexp's strip and product buffers, G transposed and
        # lse (its dF and dG are the cache); the alignment tape's 7 op
        # outputs; its backward's 9 gradients: the all-ones seed, 6 stored
        # and 2 added into the leaves' buffers
        ("step2", "activation"): 4 + 7 + 9,
        ("step2", "gradient-cache"): 2,
        # one accumulator per parameter array; the encoder pass counts
        # the rest with plain calls
        ("step3", "parameters"): 2 * 2 * layers,
    }
    assert dict(seen) == expected
    assert sum(expected.values()) == 36


def _step3_floats_the_meter_misses(act):
    """tracemalloc's step3 peak, in floats, above the meter's.

    The cache-wide encoder shape at 64 rows, sub-batch 16, so no chunk is
    ragged. The meter's step3 peak is its activation peak plus the
    accumulators, made first and held to the end; tracemalloc also sees
    Python objects, which do not depend on the activation.
    """
    n, dims, b = 64, [24, 128, 128, 16], 16
    rng = np.random.default_rng(9)
    batch = aligned_batch(rng.normal(size=(n, dims[0])),
                          rng.normal(size=(n, dims[0])))
    pf = encoders.init_params(1, dims, act)
    pg = encoders.init_params(2, dims, act)
    plan = trainer.plan_subbatches(n, n, b, b)
    c = MemCounter()
    with use_meter(c):
        F, G = trainer.step1_graphless_forward(batch, pf, pg, plan)
        cache, _ = trainer.step2_build_cache(F, G, batch.r, 1.0)
        assert c.live["activation"] == 0
        tracemalloc.start()
        try:
            grads = trainer.step3_accumulate(batch, pf, pg, plan, cache)
            seen = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    counted = c.phase_peak("step3") + sum(g.size for g in grads[0] + grads[1])
    return seen / 8 - counted


def test_meter_sees_step3_activation_slopes():
    # an independent oracle for the encoder pass's counts: a sloped
    # activation must leave no more of step3 uncounted than a linear one.
    # One uncounted slope product here is 16 x 128 = 2048 floats; the
    # best of two runs drops first-call allocations (up to about 60
    # floats), and the slack covers allocator rounding
    def missed(act):
        return min(_step3_floats_the_meter_misses(act) for _ in range(2))

    linear = missed("linear")
    for act in ("tanh", "relu"):
        assert missed(act) - linear <= 128, act
