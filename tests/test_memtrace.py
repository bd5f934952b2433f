import gc
import threading

import numpy as np
import pytest

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
    # the message names the phase that was open
    c.track_release("activation", 11)
    with pytest.raises(BudgetExceededError, match="in phase 'step2'"):
        with c.phase("step2"):
            c.track_alloc("activation", 11)


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


def test_meter_stack_is_thread_local():
    c = MemCounter()
    seen = {}

    def worker():
        seen["inner"] = current_meter()

    with use_meter(c):
        assert current_meter() is c
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["inner"] is None
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

