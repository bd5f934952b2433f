"""Property test: a cached step applies the direct step's gradients.

Each example draws a batch with n_s <= n_t anchors and targets, a
positive map that may repeat targets, sub-batch sizes on both sides
(below, at and beyond the batch), a temperature, and tied or untied
encoders. The gradients a training step hands to the optimizer are then
compared with the one-tape reference for the cached step, for deep
mode with the mlp and the dot head, and for multi mode with 2 or 3
workers, whose replicas and loss must also equal each other and the
one-worker cached loss bitwise.

A second property draws ragged sizes against the kernels' row blocks
(``TILE``, ``STRIP`` and ``HEAD_STRIP``), where the last tile or strip is
short: the streamed loss tail must match the reference loss and the
dense taped tail, and a row subset of the tiled matmul the same rows of
the full product.

A third property draws a valid case and breaks one thing in it: a
non-finite row entry, an unusable temperature (non-finite, zero,
negative or subnormal), empty rows, rows of the wrong rank, a column
positive map or a fractional positive. Every public step must refuse it
with ValueError before it changes any state: the meter, the row
counters, the worker group, the parameters or the optimizer state.
Examples are drawn from a fixed seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import autodiff as ad
from splitgrad import deep, encoders, kernels, memtrace, multiworker, trainer
from splitgrad.autodiff import flat_max_rel_err
from splitgrad.kernels import HEAD_STRIP, STRIP, TILE
from splitgrad.loss import (
    Batch,
    _dense_loss_graph_from_reps,
    contrastive_loss,
    direct_param_grads,
)

DIN, DIMS, HIDDEN = 5, [5, 7, 4], 6
TAUS = (5e-4, 0.05, 0.7, 1.0, 10.0)


def _sub_batch(n):
    return st.sampled_from((1, 3, 16, 17, n, n + 5))


@st.composite
def cases(draw):
    n_s = draw(st.integers(1, 12))
    n_t = draw(st.integers(n_s, 20))
    r = draw(st.lists(st.integers(0, n_t - 1), min_size=n_s, max_size=n_s))
    return dict(
        n_s=n_s, n_t=n_t, r=np.array(r),
        bs_s=draw(_sub_batch(n_s)), bs_t=draw(_sub_batch(n_t)),
        tau=draw(st.sampled_from(TAUS)), tied=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _applied_grads(step, *args):
    """The gradient list a training step passes to the optimizer."""
    (grads,) = _optimizer_calls(step, *args)
    return grads


def _optimizer_calls(step, *args):
    """Every gradient list a training step passes to the optimizer."""
    seen = []
    real = encoders.optimizer_step

    def capture(state, params, grads):
        seen.append(grads)
        return real(state, params, grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoders, "optimizer_step", capture)
        step(*args)
    return seen


def _reference(gf, gg, tied):
    """Direct per-role gradients as the step's optimizer sees them."""
    return [a + b for a, b in zip(gf, gg)] if tied else gf + gg


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases())
def test_cached_gradients_equal_direct(case):
    rng = np.random.default_rng(case["seed"])
    batch = Batch(rng.normal(size=(case["n_s"], DIN)),
                  rng.normal(size=(case["n_t"], DIN)), case["r"])
    pf = encoders.init_params(case["seed"] + 1, DIMS)
    pg = pf if case["tied"] else encoders.init_params(case["seed"] + 2, DIMS)
    tau, tied = case["tau"], case["tied"]
    opt = encoders.init_optimizer("sgd", 0.1)

    gf, gg, _ = direct_param_grads(batch, pf, pg, tau)
    got = _applied_grads(
        trainer.train_step_cached, batch, pf, pg, opt,
        trainer.TrainConfig(tau, case["bs_s"], case["bs_t"]),
    )
    assert flat_max_rel_err(_reference(gf, gg, tied), got) < 1e-9

    cfg = deep.DeepConfig(tau, case["bs_s"], case["bs_t"])
    for head in (deep.init_distance_head(case["seed"] + 3, DIMS[-1], HIDDEN),
                 deep.dot_head(DIMS[-1])):
        gf, gg, gh, _ = deep.deep_direct_grads(batch, pf, pg, head, tau)
        got = _applied_grads(deep.train_step_deep, batch, pf, pg, head, opt,
                             cfg)
        assert flat_max_rel_err(_reference(gf, gg, tied) + gh, got) < 1e-9


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(cases(), st.integers(2, 3))
def test_multi_step_equals_direct_and_one_worker(case, n_workers):
    rng = np.random.default_rng(case["seed"])
    batch = Batch(rng.normal(size=(case["n_s"], DIN)),
                  rng.normal(size=(case["n_t"], DIN)), case["r"])
    pf = encoders.init_params(case["seed"] + 1, DIMS)
    pg = pf if case["tied"] else encoders.init_params(case["seed"] + 2, DIMS)
    tau, tied = case["tau"], case["tied"]
    opt = encoders.init_optimizer("sgd", 0.1)
    config = trainer.TrainConfig(tau, case["bs_s"], case["bs_t"])

    gf, gg, _ = direct_param_grads(batch, pf, pg, tau)
    group = multiworker.WorkerGroup(n_workers, pf, pg, opt)
    res = []
    calls = _optimizer_calls(
        lambda *a: res.append(multiworker.train_step_multi(*a)), group,
        batch, config)
    # every worker applies the same reduced gradients, bitwise
    assert len(calls) == n_workers
    for grads in calls[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(grads, calls[0]))
    assert flat_max_rel_err(_reference(gf, gg, tied), calls[0]) < 1e-9
    for k in range(1, n_workers):
        assert (group.params_g[k] is group.params_f[k]) == tied
        for a, b in zip(
                encoders.param_arrays(group.params_f[k])
                + encoders.param_arrays(group.params_g[k]),
                encoders.param_arrays(group.params_f[0])
                + encoders.param_arrays(group.params_g[0])):
            assert np.array_equal(a, b)
    one = trainer.train_step_cached(batch, pf, pg, opt, config)
    assert res[0].loss == one.loss


RAGGED = (TILE - 1, TILE + 1, STRIP - 1, STRIP + 1, 2 * STRIP + 3)


@st.composite
def ragged_cases(draw):
    n_s = draw(st.sampled_from(RAGGED))
    n_t = draw(st.sampled_from(RAGGED))
    lo = draw(st.integers(0, n_s - 1))
    return dict(
        n_s=n_s, n_t=n_t, d=draw(st.sampled_from((3, 16))), lo=lo,
        hi=draw(st.integers(lo + 1, n_s)), offset=draw(st.integers(0, 5)),
        tau=draw(st.sampled_from(TAUS)), seed=draw(st.integers(0, 2**16)),
    )


def _dense_tail(F, G, r, tau):
    tape = ad.Tape()
    with ad.recording(tape):
        f_leaf, g_leaf = tape.leaf(F), tape.leaf(G)
        loss_t = _dense_loss_graph_from_reps(f_leaf, g_leaf, r, tau)
    tape.backward(loss_t)
    return float(loss_t.data), tape.grad(f_leaf), tape.grad(g_leaf)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(ragged_cases())
def test_streamed_tail_and_row_subsets_hold_at_ragged_sizes(case):
    rng = np.random.default_rng(case["seed"])
    n_s, n_t, tau = case["n_s"], case["n_t"], case["tau"]
    F = rng.normal(size=(n_s, case["d"]))
    G = rng.normal(size=(n_t, case["d"]))
    r = rng.integers(0, n_t, size=n_s)

    cache, loss_value = trainer.step2_build_cache(F, G, r, tau)
    dense_loss, dF, dG = _dense_tail(F, G, r, tau)
    assert loss_value == contrastive_loss(F, G, r, tau).loss == dense_loss
    assert np.array_equal(cache.u_rows, dF)
    assert np.abs(cache.v_rows - dG).max() <= 1e-13 * np.abs(dG).max()

    # rows lo:hi of F @ G.T, alone and written into a row slice of a
    # larger buffer, as the streamed tail's strips are
    lo, hi, off = case["lo"], case["hi"], case["offset"]
    Gt = np.ascontiguousarray(G.T)
    full = kernels.matmul(F, Gt)
    assert np.array_equal(kernels.matmul(F[lo:hi], Gt), full[lo:hi])
    buf = np.full((hi - lo + 2 * off, n_t), np.nan)
    kernels._tiled_matmul(F[lo:hi], Gt, out=buf[off:off + hi - lo])
    assert np.array_equal(buf[off:off + hi - lo], full[lo:hi])
    assert np.isnan(buf[:off]).all() and np.isnan(buf[off + hi - lo:]).all()


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.sampled_from((HEAD_STRIP - 1, HEAD_STRIP + 1)),
       st.sampled_from(RAGGED), st.sampled_from(TAUS), st.integers(0, 2**16))
def test_deep_step_holds_at_ragged_head_strips(n_s, n_t, tau, seed):
    rng = np.random.default_rng(seed)
    batch = Batch(rng.normal(size=(n_s, DIN)), rng.normal(size=(n_t, DIN)),
                  rng.integers(0, n_t, size=n_s))
    pf = encoders.init_params(seed + 1, DIMS)
    pg = encoders.init_params(seed + 2, DIMS)
    head = deep.init_distance_head(seed + 3, DIMS[-1], HIDDEN)
    gf, gg, gh, ref_loss = deep.deep_direct_grads(batch, pf, pg, head, tau)
    res = []
    got = _applied_grads(
        lambda *a: res.append(deep.train_step_deep(*a)), batch, pf, pg, head,
        encoders.init_optimizer("sgd", 0.1), deep.DeepConfig(tau, 3, 16))
    assert res[0].loss == ref_loss
    assert flat_max_rel_err(gf + gg + gh, got) < 1e-9


BAD_TAUS = (np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-310)
FAULTS = {  # what each drawn fault breaks, and the error it must raise
    "non-finite row": "non-finite entries",
    "temperature": "temperature must be",
    "empty rows": "must be a non-empty 2-D",
    "row rank": "must be a non-empty 2-D",
    "column map": "must be 1-D",
    "fractional map": "whole numbers",
}


@st.composite
def faults(draw):
    kind = draw(st.sampled_from(sorted(FAULTS)))
    return dict(
        kind=kind, side=draw(st.sampled_from(("anchors", "targets"))),
        value=draw(st.sampled_from((np.nan, np.inf, -np.inf))),
        tau=draw(st.sampled_from(BAD_TAUS)), rank=draw(st.sampled_from((1, 3))),
        at=draw(st.integers(0, 10**6)),
        frac=draw(st.sampled_from((0.25, 0.5, 0.999))),
    )


def _break(case, fault, rows, r):
    """The case's batch inputs and temperature with the fault applied."""
    kind, side, tau = fault["kind"], fault["side"], case["tau"]
    rows = dict(rows)
    if kind == "non-finite row":
        bad = rows[side].copy()
        bad.flat[fault["at"] % bad.size] = fault["value"]
        rows[side] = bad
    elif kind == "temperature":
        tau = fault["tau"]
    elif kind == "empty rows":
        rows[side] = rows[side][:0]
    elif kind == "row rank":
        rows["anchors"] = (rows["anchors"].ravel() if fault["rank"] == 1
                           else rows["anchors"][:, :, None])
    elif kind == "column map":
        r = r[:, None]
    else:
        r = r.astype(np.float64)
        r[fault["at"] % r.size] += fault["frac"]
    return rows, r, tau


def _public_steps(pf, pg, opt, group, head, case):
    """Each public step, as step(batch, tau)."""
    bs_s, bs_t = case["bs_s"], case["bs_t"]
    return [
        lambda b, tau: trainer.train_step_cached(
            b, pf, pg, opt, trainer.TrainConfig(tau, bs_s, bs_t)),
        lambda b, tau: trainer.train_step_direct(b, pf, pg, opt, tau),
        lambda b, tau: trainer.train_step_accumulation(b, pf, pg, opt, bs_s,
                                                       tau),
        lambda b, tau: deep.train_step_deep(b, pf, pg, head, opt,
                                            deep.DeepConfig(tau, bs_s, bs_t)),
        lambda b, tau: deep.train_step_deep(b, pf, pg, deep.dot_head(DIMS[-1]),
                                            opt,
                                            deep.DeepConfig(tau, bs_s, bs_t)),
        lambda b, tau: multiworker.train_step_multi(
            group, b, trainer.TrainConfig(tau, bs_s, bs_t)),
    ]


def _state(meter, group, arrays, opt):
    return (meter.report(), trainer.counter_snapshot(),
            list(group.exchange_log), list(group.params_f),
            list(group.params_g), list(group.opt_states), opt.t,
            [a.tobytes() for a in arrays + opt.m + opt.v])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(cases(), faults())
def test_bad_input_raises_before_any_state_changes(case, fault):
    rng = np.random.default_rng(case["seed"])
    rows = {"anchors": rng.normal(size=(case["n_s"], DIN)),
            "targets": rng.normal(size=(case["n_t"], DIN))}
    pf = encoders.init_params(case["seed"] + 1, DIMS)
    pg = pf if case["tied"] else encoders.init_params(case["seed"] + 2, DIMS)
    head = deep.init_distance_head(case["seed"] + 3, DIMS[-1], HIDDEN)
    opt = encoders.init_optimizer("adam", 0.1)
    group = multiworker.WorkerGroup(2, pf, pg, opt)
    meter = memtrace.MemCounter()
    with meter.activate():
        # good steps first, so that the meter, the counters, the group
        # and the optimizer hold state to keep
        good = Batch(rows["anchors"], rows["targets"], case["r"])
        config = trainer.TrainConfig(case["tau"], case["bs_s"], case["bs_t"])
        multiworker.train_step_multi(group, good, config)
        opt = trainer.train_step_cached(good, pf, pg, opt, config).opt_state
        steps = _public_steps(pf, pg, opt, group, head, case)
        arrays = (encoders.param_arrays(pf) + encoders.param_arrays(pg)
                  + deep.head_arrays(head))
        before = _state(meter, group, arrays, opt)
        bad_rows, bad_r, tau = _break(case, fault, rows, case["r"].copy())
        for step in steps:
            with pytest.raises(ValueError, match=FAULTS[fault["kind"]]):
                step(Batch(bad_rows["anchors"], bad_rows["targets"], bad_r),
                     tau)
            assert _state(meter, group, arrays, opt) == before
