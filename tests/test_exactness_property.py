"""Property test: a cached step applies the direct step's gradients.

Each example draws a batch with n_s <= n_t anchors and targets, a
positive map that may repeat targets, sub-batch sizes on both sides
(below, at and beyond the batch), a temperature, and tied or untied
encoders. The gradients a training step hands to the optimizer are then
compared with the one-tape reference for the cached step and for deep
mode with the mlp and the dot head. Examples are drawn from a fixed seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitgrad import deep, encoders, trainer
from splitgrad.autodiff import flat_max_rel_err
from splitgrad.loss import Batch, direct_param_grads

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
    seen = []
    real = encoders.optimizer_step

    def capture(state, params, grads):
        seen.append(grads)
        return real(state, params, grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoders, "optimizer_step", capture)
        step(*args)
    (grads,) = seen
    return grads


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
