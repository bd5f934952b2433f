import math
import warnings

import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import encoders, kernels
from splitgrad import loss as loss_mod
from splitgrad.autodiff import max_rel_err
from splitgrad.loss import (
    Batch,
    aligned_batch,
    analytic_rep_grads,
    contrastive_loss,
    direct_param_grads,
)


def _random_instance(rng, n_s=None, n_t=None, d=None):
    n_s = n_s or int(rng.integers(2, 16))
    n_t = n_t or int(rng.integers(n_s, 20))
    d = d or int(rng.integers(2, 8))
    F = rng.normal(size=(n_s, d))
    G = rng.normal(size=(n_t, d))
    r = rng.integers(0, n_t, size=n_s)
    return F, G, r


def test_batch_coerces_and_validates():
    b = Batch([[1, 2]], [[3, 4], [5, 6]], [1])
    assert b.anchors.dtype == np.float64
    assert b.r.dtype == np.int64
    assert b.n_anchors == 1
    assert b.n_targets == 2


def test_batch_rejects_bad_positive_index():
    with pytest.raises(ValueError, match="invalid r index"):
        Batch(np.ones((2, 3)), np.ones((4, 3)), [0, 4])
    with pytest.raises(ValueError, match="invalid r index"):
        Batch(np.ones((2, 3)), np.ones((4, 3)), [-1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_rows(bad):
    rows = np.ones((4, 3))
    rows[1, 2] = bad
    rows[3, 0] = bad
    with pytest.raises(ValueError, match="anchors hold 2 non-finite"):
        Batch(rows, np.ones((4, 3)), [0, 1, 2, 3])
    with pytest.raises(ValueError, match="targets hold 2 non-finite"):
        Batch(np.ones((4, 3)), rows, [0, 1, 2, 3])


def test_batch_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Batch(np.ones((2, 3)), np.ones((4, 3)), [0])


@pytest.mark.parametrize("side", ["anchors", "targets"])
def test_batch_rejects_empty_rows(side):
    rows = {"anchors": np.ones((3, 2)), "targets": np.ones((3, 2))}
    rows[side] = np.ones((0, 2))
    with pytest.raises(ValueError, match=f"{side} must be a non-empty 2-D"):
        Batch(rows["anchors"], rows["targets"], np.zeros(3, dtype=int))


def test_batch_rejects_one_dimensional_rows():
    with pytest.raises(ValueError, match=r"anchors must be .* shape \(4,\)"):
        Batch(np.ones(4), np.ones((4, 3)), [0, 1, 2, 3])


def test_batch_rejects_three_dimensional_rows():
    with pytest.raises(ValueError, match=r"anchors must be .* \(4, 3, 2\)"):
        Batch(np.ones((4, 3, 2)), np.ones((4, 3)), [0, 1, 2, 3])


def test_batch_rejects_a_column_positive_map():
    with pytest.raises(ValueError, match=r"must be 1-D, got shape \(4, 1\)"):
        Batch(np.ones((4, 3)), np.ones((4, 3)), np.arange(4).reshape(4, 1))


def test_batch_rejects_fractional_positives_and_takes_whole_floats():
    with pytest.raises(ValueError, match="whole numbers"):
        Batch(np.ones((4, 3)), np.ones((4, 3)), [0.5, 1.2, 2, 3])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="whole numbers"):
            Batch(np.ones((2, 3)), np.ones((4, 3)), [0.0, bad])
    b = Batch(np.ones((4, 3)), np.ones((4, 3)), [3.0, 1.0, 2.0, 0.0])
    assert b.r.dtype == np.int64
    assert b.r.tolist() == [3, 1, 2, 0]


def test_validate_temperature_bounds():
    # smallest normal float: its inverse is still finite
    for tau in (5e-4, 1.0, 10.0, np.float64(0.05), 2.2250738585072014e-308):
        loss_mod.validate_temperature(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (math.nan, 0.0, -0.0, 1e-310, -1.0, math.inf, -math.inf,
                    np.float64(1e-310)):
            with pytest.raises(ValueError, match="finite inverse"):
                loss_mod.validate_temperature(tau)


def test_aligned_batch_pairs_by_position():
    b = aligned_batch(np.ones((3, 2)), np.ones((3, 2)))
    np.testing.assert_array_equal(b.r, np.arange(3))


def test_loss_matches_manual_softmax_cross_entropy():
    rng = np.random.default_rng(0)
    F, G, r = _random_instance(rng)
    tau = 0.7
    res = contrastive_loss(F, G, r, tau)
    z = (F @ G.T) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(res.p, p, rtol=1e-12)
    expect = -np.mean(np.log(p[np.arange(len(r)), r]))
    assert abs(res.loss - expect) < 1e-12


def test_temperature_power_of_two_scales_logits_exactly():
    # 1/0.25 is a power of two, so the scaled logits carry no rounding
    rng = np.random.default_rng(1)
    F, G, r = _random_instance(rng)
    res = contrastive_loss(F, G, r, tau=0.25)
    assert np.array_equal(res.logits, 4.0 * kernels.pair_scores(F, G))


def test_identical_representations_give_uniform_p_and_log_nt_loss():
    n_s, n_t, d = 5, 8, 4
    F = np.zeros((n_s, d))
    G = np.zeros((n_t, d))
    r = np.zeros(n_s, dtype=np.int64)
    res = contrastive_loss(F, G, r, tau=1.0)
    assert np.array_equal(res.p, np.full((n_s, n_t), 1.0 / n_t))
    assert res.loss == math.log(n_t)


def test_single_pair_loss_is_zero():
    res = contrastive_loss(np.ones((1, 3)), np.ones((1, 3)),
                           np.array([0]), tau=1.0)
    assert res.loss == 0.0


def test_taped_loss_graph_bitwise_matches_reference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        F, G, r = _random_instance(rng)
        tau = float(rng.uniform(0.05, 2.0))
        ref = contrastive_loss(F, G, r, tau)
        assert loss_mod.loss_graph_from_reps(F, G, r, tau)[0] == ref.loss


@pytest.mark.parametrize("tau", [5e-4, 1e-3])
def test_stable_tail_at_small_temperature(tau):
    """The tail neither overflows nor logs an underflowed probability."""
    rng = np.random.default_rng(10)
    F = rng.normal(size=(64, 16))
    G = rng.normal(size=(64, 16))
    r = rng.permutation(64)
    ref = contrastive_loss(F, G, r, tau)
    loss_value, dF, dG = loss_mod.loss_graph_from_reps(F, G, r, tau)
    assert math.isfinite(ref.loss)
    assert loss_value == ref.loss
    got = analytic_rep_grads(F, G, r, tau, result=ref)
    assert max_rel_err(dF, got.u) <= 1e-10
    assert max_rel_err(dG, got.v) <= 1e-10


def _dense_loss_and_grads(F, G, r, tau):
    tape = ad.Tape()
    with ad.recording(tape):
        f_leaf = tape.leaf(F)
        g_leaf = tape.leaf(G)
        loss_t = loss_mod._dense_loss_graph_from_reps(f_leaf, g_leaf, r, tau)
    tape.backward(loss_t)
    return float(loss_t.data), tape.grad(f_leaf), tape.grad(g_leaf)


def _strip_instance(case):
    rng = np.random.default_rng(11)
    n_s, n_t = {"ragged": (41, 41), "hard-negatives": (33, 70),
                "repeated-positives": (40, 50)}[case]
    F = rng.normal(size=(n_s, 8))
    G = rng.normal(size=(n_t, 8))
    if case == "repeated-positives":
        r = rng.integers(0, 10, size=n_s)
    else:
        r = rng.permutation(n_t)[:n_s]
    return F, G, r


@pytest.mark.parametrize("tau", [0.7, 5e-4])
@pytest.mark.parametrize("case", ["ragged", "hard-negatives",
                                  "repeated-positives"])
def test_strip_height_changes_no_loss_or_anchor_gradient_bit(
        monkeypatch, case, tau):
    # every anchor row is scored, normalised and multiplied by G in its
    # own strip, so only dG's sum over strips may reorder
    F, G, r = _strip_instance(case)
    ref = contrastive_loss(F, G, r, tau).loss
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for strip in (1, 16, 17, 1024):
            monkeypatch.setattr(kernels, "STRIP", strip)
            results[strip] = loss_mod.loss_graph_from_reps(F, G, r, tau)
    loss0, dF0, dG0 = results[1024]
    assert loss0 == ref
    for loss_value, dF, dG in results.values():
        assert loss_value == loss0
        assert np.array_equal(dF, dF0)
        assert np.abs(dG - dG0).max() <= 1e-13 * np.abs(dG0).max()


def test_streamed_and_dense_graphs_agree_bitwise_within_one_strip():
    rng = np.random.default_rng(12)
    # and 513 targets 8 wide, where a fixed 256-row target block split
    # left a 1-row block that changed dG's bits
    shapes = [(None, None, None)] * 8 + [(kernels.STRIP, 90, 16),
                                         (kernels.STRIP, 513, 8)]
    for n_s, n_t, d in shapes:
        F, G, r = _random_instance(rng, n_s, n_t, d)
        # and tau = 1, at which the strip kernel skips its scale pass
        for tau in (float(rng.uniform(0.05, 2.0)), 1.0):
            streamed = loss_mod.loss_graph_from_reps(F, G, r, tau)
            dense = _dense_loss_and_grads(F, G, r, tau)
            assert streamed[0] == dense[0]
            assert np.array_equal(streamed[1], dense[1])
            assert np.array_equal(streamed[2], dense[2])


def test_taped_graphs_reject_bad_positive_index():
    # a wrapped or spilled index would gather some other pair's logit
    F, G = np.ones((2, 3)), np.ones((3, 3))
    with pytest.raises(ValueError, match="invalid r index"):
        loss_mod.loss_graph_from_reps(F, G, np.array([0, -1]), 1.0)
    with pytest.raises(ValueError, match="invalid r index"):
        loss_mod.loss_graph_from_logits(ad.constant(np.ones((2, 3))),
                                        np.array([0, 3]))


# ---------------------------------------------------------------------------
# representation gradients
# ---------------------------------------------------------------------------

def test_analytic_rep_grads_match_autodiff():
    """Closed-form u, v against the taped gradient on random instances."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        F, G, r = _random_instance(rng)
        tau = float(rng.uniform(0.05, 2.0))
        _, dF, dG = loss_mod.loss_graph_from_reps(F, G, r, tau)
        got = analytic_rep_grads(F, G, r, tau)
        worst = max(worst, max_rel_err(dF, got.u), max_rel_err(dG, got.v))
    assert worst <= 1e-10


def test_epsilon_sums_rows_of_anchors_sharing_a_target():
    # three anchors, two with the same positive: epsilon stacks their rows
    rng = np.random.default_rng(4)
    F = rng.normal(size=(3, 4))
    G = rng.normal(size=(5, 4))
    r = np.array([2, 2, 0])
    got = analytic_rep_grads(F, G, r, tau=1.0)
    expect = np.zeros((5, 4))
    expect[2] = F[0] + F[1]
    expect[0] = F[2]
    np.testing.assert_allclose(got.epsilon, expect, rtol=1e-14)


def test_unreferenced_targets_still_receive_gradient():
    # hard negatives only push through the softmax tail
    rng = np.random.default_rng(5)
    F, G, r = _random_instance(rng, n_s=4, n_t=9)
    r = np.array([0, 1, 2, 3])
    got = analytic_rep_grads(F, G, r, tau=1.0)
    for j in range(4, 9):
        assert np.abs(got.v[j]).max() > 0.0


def test_rep_grads_finite_difference_on_loss_surface():
    rng = np.random.default_rng(6)
    F, G, r = _random_instance(rng, n_s=4, n_t=6, d=3)
    tau = 0.8
    got = analytic_rep_grads(F, G, r, tau)
    h = 1e-6
    for (i, j) in [(0, 0), (1, 2), (3, 1)]:
        Fp, Fm = F.copy(), F.copy()
        Fp[i, j] += h
        Fm[i, j] -= h
        fd = (contrastive_loss(Fp, G, r, tau).loss
              - contrastive_loss(Fm, G, r, tau).loss) / (2 * h)
        assert abs(fd - got.u[i, j]) < 1e-8
    for (i, j) in [(0, 0), (2, 1), (5, 2)]:
        Gp, Gm = G.copy(), G.copy()
        Gp[i, j] += h
        Gm[i, j] -= h
        fd = (contrastive_loss(F, Gp, r, tau).loss
              - contrastive_loss(F, Gm, r, tau).loss) / (2 * h)
        assert abs(fd - got.v[i, j]) < 1e-8


def test_direct_param_grads_match_per_parameter_finite_differences():
    rng = np.random.default_rng(7)
    batch = Batch(rng.normal(size=(5, 4)), rng.normal(size=(7, 4)),
                  rng.integers(0, 7, size=5))
    pf = encoders.init_params(1, [4, 5, 3])
    pg = encoders.init_params(2, [4, 5, 3])
    tau = 0.9
    gf, gg, loss_value = direct_param_grads(batch, pf, pg, tau)
    assert loss_value == contrastive_loss(
        encoders.encode(pf, batch.anchors),
        encoders.encode(pg, batch.targets), batch.r, tau).loss

    h = 1e-6

    def loss_at(pf_arrays, pg_arrays):
        qf = encoders.params_from_arrays(pf, pf_arrays)
        qg = encoders.params_from_arrays(pg, pg_arrays)
        return contrastive_loss(
            encoders.encode(qf, batch.anchors),
            encoders.encode(qg, batch.targets), batch.r, tau).loss

    base_f = encoders.param_arrays(pf)
    base_g = encoders.param_arrays(pg)
    rng2 = np.random.default_rng(8)
    for arr_idx in range(4):
        flat = base_f[arr_idx].ravel()
        k = int(rng2.integers(0, flat.size))
        vals = []
        for sign in (1.0, -1.0):
            bumped = [a.copy() for a in base_f]
            bumped[arr_idx].ravel()[k] += sign * h
            vals.append(loss_at(bumped, base_g))
        fd = (vals[0] - vals[1]) / (2 * h)
        assert abs(fd - gf[arr_idx].ravel()[k]) < 1e-7


def test_direct_param_grads_tied_encoders_share_parameters():
    rng = np.random.default_rng(9)
    p = encoders.init_params(3, [4, 5, 3])
    batch = Batch(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)),
                  np.arange(6))
    gf, gg, _ = direct_param_grads(batch, p, p, 1.0)
    # same params object on both sides still yields two gradient lists
    assert len(gf) == len(gg) == 4
    combined = [a + b for a, b in zip(gf, gg)]
    h = 1e-6
    arrays = encoders.param_arrays(p)
    k = 3
    vals = []
    for sign in (1.0, -1.0):
        bumped = [a.copy() for a in arrays]
        bumped[0].ravel()[k] += sign * h
        q = encoders.params_from_arrays(p, bumped)
        vals.append(contrastive_loss(
            encoders.encode(q, batch.anchors),
            encoders.encode(q, batch.targets), batch.r, 1.0).loss)
    fd = (vals[0] - vals[1]) / (2 * h)
    assert abs(fd - combined[0].ravel()[k]) < 1e-7
