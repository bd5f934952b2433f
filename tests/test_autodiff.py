import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad.autodiff import (
    FiniteDiffReport,
    NoGraphError,
    ShapeMismatchError,
    Tape,
    TapeReuseError,
    finite_diff_check,
    flat_max_rel_err,
    max_rel_err,
)


def test_leaf_and_constant_flags():
    tape = Tape()
    x = tape.leaf(np.ones((2, 3)))
    c = ad.constant(np.ones((2, 3)))
    assert x.is_taped
    assert not c.is_taped
    assert x.shape == (2, 3)


def test_record_skips_constant_only_inputs():
    tape = Tape()
    with ad.recording(tape):
        before = len(tape)
        out = ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(3)))
    assert not out.is_taped
    assert len(tape) == before
    np.testing.assert_array_equal(out.data, 2.0 * np.ones(3))


def test_backward_requires_scalar():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.ones((2, 2)))
        y = ad.tanh(x)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_single_use():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.ones(4))
        s = ad.sum_all(x)
    tape.backward(s)
    with pytest.raises(TapeReuseError):
        tape.backward(s)
    tape.reset_grads()
    tape.backward(s)
    np.testing.assert_array_equal(tape.grad(x), np.ones(4))


def test_no_graph_recorded_error():
    c = ad.constant(np.ones(3))
    tape = Tape()
    with pytest.raises(NoGraphError, match="no graph recorded"):
        tape.backward(c)


def test_tensor_from_other_tape_rejected():
    t1, t2 = Tape(), Tape()
    with ad.recording(t1):
        x = t1.leaf(np.ones(2))
        s = ad.sum_all(ad.mul(x, x))
    with pytest.raises(NoGraphError, match="different tape"):
        t2.backward(s)


def test_gradient_accumulates_over_shared_input():
    # x feeds two branches; grads add
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        s = ad.sum_all(ad.add(ad.mul(x, x), x))
    tape.backward(s)
    np.testing.assert_allclose(tape.grad(x), 2.0 * x.data + 1.0, rtol=1e-15)


def test_unreached_leaf_gets_zeros():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.ones(3))
        y = tape.leaf(np.ones(3))
        s = ad.sum_all(x)
    tape.backward(s)
    np.testing.assert_array_equal(tape.grad(y), np.zeros(3))


def test_no_graph_suppresses_recording():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.ones(3))
        with ad.no_graph():
            out = ad.tanh(x)
        assert not out.is_taped
        s = ad.sum_all(x)
    tape.backward(s)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_forward_values_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    cases = [
        (ad.matmul(ad.constant(a), ad.constant(b)), a @ b),
        (ad.add(ad.constant(a), ad.constant(a)), a + a),
        (ad.mul(ad.constant(a), ad.constant(a)), a * a),
        (ad.scalar_mul(2.5, ad.constant(a)), 2.5 * a),
        (ad.relu(ad.constant(a)), np.maximum(a, 0.0)),
        (ad.tanh(ad.constant(a)), np.tanh(a)),
        (ad.log(ad.constant(np.abs(a) + 1.0)), np.log(np.abs(a) + 1.0)),
        (ad.exp(ad.constant(a)), np.exp(a)),
        (ad.sum_all(ad.constant(a)), np.asarray(a.sum())),
        (ad.mean_all(ad.constant(a)), np.asarray(a.mean())),
        (ad.reshape(ad.constant(a), (2, 10)), a.reshape(2, 10)),
        (ad.index_rows(ad.constant(a), np.array([2, 0, 2])), a[[2, 0, 2]]),
        (ad.dot_product_matrix(ad.constant(a), ad.constant(a)), a @ a.T),
        (ad.row_logsumexp(ad.constant(a), 0.5),
         np.log(np.exp(0.5 * a).sum(axis=1, keepdims=True))),
    ]
    for out, expect in cases:
        np.testing.assert_allclose(out.data, expect, rtol=1e-13)


def test_row_softmax_matches_reference_and_survives_large_logits():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 7))
    p = ad.row_softmax(ad.constant(z)).data
    e = np.exp(z - z.max(axis=1, keepdims=True))
    np.testing.assert_allclose(p, e / e.sum(axis=1, keepdims=True), rtol=1e-15)
    big = ad.row_softmax(ad.constant(z + 1000.0)).data
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big.sum(axis=1), np.ones(5), rtol=1e-12)


def test_row_logsumexp_matches_reference_and_survives_large_logits():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(5, 7))
    expect = np.log(np.exp(z).sum(axis=1, keepdims=True))
    lse = ad.row_logsumexp(ad.constant(z)).data
    assert lse.shape == (5, 1)
    np.testing.assert_allclose(lse, expect, rtol=1e-14)
    big = ad.row_logsumexp(ad.constant(z + 1000.0)).data
    assert np.all(np.isfinite(big))
    np.testing.assert_allclose(big, expect + 1000.0, rtol=1e-14)
    # the scale multiplies the logits before the max is taken
    np.testing.assert_allclose(
        ad.row_logsumexp(ad.constant(z), 0.25).data,
        np.log(np.exp(0.25 * z).sum(axis=1, keepdims=True)), rtol=1e-14)


def test_add_broadcasts_bias_row():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    b = rng.normal(size=3)
    tape = Tape()
    with ad.recording(tape):
        xb = tape.leaf(b)
        s = ad.sum_all(ad.mul(ad.add(ad.constant(x), xb), ad.constant(x)))
    tape.backward(s)
    np.testing.assert_allclose(tape.grad(xb), x.sum(axis=0), rtol=1e-14)


def test_ops_allocate_fresh_arrays():
    # mutating an input after the op must not change the recorded output
    x = np.ones((3, 3))
    out_r = ad.reshape(ad.constant(x), (9, 1))
    out_i = ad.index_rows(ad.constant(x), np.array([0, 1]))
    out_l = ad.row_logsumexp(ad.constant(x))
    x[:] = 7.0
    np.testing.assert_array_equal(out_r.data, np.ones((9, 1)))
    np.testing.assert_array_equal(out_i.data, np.ones((2, 3)))
    np.testing.assert_array_equal(out_l.data, np.full((3, 1), 1.0 + np.log(3.0)))


def test_add_vjp_outputs_are_distinct_arrays():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.ones(3))
        y = tape.leaf(np.ones(3))
        s = ad.sum_all(ad.add(x, y))
    tape.backward(s)
    gx, gy = tape.grad(x), tape.grad(y)
    assert gx is not gy
    gx += 1.0
    np.testing.assert_array_equal(gy, np.ones(3))


def test_relu_gradient_zero_at_zero():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
        s = ad.sum_all(ad.relu(x))
    tape.backward(s)
    np.testing.assert_array_equal(tape.grad(x), np.array([0.0, 0.0, 1.0]))


def test_index_rows_repeated_indices_accumulate():
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(np.arange(6.0).reshape(3, 2))
        s = ad.sum_all(ad.index_rows(x, np.array([1, 1, 0])))
    tape.backward(s)
    np.testing.assert_array_equal(
        tape.grad(x), np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    )


def test_reshape_vjp_restores_input_shape():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 1))
    w = rng.normal(size=(2, 3))
    tape = Tape()
    with ad.recording(tape):
        xa = tape.leaf(a)
        s = ad.sum_all(ad.mul(ad.reshape(xa, (2, 3)), ad.constant(w)))
    tape.backward(s)
    # anchor-major: row i * 3 + j of the column is entry (i, j)
    np.testing.assert_array_equal(tape.grad(xa), w.reshape(6, 1))
    with pytest.raises(ShapeMismatchError, match="reshape"):
        ad.reshape(xa, (4, 2))


def _chunk_tape(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))
    tape = Tape()
    with ad.recording(tape):
        wl = tape.leaf(w)
        out = ad.tanh(ad.matmul(ad.constant(x), wl))
    return tape, wl, out, rng.normal(size=(5, 3))


def test_seeded_backward_matches_surrogate_bitwise():
    tape, wl, out, seed = _chunk_tape()
    tape.backward(out, grad=seed)
    seeded = tape.grad(wl).copy()

    tape, wl, out, seed = _chunk_tape()
    with ad.recording(tape):
        surrogate = ad.sum_all(ad.mul(out, ad.constant(seed)))
    tape.backward(surrogate)
    assert np.array_equal(seeded, tape.grad(wl))


def test_seeded_backward_checks_seed_shape():
    tape, _, out, seed = _chunk_tape()
    with pytest.raises(ShapeMismatchError, match="backward seed"):
        tape.backward(out, grad=seed.T)


def test_shape_mismatch_names_op_kind():
    with pytest.raises(ShapeMismatchError, match="matmul"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatchError, match="mul"):
        ad.mul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 2))))
    with pytest.raises(ShapeMismatchError, match="dot-product-matrix"):
        ad.dot_product_matrix(ad.constant(np.ones((2, 3))),
                              ad.constant(np.ones((2, 4))))


# ---------------------------------------------------------------------------
# vjp correctness against central differences
# ---------------------------------------------------------------------------

def _check(f, x, **kw):
    report = finite_diff_check(f, x, **kw)
    assert isinstance(report, FiniteDiffReport)
    assert report.passed, f"rel err {report.max_rel_err} at floor {report.floor}"
    return report


def test_vjp_matmul_chain():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(6, 4))
    x = rng.normal(size=(5, 6))

    _check(lambda t: ad.sum_all(ad.tanh(ad.matmul(t, ad.constant(w)))), x)
    _check(lambda t: ad.sum_all(ad.tanh(ad.matmul(ad.constant(x), t))), w)


def test_vjp_elementwise_ops():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4))
    _check(lambda t: ad.sum_all(ad.mul(t, ad.constant(y))), x)
    _check(lambda t: ad.sum_all(ad.relu(t)), x + 0.05)
    _check(lambda t: ad.sum_all(ad.exp(ad.scalar_mul(0.3, t))), x)
    _check(lambda t: ad.sum_all(ad.log(ad.exp(t))), x)
    _check(lambda t: ad.mean_all(ad.tanh(t)), x)


def test_vjp_softmax_log_pipeline():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 8))
    pick = np.zeros((5, 8))
    pick[np.arange(5), rng.integers(0, 8, size=5)] = 1.0

    def f(t):
        p = ad.row_softmax(t)
        picked = ad.matmul(ad.mul(p, ad.constant(pick)), np.ones((8, 1)))
        return ad.scalar_mul(-0.2, ad.sum_all(ad.log(picked)))

    _check(f, z)


def test_vjp_row_logsumexp():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 8))
    w = rng.normal(size=(5, 1))
    for scale in (1.0, 0.25):
        _check(lambda t: ad.sum_all(ad.mul(ad.row_logsumexp(t, scale),
                                           ad.constant(w))), z)


def test_vjp_structure_ops():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    idx = np.array([4, 0, 4, 2])
    wr = rng.normal(size=(2, 9))
    wi = rng.normal(size=(4, 3))
    other = rng.normal(size=(5, 3))
    _check(lambda t: ad.sum_all(ad.mul(ad.reshape(t, (2, 9)),
                                       ad.constant(wr))), x)
    _check(lambda t: ad.sum_all(ad.mul(ad.index_rows(t, idx),
                                       ad.constant(wi))), x)
    _check(lambda t: ad.sum_all(ad.tanh(ad.dot_product_matrix(
        t, ad.constant(other)))), x)


def test_finite_diff_check_samples_large_arrays():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 30))
    report = _check(lambda t: ad.sum_all(ad.tanh(t)), x, n_samples=50, seed=1)
    assert report.n_checked == 50


def test_finite_diff_check_flags_wrong_gradient():
    # exp pretending to be identity: analytic and numeric must disagree
    x = np.array([[0.5, -0.3], [0.2, 0.1]])

    class Wrong:
        def __call__(self, t):
            if t.is_taped:
                return ad.sum_all(t)
            return ad.sum_all(ad.exp(t))

    report = finite_diff_check(Wrong(), x)
    assert not report.passed


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def test_max_rel_err_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert max_rel_err(a, a) == 0.0
    assert max_rel_err(np.zeros(3), np.zeros(3)) == 0.0
    b = a * (1.0 + 1e-10)
    assert 0.0 < max_rel_err(a, b) < 1e-9
    with pytest.raises(ShapeMismatchError):
        max_rel_err(np.ones(3), np.ones(4))


def test_max_rel_err_floors_tiny_entries():
    # a 1e-18 absolute difference on a tiny entry is judged against the
    # floored denominator, not against the entry itself
    a = np.array([1.0, 1e-18])
    b = np.array([1.0, 3e-18])
    assert max_rel_err(a, b) < 1e-9


def test_flat_max_rel_err_uses_global_scale():
    a = [np.array([5.0]), np.array([1e-17])]
    b = [np.array([5.0]), np.array([-1e-17])]
    # per-array comparison of the second entry would be O(1)
    assert max_rel_err(a[1], b[1]) > 1.0
    assert flat_max_rel_err(a, b) < 1e-12
