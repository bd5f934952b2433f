import numpy as np

from splitgrad import kernels


def test_active_backend_is_valid():
    assert kernels.active_backend() == "numpy"


def test_matmul_matches_blas_within_tolerance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 23))
    b = rng.normal(size=(23, 17))
    np.testing.assert_allclose(kernels.matmul(a, b), a @ b, rtol=1e-12)


def test_matmul_row_chunks_bitwise_stable():
    # any row subset of the product must equal the same rows of the full
    # product; this is the property BLAS does not guarantee
    rng = np.random.default_rng(1)
    a = rng.normal(size=(64, 33))
    b = rng.normal(size=(33, 16))
    full = kernels.matmul(a, b)
    for size in (1, 7, 16, 64):
        for lo in range(0, 64, size):
            part = kernels.matmul(a[lo:lo + size], b)
            assert np.array_equal(part, full[lo:lo + size])


def test_pair_scores_block_stable():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(48, 12))
    G = rng.normal(size=(36, 12))
    full = kernels.pair_scores(F, G)
    np.testing.assert_allclose(full, F @ G.T, rtol=1e-12)
    for lo in range(0, 48, 8):
        assert np.array_equal(kernels.pair_scores(F[lo:lo + 8], G),
                              full[lo:lo + 8])


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(20, 9)) * 50.0
    p = kernels.row_softmax(z)
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(20), rtol=1e-12)


def test_row_softmax_vjp_matches_dense_jacobian():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(3, 5))
    g = rng.normal(size=(3, 5))
    p = kernels.row_softmax(z)
    got = kernels.row_softmax_vjp(p, g)
    for i in range(3):
        jac = np.diag(p[i]) - np.outer(p[i], p[i])
        np.testing.assert_allclose(got[i], jac @ g[i], rtol=1e-12)


def test_scatter_add_rows_accumulates_duplicates():
    out = np.zeros((4, 2))
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    got = kernels.scatter_add_rows(out, np.array([2, 0, 2]), rows)
    assert got is out
    np.testing.assert_array_equal(
        out, np.array([[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    )


def test_elementwise_vjps():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 6))
    g = rng.normal(size=(6, 6))
    np.testing.assert_array_equal(kernels.relu_vjp(x, g), g * (x > 0))
    y = np.tanh(x)
    np.testing.assert_allclose(kernels.tanh_vjp(y, g), g * (1 - y * y),
                               rtol=1e-14)


def test_adam_update_first_step_is_signed_scaled_gradient():
    g = np.array([0.5, -2.0, 0.0])
    p = np.zeros(3)
    m = np.zeros(3)
    v = np.zeros(3)
    kernels.adam_update(p, m, v, g, lr=0.1, beta1=0.9, beta2=0.999,
                        eps=1e-8, t=1)
    # bias correction makes mhat = g, sqrt(vhat) = |g| on step one
    expect = -0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p, expect, rtol=1e-12)


def test_adam_update_matches_reference_sequence():
    rng = np.random.default_rng(6)
    p = rng.normal(size=(5, 3))
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    rp, rm, rv = p.copy(), m.copy(), v.copy()
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.normal(size=(5, 3))
        kernels.adam_update(p, m, v, g, lr, b1, b2, eps, t)
        rm = b1 * rm + (1 - b1) * g
        rv = b2 * rv + (1 - b2) * g * g
        rp = rp - lr * (rm / (1 - b1 ** t)) / (np.sqrt(rv / (1 - b2 ** t)) + eps)
    np.testing.assert_allclose(p, rp, rtol=1e-12)
    np.testing.assert_allclose(m, rm, rtol=1e-12)
    np.testing.assert_allclose(v, rv, rtol=1e-12)
