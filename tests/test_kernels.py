import contextlib
import os
import subprocess
import sys

import numpy as np
import pytest

from splitgrad import kernels
from splitgrad.loss import contrastive_loss
from splitgrad.memtrace import CATEGORIES, MemCounter, use_meter


def test_active_backend_is_valid():
    assert kernels.active_backend() == "numpy"


def test_matmul_matches_blas_within_tolerance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 23))
    b = rng.normal(size=(23, 17))
    np.testing.assert_allclose(kernels.matmul(a, b), a @ b, rtol=1e-12)


T = kernels.TILE


def _row_slices(n):
    # every offset from 0 to 2T, so each position within a tile is hit;
    # sizes inside a tile, across a tile edge and up to the end
    for lo in range(2 * T + 1):
        for size in (1, T - 1, T + 1, 2 * T + 3, n - lo):
            yield lo, lo + size


def _assert_close_to_blas(got, ref):
    # sums that cancel to near zero carry reassociation noise of the
    # order of the largest entry times eps, so atol scales with it
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


def _assert_row_stable(product, x, full):
    for lo, hi in _row_slices(x.shape[0]):
        assert np.array_equal(product(x[lo:hi]), full[lo:hi]), (lo, hi)


def test_matmul_row_chunks_bitwise_stable():
    # any row subset of the product must equal the same rows of the full
    # product; this is the property a plain BLAS gemm does not guarantee
    rng = np.random.default_rng(1)
    for n, k, m in ((64, 33, 16), (1024, 24, 32), (256, 128, 128)):
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        full = kernels.matmul(a, b)
        _assert_close_to_blas(full, a @ b)
        for size in (1, 7, 16, 64):
            for lo in range(0, 64, size):
                part = kernels.matmul(a[lo:lo + size], b)
                assert np.array_equal(part, full[lo:lo + size])
        _assert_row_stable(lambda rows: kernels.matmul(rows, b), a, full)


def test_pair_scores_block_stable():
    # stable over row subsets of the anchors only; no caller slices G
    rng = np.random.default_rng(2)
    F = rng.normal(size=(48, 12))
    G = rng.normal(size=(36, 12))
    full = kernels.pair_scores(F, G)
    np.testing.assert_allclose(full, F @ G.T, rtol=1e-12)
    for lo in range(0, 48, 8):
        assert np.array_equal(kernels.pair_scores(F[lo:lo + 8], G),
                              full[lo:lo + 8])
    _assert_row_stable(lambda rows: kernels.pair_scores(rows, G), F, full)

    F = rng.normal(size=(1024, 16))
    G = rng.normal(size=(1024, 16))
    full = kernels.pair_scores(F, G)
    _assert_close_to_blas(full, F @ G.T)
    _assert_row_stable(lambda rows: kernels.pair_scores(rows, G), F, full)


def test_row_contract_holds_with_one_blas_thread():
    # the suite runs BLAS at its default thread count and stepbench pins
    # it to one thread; rerun the contract tests in a child at one thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    ids = [f"{__file__}::{name}" for name in (
        "test_matmul_row_chunks_bitwise_stable",
        "test_pair_scores_block_stable")]
    here = os.path.dirname(__file__)
    ids += [os.path.join(here, name) for name in (
        # gA comes out of a batched matmul per strip, which must give each
        # row the same bits whatever the strip height at this thread count
        # too
        "test_deep.py::test_head_strip_height_changes_no_loss_or_gA_bit",
        # the head's scores and the cached deep loss are bitwise the
        # direct graph's, with b1 on the same side of the sum
        "test_deep.py::test_head_scores_are_phi_pairs_bitwise",
        "test_deep.py::test_cached_deep_step_matches_direct_graph",
        # an input gradient is g @ w.T against a contiguous transpose, a
        # BLAS layout of its own: the taped layer, the encoder node and
        # step3's chunks must still agree bitwise
        "test_autodiff.py::test_dense_matches_three_op_layer_bitwise",
        # a weight gradient's row blocks are bitwise the whole product
        "test_autodiff.py::test_weight_gradient_blocks_change_no_bit",
        "test_trainer.py::"
        "test_step3_chunks_equal_the_taped_encoder_node_bitwise",
        # dG's bits do not depend on the target blocks, and one strip's
        # are the dense graph's
        "test_kernels.py::test_target_block_size_changes_no_bit",
        "test_loss.py::"
        "test_streamed_and_dense_graphs_agree_bitwise_within_one_strip")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the strip-height test runs at three temperatures, the head-scores
    # test at three activations, the two encoder tests at three
    # activation sets each, the weight-gradient block test at four shapes
    # and the target-block test at six
    assert "26 passed" in proc.stdout, proc.stdout


def test_loss_kernels_leave_their_inputs_unchanged():
    # scores become their softmax in place: only a kernel's own buffers
    # may be overwritten, never an array it was given
    rng = np.random.default_rng(6)
    S, H = kernels.STRIP, kernels.HEAD_STRIP
    F, G = rng.normal(size=(2 * S + 3, 8)), rng.normal(size=(S + 1, 8))
    A, B = rng.normal(size=(H + 1, 5)), rng.normal(size=(11, 5))
    r = rng.integers(0, 11, size=H + 1)
    w2, b2 = rng.normal(size=(5, 1)), np.ones(1)
    inputs = (F, G, A, B, w2, b2)
    before = [a.tobytes() for a in inputs]
    contrastive_loss(F, G, np.arange(2 * S + 3) % (S + 1))
    contrastive_loss(F, G, np.arange(2 * S + 3) % (S + 1), 0.5)
    kernels.strip_logsumexp(F, G, 2.0, 0.1)
    for act in kernels.ACTIVATIONS:
        kernels.head_strip_loss(A, B, r, 2.0, w2, b2, act)
    assert [a.tobytes() for a in inputs] == before


def test_strip_logsumexp_makes_its_buffers_once(monkeypatch):
    # one strip buffer for every strip and one product buffer for every
    # target block: a kernel that allocated per strip or per block would
    # register more arrays at five strips than at two, or at four blocks
    # than at one. Every size ends in a short strip, whose zero-padded
    # tail tiles _tiled_matmul registers once per call
    registered = []
    real = kernels.register

    def spy(arr, *args):
        registered.append(arr.shape)
        return real(arr, *args)

    monkeypatch.setattr(kernels, "register", spy)
    rng = np.random.default_rng(7)
    counts = []
    # 3 * 1024 + 5 targets 8 wide are four blocks of 769 or 770 rows
    many = 3 * (kernels.PROD_FLOATS // 8) + 5
    for n in (kernels.STRIP + 3, 4 * kernels.STRIP + 3):
        for m in (n + 5, many):
            registered.clear()
            kernels.strip_logsumexp(rng.normal(size=(n, 8)),
                                    rng.normal(size=(m, 8)), 1.0, 1.0 / n)
            counts.append(len(registered))
        assert (770, 8) in registered
    assert len(set(counts)) == 1


@pytest.mark.parametrize("d", [8, 16, 32])
@pytest.mark.parametrize("m", [513, 600])
def test_target_block_size_changes_no_bit(monkeypatch, m, d):
    # each dG row sums its strips' products in strip order whatever block
    # it lands in: limits of 2, 16, 100 and 255 rows a block give the
    # bits of one block, at strips of 1, 3, 32, 40 and 64 anchors, 70
    # anchors in all (a ragged last strip and tile). A one-row block (1 of
    # 513 in blocks of 256, or 513 split evenly in blocks of at most 2) is
    # a matrix-vector product and changed dG's bits; the kernel never
    # makes one, so a limit of 2 rows gives blocks of 2 and 3
    rng = np.random.default_rng(15)
    F, G = rng.normal(size=(70, d)), rng.normal(size=(m, d))
    for strip in (1, 3, 32, 40, 64):
        monkeypatch.setattr(kernels, "STRIP", strip)
        bits = []
        for rows in (2, 16, 100, 255, m + 1):
            monkeypatch.setattr(kernels, "PROD_FLOATS", rows * d)
            bits.append([a.tobytes()
                         for a in kernels.strip_logsumexp(F, G, 2.0, 0.1)])
        assert all(b == bits[-1] for b in bits), strip


@pytest.mark.parametrize("row, size", [(0, 16), (1, 16), (90, 96),
                                       (1024, 1024), (8200, 8192)])
def test_row_buffer_is_one_row_rounded_up_to_16_and_capped(row, size):
    with kernels._row_buffer(row):
        assert np.getbufsize() == size
    assert np.getbufsize() == kernels.UFUNC_BUFSIZE


def _loss_kernel_outputs(row, h):
    # strip_logsumexp over rows of `row` targets, and head_strip_loss and
    # head_scores over rows of row // h targets h wide, each with a
    # ragged last strip
    rng = np.random.default_rng(12)
    d, m = 3, row // h
    F = rng.normal(size=(kernels.STRIP + 5, d))
    G = rng.normal(size=(row, d))
    A = rng.normal(size=(kernels.HEAD_STRIP + 3, h))
    B = rng.normal(size=(m, h))
    r = rng.integers(0, m, size=len(A))
    w1a, w1b = rng.normal(size=(d, h)), rng.normal(size=(d, h))
    b1, w2, b2 = rng.normal(size=h), rng.normal(size=(h, 1)), np.ones(1)
    loss, gA, gB, tail = kernels.head_strip_loss(A, B, r, 2.0, w2, b2,
                                                 "tanh")
    scores = kernels.head_scores(F[:len(A)], G[:m], w1a, w1b, b1, w2, b2,
                                 "relu")
    return [*kernels.strip_logsumexp(F, G, 2.0, 0.1), np.array(loss), gA, gB,
            *tail, scores]


@pytest.mark.parametrize("row, h", [(90, 2), (1024, 8), (8200, 8)])
def test_loss_kernels_keep_their_bits_and_the_callers_buffer(monkeypatch,
                                                             row, h):
    # the strip loops run with numpy's ufunc buffer at one row
    # (_row_buffer): rows of 90 floats (not a multiple of 16), 1024 and
    # 8200 (above numpy's default) give the bits of loops run without
    # it, under the default buffer and under a caller's 16-float one,
    # and leave the caller's size as it was, also when a kernel raises
    # on mismatched widths inside its loop
    def bits(arrays):
        return [a.tobytes() for a in arrays]

    with monkeypatch.context() as m:
        m.setattr(kernels, "_row_buffer",
                  lambda row: contextlib.nullcontext())
        want = bits(_loss_kernel_outputs(row, h))
    one = np.ones((3, 2))
    for size in (kernels.UFUNC_BUFSIZE, 16):
        with np.errstate():
            np.setbufsize(size)
            assert bits(_loss_kernel_outputs(row, h)) == want
            assert np.getbufsize() == size
            with pytest.raises(ValueError):
                kernels.strip_logsumexp(one, np.ones((row, 3)), 1.0, 1.0)
            assert np.getbufsize() == size
            with pytest.raises(ValueError):
                kernels.head_strip_loss(one, np.ones((row, 3)), [0, 0, 0],
                                        1.0, np.ones((2, 1)), np.ones(1),
                                        "tanh")
            assert np.getbufsize() == size
    assert np.getbufsize() == kernels.UFUNC_BUFSIZE


@pytest.mark.parametrize("name", kernels.ACTIVATIONS)
def test_activation_slope_is_activation_vjp_of_ones_bitwise(name):
    # head_strip_loss's in-place slope must give the bits activation_vjp
    # gives, on outputs that hold exact zeros (relu's whole negative
    # side, tanh at 0)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 9))
    x[0] = 0.0
    x[1, ::2] = -0.0
    y = kernels.activate(name, x)
    assert np.any(y == 0.0)
    want = kernels.activation_vjp(name, y, np.ones_like(y))
    got = y.copy()
    kernels._activation_slope(name, got)
    assert got.tobytes() == want.tobytes()


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
    # into zeros, bitwise np.add.at's sums in ascending k order: repeated
    # and permuted indices, signed zeros, terms of very different sizes
    rng = np.random.default_rng(13)
    rows = rng.normal(size=(300, 5)) * rng.choice([0.0, 1e-300, 1.0, 1e300],
                                                  size=(300, 5))
    rows[rng.random(rows.shape) < 0.1] = -0.0
    for idx in (rng.integers(0, 7, size=300), rng.permutation(300)):
        want = np.zeros((300, 5))
        np.add.at(want, idx, rows)
        got = kernels.scatter_add_rows(np.zeros((300, 5)), idx, rows)
        assert got.tobytes() == want.tobytes()


def test_elementwise_vjps():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 6))
    g = rng.normal(size=(6, 6))
    np.testing.assert_array_equal(kernels.relu_vjp(x, g), g * (x > 0))
    y = np.tanh(x)
    np.testing.assert_allclose(kernels.tanh_vjp(y, g), g * (1 - y * y),
                               rtol=1e-14)


def _adam_scratch(n):
    return np.empty(n), np.empty(n)


def test_adam_update_first_step_is_signed_scaled_gradient():
    g = np.array([0.5, -2.0, 0.0])
    p = np.zeros(3)
    m = np.zeros(3)
    v = np.zeros(3)
    p, m, v = kernels.adam_update(p, m, v, g, lr=0.1, beta1=0.9,
                                  beta2=0.999, eps=1e-8, t=1,
                                  scratch=_adam_scratch(3))
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
    # a scratch pair longer than the arrays, reused by every step
    scratch = _adam_scratch(p.size + 7)
    for t in range(1, 6):
        g = rng.normal(size=(5, 3))
        inputs = [a.copy() for a in (p, m, v, g)]
        new = kernels.adam_update(p, m, v, g, lr, b1, b2, eps, t, scratch)
        for before, after in zip(inputs, (p, m, v, g)):
            np.testing.assert_array_equal(after, before)
        p, m, v = new
        rm = b1 * rm + (1 - b1) * g
        rv = b2 * rv + (1 - b2) * g * g
        rp = rp - lr * (rm / (1 - b1 ** t)) / (np.sqrt(rv / (1 - b2 ** t)) + eps)
    # the same arithmetic in the same order: bitwise, not just close
    np.testing.assert_array_equal(p, rp)
    np.testing.assert_array_equal(m, rm)
    np.testing.assert_array_equal(v, rv)


def test_head_strip_loss_counts_its_gradients_when_it_makes_them():
    # deep mode's distance gradient cache (dL/dA and dL/dB) and the other
    # head gradients are counted by the kernel itself, as strip_logsumexp
    # counts dF and dG, so they are live under the meter when it returns
    rng = np.random.default_rng(8)
    n, m, h = kernels.HEAD_STRIP + 3, 13, 5
    A, B = rng.normal(size=(n, h)), rng.normal(size=(m, h))
    r = rng.integers(0, m, size=n)
    w2, b2 = rng.normal(size=(h, 1)), np.ones(1)
    c = MemCounter()
    with use_meter(c):
        _, gA, gB, tail = kernels.head_strip_loss(A, B, r, 2.0, w2, b2,
                                                  "tanh")
        assert c.live["gradient-cache"] == gA.size + gB.size == (n + m) * h
        assert c.live["parameters"] == sum(g.size for g in tail) == 2 * h + 1
        assert c.live["activation"] == 0
        del gA, gB, tail
    assert c.live == dict.fromkeys(CATEGORIES, 0)


@pytest.mark.parametrize("bad", [-1, 13])
def test_head_strip_loss_rejects_a_positive_out_of_range(bad):
    # positives are read at flat offsets i * m + r_i, where r_i = -1 or
    # m would read a neighbouring anchor's score
    rng = np.random.default_rng(9)
    A, B = rng.normal(size=(5, 3)), rng.normal(size=(13, 3))
    r = np.full(5, 2)
    r[3] = bad
    with pytest.raises(IndexError, match="out of range for 13 targets"):
        kernels.head_strip_loss(A, B, r, 1.0, np.ones((3, 1)), np.ones(1),
                                "tanh")


def _dense_head_grads(A, B, r, scale, w2, b2, activation):
    # the head over all n x m pairs at once, in plain numpy, with B
    # carrying b1: the loss, its gradients [gA, gB, gb1, gw2, gb2], and
    # for each gradient the same sums over the magnitudes of their terms
    n = A.shape[0]
    pre = A[:, None] + B[None]
    hid = {"tanh": np.tanh(pre), "relu": np.maximum(pre, 0.0),
           "linear": pre}[activation]
    slope = {"tanh": 1.0 - hid * hid, "relu": (hid > 0).astype(float),
             "linear": np.ones_like(hid)}[activation]
    z = scale * (np.einsum("ijk,k->ij", hid, w2[:, 0]) + b2)
    top = z.max(axis=1, keepdims=True)
    e = np.exp(z - top)
    lse = top[:, 0] + np.log(e.sum(axis=1))
    loss = np.mean(lse - z[np.arange(n), r])
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(n), r] -= 1.0
    p *= scale / n

    def grads(p, slope, hid, w):
        return [np.einsum("ij,ijk,k->ik", p, slope, w),
                np.einsum("ij,ijk,k->jk", p, slope, w),
                np.einsum("ij,ijk,k->k", p, slope, w),
                np.einsum("ij,ijk->k", p, hid)[:, None],
                np.array([p.sum()])]

    return (loss, grads(p, slope, hid, w2[:, 0]),
            grads(np.abs(p), np.abs(slope), np.abs(hid), np.abs(w2[:, 0])))


@pytest.mark.parametrize("activation", kernels.ACTIVATIONS)
@pytest.mark.parametrize("n, m", [(kernels.HEAD_STRIP + 3, 13),
                                  (2 * kernels.HEAD_STRIP, 7)])
def test_head_strip_loss_gradients_match_a_dense_reference(activation, n, m):
    # n != m, a ragged last strip or whole strips, and repeated positives
    rng = np.random.default_rng(11)
    h = 5
    A, B = rng.normal(size=(n, h)), rng.normal(size=(m, h))
    r = rng.integers(0, m, size=n)
    r[:3] = r[3]
    b1, w2, b2 = (rng.normal(size=shape) for shape in (h, (h, 1), 1))
    B += b1  # the target side carries b1, as kernels.head_target_side adds it
    loss, gA, gB, tail = kernels.head_strip_loss(A, B, r, 1.5, w2, b2,
                                                 activation)
    want_loss, want, terms = _dense_head_grads(A, B, r, 1.5, w2, b2,
                                               activation)
    assert abs(loss - want_loss) <= 1e-13 * abs(want_loss)
    # each row of dL/dd sums to zero, so gb2 is zero in exact arithmetic,
    # and with a linear head's unit slope so are gA and gb1: their
    # roundoff is bounded by the size of the terms summed, not the result
    exact_zero = {4} | ({0, 2} if activation == "linear" else set())
    for k, (got, ref, mag) in enumerate(zip([gA, gB] + tail, want, terms)):
        assert got.shape == ref.shape
        size = np.max(mag) if k in exact_zero else np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-13 * size, k
