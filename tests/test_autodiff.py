import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import deep, encoders, multiworker, trainer
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
from splitgrad.kernels import TILE
from splitgrad.loss import aligned_batch


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
        y = ad.activation(x, "tanh")
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
            out = ad.activation(x, "tanh")
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
        (ad.dense(ad.constant(a), ad.constant(b), ad.constant(b[0]), "tanh"),
         np.tanh(a @ b + b[0])),
        (ad.add(ad.constant(a), ad.constant(a)), a + a),
        (ad.mul(ad.constant(a), ad.constant(a)), a * a),
        (ad.scalar_mul(2.5, ad.constant(a)), 2.5 * a),
        (ad.activation(ad.constant(a), "relu"), np.maximum(a, 0.0)),
        (ad.activation(ad.constant(a), "tanh"), np.tanh(a)),
        (ad.sum_all(ad.constant(a)), np.asarray(a.sum())),
        (ad.reshape(ad.constant(a), (2, 10)), a.reshape(2, 10)),
        (ad.index_rows(ad.constant(a), np.array([2, 0, 2])), a[[2, 0, 2]]),
        (ad.pick_per_row(ad.constant(a), np.array([4, 0, 4, 1])),
         a[np.arange(4), [4, 0, 4, 1]][:, None]),
        (ad.dot_product_matrix(ad.constant(a), ad.constant(a)), a @ a.T),
        (ad.row_logsumexp(ad.constant(a), 0.5),
         np.log(np.exp(0.5 * a).sum(axis=1, keepdims=True))),
        (ad.strip_lse_loss(ad.constant(a), ad.constant(a[:3]),
                           ad.constant(a[:, :1]), 0.5),
         np.asarray(np.mean(np.log(np.exp(0.5 * a @ a[:3].T).sum(axis=1))
                            + a[:, 0]))),
    ]
    for out, expect in cases:
        np.testing.assert_allclose(out.data, expect, rtol=1e-13)
    # linear records nothing: the input comes back as it is
    c = ad.constant(a)
    assert ad.activation(c, "linear") is c


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
    out_p = ad.pick_per_row(ad.constant(x), np.array([0, 2, 1]))
    out_d = ad.dense(ad.constant(x), ad.constant(x), ad.constant(x[0]),
                     "linear")
    out_s = ad.strip_lse_loss(ad.constant(x), ad.constant(x),
                              ad.constant(x[:, :1]), 1.0)
    out_t = ad.activation(ad.constant(x), "tanh")
    out_u = ad.activation(ad.constant(x), "relu")
    x[:] = 7.0
    np.testing.assert_array_equal(out_r.data, np.ones((9, 1)))
    np.testing.assert_array_equal(out_i.data, np.ones((2, 3)))
    np.testing.assert_array_equal(out_l.data, np.full((3, 1), 1.0 + np.log(3.0)))
    np.testing.assert_array_equal(out_p.data, np.ones((3, 1)))
    np.testing.assert_array_equal(out_d.data, np.full((3, 3), 4.0))
    np.testing.assert_allclose(out_s.data, 4.0 + np.log(3.0), rtol=1e-15)
    np.testing.assert_array_equal(out_t.data, np.full((3, 3), np.tanh(1.0)))
    np.testing.assert_array_equal(out_u.data, np.ones((3, 3)))


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
        s = ad.sum_all(ad.activation(x, "relu"))
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


def test_pick_per_row_vjp_writes_one_entry_per_row():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(3, 1))
    idx = np.array([2, 2, 0])
    tape = Tape()
    with ad.recording(tape):
        x = tape.leaf(rng.normal(size=(3, 4)))
        s = ad.sum_all(ad.mul(ad.pick_per_row(x, idx), ad.constant(w)))
    tape.backward(s)
    expect = np.zeros((3, 4))
    expect[np.arange(3), idx] = w[:, 0]
    np.testing.assert_array_equal(tape.grad(x), expect)
    with pytest.raises(ShapeMismatchError, match="pick-per-row"):
        ad.pick_per_row(x, np.array([0, 1]))


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
        out = ad.activation(ad.matmul(ad.constant(x), wl), "tanh")
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
    with pytest.raises(ShapeMismatchError, match="dense"):
        ad.dense(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 4))),
                 ad.constant(np.ones(3)), "tanh")


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

    def f(a, b):
        return ad.sum_all(ad.activation(ad.matmul(a, b), "tanh"))

    _check(lambda t: f(t, ad.constant(w)), x)
    _check(lambda t: f(ad.constant(x), t), w)


def test_vjp_elementwise_ops():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    y = rng.normal(size=(4, 4))
    _check(lambda t: ad.sum_all(ad.mul(t, ad.constant(y))), x)
    _check(lambda t: ad.sum_all(ad.scalar_mul(0.3, t)), x)
    # the activation op, weighted so every slope is checked
    for act, shift in (("relu", 0.05), ("tanh", 0.0)):
        _check(lambda t, act=act: ad.sum_all(ad.mul(ad.activation(t, act),
                                                    ad.constant(y))),
               x + shift)


def test_vjp_row_softmax():
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 8))
    w = rng.normal(size=(5, 8))
    _check(lambda t: ad.sum_all(ad.mul(ad.row_softmax(t), ad.constant(w))), z)


def test_vjp_row_logsumexp():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 8))
    w = rng.normal(size=(5, 1))
    for scale in (1.0, 0.25):
        _check(lambda t: ad.sum_all(ad.mul(ad.row_logsumexp(t, scale),
                                           ad.constant(w))), z)


def test_strip_lse_loss_vjp_scales_saved_gradients_by_seed():
    rng = np.random.default_rng(10)
    F = rng.normal(size=(5, 3))
    G = rng.normal(size=(7, 3))
    col = rng.normal(size=(5, 1))
    scale, g = 0.5, 2.5
    tape = Tape()
    with ad.recording(tape):
        leaves = [tape.leaf(a) for a in (F, G, col)]
        out = ad.strip_lse_loss(*leaves, scale)
    tape.backward(out, grad=np.asarray(g))
    z = scale * F @ G.T
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    c = g * scale / 5
    for leaf, expect in zip(leaves, (c * p @ G, c * p.T @ F,
                                     np.full((5, 1), g / 5))):
        np.testing.assert_allclose(tape.grad(leaf), expect, rtol=1e-13)
    with pytest.raises(ShapeMismatchError, match="strip-lse-loss"):
        ad.strip_lse_loss(F, G, col[:4], scale)


def test_vjp_structure_ops():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    idx = np.array([4, 0, 4, 2])
    wr = rng.normal(size=(2, 9))
    wi = rng.normal(size=(4, 3))
    other = rng.normal(size=(5, 3))
    wp = rng.normal(size=(6, 1))
    _check(lambda t: ad.sum_all(ad.mul(ad.reshape(t, (2, 9)),
                                       ad.constant(wr))), x)
    _check(lambda t: ad.sum_all(ad.mul(ad.index_rows(t, idx),
                                       ad.constant(wi))), x)
    _check(lambda t: ad.sum_all(ad.mul(ad.pick_per_row(t, [2, 0, 1, 1, 2, 0]),
                                       ad.constant(wp))), x)
    _check(lambda t: ad.sum_all(ad.activation(ad.dot_product_matrix(
        t, ad.constant(other)), "tanh")), x)
    # the streamed loss over each of its inputs: F, G and the -pos column
    F, G, col = ad.constant(x), ad.constant(other), ad.constant(wp)
    _check(lambda t: ad.strip_lse_loss(t, G, col, 0.7), x)
    _check(lambda t: ad.strip_lse_loss(F, t, col, 0.7), other)
    _check(lambda t: ad.strip_lse_loss(F, G, t, 0.7), wp)
    # the fused layer over each of its inputs, for every activation
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    wd = rng.normal(size=(6, 4))
    for act in ("tanh", "relu", "linear"):
        def layer(xt, wt, bt, act=act):
            return ad.sum_all(ad.mul(ad.dense(xt, wt, bt, act),
                                     ad.constant(wd)))
        _check(lambda t: layer(t, ad.constant(w), ad.constant(b)), x)
        _check(lambda t: layer(ad.constant(x), t, ad.constant(b)), w)
        _check(lambda t: layer(ad.constant(x), ad.constant(w), t), b)


def _dense_values(x, w, b, act, seed):
    # out, dx, dw and db of one dense node
    tape = Tape()
    with ad.recording(tape):
        leaves = [tape.leaf(a.copy()) for a in (x, w, b)]
        out = ad.dense(*leaves, act)
    tape.backward(out, grad=seed.copy())
    return [out.data] + [tape.grad(leaf) for leaf in leaves]


def _reference_layer(x, w, b, act, seed):
    # the matmul and add ops on a tape; the activation and its slope in
    # plain numpy, so kernels.activate is not compared with itself
    tape = Tape()
    with ad.recording(tape):
        leaves = [tape.leaf(a.copy()) for a in (x, w, b)]
        pre = ad.add(ad.matmul(*leaves[:2]), leaves[2])
    if act == "tanh":
        out = np.tanh(pre.data)
        g_pre = seed * (1.0 - out * out)
    elif act == "relu":
        out = np.maximum(pre.data, 0.0)
        g_pre = seed * (pre.data > 0.0)
    else:
        out, g_pre = pre.data, seed.copy()
    tape.backward(pre, grad=g_pre)
    return [out] + [tape.grad(leaf) for leaf in leaves]


@pytest.mark.parametrize("act", ["tanh", "relu", "linear"])
def test_dense_matches_three_op_layer_bitwise(act):
    # every layer shape of the [24, 32, 16] and [24, 128, 128, 16] encoders
    shapes = [(24, 32), (32, 16), (24, 128), (128, 128), (128, 16)]
    rng = np.random.default_rng(11)
    for k, m in shapes:
        for n in (1, TILE - 1, TILE + 1, 2 * TILE + 3):
            x = rng.normal(size=(n, k))
            w = rng.normal(size=(k, m)) / np.sqrt(k)
            b = rng.normal(size=m)
            # a zero row and zero biases make some pre-activations exactly 0
            x[0] = 0.0
            b[: m // 4] = 0.0
            seed = rng.normal(size=(n, m))
            fused = _dense_values(x, w, b, act, seed)
            ref = _reference_layer(x, w, b, act, seed)
            for name, a, r in zip(("out", "dx", "dw", "db"), fused, ref):
                assert np.array_equal(a, r), (act, k, m, n, name)


def test_dense_vjp_returns_fresh_arrays():
    # linear has no slope to apply: no gradient may alias the seed
    rng = np.random.default_rng(12)
    x, w, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 4)), np.zeros(4)
    seed = rng.normal(size=(3, 4))
    tape = Tape()
    with ad.recording(tape):
        leaves = [tape.leaf(a) for a in (x, w, b)]
        out = ad.dense(*leaves, "linear")
    tape.backward(out, grad=seed)
    for leaf in leaves:
        assert not np.shares_memory(tape.grad(leaf), seed)
    with pytest.raises(ValueError, match="unknown activation"):
        ad.dense(x, w, b, "swish")
    with pytest.raises(ValueError, match="unknown activation"):
        ad.activation(x, "swish")


def test_finite_diff_check_samples_large_arrays():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 30))
    report = _check(lambda t: ad.sum_all(ad.activation(t, "tanh")), x,
                    n_samples=50, seed=1)
    assert report.n_checked == 50


def test_finite_diff_check_flags_wrong_gradient():
    # tanh pretending to be identity: analytic and numeric must disagree
    x = np.array([[0.5, -0.3], [0.2, 0.1]])

    class Wrong:
        def __call__(self, t):
            if t.is_taped:
                return ad.sum_all(t)
            return ad.sum_all(ad.activation(t, "tanh"))

    report = finite_diff_check(Wrong(), x)
    assert not report.passed


# ---------------------------------------------------------------------------
# op table
# ---------------------------------------------------------------------------

def test_every_op_in_the_table_is_recorded_by_some_path(monkeypatch):
    # one step of every training path plus the deep reference graph for
    # every head kind; an op none of them records is dead weight
    kinds = set()
    real = ad.record

    def spy(op_kind, *inputs, **attrs):
        kinds.add(op_kind)
        return real(op_kind, *inputs, **attrs)

    monkeypatch.setattr(ad, "record", spy)
    rng = np.random.default_rng(13)
    batch = aligned_batch(rng.normal(size=(12, 5)), rng.normal(size=(12, 5)))
    pf = encoders.init_params(1, [5, 6, 4])
    pg = encoders.init_params(2, [5, 6, 4])
    opt = encoders.init_optimizer("sgd", 1e-3)
    config = trainer.TrainConfig(1.0, 4, 4)
    trainer.train_step_direct(batch, pf, pg, opt)
    trainer.train_step_cached(batch, pf, pg, opt, config)
    trainer.train_step_accumulation(batch, pf, pg, opt, 4)
    multiworker.train_step_multi(multiworker.WorkerGroup(2, pf, pg, opt),
                                 batch, config)
    heads = [deep.init_distance_head(3, 4, 3, act) for act in ("tanh", "relu")]
    deep.train_step_deep(batch, pf, pg, heads[0], opt,
                         deep.DeepConfig(1.0, 4, 4))
    for head in heads + [deep.dot_head(4)]:
        deep.deep_direct_grads(batch, pf, pg, head)
    # the step benchmark still names row-softmax, so it stays until the
    # benchmark stops naming it
    assert kinds == set(ad.OPS) - {"row-softmax"}


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
