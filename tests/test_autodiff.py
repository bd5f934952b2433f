import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import deep, encoders, memtrace, multiworker, trainer
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


def _encoder(x, arrays, acts):
    # the encoder op over the rows x; arrays holds each layer's w and b
    return ad.record("encoder", x, *arrays, acts=tuple(acts))


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
    np.testing.assert_array_equal(tape.grad(x), np.ones(4))
    with pytest.raises(TapeReuseError, match="single-use"):
        tape.backward(s)
    # the refused second backward added nothing
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


def _leaf_matmul_grad(x, w, buf=None):
    """Tape, leaf and gradient of sum(x @ w) with respect to x."""
    tape = Tape()
    leaf = tape.leaf(x, buf)
    with ad.recording(tape):
        s = ad.sum_all(ad.matmul(leaf, w))
    tape.backward(s)
    return tape, leaf


def test_leaf_gradient_buffer_receives_the_gradient_in_place():
    rng = np.random.default_rng(21)
    x, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    buf0 = rng.normal(size=(3, 4))
    ref_tape, ref_leaf = _leaf_matmul_grad(x, w)
    buf = buf0.copy()
    tape, leaf = _leaf_matmul_grad(x, w, buf)
    assert tape.grad(leaf) is buf
    assert np.array_equal(buf, buf0 + ref_tape.grad(ref_leaf))


def test_leaf_gradient_buffer_must_match_the_leaf_shape():
    with pytest.raises(ShapeMismatchError, match="leaf gradient"):
        Tape().leaf(np.ones((2, 3)), np.zeros((3, 2)))


def test_added_in_gradient_is_released_before_the_next_vjp():
    # three branches off one leaf with a preset buffer: each branch's
    # VJP returns a transient that is added into the buffer, and the live
    # activation count must be back where it was before the next VJP
    x = np.arange(6.0)
    meter = memtrace.MemCounter()
    with meter.activate():
        tape = Tape()
        leaf = tape.leaf(x, np.zeros(6))
        with ad.recording(tape):
            parts = [ad.scalar_mul(c, leaf) for c in (2.0, 3.0, 5.0)]
            s = ad.sum_all(ad.add(ad.add(parts[0], parts[1]), parts[2]))
        live = {}
        for t in parts:
            node = tape.nodes[t.index]

            def spy(ctx, g, taped, vjp=node.vjp, k=t.index):
                live[k] = meter.live["activation"]
                return vjp(ctx, g, taped)

            node.vjp = spy
        tape.backward(s)
        after = meter.live["activation"]
    assert len(set(live.values())) == 1
    assert after == live[parts[0].index]
    np.testing.assert_array_equal(tape.grad(leaf), np.full(6, 10.0))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_forward_values_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    cases = [
        (ad.matmul(ad.constant(a), ad.constant(b)), a @ b),
        (_encoder(ad.constant(a), [b, b[0]], ["tanh"]),
         np.tanh(a @ b + b[0])),
        (_encoder(ad.constant(a), [b, b[0], b.T, a[0]], ["relu", "linear"]),
         np.maximum(a @ b + b[0], 0.0) @ b.T + a[0]),
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
    out_d = _encoder(ad.constant(x), [x, x[0]], ["linear"])
    out_t = ad.activation(ad.constant(x), "tanh")
    out_u = ad.activation(ad.constant(x), "relu")
    x[:] = 7.0
    np.testing.assert_array_equal(out_r.data, np.ones((9, 1)))
    np.testing.assert_array_equal(out_i.data, np.ones((2, 3)))
    np.testing.assert_array_equal(out_l.data, np.full((3, 1), 1.0 + np.log(3.0)))
    np.testing.assert_array_equal(out_p.data, np.ones((3, 1)))
    np.testing.assert_array_equal(out_d.data, np.full((3, 3), 4.0))
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
    with pytest.raises(ShapeMismatchError, match="encoder"):
        _encoder(ad.constant(np.ones((2, 3))),
                   [np.ones((3, 4)), np.ones(3)], ["tanh"])
    # a later layer's weight must take the earlier layer's width
    with pytest.raises(ShapeMismatchError, match="encoder"):
        _encoder(ad.constant(np.ones((2, 3))),
                   [np.ones((3, 4)), np.ones(4), np.ones((3, 2)),
                    np.ones(2)], ["tanh", "linear"])


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
    # the encoder op over each of its inputs, for every activation: a
    # layer of that activation under a tanh layer, so the slope is
    # checked both on the top layer and below another layer
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    w2 = rng.normal(size=(4, 5))
    b2 = rng.normal(size=5)
    wd = rng.normal(size=(6, 5))
    for act in ("tanh", "relu", "linear"):
        def layers(xt, arrays, act=act):
            return ad.sum_all(ad.mul(_encoder(xt, arrays, [act, "tanh"]),
                                     ad.constant(wd)))
        _check(lambda t: layers(t, [w, b, w2, b2]), x)
        _check(lambda t: layers(ad.constant(x), [t, b, w2, b2]), w)
        _check(lambda t: layers(ad.constant(x), [w, t, w2, b2]), b)
        _check(lambda t: ad.sum_all(ad.mul(
            _encoder(ad.constant(x), [w, b, t, b2], ["tanh", act]),
            ad.constant(wd))), w2)


def _dense_values(x, w, b, act, seed):
    # out, dx, dw and db of a one-layer encoder node
    tape = Tape()
    with ad.recording(tape):
        leaves = [tape.leaf(a.copy()) for a in (x, w, b)]
        out = _encoder(leaves[0], leaves[1:], [act])
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
    # linear has no slope to apply: no gradient may alias the seed, and
    # no slope may be written into the seed or the node's output
    rng = np.random.default_rng(12)
    x, w, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 4)), np.zeros(4)
    for act in ("linear", "tanh", "relu"):
        seed = rng.normal(size=(3, 4))
        seed0 = seed.copy()
        tape = Tape()
        with ad.recording(tape):
            leaves = [tape.leaf(a) for a in (x, w, b)]
            out = _encoder(leaves[0], leaves[1:], [act])
        out0 = out.data.copy()
        tape.backward(out, grad=seed)
        for leaf in leaves:
            assert not np.shares_memory(tape.grad(leaf), seed)
        assert np.array_equal(seed, seed0)
        assert np.array_equal(out.data, out0)
    with pytest.raises(ValueError, match="unknown activation"):
        _encoder(x, [w, b], ["swish"])
    with pytest.raises(ValueError, match="unknown activation"):
        ad.activation(x, "swish")


# "dense" is a one-layer encoder node
@pytest.mark.parametrize("op", ["dense", "matmul"])
def test_backward_computes_no_gradient_for_a_constant_input(op, monkeypatch):
    # a first encoder layer's input is a constant: g @ w.T would be an
    # n x k product that no one reads, so the VJP must not compute it
    rng = np.random.default_rng(13)
    n, k, m = 5, 3, 7
    x, w, b = rng.normal(size=(n, k)), rng.normal(size=(k, m)), rng.normal(size=m)
    seed = rng.normal(size=(n, m))

    def run(x_is_leaf):
        tape = Tape()
        with ad.recording(tape):
            xt = tape.leaf(x) if x_is_leaf else ad.constant(x)
            leaves = [tape.leaf(w), tape.leaf(b)]
            out = (_encoder(xt, leaves, ["tanh"]) if op == "dense"
                   else ad.matmul(xt, leaves[0]))
        shapes = []
        real = np.matmul

        def spy(a, c, *args, **kwargs):
            res = real(a, c, *args, **kwargs)
            shapes.append(res.shape)
            return res

        monkeypatch.setattr(np, "matmul", spy)
        try:
            tape.backward(out, grad=seed)
        finally:
            monkeypatch.undo()
        return shapes, [tape.grad(leaf) for leaf in leaves]

    taped_shapes, taped_grads = run(True)
    const_shapes, const_grads = run(False)
    assert (n, k) in taped_shapes
    assert (n, k) not in const_shapes
    for a, r in zip(const_grads, taped_grads):
        assert np.array_equal(a, r)


@pytest.mark.parametrize("ctx", [("same",), ("rows",)])
def test_add_vjp_makes_nothing_for_a_constant_input(ctx):
    # the cached step2 adds a constant lse column to the taped -pos column:
    # the constant's side gets None, not a copy of g nobody reads
    rng = np.random.default_rng(14)
    g = rng.normal(size=(4, 3))
    bw = ad.OPS["add"][1]
    both = bw(ctx, g, (0, 1))
    gx, gy = bw(ctx, g, (None, 1))
    assert gx is None
    assert np.array_equal(gy, both[1]) and not np.shares_memory(gy, g)
    gx, gy = bw(ctx, g, (0, None))
    assert gy is None
    assert np.array_equal(gx, both[0]) and not np.shares_memory(gx, g)
    # on a tape: the leaf's gradient is the one it gets beside a leaf
    y = rng.normal(size=(4, 3) if ctx == ("same",) else 3)
    grads = []
    for y_is_leaf in (True, False):
        tape = Tape()
        with ad.recording(tape):
            xt = tape.leaf(rng.normal(size=(4, 3)))
            yt = tape.leaf(y) if y_is_leaf else ad.constant(y)
            out = ad.add(xt, yt)
        tape.backward(out, grad=g)
        grads.append(tape.grad(xt))
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(grads[1], g)


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
