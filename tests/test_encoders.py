import numpy as np
import pytest

from splitgrad import autodiff as ad
from splitgrad import encoders
from splitgrad.autodiff import finite_diff_check


def test_init_params_shapes_and_bounds():
    p = encoders.init_params(0, [10, 8, 4])
    assert [w.shape for w, _ in p.layers] == [(10, 8), (8, 4)]
    assert [b.shape for _, b in p.layers] == [(8,), (4,)]
    assert p.activations == ["tanh", "linear"]
    assert p.in_dim == 10
    assert p.out_dim == 4
    for w, b in p.layers:
        fan_in = w.shape[0]
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
        assert np.all(b == 0.0)


def test_init_params_deterministic_per_seed():
    a = encoders.init_params(3, [5, 4])
    b = encoders.init_params(3, [5, 4])
    c = encoders.init_params(4, [5, 4])
    assert np.array_equal(a.layers[0][0], b.layers[0][0])
    assert not np.array_equal(a.layers[0][0], c.layers[0][0])


def test_init_params_validation():
    with pytest.raises(ValueError):
        encoders.init_params(0, [5])
    with pytest.raises(ValueError):
        encoders.init_params(0, [5, 4], activation="swish")


@pytest.mark.parametrize("dims", [[6, 4, 0], [6, 0, 4], [0, 4]])
def test_init_params_rejects_a_zero_width(dims):
    with pytest.raises(ValueError, match="at least 1"):
        encoders.init_params(1, dims)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_group_rejects_a_non_finite_array(value):
    group = encoders.params_to_group(encoders.init_params(1, [5, 4, 3]))
    group["arrays"]["layer1.b"][2] = value
    with pytest.raises(ValueError, match="layer1.b is empty or not finite"):
        encoders.params_from_group(group)


def test_encode_matches_manual_forward():
    rng = np.random.default_rng(1)
    p = encoders.init_params(2, [6, 5, 3])
    x = rng.normal(size=(7, 6))
    (w0, b0), (w1, b1) = p.layers
    expect = np.tanh(x @ w0 + b0) @ w1 + b1
    np.testing.assert_allclose(encoders.encode(p, x), expect, rtol=1e-12)
    with pytest.raises(ad.ShapeMismatchError, match="encoder"):
        encoders.encode(p, x[:, :5])


def test_encode_relu_activation():
    rng = np.random.default_rng(2)
    p = encoders.init_params(0, [4, 4, 2], activation="relu")
    x = rng.normal(size=(5, 4))
    (w0, b0), (w1, b1) = p.layers
    expect = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    np.testing.assert_allclose(encoders.encode(p, x), expect, rtol=1e-12)


def test_identity_params_pass_through():
    p = encoders.identity_params(5)
    x = np.random.default_rng(3).normal(size=(4, 5))
    np.testing.assert_array_equal(encoders.encode(p, x), x)


def test_encode_records_no_graph_by_default():
    tape = ad.Tape()
    p = encoders.init_params(0, [3, 2])
    with ad.recording(tape):
        n_before = len(tape)
        encoders.encode(p, np.ones((2, 3)))
        assert len(tape) == n_before


@pytest.mark.parametrize("dims", [[24, 32, 16], [24, 128, 128, 16]])
def test_encode_graph_records_one_encoder_node(dims):
    # two parameter leaves per layer and one encoder node over them all,
    # nothing else
    p = encoders.init_params(0, dims)
    tape = ad.Tape()
    with ad.recording(tape):
        leaves = encoders.make_leaves(p)
        encoders.encode_graph(leaves, ad.constant(np.ones((5, dims[0]))))
    n_layers = len(dims) - 1
    kinds = [node.op_kind for node in tape.nodes]
    assert kinds == ["leaf"] * (2 * n_layers) + ["encoder"]
    assert tape.nodes[-1].inputs == (None, *range(2 * n_layers))


def test_encode_graph_gradients_pass_finite_differences():
    rng = np.random.default_rng(4)
    p = encoders.init_params(5, [5, 6, 3])
    x = rng.normal(size=(4, 5))
    arrays = encoders.param_arrays(p)

    for j in range(len(arrays)):
        def f(leaf, j=j):
            tensors = [ad.constant(a) for a in arrays]
            tensors[j] = leaf
            leaves = encoders.params_from_arrays(p, tensors)
            out = encoders.encode_graph(leaves, x)
            return ad.sum_all(ad.activation(out, "tanh"))

        report = finite_diff_check(f, arrays[j])
        assert report.passed, (j, report.max_rel_err)


def test_param_arrays_round_trip():
    p = encoders.init_params(6, [4, 3, 2])
    arrays = encoders.param_arrays(p)
    assert len(arrays) == 4
    q = encoders.params_from_arrays(p, [a * 2.0 for a in arrays])
    np.testing.assert_array_equal(q.layers[0][0], 2.0 * p.layers[0][0])
    # original untouched
    np.testing.assert_array_equal(
        encoders.param_arrays(p)[0], arrays[0]
    )


def test_total_floats_counts_every_parameter():
    p = encoders.init_params(0, [10, 8, 4])
    assert encoders.total_floats(p) == 10 * 8 + 8 + 8 * 4 + 4


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_sgd_step_is_pure_and_correct():
    p = encoders.init_params(7, [3, 2])
    state = encoders.init_optimizer("sgd", lr=0.1)
    arrays = encoders.param_arrays(p)
    grads = [np.ones_like(a) for a in arrays]
    new_arrays, new_state = encoders.optimizer_step(state, arrays, grads)
    for old, new in zip(arrays, new_arrays):
        np.testing.assert_allclose(new, old - 0.1, rtol=1e-15)
    assert new_state.t == 1
    assert state.t == 0
    np.testing.assert_array_equal(encoders.param_arrays(p)[0], arrays[0])


def test_adam_state_threads_through_steps():
    rng = np.random.default_rng(8)
    arrays = [rng.normal(size=(4, 3))]
    state = encoders.init_optimizer("adam", lr=1e-2)
    ref_p = arrays[0].copy()
    ref_m = np.zeros_like(ref_p)
    ref_v = np.zeros_like(ref_p)
    for t in range(1, 4):
        grads = [rng.normal(size=(4, 3))]
        arrays, state = encoders.optimizer_step(state, arrays, grads)
        ref_m = 0.9 * ref_m + 0.1 * grads[0]
        ref_v = 0.999 * ref_v + 0.001 * grads[0] * grads[0]
        mhat = ref_m / (1 - 0.9 ** t)
        vhat = ref_v / (1 - 0.999 ** t)
        ref_p = ref_p - 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
        assert state.t == t
    np.testing.assert_allclose(arrays[0], ref_p, rtol=1e-12)


def test_adam_step_is_pure():
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(4, 3)), rng.normal(size=5)]
    state = encoders.init_optimizer("adam", lr=1e-2)
    for _ in range(2):
        grads = [rng.normal(size=a.shape) for a in arrays]
        kept = [[a.copy() for a in group] for group in (
            arrays, grads, state.m or [], state.v or [])]
        new_arrays, new_state = encoders.optimizer_step(state, arrays, grads)
        for group, before in zip(
                (arrays, grads, state.m or [], state.v or []), kept):
            for a, b in zip(group, before):
                np.testing.assert_array_equal(a, b)
        for new, old in zip(new_arrays, arrays):
            assert new is not old
        assert state.t == new_state.t - 1
        arrays, state = new_arrays, new_state


def test_optimizer_rejects_mismatched_grads():
    state = encoders.init_optimizer("sgd", lr=0.1)
    with pytest.raises(ValueError):
        encoders.optimizer_step(state, [np.ones((2, 2))], [np.ones(3)])
    with pytest.raises(ValueError):
        encoders.optimizer_step(state, [np.ones(2)], [])


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        encoders.init_optimizer("lion", lr=0.1)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_save_load_round_trip_exact(tmp_path):
    pf = encoders.init_params(9, [6, 5, 4])
    pg = encoders.init_params(10, [6, 5, 4])
    path = tmp_path / "params.json"
    encoders.save_params_file(path, {
        "f": encoders.params_to_group(pf),
        "g": encoders.params_to_group(pg),
    })
    groups = encoders.load_params_file(path)
    qf = encoders.params_from_group(groups["f"])
    qg = encoders.params_from_group(groups["g"])
    for a, b in zip(encoders.param_arrays(pf), encoders.param_arrays(qf)):
        assert np.array_equal(a, b)
    for a, b in zip(encoders.param_arrays(pg), encoders.param_arrays(qg)):
        assert np.array_equal(a, b)
    assert qf.activations == pf.activations


def test_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else", "version": 1, "groups": {}}')
    with pytest.raises(ValueError):
        encoders.load_params_file(path)
