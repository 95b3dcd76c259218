import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset import nn

from oracles import flatten


def small_problem(seed, n=8, arch=None):
    arch = arch or nn.MlpArch(5, (6, 4), 3)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    w = rng.uniform(0.2, 2.0, size=n)
    return arch, X, y, w


def unflatten(arch, vec):
    params = nn.init_sample(arch, 0)
    offset = 0
    for layer, (fan_in, fan_out) in enumerate(arch.layer_dims()):
        params.weights[layer] = vec[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        params.biases[layer] = vec[offset : offset + fan_out].copy()
        offset += fan_out
    return params


def finite_difference_grad(arch, params, X, y, w, step=1e-5):
    flat = flatten(params)
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += step
        hi, _ = nn.loss_and_grad(unflatten(arch, bumped), X, y, w)
        bumped[i] -= 2 * step
        lo, _ = nn.loss_and_grad(unflatten(arch, bumped), X, y, w)
        grad[i] = (hi - lo) / (2 * step)
    return grad


# --- initialization -----------------------------------------------------------


def test_init_is_deterministic():
    arch = nn.MlpArch(7, (5,), 2)
    a, b = nn.init_sample(arch, 123), nn.init_sample(arch, 123)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_init_respects_fan_in_bound():
    params = nn.init_sample(nn.MlpArch(100, (20,), 5), 0)
    assert np.abs(params.weights[0]).max() <= 0.1
    assert np.abs(params.biases[0]).max() <= 0.1


def test_init_mean_is_centered():
    params = nn.init_sample(nn.MlpArch(400, (250,), 10), 7)
    entries = params.weights[0].ravel()
    bound = 1.0 / np.sqrt(400)
    stderr = (bound / np.sqrt(3.0)) / np.sqrt(entries.size)
    assert abs(entries.mean()) <= 3 * stderr


def test_empty_hidden_gives_linear_model():
    arch = nn.MlpArch(4, (), 3)
    params = nn.init_sample(arch, 0)
    assert params.num_layers == 1
    logits = nn.predict_logits(params, np.ones((2, 4)))
    assert logits.shape == (2, 3)


# --- loss and gradients ---------------------------------------------------------


def test_uniform_softmax_loss_is_log_k():
    arch = nn.MlpArch(5, (6,), 4)
    params = nn.init_sample(arch, 1)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    _, X, y, w = small_problem(2)
    loss, _ = nn.loss_and_grad(params, X, y, w)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_uniform_weights_equal_plain_mean():
    arch, X, y, _ = small_problem(3)
    params = nn.init_sample(arch, 3)
    loss, grads = nn.loss_and_grad(params, X, y, np.ones(len(y)))
    # independent per-example cross entropy
    logits = nn.predict_logits(params, X)
    ce = np.logaddexp.reduce(logits, axis=1) - logits[np.arange(len(y)), y]
    assert loss == pytest.approx(ce.mean(), rel=1e-12)
    scaled, grads7 = nn.loss_and_grad(params, X, y, np.full(len(y), 7.0))
    assert scaled == pytest.approx(loss, rel=1e-12)
    for a, b in zip(grads.weights, grads7.weights):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_rejects_degenerate_weights():
    arch, X, y, _ = small_problem(4)
    params = nn.init_sample(arch, 0)
    with pytest.raises(ValueError, match="positive"):
        nn.loss_and_grad(params, X, y, np.zeros(len(y)))
    with pytest.raises(ValueError, match="positive"):
        nn.loss_and_grad(params, X, y, -np.ones(len(y)))


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    arch, X, y, w = small_problem(seed)
    params = nn.init_sample(arch, seed + 100)
    _, grads = nn.loss_and_grad(params, X, y, w)
    numeric = finite_difference_grad(arch, params, X, y, w)
    analytic = flatten(grads)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 50.0))
def test_weight_scaling_leaves_loss_unchanged(seed, scale):
    arch, X, y, w = small_problem(seed % 1000)
    params = nn.init_sample(arch, seed % 977)
    base_loss, base_grads = nn.loss_and_grad(params, X, y, w)
    loss, grads = nn.loss_and_grad(params, X, y, scale * w)
    assert loss == pytest.approx(base_loss, rel=1e-12)
    for a, b in zip(grads.weights + grads.biases, base_grads.weights + base_grads.biases):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_weight_two_equals_duplicated_example():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 3))
    y = np.array([0, 1, 0])
    weighted = nn.loss_and_grad(params, X, y, np.array([2.0, 1.0, 1.0]))
    duplicated = nn.loss_and_grad(
        params, np.vstack([X[[0]], X]), np.array([0, 0, 1, 0]), np.ones(4)
    )
    assert weighted[0] == pytest.approx(duplicated[0], rel=1e-12)
    for a, b in zip(weighted[1].weights, duplicated[1].weights):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


# --- adam -----------------------------------------------------------------------


def test_adam_zero_gradient_is_a_no_op():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    grads = nn.MlpParams([np.zeros_like(w) for w in params.weights],
                         [np.zeros_like(b) for b in params.biases])
    state = nn.AdamState.zeros(params)
    updated, state = nn.adam_step(params, grads, state, nn.TrainConfig())
    for a, b in zip(updated.weights, params.weights):
        assert np.array_equal(a, b)
    assert all(np.all(m == 0) for m in state.m)
    assert state.step == 1


def test_adam_first_step_is_signed_step_size():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 0)
    c = 3.0
    grads = nn.MlpParams([np.full_like(w, c) for w in params.weights],
                         [np.full_like(b, c) for b in params.biases])
    config = nn.TrainConfig(step_size=1e-3)
    updated, _ = nn.adam_step(params, grads, nn.AdamState.zeros(params), config)
    expected = -config.step_size * c / (c + nn.ADAM_EPS)
    assert np.allclose(updated.weights[0] - params.weights[0], expected, rtol=1e-12)


def test_adam_rejects_non_finite_gradients():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 0)
    grads = nn.MlpParams([np.full_like(w, np.nan) for w in params.weights],
                         [np.zeros_like(b) for b in params.biases])
    with pytest.raises(FloatingPointError):
        nn.adam_step(params, grads, nn.AdamState.zeros(params), nn.TrainConfig())


def test_adam_descends_a_quadratic():
    # minimize 0.5 * (x - 3)^2 by feeding its gradient through the optimizer
    x = np.array([[10.0]])
    params = nn.MlpParams([x], [np.zeros(1)])
    state = nn.AdamState.zeros(params)
    config = nn.TrainConfig(step_size=0.1)
    start = 0.5 * (x[0, 0] - 3.0) ** 2
    for _ in range(100):
        grad = nn.MlpParams([params.weights[0] - 3.0], [np.zeros(1)])
        params, state = nn.adam_step(params, grad, state, config)
    assert 0.5 * (params.weights[0][0, 0] - 3.0) ** 2 < start


# --- training and evaluation ------------------------------------------------------


def test_train_overfits_one_example():
    arch = nn.MlpArch(4, (8,), 3)
    params = nn.init_sample(arch, 0)
    X = np.array([[1.0, -0.5, 0.25, 2.0]])
    y = np.array([2])
    config = nn.TrainConfig(step_size=1e-2, batch_size=1, epochs=300, seed=0)
    trained = nn.train(params, X, y, np.ones(1), config)
    assert nn.loss_and_grad(trained, X, y, np.ones(1))[0] <= 1e-3


def test_zero_epochs_returns_params_unchanged():
    arch, X, y, w = small_problem(0)
    params = nn.init_sample(arch, 0)
    out = nn.train(params, X, y, w, nn.TrainConfig(epochs=0))
    for a, b in zip(out.weights, params.weights):
        assert np.array_equal(a, b)


def test_train_separates_blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((100, 2)) + [4, 0],
                   rng.standard_normal((100, 2)) - [4, 0]])
    y = np.repeat([0, 1], 100)
    arch = nn.MlpArch(2, (16,), 2)
    config = nn.TrainConfig(batch_size=25, epochs=40, seed=1)
    trained = nn.train(nn.init_sample(arch, 1), X, y, np.ones(200), config)
    assert nn.evaluate(trained, X, y) >= 0.99


def test_train_is_bit_reproducible():
    arch, X, y, w = small_problem(9, n=30)
    config = nn.TrainConfig(batch_size=10, epochs=3, seed=4)
    a = nn.train(nn.init_sample(arch, 2), X, y, w, config)
    b = nn.train(nn.init_sample(arch, 2), X, y, w, config)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_evaluate_perfect_and_flipped():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 3)
    X = np.random.default_rng(1).standard_normal((20, 2))
    predicted = np.argmax(nn.predict_logits(params, X), axis=1)
    assert nn.evaluate(params, X, predicted) == 1.0
    assert nn.evaluate(params, X, 1 - predicted) == 0.0


def test_evaluate_ties_break_to_class_zero():
    arch = nn.MlpArch(3, (), 4)
    params = nn.init_sample(arch, 0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    X = np.ones((8, 3))
    y = np.repeat(np.arange(4), 2)  # balanced
    assert nn.evaluate(params, X, y) == pytest.approx(1.0 / 4.0)
