import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmcoreset import harness, nn
from gmcoreset.memory import RehearsalMemory
from gmcoreset.scenarios import Dataset

from oracles import (
    LayerAdamState,
    adam_step_by_layers,
    init_sample_by_layers,
    loss_and_grad,
    train_steps_by_layers,
)


def small_problem(seed, n=8, arch=None):
    arch = arch or nn.MlpArch(5, (6, 4), 3)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, arch.input_dim))
    y = rng.integers(0, arch.num_classes, size=n)
    w = rng.uniform(0.2, 2.0, size=n)
    return arch, X, y, w


def unflatten(arch, vec):
    return nn.MlpParams(vec.copy(), arch.layer_dims())


def finite_difference_grad(arch, params, X, y, w, step=1e-5):
    flat = params.flat
    grad = np.zeros_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += step
        hi, _ = loss_and_grad(unflatten(arch, bumped), X, y, w)
        bumped[i] -= 2 * step
        lo, _ = loss_and_grad(unflatten(arch, bumped), X, y, w)
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
    loss, _ = loss_and_grad(params, X, y, w)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_uniform_weights_equal_plain_mean():
    arch, X, y, _ = small_problem(3)
    params = nn.init_sample(arch, 3)
    loss, grads = loss_and_grad(params, X, y, np.ones(len(y)))
    # independent per-example cross entropy
    logits = nn.predict_logits(params, X)
    ce = np.logaddexp.reduce(logits, axis=1) - logits[np.arange(len(y)), y]
    assert loss == pytest.approx(ce.mean(), rel=1e-12)
    scaled, grads7 = loss_and_grad(params, X, y, np.full(len(y), 7.0))
    assert scaled == pytest.approx(loss, rel=1e-12)
    for a, b in zip(grads.weights, grads7.weights):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def test_rejects_degenerate_weights():
    arch, X, y, _ = small_problem(4)
    params = nn.init_sample(arch, 0)
    out = nn.MlpParams(np.full_like(params.flat, 2.5), arch.layer_dims())
    with pytest.raises(ValueError, match="positive"):
        nn.weighted_gradient(params, X, y, np.zeros(len(y)), out)
    with pytest.raises(ValueError, match="positive"):
        nn.weighted_gradient(params, X, y, -np.ones(len(y)), out)
    assert np.all(out.flat == 2.5)  # rejected before anything is written


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    arch, X, y, w = small_problem(seed)
    params = nn.init_sample(arch, seed + 100)
    grads = nn.MlpParams.zeros(arch.layer_dims())
    nn.weighted_gradient(params, X, y, w, grads)
    numeric = finite_difference_grad(arch, params, X, y, w)
    analytic = grads.flat
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 50.0))
def test_weight_scaling_leaves_loss_unchanged(seed, scale):
    arch, X, y, w = small_problem(seed % 1000)
    params = nn.init_sample(arch, seed % 977)
    base_loss, base_grads = loss_and_grad(params, X, y, w)
    loss, grads = loss_and_grad(params, X, y, scale * w)
    assert loss == pytest.approx(base_loss, rel=1e-12)
    for a, b in zip(grads.weights + grads.biases, base_grads.weights + base_grads.biases):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_weight_two_equals_duplicated_example():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 3))
    y = np.array([0, 1, 0])
    weighted = loss_and_grad(params, X, y, np.array([2.0, 1.0, 1.0]))
    duplicated = loss_and_grad(
        params, np.vstack([X[[0]], X]), np.array([0, 0, 1, 0]), np.ones(4)
    )
    assert weighted[0] == pytest.approx(duplicated[0], rel=1e-12)
    for a, b in zip(weighted[1].weights, duplicated[1].weights):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


# --- adam -----------------------------------------------------------------------


def test_adam_zero_gradient_is_a_no_op():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    before = params.flat.copy()
    state = nn.AdamState.zeros(params)
    nn.adam_step(params, nn.MlpParams.zeros(arch.layer_dims()), state, nn.TrainConfig())
    assert np.array_equal(params.flat, before)
    assert np.all(state.m == 0)
    assert state.step == 1


def test_adam_first_step_is_signed_step_size():
    arch = nn.MlpArch(2, (), 2)
    params = nn.init_sample(arch, 0)
    before = params.weights[0].copy()
    c = 3.0
    grads = nn.MlpParams(np.full_like(params.flat, c), arch.layer_dims())
    config = nn.TrainConfig(step_size=1e-3)
    nn.adam_step(params, grads, nn.AdamState.zeros(params), config)
    expected = -config.step_size * c / (c + nn.ADAM_EPS)
    assert np.allclose(params.weights[0] - before, expected, rtol=1e-12)


def test_adam_rejects_non_finite_gradients():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    state = nn.AdamState.zeros(params)
    grads = nn.MlpParams(np.full_like(params.flat, 0.5), arch.layer_dims())
    nn.adam_step(params, grads, state, nn.TrainConfig())
    before = params.flat.copy(), state.m.copy(), state.v.copy()
    grads.weights[0][1, 2] = np.nan
    with pytest.raises(FloatingPointError):
        nn.adam_step(params, grads, state, nn.TrainConfig())
    for kept, now in zip(before, (params.flat, state.m, state.v)):
        assert np.array_equal(kept, now)
    assert state.step == 1


def test_adam_rejects_a_gradient_whose_second_moment_overflows():
    arch = nn.MlpArch(3, (4,), 2)
    params = nn.init_sample(arch, 0)
    state = nn.AdamState.zeros(params)
    grads = nn.MlpParams(np.full_like(params.flat, 0.5), arch.layer_dims())
    nn.adam_step(params, grads, state, nn.TrainConfig())
    before = params.flat.copy(), state.m.copy(), state.v.copy()
    grads.weights[0][1, 2] = 1e200  # finite, but (1 - beta2) * g * g is not
    with pytest.raises(FloatingPointError, match="second moment overflows"):
        nn.adam_step(params, grads, state, nn.TrainConfig())
    for kept, now in zip(before, (params.flat, state.m, state.v)):
        assert np.array_equal(kept, now)
    assert state.step == 1


def largest_accepted_entry():
    """The largest float g whose 2 * g * g is finite: ``adam_step`` keeps a
    factor of 2 of the float64 range for the rounding of v / (1 - beta2**t)."""
    g = math.sqrt(sys.float_info.max / 2.0)
    while math.isfinite(2.0 * g * g):
        g = math.nextafter(g, math.inf)
    while not math.isfinite(2.0 * g * g):
        g = math.nextafter(g, 0.0)
    return g


BIG = largest_accepted_entry()


@pytest.mark.parametrize("entry, overflows", [
    (BIG, False), (math.nextafter(BIG, math.inf), True),
    (-BIG, False), (-math.nextafter(BIG, math.inf), True),
    (math.inf, True), (-math.inf, True), (math.nan, True), (0.0, False), (5e-324, False),
], ids=["largest", "next-up", "minus-largest", "minus-next-up", "inf", "minus-inf", "nan",
        "zero", "subnormal"])
def test_adam_raises_exactly_when_a_second_moment_term_is_not_finite(entry, overflows):
    # At step 1, 1 - beta2**t = 1 - beta2 makes v / (1 - beta2**t) largest,
    # g * g itself.  An accepted step must not warn: the suite turns
    # RuntimeWarnings into errors.
    arch = nn.MlpArch(3, (4,), 2)
    for steps_before in (0, 1):
        params = nn.init_sample(arch, 0)
        state = nn.AdamState.zeros(params)
        grads = nn.MlpParams(np.full_like(params.flat, 0.5), arch.layer_dims())
        for _ in range(steps_before):
            nn.adam_step(params, grads, state, nn.TrainConfig())
        grads.weights[0][1, 2] = entry
        before = params.flat.copy(), state.m.copy(), state.v.copy()
        if not overflows:
            nn.adam_step(params, grads, state, nn.TrainConfig())
            assert state.step == steps_before + 1
            assert np.isfinite(params.flat).all() and np.isfinite(state.v).all()
            if abs(entry) == BIG:  # a step against the gradient, not the zero of an inf scale
                assert (before[0][5] - params.weights[0][1, 2]) * np.sign(entry) > 0.0
            continue
        message = "second moment overflows" if math.isfinite(entry) else "non-finite gradient"
        with pytest.raises(FloatingPointError, match=message):
            nn.adam_step(params, grads, state, nn.TrainConfig())
        for kept, now in zip(before, (params.flat, state.m, state.v)):
            assert np.array_equal(kept, now)
        assert state.step == steps_before


def test_adam_descends_a_quadratic():
    # minimize 0.5 * (x - 3)^2 by feeding its gradient through the optimizer
    params = nn.MlpParams(np.array([10.0, 0.0]), [(1, 1)])  # x is the one weight
    state = nn.AdamState.zeros(params)
    config = nn.TrainConfig(step_size=0.1)
    start = 0.5 * (params.weights[0][0, 0] - 3.0) ** 2
    grad = nn.MlpParams.zeros([(1, 1)])
    for _ in range(100):
        grad.weights[0][...] = params.weights[0] - 3.0
        nn.adam_step(params, grad, state, config)
    assert 0.5 * (params.weights[0][0, 0] - 3.0) ** 2 < start


# --- training and evaluation ------------------------------------------------------


def test_train_overfits_one_example():
    arch = nn.MlpArch(4, (8,), 3)
    params = nn.init_sample(arch, 0)
    X = np.array([[1.0, -0.5, 0.25, 2.0]])
    y = np.array([2])
    config = nn.TrainConfig(step_size=1e-2, batch_size=1, epochs=300, seed=0)
    trained = nn.train(params, X, y, np.ones(1), config)
    assert loss_and_grad(trained, X, y, np.ones(1))[0] <= 1e-3


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


def test_shuffled_batches_cut_one_fresh_permutation_per_epoch_lazily():
    rng, fresh = np.random.default_rng(6), np.random.default_rng(6)
    batches = nn.shuffled_batches(7, 3, 2, rng)
    for _ in range(2):
        perm = fresh.permutation(7)
        epoch = [next(batches) for _ in range(3)]
        assert [len(b) for b in epoch] == [3, 3, 1]
        assert np.array_equal(np.concatenate(epoch), perm)
        # a draw between epochs lands before the next permutation
        assert rng.integers(0, 100) == fresh.integers(0, 100)
    assert next(batches, None) is None


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


# --- the flat parameter vector ----------------------------------------------------


@pytest.mark.parametrize("hidden", [(), (6,), (32, 32)])
def test_weights_and_biases_are_views_of_flat(hidden):
    arch = nn.MlpArch(5, hidden, 3)
    for params in (nn.init_sample(arch, 0), nn.init_sample(arch, 0).copy()):
        assert params.flat.shape == (sum(fi * fo + fo for fi, fo in arch.layer_dims()),)
        for tensor in params.weights + params.biases:
            assert np.shares_memory(tensor, params.flat)
        params.biases[-1][0] = 123.0
        assert params.flat[-arch.num_classes] == 123.0


def test_flat_is_laid_out_layer_by_layer():
    arch = nn.MlpArch(5, (6, 4), 3)
    params = nn.init_sample(arch, 2)
    expected = np.concatenate([
        part for w, b in zip(params.weights, params.biases) for part in (w.ravel(), b)
    ])
    assert np.array_equal(params.flat, expected)


def test_params_reject_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="float64 parameters"):
        nn.MlpParams(np.zeros(5), [(1, 2)])


@pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
def test_rows_of_a_matrix_have_the_views_of_their_own_vectors(hidden):
    arch = nn.MlpArch(5, hidden, 3)
    dims = arch.layer_dims()
    matrix = np.random.default_rng(4).standard_normal((7, nn.MlpParams.zeros(dims).flat.size))
    rows = nn.MlpParams(matrix, dims)
    for i, row in enumerate(matrix):
        own = nn.MlpParams(row, dims)
        for a, b in zip(rows.weights + rows.biases, own.weights + own.biases):
            assert a[i].shape == b.shape and np.array_equal(a[i], b)


def test_writes_through_matrix_views_land_in_the_matrix():
    dims = nn.MlpArch(5, (6, 4), 3).layer_dims()
    matrix = np.zeros((7, nn.MlpParams.zeros(dims).flat.size))
    rows = nn.MlpParams(matrix, dims)
    for layer, (w, b) in enumerate(zip(rows.weights, rows.biases)):
        w[...] = 10.0 * layer + 1.0
        b[...] = 10.0 * layer + 2.0
    expected = nn.MlpParams.zeros(dims)
    for layer, (w, b) in enumerate(zip(expected.weights, expected.biases)):
        w[...] = 10.0 * layer + 1.0
        b[...] = 10.0 * layer + 2.0
    assert np.array_equal(matrix, np.tile(expected.flat, (7, 1)))


@pytest.mark.parametrize("layout", ["fortran", "column-slice", "wide-rows", "three-dims"])
def test_params_reject_a_matrix_that_views_could_not_write_into(layout):
    dims = nn.MlpArch(5, (6,), 3).layer_dims()
    size = nn.MlpParams.zeros(dims).flat.size
    matrix = {
        "fortran": np.zeros((7, size), order="F"),
        "column-slice": np.zeros((7, size + 3))[:, :size],
        "wide-rows": np.zeros((7, size + 1)),
        "three-dims": np.zeros((2, 7, size)),
    }[layout]
    with pytest.raises(ValueError, match="C-ordered|float64 parameters"):
        nn.MlpParams(matrix, dims)


# --- exactness against the per-layer form ------------------------------------------


def assert_params_equal(params, layers):
    for a, b in zip(params.weights + params.biases, layers.weights + layers.biases):
        assert np.array_equal(a, b)


def assert_state_equal(state, layers, layer_dims):
    assert state.step == layers.step
    for flat, tensors in ((state.m, layers.m), (state.v, layers.v)):
        view = nn.MlpParams(flat, layer_dims)
        for a, b in zip(view.weights + view.biases, tensors):
            assert np.array_equal(a, b)


HIDDEN_SIZES = [(), (6,), (32, 32), (128, 128)]


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
def test_init_sample_equals_per_layer_draws(hidden):
    arch = nn.MlpArch(5, hidden, 3)
    assert_params_equal(nn.init_sample(arch, 17), init_sample_by_layers(arch, 17))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weighted_gradient_equals_loss_and_grad(seed):
    arch, X, y, w = small_problem(seed % 1000)
    params = nn.init_sample(arch, seed % 977)
    out = nn.MlpParams(np.full_like(params.flat, np.nan), arch.layer_dims())
    nn.weighted_gradient(params, X, y, w, out)
    assert np.array_equal(out.flat, loss_and_grad(params, X, y, w)[1].flat)


def shuffled(n, config, epochs=None):
    """The minibatches ``nn.train`` feeds ``nn.train_steps`` for ``config``."""
    epochs = config.epochs if epochs is None else epochs
    return nn.shuffled_batches(n, config.batch_size, epochs, np.random.default_rng(config.seed))


def signed_weights(n, rng):
    """Weights in [0.5, 2] with two entries of -0.1: every minibatch of two or
    more examples has a positive sum."""
    w = rng.uniform(0.5, 2.0, size=n)
    w[[1, n // 2]] = -0.1
    return w


@pytest.mark.parametrize("hidden", HIDDEN_SIZES)
@pytest.mark.parametrize("n, batch_size, signed", [(21, 10, False), (23, 10, True)],
                         ids=["last-batch-of-1", "negative-weights"])
def test_train_steps_equal_per_layer_training(hidden, n, batch_size, signed):
    arch, X, y, w = small_problem(n, n=n, arch=nn.MlpArch(5, hidden, 3))
    if signed:
        w = signed_weights(n, np.random.default_rng(n))
    config = nn.TrainConfig(step_size=0.05, batch_size=batch_size, epochs=3, seed=8)
    start, layers = nn.init_sample(arch, 4), init_sample_by_layers(arch, 4)
    params, state = nn.train_steps(
        start, nn.AdamState.zeros(start), X, y, w, config, shuffled(n, config)
    )
    expected, expected_state = train_steps_by_layers(
        layers, LayerAdamState.zeros(layers), X, y, w, config
    )
    assert state.step == 3 * -(-n // batch_size)
    assert_params_equal(params, expected)
    assert_state_equal(state, expected_state, arch.layer_dims())


@pytest.mark.parametrize("hidden", [(6,), (32, 32)])
def test_adam_state_threads_across_train_steps_calls_exactly(hidden):
    # replay trains task after task from the previous task's parameters and moments
    arch = nn.MlpArch(5, hidden, 3)
    _, X1, y1, w1 = small_problem(1, n=17, arch=arch)
    _, X2, y2, w2 = small_problem(2, n=13, arch=arch)
    first, second = (nn.TrainConfig(step_size=0.05, batch_size=5, seed=s) for s in (1, 2))
    params = nn.init_sample(arch, 3)
    state = nn.AdamState.zeros(params)
    layers = init_sample_by_layers(arch, 3)
    layer_state = LayerAdamState.zeros(layers)
    for (X, y, w), config in (((X1, y1, w1), first), ((X2, y2, w2), second)):
        params, state = nn.train_steps(params, state, X, y, w, config, shuffled(len(X), config, 2))
        layers, layer_state = train_steps_by_layers(layers, layer_state, X, y, w, config, epochs=2)
    assert_params_equal(params, layers)
    assert_state_equal(state, layer_state, arch.layer_dims())


def test_adam_step_equals_per_tensor_update():
    arch = nn.MlpArch(5, (6, 4), 3)
    params = nn.init_sample(arch, 5)
    layers = init_sample_by_layers(arch, 5)
    state, layer_state = nn.AdamState.zeros(params), LayerAdamState.zeros(layers)
    config = nn.TrainConfig(step_size=0.3)
    rng = np.random.default_rng(5)
    grads = nn.MlpParams.zeros(arch.layer_dims())
    for scale in (1.0, -2.0, 1e-9, 1e6):
        grads.flat[:] = scale * rng.standard_normal(grads.flat.size)
        nn.adam_step(params, grads, state, config)
        layers, layer_state = adam_step_by_layers(layers, grads, layer_state, config)
    assert_params_equal(params, layers)
    assert_state_equal(state, layer_state, arch.layer_dims())


def numpy_frames(run):
    """The number of Python frames ``run()`` enters whose code lies in numpy's package."""
    root = os.path.dirname(np.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code.co_filename.startswith(root)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return count


def test_the_step_loop_enters_no_numpy_python_frame_per_minibatch():
    # n and 4n rows at equal epochs: per-training and per-epoch frames are
    # allowed, a frame per minibatch (a wrapper such as np.sum) is not
    arch = nn.MlpArch(5, (8, 8), 3)
    config = nn.TrainConfig(step_size=0.05, batch_size=10, epochs=2, seed=1)
    start = nn.init_sample(arch, 0)
    _, X, y, w = small_problem(3, n=80, arch=arch)
    memory = RehearsalMemory(6, X[:6], y[:6], w[:6], seen=30)

    def train(n):
        return nn.train_steps(
            start, nn.AdamState.zeros(start), X[:n], y[:n], w[:n], config, shuffled(n, config)
        )

    def replay(n):
        batch = Dataset(X[:n], y[:n])
        return harness._replay_task(start, nn.AdamState.zeros(start), batch, memory, config, 2)

    for run in (train, replay):
        run(20)  # first calls may import or cache; count the later ones
        assert numpy_frames(lambda: run(20)) == numpy_frames(lambda: run(80))


# --- what training leaves alone ------------------------------------------------------


def test_train_and_train_steps_leave_their_arguments_unchanged():
    arch, X, y, w = small_problem(6, n=25)
    config = nn.TrainConfig(batch_size=10, epochs=2, seed=3)
    params = nn.init_sample(arch, 6)
    batches = list(shuffled(len(X), config))
    _, state = nn.train_steps(params, nn.AdamState.zeros(params), X, y, w, config, batches)
    kept = params.flat.copy(), state.m.copy(), state.v.copy(), state.step
    nn.train(params, X, y, w, config)
    nn.train_steps(params, state, X, y, w, config, batches)
    assert np.array_equal(params.flat, kept[0])
    assert np.array_equal(state.m, kept[1]) and np.array_equal(state.v, kept[2])
    assert state.step == kept[3]


@pytest.mark.parametrize("poison, error", [("features", FloatingPointError), ("weights", ValueError)])
def test_failed_training_leaves_its_arguments_unchanged(poison, error):
    arch, X, y, w = small_problem(8, n=20)
    params = nn.init_sample(arch, 8)
    config = nn.TrainConfig(batch_size=5, epochs=2, seed=1)
    first = shuffled(len(X), config, epochs=1)
    _, state = nn.train_steps(params, nn.AdamState.zeros(params), X, y, w, config, first)
    if poison == "features":
        X = X.copy()
        X[11] = np.nan  # in the second minibatch: one step is taken before the raise
    else:
        w = -w
    kept = params.flat.copy(), state.m.copy(), state.v.copy()
    with pytest.raises(error):
        nn.train_steps(params, state, X, y, w, config, shuffled(len(X), config))
    for before, now in zip(kept, (params.flat, state.m, state.v)):
        assert np.array_equal(before, now)
    assert state.step == 4
