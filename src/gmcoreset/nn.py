"""Plain-numpy MLP classifier with analytic gradients.

ReLU hidden layers, softmax cross-entropy with per-example loss weights,
Adam updates, and uniform fan-in initialization.  All parameters live in
one float64 vector, so a gradient is written into one buffer and an Adam
step is a few in-place vector operations.  Everything is 64-bit and
deterministic given the seeds, which makes the training loop usable both
as a learner and as a source of gradient embeddings.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MlpArch:
    """Layer sizes of the classifier; ``hidden=()`` gives a linear model."""

    input_dim: int
    hidden: tuple[int, ...] = (128, 128)
    num_classes: int = 2

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden, self.num_classes)
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all layer dimensions must be >= 1, got {dims}")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for every layer, output layer last."""
        sizes = (self.input_dim, *self.hidden, self.num_classes)
        return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


def param_count(layer_dims: list[tuple[int, int]]) -> int:
    """Length of the flat layout [W1, b1, ..., Wk, bk] of these layers."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in layer_dims)


def pass_bytes(layer_dims: list[tuple[int, int]], rows: int, first: int = 0) -> int:
    """Bytes one forward and backward pass over ``rows`` examples, down to
    layer ``first``, holds at once.

    Per example, in float64: every hidden layer's pre-activation and
    activation (a hidden layer's delta takes its pre-activation's place);
    the logits, the shifted logits and softmax (then the output delta); four
    scalars (row max, row sum, the label's index and entry); and one byte
    per logit and per unit of the widest hidden layer from ``first`` on (the
    finiteness and ReLU masks).  Beside them one ufunc buffer: numpy casts
    or broadcasts an operand in chunks of at most ``np.getbufsize()``
    elements.
    """
    hidden = [fan_out for _, fan_out in layer_dims[:-1]]
    classes = layer_dims[-1][1]
    per_row = 8 * (2 * sum(hidden) + 3 * classes + 4) + classes + max(hidden[first:], default=0)
    return rows * per_row + 8 * min(np.getbufsize(), rows * max(hidden + [classes]))


class MlpParams:
    """Every weight and bias in one float64 vector ``flat``, laid out
    [W1, b1, ..., Wk, bk] in C order.

    ``weights[l]`` (fan_out x fan_in) and ``biases[l]`` are views into
    ``flat``: writing through them writes the vector.  ``flat`` may also be
    a C-ordered (N, P) matrix with that layout in each row; the views then
    have shapes (N, fan_out, fan_in) and (N, fan_out).
    """

    def __init__(self, flat: np.ndarray, layer_dims: list[tuple[int, int]]):
        size = param_count(layer_dims)
        if flat.ndim not in (1, 2) or flat.shape[-1] != size or flat.dtype != np.float64:
            raise ValueError(f"expected {size} float64 parameters per row, got {flat.dtype} {flat.shape}")
        if not flat.flags.c_contiguous:
            raise ValueError("parameter rows must be C-ordered, so that views write into them")
        self.flat = flat
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rows, offset = flat.shape[:-1], 0
        for fan_in, fan_out in layer_dims:
            bias = offset + fan_in * fan_out
            self.weights.append(flat[..., offset:bias].reshape(*rows, fan_out, fan_in))
            self.biases.append(flat[..., bias : bias + fan_out])
            offset = bias + fan_out

    @classmethod
    def zeros(cls, layer_dims: list[tuple[int, int]]) -> "MlpParams":
        return cls(np.zeros(param_count(layer_dims)), layer_dims)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        return [(w.shape[-1], w.shape[-2]) for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams(self.flat.copy(), self.layer_dims)


# Adam's moment decay rates and the denominator's guard term.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 1e-3
    batch_size: int = 100
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class AdamState:
    """First/second moment vectors, laid out like ``MlpParams.flat``, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: MlpParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))

    def copy(self) -> "AdamState":
        return AdamState(self.m.copy(), self.v.copy(), self.step)


def learner_peak_bytes(
    arch: MlpArch, batch_size: int, test_rows: int, carries_moments: bool
) -> int:
    """Bytes that training and evaluating one model hold at their peak, beyond the data.

    Eight float64 vectors of ``param_count`` entries: the caller's
    parameters, ``train_steps``' copies of them and of the Adam moments,
    its gradient, and ``adam_step``'s g * g, update and scale; two more
    when the caller ``carries_moments``, its own Adam moments, from one
    training call to the next, as replay does.  Beside them a minibatch's
    gathered features, labels and weights with its pass (``pass_bytes``),
    and the evaluation's pass over ``test_rows`` examples, both counted.
    Pure arithmetic, so it can bound a config before anything is allocated.
    """
    dims = arch.layer_dims()
    batch = max(batch_size, 2)  # replay pairs a batch row with a memory row at batch_size 1
    minibatch = 8 * batch * (arch.input_dim + 2) + pass_bytes(dims, batch)
    vectors = 10 if carries_moments else 8
    return 8 * vectors * param_count(dims) + minibatch + pass_bytes(dims, test_rows)


def init_sample(arch: MlpArch, seed: int) -> MlpParams:
    """Draw parameters from the initialization distribution.

    Every weight and bias of a layer with fan-in f is i.i.d.
    uniform(-1/sqrt(f), +1/sqrt(f)), drawn from a PCG64 generator
    (numpy's ``default_rng``) so draws are bit-reproducible per seed.
    """
    rng = np.random.default_rng(seed)
    params = MlpParams.zeros(arch.layer_dims())
    for (fan_in, fan_out), w, b in zip(arch.layer_dims(), params.weights, params.biases):
        bound = 1.0 / np.sqrt(fan_in)
        w[...] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b[...] = rng.uniform(-bound, bound, size=fan_out)
    return params


def _forward(params: MlpParams, X: np.ndarray):
    """Returns (layer inputs, hidden pre-activations, logits)."""
    activations = [X]
    pre = []
    a = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T
        z += b
        pre.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    logits = a @ params.weights[-1].T
    logits += params.biases[-1]
    return activations, pre, logits


def predict_logits(params: MlpParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    _, _, logits = _forward(params, X)
    return logits


def _output_delta(params: MlpParams, X: np.ndarray, y: np.ndarray):
    """(layer inputs, hidden pre-activations, logits, softmax - onehot) of a forward pass."""
    activations, pre, logits = _forward(params, X)
    finite = np.isfinite(logits)
    if not np.logical_and.reduce(finite, axis=None):
        bad = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise FloatingPointError(f"non-finite activations for example {bad}")
    e = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    delta = e / np.add.reduce(e, axis=1, keepdims=True)
    delta[np.arange(len(y)), y] -= 1.0
    return activations, pre, logits, delta


def _backprop(params: MlpParams, activations, pre, delta):
    """Lazily yield (layer, delta, input) from the output layer down: dW = delta^T input.

    A hidden layer's delta is written over its pre-activation, whose last
    reader it is, so ``pre`` is used up and every yielded delta stays valid.
    """
    layer = params.num_layers - 1
    yield layer, delta, activations[layer]
    for layer in range(layer - 1, -1, -1):
        active = pre[layer] > 0.0
        delta = np.matmul(delta, params.weights[layer + 1], out=pre[layer])
        delta *= active
        yield layer, delta, activations[layer]


def weighted_gradient(
    params: MlpParams, X: np.ndarray, y: np.ndarray, weights: np.ndarray, out: MlpParams
) -> None:
    """Write the exact gradient of the weighted softmax cross-entropy into ``out``.

    The loss is sum_i w_i * ce_i / sum_i w_i; individual weights may be
    negative (coreset refits produce them) but their sum must be
    positive.  ``out`` has the layout of ``params`` and is overwritten.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != y.shape or len(X) != len(y):
        raise ValueError("batch, labels and weights must have equal length")
    wsum = float(np.add.reduce(weights, axis=None))
    if wsum <= 0.0:
        raise ValueError(f"sum of example weights must be positive, got {wsum}")

    activations, pre, _, delta = _output_delta(params, X, y)
    delta *= (weights / wsum)[:, None]
    for layer, delta, inputs in _backprop(params, activations, pre, delta):
        np.matmul(delta.T, inputs, out=out.weights[layer])
        np.add.reduce(delta, axis=0, out=out.biases[layer])


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    A non-finite gradient, or one whose square 2 * g * g overflows, raises
    before anything is changed.
    """
    g = grads.flat
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # The bias-corrected second moment v / (1 - b2**t) is a weighted mean of
    # past g * g, so it stays finite if every g * g does with room for
    # rounding, here a factor of 2.  g * g grows with |g| and rounding keeps
    # that order, so testing the largest entry tests them all; Python floats
    # overflow to inf without a warning, and a nan anywhere makes ``big`` nan
    big = float(np.maximum.reduce(np.abs(g)))
    if not math.isfinite(2.0 * big * big):
        if not math.isfinite(big):
            raise FloatingPointError("non-finite gradient in Adam update")
        raise FloatingPointError(
            f"Adam second moment overflows: a gradient entry of {big:.3g} squares "
            "past the float64 range (standardize the features)"
        )
    g2 = (1.0 - b2) * g * g
    state.step += 1
    mc, vc = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += g2
    update = m / mc
    update *= config.step_size
    scale = v / vc
    np.sqrt(scale, out=scale)
    scale += ADAM_EPS
    update /= scale
    params.flat -= update


def shuffled_batches(
    n: int, batch_size: int, epochs: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Row-index minibatches: a fresh permutation of range(n) per epoch, cut into
    chunks of ``batch_size``.  Lazy, so a caller may draw from ``rng`` between batches."""
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield perm[start : start + batch_size]


def train_steps(
    params: MlpParams,
    state: AdamState,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    config: TrainConfig,
    batches: Iterable[np.ndarray],
) -> tuple[MlpParams, AdamState]:
    """The training loop: one Adam step per row-index array in ``batches``,
    on copies of ``params`` and ``state``, which are returned."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("training set must be non-empty")
    params, state = params.copy(), state.copy()
    grads = MlpParams.zeros(params.layer_dims)
    for idx in batches:
        weighted_gradient(params, X[idx], y[idx], weights[idx], grads)
        adam_step(params, grads, state, config)
    return params, state


def train(
    params: MlpParams,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    config: TrainConfig,
) -> MlpParams:
    """Train from the given parameters with a fresh optimizer state for
    ``config.epochs`` seeded shuffles of the training set."""
    rng = np.random.default_rng(config.seed)
    batches = shuffled_batches(len(X), config.batch_size, config.epochs, rng)
    params, _ = train_steps(params, AdamState.zeros(params), X, y, weights, config, batches)
    return params


def evaluate(params: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; logit ties go to the lower class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("test set must be non-empty")
    predictions = np.argmax(predict_logits(params, X), axis=1)
    return float(np.mean(predictions == y))
