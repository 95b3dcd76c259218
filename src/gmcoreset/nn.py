"""Plain-numpy MLP classifier with analytic gradients.

ReLU hidden layers, softmax cross-entropy with per-example loss weights,
Adam updates, and uniform fan-in initialization.  Everything is 64-bit
and deterministic given the seeds, which makes the training loop usable
both as a learner and as a source of gradient embeddings.
"""

from __future__ import annotations

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

    @property
    def penultimate_width(self) -> int:
        return self.hidden[-1] if self.hidden else self.input_dim


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def flatten(self) -> np.ndarray:
        """Concatenate [W1, b1, W2, b2, ...] in C order."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 1e-3
    batch_size: int = 100
    epochs: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: MlpParams) -> "AdamState":
        return cls(
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(w) for w in params.weights],
            [np.zeros_like(b) for b in params.biases],
            [np.zeros_like(b) for b in params.biases],
            step=0,
        )


def init_sample(arch: MlpArch, seed: int) -> MlpParams:
    """Draw parameters from the initialization distribution.

    Every weight and bias of a layer with fan-in f is i.i.d.
    uniform(-1/sqrt(f), +1/sqrt(f)), drawn from a PCG64 generator
    (numpy's ``default_rng``) so draws are bit-reproducible per seed.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in arch.layer_dims():
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights, biases)


def _forward(params: MlpParams, X: np.ndarray):
    """Returns (layer inputs, hidden pre-activations, logits)."""
    activations = [X]
    pre = []
    a = X
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    logits = a @ params.weights[-1].T + params.biases[-1]
    return activations, pre, logits


def predict_logits(params: MlpParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    _, _, logits = _forward(params, X)
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(
    params: MlpParams, X: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> tuple[float, MlpParams]:
    """Weighted softmax cross-entropy and its exact gradient.

    loss = sum_i w_i * ce_i / sum_i w_i; individual weights may be
    negative (coreset refits produce them) but their sum must be
    positive.  Returned gradients share the parameter structure.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != y.shape or len(X) != len(y):
        raise ValueError("batch, labels and weights must have equal length")
    wsum = float(weights.sum())
    if wsum <= 0.0:
        raise ValueError(f"sum of example weights must be positive, got {wsum}")

    activations, pre, logits = _forward(params, X)
    if not np.all(np.isfinite(logits)):
        bad = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        raise FloatingPointError(f"non-finite activations for example {bad}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ce = logsumexp - logits[np.arange(len(y)), y]
    loss = float(weights @ ce / wsum)

    probs = _softmax(logits)
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta *= (weights / wsum)[:, None]

    grad_w = [None] * params.num_layers
    grad_b = [None] * params.num_layers
    grad_w[-1] = delta.T @ activations[-1]
    grad_b[-1] = delta.sum(axis=0)
    for layer in range(params.num_layers - 2, -1, -1):
        delta = (delta @ params.weights[layer + 1]) * (pre[layer] > 0.0)
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
    return loss, MlpParams(grad_w, grad_b)


def adam_step(
    params: MlpParams, grads: MlpParams, state: AdamState, config: TrainConfig
) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; inputs are not mutated."""
    for g in (*grads.weights, *grads.biases):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in Adam update")
    t = state.step + 1
    b1, b2 = config.beta1, config.beta2
    mc = 1.0 - b1 ** t
    vc = 1.0 - b2 ** t

    new_w, new_b = [], []
    mw, vw, mb, vb = [], [], [], []
    for p, g, m, v in zip(params.weights, grads.weights, state.m_weights, state.v_weights):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_w.append(p - config.step_size * (m / mc) / (np.sqrt(v / vc) + config.eps))
        mw.append(m)
        vw.append(v)
    for p, g, m, v in zip(params.biases, grads.biases, state.m_biases, state.v_biases):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        new_b.append(p - config.step_size * (m / mc) / (np.sqrt(v / vc) + config.eps))
        mb.append(m)
        vb.append(v)
    return MlpParams(new_w, new_b), AdamState(mw, vw, mb, vb, step=t)


def train_steps(
    params: MlpParams,
    state: AdamState,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    config: TrainConfig,
    epochs: int | None = None,
) -> tuple[MlpParams, AdamState]:
    """Minibatch Adam over seeded shuffles, threading the optimizer state.

    Runs epochs * ceil(N / batch_size) steps; each epoch draws a fresh
    permutation from ``default_rng(config.seed)``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("training set must be non-empty")
    epochs = config.epochs if epochs is None else epochs
    rng = np.random.default_rng(config.seed)
    for _ in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = perm[start : start + config.batch_size]
            _, grads = loss_and_grad(params, X[idx], y[idx], weights[idx])
            params, state = adam_step(params, grads, state, config)
    return params, state


def train(
    params: MlpParams,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    config: TrainConfig,
) -> MlpParams:
    """Train from the given parameters with a fresh optimizer state."""
    state = AdamState.zeros(params)
    params, _ = train_steps(params, state, X, y, weights, config)
    return params


def evaluate(params: MlpParams, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; logit ties go to the lower class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("test set must be non-empty")
    predictions = np.argmax(predict_logits(params, X), axis=1)
    return float(np.mean(predictions == y))
