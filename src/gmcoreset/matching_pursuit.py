"""Orthogonal matching pursuit over a dense column dictionary.

Greedily selects dictionary columns to approximate a target vector,
re-fitting the weights of the whole selection by least squares after
every pick.  The Gram matrix of the selected columns is factorized
incrementally (one Cholesky row per pick), so selecting n columns from
a D x N dictionary costs O(DNn + Dn^2 + n^3) time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

# Schur complements at or below this fraction of the candidate's squared
# norm are treated as linear dependence on the current selection.
DEPENDENT_RTOL = 1e-12


class SingularGramError(ValueError):
    """The Gram matrix of the selected columns is numerically singular."""


@dataclass
class GradientMatrix:
    """Dense dictionary of gradient embeddings, one column per example.

    Args:
      data: D x N array, 64-bit float; column i is the embedding of
        example i.  Its Euclidean column norms are computed on
        construction.
    """

    data: np.ndarray
    column_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(
                f"dictionary must be a D x N matrix with D, N >= 1, got shape {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("dictionary contains non-finite entries")
        self.column_norms = np.linalg.norm(self.data, axis=0)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def num_columns(self) -> int:
        return self.data.shape[1]


@dataclass
class CoresetSelection:
    """Ordered column indices and their refit weights.

    ``truncated`` is set when selection stopped before reaching the
    requested size because the next-best candidate was linearly
    dependent on the columns already selected (a smaller exact coreset).
    """

    indices: np.ndarray
    weights: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must have equal length")
        if len(np.unique(self.indices)) != self.indices.size:
            raise ValueError("selected indices must be distinct")

    @property
    def size(self) -> int:
        return int(self.indices.size)


def cholesky_append(lower: np.ndarray, cross: np.ndarray, diag: float) -> np.ndarray:
    """Extend a Cholesky factor by one column of the underlying Gram matrix.

    Args:
      lower: lower-triangular L with L L^T equal to the current m x m
        Gram matrix of the selection (0 x 0 when empty).
      cross: inner products of the selected columns with the new column,
        length m.
      diag: squared norm of the new column, must be positive.

    Returns:
      Factor of the (m+1) x (m+1) Gram matrix, in O(m^2) time.

    Raises:
      SingularGramError: the new column is linearly dependent on the
        selection (Schur complement <= DEPENDENT_RTOL * diag); the caller
        should stop selecting.
    """
    cross = np.asarray(cross, dtype=np.float64)
    diag = float(diag)
    if diag <= 0.0:
        raise ValueError(f"diag must be positive, got {diag}")
    m = lower.shape[0]
    if cross.shape != (m,):
        raise ValueError(f"cross term must have length {m}, got shape {cross.shape}")
    if m == 0:
        w = np.zeros(0)
    else:
        w = solve_triangular(lower, cross, lower=True)
    schur = diag - float(w @ w)
    if schur <= DEPENDENT_RTOL * diag:
        raise SingularGramError(
            f"candidate column is linearly dependent on the selection "
            f"(schur complement {schur:.3e} <= {DEPENDENT_RTOL:.0e} * {diag:.3e})"
        )
    grown = np.zeros((m + 1, m + 1))
    grown[:m, :m] = lower
    grown[m, :m] = w
    grown[m, m] = np.sqrt(schur)
    return grown


def refit_weights(
    G: GradientMatrix, indices: np.ndarray, target: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Least-squares weights of the selected columns against the target.

    Solves the normal equations through two triangular solves with the
    maintained Cholesky factor ``lower``; the residual target - G_I w is
    orthogonal to every selected column.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("cannot refit an empty selection")
    if lower.shape[0] != indices.size:
        raise ValueError("Cholesky factor does not match the selection size")
    if np.any(np.diag(lower) <= 0.0):
        raise SingularGramError("non-positive diagonal in the Cholesky factor")
    rhs = G.data[:, indices].T @ target
    half = solve_triangular(lower, rhs, lower=True)
    return solve_triangular(lower.T, half, lower=False)


def omp_select(G: GradientMatrix, target: np.ndarray, n: int) -> CoresetSelection:
    """Greedy sparse approximation of ``target`` by at most ``n`` columns.

    Each round picks the admissible column maximizing the correlation
    ratio |<g_k, r>| / ||g_k|| with the current residual r, then re-fits
    all weights by exact least squares on the selected support, so the
    residual norm never increases.

    Args:
      G: column dictionary.
      target: vector of length G.dim.
      n: maximum selection size; requires n <= N and n <= D (the Gram
        matrix of more than D columns is always singular).

    Zero-norm columns and already-selected columns are never candidates;
    score ties break toward the lowest column index.  A linearly
    dependent best candidate stops the selection early with
    ``truncated=True`` rather than raising.
    """
    target = np.asarray(target, dtype=np.float64)
    D, N = G.data.shape
    if target.shape != (D,):
        raise ValueError(f"target must have length {D}, got shape {target.shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target contains non-finite entries")
    n = int(n)
    if n < 1:
        raise ValueError(f"selection size must be positive, got {n}")
    if n > N:
        raise ValueError(f"selection size {n} exceeds the number of columns {N}")
    if n > D:
        raise ValueError(
            f"selection size {n} exceeds the embedding dimension {D}; "
            f"a valid selection requires D >= n"
        )

    norms = G.column_norms
    admissible = norms > 0.0
    safe_norms = np.where(admissible, norms, 1.0)
    indices: list[int] = []
    weights = np.zeros(0)
    chol = np.zeros((0, 0))
    residual = target.copy()
    truncated = False

    while len(indices) < n:
        ratios = np.abs((residual @ G.data) / safe_norms)
        ratios[~admissible] = -np.inf
        k = int(np.argmax(ratios))
        if not np.isfinite(ratios[k]):
            truncated = True  # no admissible column left
            break
        cross = G.data[:, indices].T @ G.data[:, k] if indices else np.zeros(0)
        try:
            chol = cholesky_append(chol, cross, float(norms[k]) ** 2)
        except SingularGramError:
            truncated = True
            break
        indices.append(k)
        admissible[k] = False
        weights = refit_weights(G, np.asarray(indices), target, chol)
        residual = target - G.data[:, indices] @ weights

    return CoresetSelection(np.asarray(indices, dtype=np.int64), weights, truncated=truncated)


def selection_residual(G: GradientMatrix, target: np.ndarray, selection: CoresetSelection) -> np.ndarray:
    """Residual target - G_I w of a selection."""
    if selection.size == 0:
        return np.asarray(target, dtype=np.float64).copy()
    return np.asarray(target, dtype=np.float64) - G.data[:, selection.indices] @ selection.weights
