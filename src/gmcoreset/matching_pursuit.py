"""Orthogonal matching pursuit over a column dictionary.

Greedily selects dictionary columns to approximate a target vector; each
pick maximizes the correlation with the residual of the exact
least-squares fit on the picks so far.  The loop is Batch-OMP: it
updates the correlations by a recurrence on the incremental Cholesky
factor of the selection's Gram matrix (one row per pick), never forming
the residual, and fits the weights once, after the last pick.  Near-ties
in the scores (TIE_RTOL) are rescored from the explicit residual, so
every pick, the weights and the early stop are those of the plain loop
that refits after every pick.  The triangular solves call LAPACK
directly, through scipy's extension module ``scipy.linalg._flapack``,
which the first selection loads by itself: neither importing this module
nor selecting imports ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

# Schur complements at or below this fraction of the candidate's squared
# norm are treated as linear dependence on the current selection.
DEPENDENT_RTOL = 1e-12

# The largest N / n at which a selection takes its Gram columns from the
# full Gram (see _DensePicks).  On a 2-core OpenBLAS host at D = 2048,
# n = 100, the Gram side was 1.9x faster at N / n = 4 and level at
# N / n = 12-16; at D = 8000, N = 4000, n = 100 (one-shot selection,
# N / n = 40) the Gram alone took 1.3-2.2 s against 1.8-1.9 s for the
# whole per-pick selection.  Streaming re-selection (N / n <= 2.25)
# falls on the Gram side with a margin.
GRAM_MAX_RATIO = 4

# Picks whose best two ratios differ by at most this fraction of the
# largest first-pick ratio are rescored exactly.  The score recurrence
# drifted at most 3.4e-15 of that scale over 64 000 streaming picks
# (D = 1024, N <= 400, n = 200), so only ties and noise-level residuals
# fall inside it.
TIE_RTOL = 1e-9


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
        with np.errstate(over="ignore"):  # omp_select raises on a norm that overflows
            self.column_norms = np.linalg.norm(self.data, axis=0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def scores(self, v: np.ndarray) -> np.ndarray:
        return v @ self.data

    def picks(self, n: int) -> _DensePicks:
        """The state of one selection of at most ``n`` columns, none picked yet."""
        return _DensePicks(self.data, n)


class _DensePicks:
    """The columns one selection picked from a dense D x N dictionary, copied
    to a column-major D x n buffer (no gathers).  Gram columns come from the
    full N x N Gram, computed once, when N <= min(D, GRAM_MAX_RATIO * n): it
    is then no larger than the dictionary, and most of its columns are used.
    Otherwise each pick computes its column as one D x N product, so time
    stays linear in N.  Selecting n columns costs O(DN^2 + Nn^2 + Dn^2 + n^3)
    time with the full Gram and O(DNn + Dn^2 + n^3) without.
    """

    def __init__(self, data: np.ndarray, n: int):
        D, N = data.shape
        self.data, self.size = data, 0
        self.picked = np.empty((D, n), order="F")
        self.gram = data.T @ data if N <= min(D, GRAM_MAX_RATIO * n) else None

    def cross(self, k: int) -> np.ndarray:
        """G_S^T g_k by a GEMV; a lookup into Gram column k would not give the same bits."""
        return self.picked[:, : self.size].T @ self.data[:, k]

    def add(self, k: int) -> None:
        self.picked[:, self.size] = self.data[:, k]
        self.size += 1

    def gram_column(self, k: int) -> np.ndarray:
        return self.gram[k] if self.gram is not None else self.picked[:, self.size - 1] @ self.data

    def rhs(self, t: np.ndarray) -> np.ndarray:
        return self.picked[:, : self.size].T @ t

    def rescore(self, t: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
        np.matmul(t - self.picked[:, : self.size] @ w, self.data, out=out)


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
        ordered = np.sort(self.indices, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("selected indices must be distinct")

    @property
    def size(self) -> int:
        return int(self.indices.size)


@functools.cache
def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded by itself once per process:
    importing ``scipy.linalg`` would run about 85 modules to reach it.  CPython enters the
    module in ``sys.modules``, so a later ``import scipy.linalg`` reuses it."""
    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve_lower(factor: np.ndarray, rhs: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve ``L @ x = rhs``, or ``L.T @ x = rhs`` when ``transposed``.

    ``factor`` is C-ordered and L the leading m x m lower triangle of its
    first m = len(rhs) rows; nothing past them is read.  The transpose of
    those rows is the Fortran-ordered upper triangle, with leading
    dimension the row length, that LAPACK ``dtrtrs`` reads in place.  For
    a square factor these are the operands ``scipy.linalg.solve_triangular``
    passes, so the solution has the same bits, without that wrapper's
    per-call validation; ``_lapack`` loads the extension at the first call.
    A zero on the diagonal raises ``SingularGramError``; a non-finite
    solution, which overflow or a non-finite ``rhs`` gives, raises
    ``ValueError``.
    """
    x, info = _lapack().dtrtrs(factor[: len(rhs)].T, rhs, lower=0, trans=0 if transposed else 1)
    if info != 0:
        raise SingularGramError(f"triangular solve failed (LAPACK dtrtrs info {info})")
    if not np.isfinite(x).all():
        raise ValueError("triangular solve produced non-finite values")
    return x


def cholesky_append(factor: np.ndarray, cross: np.ndarray, diag: float) -> None:
    """Grow a Cholesky factor by one row of the underlying Gram matrix, in place.

    Args:
      factor: C-ordered buffer whose first m rows hold, in their leading
        m x m block, the lower-triangular L with L L^T the selection's
        Gram matrix.  Row m is written in O(m^2) time; nothing else moves.
      cross: inner products of the m selected columns with the new one.
      diag: squared norm of the new column, must be positive.

    Raises:
      SingularGramError: the new column is linearly dependent on the
        selection (Schur complement <= DEPENDENT_RTOL * diag); the caller
        should stop selecting.
    """
    if diag <= 0.0:
        raise ValueError(f"diag must be positive, got {diag}")
    m = len(cross)
    if min(factor.shape) <= m:
        raise ValueError(f"factor buffer of shape {factor.shape} has no room for row {m}")
    w = _solve_lower(factor, cross) if m else np.zeros(0)
    schur = diag - float(w @ w)
    if schur <= DEPENDENT_RTOL * diag:
        raise SingularGramError(
            f"candidate column is linearly dependent on the selection "
            f"(schur complement {schur:.3e} <= {DEPENDENT_RTOL:.0e} * {diag:.3e})"
        )
    factor[m, :m] = w
    factor[m, m] = np.sqrt(schur)


def refit_weights(rhs: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Least-squares weights w of the selected columns G_S against a target t.

    ``rhs`` is G_S^T t, in selection order, and ``factor`` a buffer whose
    first m = len(rhs) rows hold the Cholesky factor of G_S^T G_S, as
    ``cholesky_append`` grows it.  Solves the normal equations through two
    triangular solves, so the residual t - G_S w is orthogonal to every
    selected column.
    """
    m = len(rhs)
    if m == 0:
        raise ValueError("cannot refit an empty selection")
    if factor.shape[0] < m:
        raise ValueError(f"fewer factor rows than columns to refit: {factor.shape[0]} < {m}")
    if np.any(np.diag(factor[:m]) <= 0.0):
        raise SingularGramError("non-positive diagonal in the Cholesky factor")
    return _solve_lower(factor, _solve_lower(factor, rhs), transposed=True)


def _best_ratio(
    scores: np.ndarray, safe_norms: np.ndarray, excluded: np.ndarray, ratios: np.ndarray
) -> int:
    """Fill ``ratios`` with |scores| / norms, -inf where excluded, and return its argmax."""
    np.divide(scores, safe_norms, out=ratios)
    np.abs(ratios, out=ratios)
    ratios[excluded] = -np.inf
    return int(np.argmax(ratios))


def omp_select(G: GradientMatrix, target: np.ndarray, n: int) -> CoresetSelection:
    """Greedy sparse approximation of ``target`` by at most ``n`` columns.

    Each round picks the admissible column maximizing the correlation
    ratio |<g_k, r>| / ||g_k|| with the current residual r, where r is
    the residual of the exact least-squares fit of ``target`` on the
    columns selected so far, so the residual norm never increases.

    The loop is Batch-OMP (Rubinstein, Zibulevsky & Elad 2008): it keeps
    the scores c = G^T r without forming r or the weights.  With L the
    Cholesky factor of the selection's Gram matrix and B = K_S L^-T the
    N x m product of the dictionary's Gram columns K_S at the selection,
    c = G^T t - B L^-1 G_S^T t.  Picking column k as the m-th appends
    b = (K[:, k] - B L[m, :m]) / L[m, m] to B and updates
    c -= b * (c[k] / L[m, m]), one N x m product per pick.  The weights
    are refit once, after the last pick, by ``refit_weights``.  The loop
    reads ``G`` only through ``shape``, ``column_norms``, ``scores(v)`` =
    v @ G and the state ``picks = G.picks(n)``: ``cross(k)`` = G_S^T g_k,
    ``add(k)``, ``gram_column(k)`` = G^T g_k of the last pick, ``rhs(t)``
    = G_S^T t and ``rescore(t, w, out)``, which writes G^T (t - G_S w).

    The cross terms of each pick with the selection and the Cholesky
    update are exact, so ``truncated`` is decided as in the plain loop.
    L is one n x n buffer: ``cholesky_append`` writes its row m in place
    at the m-th pick, and the recurrence and ``refit_weights`` read it.
    The recurrence's scores drift from the exact ones by rounding; where
    the best two admissible ratios lie within TIE_RTOL times the largest
    first-pick ratio (a tie, or a residual at noise level), that pick is
    scored from the explicit residual of a refit instead, so the pick
    is the one the plain loop makes.

    Args:
      G: column dictionary.
      target: vector of length D, where G.shape is (D, N).
      n: maximum selection size; requires n <= N and n <= D (the Gram
        matrix of more than D columns is always singular).

    Zero-norm columns and already-selected columns are never candidates;
    score ties break toward the lowest column index.  A linearly
    dependent best candidate stops the selection early with
    ``truncated=True`` rather than raising.  Column norms or scores
    ``target @ G`` that overflow to non-finite values raise
    ``ValueError``.
    """
    D, N = G.shape
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

    # NaN ratios would rank no column, and the selection would stop empty as "truncated"
    norms = G.column_norms
    if not np.isfinite(norms).all():
        raise ValueError("dictionary column norms overflow to inf (standardize the features)")
    excluded = norms <= 0.0
    safe_norms = np.where(excluded, 1.0, norms)
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        scores = G.scores(target)
    if not np.isfinite(scores).all():
        raise ValueError("scores target @ G overflow to non-finite values (standardize features)")
    ratios = np.empty(N)
    picks = G.picks(n)
    basis = np.empty((N, n), order="F")
    indices: list[int] = []
    factor = np.zeros((n, n))
    truncated = False

    while len(indices) < n:
        m = len(indices)
        k = _best_ratio(scores, safe_norms, excluded, ratios)
        if not np.isfinite(ratios[k]):
            truncated = True  # no admissible column left
            break
        if m == 0:
            tie_atol = TIE_RTOL * ratios[k]
        elif ratios[k] - np.partition(ratios, -2)[-2] <= tie_atol:
            picks.rescore(target, refit_weights(picks.rhs(target), factor), out=scores)
            k = _best_ratio(scores, safe_norms, excluded, ratios)
        try:
            cholesky_append(factor, picks.cross(k), float(norms[k]) ** 2)
        except SingularGramError:
            truncated = True
            break
        picks.add(k)
        indices.append(k)
        excluded[k] = True
        if m + 1 == n:
            break
        b = basis[:, m]
        np.subtract(picks.gram_column(k), basis[:, :m] @ factor[m, :m], out=b)
        b /= factor[m, m]
        scores -= b * (scores[k] / factor[m, m])

    weights = refit_weights(picks.rhs(target), factor) if indices else np.zeros(0)
    return CoresetSelection(indices, weights, truncated=truncated)


def selection_residual(G: GradientMatrix, target: np.ndarray, selection: CoresetSelection) -> np.ndarray:
    """Residual target - G_I w of a selection."""
    return target - G.data[:, selection.indices] @ selection.weights
