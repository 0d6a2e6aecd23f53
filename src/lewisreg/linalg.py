"""Dense symmetric-positive-definite kernels used by the weight computations.

Everything here operates on plain float64 numpy arrays. Matrices are small in
the column dimension (d up to a few hundred); row counts may be large, so Gram
accumulation is blocked and summed pairwise to keep rounding error down when
row weights span many orders of magnitude.
"""

from dataclasses import dataclass, field

import numpy as np

# scipy.linalg.lapack is imported inside the functions that call it: loading
# it costs about 0.25 s, which the full LAD solve and the generators never need

__all__ = [
    "DataError",
    "RankDeficiencyError",
    "WeightVector",
    "as_design_matrix",
    "as_vector",
    "equilibrate_columns",
    "weighted_gram",
    "SpdFactorization",
    "spd_factorize",
    "row_quadratic_forms",
    "leverage_scores",
]

# Pivots below this fraction of the largest diagonal entry are treated as zero.
MIN_PIVOT_REL = 1e-12

_GRAM_BLOCK = 1024


class DataError(ValueError):
    """Input refused by a check: malformed data, or an argument outside its
    range. Messages name the offending line or value; the CLI exits 2."""


class RankDeficiencyError(ValueError):
    """A matrix that must be full column rank (to pivot tolerance) is not."""


@dataclass(frozen=True)
class WeightVector:
    """Per-row importance scores with a tag saying what they are.

    kind is one of "lewis", "leverage", or "sampling". Sampling vectors carry
    the budget they were scaled to (their entries sum to it).
    """

    values: np.ndarray
    kind: str
    budget: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("weight vector must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("weight vector has non-finite entries")
        if np.any(v < 0):
            raise ValueError("weight vector has negative entries")
        if self.kind not in ("lewis", "leverage", "sampling"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "sampling" and self.budget is None:
            raise ValueError("sampling weights need a declared budget")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def total(self) -> float:
        return float(np.sum(self.values))


def as_design_matrix(X, *, require_tall: bool = True) -> np.ndarray:
    """Validate and return X as a float64 2-D array (n rows, d columns)."""
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise DataError(f"design matrix must be 2-D, got shape {A.shape}")
    n, d = A.shape
    if n < 1 or d < 1:
        raise DataError(f"design matrix must be nonempty, got shape {A.shape}")
    if require_tall and n < d:
        raise DataError(f"need at least as many rows as columns, got {n}x{d}")
    if not np.all(np.isfinite(A)):
        raise DataError("design matrix has non-finite entries")
    return A


def as_vector(v, *, length: int | None = None) -> np.ndarray:
    A = np.asarray(v, dtype=np.float64)
    if A.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {A.shape}")
    if length is not None and A.shape[0] != length:
        raise ValueError(f"expected length {length}, got {A.shape[0]}")
    if not np.all(np.isfinite(A)):
        raise DataError("vector has non-finite entries")
    return A


def weighted_gram(X: np.ndarray, row_scale: np.ndarray) -> np.ndarray:
    """Sum of row_scale[i] * x_i x_i^T, accumulated blockwise with a pairwise
    reduction over blocks, then symmetrized."""
    n, d = X.shape
    if row_scale.shape[0] != n:
        raise ValueError("row scale length does not match row count")
    if n <= _GRAM_BLOCK:
        G = X.T @ (X * row_scale[:, None])
    else:
        blocks = []
        for start in range(0, n, _GRAM_BLOCK):
            Xb = X[start : start + _GRAM_BLOCK]
            sb = row_scale[start : start + _GRAM_BLOCK]
            blocks.append(Xb.T @ (Xb * sb[:, None]))
        # np.sum over the stacked axis reduces pairwise
        G = np.sum(np.stack(blocks), axis=0)
    return 0.5 * (G + G.T)


@dataclass(frozen=True)
class SpdFactorization:
    """Pivoted Cholesky factorization of a symmetric positive-definite matrix.

    Satisfies A[perm][:, perm] = L L^T. Refuses matrices whose smallest pivot
    falls below min_pivot_rel times the largest diagonal entry.
    """

    dim: int
    lower: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)


def spd_factorize(A: np.ndarray, *, min_pivot_rel: float = MIN_PIVOT_REL) -> SpdFactorization:
    from scipy.linalg.lapack import dpstrf
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    d = A.shape[0]
    max_diag = float(np.max(A.diagonal())) if d else 0.0
    if max_diag <= 0:
        raise RankDeficiencyError("matrix has no positive diagonal entry")
    c, piv, rank, info = dpstrf(A, lower=1, tol=min_pivot_rel * max_diag)
    if info < 0:
        raise ValueError(f"factorization failed with LAPACK code {info}")
    if rank < d:
        raise RankDeficiencyError(
            f"matrix is rank deficient to tolerance: rank {rank} < {d} "
            f"(min pivot below {min_pivot_rel:.1e} x max diagonal)"
        )
    L = np.tril(c)
    perm = np.asarray(piv, dtype=np.intp) - 1
    return SpdFactorization(dim=d, lower=L, perm=perm)


def row_quadratic_forms(F: SpdFactorization, M: np.ndarray) -> np.ndarray:
    """x_i^T A^{-1} x_i for every row x_i of M, as the squared row norms of
    M R with R[perm] = L^{-T}: one d x d triangular inverse (LAPACK dtrtri on
    the F-ordered L^T) and one GEMM."""
    if M.shape[1] != F.dim:
        raise ValueError("column count does not match factorization dimension")
    from scipy.linalg.lapack import dtrtri
    Lt_inv, info = dtrtri(F.lower.T, lower=0)
    if info:
        raise np.linalg.LinAlgError(f"triangular inverse failed: info {info}")
    R = np.empty((F.dim, F.dim))
    R[F.perm] = Lt_inv
    Z = M @ R
    return np.einsum("ij,ij->i", Z, Z)


def orthonormal_column_basis(X: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column space of X at the detected rank.

    Row importance scores (leverage, Lewis) depend only on the column space,
    so callers may substitute this basis when X itself is column-rank
    deficient by construction.
    """
    U, s, _ = np.linalg.svd(np.asarray(X, dtype=np.float64), full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise RankDeficiencyError("matrix has no nonzero columns")
    rank = int(np.sum(s > rtol * s[0]))
    return U[:, :rank]


def equilibrate_columns(X: np.ndarray) -> np.ndarray:
    """Scale columns to unit max-abs. Row importance scores are invariant
    under column scaling, so this only conditions the gram matrices."""
    col_scale = np.abs(X).max(axis=0)
    if np.any(col_scale == 0):
        raise RankDeficiencyError("matrix has an all-zero column")
    return X / col_scale


def leverage_scores(X) -> WeightVector:
    """Statistical leverage of each row: x_i^T (X^T X)^{-1} x_i.

    Scores lie in [0, 1] and sum to d for full-column-rank X. Raises
    RankDeficiencyError when X is rank deficient to pivot tolerance.
    """
    X = equilibrate_columns(as_design_matrix(X))
    G = weighted_gram(X, np.ones(X.shape[0]))
    F = spd_factorize(G)
    l = row_quadratic_forms(F, X)
    return WeightVector(np.clip(l, 0.0, 1.0), kind="leverage")
