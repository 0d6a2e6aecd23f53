"""L1 Lewis weights by fixed-point iteration.

The weights w of a matrix X are defined implicitly by

    w_i^2 = q_i(w) = x_i^T (sum_j (1/w_j) x_j x_j^T)^{-1} x_i.

The plain map w <- sqrt(q(w)) contracts log w by a factor of 1/2 (Cohen and
Peng, "Lp Row Sampling by Lewis Weights", STOC 2015), so each sweep halves
the defect and 1e-10 takes about 37 sweeps. lewis_weights accelerates it with
Anderson mixing (type II, depth 5; Walker and Ni, SIAM J. Numer. Anal. 49(4),
2011) on u = log w over g(u) = 1/2 log q(w), which brings that to about 7-15
sweeps. Convergence is measured as the maximum relative defect of the
identity itself, not as successive-iterate distance, and the vector returned
is the iterate that passed that test, so it certifies the definition directly
however the iterates were mixed.

The samplers need far less than 1e-10. An iterate whose defect is at most
gamma has |u - g(u)| <= -1/2 log(1 - gamma) in u = log w; as g contracts by
1/2, |u - u*| <= |u - g(u)| + |u - u*| / 2, so w lies within a factor
1/(1 - gamma) of the fixed point w* in every row, and its sum equals d only
within that factor. Sampling by such weights with the budget enlarged by
1/(1 - gamma)^2 gives every row at least the expected draws of exact weights,
the property Cohen and Peng's sampling lemma asks of approximate weights. The
samplers therefore stop at gamma = SAMPLING_TOL = 1e-2 (about 4-7 sweeps);
lewis_weights' default and the weights command keep 1e-10.

One sweep costs one weighted Gram and one n x d x d product for all n
quadratic forms, both in blocks of rows and the only passes over X, one
pivoted Cholesky of size d, and O(n) elementwise work plus O(5 n) for the
mixing. The sweeps read the caller's X (made C-contiguous) and copy none of
it. The weights do not change when columns are scaled, so the column scaling
that conditions the Gram lives in d x d matrices: power-of-two scales D, taken
from the first Gram's diagonal, scale the Gram to D G D and the factor the
quadratic forms apply, which gives the bits of the design X D. The first
sweep, at w = 1, also finds the zero rows (there q = 0 exactly), which then
leave the sweeps; its q(1) are the leverage scores, which leverage_scores
returns. Only a design whose X^T X diagonal over- or underflows
(column entries beyond about 1e+-120) is copied, once, scaled by powers of
two. At 50 000 x 20 a sampling-grade call allocates less than X itself.
"""

import math

import numpy as np

from . import linalg
from .linalg import (
    DataError,
    RankDeficiencyError,
    WeightVector,
    as_design_matrix,
    as_vector,
    row_quadratic_forms,
    spd_factorize,
)

__all__ = [
    "ConvergenceError",
    "SAMPLING_TOL",
    "lewis_weights",
    "leverage_scores",
    "verify_fixed_point",
    "sampling_values",
    "recommended_budget",
]


# Anderson mixing depth: how many past differences each sweep combines.
_ANDERSON_DEPTH = 5

# Sweeps lewis_weights runs before it raises ConvergenceError.
MAX_SWEEPS = 200

# Defect the samplers certify their Lewis weights to: each row is then within
# a factor 1/(1 - SAMPLING_TOL) of its exact weight (see the module docstring).
SAMPLING_TOL = 1e-2

# The constant C that recommended_budget multiplies its asymptotic rate by.
BUDGET_CONSTANT = 4.0

# The sweeps read X itself while X^T X's diagonal lies in [1 / _GRAM_RANGE,
# _GRAM_RANGE], column entries within about 1e+-120; else a scaled copy.
_GRAM_RANGE = 2.0**800

# Smallest normal float64: a quadratic form below it has lost digits.
_TINY = 2.0**-1022

# Rows with w^2 below this have their defect measured in log form, where
# neither w^2 nor q can underflow; above it, |w^2 - q| / w^2 as computed.
_TINY_W2 = 1e-30


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within MAX_SWEEPS.

    residual is the defect of the last iterate; best, when given, the
    smallest defect any iterate reached."""

    def __init__(self, msg: str, residual: float, best: float | None = None):
        super().__init__(msg)
        self.residual = residual
        self.best = best


class _GramOutOfRange(ArithmeticError):
    """X^T X has a diagonal entry outside [1 / _GRAM_RANGE, _GRAM_RANGE]."""


def _fixed_point_defect(X: np.ndarray, w: np.ndarray, scale: np.ndarray | None = None
                        ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Max relative defect of the defining identity over the nonzero rows of X,
    q(w) as computed, log q(w), and the column scales D. w > 0: callers
    validate once, outside the sweeps.

    The Gram G is factored as D G D, and D is folded into the d x d factor
    that the quadratic forms apply; with powers of two this gives the bits of
    the design X D. scale=None takes D from this Gram's diagonal, bringing
    each diagonal entry of D G D into [1/4, 1), and raises _GramOutOfRange
    when that diagonal leaves the range where the products stay exact. A row
    whose q underflows gets log q from the row rescaled by a power of two,
    and a row whose w^2 is below _TINY_W2 its defect |1 - q / w^2| from log q
    and log w, so that it is relative on every row. A zero row, q = 0 exactly
    with every entry 0, gets log q = -inf and no share in the defect."""
    # looked up on the module, where perfbench/spans.py wraps it
    G = linalg.weighted_gram(X, 1.0 / w)
    if scale is None:
        diag = G.diagonal()
        if not np.all((diag >= 1.0 / _GRAM_RANGE) & (diag <= _GRAM_RANGE)):
            raise _GramOutOfRange
        scale = np.ldexp(1.0, -((np.frexp(diag)[1] + 1) // 2))
    F = spd_factorize(G * np.outer(scale, scale))
    q = row_quadratic_forms(F, X, scale)
    low = np.flatnonzero(q < _TINY)
    w2 = w * w
    tiny = np.flatnonzero(w2 < _TINY_W2)
    defect = np.subtract(w2, q)
    np.abs(defect, out=defect)
    defect /= np.maximum(w2, _TINY_W2, out=w2)
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    if low.size:
        rows = X[low]
        zero = ~rows.any(axis=1)
        live, rows = low[~zero], rows[~zero]
        e = np.frexp(np.abs(rows).max(axis=1))[1]
        q_live = row_quadratic_forms(F, np.ldexp(rows, -e[:, None]), scale)
        log_q[live] = np.log(q_live) + (2.0 * math.log(2.0)) * e
    if tiny.size:
        defect[tiny] = np.abs(np.expm1(log_q[tiny] - 2.0 * np.log(w[tiny])))
    if low.size:
        defect[low[zero]] = 0.0
    return float(defect.max()), q, log_q, scale


def _first_sweep(X: np.ndarray):
    """The first sweep, at w = 1, of a C-contiguous X of valid shape: the
    design every later sweep reads, its column scales, the defect, q and log q,
    and the index of the nonzero rows into X (a full slice when no row is zero,
    which spares the gathers). q = q(1) keeps every row, 0 on the zero rows;
    the design and log q keep the nonzero rows only. A non-finite entry raises
    DataError, as as_design_matrix would.

    The design is X itself, unless X^T X's diagonal leaves the range where
    the Gram scaling is exact; then X is scaled by the powers of two that
    bring each column's largest entry into [1/2, 1), the one copy of X made.
    The zero rows are gathered out, a copy only when there are some."""
    w = np.ones(X.shape[0])
    try:
        # an overflow fails the range test, and so does a non-finite entry,
        # whose square is in a diagonal entry of the Gram
        with np.errstate(over="ignore", invalid="ignore"):
            defect, q, log_q, scale = _fixed_point_defect(X, w)
    except _GramOutOfRange:
        peak = np.abs(X).max(axis=0)
        if not np.isfinite(peak).all():
            raise DataError("design matrix has non-finite entries") from None
        if not peak.all():
            raise RankDeficiencyError("matrix has an all-zero column") from None
        X = np.ldexp(X, -np.frexp(peak)[1])
        defect, q, log_q, scale = _fixed_point_defect(X, w)
    nonzero = log_q > -np.inf
    if nonzero.all():
        return X, scale, defect, q, log_q, slice(None)
    return X[nonzero], scale, defect, q, log_q[nonzero], nonzero


def lewis_weights(X, tol: float = 1e-10) -> WeightVector:
    """Compute the L1 Lewis weights of X.

    Starting from w = 1, each sweep evaluates q(w) and the defect of the
    current iterate. Below tol that iterate is returned; otherwise the next
    one is u = log w with

        u_next = g - sum_k gamma_k dG_k,   gamma = argmin |f - sum_k gamma_k dF_k|,

    where g = 1/2 log q, f = g - u, and dF_k, dG_k are the differences of f
    and g between successive sweeps, the last five of each kept in two 5 x n
    ring buffers. gamma solves the 5 x 5 normal equations by least squares
    (so a rank-deficient history is harmless); their Gram of the dF_k is
    updated by one row per sweep, so the mixing adds O(5 n) work and
    no factorization of an n x 5 matrix. Mixing in log w keeps every iterate
    positive. When an iterate's defect exceeds the best so far, the history
    is cleared and the next step is the plain map, a contraction from there.

    Parameters
    ----------
    X : array_like, shape (n, d)
        Full column rank after all-zero rows are removed.
    tol : float
        The fixed-point residual threshold gamma, in (0, 1). The returned
        weights are within a factor 1/(1 - gamma) of the exact ones in every
        row; the samplers pass SAMPLING_TOL.

    Returns
    -------
    WeightVector with kind "lewis": entries positive for nonzero rows (in
    (0, 1] up to that factor), a row whose q underflows included, exactly 0
    for all-zero rows, summing to d over the nonzero rows up to that factor. Its max relative defect, as
    verify_fixed_point measures it, is at most tol.

    Raises
    ------
    RankDeficiencyError
        If the nonzero rows do not span all d columns to pivot tolerance.
    ConvergenceError
        If the residual is still above tolerance after MAX_SWEEPS sweeps.
    """
    if not tol > 0:
        raise DataError("tol must be positive")
    if not tol < 1:
        raise DataError("tol must be below 1")
    # the first sweep checks that every entry is finite
    X = np.ascontiguousarray(as_design_matrix(X, finite=False))
    n = X.shape[0]
    X, scale, residual, _, log_q, nonzero = _first_sweep(X)

    m, rows = _ANDERSON_DEPTH, X.shape[0]
    dF, dG = np.empty((m, rows)), np.empty((m, rows))  # ring buffers of differences
    FF = np.empty((m, m))  # FF[i, j] = dF[i] . dF[j] over the stored slots
    stored = slot = 0
    f_prev = g_prev = None
    best = math.inf

    u, w = np.zeros(rows), np.ones(rows)
    sweeps = 1
    while residual > tol:
        g = 0.5 * log_q
        f = g - u
        if residual > best:  # the last mixed step made things worse
            stored = slot = 0
        elif f_prev is not None:
            np.subtract(f, f_prev, out=dF[slot])
            np.subtract(g, g_prev, out=dG[slot])
            stored = min(stored + 1, m)
            FF[slot, :stored] = FF[:stored, slot] = dF[:stored] @ dF[slot]
            slot = (slot + 1) % m
        best = min(best, residual)
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(
                f"Lewis weight iteration did not converge in {MAX_SWEEPS} sweeps "
                f"(final residual {residual:.3e}, best {best:.3e}, tol {tol:.1e})",
                residual,
                best,
            )
        f_prev, g_prev = f, g
        if stored:
            gamma = np.linalg.lstsq(FF[:stored, :stored], dF[:stored] @ f, rcond=None)[0]
            u = g - gamma @ dG[:stored]
        else:
            u = g
        w = np.exp(u)
        residual, _, log_q, _ = _fixed_point_defect(X, w, scale)
        sweeps += 1

    full = np.zeros(n)
    full[nonzero] = w
    return WeightVector(full, kind="lewis")


def leverage_scores(X) -> WeightVector:
    """Statistical leverage x_i^T (X^T X)^{-1} x_i of each row: q(1), the first
    sweep of lewis_weights. Scores lie in [0, 1], are 0 on all-zero rows and
    sum to d; RankDeficiencyError when X is rank deficient to pivot tolerance."""
    # the first sweep checks that every entry is finite
    q = _first_sweep(np.ascontiguousarray(as_design_matrix(X, finite=False)))[3]
    return WeightVector(np.minimum(q, 1.0, out=q), kind="leverage")


def verify_fixed_point(X, w) -> float:
    """Max relative defect of the Lewis identity for a candidate weight vector,
    in the arithmetic of lewis_weights: its first sweep fixes the design, the
    column scales and the zero rows, so the defect of the weights it returns
    is the one it certified.

    Pure check: zero rows must carry weight 0, nonzero rows positive weight.
    """
    X = np.ascontiguousarray(as_design_matrix(X))
    wv = as_vector(w.values if isinstance(w, WeightVector) else w, length=X.shape[0])
    X, scale, _, _, _, nonzero = _first_sweep(X)
    if np.any(wv[nonzero] <= 0):
        raise ValueError("weights must be positive on nonzero rows")
    if np.count_nonzero(wv) > np.count_nonzero(wv[nonzero]):
        raise ValueError("weights must be 0 on all-zero rows")
    return _fixed_point_defect(X, wv[nonzero], scale)[0]


def sampling_values(w: WeightVector, N: int) -> WeightVector:
    """Scale an importance vector to sampling values summing to the budget N."""
    if not isinstance(w, WeightVector):
        raise TypeError("sampling_values expects a WeightVector")
    if w.kind == "sampling":
        raise ValueError("input already holds sampling values")
    if N < 1:
        raise DataError("budget must be at least 1")
    total = w.total
    if total <= 0:
        raise ValueError("importance values sum to zero")
    return WeightVector(w.values * (N / total), kind="sampling", budget=float(N))


def recommended_budget(d: int, eps: float, delta: float,
                       regime: str = "high_prob") -> int:
    """Row budget for the sampling sketch.

    high_prob:      ceil(C * d/eps^2 * log(d/(eps*delta)))
    constant_prob:  ceil(C * d * log(max(d,2)) / eps^2)

    C = BUDGET_CONSTANT absorbs the constants hidden by the asymptotic
    statements; its value of 4 is an artifact choice, not the paper's. A d,
    eps or delta out of range raises DataError.
    """
    if d < 1:
        raise DataError("d must be at least 1")
    if not (0 < eps < 1):
        raise DataError("eps must lie in (0, 1)")
    if not (0 < delta < 1):
        raise DataError("delta must lie in (0, 1)")
    if regime == "high_prob":
        value = BUDGET_CONSTANT * d / eps**2 * math.log(d / (eps * delta))
    elif regime == "constant_prob":
        value = BUDGET_CONSTANT * d * math.log(max(d, 2)) / eps**2
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return int(math.ceil(value))
