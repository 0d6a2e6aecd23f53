"""High-accuracy weighted least-absolute-deviation regression.

solve_lad minimizes sum_i w_i |a_i^T beta - b_i| in three steps:

1. a weighted least-squares solve, which also checks that the positively
   weighted rows have full column rank;
2. a start basis: the first d linearly independent rows in order of
   increasing least-squares residual;
3. an L1 simplex (Barrodale & Roberts, SIAM J. Numer. Anal. 10(5), 1973)
   from that basis: interpolate the d basis rows exactly; while some basis
   multiplier escapes [-1, 1], move that row off zero and go to the exact
   line-search minimum, passing every breakpoint that still lowers the
   objective. Ties (more than d zero residuals, equal breakpoints) are
   broken as if b were b + e h for a fixed generic h and an infinitesimal
   e > 0. Every step then strictly lowers the perturbed objective, so no
   basis repeats and the simplex reaches a certificate from any start.

The final basis gives the dual vector: the signs of the nonbasic residuals
and the basis multipliers. A certified vertex is a global minimizer of the
convex objective; the start basis only sets how many pivots that takes.
Minimizers need not be unique; callers should compare objectives, not
coefficient vectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MIN_PIVOT_REL,
    DataError,
    RankDeficiencyError,
    as_design_matrix,
    as_vector,
    weighted_gram,
)
# unused here, but perfbench/spans.py wraps lewisreg.lad.spd_factorize
from .linalg import spd_factorize  # noqa: F401

__all__ = [
    "LadProblem",
    "LadSolution",
    "l1_norm",
    "objective",
    "weighted_median_1d",
    "solve_lad",
]

# seed of the tie-breaking direction h (see the module docstring)
_TIE_SEED = 0x1AD


def l1_norm(v) -> float:
    """Compensated (exact) sum of absolute values."""
    return math.fsum(np.abs(np.asarray(v, dtype=np.float64)))


@dataclass(frozen=True)
class LadProblem:
    """Data (A, b) and optional nonnegative row weights for the LAD objective."""

    A: np.ndarray
    b: np.ndarray
    row_weights: np.ndarray | None = None

    def __post_init__(self):
        A = as_design_matrix(self.A, require_tall=False)
        b = as_vector(self.b, length=A.shape[0])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.row_weights is not None:
            w = as_vector(self.row_weights, length=A.shape[0])
            if np.any(w < 0):
                raise DataError("row weights must be nonnegative")
            object.__setattr__(self, "row_weights", w)

    @property
    def weights(self) -> np.ndarray:
        if self.row_weights is None:
            return np.ones(self.A.shape[0])
        return self.row_weights


@dataclass(frozen=True)
class LadSolution:
    beta: np.ndarray
    objective: float
    optimality_gap_estimate: float
    iterations: int  # simplex pivots
    status: str  # "optimal" | "max_iter"
    certificate_infnorm: float


def objective(prob: LadProblem, beta) -> float:
    """sum_i w_i |a_i^T beta - b_i|, with a compensated final reduction."""
    beta = as_vector(beta, length=prob.A.shape[1])
    r = prob.A @ beta - prob.b
    return math.fsum(prob.weights * np.abs(r))


def weighted_median_1d(values, weights) -> float:
    """A minimizer of sum_i w_i |v_i - beta| over scalar beta.

    When the minimizers form an interval, returns its left endpoint.
    """
    v = as_vector(values)
    w = as_vector(weights, length=v.shape[0])
    if v.shape[0] == 0:
        raise ValueError("empty input")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("weights must not all be zero")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    half = 0.5 * total
    k = int(np.searchsorted(cum, half - 1e-12 * total, side="left"))
    return float(v[order][k])


def _greedy_basis(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sorted indices of the first d linearly independent rows in order of
    increasing |r_i|."""
    d = A.shape[1]
    Q = np.zeros((d, 0))
    basis = []
    for i in np.argsort(np.abs(r), kind="stable"):
        a = A[i]
        resid = a - Q @ (Q.T @ a)
        resid = resid - Q @ (Q.T @ resid)
        nrm = float(np.linalg.norm(resid))
        if nrm > 1e-10 * max(float(np.linalg.norm(a)), 1e-300):
            Q = np.hstack([Q, (resid / nrm)[:, None]])
            basis.append(int(i))
            if len(basis) == d:
                return np.sort(np.array(basis, dtype=np.intp))
    raise RankDeficiencyError("could not assemble an invertible basis")


def _entering_row(t, t_e, rise, need):
    """Index of the first breakpoint, in the order of t then t_e, at which
    the running sum of rise reaches need, or of the last breakpoint if none
    does. The sum usually gets there within a few dozen of many thousands of
    breakpoints, so only those with t up to the k-th smallest (ties included)
    are ordered: that set is a head of the full order, and k grows 8-fold
    until the sum reaches need inside it."""
    k = 64
    while True:
        head = (np.flatnonzero(t <= np.partition(t, k - 1)[k - 1]) if k < t.size
                else np.arange(t.size))
        order = head[np.lexsort((t_e[head], t[head]))]
        j = int(np.searchsorted(np.cumsum(rise[order]), need, side="left"))
        if j < order.size or order.size == t.size:
            return order[min(j, order.size - 1)]
        k *= 8


def _l1_simplex(A, b, w, basis, tol, max_pivots):
    """Pivot from the given basis until every basis multiplier lies in
    [-1 - tol, 1 + tol], or max_pivots pivots. Returns (beta, status, s,
    pivots) at the certified vertex, or at the best vertex seen; s is the
    dual vector: residual signs off the basis, clipped multipliers on it."""
    m, d = A.shape
    # column 0 is b, column 1 the tie-breaking direction h
    rhs = np.column_stack([b, np.random.default_rng(_TIE_SEED).random(m)])
    abs_A, abs_b = np.abs(A), np.abs(b)
    best = None
    status = "max_iter"
    for pivots in range(max_pivots + 1):
        AB = A[basis]
        X = np.linalg.solve(AB, rhs[basis])
        R = A @ X - rhs
        R[basis] = 0.0
        r, rho = R[:, 0], R[:, 1]
        # a residual is zero when it is within rounding of its terms
        zero = np.abs(r) <= 1e-13 * (abs_A @ np.abs(X[:, 0]) + abs_b)
        # sign of the perturbed residual r + e rho
        s = np.sign(np.where(zero, rho, r))
        s[basis] = 0.0
        sigma = -np.linalg.solve(AB.T, A.T @ (w * s)) / w[basis]
        obj = float(np.sum(w * np.abs(r)))
        p = int(np.argmax(np.abs(sigma)))
        certified = abs(sigma[p]) <= 1.0 + tol
        if certified or best is None or obj < best[0]:
            best = (obj, X[:, 0], s, sigma, basis)
        if certified:
            status = "optimal"
            break
        if pivots == max_pivots:
            break
        # move basis row p off zero in the descent direction: A_B u = sign e_p
        e = np.zeros(d)
        e[p] = np.sign(sigma[p])
        c = A @ np.linalg.solve(AB, e)
        c[basis] = 0.0
        c[np.abs(c) <= 1e-12 * float(np.max(np.abs(c)))] = 0.0
        # rows whose perturbed residual moves toward zero; their breakpoints
        # t = -(r + e rho) / c are positive, ordered by real part then e part
        cross = np.flatnonzero(s * c < 0)
        if cross.size == 0:
            break
        t = np.where(zero[cross], 0.0, -r[cross] / c[cross])
        # the slope starts at -w_p (|sigma_p| - 1) and rises by 2 w_i |c_i|
        # at each breakpoint passed; enter the row where it turns nonnegative
        need = w[basis[p]] * (abs(sigma[p]) - 1.0)
        basis = basis.copy()
        basis[p] = cross[_entering_row(t, -rho[cross] / c[cross],
                                       2.0 * w[cross] * np.abs(c[cross]), need)]
    _, beta, s, sigma, basis = best
    s = s.copy()
    s[basis] = np.clip(sigma, -1.0, 1.0)
    return beta, status, s, pivots


def solve_lad(prob: LadProblem, tol: float = 1e-8, max_iters: int = 2000) -> LadSolution:
    """Minimize the weighted LAD objective to within (1 + tol) of optimal.

    max_iters is the simplex's pivot budget; LadSolution.iterations counts
    the pivots taken. Raises RankDeficiencyError when A is rank deficient on
    the rows with positive weight. A solution with status "optimal" is a
    vertex whose dual vector has basis multipliers within [-1 - tol, 1 + tol].
    "max_iter" means the budget ran out without that certificate; the vertex
    with the smallest objective seen is returned.
    """
    if tol <= 0:
        raise DataError("tol must be positive")
    if max_iters < 0:
        raise DataError("max_iters must be nonnegative")
    w = prob.weights
    keep = w > 0
    b = prob.b[keep]
    w = w[keep]
    d = prob.A.shape[1]
    m = b.shape[0]
    if m < d:
        raise RankDeficiencyError("fewer positively weighted rows than columns")
    # solve in column-equilibrated coordinates; residuals are unchanged and
    # the coefficients map back through the scales
    A = prob.A[keep]
    col_scale = np.abs(A).max(axis=0)
    if np.any(col_scale == 0):
        raise RankDeficiencyError("an all-zero column on the weighted support")
    A = A / col_scale

    # weighted least-squares start, only to order rows for the start basis,
    # and the support rank check: with D G D = L L^T at unit diagonal, every
    # Cholesky pivot of G is >= min_k G_kk / (D G D)^-1_kk (column k factored
    # last), so this refuses wherever spd_factorize, at the same tolerance, would
    G = weighted_gram(A, w)
    g = G.diagonal()
    D = 1.0 / np.sqrt(g)
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(G * D[:, None] * D))
        last_pivots = g / np.einsum("ij,ij->j", L_inv, L_inv)
    except np.linalg.LinAlgError:  # a pivot at or below zero
        last_pivots = np.zeros(d)
    if not np.all(last_pivots >= MIN_PIVOT_REL * np.max(g)):
        raise RankDeficiencyError("positively weighted rows are rank deficient to tolerance")
    r = A @ (D * (L_inv.T @ (L_inv @ (D * (A.T @ (w * b)))))) - b
    beta, status, s_full, pivots = _l1_simplex(A, b, w, _greedy_basis(A, r), tol, max_iters)
    cert_norm = float(np.max(np.abs(A.T @ (w * s_full))))
    beta_out = beta / col_scale
    obj = objective(prob, beta_out)

    # dual lower bound from the certificate vector: f(x) >= -s.b - ||A^T s||_inf ||x||_1
    dual = -float(s_full * w @ b)
    gap = max(0.0, obj - dual) + cert_norm * max(1.0, float(np.sum(np.abs(beta))))
    return LadSolution(
        beta=beta_out,
        objective=obj,
        optimality_gap_estimate=gap,
        iterations=pivots,
        status=status,
        certificate_infnorm=cert_norm,
    )
