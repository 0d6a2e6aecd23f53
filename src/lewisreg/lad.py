"""High-accuracy weighted least-absolute-deviation regression.

solve_lad minimizes sum_i w_i |a_i^T beta - b_i| in two phases:

1. smoothed IRLS: minimize sum_i w_i sqrt(r_i^2 + mu^2) with mu driven down
   geometrically from 1e-2 to 1e-12 times the initial residual scale, each
   inner step a weighted least-squares solve;
2. an active-set polish: take the d rows with smallest residuals as a basis,
   interpolate them exactly, and pivot (leave the basis row whose multiplier
   escapes [-1, 1], enter the row at the exact line-search minimum) until the
   vertex carries a subgradient optimality certificate.

A certified vertex is a global minimizer of the convex objective, so the
quality of the answer does not rest on the IRLS phase; IRLS only provides a
warm start that keeps the pivot count small. Minimizers need not be unique;
callers should compare objectives, not coefficient vectors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .linalg import (
    DataError,
    RankDeficiencyError,
    as_design_matrix,
    as_vector,
    spd_factorize,
    weighted_gram,
)

__all__ = [
    "LadProblem",
    "LadSolution",
    "l1_norm",
    "objective",
    "weighted_median_1d",
    "solve_lad",
]

_MAX_PIVOTS = 300


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
                raise ValueError("row weights must be nonnegative")
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
    iterations: int
    status: str  # "optimal" | "max_iter" | "degenerate"
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


def _weighted_l1(r: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * np.abs(r)))


def _solve_spd_ridge(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G x = rhs, adding a progressively larger ridge if the pivoted
    factorization refuses; IRLS interiors may pass nearly singular grams and
    the final answer is certified downstream regardless."""
    ridge = 0.0
    for _ in range(4):
        try:
            F = spd_factorize(G + ridge * np.eye(G.shape[0]) if ridge else G)
            return F.solve(rhs)
        except RankDeficiencyError:
            max_diag = float(np.max(G.diagonal()))
            ridge = max(ridge * 1e4, 1e-14 * max(max_diag, 1e-300))
    raise RankDeficiencyError("weighted gram stayed singular despite ridge")


def _greedy_basis(A: np.ndarray, order: np.ndarray) -> np.ndarray:
    """First d rows, in the given order, that are linearly independent."""
    m, d = A.shape
    Q = np.zeros((d, 0))
    basis = []
    for i in order:
        a = A[i]
        resid = a - Q @ (Q.T @ a)
        resid = resid - Q @ (Q.T @ resid)
        nrm = float(np.linalg.norm(resid))
        if nrm > 1e-10 * max(float(np.linalg.norm(a)), 1e-300):
            Q = np.hstack([Q, (resid / nrm)[:, None]])
            basis.append(int(i))
            if len(basis) == d:
                return np.array(basis, dtype=np.intp)
    raise RankDeficiencyError("could not assemble an invertible basis")


def _offbasis_gradient(A, r, w, zero_mask):
    s = np.sign(r)
    s[zero_mask] = 0.0
    return A.T @ (w * s)


def _box_certificate(A, w, g, zero_idx):
    """Smallest achievable ||A^T s + g||_inf over s on the zero-residual rows
    with |s_i| <= w_i, via box-constrained least squares. Returns (norm, s)."""
    if zero_idx.size == 0:
        return float(np.max(np.abs(g))) if g.size else 0.0, np.zeros(0)
    M = A[zero_idx].T * w[zero_idx]
    bounds = (-np.ones(zero_idx.size), np.ones(zero_idx.size))
    try:
        # the active-set method solves these small systems to machine precision
        res = lsq_linear(M, -g, bounds=bounds, method="bvls")
    except (ValueError, np.linalg.LinAlgError):
        res = lsq_linear(M, -g, bounds=bounds, tol=1e-14)
    s = np.clip(res.x, -1.0, 1.0)
    return float(np.max(np.abs(M @ s + g))), s


def _line_search(r, c, w):
    """Minimize sum_i w_i |r_i + t c_i| over t; returns (t, entering row).

    The minimizer is the weighted median of the breakpoints -r_i/c_i with
    masses w_i |c_i|; ties resolve to the left endpoint, then lowest index.
    """
    cmax = float(np.max(np.abs(c)))
    active = np.flatnonzero(np.abs(c) > 1e-13 * max(cmax, 1e-300))
    if active.size == 0:
        return None, None
    t = -r[active] / c[active]
    mass = w[active] * np.abs(c[active])
    order = np.lexsort((active, t))  # by breakpoint, then row index
    cum = np.cumsum(mass[order])
    total = cum[-1]
    if total <= 0:
        return None, None
    k = int(np.searchsorted(cum, 0.5 * total - 1e-12 * total, side="left"))
    pick = order[k]
    return float(t[pick]), int(active[pick])


def _vertex_polish(A, b, w, r_hint, tol, cert_scale):
    """Active-set phase: pivot between interpolation vertices until the
    subgradient certificate holds. Returns (beta, status, cert_norm, s_full,
    pivots)."""
    m, d = A.shape
    basis = _greedy_basis(A, np.argsort(np.abs(r_hint), kind="stable"))
    bscale = max(float(np.max(np.abs(b))), 1.0)
    best_beta, best_obj = None, math.inf
    status = "max_iter"
    for pivots in range(_MAX_PIVOTS):
        AB = A[basis]
        beta = np.linalg.solve(AB, b[basis])
        r = A @ beta - b
        r[basis] = 0.0
        obj = _weighted_l1(r, w)
        if obj < best_obj:
            best_beta, best_obj = beta, obj
        zero_mask = np.abs(r) <= 1e-12 * bscale
        zero_mask[basis] = True
        g = _offbasis_gradient(A, r, w, zero_mask)
        sigma = np.linalg.solve(AB.T, -g) / w[basis]
        violators = np.flatnonzero(np.abs(sigma) > 1.0 + 1e-9)
        if violators.size == 0:
            status = "optimal"
            break
        zero_idx = np.flatnonzero(zero_mask)
        if zero_idx.size > d:
            cert_norm, _ = _box_certificate(A, w, g, zero_idx)
            if cert_norm <= tol * cert_scale:
                status = "optimal"
                break
        j = int(violators[np.argmin(basis[violators])])  # Bland: lowest row index
        e = np.zeros(d)
        e[j] = 1.0
        u = np.sign(sigma[j]) * np.linalg.solve(AB, e)
        t, enter = _line_search(r, A @ u, w)
        if t is None or (enter == basis[j]):
            status = "degenerate"
            break
        new_basis = basis.copy()
        new_basis[j] = enter
        basis = new_basis
    else:
        pivots = _MAX_PIVOTS

    # final certificate data at the returned vertex
    AB = A[basis]
    beta = best_beta if status != "optimal" else np.linalg.solve(AB, b[basis])
    r = A @ beta - b
    if status == "optimal":
        r[basis] = 0.0
    zero_mask = np.abs(r) <= 1e-12 * bscale
    g = _offbasis_gradient(A, r, w, zero_mask)
    zero_idx = np.flatnonzero(zero_mask)
    cert_norm, s_zero = _box_certificate(A, w, g, zero_idx)
    s_full = np.sign(r)
    s_full[zero_idx] = s_zero
    if cert_norm > tol * cert_scale and status == "optimal":
        status = "max_iter"
    return beta, status, cert_norm, s_full, pivots


def solve_lad(prob: LadProblem, tol: float = 1e-8, max_iters: int = 200) -> LadSolution:
    """Minimize the weighted LAD objective to within (1 + tol) of optimal.

    Raises RankDeficiencyError when A is rank deficient on the rows with
    positive weight. A solution with status "optimal" carries a subgradient
    certificate; "max_iter" / "degenerate" return the best iterate found.
    """
    if tol <= 0:
        raise DataError("tol must be positive")
    keep = prob.weights > 0
    b = prob.b[keep]
    w = prob.weights[keep]
    d = prob.A.shape[1]
    m = b.shape[0]
    if m < d:
        raise RankDeficiencyError("fewer positively weighted rows than columns")
    # solve in column-equilibrated coordinates; residuals are unchanged and
    # the coefficients map back through the scales
    col_scale = np.abs(prob.A[keep]).max(axis=0)
    if np.any(col_scale == 0):
        raise RankDeficiencyError("an all-zero column on the weighted support")
    A = prob.A[keep] / col_scale

    # weighted least-squares start; doubles as the support rank check
    G = weighted_gram(A, w)
    F = spd_factorize(G)
    beta = F.solve(A.T @ (w * b))
    r = A @ beta - b
    iterations = 0

    scale = float(np.max(np.abs(r)))
    if scale > 0:
        mu = 1e-2 * scale
        mu_floor = 1e-12 * scale
        while mu >= 0.999 * mu_floor and iterations < max_iters:
            for _ in range(20):
                omega = w / np.sqrt(r * r + mu * mu)
                beta_new = _solve_spd_ridge(weighted_gram(A, omega), A.T @ (omega * b))
                iterations += 1
                step = float(np.max(np.abs(beta_new - beta)))
                beta = beta_new
                r = A @ beta - b
                if step <= 1e-12 * (1.0 + float(np.max(np.abs(beta)))):
                    break
                if iterations >= max_iters:
                    break
            mu *= 0.1

    cert_scale = float(np.sum(w))  # equilibrated columns have max-abs 1
    beta_v, status, cert_norm, s_full, pivots = _vertex_polish(
        A, b, w, r, tol, cert_scale
    )

    cand = [(objective(LadProblem(A, b, w), beta_v), beta_v)]
    if status != "optimal":
        cand.append((objective(LadProblem(A, b, w), beta), beta))
    obj, beta_eq = min(cand, key=lambda p: p[0])
    beta_out = beta_eq / col_scale
    obj = objective(LadProblem(prob.A, prob.b, prob.row_weights), beta_out)

    # dual lower bound from the certificate vector: f(x) >= -s.b - ||A^T s||_inf ||x||_1
    dual = -float(s_full * w @ b)
    gap = max(0.0, obj - dual) + cert_norm * max(1.0, float(np.sum(np.abs(beta_eq))))
    return LadSolution(
        beta=beta_out,
        objective=obj,
        optimality_gap_estimate=gap,
        iterations=iterations + pivots,
        status=status,
        certificate_infnorm=cert_norm,
    )
