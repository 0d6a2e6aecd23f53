"""High-accuracy weighted least-absolute-deviation regression.

solve_lad minimizes sum_i w_i |a_i^T beta - b_i| in three steps:

1. a check that the positively weighted rows have full column rank, and a
   start point: with at least 320 d rows, the LAD minimizer of a fixed
   pseudo-random 1-in-8 sample of the rows, solved by these same three
   steps; else, or where the sample is rank deficient (it can miss a
   direction only a few rows span), the weighted least-squares solution;
2. a start basis: the first d linearly independent rows in order of
   increasing residual at the start point;
3. an L1 simplex (Barrodale & Roberts, SIAM J. Numer. Anal. 10(5), 1973)
   from that basis: interpolate the d basis rows exactly; while some basis
   multiplier escapes [-1, 1], move that row off zero and go to the exact
   line-search minimum, passing every breakpoint that still lowers the
   objective. Ties (more than d zero residuals, equal breakpoints) are
   broken as if b were b + e h for a fixed generic h and an infinitesimal
   e > 0. Every step then strictly lowers the perturbed objective, so no
   basis repeats and the simplex reaches a certificate from any start.
   Residuals, signs and A^T (w s) are carried along each step and
   recomputed from scratch before a vertex certifies.

The sample's minimizer is near the full one, so the simplex on all m rows
starts near its end: on 50 000 x 10 Gaussian designs with three label
outliers it takes 51-70 pivots from there, against 87-105 from least
squares, and each sample level costs about an eighth of the level above.
A pivot makes one pass over A, c = A u, and a few elementwise passes over
all m rows: the crossing test and the crossing rows' breakpoints, the
partition that picks a head of them, the step of the residuals, the
objective and a screen for the zero test. The rest costs what the step
passes: the line search orders only the head, whose size starts from what
the last search needed, and the zero test, the signs and A^T (w s) are
redone only on the rows the screen keeps, the rows a step can move to zero
or across it, with the same bits as a pass over all m rows.

The final basis gives the dual vector: the signs of the nonbasic residuals
and the basis multipliers. A vertex whose multipliers pass and whose duality
gap closes (to tol times the objective, up to rounding) is a global minimizer
of the convex objective; the start basis only sets how many pivots it takes.
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
    equilibrate_columns,
    weighted_gram,
)
# unused here, but perfbench/spans.py wraps lewisreg.lad.spd_factorize
from .linalg import spd_factorize  # noqa: F401

__all__ = [
    "LadProblem",
    "LadSolution",
    "l1_norm",
    "objective",
    "solve_lad",
]

# seed of the tie-breaking direction h (see the module docstring)
_TIE_SEED = 0x1AD
# the fewest breakpoints a line search starts from
_HEAD = 64
# step 1's row sample: from _COARSE_ROWS rows per column, 1 in _SAMPLE_RATE rows
_COARSE_ROWS = 320
_SAMPLE_RATE = 8
_SAMPLE_SEED = 0x5A3


def l1_norm(v) -> float:
    """Compensated (exact) sum of absolute values."""
    return math.fsum(np.abs(np.asarray(v, dtype=np.float64)).tolist())


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
    iterations: int  # pivots of the simplex on all rows, not on the row samples
    status: str  # "optimal" | "uncertified" (the duality gap stayed open) | "max_iter"
    certificate_infnorm: float


def objective(prob: LadProblem, beta) -> float:
    """sum_i w_i |a_i^T beta - b_i|, with a compensated final reduction."""
    beta = as_vector(beta, length=prob.A.shape[1])
    r = prob.A @ beta - prob.b
    return math.fsum((prob.weights * np.abs(r)).tolist())


def _head(x: np.ndarray, k: int) -> np.ndarray:
    """Indices, in index order, of the entries of x up to its k-th smallest,
    ties included: a head of x's sorted order, whatever breaks its ties."""
    if k >= x.size:
        return np.arange(x.size)
    return np.flatnonzero(x <= np.partition(x, k - 1)[k - 1])


def _greedy_basis(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sorted indices of the first d linearly independent rows in order of
    increasing |r_i|, ties by index. Only a head of that order is sorted,
    from d rows, 8-fold larger while it holds dependent rows."""
    m, d = A.shape
    abs_r, k = np.abs(r), d
    while True:
        head = _head(abs_r, k)
        Q, basis = np.zeros((d, 0)), []
        for i in head[np.argsort(abs_r[head], kind="stable")]:
            a = A[i]
            resid = a - Q @ (Q.T @ a)
            resid = resid - Q @ (Q.T @ resid)
            nrm = float(np.linalg.norm(resid))
            if nrm > 1e-10 * max(float(np.linalg.norm(a)), 1e-300):
                Q = np.hstack([Q, (resid / nrm)[:, None]])
                basis.append(int(i))
                if len(basis) == d:
                    return np.sort(np.array(basis, dtype=np.intp))
        if head.size == m:
            raise RankDeficiencyError("could not assemble an invertible basis")
        k *= 8


def _entering_row(t, need, gather, k):
    """(index, rank) of the first breakpoint, in the order of t then t_e, at
    which the running sum of rise reaches need, or of the last breakpoint if
    none does; gather(idx) returns (t_e[idx], rise[idx]). Only the
    breakpoints with t up to the k-th smallest (ties included) are gathered
    and ordered: that set is a head of the full order, and k grows 8-fold
    until the sum reaches need inside it. The simplex starts k at twice the
    rank the last search returned: the ranks fall from thousands to a few
    along a solve. A head without ties in t is ordered by t alone."""
    while True:
        head = _head(t, k)
        t_h = t[head]
        t_e, rise = gather(head)
        order = t_h.argsort()
        t_sorted = t_h[order]
        if (t_sorted[1:] == t_sorted[:-1]).any():  # ties in t: order them by t_e, then index
            order = np.lexsort((t_e, t_h))
        j = int(rise[order].cumsum().searchsorted(need, side="left"))
        if j < order.size or order.size == t.size:
            j = min(j, order.size - 1)
            return head[order[j]], j
        k *= 8


def _vertex(A, abs_A, rhs, w, basis):
    """From scratch at a basis: X = A_B^-1 rhs_B, residuals r, rho, signs s, g = A^T (w s)."""
    X = np.linalg.solve(A[basis], rhs[basis])
    r, rho = (A @ X - rhs).T.copy()
    r[basis] = rho[basis] = 0.0
    # a residual is zero when it is within rounding of its terms; zeros are
    # made exact, so that repeated rows stay bit-identical along the steps
    r[np.abs(r) <= 1e-13 * (abs_A @ np.abs(X[:, 0]) + np.abs(rhs[:, 0]))] = 0.0
    s = np.sign(np.where(r == 0.0, rho, r))  # zero on the basis, where rho is zero too
    return X, r, rho, s, A.T @ (w * s)


def _step(X, r, rho, u, c, t, t_e):
    """Move the state in place by t + e t_e along u, where c = A u."""
    X += u[:, None] * (t, t_e)
    r += t * c
    rho += t_e * c


def _settle(A, w, X, r, rho, s, g, zero_test):
    """After a step, with r and rho zeroed on the basis: zero the residuals
    within rounding of their terms and update s in place, and return g =
    A^T (w s) updated on the rows whose sign changed. zero_test is
    (1e-13 ||a_i||_1, 1e-13 |b_i|) and their maxima: the carried test bounds
    |A| @ |x| by ||a_i||_1 max|x|. Rows with r_i s_i above the largest
    threshold keep r_i and s_i (s_i is nonzero, r_i has its sign and is
    above its own threshold), so the work is done on the other rows alone:
    the breakpoints passed, the rows that left or entered the basis and the
    rows at zero."""
    row_l1, abs_b, row_l1_max, abs_b_max = zero_test
    x_max = np.abs(X[:, 0]).max()
    near = (r * s <= row_l1_max * x_max + abs_b_max).nonzero()[0]
    r_near = r[near]
    zero = np.abs(r_near) <= row_l1[near] * x_max + abs_b[near]
    r[near[zero]] = 0.0
    s_near = np.sign(np.where(zero, rho[near], r_near))
    flip = s_near != s[near]
    changed, s_new = near[flip], s_near[flip]
    g = g + A[changed].T @ (w[changed] * (s_new - s[changed]))
    s[changed] = s_new
    return g


def _l1_simplex(A, b, w, basis, tol, max_pivots):
    """Pivot from the given basis until every basis multiplier lies in
    [-1 - tol, 1 + tol], or max_pivots pivots. Returns (beta, status, s,
    pivots) at the certified vertex, or at the best vertex seen; s is the
    dual vector: residual signs off the basis, clipped multipliers on it."""
    m, d = A.shape
    # column 0 is b, column 1 the tie-breaking direction h
    rhs = np.column_stack([b, np.random.default_rng(_TIE_SEED).random(m)])
    abs_A = np.abs(A)
    row_l1, abs_b = 1e-13 * abs_A.sum(axis=1), 1e-13 * np.abs(b)
    zero_test = (row_l1, abs_b, row_l1.max(), abs_b.max())
    eye = np.eye(d)
    best, status, pivots, scratch, k = (math.inf, basis), "max_iter", 0, True, _HEAD
    while True:
        if scratch:
            X, r, rho, s, g = _vertex(A, abs_A, rhs, w, basis)
        AB = A[basis]
        sigma = -np.linalg.solve(AB.T, g) / w[basis]
        p = int(np.abs(sigma).argmax())
        if abs(sigma[p]) <= 1.0 + tol:
            if scratch:
                status = "optimal"
                break
            scratch = True  # certify only from state computed from scratch
            continue
        obj = float(w @ np.abs(r))
        if obj < best[0]:
            best = (obj, basis)
        if pivots == max_pivots:
            break
        # move basis row p off zero in the descent direction: A_B u = sign e_p
        u = math.copysign(1.0, sigma[p]) * np.linalg.solve(AB, eye[p])
        c = A @ u
        cut = np.abs(c)
        cut[basis] = 0.0
        # rows whose perturbed residual moves toward zero, by more than the
        # rounding of c; breakpoints t = -(r + e rho) / c, by real then e part
        cross = (s * c < -1e-12 * cut.max()).nonzero()[0]
        if cross.size == 0:
            break
        t = -r[cross] / c[cross]

        def gather(head):
            i = cross[head]
            c_i = c[i]
            return -rho[i] / c_i, 2.0 * w[i] * np.abs(c_i)

        # the slope starts at -w_p (|sigma_p| - 1) and rises by 2 w_i |c_i|
        # at each breakpoint passed; enter the row where it turns nonnegative
        j, passed = _entering_row(t, w[basis[p]] * (abs(sigma[p]) - 1.0), gather, k)
        k = max(_HEAD, 2 * passed)
        basis = basis.copy()
        q = basis[p] = cross[j]
        _step(X, r, rho, u, c, t[j], -rho[q] / c[q])
        r[basis] = rho[basis] = 0.0
        g = _settle(A, w, X, r, rho, s, g, zero_test)
        pivots, scratch = pivots + 1, False
    if status != "optimal":
        basis = best[1]
        X, r, rho, s, g = _vertex(A, abs_A, rhs, w, basis)
        sigma = -np.linalg.solve(A[basis].T, g) / w[basis]
    s[basis] = np.clip(sigma, -1.0, 1.0)
    return X[:, 0], status, s, pivots


def _solve(A, b, w, tol, max_pivots):
    """_l1_simplex's (beta, status, s, pivots) on column-equilibrated rows with
    positive weights, from the start basis of the module docstring. Raises
    RankDeficiencyError when the rows are rank deficient to tolerance."""
    m, d = A.shape
    # the rank check: with D G D = L L^T at unit diagonal, every Cholesky
    # pivot of G is >= min_k G_kk / (D G D)^-1_kk (column k factored last),
    # so this refuses wherever spd_factorize, at the same tolerance, would
    G = weighted_gram(A, w)
    g = G.diagonal()
    if not g.all():  # a column that is zero on every row (of a sample)
        raise RankDeficiencyError("positively weighted rows are rank deficient to tolerance")
    D = 1.0 / np.sqrt(g)
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(G * D[:, None] * D))
        last_pivots = g / np.einsum("ij,ij->j", L_inv, L_inv)
    except np.linalg.LinAlgError:  # a pivot at or below zero
        last_pivots = np.zeros(d)
    if not np.all(last_pivots >= MIN_PIVOT_REL * np.max(g)):
        raise RankDeficiencyError("positively weighted rows are rank deficient to tolerance")
    r = None
    if m >= _COARSE_ROWS * d:
        rows = np.random.default_rng(_SAMPLE_SEED).random(m) < 1.0 / _SAMPLE_RATE
        try:
            r = A @ _solve(A[rows], b[rows], w[rows], tol, max_pivots)[0] - b
        except RankDeficiencyError:  # the sample misses a direction the rows span
            pass
    if r is None:  # the weighted least-squares residuals
        r = A @ (D * (L_inv.T @ (L_inv @ (D * (A.T @ (w * b)))))) - b
    return _l1_simplex(A, b, w, _greedy_basis(A, r), tol, max_pivots)


def solve_lad(prob: LadProblem, tol: float = 1e-8, max_iters: int = 2000) -> LadSolution:
    """Minimize the weighted LAD objective to within (1 + tol) of optimal.

    max_iters is the pivot budget of the simplex on all the positively
    weighted rows, and LadSolution.iterations counts its pivots; the simplex
    of each row sample that builds the start gets the same budget and is not
    counted. Raises RankDeficiencyError when A is rank deficient on the rows
    with positive weight. A solution with status "optimal" is a vertex whose
    dual vector has basis multipliers within [-1 - tol, 1 + tol] and a
    duality gap within tol times the objective plus its residuals' rounding;
    "uncertified", one whose multipliers pass while the gap is open.
    "max_iter" means the budget ran out first; the best vertex seen is returned.
    """
    if not tol > 0:
        raise DataError("tol must be positive")
    if tol == math.inf:
        raise DataError("tol must be finite")
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
    try:
        A, col_scale = equilibrate_columns(prob.A[keep])
    except RankDeficiencyError:  # the message trial records carry
        raise RankDeficiencyError("an all-zero column on the weighted support") from None
    beta, status, s_full, pivots = _solve(A, b, w, tol, max_iters)
    cert_norm = float(np.max(np.abs(A.T @ (w * s_full))))
    beta_out = beta / col_scale
    obj = objective(prob, beta_out)

    # objective minus the dual bound f(x) >= -s.(w b) - ||A^T (w s)||_inf ||x||_1;
    # rounding is what the zero test allows the residuals: all the gap of a 0 minimum
    gap = obj + math.fsum((s_full * w * b).tolist()) + cert_norm * l1_norm(beta)
    rounding = 1e-13 * float(w @ (np.abs(A) @ np.abs(beta) + np.abs(b)))
    if status == "optimal" and obj > 0.0 and gap > tol * obj + rounding:
        status = "uncertified"
    return LadSolution(beta=beta_out, objective=obj, optimality_gap_estimate=max(0.0, gap),
                       iterations=pivots, status=status, certificate_infnorm=cert_norm)
