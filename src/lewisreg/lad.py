"""High-accuracy weighted least-absolute-deviation regression.

solve_lad minimizes sum_i w_i |a_i^T beta - b_i| in three steps, and a
fourth on the tallest problems:

1. a check that the positively weighted rows have full column rank, and a
   start point: with at least 320 d rows, the LAD minimizer of a fixed
   pseudo-random 1-in-8 sample of the rows, solved by these same steps;
   else, or where the sample is rank deficient (it can miss a direction
   only a few rows span), the weighted least-squares solution;
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
   recomputed from scratch before a vertex certifies; in both, r_i is made
   exactly 0 where |r_i| <= 1e-13 (||a_i||_1 max|x| + |b_i|).
4. with at least 2560 d rows, 8 times the sample threshold of step 1,
   steps 2 and 3 run on fewer rows (Portnoy & Koenker, "The Gaussian hare
   and the Laplacian tortoise", Statist. Sci. 12(4), 1997). The band is the
   m/8 rows of smallest |residual| at the sample's minimizer, ties and
   zeros included; every other row is folded, by the sign of its residual
   there, into one of two glob rows sum w_i a_i, sum w_i b_i of weight 1
   (a side with no rows has none). By the triangle inequality the reduced
   objective is at most the full one, and equal to it where every globbed
   row keeps its sign, so a reduced minimizer at which each globbed row
   has a nonzero residual of its glob's sign is a full minimizer. Rows
   that fail that move into the band and the reduced simplex runs again
   from there. A band and globs that miss a direction the rows span grow
   to all m rows, and a band of all m rows is step 3 on all rows; so is
   the top level when the sample was rank deficient. The dual vector
   on all rows is the reduced one on the band and the glob's sign on each
   globbed row, and solve_lad certifies it on all m rows.

The sample's minimizer is near the full one, so the top level starts near
its end and takes fewer pivots than from least squares, and each sample
level costs about an eighth of the level above. Step 4 runs those pivots on
the m/8 band rows and two globs instead of all m rows; a round costs one
pass over A for the globs and one for the sign check. A pivot makes one
pass over its rows, c = A u, and a few elementwise passes over them: the
crossing test and the crossing rows' breakpoints, the partition that picks
a head of them, the step of the residuals, the objective, and the zero test
with the signs. A^T (w s) is updated only on the rows whose sign changed,
and the line search orders only the head, whose size starts from what the
last search needed. On at most _SAMPLE_RATE * _HEAD = 512 rows, where a head
grown once from _HEAD would hold every row, it orders all the breakpoints in
one pass, with no partition.

The d x d work of a pivot uses the inverse of the basis rows, carried along
the pivots by the rank-one (product-form) update of the revised simplex
(Dantzig & Orchard-Hays, 1954): the multipliers cost one matvec and the
direction u is one of its columns. It is recomputed from scratch with the
state and every d pivots, so long runs do not drift. The multipliers come
from a solve at a vertex, so that a certificate has the bits of a solve, and
where the two largest are within SOLVER_TOL of each other, where rounding
picks the pivot row. The start basis costs one QR when its first d rows in
order are independent; else the rows are tested one by one.

The final basis gives the dual vector: the signs of the nonbasic residuals
and the basis multipliers. A vertex whose multipliers pass and whose duality
gap closes (to SOLVER_TOL times the objective, up to rounding) is a global
minimizer of the convex objective; the start basis only sets how many pivots
it takes. Minimizers need not be unique; callers should compare objectives,
not coefficient vectors.
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
    "SOLVER_TOL",
    "LadProblem",
    "LadSolution",
    "l1_norm",
    "objective",
    "solve_lad",
]

# The certification tolerance of every solve: basis multipliers within
# [-1 - SOLVER_TOL, 1 + SOLVER_TOL] and a duality gap within SOLVER_TOL times
# the objective, up to the rounding of the residuals (see the module docstring).
SOLVER_TOL = 1e-8

# seed of the tie-breaking direction h (see the module docstring)
_TIE_SEED = 0x1AD
# a residual is zero where |r_i| <= _ZERO_REL (||a_i||_1 max|x| + |b_i|)
_ZERO_REL = 1e-13
# a row is independent of others where its part outside their span is above
# _INDEPENDENT_REL times its norm
_INDEPENDENT_REL = 1e-10
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
    iterations: int  # pivots on all rows, or in every band round; not on the row samples
    status: str  # "optimal" | "uncertified" (the duality gap stayed open) | "max_iter"
    certificate_infnorm: float


def objective(prob: LadProblem, beta) -> float:
    """sum_i w_i |a_i^T beta - b_i|, with a compensated final reduction."""
    beta = as_vector(beta, length=prob.A.shape[1])
    r = np.abs(prob.A @ beta - prob.b)
    return math.fsum((r if prob.row_weights is None else prob.row_weights * r).tolist())


def _head(x: np.ndarray, k: int) -> np.ndarray:
    """Indices, in index order, of the entries of x up to its k-th smallest,
    ties included: a head of x's sorted order, whatever breaks its ties."""
    if k >= x.size:
        return np.arange(x.size)
    return np.flatnonzero(x <= np.partition(x, k - 1)[k - 1])


def _greedy_basis(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sorted indices of the first d linearly independent rows in order of
    increasing |r_i|, ties by index. The first d rows of that order are taken
    at once when every |R_jj| of their QR passes the independence test;
    else the rows are tested one by one in that order."""
    m, d = A.shape
    abs_r = np.abs(r)
    if m >= d:  # fewer than d rows: the loop below refuses
        head = _head(abs_r, d)  # a partition: the QR usually passes, and a sort costs more
        first = head[np.argsort(abs_r[head], kind="stable")][:d]
        H = A[first]
        R_jj = np.abs(np.linalg.qr(H.T, mode="r").diagonal())
        if (R_jj > _INDEPENDENT_REL * np.maximum(np.linalg.norm(H, axis=1), 1e-300)).all():
            return np.sort(first)
    Q, basis = np.zeros((d, 0)), []
    for i in np.argsort(abs_r, kind="stable"):
        a = A[i]
        resid = a - Q @ (Q.T @ a)
        resid = resid - Q @ (Q.T @ resid)
        nrm = float(np.linalg.norm(resid))
        if nrm > _INDEPENDENT_REL * max(float(np.linalg.norm(a)), 1e-300):
            Q = np.hstack([Q, (resid / nrm)[:, None]])
            basis.append(int(i))
            if len(basis) == d:
                return np.sort(np.array(basis, dtype=np.intp))
    raise RankDeficiencyError("could not assemble an invertible basis")


def _entering_row(t, need, gather, k):
    """(index, rank) of the first breakpoint, in the order of t then t_e, at
    which the running sum of rise reaches need, or of the last breakpoint if
    none does; gather(idx) returns (t_e[idx], rise[idx]). Only the
    breakpoints with t up to the k-th smallest (ties included) are gathered
    and ordered: that set is a head of the full order, and k grows 8-fold
    until the sum reaches need inside it; from k = t.size up, every
    breakpoint is ordered in one pass, with no partition and no gather. The
    simplex starts k at twice the rank the last search returned: the ranks
    fall from thousands to a few along a solve. A head without ties in t is
    ordered by t alone."""
    while True:
        whole = k >= t.size
        head = slice(None) if whole else _head(t, k)
        t_h = t[head]
        t_e, rise = gather(head)
        order = t_h.argsort()
        t_sorted = t_h[order]
        if (t_sorted[1:] == t_sorted[:-1]).any():  # ties in t: order them by t_e, then index
            order = np.lexsort((t_e, t_h))
        j = int(rise[order].cumsum().searchsorted(need, side="left"))
        if j < order.size or order.size == t.size:
            j = min(j, order.size - 1)
            return (order[j] if whole else head[order[j]]), j
        k *= 8


def _zero_signs(X, r, rho, zero_test):
    """The zero test and signs of carried and recomputed residuals alike: set
    r_i to exactly 0 where |r_i| <= _ZERO_REL (||a_i||_1 max|x| + |b_i|), so
    repeated rows stay equal, and return the signs of r, with those of rho
    where r_i is 0. zero_test holds the _ZERO_REL multiples of ||a_i||_1 and
    |b_i|. The zero rows are usually few, so they are indexed, not masked."""
    row_l1, abs_b = zero_test
    bound = row_l1 * np.abs(X[:, 0]).max()
    bound += abs_b
    zero = (np.abs(r) <= bound).nonzero()[0]
    r[zero] = 0.0
    s = np.sign(r)
    s[zero] = np.sign(rho[zero])
    return s


def _vertex(A, rhs, w, basis, zero_test):
    """From scratch at a basis: X = A_B^-1 rhs_B, residuals r and rho, the
    signs s of _zero_signs (zero on the basis, where rho is zero too) and
    g = A^T (w s)."""
    X = np.linalg.solve(A[basis], rhs[basis])
    r, rho = (A @ X - rhs).T.copy()
    r[basis] = rho[basis] = 0.0
    s = _zero_signs(X, r, rho, zero_test)
    return X, r, rho, s, A.T @ (w * s)


def _step(X, r, rho, u, c, t, t_e):
    """Move the state in place by t + e t_e along u, where c = A u."""
    X += u[:, None] * (t, t_e)
    r += t * c
    rho += t_e * c


def _settle(A, w, X, r, rho, s, g, zero_test):
    """After a step, with r and rho zeroed on the basis: zero the residuals
    and take the signs by _zero_signs, update s in place, and return
    g = A^T (w s) updated on the rows whose sign changed."""
    s_all = _zero_signs(X, r, rho, zero_test)
    changed = (s_all != s).nonzero()[0]
    s_new = s_all[changed]
    g = g + A[changed].T @ (w[changed] * (s_new - s[changed]))
    s[changed] = s_new
    return g


def _multipliers(A, w, basis, g, B_inv):
    """The basis multipliers sigma = -A_B^-T g / w_B: from the carried
    inverse B_inv, or from a solve when B_inv is None or the two largest
    |sigma_i| are within SOLVER_TOL of each other. Rounding then picks the
    pivot row, and the solve picks the one a solve at every pivot would."""
    if B_inv is not None:
        sigma = -(g @ B_inv) / w[basis]
        mags = np.abs(sigma)
        mags.sort()
        if mags.size == 1 or mags[-2] < (1.0 - SOLVER_TOL) * mags[-1]:
            return sigma
    return -np.linalg.solve(A[basis].T, g) / w[basis]


def _update_inverse(B_inv, A, basis, p, refresh):
    """A_B^-1 after basis row p was replaced by row basis[p]: recomputed from
    scratch when refresh is set, else B_inv updated in place by the rank-one
    (product-form) update of the revised simplex, an O(d^2) step."""
    if refresh:
        return np.linalg.inv(A[basis])
    v = A[basis[p]] @ B_inv
    col = B_inv[:, p] / v[p]
    B_inv -= col[:, None] * v
    B_inv[:, p] = col
    return B_inv


def _l1_simplex(A, b, w, basis, max_pivots):
    """Pivot from the given basis until every basis multiplier lies in
    [-1 - SOLVER_TOL, 1 + SOLVER_TOL], or max_pivots pivots. Returns (beta,
    status, s, pivots) at the certified vertex, or at the best vertex seen;
    s is the dual vector: residual signs off the basis, clipped multipliers
    on it. The inverse of the basis rows is carried along the pivots and
    steers them; it is recomputed from scratch with the state and every d
    pivots, and the multipliers that certify come from a solve at the
    vertex."""
    m, d = A.shape
    # column 0 is b, column 1 the tie-breaking direction h
    rhs = np.column_stack([b, np.random.default_rng(_TIE_SEED).random(m)])
    zero_test = (_ZERO_REL * np.abs(A).sum(axis=1), _ZERO_REL * np.abs(b))
    # up to _SAMPLE_RATE * _HEAD rows, a head grown once from _HEAD would
    # already hold every row: each line search orders all breakpoints at once
    k_min = m if m <= _SAMPLE_RATE * _HEAD else _HEAD
    best, status, pivots, scratch, k = (math.inf, basis), "max_iter", 0, True, k_min
    while True:
        if scratch:
            X, r, rho, s, g = _vertex(A, rhs, w, basis, zero_test)
        sigma = _multipliers(A, w, basis, g, None if scratch else B_inv)
        p = int(np.abs(sigma).argmax())
        if abs(sigma[p]) <= 1.0 + SOLVER_TOL:
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
        if scratch:
            B_inv = np.linalg.inv(A[basis])
        # move basis row p off zero in the descent direction: A_B u = sign e_p
        u = math.copysign(1.0, sigma[p]) * B_inv[:, p]
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
        k = max(k_min, 2 * passed)
        basis = basis.copy()
        q = basis[p] = cross[j]
        _step(X, r, rho, u, c, t[j], -rho[q] / c[q])
        r[basis] = rho[basis] = 0.0
        g = _settle(A, w, X, r, rho, s, g, zero_test)
        pivots, scratch = pivots + 1, False
        B_inv = _update_inverse(B_inv, A, basis, p, pivots % d == 0)
    if status != "optimal":
        basis = best[1]
        X, r, rho, s, g = _vertex(A, rhs, w, basis, zero_test)
        sigma = _multipliers(A, w, basis, g, None)
    s[basis] = np.clip(sigma, -1.0, 1.0)
    return X[:, 0], status, s, pivots


def _solve(A, b, w, max_pivots):
    """_l1_simplex's (beta, status, s, pivots) on column-equilibrated rows with
    positive weights, by the steps of the module docstring. Raises
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
    beta = None
    if m >= _COARSE_ROWS * d:
        rows = np.random.default_rng(_SAMPLE_SEED).random(m) < 1.0 / _SAMPLE_RATE
        try:
            beta = _solve(A[rows], b[rows], w[rows], max_pivots)[0]
        except RankDeficiencyError:  # the sample misses a direction the rows span
            pass
    if beta is None:  # the weighted least-squares solution
        beta = D * (L_inv.T @ (L_inv @ (D * (A.T @ (w * b)))))
    elif m >= _SAMPLE_RATE * _COARSE_ROWS * d:  # step 4
        return _globbed(A, b, w, beta, max_pivots)
    return _l1_simplex(A, b, w, _greedy_basis(A, A @ beta - b), max_pivots)


def _globbed(A, b, w, beta, max_pivots):
    """_l1_simplex's (beta, status, s, pivots) on all rows, from rounds of the
    simplex on a band of rows plus globs (step 4 of the module docstring),
    from the pilot beta. The rounds share the pivot budget and their pivots
    are summed. A round that does not end "optimal" is returned as it is."""
    m = A.shape[0]
    r = A @ beta - b
    band = np.zeros(m, dtype=bool)
    band[_head(np.abs(r), m // _SAMPLE_RATE)] = True
    side = np.sign(r)  # nonzero off the band, which holds every zero residual
    pivots = 0
    while True:
        rows = band.nonzero()[0]
        # row weights of the two globs; a side with no rows gets no glob row
        W = np.stack([np.where(band | (side != sign), 0.0, w) for sign in (1.0, -1.0)])
        W = W[W.any(axis=1)]
        A_r = np.vstack([A[rows], W @ A])
        b_r = np.concatenate([b[rows], W @ b])
        w_r = np.concatenate([w[rows], np.ones(W.shape[0])])
        try:
            basis = _greedy_basis(A_r, A_r @ beta - b_r)
        except RankDeficiencyError:  # the band and globs miss a direction the rows span
            if band.all():
                raise
            band[:] = True
            continue
        beta, status, s_r, p = _l1_simplex(A_r, b_r, w_r, basis, max_pivots - pivots)
        pivots += p
        wrong = ~band & (side * (A @ beta - b) <= 0.0)
        if status != "optimal" or not wrong.any():
            s = side.copy()
            s[rows] = s_r[:rows.size]
            return beta, status, s, pivots
        band |= wrong


def solve_lad(prob: LadProblem, max_iters: int = 2000) -> LadSolution:
    """Minimize the weighted LAD objective to within (1 + SOLVER_TOL) of optimal.

    max_iters is the pivot budget of the top level's simplex: the simplex on
    all the positively weighted rows, or, from 2560 d of them up, the rounds
    of the simplex on the band and globs, which share it.
    LadSolution.iterations counts those pivots, summed over the rounds; the
    simplex of each row sample that builds the start gets the same budget
    and is not counted. A band round that runs out of budget is returned
    with status "max_iter", and no further round runs. Raises
    RankDeficiencyError when A is rank deficient on the rows with positive
    weight. A solution with status "optimal" is a vertex whose dual vector
    has basis multipliers within [-1 - SOLVER_TOL, 1 + SOLVER_TOL] and a
    duality gap within SOLVER_TOL times the objective plus its residuals'
    rounding; "uncertified", one whose multipliers pass while the gap is open.
    "max_iter" means the budget ran out first; the best vertex seen is returned.
    """
    if max_iters < 0:
        raise DataError("max_iters must be nonnegative")
    A, b, w = prob.A, prob.b, prob.weights
    keep = w > 0
    if not keep.all():  # with every weight positive the gather's copy is skipped
        A, b, w = A[keep], b[keep], w[keep]
    m, d = A.shape
    if m < d:
        raise RankDeficiencyError("fewer positively weighted rows than columns")
    # solve in column-equilibrated coordinates; residuals are unchanged and
    # the coefficients map back through the scales
    try:
        A, col_scale = equilibrate_columns(np.ascontiguousarray(A))
    except RankDeficiencyError:  # the message trial records carry
        raise RankDeficiencyError("an all-zero column on the weighted support") from None
    beta, status, s_full, pivots = _solve(A, b, w, max_iters)
    cert_norm = float(np.max(np.abs(A.T @ (w * s_full))))
    beta_out = beta / col_scale
    obj = objective(prob, beta_out)

    # objective minus the dual bound f(x) >= -s.(w b) - ||A^T (w s)||_inf ||x||_1;
    # rounding, _ZERO_REL sum_i w_i (|a_i| |beta| + |b_i|), bounds the residuals'
    # rounding, at most the zero test's: all the gap of a 0 minimum
    gap = obj + math.fsum((s_full * w * b).tolist()) + cert_norm * l1_norm(beta)
    rounding = _ZERO_REL * float(w @ (np.abs(A) @ np.abs(beta) + np.abs(b)))
    if status == "optimal" and obj > 0.0 and gap > SOLVER_TOL * obj + rounding:
        status = "uncertified"
    return LadSolution(beta=beta_out, objective=obj, optimality_gap_estimate=max(0.0, gap),
                       iterations=pivots, status=status, certificate_infnorm=cert_norm)
