"""Test-side helpers: oracles, checks and round trips that only the tests use."""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from lewisreg.lad import _TIE_SEED, SOLVER_TOL, l1_norm
from lewisreg.lewis import SAMPLING_TOL, lewis_weights, recommended_budget
from lewisreg.linalg import (
    RankDeficiencyError,
    SpdFactorization,
    as_design_matrix,
    as_vector,
)
from lewisreg.sketch import RngStream, Sketch


def oversampled_budget(k: int, eps: float, delta: float, regime: str) -> int:
    """The recommended budget for k importance columns, enlarged by
    1/(1 - SAMPLING_TOL)^2 for weights certified only to SAMPLING_TOL."""
    return math.ceil(recommended_budget(k, eps, delta, regime) / (1 - SAMPLING_TOL) ** 2)


def identity_sketch(n: int) -> Sketch:
    """The deterministic sketch with draws (k, 1) in order; applies as identity."""
    return Sketch(source_n=n, indices=np.arange(n, dtype=np.intp),
                  scales=np.ones(n), seed=None)


def apply_to_columns(S: Sketch, M) -> np.ndarray:
    """Row k of the output is scale_k times row i_k of M (matrix or vector)."""
    A = np.asarray(M, dtype=np.float64)
    if A.shape[0] != S.source_n:
        raise ValueError(f"operand has {A.shape[0]} rows, sketch expects {S.source_n}")
    if A.ndim == 1:
        return A[S.indices] * S.scales
    if A.ndim == 2:
        return A[S.indices] * S.scales[:, None]
    raise ValueError("operand must be a vector or a matrix")


def embedding_distortion(S: Sketch, X, probes: int, rng: RngStream) -> float:
    """Largest observed |  ||S X b||_1 - 1 | over random probe directions b,
    each normalized so ||X b||_1 = 1.

    This is a lower bound on the true subspace distortion (the max over the
    whole column space), not a certificate.
    """
    X = as_design_matrix(X)
    if probes < 1:
        raise ValueError("need at least one probe")
    g = rng.generator()
    d = X.shape[1]
    B = g.standard_normal((d, probes))
    Y = X @ B
    norms = np.abs(Y).sum(axis=0)
    ok = norms > 0
    if not np.any(ok):
        raise ValueError("all probes collapsed to zero; X may be zero")
    Y = Y[:, ok] / norms[ok]
    SY = Y[S.indices] * S.scales[:, None]
    sketched = np.abs(SY).sum(axis=0)
    return float(np.max(np.abs(sketched - 1.0)))


class MonotonicityCheck(NamedTuple):
    ok: bool
    max_violation: float


def check_row_addition_monotonicity(X, extra_rows, *, slack: float = 1e-7) -> MonotonicityCheck:
    """Do the original rows' Lewis weights stay put or drop when rows are added?

    Returns (ok, max_violation) where the violation is the largest increase of
    any original row's weight in the stacked matrix; ok means it is <= slack.
    """
    X = as_design_matrix(X)
    extra = np.asarray(extra_rows, dtype=np.float64)
    if extra.size == 0:
        extra = extra.reshape(0, X.shape[1])
    if extra.ndim != 2 or extra.shape[1] != X.shape[1]:
        raise ValueError("extra rows must have the same column count as X")
    w_before = lewis_weights(X).values
    w_after = lewis_weights(np.vstack([X, extra])).values[: X.shape[0]]
    violation = float(np.max(w_after - w_before))
    return MonotonicityCheck(ok=violation <= slack, max_violation=violation)


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


def relative_error_gap(X, y, S: Sketch, beta_star, beta) -> float:
    """Deviation of the sketched loss difference from the true loss difference,
    normalized by ||X (beta_star - beta)||_1 (0 when beta equals beta_star).

    The sketch cannot estimate either loss by itself, but it must preserve
    their difference.
    """
    X = as_design_matrix(X)
    y = as_vector(y, length=X.shape[0])
    beta_star = as_vector(beta_star, length=X.shape[1])
    beta = as_vector(beta, length=X.shape[1])
    denom = l1_norm(X @ (beta_star - beta))
    if denom == 0.0:
        return 0.0
    res_star = X @ beta_star - y
    res = X @ beta - y
    sketched = l1_norm(apply_to_columns(S, res_star)) - l1_norm(apply_to_columns(S, res))
    full = l1_norm(res_star) - l1_norm(res)
    return (sketched - full) / denom


def sketch_to_json_dict(S: Sketch) -> dict:
    return {
        "n": S.source_n,
        "N": S.n_draws,
        "seed": list(S.seed) if S.seed is not None else None,
        "draws": [[int(i), float(s)] for i, s in zip(S.indices, S.scales)],
    }


def sketch_from_json_dict(obj: dict) -> Sketch:
    draws = obj["draws"]
    idx = np.array([d[0] for d in draws], dtype=np.intp)
    sc = np.array([d[1] for d in draws], dtype=np.float64)
    seed = tuple(obj["seed"]) if obj.get("seed") is not None else None
    sk = Sketch(source_n=int(obj["n"]), indices=idx, scales=sc, seed=seed)
    if sk.n_draws != int(obj["N"]):
        raise ValueError("draw count does not match declared N")
    return sk


def reconstruct(F: SpdFactorization) -> np.ndarray:
    """The matrix A that F factors: A[perm][:, perm] = L L^T."""
    R = np.empty((F.dim, F.dim))
    R[np.ix_(F.perm, F.perm)] = F.lower @ F.lower.T
    return R


def factor_solve(F: SpdFactorization, b) -> np.ndarray:
    """A^{-1} b through the factor F of A, by two triangular solves."""
    u = solve_triangular(F.lower, np.asarray(b, dtype=np.float64)[F.perm], lower=True)
    out = np.empty(F.dim)
    out[F.perm] = solve_triangular(F.lower.T, u, lower=False)
    return out


def sequential_greedy_basis(A, r):
    """Reference start basis: the first d rows, in order of increasing |r_i|
    (ties by index), that pass a Gram-Schmidt independence test one by one,
    each against the rows taken before it; sorted."""
    m, d = A.shape
    Q, basis = np.zeros((d, 0)), []
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


def full_pass_l1_simplex(A, b, w, basis, max_pivots):
    """Reference L1 simplex that passes over all m rows at every pivot: after
    each step it runs the zero test on every residual, recomputes every sign
    and updates A^T (w s) on the rows whose sign changed, and each line
    search orders its head with a two-key lexsort, its head starting at 64
    breakpoints. Like lewisreg.lad._l1_simplex, it steers the pivots by the
    inverse of the basis rows, carried by the rank-one update and recomputed
    from scratch with the state and every d pivots, and takes the
    multipliers from a solve at a vertex and where the two largest are
    within SOLVER_TOL of each other; it must return the same bits from the
    same start basis."""
    m, d = A.shape
    rhs = np.column_stack([b, np.random.default_rng(_TIE_SEED).random(m)])
    row_l1, abs_b = 1e-13 * np.abs(A).sum(axis=1), 1e-13 * np.abs(b)

    def zero(r, X):  # the one zero test, at a vertex and after every step
        return np.abs(r) <= row_l1 * np.abs(X[:, 0]).max() + abs_b

    def vertex(basis):
        X = np.linalg.solve(A[basis], rhs[basis])
        r, rho = (A @ X - rhs).T.copy()
        r[basis] = rho[basis] = 0.0
        r[zero(r, X)] = 0.0
        s = np.sign(np.where(r == 0.0, rho, r))
        return X, r, rho, s, A.T @ (w * s)

    def entering_row(t, need, gather):
        k = 64
        while True:
            head = (np.flatnonzero(t <= np.partition(t, k - 1)[k - 1]) if k < t.size
                    else np.arange(t.size))
            t_e, rise = gather(head)
            order = np.lexsort((t_e, t[head]))
            j = int(rise[order].cumsum().searchsorted(need, side="left"))
            if j < order.size or order.size == t.size:
                return head[order[min(j, order.size - 1)]]
            k *= 8

    best, status, pivots, scratch = (math.inf, basis), "max_iter", 0, True
    while True:
        if scratch:
            X, r, rho, s, g = vertex(basis)
            sigma = -np.linalg.solve(A[basis].T, g) / w[basis]
        else:
            sigma = -(g @ B_inv) / w[basis]
            mags = np.sort(np.abs(sigma))
            if d > 1 and mags[-2] >= (1.0 - SOLVER_TOL) * mags[-1]:  # a near tie: solve
                sigma = -np.linalg.solve(A[basis].T, g) / w[basis]
        p = int(np.abs(sigma).argmax())
        if abs(sigma[p]) <= 1.0 + SOLVER_TOL:
            if scratch:
                status = "optimal"
                break
            scratch = True
            continue
        obj = float(w @ np.abs(r))
        if obj < best[0]:
            best = (obj, basis)
        if pivots == max_pivots:
            break
        if scratch:
            B_inv = np.linalg.inv(A[basis])
        u = math.copysign(1.0, sigma[p]) * B_inv[:, p]
        c = A @ u
        cut = np.abs(c)
        cut[basis] = 0.0
        cross = (s * c < -1e-12 * cut.max()).nonzero()[0]
        if cross.size == 0:
            break
        t = -r[cross] / c[cross]
        j = entering_row(t, w[basis[p]] * (abs(sigma[p]) - 1.0), lambda head: (
            -rho[cross[head]] / c[cross[head]], 2.0 * w[cross[head]] * np.abs(c[cross[head]])))
        basis = basis.copy()
        q = basis[p] = cross[j]
        t_e = -rho[q] / c[q]
        X += u[:, None] * (t[j], t_e)
        r += t[j] * c
        rho += t_e * c
        r[basis] = rho[basis] = 0.0
        r[zero(r, X)] = 0.0
        s_old, s = s, np.sign(np.where(r == 0.0, rho, r))
        changed = (s != s_old).nonzero()[0]
        g = g + A[changed].T @ (w[changed] * (s[changed] - s_old[changed]))
        pivots, scratch = pivots + 1, False
        if pivots % d == 0:
            B_inv = np.linalg.inv(A[basis])
        else:  # row p of A_B became a_q: Sherman-Morrison on the inverse
            v = A[q] @ B_inv
            col = B_inv[:, p] / v[p]
            B_inv = B_inv - col[:, None] * v
            B_inv[:, p] = col
    if status != "optimal":
        basis = best[1]
        X, r, rho, s, g = vertex(basis)
        sigma = -np.linalg.solve(A[basis].T, g) / w[basis]
    s[basis] = np.clip(sigma, -1.0, 1.0)
    return X[:, 0], status, s, pivots
