"""Test-side helpers: checks and round trips that only the tests use."""

import numpy as np
from scipy.linalg import solve_triangular

from lewisreg.lad import l1_norm
from lewisreg.linalg import SpdFactorization, as_design_matrix, as_vector
from lewisreg.sketch import Sketch, apply_to_columns


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
