"""Dense symmetric solves with Tikhonov damping and a low-rank (Woodbury)
variant.

Everything here operates on plain float64 numpy arrays: vectors are 1-D,
matrices 2-D row-major and nonempty. Inputs are validated to be finite.
"""

import numpy as np

from .errors import NonFiniteResult, ShapeMismatch, SingularMatrix

# Relative eigenvalue threshold under which a damped system is declared
# numerically singular: min|w + lam| <= PIVOT_RTOL * max|w + lam|.
PIVOT_RTOL = 1e-12


def as_vector(v, name="vector"):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteResult(f"{name} contains non-finite entries")
    return v


def as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or not a.size:
        raise ShapeMismatch(f"{name} must be 2-D and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteResult(f"{name} contains non-finite entries")
    return a


class TikhonovSolver:
    """Eigendecomposition of (sym(M) + lambda*I) reusable across right-hand sides.

    One np.linalg.eigh of sym(M) = V diag(w) V^T per damped curvature matrix
    serves a whole batch of gradient solves as V diag(1/(w+lambda)) V^T B.
    M is symmetrized as (M + M^T)/2 on entry; near-symmetric inputs such as
    finite-difference Hessians are accepted rather than rejected. Raises
    SingularMatrix when min|w+lambda| <= PIVOT_RTOL * max|w+lambda|.
    """

    def __init__(self, M, lam):
        M = as_matrix(M, "M")
        m = M.shape[0]
        if M.shape[1] != m:
            raise ShapeMismatch(f"M must be square, got {M.shape}")
        if not 0 <= lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {lam}")
        self.dim = m
        w, self._V = np.linalg.eigh(0.5 * (M + M.T))
        self._w = w + lam
        mag = np.abs(self._w)
        if mag.min() <= PIVOT_RTOL * mag.max():
            raise SingularMatrix(
                f"eigenvalue {mag.min():.3e} below {PIVOT_RTOL:g} * "
                f"max|eigenvalue| = {PIVOT_RTOL * mag.max():.3e}"
            )

    def solve(self, g):
        return self.solve_mat(as_vector(g, "g")[:, None])[:, 0]

    def solve_mat(self, B):
        """Solve against an (dim x k) block of right-hand sides."""
        B = as_matrix(B, "B")
        if B.shape[0] != self.dim:
            raise ShapeMismatch(f"rhs rows {B.shape[0]} != system dim {self.dim}")
        X = self._V @ ((self._V.T @ B) / self._w[:, None])
        if not np.all(np.isfinite(X)):
            raise NonFiniteResult("solve produced non-finite values")
        return X


def woodbury_solve(G, lam, B):
    """Solve ((1/N) G^T G + lam*I) x = b for every row b of B (k x m).

    G holds N per-sample gradient rows (N x m); row i of the result solves
    against row i of B. The N x N inner system is factorized once for the
    whole block, which pays off when N < m:

        inv = I/lam - G^T (G G^T / (N lam) + I_N)^(-1) G / (N lam^2)
    """
    G = as_matrix(G, "G")
    B = as_matrix(B, "B")
    if not np.isfinite(lam) or lam <= 0:
        raise ValueError(f"lambda must be finite and > 0, got {lam}")
    n, m = G.shape
    if B.shape[1] != m:
        raise ShapeMismatch(f"rhs width {B.shape[1]} != gradient dim {m}")
    inner = (G @ G.T) / (n * lam)
    try:
        W = TikhonovSolver(inner, 1.0).solve_mat(G @ B.T)
    except SingularMatrix as exc:
        raise SingularMatrix(f"degenerate inner Woodbury system: {exc}") from exc
    X = B / lam - (G.T @ W).T / (n * lam * lam)
    if not np.all(np.isfinite(X)):
        raise NonFiniteResult("woodbury solve produced non-finite values")
    return X
