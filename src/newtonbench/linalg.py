"""Dense symmetric solves with Tikhonov damping and a low-rank (Woodbury)
variant.

Everything here operates on plain float64 numpy arrays: vectors are 1-D,
matrices 2-D row-major and nonempty. Inputs are validated to be finite.
"""

import numpy as np

from .errors import NonFiniteResult, SingularMatrix, checked, checked_real

# Relative eigenvalue threshold under which a damped system is declared
# numerically singular: min|w + lam| <= PIVOT_RTOL * max|w + lam|.
PIVOT_RTOL = 1e-12


class TikhonovSolver:
    """Eigendecomposition of (sym(M) + lambda*I) reusable across right-hand sides.

    One np.linalg.eigh of sym(M) = V diag(w) V^T per damped curvature matrix
    serves a whole batch of gradient solves as V diag(1/(w+lambda)) V^T B.
    M is symmetrized as (M + M^T)/2 on entry; near-symmetric inputs such as
    finite-difference Hessians are accepted rather than rejected. Raises
    NonFiniteResult when an eigenvalue is not finite (sym(M) overflows) and
    SingularMatrix when min|w+lambda| <= PIVOT_RTOL * max|w+lambda|.
    """

    def __init__(self, M, lam):
        M = checked(M, "M", (None, None))
        self.dim = m = len(M)
        if M.shape[1] != m:
            checked(M, "M", (m, m))  # raises, in checked's form
        checked_real(lam, "lam", 0)
        with np.errstate(over="ignore"):  # an overflow is named by the eigenvalue check
            sym = 0.5 * (M + M.T)
        w, self._V = np.linalg.eigh(sym)
        self._w = checked(w, "eigenvalues of sym(M)", (m,)) + lam
        mag = np.abs(self._w)
        if mag.min() <= PIVOT_RTOL * mag.max():
            raise SingularMatrix(
                f"eigenvalue {mag.min():.3e} below {PIVOT_RTOL:g} * "
                f"max|eigenvalue| = {PIVOT_RTOL * mag.max():.3e}"
            )

    def solve(self, g):
        return self.solve_mat(checked(g, "g", (self.dim,))[:, None])[:, 0]

    def solve_mat(self, B):
        """Solve against an (dim x k) block of right-hand sides."""
        B = checked(B, "B", (self.dim, None))
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
    G = checked(G, "G", (None, None))
    n, m = G.shape
    B = checked(B, "B", (None, m))
    checked_real(lam, "lam", 0, strict=True)
    inner = (G @ G.T) / (n * lam)
    try:
        W = TikhonovSolver(inner, 1.0).solve_mat(G @ B.T)
    except SingularMatrix as exc:
        raise SingularMatrix(f"degenerate inner Woodbury system: {exc}") from exc
    X = B / lam - (G.T @ W).T / (n * lam * lam)
    if not np.all(np.isfinite(X)):
        raise NonFiniteResult("woodbury solve produced non-finite values")
    return X
