"""Dense SPD factorization with diagonal jitter escalation.

Covariance matrices of smooth kernels are frequently semidefinite to within
rounding, so a plain Cholesky can fail on matrices that are PSD in exact
arithmetic.  The standard remedy is a tiny diagonal shift, escalated
geometrically until the factorization succeeds or a configured ceiling is
reached.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FactorizationError", "chol_with_jitter"]

_INITIAL_JITTER = 1e-14  # first diagonal shift tried
_GROWTH = 10.0  # escalation factor between shifts


class FactorizationError(RuntimeError):
    """Cholesky failed at the maximum allowed jitter."""

    def __init__(self, message: str, min_eigenvalue: float, max_jitter: float):
        super().__init__(
            f"{message}: estimated min eigenvalue {min_eigenvalue:.3e}, "
            f"jitter ceiling {max_jitter:.1e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.max_jitter = max_jitter


def chol_with_jitter(mat: np.ndarray, max_jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of mat (+ jitter * I as needed).

    Tries the unmodified matrix first, then escalates the diagonal shift
    geometrically from 1e-14 by factors of 10 up to `max_jitter`.  Returns
    (L, jitter_used).  Raises FactorizationError, reporting the estimated
    minimum eigenvalue, if the ceiling is reached.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(mat if jitter == 0.0 else mat + jitter * np.eye(n))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = _INITIAL_JITTER if jitter == 0.0 else jitter * _GROWTH
            if jitter > max_jitter:
                min_eig = float(np.linalg.eigvalsh(mat)[0])
                raise FactorizationError(
                    "Cholesky failed after jitter escalation", min_eig, max_jitter
                ) from None
