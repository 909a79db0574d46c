"""The certificate's batched symmetric eigenvalues, on LAPACK. Kept only for
the two names the benchmark tracer binds; `entropy` calls through them, and
this module folds into it once the tracer no longer binds them."""

import numpy as np


def jacobi_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (M, d) of symmetric mats (M, d, d) or (d, d)."""
    A = np.asarray(mats, dtype=np.float64)
    return np.linalg.eigvalsh(A[None] if A.ndim == 2 else A)


def jacobi_min_eigenvalue(mats: np.ndarray) -> np.ndarray:
    return jacobi_eigenvalues(mats)[:, 0]
