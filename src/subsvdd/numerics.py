"""Dense linear-algebra primitives used by the rest of the package.

Matrices are C-ordered float64 ndarrays; vectorizing a matrix always means
row-major order (``reshape(-1)``), i.e. entry (i, j) of an r x c matrix lands
at flat index i*c + j. All functions are pure and reject NaN/Inf inputs
(``NonFinite``).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotSymmetric, RankDeficient

RANK_TOL = 1e-12
SYM_TOL = 1e-9


def as_matrix(m, name="matrix"):
    """Validate and return a finite 2-D float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


def qr_orthonormalize_rows(m):
    """Orthonormalize the rows of a d x D matrix (d <= D) via QR of its transpose.

    The row space is preserved. QR sign freedom is fixed deterministically:
    each output row is flipped so that its entry of largest magnitude (first
    such entry on ties) is non-negative.

    Raises RankDeficient when the numerical row rank is below d; the exception
    carries the offending row indices (those whose R diagonal collapsed).
    """
    a = as_matrix(m, "m")
    d, big_d = a.shape
    if d > big_d:
        raise DimensionMismatch(f"need d <= D, got {d}x{big_d}")
    q, r = np.linalg.qr(a.T)  # q: D x d, r: d x d
    diag = np.abs(np.diag(r))
    tol = RANK_TOL * diag.max() if diag.size else 0.0
    bad = np.nonzero(diag < tol)[0]
    if diag.size and (bad.size or diag.max() == 0.0):
        if not bad.size:
            bad = np.arange(d)
        raise RankDeficient(
            f"numerical row rank < {d} (rows {bad.tolist()} dependent)", rows=bad.tolist()
        )
    out = q.T.copy()
    flip = out[np.arange(d), np.argmax(np.abs(out), axis=1)] < 0.0
    out[flip] = -out[flip]
    return out


def sym_eig(s):
    """Eigendecompose a symmetric matrix: (eigenvalues, eigenvectors) as
    ``numpy.linalg.eigh`` returns them, but with the eigenvalues descending.

    Input asymmetry up to SYM_TOL is tolerated and symmetrized away (centered
    kernels pick up ~1e-15 asymmetry from floating point); larger asymmetry
    raises NotSymmetric.
    """
    a = as_matrix(s, "s")
    n, n2 = a.shape
    if n != n2:
        raise DimensionMismatch(f"expected square matrix, got {n}x{n2}")
    asym = np.abs(a - a.T).max() if n else 0.0
    if asym > SYM_TOL:
        raise NotSymmetric(f"max asymmetry {asym:.3e} exceeds {SYM_TOL:.1e}")
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]
