"""Dense complex-matrix kernels of the precoder, and the default rank cutoff.

Only :mod:`hmimos.precoding` calls these kernels; the CLI and the
experiments import :data:`DEFAULT_TOL` alone.  All routines are pure
functions of their inputs.  Rank decisions use a relative singular-value
cutoff (``tol`` times the largest singular value), so they behave
consistently on non-square and rank-deficient blocks.  Singular vectors
carry LAPACK's arbitrary phases; every consumer is invariant to them, and
repeated runs on the same input and BLAS thread count produce identical
matrices.  Only :func:`svd_partition` forms a full V (it must, to return a
null-space basis).  The precoder calls it to orient each group's
block-diagonalization basis, on matrices no wider than the joint row space
of the receivers, and for the others' null spaces only when the stacked
groups are rank-deficient; everything else takes the thin :func:`thin_svd`.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a nonempty finite complex 2-D array."""
    m = np.asarray(a)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {m.shape!r}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    # No contiguous copy: numpy's SVD copies its input into its own Fortran
    # buffer anyway.
    return m.astype(np.complex128, copy=False)


def _rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values (descending) above ``tol`` times the largest."""
    smax = s[0] if s.size else 0.0
    return int(np.count_nonzero(s > tol * smax)) if smax > 0 else 0


def svd_partition(a, tol: float = DEFAULT_TOL):
    """Full SVD of ``a`` split at the rank cutoff.

    Returns ``(u, s, v1, v0)`` with ``a = u @ diag(s) @ vstack([v1, v0])``
    (up to zero padding of the singular values).  Rows of ``v1`` span the row
    space (singular value above ``tol * s_max``), rows of ``v0`` span the
    null space; callers that need a column basis take the conjugate
    transpose.
    """
    a = as_matrix(a)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = _rank(s, tol)
    return u, s, vh[:rank], vh[rank:]


def thin_svd(a, tol: float = DEFAULT_TOL):
    """Thin SVD of ``a`` and its rank at the cutoff ``tol * s_max``.

    Returns ``(u, s, vh, rank)`` with ``a = u @ diag(s) @ vh``; no factor
    wider than ``min(a.shape)`` is formed.
    """
    a = as_matrix(a)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh, _rank(s, tol)


def range_basis(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range (column space) of ``a``.

    The leading ``rank`` left singular vectors of :func:`thin_svd`, so the
    result is ``a.shape[0] x rank``.  The row space of ``a`` is
    ``range_basis(a.conj().T)``.
    """
    u, _, _, rank = thin_svd(a, tol)
    return u[:, :rank]
