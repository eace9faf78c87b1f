"""Reference formulas that the tests compare the library against.

None of these is on a pipeline path: they evaluate the textbook closed forms
one point at a time, independent of the vectorized kernels in ``hmimos``.
"""

import math

import numpy as np

from hmimos.correlation import transmit_correlation
from hmimos.errors import SingularityError


def scalar_green(r, rp, k0: float) -> complex:
    """Free-space scalar Green's function exp(i k0 d) / (4 pi d)."""
    d = float(np.linalg.norm(np.asarray(r, dtype=float) - np.asarray(rp, dtype=float)))
    if d == 0.0:
        raise SingularityError("coincident source and observation points")
    return np.exp(1j * k0 * d) / (4.0 * math.pi * d)


def radial_coeffs(k0r: float) -> tuple[complex, complex]:
    """Scalar (c1, c2): c1 = 1 + i/x - 1/x^2 and c2 = 3/x^2 - 3i/x - 1 at x = k0 r."""
    inv = 1.0 / k0r
    return 1.0 + 1j * inv - inv**2, 3.0 * inv**2 - 3j * inv - 1.0


def dyadic_green(r, rp, k0: float) -> np.ndarray:
    """Point-to-point 3x3 dyadic Green's function (c1 I + c2 rr) g."""
    diff = np.asarray(r, dtype=float) - np.asarray(rp, dtype=float)
    d = float(np.linalg.norm(diff))
    g = scalar_green(r, rp, k0)
    unit = diff / d
    c1, c2 = radial_coeffs(k0 * d)
    return (c1 * np.eye(3) + c2 * np.outer(unit, unit)) * g


def correlation_dof(r) -> float:
    """Diversity gain (tr R / ||R||_f)^2 of a correlation matrix."""
    mat = np.asarray(r, dtype=float)
    fro = np.linalg.norm(mat)
    if fro == 0.0:
        raise ValueError("zero correlation matrix has no diversity gain")
    return float((np.trace(mat) / fro) ** 2)


def tp_dof(spec, distance: float, k0: float) -> float:
    """Diversity gain of the xx, yy and zz raw correlations combined.

    Equals ``correlation_dof`` of their block-diagonal matrix, from traces
    and Frobenius norms alone.
    """
    mats = [transmit_correlation(spec, distance, k0, pol).raw for pol in ("xx", "yy", "zz")]
    trace = sum(float(np.trace(m)) for m in mats)
    fro2 = sum(float(np.linalg.norm(m)) ** 2 for m in mats)
    return trace**2 / fro2


def significant_count(eigenvalues, fraction: float = 0.01) -> int:
    """How many eigenvalues exceed ``fraction`` of the largest one."""
    e = np.asarray(eigenvalues, dtype=float)
    if e.size == 0 or e[0] <= 0:
        return 0
    return int(np.count_nonzero(e > fraction * e[0]))


def channel_dof_full_gram(h) -> float:
    """Diversity gain (tr R / ||R||_f)^2 from the full complex Gram R = H H^H.

    Takes the smaller of H H^H and H^H H, which share their nonzero
    eigenvalues.
    """
    mat = np.asarray(h, dtype=np.complex128)
    fro2 = float(np.linalg.norm(mat) ** 2)
    small = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    return fro2**2 / float(np.linalg.norm(small) ** 2)


def capacity_logdet(h, snr: float) -> float:
    """log2 det(I + snr H H^H) of H trace-normalized to ||H||_f^2 = rows, at one SNR.

    Forms the Gram matrix and its log-determinant, with no eigenvalues.
    """
    mat = np.asarray(h, dtype=np.complex128)
    rows = mat.shape[0]
    fro = np.linalg.norm(mat)
    if fro == 0.0:
        return 0.0
    scaled = mat * (np.sqrt(rows) / fro)
    _, logdet = np.linalg.slogdet(np.eye(rows) + snr * (scaled @ scaled.conj().T))
    return float(logdet / np.log(2.0))
