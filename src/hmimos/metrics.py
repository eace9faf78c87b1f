"""Performance quantities: spectral efficiency, capacity, diversity gain,
eigenvalue spectra.

Capacity comparisons are scale-invariant by construction: the channel is
trace-normalized per family (||H||_f^2 = number of rows) and every family
radiates the same total power at a given SNR, so only ratios between
families are meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import PolarizedChannel


def eigen_spectrum(block) -> np.ndarray:
    """Eigenvalues of the Gram matrix of a channel block, sorted descending.

    Computed as squared singular values, which ``np.linalg.svd`` returns in
    descending order, so the result is nonnegative and sums to the squared
    Frobenius norm.
    """
    mat = np.asarray(block)
    if mat.size == 0:
        raise ValueError("empty channel block")
    return np.linalg.svd(mat, compute_uv=False) ** 2


def total_spectral_efficiency(per_pol_singulars, watts, sigma2: float, interference=0.0) -> float:
    """Sum rate over the three co-polarizations: sum_j log2(1 + p_j s_j^2 / (sigma2 + leak_j)).

    ``per_pol_singulars`` and ``watts`` hold one array per polarization: the
    stream singular values (amplitudes) and the matching per-stream watts.
    ``interference`` (leak_j) is the power each stream receives from other
    streams, shared or one per stream in polarization order.
    """
    for i, (s, p) in enumerate(zip(per_pol_singulars, watts, strict=True)):
        if np.size(s) != np.size(p):
            raise ValueError(f"pol {i}: {np.size(s)} singular values but {np.size(p)} stream watts")
    s = np.concatenate(per_pol_singulars)
    snr = np.concatenate(watts) * s**2 / np.add(sigma2, interference)
    return float(np.sum(np.log2(1.0 + snr)))


def capacity(h, snr) -> float | np.ndarray:
    """Log-det capacity of a trace-normalized channel at one SNR or an array of them.

    The channel is scaled so its squared Frobenius norm equals its row
    count, and the whole (linear) SNR drives it under a total-power
    constraint.  By Telatar's identity log2 det(I + snr H H^H) =
    sum_i log2(1 + snr lambda_i), so one spectrum gives every SNR point.
    For an identity channel of size n this is n * log2(1 + snr).  Returns a
    float for a scalar ``snr`` and an array of ``snr``'s shape otherwise.
    A channel whose spectrum or trace is not finite in double precision, or
    whose trace is too small to normalize, raises ``np.linalg.LinAlgError``.
    """
    snrs = np.asarray(snr, dtype=float)
    if np.any(snrs <= 0):
        raise ValueError("snr must be positive")
    with np.errstate(over="ignore"):  # checked below
        lam = eigen_spectrum(h)
        total = lam.sum()
        scale = np.shape(h)[0] / total if total > 0.0 else 1.0  # a zero channel keeps lam = 0
    if not np.isfinite(total):
        raise np.linalg.LinAlgError(
            f"channel spectrum is not finite in double precision (trace {total:.3g})"
        )
    if not np.isfinite(scale):  # a subnormal trace
        raise np.linalg.LinAlgError(
            f"channel spectrum cannot be normalized in double precision (trace {total:.3g})"
        )
    lam *= scale
    caps = np.log1p(np.multiply.outer(snrs, lam)).sum(axis=-1) / np.log(2.0)
    return float(caps) if caps.ndim == 0 else caps


def capacity_families(channel: PolarizedChannel, snr) -> dict[str, float | np.ndarray]:
    """Capacity of the tri-, dual- and single-polarized sub-channels.

    ``snr`` is a linear SNR or an array of them, as :func:`capacity` takes.
    Families are compared under a common total-power constraint: each
    trace-normalized family radiates the same power, so the tri-polarized
    gain reflects its extra spatial dimensions rather than a per-port power
    split.  In the polarization-major layout the dual-polarized (x, y) and
    single-polarized (x) sub-channels are the leading 2 N_r x 2 N_s and
    N_r x N_s sub-matrices.
    """
    h, n_r, n_s = channel.matrix, channel.n_rx, channel.n_tx
    return {
        "tp": capacity(h, snr),
        "dp": capacity(h[: 2 * n_r, : 2 * n_s], snr),
        "single": capacity(h[:n_r, :n_s], snr),
    }


# Rows of H H^H per block of the DoF Gram norm: extra memory is O(rows x columns).
_GRAM_BLOCK_ROWS = 128


def _gram_fro2(mat: np.ndarray) -> float:
    """||M M^H||_f^2 of a complex matrix, from row blocks of the Gram matrix.

    M M^H and M^H M have equal Frobenius norms, so the wide orientation is
    used.  For each block I of b = 128 rows starting at row i0,
    ``conj(M[I]) @ M[i0:].T`` is the conjugate of rows I of R = M M^H from
    its diagonal on; the product is against a transposed view, so M is
    never copied.  R is Hermitian, so each tile counts twice except its
    diagonal b x b block, which holds both triangles already.  The flops
    are those of half the Gram, and the extra memory two blocks of b rows.
    """
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    total = 0.0
    for i0 in range(0, mat.shape[0], _GRAM_BLOCK_ROWS):
        rows = mat[i0 : i0 + _GRAM_BLOCK_ROWS]
        tile = np.conj(rows) @ mat[i0:].T
        diag = tile[:, : rows.shape[0]]
        total += 2.0 * np.vdot(tile, tile).real - np.vdot(diag, diag).real
        del tile, diag  # free this tile before the next one is allocated
    return float(total)


def channel_dof(h) -> float:
    """Diversity gain of a channel: (tr R / ||R||_f)^2 with R the Gram matrix.

    Equals the participation ratio of the channel eigenvalues,
    (sum s^2)^2 / sum s^4, evaluated without forming an eigendecomposition
    or the whole of R: ||R||_f^2 is summed over 128-row blocks of R from
    its diagonal on, so the extra memory is a few blocks of rows, not R.
    A channel whose Gram matrix is 0 in double precision (all zero, or
    every entry below about 1e-80) raises ``np.linalg.LinAlgError``, and
    so does one whose trace, Gram norm or ratio is not finite (an entry
    that is NaN or inf, or a Frobenius norm above about 1e77).
    """
    mat = np.asarray(h, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        fro = float(np.linalg.norm(mat))
        gram2 = _gram_fro2(mat)
    fro2 = fro * fro  # float products overflow to inf, where ** raises
    if gram2 == 0.0:
        raise np.linalg.LinAlgError(
            "zero channel has no diversity gain: its Gram matrix is 0 in double precision"
        )
    dof = fro2 * fro2 / gram2
    if not (math.isfinite(fro2) and math.isfinite(gram2) and math.isfinite(dof)):
        raise np.linalg.LinAlgError(
            f"diversity gain is not finite in double precision "
            f"(||H||_f^2 = {fro2:.3g}, ||H H^H||_f^2 = {gram2:.3g})"
        )
    return dof
