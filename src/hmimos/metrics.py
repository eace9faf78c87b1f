"""Performance quantities: spectral efficiency, capacity, diversity gain,
eigenvalue spectra.

Capacity comparisons are scale-invariant by construction: the channel is
trace-normalized per family (||H||_f^2 = number of rows) and every family
radiates the same total power at a given SNR, so only ratios between
families are meaningful.
"""

from __future__ import annotations

import numpy as np

from .channel import PolarizedChannel
from .power import PowerAllocation


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


def spectral_efficiency(singulars, q: float, g, sigma2) -> float:
    """Sum-rate of one co-polarization: sum_j log2(1 + q g_j s_j^2 / sigma2_j).

    ``singulars`` are stream singular values (amplitudes), ``g`` the
    matching per-stream shares, one per singular value, and ``sigma2`` the
    noise power, shared or per stream.
    """
    s = np.asarray(singulars, dtype=float)
    shares = np.asarray(g, dtype=float)
    if s.shape != shares.shape:
        raise ValueError(f"{s.size} singular values but {shares.size} stream shares")
    if s.size == 0 or q <= 0:
        return 0.0
    snr = q * shares * s**2 / sigma2
    return float(np.sum(np.log2(1.0 + snr)))


def total_spectral_efficiency(
    per_pol_singulars, pa: PowerAllocation, sigma2: float, interference=(0.0, 0.0, 0.0)
) -> float:
    """Total rate over the three co-polarizations.

    ``interference[i]`` is the power that polarization i's streams receive
    from other streams, shared or per stream; it adds to the noise.
    """
    return sum(
        spectral_efficiency(per_pol_singulars[i], pa.q[i], pa.g[i], sigma2 + interference[i])
        for i in range(3)
    )


def capacity(h, snr) -> float | np.ndarray:
    """Log-det capacity of a trace-normalized channel at one SNR or an array of them.

    The channel is scaled so its squared Frobenius norm equals its row
    count, and the whole (linear) SNR drives it under a total-power
    constraint.  By Telatar's identity log2 det(I + snr H H^H) =
    sum_i log2(1 + snr lambda_i), so one spectrum gives every SNR point.
    For an identity channel of size n this is n * log2(1 + snr).  Returns a
    float for a scalar ``snr`` and an array of ``snr``'s shape otherwise.
    """
    snrs = np.asarray(snr, dtype=float)
    if np.any(snrs <= 0):
        raise ValueError("snr must be positive")
    lam = eigen_spectrum(h)
    total = lam.sum()
    if total > 0.0:  # a zero channel keeps lam = 0 and a capacity of 0
        lam *= np.shape(h)[0] / total
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


def channel_dof(h) -> float:
    """Diversity gain of a channel: (tr R / ||R||_f)^2 with R the Gram matrix.

    Equals the participation ratio of the channel eigenvalues,
    (sum s^2)^2 / sum s^4, evaluated without forming an eigendecomposition.
    ||R||_f^2 comes from real products, at half the flops of the complex
    Gram: Re R = X X^T, with X the interleaved [Re, Im] columns of H, and
    Im R = C - C^T with C = Im(H) Re(H)^T.
    """
    mat = np.asarray(h, dtype=np.complex128)
    fro2 = float(np.linalg.norm(mat) ** 2)
    if fro2 == 0.0:
        raise ValueError("zero channel has no diversity gain")
    # H and H^T have Grams of equal Frobenius norm: work on the wide one.
    mat = np.ascontiguousarray(mat.T if mat.shape[0] > mat.shape[1] else mat)
    x = mat.view(np.float64)
    re_gram = x @ x.T  # a product with its own transpose: numpy calls BLAS syrk
    gram2 = float(np.vdot(re_gram, re_gram))
    del re_gram
    im_gram = np.ascontiguousarray(mat.imag) @ np.ascontiguousarray(mat.real).T
    im_gram -= im_gram.T  # numpy buffers the overlapping transpose
    return fro2**2 / (gram2 + float(np.vdot(im_gram, im_gram)))
