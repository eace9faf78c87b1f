"""Performance quantities: spectral efficiency, capacity, diversity gain,
eigenvalue spectra.

Capacity comparisons are scale-invariant by construction: the channel is
trace-normalized per family (||H||_f^2 = number of rows) and the SNR is
shared equally over the transmit ports, so only ratios between families are
meaningful.
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


def spectral_efficiency(singulars, q: float, g, sigma2: float) -> float:
    """Sum-rate of one co-polarization: sum_j log2(1 + q g_j s_j^2 / sigma2).

    ``singulars`` are stream singular values (amplitudes) and ``g`` the
    matching per-stream shares; surplus entries on either side carry no
    power and are ignored.
    """
    s = np.asarray(singulars, dtype=float)
    shares = np.asarray(g, dtype=float)
    n = min(s.size, shares.size)
    if n == 0 or q <= 0:
        return 0.0
    snr = q * shares[:n] * s[:n] ** 2 / sigma2
    return float(np.sum(np.log2(1.0 + snr)))


def total_spectral_efficiency(per_pol_singulars, pa: PowerAllocation, sigma2: float) -> float:
    """Total rate over the three co-polarizations."""
    return sum(
        spectral_efficiency(per_pol_singulars[i], pa.q[i], pa.g[i], sigma2) for i in range(3)
    )


def capacity(h, snr: float, n_streams: int | None = None) -> float:
    """Equal-power log-det capacity of a trace-normalized channel.

    The channel is scaled so its squared Frobenius norm equals its row
    count, and the SNR is divided by ``n_streams`` (the column count unless
    given).  For an identity channel of size n this reduces to
    n * log2(1 + snr / n).
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    mat = np.asarray(h, dtype=np.complex128)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("expected a nonempty matrix")
    rows, cols = mat.shape
    fro = np.linalg.norm(mat)
    if fro == 0.0:
        return 0.0
    n_streams = cols if n_streams is None else n_streams
    scaled = mat * (np.sqrt(rows) / fro)
    gram = np.eye(rows) + (snr / n_streams) * (scaled @ scaled.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    return float(logdet / np.log(2.0))


def capacity_families(channel: PolarizedChannel, snr: float) -> dict[str, float]:
    """Capacity of the tri-, dual- and single-polarized sub-channels.

    Families are compared under a common total-power constraint
    (``n_streams = 1``): each trace-normalized family radiates the same
    power, so the tri-polarized gain reflects its extra spatial dimensions
    rather than a per-port power split.  In the polarization-major layout
    the dual-polarized (x, y) and single-polarized (x) sub-channels are the
    leading 2 N_r x 2 N_s and N_r x N_s sub-matrices.
    """
    h, n_r, n_s = channel.matrix, channel.n_rx, channel.n_tx
    return {
        "tp": capacity(h, snr, 1),
        "dp": capacity(h[: 2 * n_r, : 2 * n_s], snr, 1),
        "single": capacity(h[:n_r, :n_s], snr, 1),
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
