"""Reference formulas that the tests compare the library against.

None of these is on a pipeline path: they evaluate the textbook closed forms
one point at a time, independent of the vectorized kernels in ``hmimos``.
"""

import math

import numpy as np

from hmimos.channel import POLS
from hmimos.correlation import im_green0_xx, transmit_correlation
from hmimos.errors import SingularityError
from hmimos.geometry import patch_centers
from hmimos.precoding import cluster_users, two_layer_precoder


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


def dense_transmit_correlation(spec, distance: float, k0: float, pol: str = "xx") -> np.ndarray:
    """Raw transmit correlation with the kernel evaluated once per patch pair.

    The N^2 form of ``hmimos.correlation.transmit_correlation``: separations
    come from the patch centers, and the result is symmetrized.
    """
    pts = patch_centers(spec)
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    # (free-space coordinate, image coordinate, image sign) per co-polarization
    coord, image_coord, sign = {
        "xx": (dx, dx, -1.0), "yy": (dy, dy, -1.0), "zz": (0.0, distance, 1.0)
    }[pol]
    raw = im_green0_xx(np.hypot(dx, dy), coord, k0)
    r = np.sqrt(dx * dx + dy * dy + distance * distance)
    raw += sign * im_green0_xx(r, image_coord, k0)
    return 0.5 * (raw + raw.T)


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


def cluster_transceivers(channel, distances):
    """Per-user SVD (pol index, user, U, s, V) of the user-cluster scheme, in
    stream order: by polarization, then by user in ``cluster_users`` order."""
    out = []
    for i, members in enumerate(cluster_users(distances)):
        for k in members:
            u, s, vh = np.linalg.svd(channel.user_block(POLS[i], POLS[i], k), full_matrices=False)
            out.append((i, k, u, s, vh.conj().T))
    return out


def two_layer_sum_rate(channel, watts, sigma2: float) -> float:
    """Sum rate of the two-layer scheme, one stream at a time.

    Its streams leak nothing into each other, so stream j of polarization p
    sees only its BD gain s_j and the noise: log2(1 + p_j s_j^2 / sigma2).
    Takes the gains from ``two_layer_precoder`` on the channel.
    """
    total = 0.0
    for gains, powers in zip(two_layer_precoder(channel).singulars, watts, strict=True):
        for s, p in zip(gains.tolist(), list(powers), strict=True):
            total += math.log2(1.0 + p * s**2 / sigma2)
    return total


def cluster_sum_rate(channel, distances, watts, sigma2: float) -> float:
    """Sum rate of the user-cluster scheme, one user pair at a time.

    Stream j of user k sees its own singular value as signal; every other
    user k2 interferes through |U_k^H H_{q_k q_k2} V_k2|^2 weighted by the
    watts of k2's streams (``watts`` holds one array per polarization).
    Takes its own per-user SVDs from the channel.
    """
    users = {}
    offsets = [0, 0, 0]
    for i, k, u, s, v in cluster_transceivers(channel, distances):
        users[k] = (i, offsets[i], u, s, v)
        offsets[i] += s.size
    total = 0.0
    for k, (qi, offset, u, s, _) in users.items():
        leak = np.zeros(s.size)
        for k2, (q2, off2, _, s2, v2) in users.items():
            if k2 == k:
                continue
            proj = u.conj().T @ channel.user_block(POLS[qi], POLS[q2], k) @ v2
            leak += np.abs(proj) ** 2 @ watts[q2][off2 : off2 + s2.size]
        for j in range(s.size):
            signal = watts[qi][offset + j] * s[j] ** 2
            total += math.log2(1.0 + signal / (leak[j] + sigma2))
    return total
