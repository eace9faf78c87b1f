"""Reference formulas, the reference CSV writer and the checks that only tests run.

None of these is on a pipeline path: they evaluate the textbook closed forms
one point at a time, or format a CSV one value at a time, independent of the
vectorized kernels and the block writer in ``hmimos``; ``per_group_bd`` is
block diagonalization as first written, one full SVD per group,
``two_pass_first_layer`` the first layer with a rank-cut SVD after each
projection pass, and ``gain_headroom_links`` the sweep's SNR scale as first
written, from the two-layer stream gains.  The
near-field report, the cross-polar residual, ``bd_leakage`` and
``block_rows`` measure what the library computes; no subcommand or preset
needs them.
"""

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from hmimos.channel import POLS, assemble_channel, pair_blocks
from hmimos.correlation import im_green0_xx, transmit_correlation
from hmimos.csvio import _block_length, fmt
from hmimos.experiments import GAIN_HEADROOM
from hmimos.geometry import Scenario, patch_centers
from hmimos.numerics import range_basis
from hmimos.precoding import (
    StreamLink,
    cluster_link,
    cluster_users,
    cross_polar_system,
    two_layer_precoder,
)


def oracle_write(path, config, columns, rows):
    """The original CSV writer: one ``fmt`` call per value, the whole text at once."""
    lines = [f"# {config}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def block_rows(table):
    """The rows of a ``BlockTable`` as tuples of Python values, block by block."""
    for columns in table.blocks():
        n = _block_length(columns)
        yield from zip(*(c[0][c[1]].tolist() if isinstance(c, tuple) else repeat(c, n)
                         for c in columns))


def scalar_green(r, rp, k0: float) -> complex:
    """Free-space scalar Green's function exp(i k0 d) / (4 pi d)."""
    d = float(np.linalg.norm(np.asarray(r, dtype=float) - np.asarray(rp, dtype=float)))
    if d == 0.0:
        raise np.linalg.LinAlgError("coincident source and observation points")
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


def dense_assemble_channel(scenario) -> np.ndarray:
    """Polarization-major channel with the kernel evaluated once per patch pair.

    The N_r x N_s form of ``hmimos.channel.assemble_channel``: offsets are
    differences of the patch centers, with every user's receive patches
    stacked and each row carrying its own user's receive patch area.
    """
    tx_spec = scenario.transmit
    tx = patch_centers(tx_spec)
    surfaces = [u.surface for u in scenario.users]
    rx = np.vstack([patch_centers(spec) for spec in surfaces])
    counts = [spec.count for spec in surfaces]
    area = np.repeat([tx_spec.dx * tx_spec.dy * spec.dx * spec.dy for spec in surfaces], counts)
    blocks = pair_blocks(
        rx[:, None, :] - tx[None, :, :], (tx_spec.dx, tx_spec.dy), area[:, None], scenario.k0
    )
    return blocks.transpose(0, 2, 1, 3).reshape(3 * len(rx), 3 * len(tx))


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


def gain_headroom_links(scenario):
    """Both schemes' stream links at the sweep's former scale, and that scale^2.

    The scale came from the two-layer stream gains, scale^2 = GAIN_HEADROOM
    n^2 / sum s^2 over the n two-layer streams, so that the SNR axis read as
    the mean per-stream received SNR under uniform allocation, GAIN_HEADROOM
    below it.  Both links come from the unscaled channel and are scaled as
    the sweep scales them: gains by the scale, leakage powers by its square.
    """
    channel = assemble_channel(scenario)
    gains = two_layer_precoder(channel).singulars
    n_tot = sum(s.size for s in gains)
    scale2 = GAIN_HEADROOM * n_tot**2 / sum(float(np.sum(s**2)) for s in gains)
    scale = math.sqrt(scale2)
    links = {
        "two-layer": StreamLink(gains, np.zeros((n_tot, n_tot))),
        "uc": cluster_link(channel, [u.distance for u in scenario.users]),
    }
    scaled = {
        name: StreamLink(tuple(s * scale for s in link.singulars), link.leakage * scale2)
        for name, link in links.items()
    }
    return scaled, scale2


def per_group_bd(user_blocks, tol: float = 1e-10):
    """Reference block diagonalization: one full SVD per group.

    Group i's precoder spans the null space of the other groups' stacked
    rows in the whole input space, oriented by the SVD of the group's block
    on it; both cuts are at ``tol`` of the matrix's own largest singular
    value.  Returns the per-group precoders and stream gains, like
    ``precoding.bd_precoder``.
    """

    def split(a):
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0
        return s[:rank], vh[:rank], vh[rank:]

    precoders, gains = [], []
    for i, block in enumerate(user_blocks):
        null = split(np.vstack(user_blocks[:i] + user_blocks[i + 1 :]))[2].conj().T
        s, v1, _ = split(block @ null)
        precoders.append(null @ v1.conj().T)
        gains.append(s)
    return precoders, gains


def two_pass_first_layer(channel, tol: float = 1e-10):
    """Reference first layer: the co-polarized adjoint projected off the
    cross-polar system's row space R twice, each pass orthonormalized by a
    rank-cut SVD.  Returns the stacked 3 N_s x d basis and the coefficients
    C = R^H U of the first pass's basis U on R, which the second pass
    subtracts.
    """
    n_s, n_r = channel.n_tx, channel.n_rx
    row_space = range_basis(cross_polar_system(channel).conj().T, tol)
    basis = np.zeros((3 * n_s, 3 * n_r), dtype=np.complex128)
    for i in range(3):
        basis[i * n_s : (i + 1) * n_s, i * n_r : (i + 1) * n_r] = channel.blocks[i, i].conj().T
    basis = range_basis(basis - row_space @ (row_space.conj().T @ basis), tol)
    coeffs = row_space.conj().T @ basis
    return range_basis(basis - row_space @ coeffs, tol), coeffs


def bd_leakage(user_blocks, precoders) -> float:
    """Largest ||H_i F_j|| / (||H_i|| ||F_j||) over ordered pairs of groups i != j."""
    return max(
        float(np.linalg.norm(h @ f) / (np.linalg.norm(h) * np.linalg.norm(f)))
        for i, h in enumerate(user_blocks)
        for j, f in enumerate(precoders)
        if i != j
    )


def cross_polar_residual(channel, p_mats) -> float:
    """Relative cancellation residual ||H_XP P|| / (||H_XP|| ||P||)."""
    h_xp = cross_polar_system(channel)
    p = np.vstack(p_mats)
    denom = np.linalg.norm(h_xp) * np.linalg.norm(p)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(h_xp @ p) / denom)


@dataclass(frozen=True)
class UserFieldReport:
    distance: float
    nf_bound: float
    in_near_field: bool
    patch_limit: float
    patch_ok: bool


@dataclass(frozen=True)
class NearFieldReport:
    nf_bound: float
    patch_limit: float
    patch_ok: bool
    users: tuple[UserFieldReport, ...] = field(default_factory=tuple)

    @property
    def in_near_field(self) -> tuple[bool, ...]:
        return tuple(u.in_near_field for u in self.users)


def validate_near_field(scenario: Scenario, margin: float = 10.0) -> NearFieldReport:
    """Report-only check of the near-field region and patch-size limits.

    The near-field radius for a square-grid pair is
    ``[4 Ns dxs^2 + 4 Nr dxr^2 + 8 sqrt(Ns Nr) dxs dxr] / lambda``; a user is
    flagged near-field when its distance is within that radius.  The patch
    size must stay well below ``2 sqrt(lambda z)``; "well below" is read as a
    factor of ``margin`` (default 10, configurable).
    """
    lam = scenario.wavelength
    dxs = scenario.transmit.dx
    ns = scenario.transmit.count
    reports = []
    for user in scenario.users:
        nr = user.surface.count
        dxr = user.surface.dx
        bound = (4 * ns * dxs**2 + 4 * nr * dxr**2 + 8 * math.sqrt(ns * nr) * dxs * dxr) / lam
        limit = 2.0 * math.sqrt(lam * user.distance) / margin
        reports.append(
            UserFieldReport(
                distance=user.distance,
                nf_bound=bound,
                in_near_field=user.distance <= bound,
                patch_limit=limit,
                patch_ok=dxs <= limit,
            )
        )
    return NearFieldReport(
        nf_bound=max(r.nf_bound for r in reports),
        patch_limit=min(r.patch_limit for r in reports),
        patch_ok=all(r.patch_ok for r in reports),
        users=tuple(reports),
    )
