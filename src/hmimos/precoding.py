"""Interference elimination for multi-user tri-polarized links.

Two schemes:

* user clustering: users are dealt round-robin (by distance) onto the three
  polarizations; each user is served by the SVD transceivers of its own
  co-polarized sub-channel.
* two-layer precoding: an elimination layer places the transmit matrix in
  the null space of the cross-polarized system, then block diagonalization
  over the (polarization, user) groups removes inter-user and residual
  cross-polarization coupling.  Both layers work in the joint row space of
  the receivers (at most 3 N_r dimensions), never in the full 3 N_s input
  space.

Rank decisions use the tolerance-thresholded SVD; channel blocks whose
largest singular value collapses raise :class:`PrecoderDegeneracyError`
naming the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import POLS, PolarizedChannel
from .errors import CapacityExceededError, ConfigError, PrecoderDegeneracyError
from .numerics import DEFAULT_TOL, range_basis, svd_partition


@dataclass(frozen=True)
class ClusterAssignment:
    """Distance-ranked round-robin split of users onto the polarizations."""

    subsets: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def cluster_users(distances) -> ClusterAssignment:
    """Assign each user to one polarization by sorted distance.

    Users sorted ascending by distance are dealt round-robin: ranks 1, 4, ...
    to x, ranks 2, 5, ... to y, ranks 3, 6, ... to z.  Requires the user
    count to be divisible by 3.  Ties keep the lower user index first
    (stable sort), so permuted inputs give the same assignment.
    """
    d = np.asarray(distances, dtype=float)
    k = d.size
    if k == 0 or k % 3 != 0:
        raise ConfigError("K must be divisible by 3 for user-cluster precoding")
    order = np.argsort(d, kind="stable")
    return ClusterAssignment(subsets=tuple(tuple(int(u) for u in order[i::3]) for i in range(3)))


@dataclass(frozen=True)
class ClusterLink:
    """Per-user SVD transceivers of the user-cluster scheme."""

    assignment: ClusterAssignment
    pol_of_user: tuple[int, ...]
    stream_offsets: tuple[int, ...]  # first stream of each user within its polarization
    combiners: tuple[np.ndarray, ...]  # U per user
    singulars: tuple[np.ndarray, ...]
    precoders: tuple[np.ndarray, ...]  # V per user (N_s x streams)

    def pooled_singulars(self, pol_index: int) -> np.ndarray:
        vals = [self.singulars[k] for k in self.assignment.subsets[pol_index]]
        return np.concatenate(vals) if vals else np.zeros(0)


def cluster_link(channel: PolarizedChannel, distances) -> ClusterLink:
    """Cluster the users and take each one's SVD on its own co-polarized block."""
    assignment = cluster_users(distances)
    pol_of_user = [0] * channel.n_users
    offsets = [0] * channel.n_users
    combiners: list[np.ndarray] = [None] * channel.n_users  # type: ignore[list-item]
    singulars: list[np.ndarray] = list(combiners)
    precoders: list[np.ndarray] = list(combiners)
    for pol_index, members in enumerate(assignment.subsets):
        pol = POLS[pol_index]
        offset = 0
        for k in members:
            u, s, vh = np.linalg.svd(channel.user_block(pol, pol, k), full_matrices=False)
            pol_of_user[k] = pol_index
            offsets[k] = offset
            offset += s.size
            combiners[k] = u
            singulars[k] = s
            precoders[k] = vh.conj().T
    return ClusterLink(
        assignment=assignment,
        pol_of_user=tuple(pol_of_user),
        stream_offsets=tuple(offsets),
        combiners=tuple(combiners),
        singulars=tuple(singulars),
        precoders=tuple(precoders),
    )


def cross_polar_system(channel: PolarizedChannel) -> np.ndarray:
    """The 3 N_r x 3 N_s system collecting only the cross-polarized blocks."""
    zero = np.zeros_like(channel.block("x", "x"))
    return np.vstack(
        [
            np.hstack([zero, channel.block("x", "y"), channel.block("x", "z")]),
            np.hstack([channel.block("y", "x"), zero, channel.block("y", "z")]),
            np.hstack([channel.block("z", "x"), channel.block("z", "y"), zero]),
        ]
    )


def gaussian_elim_precoder(channel: PolarizedChannel, tol: float = DEFAULT_TOL):
    """First-layer precoders (P_x, P_y, P_z) nulling the cross-polarized sums.

    The stacked columns of (P_x; P_y; P_z) are an orthonormal basis of the
    part of the cross-polarization system's null space that some receiver
    can see: the co-polarized adjoint blockdiag(H_xx, H_yy, H_zz)^H
    projected off the system's row space.  So for every receive
    polarization the two cross-polarized contributions cancel
    (H_xy P_y + H_xz P_z = 0 and cyclically), and the basis has at most
    3 N_r columns however large the transmit surface.  The rest of the null
    space is invisible to every co-polarized channel (H_qq P_q x = 0), so it
    could never carry a stream and dropping it changes no singular value
    downstream.  Separating the per-polarization data is the second
    (block-diagonalization) layer's job.

    A cross block whose largest singular value collapses below ``tol`` of the
    channel scale (boresight-aligned geometries zero them exactly) raises,
    naming the block.
    """
    tops = {(p, q): float(np.linalg.norm(channel.block(p, q), 2)) for p in POLS for q in POLS}
    scale = max(tops.values())
    for q in POLS:
        for p in POLS:
            if p != q and tops[p, q] <= tol * scale:
                raise PrecoderDegeneracyError(
                    f"H_{p}{q}",
                    f"largest singular value {tops[p, q]:.3e} below {tol:g} of channel scale",
                )

    n_s, n_r = channel.n_tx, channel.n_rx
    row_space = range_basis(cross_polar_system(channel).conj().T, tol)  # 3 N_s x rank
    if row_space.shape[1] >= 3 * n_s:
        raise PrecoderDegeneracyError("H_XP", "cross-polarization system has no null space")
    basis = np.zeros((3 * n_s, 3 * n_r), dtype=np.complex128)
    for i, pol in enumerate(POLS):
        basis[i * n_s : (i + 1) * n_s, i * n_r : (i + 1) * n_r] = channel.block(pol, pol).conj().T
    # The second pass takes the row-space residual from eps / s_min (left by
    # orthonormalizing a nearly cancelled matrix) back down to eps.
    for _ in range(2):
        basis = range_basis(basis - row_space @ (row_space.conj().T @ basis), tol)
    return basis[:n_s], basis[n_s : 2 * n_s], basis[2 * n_s :]


def bd_precoder(user_blocks, tol: float = DEFAULT_TOL):
    """Block-diagonalization precoder over groups of channel rows.

    ``user_blocks`` is the per-group list of m_i x N_s effective channels.
    One thin SVD of the stacked groups gives an orthonormal basis Q of their
    joint row space (rank rho); every group's BD span lies inside it, since
    it is the group's own row space projected onto the null space of the
    others.  In that basis group i's precoder spans the null space of the
    other groups' rho-column coordinates, oriented by the SVD of the group's
    own projected block, then mapped back through Q.  No factor wider than
    rho is formed.  Returns the column-concatenated precoder and the
    per-group column slices.

    A group whose rows lie in the span of the other groups (including the
    case where those fill the whole input space) has no interference-free
    direction and raises :class:`CapacityExceededError` naming the block.
    """
    k = len(user_blocks)
    n_s = user_blocks[0].shape[1]
    stacked = np.vstack(user_blocks)
    q = range_basis(stacked.conj().T, tol)  # N_s x rho
    rho = q.shape[1]
    coords = stacked @ q  # M x rho
    bounds = np.cumsum([0] + [b.shape[0] for b in user_blocks])
    columns = []
    slices = []
    offset = 0
    for i in range(k):
        if k > 1:
            others = np.delete(coords, np.s_[bounds[i] : bounds[i + 1]], axis=0)
            _, _, _, v0 = svd_partition(others, tol)
            if v0.shape[0] < 1:
                raise CapacityExceededError(
                    f"block {i + 1}: interference of the other {k - 1} blocks fills the "
                    f"{rho}-dimensional joint row space of all blocks "
                    f"(input space {n_s})"
                )
            basis = v0.conj().T  # rho x d_i
        else:
            basis = np.eye(rho, dtype=np.complex128)
        _, _, v1, _ = svd_partition(coords[bounds[i] : bounds[i + 1]] @ basis, tol)
        f_i = q @ (basis @ v1.conj().T)
        columns.append(f_i)
        slices.append(slice(offset, offset + f_i.shape[1]))
        offset += f_i.shape[1]
    return np.hstack(columns), tuple(slices)


@dataclass(frozen=True)
class PrecoderSet:
    """First-layer matrices, per-polarization BD precoders and the effective
    co-polarized channels they produce."""

    first_layer: tuple[np.ndarray, np.ndarray, np.ndarray]  # P_x, P_y, P_z
    second_layer: tuple[np.ndarray, np.ndarray, np.ndarray]  # F_xx, F_yy, F_zz
    effective: tuple[np.ndarray, np.ndarray, np.ndarray]  # H_xx^F, H_yy^F, H_zz^F
    row_slices: tuple[slice, ...]  # receive rows per user (within one block)
    col_slices: tuple[tuple[slice, ...], ...]  # per pol, per user stream columns

    def user_singulars(self, pol: str, k: int) -> np.ndarray:
        """Singular values of user k's own block of the effective channel."""
        i = POLS.index(pol)
        block = self.effective[i][self.row_slices[k], self.col_slices[i][k]]
        return np.linalg.svd(block, compute_uv=False)

    def pooled_singulars(self, pol: str) -> np.ndarray:
        """All users' effective singular values, user-major order."""
        vals = [self.user_singulars(pol, k) for k in range(len(self.row_slices))]
        return np.concatenate(vals) if vals else np.zeros(0)


def two_layer_precoder(channel: PolarizedChannel, tol: float = DEFAULT_TOL) -> PrecoderSet:
    """Run both layers and return the full precoder set.

    The second layer diagonalizes jointly over the 3 K (polarization, user)
    groups of the first-layer effective channel, so each user's streams in
    one polarization are free of both inter-user and residual
    cross-polarization coupling.
    """
    p_mats = gaussian_elim_precoder(channel, tol)
    k = channel.n_users
    row_slices = tuple(channel.user_rows(u) for u in range(k))

    h_p = [channel.block(pol, pol) @ p_q for pol, p_q in zip(POLS, p_mats)]
    groups = [h_p[i][rs] for i in range(3) for rs in row_slices]
    f_all, group_slices = bd_precoder(groups, tol)

    second = []
    effective = []
    col_slices = []
    for i in range(3):
        pol_groups = group_slices[i * k : (i + 1) * k]
        start = pol_groups[0].start
        f_q = f_all[:, start : pol_groups[-1].stop]
        second.append(f_q)
        effective.append(h_p[i] @ f_q)
        col_slices.append(tuple(slice(s.start - start, s.stop - start) for s in pol_groups))
    return PrecoderSet(
        first_layer=tuple(p_mats),
        second_layer=tuple(second),
        effective=tuple(effective),
        row_slices=row_slices,
        col_slices=tuple(col_slices),
    )


def cross_polar_residual(channel: PolarizedChannel, p_mats) -> float:
    """Relative cancellation residual ||H_XP P|| / (||H_XP|| ||P||)."""
    h_xp = cross_polar_system(channel)
    p = np.vstack(p_mats)
    denom = np.linalg.norm(h_xp) * np.linalg.norm(p)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(h_xp @ p) / denom)
