"""Interference elimination for multi-user tri-polarized links.

Two schemes:

* user clustering: users are dealt round-robin (by distance) onto the three
  polarizations; each user is served by the SVD transceivers of its own
  co-polarized sub-channel.  Nothing is nulled, so every stream leaks into
  the other users' streams through the co- and cross-polarized blocks; one
  streams x streams matrix of power gains records that leakage.
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
from itertools import accumulate

import numpy as np

from .channel import POLS, PolarizedChannel, block_view
from .errors import CapacityExceededError, ConfigError, PrecoderDegeneracyError
from .numerics import DEFAULT_TOL, range_basis, svd_partition


def cluster_users(distances) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Assign each user to one polarization by sorted distance.

    Users sorted ascending by distance are dealt round-robin: ranks 1, 4, ...
    to x, ranks 2, 5, ... to y, ranks 3, 6, ... to z; the result is the
    (x, y, z) tuple of user-index subsets.  Requires the user
    count to be divisible by 3.  Ties keep the lower user index first
    (stable sort), so permuted inputs give the same assignment.
    """
    d = np.asarray(distances, dtype=float)
    k = d.size
    if k == 0 or k % 3 != 0:
        raise ConfigError("K must be divisible by 3 for user-cluster precoding")
    order = np.argsort(d, kind="stable")
    return tuple(tuple(int(u) for u in order[i::3]) for i in range(3))


@dataclass(frozen=True)
class ClusterLink:
    """Stream gains and stream-to-stream leakage of the user-cluster scheme.

    Streams run by polarization, then by user in :func:`cluster_users`
    order, then by singular value.
    """

    singulars: tuple[np.ndarray, np.ndarray, np.ndarray]  # per polarization, pooled over its users
    leakage: np.ndarray  # streams x streams power gain, 0 between streams of one user


def cluster_link(channel: PolarizedChannel, distances) -> ClusterLink:
    """Cluster the users and take each one's SVD on its own co-polarized block.

    U (3 N_r x S) holds each user's combiner on its own polarization's rows
    and V (3 N_s x S) its precoder on that polarization's columns, so entry
    (j, j2) of the leakage |U^H H V|^2 is the power gain from stream j2 into
    stream j through the co- or cross-polarized block between the two users.
    A user's own diagonal block is diag(s)^2, its signal rather than
    leakage, so it is set to 0.
    """
    n_r, n_s = channel.n_rx, channel.n_tx
    svds = [
        (i, k, np.linalg.svd(channel.user_block(pol, pol, k), full_matrices=False))
        for i, (pol, members) in enumerate(zip(POLS, cluster_users(distances)))
        for k in members
    ]
    edges = [0, *accumulate(s.size for _, _, (_, s, _) in svds)]
    streams = list(map(slice, edges[:-1], edges[1:]))
    combiners = np.zeros((3, n_r, edges[-1]), dtype=np.complex128)
    precoders = np.zeros((3, n_s, edges[-1]), dtype=np.complex128)
    for (i, k, (u, _, vh)), cols in zip(svds, streams):
        combiners[i, channel.user_rows(k), cols] = u
        precoders[i, :, cols] = vh.conj().T
    u_mat, v_mat = combiners.reshape(3 * n_r, -1), precoders.reshape(3 * n_s, -1)
    leakage = np.abs(u_mat.conj().T @ channel.matrix @ v_mat) ** 2
    for cols in streams:
        leakage[cols, cols] = 0.0
    singulars = tuple(
        np.concatenate([s for pol, _, (_, s, _) in svds if pol == i]) for i in range(3)
    )
    return ClusterLink(singulars=singulars, leakage=leakage)


def cross_polar_system(channel: PolarizedChannel) -> np.ndarray:
    """The 3 N_r x 3 N_s system collecting only the cross-polarized blocks."""
    h_xp = channel.matrix.copy()
    blocks = block_view(h_xp)
    for i in range(3):
        blocks[i, i] = 0.0
    return h_xp


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
    for i in range(3):
        block_view(basis)[i, i] = channel.blocks[i, i].conj().T
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
    rho is formed.  Returns the per-group precoders F_i (N_s x d_i) and
    stream gains: the d_i singular values of that orientation SVD, which
    are those of the group's precoded channel H_i F_i.

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
    precoders = []
    gains = []
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
        # coords_i basis = U diag(s) (v1; v0), so (coords_i basis) v1^H = U_1 diag(s[:d_i]).
        _, s, v1, _ = svd_partition(coords[bounds[i] : bounds[i + 1]] @ basis, tol)
        precoders.append(q @ (basis @ v1.conj().T))
        gains.append(s[: v1.shape[0]])
    return tuple(precoders), tuple(gains)


@dataclass(frozen=True)
class PrecoderSet:
    """First-layer matrices, per-polarization BD precoders and the stream
    gains of the effective co-polarized channels they produce."""

    first_layer: tuple[np.ndarray, np.ndarray, np.ndarray]  # P_x, P_y, P_z
    second_layer: tuple[np.ndarray, np.ndarray, np.ndarray]  # F_xx, F_yy, F_zz
    col_slices: tuple[tuple[slice, ...], ...]  # per pol, per user stream columns
    singulars: tuple[np.ndarray, np.ndarray, np.ndarray]  # per pol, gains indexed like columns


def two_layer_precoder(channel: PolarizedChannel, tol: float = DEFAULT_TOL) -> PrecoderSet:
    """Run both layers and return the full precoder set.

    The second layer diagonalizes jointly over the 3 K (polarization, user)
    groups of the first-layer effective channel, so each user's streams in
    one polarization are free of both inter-user and residual
    cross-polarization coupling.
    """
    p_mats = gaussian_elim_precoder(channel, tol)
    k = channel.n_users
    h_p = [channel.block(pol, pol) @ p_q for pol, p_q in zip(POLS, p_mats)]
    groups = [h[channel.user_rows(u)] for h in h_p for u in range(k)]
    precoders, gains = bd_precoder(groups, tol)

    second = []
    col_slices = []
    singulars = []
    for i in range(3):
        f_users = precoders[i * k : (i + 1) * k]
        edges = [0, *accumulate(f.shape[1] for f in f_users)]
        second.append(np.hstack(f_users))
        col_slices.append(tuple(map(slice, edges[:-1], edges[1:])))
        singulars.append(np.concatenate(gains[i * k : (i + 1) * k]))
    return PrecoderSet(
        first_layer=tuple(p_mats),
        second_layer=tuple(second),
        col_slices=tuple(col_slices),
        singulars=tuple(singulars),
    )


def cross_polar_residual(channel: PolarizedChannel, p_mats) -> float:
    """Relative cancellation residual ||H_XP P|| / (||H_XP|| ||P||)."""
    h_xp = cross_polar_system(channel)
    p = np.vstack(p_mats)
    denom = np.linalg.norm(h_xp) * np.linalg.norm(p)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(h_xp @ p) / denom)
