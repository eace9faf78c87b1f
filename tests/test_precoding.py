import numpy as np
import pytest

from _oracles import cluster_transceivers
from _support import random_nf_scenario, two_user_scenario
from hmimos.channel import POLS, assemble_channel
from hmimos.errors import CapacityExceededError, ConfigError, PrecoderDegeneracyError
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.numerics import svd_partition
from hmimos.precoding import (
    bd_precoder,
    cluster_link,
    cluster_users,
    cross_polar_residual,
    cross_polar_system,
    gaussian_elim_precoder,
    two_layer_precoder,
)


def test_cluster_users_round_robin():
    assert cluster_users([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == ((0, 3), (1, 4), (2, 5))


def test_cluster_users_three():
    assert cluster_users([0.5, 1.0, 2.0]) == ((0,), (1,), (2,))


def test_cluster_users_permutation_invariant():
    distances = [4.0, 1.0, 6.0, 3.0, 2.0, 5.0]
    shuffled = cluster_users(distances)
    # the same distance values land in the same polarizations as sorted input
    by_pol = [sorted(distances[u] for u in members) for members in shuffled]
    assert by_pol == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]


def test_cluster_users_requires_multiple_of_three():
    with pytest.raises(ConfigError, match="divisible by 3"):
        cluster_users([1.0, 2.0, 3.0, 4.0])


K3_PLACEMENTS = (((0.5, 0.3), 0.8), ((-0.6, 0.4), 1.2), ((0.2, -0.7), 1.6))
K6_PLACEMENTS = K3_PLACEMENTS + (((-0.9, -0.5), 2.0), ((1.1, -0.4), 2.5), ((-0.3, 1.2), 3.0))


def _k3_scenario(n_side=6, nr_grid=(2, 2), placements=K3_PLACEMENTS):
    tx = SurfaceSpec.grid(n_side, n_side, 0.4)
    users = []
    for (cx, cy), z in placements:
        rx = SurfaceSpec.grid(*nr_grid, 0.4, center=(cx, cy, z), role="receive")
        users.append(UserPlacement(rx, z))
    return Scenario(wavelength=1.0, transmit=tx, users=tuple(users))


def _worst_leakage(channel, pre):
    """Largest ||H_rx F_tx|| / (||H_rx|| ||F_tx||) over ordered user pairs."""
    worst = 0.0
    for i, pol in enumerate(POLS):
        h_p = channel.block(pol, pol) @ pre.first_layer[i]
        for k_rx in range(channel.n_users):
            h_rx = h_p[channel.user_rows(k_rx)]
            for k_tx in range(channel.n_users):
                if k_tx != k_rx:
                    f_tx = pre.second_layer[i][:, pre.col_slices[i][k_tx]]
                    denom = np.linalg.norm(h_rx) * np.linalg.norm(f_tx)
                    worst = max(worst, np.linalg.norm(h_rx @ f_tx) / denom)
    return worst


def _effective(channel, pre, i):
    """H_pp P_p F_p of polarization i, formed from the two layers."""
    return channel.blocks[i, i] @ pre.first_layer[i] @ pre.second_layer[i]


def _seed_pooled_singulars(channel, tol=1e-10):
    """Reference two-layer precoder, as first written: a full null-space basis
    of the cross-polar system from a full SVD, then one full SVD of the other
    groups per (polarization, user) group.  Returns the per-polarization
    pooled stream singular values."""

    def split(a):
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        rank = int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0
        return vh[:rank], vh[rank:]

    basis = split(cross_polar_system(channel))[1].conj().T
    n_s = channel.n_tx
    groups = [
        (channel.block(pol, pol) @ basis[i * n_s : (i + 1) * n_s])[channel.user_rows(k)]
        for i, pol in enumerate(POLS)
        for k in range(channel.n_users)
    ]
    pooled = []
    for i, g in enumerate(groups):
        null = split(np.vstack(groups[:i] + groups[i + 1 :]))[1].conj().T
        v1 = split(g @ null)[0]
        f = null @ v1[: g.shape[0]].conj().T
        pooled.append(np.linalg.svd(g @ f, compute_uv=False))
    k = channel.n_users
    return [np.concatenate(pooled[i * k : (i + 1) * k]) for i in range(3)]


def test_cluster_subchannel_shapes_and_rows():
    scenario = _k3_scenario(n_side=4)
    channel = assemble_channel(scenario)
    distances = [u.distance for u in scenario.users]
    link = cluster_link(channel, distances)
    users = cluster_transceivers(channel, distances)
    assert sorted(k for _, k, *_ in users) == [0, 1, 2]
    # each polarization pools its members' co-polarized block SVDs, in order
    for i in range(3):
        pooled = [s for pol, _, _, s, _ in users if pol == i]
        assert np.array_equal(link.singulars[i], np.concatenate(pooled))
    assert [s.shape for *_, s, _ in users] == [(4,)] * 3
    edges = np.cumsum([0] + [s.size for *_, s, _ in users])
    assert link.leakage.shape == (edges[-1], edges[-1])
    scale = link.leakage.max()
    assert scale > 0.0
    for a, (pol_a, k, u, _, _) in enumerate(users):
        for b, (pol_b, _, _, _, v) in enumerate(users):
            got = link.leakage[edges[a] : edges[a + 1], edges[b] : edges[b + 1]]
            if a == b:
                assert np.all(got == 0.0)
            else:
                block = channel.user_block(POLS[pol_a], POLS[pol_b], k)
                want = np.abs(u.conj().T @ block @ v) ** 2
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_first_layer_cancellation_residual():
    rng = np.random.default_rng(61)
    for _ in range(5):
        scenario = random_nf_scenario(rng)
        channel = assemble_channel(scenario)
        p_mats = gaussian_elim_precoder(channel)
        assert cross_polar_residual(channel, p_mats) < 1e-10


def test_first_row_identity():
    channel = assemble_channel(two_user_scenario())
    p_x, p_y, p_z = gaussian_elim_precoder(channel)
    lhs = (
        channel.block("x", "x") @ p_x
        + channel.block("x", "y") @ p_y
        + channel.block("x", "z") @ p_z
    )
    rhs = channel.block("x", "x") @ p_x
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_boresight_raises_degeneracy():
    tx = SurfaceSpec.grid(1, 1, 0.4)
    rx = SurfaceSpec.grid(1, 1, 0.4, center=(0.0, 0.0, 1.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, 1.0),))
    channel = assemble_channel(scenario)
    with pytest.raises(PrecoderDegeneracyError, match="H_"):
        gaussian_elim_precoder(channel)


def test_bd_single_block_keeps_row_space():
    rng = np.random.default_rng(67)
    h = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    (f,), (gains,) = bd_precoder([h])
    assert f.shape == (8, 3)
    # with no other group, the gains are the singular values of h itself
    s = np.linalg.svd(h, compute_uv=False)
    assert np.allclose(gains, s, rtol=0, atol=1e-12 * s[0])
    # columns span the leading right singular vectors of h
    _, _, v1, _ = svd_partition(h)
    overlap = np.linalg.norm(v1 @ f)  # both orthonormal, 3x3 product
    assert overlap == pytest.approx(np.sqrt(3), rel=1e-10)
    assert np.allclose(f.conj().T @ f, np.eye(3), atol=1e-10)


def test_bd_two_blocks_leak_nothing():
    rng = np.random.default_rng(71)
    blocks = [rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)) for _ in range(2)]
    precoders, gains = bd_precoder(blocks)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            leak = blocks[i] @ precoders[j]
            denom = np.linalg.norm(blocks[i]) * np.linalg.norm(precoders[j])
            assert np.linalg.norm(leak) / denom < 1e-10
    for block, f, g in zip(blocks, precoders, gains):
        assert g.shape == (f.shape[1],)
        assert np.allclose(f.conj().T @ f, np.eye(f.shape[1]), atol=1e-10)
        # each group's gains are the singular values of its precoded block
        s = np.linalg.svd(block @ f, compute_uv=False)
        assert np.allclose(g, s, rtol=0, atol=1e-12 * s[0])


def test_bd_duplicate_block_raises_instead_of_noise_streams():
    rng = np.random.default_rng(73)
    h = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    with pytest.raises(CapacityExceededError, match="block 1"):
        bd_precoder([h, h])


def test_bd_contained_block_raises():
    rng = np.random.default_rng(79)
    a, b = (rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12)) for _ in range(2))
    mixed = rng.standard_normal((2, 3)) @ a + rng.standard_normal((2, 3)) @ b
    with pytest.raises(CapacityExceededError, match="block 3"):
        bd_precoder([a, b, mixed])


def test_bd_interference_filling_input_space_raises():
    rng = np.random.default_rng(83)
    blocks = [rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)) for _ in range(3)]
    with pytest.raises(CapacityExceededError, match="block 1: interference of the other 2 blocks"):
        bd_precoder(blocks)


@pytest.mark.parametrize(
    "scenario",
    [random_nf_scenario(np.random.default_rng(89 + i)) for i in range(10)]
    + [_k3_scenario(10, (2, 2), K6_PLACEMENTS)],
    ids=[f"nf{i}" for i in range(10)] + ["k6-10x10-2x2"],
)
def test_two_layer_singulars_match_seed_algorithm(scenario):
    channel = assemble_channel(scenario)
    pre = two_layer_precoder(channel)
    for got, oracle in zip(pre.singulars, _seed_pooled_singulars(channel)):
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle) / oracle) <= 1e-10


def test_two_layer_at_scale_20x20_six_users():
    channel = assemble_channel(_k3_scenario(20, (3, 2), K6_PLACEMENTS))
    pre = two_layer_precoder(channel)
    # the first layer keeps at most the 3 N_r receiver-visible directions
    assert pre.first_layer[0].shape == (400, 3 * 36)
    assert cross_polar_residual(channel, pre.first_layer) < 1e-10
    assert _worst_leakage(channel, pre) < 1e-10


def test_effective_channel_block_diagonal():
    # Receive polarization p sees the stacked first layer only through its
    # co-polarized block, so the precoded channel is block diagonal over the
    # polarizations with diagonal blocks H_pp P_p F_p.
    channel = assemble_channel(two_user_scenario())
    pre = two_layer_precoder(channel)
    p_stack = np.vstack(pre.first_layer)
    n_r = channel.n_rx
    for i in range(3):
        direct = _effective(channel, pre, i)
        received = channel.stacked()[i * n_r : (i + 1) * n_r] @ p_stack @ pre.second_layer[i]
        assert np.linalg.norm(received - direct) <= 1e-10 * np.linalg.norm(direct)


def test_user_singulars_match_recomputed_svd():
    for scenario in (two_user_scenario(), _k3_scenario()):
        channel = assemble_channel(scenario)
        pre = two_layer_precoder(channel)
        for i in range(3):
            effective = _effective(channel, pre, i)
            for k in range(channel.n_users):
                cols = pre.col_slices[i][k]
                oracle = np.linalg.svd(effective[channel.user_rows(k), cols], compute_uv=False)
                got = pre.singulars[i][cols]
                assert got.shape == oracle.shape
                assert np.max(np.abs(got - oracle)) <= 1e-12 * oracle[0]


def test_per_user_cross_blocks_vanish():
    channel = assemble_channel(_k3_scenario())
    pre = two_layer_precoder(channel)
    for i in range(3):
        effective = _effective(channel, pre, i)
        scale = np.linalg.norm(effective)
        for k_rx in range(3):
            for k_tx in range(3):
                if k_rx == k_tx:
                    continue
                leak = effective[channel.user_rows(k_rx), pre.col_slices[i][k_tx]]
                assert np.linalg.norm(leak) <= 1e-10 * max(scale, 1e-30)


def test_two_layer_precoder_deterministic():
    channel = assemble_channel(two_user_scenario())
    a = two_layer_precoder(channel)
    b = two_layer_precoder(channel)
    for i in range(3):
        assert np.array_equal(a.first_layer[i], b.first_layer[i])
        assert np.array_equal(a.second_layer[i], b.second_layer[i])
        assert np.array_equal(a.singulars[i], b.singulars[i])
        assert np.array_equal(_effective(channel, a, i), _effective(channel, b, i))
    assert a.col_slices == b.col_slices
