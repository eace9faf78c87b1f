import numpy as np
import pytest

from _support import random_nf_scenario, two_user_scenario
from hmimos.channel import POLS, assemble_channel
from hmimos.errors import CapacityExceededError, ConfigError, PrecoderDegeneracyError
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.numerics import svd_partition
from hmimos.precoding import (
    bd_precoder,
    cluster_subchannels,
    cluster_users,
    cross_polar_residual,
    cross_polar_system,
    effective_channel,
    gaussian_elim_precoder,
    two_layer_precoder,
)


def test_cluster_users_round_robin():
    assignment = cluster_users([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert assignment.subsets == ((0, 3), (1, 4), (2, 5))


def test_cluster_users_three():
    assignment = cluster_users([0.5, 1.0, 2.0])
    assert assignment.subsets == ((0,), (1,), (2,))


def test_cluster_users_permutation_invariant():
    distances = [4.0, 1.0, 6.0, 3.0, 2.0, 5.0]
    shuffled = cluster_users(distances)
    # the same distance values land in the same polarizations as sorted input
    by_pol = [sorted(distances[u] for u in members) for members in shuffled.subsets]
    assert by_pol == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]


def test_cluster_users_requires_multiple_of_three():
    with pytest.raises(ConfigError, match="divisible by 3"):
        cluster_users([1.0, 2.0, 3.0, 4.0])


def test_cluster_selection_matrices():
    assignment = cluster_users([1.0, 2.0, 3.0], nr_bar=2)
    total = sum(assignment.selection)
    assert np.allclose(total, np.eye(6))
    for sel in assignment.selection:
        assert set(np.unique(sel)) <= {0.0, 1.0}
        assert np.count_nonzero(sel - np.diag(np.diag(sel))) == 0


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
    assignment = cluster_users([u.distance for u in scenario.users], nr_bar=4)
    subs = cluster_subchannels(channel, assignment)
    covered = []
    for pol, sub, members in zip("xyz", subs, assignment.subsets):
        assert sub.shape == (4, 16)
        h_qq = channel.block(pol, pol)
        for i, user in enumerate(members):
            assert np.array_equal(sub[4 * i : 4 * (i + 1)], h_qq[channel.user_rows(user)])
        covered.extend(members)
    assert sorted(covered) == [0, 1, 2]


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
    f, slices = bd_precoder([h])
    assert f.shape == (8, 3)
    assert slices == (slice(0, 3),)
    # columns span the leading right singular vectors of h
    _, _, v1, _ = svd_partition(h)
    overlap = np.linalg.norm(v1 @ f)  # both orthonormal, 3x3 product
    assert overlap == pytest.approx(np.sqrt(3), rel=1e-10)
    assert np.allclose(f.conj().T @ f, np.eye(3), atol=1e-10)


def test_bd_two_blocks_leak_nothing():
    rng = np.random.default_rng(71)
    blocks = [rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16)) for _ in range(2)]
    f, slices = bd_precoder(blocks)
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            leak = blocks[i] @ f[:, slices[j]]
            denom = np.linalg.norm(blocks[i]) * np.linalg.norm(f[:, slices[j]])
            assert np.linalg.norm(leak) / denom < 1e-10
    for sl in slices:
        cols = f[:, sl]
        assert np.allclose(cols.conj().T @ cols, np.eye(cols.shape[1]), atol=1e-10)


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
    for pol, oracle in zip(POLS, _seed_pooled_singulars(channel)):
        got = pre.pooled_singulars(pol)
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
    channel = assemble_channel(two_user_scenario())
    pre = two_layer_precoder(channel)
    full = effective_channel(channel, pre)
    rows = [b.shape[0] for b in pre.effective]
    cols = [b.shape[1] for b in pre.effective]
    assert full.shape == (sum(rows), sum(cols))
    # off blocks exactly zero by construction
    assert np.count_nonzero(full[: rows[0], cols[0] :]) == 0
    assert np.count_nonzero(full[rows[0] :, : cols[0]]) == 0
    r0, c0 = 0, 0
    for i, pol in enumerate("xyz"):
        direct = channel.block(pol, pol) @ pre.first_layer[i] @ pre.second_layer[i]
        assert np.allclose(full[r0 : r0 + rows[i], c0 : c0 + cols[i]], direct, atol=1e-14)
        r0 += rows[i]
        c0 += cols[i]


def test_user_singulars_match_recomputed_svd():
    channel = assemble_channel(two_user_scenario())
    pre = two_layer_precoder(channel)
    for i, pol in enumerate("xyz"):
        h_p = channel.block(pol, pol) @ pre.first_layer[i]
        for k in range(2):
            block = h_p[channel.user_rows(k)] @ pre.second_layer[i][:, pre.col_slices[i][k]]
            oracle = np.linalg.svd(block, compute_uv=False)
            assert np.allclose(pre.user_singulars(pol, k), oracle, atol=1e-12)


def test_per_user_cross_blocks_vanish():
    channel = assemble_channel(_k3_scenario())
    pre = two_layer_precoder(channel)
    for pol in "xyz":
        for k_rx in range(3):
            for k_tx in range(3):
                if k_rx == k_tx:
                    continue
                leak = pre.leakage_block(pol, k_rx, k_tx)
                scale = np.linalg.norm(pre.effective["xyz".index(pol)])
                assert np.linalg.norm(leak) <= 1e-10 * max(scale, 1e-30)


def test_two_layer_precoder_deterministic():
    channel = assemble_channel(two_user_scenario())
    a = two_layer_precoder(channel)
    b = two_layer_precoder(channel)
    for i in range(3):
        assert np.array_equal(a.first_layer[i], b.first_layer[i])
        assert np.array_equal(a.second_layer[i], b.second_layer[i])
        assert np.array_equal(a.effective[i], b.effective[i])


def test_precoder_export_rows():
    channel = assemble_channel(two_user_scenario())
    pre = two_layer_precoder(channel)
    rows = pre.export_rows()
    expected = sum(
        m.size for i in range(3) for m in (pre.first_layer[i], pre.second_layer[i])
    )
    assert len(rows) == expected
    pol, layer, r, c, re, im = rows[0]
    assert pol == "x" and layer == "P" and (r, c) == (1, 1)
    assert re == pytest.approx(pre.first_layer[0][0, 0].real)
    assert im == pytest.approx(pre.first_layer[0][0, 0].imag)
