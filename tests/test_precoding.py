import numpy as np
import pytest

from _oracles import (
    bd_leakage,
    cluster_transceivers,
    cross_polar_residual,
    per_group_bd,
    two_pass_first_layer,
)
from _support import random_nf_scenario, two_user_scenario
from hmimos import precoding
from hmimos.channel import POLS, PolarizedChannel, assemble_channel, block_view
from hmimos.errors import CapacityExceededError, ConfigError, PrecoderDegeneracyError
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.numerics import svd_partition, thin_svd
from hmimos.precoding import (
    bd_precoder,
    cluster_link,
    cluster_users,
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


def _random_channel(seed, n_r=2, n_s=6):
    rng = np.random.default_rng(seed)
    shape = (3 * n_r, 3 * n_s)
    matrix = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PolarizedChannel(matrix=matrix, user_offsets=(0, n_r))


@pytest.mark.parametrize("scale, raises", [(1e-12, True), (1e-6, False)])
def test_degeneracy_guard_compares_frobenius_norms(scale, raises):
    # All nine blocks have Frobenius norm about sqrt(2 * 12); H_yz is scaled
    # to either side of tol = 1e-10 of the largest.
    channel = _random_channel(127)
    block_view(channel.matrix)[1, 2] *= scale
    if raises:
        with pytest.raises(PrecoderDegeneracyError, match="H_yz.*Frobenius norm"):
            gaussian_elim_precoder(channel)
    else:
        p_mats = gaussian_elim_precoder(channel)
        assert cross_polar_residual(channel, p_mats) < 1e-10


def test_reprojection_guard_raises_on_large_coefficients(monkeypatch):
    # If the first pass left a column inside the cross-polar row space, the
    # second pass's input would lose rank; the coefficients catch it.
    calls = []
    original = precoding.range_basis

    def first_pass_in_row_space(a, tol):
        calls.append(original(a, tol))
        return calls[0][:, :1] if len(calls) == 2 else calls[-1]

    monkeypatch.setattr(precoding, "range_basis", first_pass_in_row_space)
    with pytest.raises(PrecoderDegeneracyError, match="H_XP.*re-projection"):
        gaussian_elim_precoder(_random_channel(131))


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


def _sweep_scenario(seed, n, k, grid):
    """The benchmark's ``sweep`` draw: an n x n transmitter at pitch 0.4 and
    K users on one receive grid at pitch 0.3 or 0.4, z in [1, 6], lateral
    offsets of magnitude 0.3-1.6."""
    rng = np.random.default_rng(seed)
    pitch = float(rng.choice((0.3, 0.4)))
    users = []
    for _ in range(k):
        z = float(rng.uniform(1.0, 6.0))
        cx, cy = (rng.uniform(0.3, 1.6, size=2) * rng.choice((-1.0, 1.0), size=2)).tolist()
        rx = SurfaceSpec.grid(*grid, pitch, center=(cx, cy, z), role="receive")
        users.append(UserPlacement(rx, z))
    return Scenario(wavelength=1.0, transmit=SurfaceSpec.grid(n, n, 0.4), users=tuple(users))


def _bd_groups(scenario):
    """The 3 K (polarization, user) groups that the second layer diagonalizes."""
    channel = assemble_channel(scenario)
    p_mats = gaussian_elim_precoder(channel)
    return [
        (channel.block(pol, pol) @ p_q)[channel.user_rows(u)]
        for pol, p_q in zip(POLS, p_mats)
        for u in range(channel.n_users)
    ]


def _random_groups(seed, rows, n_s):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((m, n_s)) + 1j * rng.standard_normal((m, n_s)) for m in rows]


FULL_RANK_GROUPS = {
    "random-3x(2,3,1)-in-10": lambda: _random_groups(101, (2, 3, 1), 10),
    "random-6x2-in-12-square": lambda: _random_groups(103, (2,) * 6, 12),
    "random-9x(1-4)-in-40": lambda: _random_groups(107, (1, 4, 2, 3, 1, 2, 4, 3, 1), 40),
    # near capacity: 108 receive rows against 100 transmit patches
    "sweep-10x10-k3-4x3": lambda: _bd_groups(_sweep_scenario(1, 10, 3, (4, 3))),
    "sweep-12x12-k6-2x2": lambda: _bd_groups(_sweep_scenario(2, 12, 6, (2, 2))),
    "sweep-15x15-k6-3x2": lambda: _bd_groups(_sweep_scenario(3, 15, 6, (3, 2))),
}


@pytest.mark.parametrize("name", FULL_RANK_GROUPS)
def test_bd_full_rank_stack_matches_per_group_reference(name):
    groups = FULL_RANK_GROUPS[name]()
    stacked = np.vstack(groups)
    assert thin_svd(stacked.conj().T)[3] == stacked.shape[0]  # full row rank
    precoders, gains = bd_precoder(groups)
    ref_precoders, ref_gains = per_group_bd(groups)
    assert [f.shape for f in precoders] == [f.shape for f in ref_precoders]
    top = max(g[0] for g in ref_gains)
    for got, want in zip(gains, ref_gains):
        assert np.max(np.abs(got - want)) <= 1e-9 * top
    # The reference leaks about 1e-16.  The Newton step keeps the one-SVD
    # path there; without it the near-capacity group leaks about 8e-12.
    assert bd_leakage(groups, precoders) < 1e-13
    for f in precoders:
        assert np.allclose(f.conj().T @ f, np.eye(f.shape[1]), atol=1e-10)


def _count_partitions(monkeypatch):
    calls = []
    original = precoding.svd_partition

    def counted(a, tol):
        calls.append(a.shape)
        return original(a, tol)

    monkeypatch.setattr(precoding, "svd_partition", counted)
    return calls


def test_bd_full_rank_stack_takes_one_svd_per_group(monkeypatch):
    # The stack's one thin SVD gives every null space; each group only
    # orients its basis.
    groups = _random_groups(109, (2, 3, 1, 2), 12)
    calls = _count_partitions(monkeypatch)
    bd_precoder(groups)
    assert calls == [(m, m) for m in (2, 3, 1, 2)]


def test_bd_rank_deficient_stack_takes_two_svds_per_group(monkeypatch):
    # Groups 1 and 2 share a row, so the stack has rank M - 1 and every group
    # takes its own SVD of the others, then orients.
    groups = _random_groups(113, (2, 2, 3), 12)
    groups[1][1] = groups[0][1]
    calls = _count_partitions(monkeypatch)
    precoders, gains = bd_precoder(groups)
    assert len(calls) == 2 * len(groups)
    ref_precoders, ref_gains = per_group_bd(groups)
    assert [f.shape[1] for f in precoders] == [f.shape[1] for f in ref_precoders] == [1, 1, 3]
    top = max(g[0] for g in ref_gains)
    for got, want in zip(gains, ref_gains):
        assert np.max(np.abs(got - want)) <= 1e-9 * top
    assert bd_leakage(groups, precoders) < 1e-11


FIRST_LAYER_SCENARIOS = {
    **{f"nf{i}": (lambda i=i: random_nf_scenario(np.random.default_rng(89 + i))) for i in range(10)},
    "k3-6x6-2x2": _k3_scenario,
    "k6-10x10-2x2": lambda: _k3_scenario(10, (2, 2), K6_PLACEMENTS),
    "k6-20x20-3x2": lambda: _k3_scenario(20, (3, 2), K6_PLACEMENTS),
    "two-user": two_user_scenario,
    "sweep-10x10-k3-4x3": lambda: _sweep_scenario(1, 10, 3, (4, 3)),
    "sweep-12x12-k6-2x2": lambda: _sweep_scenario(2, 12, 6, (2, 2)),
    "sweep-15x15-k6-3x2": lambda: _sweep_scenario(3, 15, 6, (3, 2)),
    # near capacity: the benchmark draw of perfbench's strict xfail, seeds 0-11
    **{f"near-capacity-12x12-k6-4x3-seed{s}": (lambda s=s: _sweep_scenario(s, 12, 6, (4, 3)))
       for s in range(12)},
}


@pytest.mark.parametrize("name", FIRST_LAYER_SCENARIOS)
def test_first_layer_spans_the_two_pass_reference(name):
    channel = assemble_channel(FIRST_LAYER_SCENARIOS[name]())
    p = np.vstack(gaussian_elim_precoder(channel))
    ref, coeffs = two_pass_first_layer(channel)
    assert p.shape == ref.shape
    # The Frobenius norm bounds the sine of the largest principal angle.
    assert np.linalg.norm(p - ref @ (ref.conj().T @ p)) <= 1e-12
    assert np.linalg.norm(p.conj().T @ p - np.eye(p.shape[1])) <= 1e-13
    # Far below the 1/2 at which the re-projection would need a rank cut;
    # near capacity it reaches about 10 eps / tol (2.6e-5).
    assert np.linalg.norm(coeffs) <= 1e-4


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
