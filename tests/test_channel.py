import cmath
import math

import numpy as np
import pytest

from _oracles import dense_assemble_channel, dyadic_green, scalar_green, significant_count
from _support import two_user_scenario
from hmimos.channel import assemble_channel, offset_tables, pair_blocks, radial_coeffs
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement, patch_indices
from hmimos.metrics import capacity, capacity_families, eigen_spectrum
from hmimos.precoding import cross_polar_system

K0 = 2.0 * math.pi  # wavelength 1 m


def one_pair_block(tx_center, rx_center, ds, dr, k0):
    """One patch pair's 3x3 block: the kernel at a single (3,) offset."""
    diff = np.asarray(rx_center, dtype=float) - np.asarray(tx_center, dtype=float)
    return pair_blocks(diff, ds, ds[0] * ds[1] * dr[0] * dr[1], k0)


def test_scalar_green_one_wavelength():
    g = scalar_green([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], K0)
    assert abs(g) == pytest.approx(1.0 / (4 * math.pi))
    assert cmath.phase(g) == pytest.approx(0.0, abs=1e-12)


def test_scalar_green_half_wavelength():
    g = scalar_green([0.0, 0.0, 0.5], [0.0, 0.0, 0.0], K0)
    assert abs(g) == pytest.approx(1.0 / (2 * math.pi))
    assert abs(cmath.phase(g)) == pytest.approx(math.pi, abs=1e-12)


def test_scalar_green_inverse_distance_law():
    g1 = scalar_green([0, 0, 0], [0, 0, 0.7], K0)
    g2 = scalar_green([0, 0, 0], [0, 0, 1.4], K0)
    assert abs(g2) == pytest.approx(abs(g1) / 2)
    with pytest.raises(np.linalg.LinAlgError):
        scalar_green([1, 2, 3], [1, 2, 3], K0)
    with pytest.raises(np.linalg.LinAlgError, match="coincident patch centers"):
        one_pair_block([1, 2, 3], [1, 2, 3], (0.4, 0.4), (0.4, 0.4), K0)


def test_radial_coeffs_at_unity():
    c1, c2 = radial_coeffs(1.0)
    assert c1 == pytest.approx(1j)
    assert c2 == pytest.approx(2 - 3j)


def test_radial_coeffs_asymptote():
    c1, c2 = radial_coeffs(1e6)
    assert abs(c1 - 1.0) < 1e-5
    assert abs(c2 + 1.0) < 1e-5


def test_radial_coeffs_sum_identity():
    k0r = 2.0
    c1, c2 = radial_coeffs(k0r)
    assert c1 + c2 == pytest.approx(2 / k0r**2 - 2j / k0r)
    with pytest.raises(ValueError):
        radial_coeffs(0.0)


def test_channel_block_boresight_is_diagonal():
    ds = (0.4, 0.4)
    block = one_pair_block([0, 0, 0], [0, 0, 1.0], ds, ds, K0)
    c1, c2 = radial_coeffs(K0)
    scalar = ds[0] ** 2 * ds[1] ** 2 * cmath.exp(1j * K0) / (4 * math.pi)
    assert np.allclose(block, scalar * np.diag([c1, c1, c1 + c2]), atol=1e-15)
    off = block - np.diag(np.diag(block))
    assert np.count_nonzero(off) == 0  # exactly zero, not just small


def test_channel_block_against_independent_evaluation():
    # lateral offset (0.4, 0), distance 1 along z; independent scalar math
    tx = np.array([0.0, 0.0, 0.0])
    rx = np.array([0.4, 0.0, 1.0])
    ds = (0.4, 0.4)
    dr = (0.4, 0.4)
    got = one_pair_block(tx, rx, ds, dr, K0)

    dist = math.sqrt(0.4**2 + 1.0**2)
    unit = (rx - tx) / dist
    c1 = 1 + 1j / (K0 * dist) - 1 / (K0 * dist) ** 2
    c2 = 3 / (K0 * dist) ** 2 - 3j / (K0 * dist) - 1

    def sinc(x):
        return 1.0 if x == 0 else math.sin(x) / x

    scalar = (
        ds[0] * ds[1] * dr[0] * dr[1]
        * cmath.exp(1j * K0 * dist) / (4 * math.pi * dist)
        * sinc(K0 * (rx[0] - tx[0]) * ds[0] / (2 * dist))
        * sinc(K0 * (rx[1] - tx[1]) * ds[1] / (2 * dist))
    )
    expected = np.empty((3, 3), dtype=complex)
    for p in range(3):
        for q in range(3):
            expected[p, q] = scalar * (c2 * unit[p] * unit[q] + (c1 if p == q else 0.0))
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-12


def hstack_vstack(blocks, rows=slice(None), pols=range(3)):
    """Oracle: the polarization-major matrix assembled block by block."""
    return np.vstack([np.hstack([blocks[p, q][rows] for q in pols]) for p in pols])


def test_assemble_channel_dimensions():
    scenario = two_user_scenario(n_side=4, nr_grid=(2, 2))
    channel = assemble_channel(scenario)
    assert channel.stacked().shape == (24, 48)
    assert channel.user_stacked(0).shape == (12, 48)
    assert channel.block("x", "y").shape == (8, 16)
    assert channel.blocks.shape == (3, 3, 8, 16)


def test_every_channel_form_is_a_view_of_the_stacked_matrix():
    channel = assemble_channel(two_user_scenario(n_side=4, nr_grid=(2, 2)))
    h = channel.stacked()
    n_r, n_s = channel.n_rx, channel.n_tx
    for i, p in enumerate("xyz"):
        for j, q in enumerate("xyz"):
            expected = h[i * n_r : (i + 1) * n_r, j * n_s : (j + 1) * n_s]
            assert np.array_equal(channel.blocks[i, j], expected)
            assert np.array_equal(channel.block(p, q), expected)
            assert np.shares_memory(channel.block(p, q), h)
    blocks = channel.blocks
    assert np.array_equal(h, hstack_vstack(blocks))
    for k in range(channel.n_users):
        assert np.array_equal(channel.user_stacked(k), hstack_vstack(blocks, channel.user_rows(k)))

    families = {"tp": hstack_vstack(blocks), "dp": hstack_vstack(blocks, pols=range(2)),
                "single": blocks[0, 0].copy()}
    caps = capacity_families(channel, 10.0)
    assert caps == {fam: capacity(mat, 10.0) for fam, mat in families.items()}

    before = h.copy()
    h_xp = cross_polar_system(channel)
    assert np.array_equal(h, before)
    xp_blocks = h_xp.reshape(3, n_r, 3, n_s)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert not np.any(xp_blocks[i, :, j])
            else:
                assert np.array_equal(xp_blocks[i, :, j], blocks[i, j])


def test_boresight_cross_blocks_exactly_zero():
    tx = SurfaceSpec.grid(1, 1, 0.4)
    rx = SurfaceSpec.grid(1, 1, 0.4, center=(0.0, 0.0, 1.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, 1.0),))
    channel = assemble_channel(scenario)
    for p in "xyz":
        for q in "xyz":
            if p != q:
                assert np.count_nonzero(channel.block(p, q)) == 0


TRANSMITTERS = {
    "square": SurfaceSpec.grid(6, 6, 0.37),
    "rectangle": SurfaceSpec.grid(7, 4, 0.3, 0.45),
    "circle": SurfaceSpec.circle(30, 0.33, 0.29),
}


def offset_users(tx, scale=(1.0, 1.0)):
    """Three laterally offset users and one on boresight, at the transmit pitch times ``scale``."""
    d = (tx.dx * scale[0], tx.dy * scale[1])
    surfaces = (
        SurfaceSpec.grid(3, 2, *d, center=(0.5, -0.3, 1.2), role="receive"),
        SurfaceSpec.circle(7, *d, center=(-0.7, 0.2, 2.0), role="receive"),
        SurfaceSpec.grid(2, 2, *d, center=(0.31, 0.77, 1.6), role="receive"),
        SurfaceSpec.grid(3, 3, *d, center=(0.0, 0.0, 2.5), role="receive"),
    )
    return Scenario(
        wavelength=1.0, transmit=tx, users=tuple(UserPlacement(s, s.center[2]) for s in surfaces)
    )


@pytest.mark.parametrize("scale", [(1.0, 1.0), (0.8, 1.1)], ids=["equal-pitch", "unequal-pitch"])
@pytest.mark.parametrize("layout", sorted(TRANSMITTERS))
def test_offset_table_matches_the_dense_oracle(layout, scale):
    scenario = offset_users(TRANSMITTERS[layout], scale)
    got = assemble_channel(scenario).stacked()
    want = dense_assemble_channel(scenario)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("layout", ["square", "circle"])
def test_equal_grid_offsets_give_bit_equal_entries(layout):
    tx = TRANSMITTERS[layout]
    scenario = offset_users(tx)
    channel = assemble_channel(scenario)
    tx_ix, tx_iy = patch_indices(tx)
    for k, user in enumerate(scenario.users):
        ix, iy = patch_indices(user.surface)
        offset = np.stack([ix[:, None] - tx_ix, iy[:, None] - tx_iy], axis=-1).reshape(-1, 2)
        _, first, group = np.unique(offset, axis=0, return_index=True, return_inverse=True)
        assert first.size < len(offset)  # some offsets repeat
        entries = channel.blocks[:, :, channel.user_rows(k)].reshape(3, 3, -1)
        assert np.array_equal(entries[..., first[group.reshape(-1)]], entries)


def test_every_offset_table_entry_is_read():
    # At unequal pitch a circle's bounding grid has offsets that no pair forms.
    centers = ((0.5, 0.3, 1.0), (-0.6, 0.4, 1.5), (0.2, -0.7, 2.0))
    users = tuple(
        UserPlacement(SurfaceSpec.grid(3, 2, 0.3, center=c, role="receive"), c[2]) for c in centers
    )
    scenario = Scenario(wavelength=1.0, transmit=SurfaceSpec.circle(64, 0.4), users=users)
    for table, code in offset_tables(scenario):
        assert np.array_equal(np.unique(code), np.arange(table.shape[-1]))


def reflection(spec, axis):
    """Patch permutation of a grid reflected along ``axis`` (0 = x, 1 = y)."""
    ix, iy = patch_indices(spec)
    if axis == 0:
        ix = spec.nx - 1 - ix
    else:
        iy = spec.ny - 1 - iy
    return iy * spec.nx + ix


@pytest.mark.parametrize("spec", [SurfaceSpec.grid(5, 5, 0.37), SurfaceSpec.grid(6, 3, 0.3, 0.45)],
                         ids=["square", "rectangle"])
def test_mirrored_pair_commutes_with_its_reflections(spec):
    rx = SurfaceSpec.grid(spec.nx, spec.ny, spec.dx, spec.dy, center=(0.0, 0.0, 2.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=spec, users=(UserPlacement(rx, 2.0),))
    h = assemble_channel(scenario).stacked()
    n = spec.count
    for axis in (0, 1):
        flip = np.ones(3)
        flip[axis] = -1.0  # diag(-1, 1, 1) in x, diag(1, -1, 1) in y
        index = np.concatenate([p * n + reflection(spec, axis) for p in range(3)])
        sign = np.repeat(flip, n)
        reflected = sign[:, None] * h[np.ix_(index, index)] * sign
        assert np.linalg.norm(reflected - h) <= 1e-14 * np.linalg.norm(h)


def test_channel_magnitude_decays_with_distance():
    ds = (0.4, 0.4)
    for z in (0.5, 1.0, 2.0, 5.0):
        near = np.linalg.norm(one_pair_block([0, 0, 0], [0, 0, z], ds, ds, K0))
        far = np.linalg.norm(one_pair_block([0, 0, 0], [0, 0, 2 * z], ds, ds, K0))
        assert far < near


def test_assemble_channel_deterministic():
    scenario = two_user_scenario()
    a = assemble_channel(scenario)
    b = assemble_channel(scenario)
    assert np.array_equal(a.blocks, b.blocks)


def test_dyadic_green_axis_aligned_and_reciprocal():
    g = dyadic_green([0, 0, 0], [0, 0, 0.8], K0)
    off = g - np.diag(np.diag(g))
    assert np.count_nonzero(off) == 0

    a = np.array([0.3, -0.2, 0.6])
    b = np.array([-0.1, 0.4, 1.2])
    assert np.array_equal(dyadic_green(a, b, K0), dyadic_green(b, a, K0))


def test_dyadic_green_trace_identity():
    r = np.array([0.2, 0.5, 0.9])
    rp = np.zeros(3)
    d = np.linalg.norm(r - rp)
    c1, c2 = radial_coeffs(K0 * d)
    g = cmath.exp(1j * K0 * d) / (4 * math.pi * d)
    assert np.trace(dyadic_green(r, rp, K0)) == pytest.approx((3 * c1 + c2) * g)


def test_copolarized_eigenvalue_dominance_at_three_wavelengths():
    # 225 tx and 225 rx patches at 0.4-wavelength spacing, user at z = 3
    tx = SurfaceSpec.grid(15, 15, 0.4)
    rx = SurfaceSpec.grid(15, 15, 0.4, center=(0.0, 0.0, 3.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, 3.0),))
    channel = assemble_channel(scenario)
    count_x = significant_count(eigen_spectrum(channel.block("x", "x")))
    count_y = significant_count(eigen_spectrum(channel.block("y", "y")))
    count_z = significant_count(eigen_spectrum(channel.block("z", "z")))
    assert count_x > count_z
    assert count_y > count_z
