import cmath
import math

import numpy as np
import pytest

from _support import two_user_scenario
from hmimos.channel import (
    assemble_channel,
    dyadic_green,
    pair_blocks,
    radial_coeffs,
    scalar_green,
)
from hmimos.errors import SingularityError
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.metrics import eigen_spectrum, significant_count

K0 = 2.0 * math.pi  # wavelength 1 m


def one_pair_block(tx_center, rx_center, ds, dr, k0):
    """One patch pair's 3x3 block through the vectorized kernel."""
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
    with pytest.raises(SingularityError):
        scalar_green([1, 2, 3], [1, 2, 3], K0)


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


def test_assemble_channel_dimensions():
    scenario = two_user_scenario(n_side=4, nr_grid=(2, 2))
    channel = assemble_channel(scenario)
    assert channel.stacked().shape == (24, 48)
    assert channel.user_stacked(0).shape == (12, 48)
    assert channel.block("x", "y").shape == (8, 16)
    assert channel.xy_stacked().shape == (16, 32)


def test_boresight_cross_blocks_exactly_zero():
    tx = SurfaceSpec.grid(1, 1, 0.4)
    rx = SurfaceSpec.grid(1, 1, 0.4, center=(0.0, 0.0, 1.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, 1.0),))
    channel = assemble_channel(scenario)
    for p in "xyz":
        for q in "xyz":
            if p != q:
                assert np.count_nonzero(channel.block(p, q)) == 0


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
