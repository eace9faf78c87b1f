import math

import numpy as np
import pytest

from _oracles import significant_count
from hmimos.channel import assemble_channel
from hmimos.experiments import fig12_scenario, prepare_sweep, scheme_spectral_efficiency
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.metrics import (
    capacity,
    capacity_families,
    channel_dof,
    eigen_spectrum,
    spectral_efficiency,
)


def test_spectral_efficiency_one_bit():
    # q g s^2 / sigma2 = 1 -> log2(2) = 1 bit
    assert spectral_efficiency([2.0], q=0.5, g=[0.5], sigma2=1.0) == pytest.approx(1.0)


def test_spectral_efficiency_zero_power():
    assert spectral_efficiency([3.0, 1.0], q=0.0, g=[0.5, 0.5], sigma2=1.0) == 0.0
    assert spectral_efficiency([], q=1.0, g=[], sigma2=1.0) == 0.0


def test_two_layer_beats_cluster_across_snr():
    ctx = prepare_sweep(fig12_scenario())
    for snr_db in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        tl = scheme_spectral_efficiency(ctx, "two-layer", "pa3", snr_db)
        uc = scheme_spectral_efficiency(ctx, "uc", "pa3", snr_db)
        assert tl > uc


def test_capacity_identity():
    for n in (2, 5):
        snr = 7.0
        assert capacity(np.eye(n), snr) == pytest.approx(n * math.log2(1 + snr / n))


def test_capacity_monotone_in_snr():
    rng = np.random.default_rng(101)
    h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    caps = [capacity(h, snr) for snr in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))
    with pytest.raises(ValueError):
        capacity(h, 0.0)


def test_capacity_family_ordering_near_field():
    tx = SurfaceSpec.grid(6, 6, 0.4)
    rx = SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, 0.5), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, 0.5),))
    caps = capacity_families(assemble_channel(scenario), snr=10.0)
    assert caps["tp"] > caps["dp"] > caps["single"]


def test_eigen_spectrum_unitary_columns():
    rng = np.random.default_rng(103)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    eigs = eigen_spectrum(q)
    assert np.allclose(eigs, 1.0, atol=1e-12)


def test_eigen_spectrum_rank_one():
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 1.0, 2.0]])
    block = u @ v
    eigs = eigen_spectrum(block)
    assert eigs[0] == pytest.approx(np.linalg.norm(block) ** 2)
    assert np.allclose(eigs[1:], 0.0, atol=1e-12)


def test_eigen_spectrum_sums_to_frobenius():
    rng = np.random.default_rng(107)
    for _ in range(10):
        h = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        eigs = eigen_spectrum(h)
        assert np.all(eigs >= -1e-12)
        assert eigs.sum() == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-9)
    assert significant_count(np.array([1.0, 0.5, 0.005])) == 2


def test_channel_dof_matches_eigen_participation():
    rng = np.random.default_rng(109)
    h = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    eigs = eigen_spectrum(h)
    expected = eigs.sum() ** 2 / np.sum(eigs**2)
    assert channel_dof(h) == pytest.approx(expected, rel=1e-10)


def test_capacity_family_ordering_over_distance_grid():
    tx = SurfaceSpec.grid(6, 6, 0.4)
    for z in (0.5, 1.0, 2.0, 4.0):
        rx = SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, z), role="receive")
        scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, z),))
        caps = capacity_families(assemble_channel(scenario), snr=10.0)
        assert caps["tp"] >= caps["dp"] >= caps["single"]


def test_spectral_efficiency_monotone():
    singulars = [2.0, 1.0, 0.5]
    shares = [0.5, 0.3, 0.2]
    vals = [spectral_efficiency(singulars, 1.0, shares, 1.0 / snr) for snr in (0.5, 1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    base = spectral_efficiency(singulars, 1.0, shares, 0.5)
    boosted = spectral_efficiency(singulars, 1.0, [0.5, 0.3, 0.4], 0.5)
    assert boosted > base
