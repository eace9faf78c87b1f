import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _oracles import capacity_logdet, channel_dof_full_gram, significant_count
import hmimos
from hmimos.channel import assemble_channel
from hmimos.experiments import (
    _fig9_scenario,
    fig12_scenario,
    fixed_area_square,
    prepare_sweep,
    scheme_spectral_efficiency,
)
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.metrics import (
    _GRAM_BLOCK_ROWS,
    capacity,
    capacity_families,
    channel_dof,
    eigen_spectrum,
    total_spectral_efficiency,
)


def test_spectral_efficiency_one_bit():
    # p s^2 / sigma2 = 1 -> log2(2) = 1 bit
    assert total_spectral_efficiency(([], [2.0], []), ([], [0.25], []), 1.0) == pytest.approx(1.0)
    # leakage adds to the noise: p s^2 / (sigma2 + leak) = 1
    assert total_spectral_efficiency(([2.0], [], []), ([0.5], [], []), 1.0, [1.0]) == 1.0


def test_spectral_efficiency_zero_power():
    assert total_spectral_efficiency(([3.0, 1.0], [2.0], []), ([0.0, 0.0], [0.0], []), 1.0) == 0.0
    assert total_spectral_efficiency(([], [], []), ([], [], []), 1.0) == 0.0


@pytest.mark.parametrize("shares", [[0.5], [0.5, 0.3, 0.2]])
def test_spectral_efficiency_refuses_a_length_mismatch(shares):
    # shares of a 1 W budget are the stream watts
    with pytest.raises(ValueError, match="singular values but"):
        total_spectral_efficiency(([2.0, 1.0], [], []), (shares, [], []), 1.0)


def test_spectral_efficiency_checks_each_polarization_length():
    # three streams and three watts, but split 2 + 1 against 1 + 2
    with pytest.raises(ValueError, match="pol 0: 2 singular values but 1 stream watts"):
        total_spectral_efficiency(([2.0, 1.0], [1.0], []), ([0.5], [0.3, 0.2], []), 1.0)


def test_two_layer_beats_cluster_across_snr():
    links = prepare_sweep(fig12_scenario())
    for snr_db in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        tl = scheme_spectral_efficiency(links, "two-layer", "pa3", snr_db)
        uc = scheme_spectral_efficiency(links, "uc", "pa3", snr_db)
        assert tl > uc


def test_capacity_identity():
    for n in (2, 5):
        snr = 7.0
        assert capacity(np.eye(n), snr) == pytest.approx(n * math.log2(1 + snr))


def test_capacity_zero_channel_is_zero():
    assert capacity(np.zeros((2, 3)), 5.0) == 0.0
    assert np.array_equal(capacity(np.zeros((2, 3)), [1.0, 5.0]), [0.0, 0.0])


def test_capacity_monotone_in_snr():
    rng = np.random.default_rng(101)
    h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    caps = [capacity(h, snr) for snr in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))
    with pytest.raises(ValueError):
        capacity(h, 0.0)
    with pytest.raises(ValueError):
        capacity(h, [1.0, 0.0])


CAPACITY_SNRS = 10 ** (np.arange(-20.0, 31.0) / 10.0)  # -20:1:30 dB


def family_matrices(channel):
    """The tri-, dual- and single-polarized channels assembled from the nine blocks."""
    b = channel.block
    return {
        "tp": np.block([[b(p, q) for q in "xyz"] for p in "xyz"]),
        "dp": np.block([[b(p, q) for q in "xy"] for p in "xy"]),
        "single": b("x", "x"),
    }


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
def test_capacity_families_match_the_logdet_oracle(z):
    channel = assemble_channel(_fig9_scenario(z))
    caps = capacity_families(channel, CAPACITY_SNRS)
    for fam, mat in family_matrices(channel).items():
        want = [capacity_logdet(mat, snr) for snr in CAPACITY_SNRS]
        np.testing.assert_allclose(caps[fam], want, rtol=1e-13, atol=0)


def random_4x6():
    rng = np.random.default_rng(7)
    return rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))


def test_capacity_matches_the_logdet_oracle_on_a_random_matrix():
    h = random_4x6()
    want = [capacity_logdet(h, snr) for snr in CAPACITY_SNRS]
    np.testing.assert_allclose(capacity(h, CAPACITY_SNRS), want, rtol=1e-13, atol=0)


def test_capacity_array_call_equals_the_scalar_calls():
    mats = family_matrices(assemble_channel(_fig9_scenario(0.5)))
    mats["random"] = random_4x6()
    for mat in mats.values():
        caps = capacity(mat, CAPACITY_SNRS)
        assert caps.shape == CAPACITY_SNRS.shape
        assert caps.tolist() == [capacity(mat, snr) for snr in CAPACITY_SNRS.tolist()]


@pytest.mark.parametrize("snr_db", [-60.0, -100.0, -300.0])
def test_capacity_at_low_snr_matches_the_exact_sum(snr_db):
    # A log-det of I + snr H H^H loses the snr-sized terms to rounding near 1.
    mat = assemble_channel(_fig9_scenario(0.5)).matrix
    lam = eigen_spectrum(mat)
    lam *= mat.shape[0] / lam.sum()
    snr = 10 ** (snr_db / 10.0)
    want = math.fsum(math.log1p(snr * v) for v in lam.tolist()) / math.log(2.0)
    assert capacity(mat, snr) == pytest.approx(want, rel=1e-12, abs=0)


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


def _svd_participation(h):
    s2 = np.linalg.svd(np.asarray(h, dtype=np.complex128), compute_uv=False) ** 2
    return s2.sum() ** 2 / np.sum(s2**2)


def _dof_inputs():
    rng = np.random.default_rng(113)

    def cplx(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    wide = cplx(12, 30)
    real = rng.standard_normal((9, 14))
    return {
        "wide": wide,
        "square": cplx(20, 20),
        "tall": cplx(33, 8),
        "strided": cplx(10, 40)[:, ::2],
        "fortran": np.asfortranarray(cplx(15, 25)),
        "fortran-tall": np.asfortranarray(cplx(25, 15)),
        "real": real,
        "phase-times-real": np.exp(0.7j) * real,  # Im(H H^H) = 0
        "phase-times-complex": np.exp(0.7j) * wide,
    }


@pytest.mark.parametrize("name", sorted(_dof_inputs()))
def test_channel_dof_matches_svd_participation_ratio(name):
    h = _dof_inputs()[name]
    before = h.copy()
    assert channel_dof(h) == pytest.approx(_svd_participation(h), rel=1e-12, abs=0)
    assert np.array_equal(h, before)  # the input is read, never written


def _boundary_inputs(rows):
    """Inputs whose wide orientation has ``rows`` rows, in each memory layout."""
    rng = np.random.default_rng(127 + rows)

    def cplx(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    return {
        "wide": cplx(rows, rows + 7),
        "square": cplx(rows, rows),
        "tall": cplx(rows + 9, rows),
        "strided": cplx(rows, 2 * rows + 10)[:, ::2],
        "fortran": np.asfortranarray(cplx(rows, rows + 5)),
    }


B = _GRAM_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 3])
def test_channel_dof_across_gram_block_boundaries(rows):
    for name, h in _boundary_inputs(rows).items():
        before = h.copy()
        got = channel_dof(h)
        assert got == pytest.approx(channel_dof_full_gram(h), rel=1e-12, abs=0), name
        assert got == pytest.approx(_svd_participation(h), rel=1e-12, abs=0), name
        assert np.array_equal(h, before), name


def test_channel_dof_zero_channel_raises():
    with pytest.raises(ValueError, match="zero channel"):
        channel_dof(np.zeros((3, 5), dtype=complex))


@pytest.mark.parametrize("h", [np.full((3, 5), np.nan), np.full((5, 3), np.inf),
                               1e200 * np.ones((3, 5))], ids=["nan", "inf", "1e200"])
def test_channel_dof_raises_when_not_finite(h):
    with pytest.raises(np.linalg.LinAlgError, match="diversity gain is not finite"):
        channel_dof(h)


@pytest.fixture(scope="module")
def fig10_pair():
    """fig10's N = 400 mirrored pair, a 1200 x 1200 channel."""
    spec = fixed_area_square(400, 10.0)
    rx = replace(spec, center=(0.0, 0.0, 5.0), role="receive")
    scenario = Scenario(wavelength=1.0, transmit=spec, users=(UserPlacement(rx, 5.0),))
    return assemble_channel(scenario).stacked()


def test_channel_dof_matches_full_gram_on_fig10_pair(fig10_pair):
    h = fig10_pair
    assert channel_dof(h) == pytest.approx(channel_dof_full_gram(h), rel=1e-12, abs=0)


def test_channel_dof_extra_memory_is_a_fraction_of_the_channel(fig10_pair):
    channel_dof(fig10_pair)  # warm-up: first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        channel_dof(fig10_pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fig10_pair.nbytes / 2


def test_capacity_raises_on_an_overflowing_spectrum():
    with pytest.raises(np.linalg.LinAlgError, match="spectrum is not finite"):
        capacity(1e200 * np.ones((3, 5)), 10.0)


def test_channel_dof_does_not_import_scipy():
    code = (
        "import sys, numpy as np, hmimos\n"
        "h = np.arange(12.0).reshape(3, 4) * (1 + 1j)\n"
        "assert hmimos.channel_dof(h) > 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(hmimos.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_capacity_family_ordering_over_distance_grid():
    tx = SurfaceSpec.grid(6, 6, 0.4)
    for z in (0.5, 1.0, 2.0, 4.0):
        rx = SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, z), role="receive")
        scenario = Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, z),))
        caps = capacity_families(assemble_channel(scenario), snr=10.0)
        assert caps["tp"] >= caps["dp"] >= caps["single"]


def test_spectral_efficiency_monotone():
    singulars = ([2.0, 1.0], [0.5], [])
    watts = ([0.5, 0.3], [0.2], [])
    vals = [total_spectral_efficiency(singulars, watts, 1.0 / snr) for snr in (0.5, 1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    base = total_spectral_efficiency(singulars, watts, 0.5)
    boosted = total_spectral_efficiency(singulars, ([0.5, 0.3], [0.4], []), 0.5)
    leaky = total_spectral_efficiency(singulars, watts, 0.5, [0.1, 0.0, 0.0])
    assert boosted > base > leaky
