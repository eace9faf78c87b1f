"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from _oracles import cross_polar_residual, dyadic_green
from _support import random_nf_scenario
from hmimos.channel import assemble_channel
from hmimos.correlation import im_green0_xx, transmit_correlation
from hmimos.experiments import (
    PRESETS,
    fig12_scenario,
    figure_preset,
    fixed_area_square,
    prepare_sweep,
    scheme_spectral_efficiency,
    shape_surfaces,
)
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.metrics import capacity_families, channel_dof
from hmimos.power import water_fill
from hmimos.precoding import two_layer_precoder

K0 = 2.0 * math.pi


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def residual_suite():
    """50 random scenarios with both layers' residuals, plus elapsed time."""
    rng = np.random.default_rng(20240811)
    t0 = time.monotonic()
    worst_cancel = 0.0
    worst_leak = 0.0
    for _ in range(50):
        scenario = random_nf_scenario(rng)
        channel = assemble_channel(scenario)
        pre = two_layer_precoder(channel)
        worst_cancel = max(worst_cancel, cross_polar_residual(channel, pre.first_layer))
        k = channel.n_users
        for i, pol in enumerate("xyz"):
            h_p = channel.block(pol, pol) @ pre.first_layer[i]
            for k_rx in range(k):
                for k_tx in range(k):
                    if k_rx == k_tx:
                        continue
                    h_other = h_p[channel.user_rows(k_rx)]
                    f_user = pre.second_layer[i][:, pre.col_slices[i][k_tx]]
                    denom = np.linalg.norm(h_other) * np.linalg.norm(f_user)
                    if denom == 0.0:
                        continue
                    leak = np.linalg.norm(h_other @ f_user) / denom
                    worst_leak = max(worst_leak, leak)
    return worst_cancel, worst_leak, time.monotonic() - t0


def test_criterion_01_cross_polarization_cancellation(residual_suite):
    worst_cancel, _, elapsed = residual_suite
    assert worst_cancel < 1e-10
    assert elapsed < 10.0
    report(1, f"worst cancellation residual {worst_cancel:.2e} over 50 scenarios in {elapsed:.1f}s")


def test_criterion_02_bd_leakage(residual_suite):
    _, worst_leak, elapsed = residual_suite
    assert worst_leak < 1e-10
    report(2, f"worst inter-user leakage {worst_leak:.2e} over 50 scenarios in {elapsed:.1f}s")


def test_criterion_03_correlation_closed_forms():
    rng = np.random.default_rng(314159)
    scale = K0 / (6.0 * math.pi)
    worst = 0.0
    checked = 0
    while checked < 100:
        a = rng.uniform(-2.0, 2.0, size=3)
        b = rng.uniform(-2.0, 2.0, size=3)
        d = float(np.linalg.norm(a - b))
        if d < 1e-3:
            continue
        checked += 1
        got = im_green0_xx(d, float(a[0] - b[0]), K0)
        oracle = dyadic_green(a, b, K0)[0, 0].imag
        worst = max(worst, abs(got - oracle) / scale)
    assert worst < 1e-10
    limit = im_green0_xx(1e-4, 1e-4, K0)
    assert abs(limit - scale) / scale < 1e-3
    report(3, f"100 random geometries, worst normalized error {worst:.2e}; "
              f"small-separation value {limit:.6f} vs {scale:.6f}")


def test_criterion_04_correlation_trends():
    t0 = time.monotonic()
    line = lambda s: SurfaceSpec.grid(50, 1, s)
    normalized = [
        transmit_correlation(line(s), 0.3, K0).normalized[0, 1] for s in (0.05, 0.2, 0.4)
    ]
    assert normalized[0] > normalized[1] > normalized[2]
    near = transmit_correlation(line(0.1), 0.2, K0).raw[0, 1]
    far = transmit_correlation(line(0.1), 0.8, K0).raw[0, 1]
    ratio = far / near
    assert ratio > 2.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(4, f"spacing trend {np.round(normalized, 4).tolist()}, distance ratio {ratio:.2f} "
              f"in {elapsed:.1f}s")


def test_criterion_05_capacity_ordering_and_ratios():
    def scenario_at(z):
        tx = SurfaceSpec.grid(6, 6, 0.4)
        rx = SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, z), role="receive")
        return Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, z),))

    snr = 10.0  # 10 dB
    caps = capacity_families(assemble_channel(scenario_at(0.5)), snr)
    assert caps["tp"] > caps["dp"] > caps["single"]
    tp_single = caps["tp"] / caps["single"]
    tp_dp = caps["tp"] / caps["dp"]
    assert 2.0 <= tp_single <= 4.0
    assert 1.05 <= tp_dp <= 1.5
    gaps = []
    for z in (0.5, 1.0, 2.0, 4.0):
        c = capacity_families(assemble_channel(scenario_at(z)), snr)
        gaps.append(c["tp"] - c["dp"])
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report(5, f"tp/single={tp_single:.2f}, tp/dp={tp_dp:.2f}, gaps={np.round(gaps, 3).tolist()}")


def test_criterion_06_water_filling():
    powers, eps = water_fill([4.0, 1.0], 1.0, 1.0)
    assert abs(eps - 1.125) < 1e-9
    assert abs(powers[0] - 0.875) < 1e-9 and abs(powers[1] - 0.125) < 1e-9

    rng = np.random.default_rng(271828)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        gains = rng.uniform(0.01, 10.0, size=n)
        budget = float(rng.uniform(0.1, 5.0))
        powers, _ = water_fill(gains, budget, float(rng.uniform(0.01, 3.0)))
        assert abs(powers.sum() - budget) <= 1e-9 * budget

    def rate(p, g, s2):
        return float(np.sum(np.log2(1.0 + np.asarray(g) * np.asarray(p) / s2)))

    worst_gap = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        gains = rng.uniform(0.05, 8.0, size=n)
        budget = float(rng.uniform(0.2, 3.0))
        s2 = float(rng.uniform(0.05, 2.0))
        powers, _ = water_fill(gains, budget, s2)
        mine = rate(powers, gains, s2)
        if n == 2:
            best = max(rate([p, budget - p], gains, s2) for p in np.linspace(0, budget, 401))
        else:
            best = 0.0
            for p1 in np.linspace(0, budget, 61):
                for p2 in np.linspace(0, budget - p1, 61):
                    best = max(best, rate([p1, p2, budget - p1 - p2], gains, s2))
        worst_gap = max(worst_gap, best - mine)
        assert mine >= best - 1e-6
    report(6, f"hand example exact; conservation on 1000 instances; "
              f"grid-search slack {worst_gap:.2e}")


def test_criterion_07_pa_inequality():
    rng = np.random.default_rng(161803)
    q = rng.uniform(1e-3, 1e3, size=10_000)
    s2 = rng.uniform(1e-3, 1e2, size=10_000)
    lhs = np.log2(1.0 + q / s2)
    rhs = 3.0 * np.log2(1.0 + q / (3.0 * s2))
    assert np.all(lhs < rhs)
    report(7, f"selection < equal split on 10^4 samples; min margin "
              f"{float(np.min(rhs - lhs)):.3e} bits")


def test_criterion_08_precoding_and_pa_ordering():
    t0 = time.monotonic()
    ctx = prepare_sweep(fig12_scenario())
    table = {}
    for snr_db in (-10.0, 0.0, 10.0, 20.0):
        for scheme, pa in (
            ("two-layer", "pa1"),
            ("two-layer", "pa2"),
            ("two-layer", "pa3"),
            ("uc", "pa3"),
        ):
            table[(scheme, pa, snr_db)] = scheme_spectral_efficiency(ctx, scheme, pa, snr_db)
    for snr_db in (-10.0, 0.0, 10.0, 20.0):
        se3 = table[("two-layer", "pa3", snr_db)]
        se2 = table[("two-layer", "pa2", snr_db)]
        se1 = table[("two-layer", "pa1", snr_db)]
        uc3 = table[("uc", "pa3", snr_db)]
        assert se3 >= se2 - 1e-9, f"pa3 < pa2 at {snr_db} dB"
        assert se2 >= se1, f"pa2 < pa1 at {snr_db} dB"
        assert se3 > uc3, f"two-layer <= user-cluster at {snr_db} dB"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    margins = [
        table[("two-layer", "pa3", s)] - table[("uc", "pa3", s)]
        for s in (-10.0, 0.0, 10.0, 20.0)
    ]
    report(8, f"orderings hold at -10/0/10/20 dB, two-layer margins "
              f"{np.round(margins, 1).tolist()} bits in {elapsed:.0f}s")


def test_criterion_09_dof_behavior():
    def mirrored(spec, z):
        from dataclasses import replace

        rx = replace(spec, center=(0.0, 0.0, z), role="receive")
        return Scenario(wavelength=1.0, transmit=spec, users=(UserPlacement(rx, z),))

    grid = (36, 64, 100, 144, 196, 256, 300, 400, 600)
    dofs = {}
    for n in grid:
        scenario = mirrored(fixed_area_square(n, 10.0), 7.0)
        dofs[n] = channel_dof(assemble_channel(scenario).stacked())
    seq = [dofs[n] for n in grid]
    assert all(b >= a for a, b in zip(seq, seq[1:])), f"not nondecreasing: {seq}"
    growth = dofs[600] - dofs[300]
    assert growth < 0.05 * dofs[300]

    shapes = shape_surfaces(256, 8.0)
    vals = {name: channel_dof(assemble_channel(mirrored(spec, 5.0)).stacked())
            for name, spec in shapes.items()}
    assert vals["square"] > vals["circle"]
    assert vals["rect16x4"] > vals["rect32x2"]
    report(9, f"DoF(300)={dofs[300]:.1f}, DoF(600)={dofs[600]:.1f} (growth {growth:.2f}); "
              f"shapes {dict((k, round(v, 1)) for k, v in vals.items())}")


def test_criterion_10_preset_determinism(tmp_path):
    details = []
    for name in sorted(PRESETS):
        outputs = {}
        for run in ("a", "b"):
            paths = figure_preset(name, tmp_path / f"{name}_{run}")
            outputs[run] = {p.name: p.read_bytes() for p in paths}
        assert outputs["a"] == outputs["b"], f"{name}: rerun differs"
        details.append(name)
    report(10, f"byte-identical CSVs across two reruns for {len(details)} presets")
