"""Row builders of the CSV exports and the user-cluster rate against the
loops they replaced, and the SNR-grid pipelines' thread use."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import cluster_sum_rate
from _support import random_nf_scenario
from hmimos import csvio
from hmimos.channel import POLS, assemble_channel
from hmimos.correlation import transmit_correlation
from hmimos.experiments import (
    CO_POLS,
    PA_NAMES,
    SCHEMES,
    SNR_GRID,
    GAIN_HEADROOM,
    _correlation_cut,
    _fig9_scenario,
    _se_scenario,
    capacity_rows,
    channel_rows,
    cluster_spectral_efficiency,
    correlation_rows,
    fig12_scenario,
    prepare_sweep,
    scheme_spectral_efficiency,
    se_sweep,
)
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement
from hmimos.power import pa1_select, pa2_equal, pa3_two_layer
from hmimos.precoding import cluster_link, two_layer_precoder


def oracle_channel_rows(scenario):
    channel = assemble_channel(scenario)
    rows = []
    for p in POLS:
        for q in POLS:
            block = channel.block(p, q)
            for k in range(channel.n_users):
                sub = block[channel.user_rows(k)]
                for m in range(sub.shape[0]):
                    for n in range(sub.shape[1]):
                        v = sub[m, n]
                        rows.append((p, q, k + 1, m + 1, n + 1, float(v.real), float(v.imag)))
    return rows


def oracle_correlation_rows(scenario):
    rows = []
    for k, user in enumerate(scenario.users):
        for pol in CO_POLS:
            cm = transmit_correlation(scenario.transmit, user.distance, scenario.k0, pol)
            norm = cm.normalized
            for n in range(cm.size):
                for l in range(cm.size):
                    rows.append((k + 1, pol, n + 1, l + 1, float(cm.raw[n, l]), float(norm[n, l])))
    return rows


def oracle_correlation_cut(cuts, pols):
    rows = []
    for label, spacing, z in cuts:
        for pol in pols:
            cm = transmit_correlation(SurfaceSpec.grid(50, 1, spacing), z, 2.0 * math.pi, pol)
            norm = cm.normalized
            for n in range(50):
                rows.append((label, pol, 1, n + 1, float(cm.raw[0, n]), float(norm[0, n])))
    return rows


def assert_same_rows(got, want):
    assert got == want
    # Same Python types too, so the writer formats both alike.
    assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]


@pytest.fixture(scope="module")
def mixed_scenario():
    """A 4x3 transmitter and three users: two grids and a circle."""
    users = (
        UserPlacement(SurfaceSpec.grid(2, 3, 0.4, center=(0.6, 0.3, 1.2), role="receive"), 1.2),
        UserPlacement(SurfaceSpec.circle(5, 0.3, center=(-0.7, 0.5, 2.0), role="receive"), 2.0),
        UserPlacement(SurfaceSpec.grid(1, 1, 0.4, center=(0.4, -0.9, 0.8), role="receive"), 0.8),
    )
    return Scenario(wavelength=1.0, transmit=SurfaceSpec.grid(4, 3, 0.35), users=users)


def test_channel_rows_match_the_nested_loops(mixed_scenario):
    assert_same_rows(channel_rows(mixed_scenario), oracle_channel_rows(mixed_scenario))


def test_correlation_rows_match_the_nested_loops(mixed_scenario):
    assert_same_rows(correlation_rows(mixed_scenario), oracle_correlation_rows(mixed_scenario))


def test_correlation_cut_matches_the_nested_loops():
    cuts = [(0.05, 0.05, 0.3), ("z=1", 0.4, 1.0)]
    assert_same_rows(_correlation_cut(cuts, CO_POLS), oracle_correlation_cut(cuts, CO_POLS))


def test_snr_grid_pipelines_start_no_thread_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setenv(csvio.THREADS_ENV, "4")
    monkeypatch.setattr(csvio, "ThreadPoolExecutor", refuse)
    rows = se_sweep(fig12_scenario(), SCHEMES, PA_NAMES, SNR_GRID)
    assert len(rows) == len(SCHEMES) * len(PA_NAMES) * len(SNR_GRID)
    assert len(capacity_rows(_fig9_scenario(0.5), SNR_GRID)) == 3 * len(SNR_GRID)


def allocate(pa_name, singulars, budget, sigma2):
    squared = [s**2 for s in singulars]
    if pa_name == "pa1":
        return pa1_select(squared, budget, sigma2)
    if pa_name == "pa2":
        return pa2_equal([s.size for s in singulars], budget)
    return pa3_two_layer(squared, budget, sigma2)


def sweep_channel(scenario):
    """The channel rescaled to the sweep's gain headroom, as ``prepare_sweep`` does."""
    channel = assemble_channel(scenario)
    spectra = two_layer_precoder(channel).singulars
    n_tot = sum(s.size for s in spectra)
    sum2 = sum(float(np.sum(s**2)) for s in spectra)
    return replace(channel, matrix=channel.matrix * math.sqrt(GAIN_HEADROOM * n_tot**2 / sum2))


CLUSTER_SCENARIOS = {
    "fig12": fig12_scenario(),
    "fig13": _se_scenario((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 3, 2),
    **{
        f"random{seed}": random_nf_scenario(np.random.default_rng(seed), k_choices=(3,))
        for seed in (3, 5, 8)
    },
}


@pytest.mark.parametrize("name", sorted(CLUSTER_SCENARIOS))
def test_cluster_rate_matches_the_per_user_pair_oracle(name):
    scenario = CLUSTER_SCENARIOS[name]
    ctx = prepare_sweep(scenario)
    channel = sweep_channel(scenario)
    distances = [u.distance for u in scenario.users]
    budget = scenario.total_power
    for pa_name in PA_NAMES:
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            sigma2 = budget / 10 ** (snr_db / 10.0)
            pa = allocate(pa_name, ctx.spectra["uc"], budget, sigma2)
            want = cluster_sum_rate(channel, distances, pa, sigma2)
            got = scheme_spectral_efficiency(ctx, "uc", pa_name, snr_db)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cluster_rate_with_unequal_user_grids(mixed_scenario):
    channel = assemble_channel(mixed_scenario)
    distances = [u.distance for u in mixed_scenario.users]
    link = cluster_link(channel, distances)
    assert sorted(s.size for s in link.singulars) == [1, 5, 6]
    for pa_name in PA_NAMES:
        for sigma2 in (1e-6, 1e-8):  # around and below the leakage power, about 1e-7
            pa = allocate(pa_name, link.singulars, 1.0, sigma2)
            want = cluster_sum_rate(channel, distances, pa, sigma2)
            got = cluster_spectral_efficiency(link, pa, sigma2)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
