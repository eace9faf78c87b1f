"""Row builders of the CSV exports against the nested-loop builders they
replaced, and the SNR-grid pipelines' thread use."""

import math

import pytest

from hmimos import csvio
from hmimos.channel import POLS, assemble_channel
from hmimos.correlation import transmit_correlation
from hmimos.experiments import (
    CO_POLS,
    PA_NAMES,
    SCHEMES,
    SNR_GRID,
    _correlation_cut,
    _fig9_scenario,
    capacity_rows,
    channel_rows,
    correlation_rows,
    fig12_scenario,
    se_sweep,
)
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement


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
