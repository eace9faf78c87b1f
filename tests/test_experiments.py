"""Row builders of the CSV exports and the two schemes' rates against the
loops they replaced."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    block_rows,
    cluster_sum_rate,
    gain_headroom_links,
    oracle_write,
    two_layer_sum_rate,
)
from _support import random_nf_scenario
from hmimos.channel import POLS, assemble_channel
from hmimos.correlation import transmit_correlation
from hmimos.csvio import write_csv
from hmimos.errors import ConfigError
from hmimos.experiments import (
    CO_POLS,
    CORRELATION_COLUMNS,
    PA_NAMES,
    GAIN_HEADROOM,
    SCHEMES,
    SNR_GRID,
    _correlation_cut,
    _se_scenario,
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
from hmimos.precoding import StreamLink, cluster_link


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
            for n in range(cm.codes.shape[0]):
                for l in range(cm.codes.shape[0]):
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


def assert_same_table(table, want):
    """A row table iterates to the oracle's rows, twice, and its length counts them."""
    assert len(table) == len(want)
    assert_same_rows(list(block_rows(table)), want)
    assert_same_rows(list(block_rows(table)), want)


def test_channel_rows_match_the_nested_loops(mixed_scenario):
    assert_same_table(channel_rows(mixed_scenario), oracle_channel_rows(mixed_scenario))


def test_correlation_rows_match_the_nested_loops(mixed_scenario):
    assert_same_table(correlation_rows(mixed_scenario), oracle_correlation_rows(mixed_scenario))


def equal_pitch(scenario):
    """The scenario with every receive surface at the transmitter's pitch."""
    tx = scenario.transmit
    return replace(scenario, users=tuple(
        replace(u, surface=replace(u.surface, dx=tx.dx, dy=tx.dy)) for u in scenario.users
    ))


@pytest.mark.parametrize("pitch", ["unequal", "equal"])
def test_exports_match_the_row_by_row_writer(tmp_path, mixed_scenario, pitch):
    scenario = mixed_scenario if pitch == "unequal" else equal_pitch(mixed_scenario)
    table = channel_rows(scenario)
    # re and im are coded over the user's entries of the offset table through
    # one shared codes array.  At equal pitch a grid user's table has one
    # entry per grid offset, fewer than its rows; at unequal pitch no table
    # is shorter than its block.
    blocks = list(table.blocks())
    assert all(block[5][1] is block[6][1] for block in blocks)
    shorter = [block[5][0].size < block[5][1].size for block in blocks]
    assert any(shorter) == (pitch == "equal")
    for name, columns, got, want in [
        ("channel", ("rx_pol", "tx_pol", "user", "rx_patch", "tx_patch", "re", "im"),
         table, oracle_channel_rows(scenario)),
        ("correlation", ("user", *CORRELATION_COLUMNS),
         correlation_rows(scenario), oracle_correlation_rows(scenario)),
    ]:
        written = write_csv(tmp_path / f"{name}.csv", "cfg", columns, got)
        expected = oracle_write(tmp_path / f"{name}_oracle.csv", "cfg", columns, want)
        assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("pitch", ["unequal", "equal"])
def test_channel_rows_form_no_dense_channel(monkeypatch, mixed_scenario, pitch):
    scenario = mixed_scenario if pitch == "unequal" else equal_pitch(mixed_scenario)
    want = oracle_channel_rows(scenario)

    def refuse(scenario):
        raise AssertionError("channel_rows assembled the dense channel")

    monkeypatch.setattr("hmimos.experiments.assemble_channel", refuse)
    monkeypatch.setattr("hmimos.channel.assemble_channel", refuse)
    assert_same_table(channel_rows(scenario), want)


def test_correlation_cut_matches_the_nested_loops():
    cuts = [(0.05, 0.05, 0.3), ("z=1", 0.4, 1.0)]
    assert_same_rows(_correlation_cut(cuts, CO_POLS), oracle_correlation_cut(cuts, CO_POLS))


def allocate(pa_name, singulars, sigma2):
    squared = [s**2 for s in singulars]
    if pa_name == "pa1":
        return pa1_select(squared, sigma2)
    if pa_name == "pa2":
        return pa2_equal([s.size for s in singulars])
    return pa3_two_layer(squared, sigma2)


def channel_scale2(channel):
    """GAIN_HEADROOM 9 N_r N_s / ||blockdiag(H_xx, H_yy, H_zz)||_F^2, a sweep's scale^2."""
    co2 = sum(float(np.linalg.norm(channel.block(p, p))) ** 2 for p in POLS)
    return GAIN_HEADROOM * 9 * channel.n_rx * channel.n_tx / co2


def sweep_channel(scenario):
    """The channel rescaled by the headroom scale ``prepare_sweep`` applies to its links."""
    channel = assemble_channel(scenario)
    return replace(channel, matrix=channel.matrix * math.sqrt(channel_scale2(channel)))


SWEEP_SCENARIOS = {
    "fig12": fig12_scenario(),
    "fig13": _se_scenario((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 3, 2),
    **{
        f"random{seed}": random_nf_scenario(np.random.default_rng(seed), k_choices=(3,))
        for seed in (3, 5, 8)
    },
}


def assert_sweep_meets_oracle(scenario, scheme, oracle):
    """Every PA at -10, 0, 10 and 20 dB against ``oracle(watts, sigma2)``."""
    links = prepare_sweep(scenario)
    for pa_name in PA_NAMES:
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            sigma2 = 1.0 / 10 ** (snr_db / 10.0)  # a unit budget
            watts = allocate(pa_name, links[scheme].singulars, sigma2)
            got = scheme_spectral_efficiency(links, scheme, pa_name, snr_db)
            assert got == pytest.approx(oracle(watts, sigma2), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
def test_two_layer_rate_matches_the_per_stream_oracle(name):
    scenario = SWEEP_SCENARIOS[name]
    channel = sweep_channel(scenario)
    assert_sweep_meets_oracle(
        scenario, "two-layer", lambda watts, sigma2: two_layer_sum_rate(channel, watts, sigma2)
    )


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
def test_cluster_rate_matches_the_per_user_pair_oracle(name):
    scenario = SWEEP_SCENARIOS[name]
    channel = sweep_channel(scenario)
    distances = [u.distance for u in scenario.users]
    assert_sweep_meets_oracle(
        scenario, "uc", lambda watts, sigma2: cluster_sum_rate(channel, distances, watts, sigma2)
    )


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
def test_channel_scale_relabels_the_gain_scale_snr_axis(name):
    # SE sees the channel only through scale^2 / sigma^2, so a scale c times
    # the gain-based one gives the gain-based rows 20 log10(c) dB further up.
    scenario = SWEEP_SCENARIOS[name]
    old_links, old_scale2 = gain_headroom_links(scenario)
    shift_db = 10.0 * math.log10(channel_scale2(assemble_channel(scenario)) / old_scale2)
    for scheme, pa_name, snr_db, got in se_sweep(scenario, SCHEMES, PA_NAMES, SNR_GRID):
        want = scheme_spectral_efficiency(old_links, scheme, pa_name, snr_db + shift_db)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_each_scheme_rows_ignore_the_other_scheme():
    both = se_sweep(fig12_scenario(), SCHEMES, PA_NAMES, SNR_GRID)
    for scheme in SCHEMES:
        alone = se_sweep(fig12_scenario(), (scheme,), PA_NAMES, SNR_GRID)
        assert alone == [row for row in both if row[0] == scheme]


def test_scheme_spectral_efficiency_refuses_an_unknown_pa():
    links = {"uc": StreamLink((np.ones(1),) * 3, np.zeros((3, 3)))}
    assert scheme_spectral_efficiency(links, "uc", "pa3", 10.0) > 0
    with pytest.raises(ConfigError, match="unknown power allocation 'pa9'"):
        scheme_spectral_efficiency(links, "uc", "pa9", 10.0)


def test_cluster_rate_with_unequal_user_grids(mixed_scenario):
    channel = assemble_channel(mixed_scenario)
    distances = [u.distance for u in mixed_scenario.users]
    link = cluster_link(channel, distances)
    assert sorted(s.size for s in link.singulars) == [1, 5, 6]
    for pa_name in PA_NAMES:
        for sigma2 in (1e-6, 1e-8):  # around and below the leakage power, about 1e-7
            watts = allocate(pa_name, link.singulars, sigma2)
            want = cluster_sum_rate(channel, distances, watts, sigma2)
            got = cluster_spectral_efficiency(link, watts, sigma2)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
