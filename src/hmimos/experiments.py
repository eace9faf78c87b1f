"""Scenario pipelines and figure presets producing deterministic CSVs.

Spectral-efficiency sweeps interpret the SNR axis as the mean per-stream
received SNR under uniform allocation, with a fixed 20 dB aperture-gain
headroom: the effective channel is rescaled so the mean squared stream gain
equals ``GAIN_HEADROOM`` times the stream count.  Only orderings and ratios
between schemes are meaningful; absolute bit rates depend on this
normalization and are documented as such.

The user-cluster scheme keeps its physical cross-polarization interference:
clustering confines each user's signal to one co-polarized sub-channel but
nulls nothing, so the other polarizations' transmissions leak through the
cross-polarized blocks and cap the attainable SINR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import POLS, PolarizedChannel, assemble_channel
from .correlation import transmit_correlation
from .csvio import parallel_map, write_csv
from .errors import ConfigError
from .geometry import Scenario, SurfaceSpec, UserPlacement
from .metrics import capacity_families, channel_dof, eigen_spectrum, total_spectral_efficiency
from .numerics import DEFAULT_TOL
from .power import pa1_select, pa2_equal, pa3_two_layer
from .precoding import ClusterLink, cluster_link, two_layer_precoder

GAIN_HEADROOM = 100.0
SCHEMES = ("two-layer", "uc")
PA_NAMES = ("pa1", "pa2", "pa3")


# ---------------------------------------------------------------------------
# spectral-efficiency machinery

def cluster_spectral_efficiency(channel: PolarizedChannel, link: ClusterLink, pa, sigma2: float) -> float:
    """Sum rate of the cluster scheme including cross-polarized leakage.

    Stream j of user k sees its own singular value as signal; every other
    active stream interferes through the cross-polarized (or same-pol
    inter-user) block projected on user k's receive combiner.
    """
    total = 0.0
    for k in range(channel.n_users):
        qi = link.pol_of_user[k]
        s = link.singulars[k]
        offset = link.stream_offsets[k]
        shares = pa.g[qi]
        leak_per_stream = np.zeros(s.size)
        for k2 in range(channel.n_users):
            pi2 = link.pol_of_user[k2]
            if k2 == k:
                continue
            cross = channel.user_block(POLS[qi], POLS[pi2], k)
            proj = link.combiners[k].conj().T @ cross @ link.precoders[k2]
            off2 = link.stream_offsets[k2]
            n2 = link.singulars[k2].size
            weights = pa.q[pi2] * pa.g[pi2][off2 : off2 + n2]
            leak_per_stream += (np.abs(proj[: s.size, :n2]) ** 2) @ weights
        for j in range(s.size):
            signal = pa.q[qi] * shares[offset + j] * s[j] ** 2
            total += math.log2(1.0 + signal / (leak_per_stream[j] + sigma2))
    return total


def _common_nr_bar(scenario: Scenario) -> int:
    counts = {u.surface.count for u in scenario.users}
    if len(counts) != 1:
        raise ConfigError("user-cluster precoding needs a common per-user patch count")
    return counts.pop()


@dataclass(frozen=True)
class SweepContext:
    """Channel, precoders and normalized spectra shared by one sweep."""

    scenario: Scenario
    channel: PolarizedChannel  # rescaled
    tl_spectra: tuple[np.ndarray, np.ndarray, np.ndarray]
    link: ClusterLink | None


def prepare_sweep(scenario: Scenario, schemes=SCHEMES, tol: float = DEFAULT_TOL) -> SweepContext:
    channel = assemble_channel(scenario)
    pre = two_layer_precoder(channel, tol)
    spectra = [pre.pooled_singulars(p) for p in POLS]
    n_tot = sum(s.size for s in spectra)
    sum2 = sum(float(np.sum(s**2)) for s in spectra)
    scale = math.sqrt(GAIN_HEADROOM * n_tot**2 / sum2)
    scaled = PolarizedChannel(blocks=channel.blocks * scale, user_offsets=channel.user_offsets)
    link = None
    if "uc" in schemes:
        _common_nr_bar(scenario)
        link = cluster_link(scaled, [u.distance for u in scenario.users])
    return SweepContext(
        scenario=scenario,
        channel=scaled,
        tl_spectra=tuple(s * scale for s in spectra),
        link=link,
    )


def _allocate(pa_name: str, spectra, scenario: Scenario, sigma2: float):
    budget = scenario.total_power
    squared = [s**2 for s in spectra]
    if pa_name == "pa1":
        return pa1_select(squared, budget, sigma2)
    if pa_name == "pa2":
        nr_bar = _common_nr_bar(scenario)
        return pa2_equal(scenario.n_users, nr_bar, budget, stream_counts=[s.size for s in spectra])
    if pa_name == "pa3":
        return pa3_two_layer(squared, budget, sigma2)
    raise ConfigError(f"unknown power allocation {pa_name!r}")


def scheme_spectral_efficiency(
    ctx: SweepContext, scheme: str, pa_name: str, snr_db: float
) -> float:
    sigma2 = ctx.scenario.total_power / 10 ** (snr_db / 10.0)
    if scheme == "two-layer":
        pa = _allocate(pa_name, ctx.tl_spectra, ctx.scenario, sigma2)
        return total_spectral_efficiency(ctx.tl_spectra, pa, sigma2)
    if scheme == "uc":
        if ctx.link is None:
            raise ConfigError("sweep context was prepared without the uc scheme")
        spectra = [ctx.link.pooled_singulars(i) for i in range(3)]
        pa = _allocate(pa_name, spectra, ctx.scenario, sigma2)
        return cluster_spectral_efficiency(ctx.channel, ctx.link, pa, sigma2)
    raise ConfigError(f"unknown precoding scheme {scheme!r}")


def se_sweep(scenario: Scenario, schemes, pas, snrs_db, tol: float = DEFAULT_TOL):
    """Rows (scheme, pa, snr_db, spectral_efficiency) over the sweep grid."""
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown precoding scheme {scheme!r}")
    for pa_name in pas:
        if pa_name not in PA_NAMES:
            raise ConfigError(f"unknown power allocation {pa_name!r}")
    if "uc" in schemes and scenario.n_users % 3 != 0:
        raise ConfigError("K must be divisible by 3 for user-cluster precoding")
    ctx = prepare_sweep(scenario, schemes, tol)
    grid = [(scheme, pa, snr) for scheme in schemes for pa in pas for snr in snrs_db]
    values = parallel_map(lambda g: scheme_spectral_efficiency(ctx, *g), grid)
    return [(s, p, snr, v) for (s, p, snr), v in zip(grid, values)]


# ---------------------------------------------------------------------------
# scenario subcommand pipelines

def channel_rows(scenario: Scenario):
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


def correlation_rows(scenario: Scenario, pols=("xx", "yy", "zz")):
    rows = []
    for k, user in enumerate(scenario.users):
        for pol in pols:
            cm = transmit_correlation(scenario.transmit, user.distance, scenario.k0, pol)
            norm = cm.normalized
            for n in range(cm.size):
                for l in range(cm.size):
                    rows.append((k + 1, pol, n + 1, l + 1, float(cm.raw[n, l]), float(norm[n, l])))
    return rows


def dof_rows(scenario: Scenario):
    channel = assemble_channel(scenario)
    rows = []
    for k, user in enumerate(scenario.users):
        rows.append((k + 1, user.distance, channel_dof(channel.user_stacked(k))))
    return rows


def capacity_rows(scenario: Scenario, snrs_db):
    channel = assemble_channel(scenario)

    def one(snr_db):
        caps = capacity_families(channel, 10 ** (snr_db / 10.0))
        return [(snr_db, fam, caps[fam]) for fam in ("tp", "dp", "single")]

    rows = []
    for chunk in parallel_map(one, list(snrs_db)):
        rows.extend(chunk)
    return rows


# ---------------------------------------------------------------------------
# figure presets

def _line_surface(n: int, spacing: float) -> SurfaceSpec:
    return SurfaceSpec.grid(n, 1, spacing)


def _mirrored_scenario(tx: SurfaceSpec, z: float) -> Scenario:
    rx = replace(tx, center=(0.0, 0.0, z), role="receive")
    return Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, z),))


def _near_square_factors(n: int) -> tuple[int, int]:
    best = (n, 1)
    for a in range(1, int(math.isqrt(n)) + 1):
        if n % a == 0:
            best = (n // a, a)
    return best


def fixed_area_square(n: int, side: float) -> SurfaceSpec:
    nx, ny = _near_square_factors(n)
    return SurfaceSpec.grid(nx, ny, side / nx, side / ny)


def fig12_scenario(wavelength: float = 1.0) -> Scenario:
    """Three users on a 225-patch transmitter, distances 1, 3 and 5 wavelengths."""
    lam = wavelength
    tx = SurfaceSpec.grid(15, 15, 0.4 * lam)
    laterals = ((1.5, 0.5), (-1.2, 1.0), (0.3, -1.6))
    users = tuple(
        UserPlacement(
            SurfaceSpec.grid(4, 3, 0.4 * lam, center=(cx * lam, cy * lam, z * lam), role="receive"),
            z * lam,
        )
        for (cx, cy), z in zip(laterals, (1.0, 3.0, 5.0))
    )
    return Scenario(wavelength=lam, transmit=tx, users=users)


def fig13_scenario(wavelength: float = 1.0) -> Scenario:
    """Six users, distances 1..6 wavelengths, 6 receive patches each."""
    lam = wavelength
    tx = SurfaceSpec.grid(15, 15, 0.4 * lam)
    laterals = ((1.5, 0.5), (-1.2, 1.0), (0.3, -1.6), (-0.8, -1.2), (1.0, 1.4), (-1.6, 0.2))
    users = tuple(
        UserPlacement(
            SurfaceSpec.grid(3, 2, 0.4 * lam, center=(cx * lam, cy * lam, z * lam), role="receive"),
            z * lam,
        )
        for (cx, cy), z in zip(laterals, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    )
    return Scenario(wavelength=lam, transmit=tx, users=users)


def shape_surfaces(n: int, area_side: float = 8.0) -> dict[str, SurfaceSpec]:
    """Equal-area shapes: square, inscribed circle, 16x4 and 32x2 rectangles."""
    shapes: dict[str, SurfaceSpec] = {}
    side = int(round(math.sqrt(n)))
    if side * side == n:
        shapes["square"] = SurfaceSpec.grid(side, side, area_side / side)
        radius = area_side / 2.0
        shapes["circle"] = SurfaceSpec.circle(n, radius * math.sqrt(math.pi / n))
    k4 = math.isqrt(n // 4)
    if 4 * k4 * k4 == n:
        shapes["rect16x4"] = SurfaceSpec.grid(4 * k4, k4, 2.0 * area_side / (4 * k4), 0.5 * area_side / k4)
    k16 = math.isqrt(n // 16)
    if 16 * k16 * k16 == n:
        shapes["rect32x2"] = SurfaceSpec.grid(
            16 * k16, k16, 4.0 * area_side / (16 * k16), 0.25 * area_side / k16
        )
    return shapes


DOF_GRID = (36, 64, 100, 144, 196, 256, 300, 400, 600)
SHAPE_GRID = (16, 64, 144, 256, 400)


def _preset_fig4(out_dir: Path):
    rows = []
    for spacing in (0.05, 0.2, 0.4):
        cm = transmit_correlation(_line_surface(50, spacing), 0.3, 2.0 * math.pi, "xx")
        for n in range(50):
            rows.append((spacing, "xx", 1, n + 1, float(cm.raw[0, n]), float(cm.normalized[0, n])))
    cfg = "preset=fig4 wavelength=1 ns=50 layout=line z=0.3 spacings=0.05|0.2|0.4 pol=xx"
    return [write_csv(out_dir / "fig4_correlation_vs_spacing.csv", cfg,
                      ("spacing", "pol", "n", "l", "raw", "normalized"), rows)]


def _preset_fig5(out_dir: Path):
    rows = []
    for z in (0.2, 0.4, 0.8):
        cm = transmit_correlation(_line_surface(50, 0.1), z, 2.0 * math.pi, "xx")
        for n in range(50):
            rows.append((z, "xx", 1, n + 1, float(cm.raw[0, n]), float(cm.normalized[0, n])))
    cfg = "preset=fig5 wavelength=1 ns=50 layout=line spacing=0.1 z=0.2|0.4|0.8 pol=xx"
    return [write_csv(out_dir / "fig5_correlation_vs_distance.csv", cfg,
                      ("z", "pol", "n", "l", "raw", "normalized"), rows)]


def _preset_fig6(out_dir: Path):
    rows = []
    for z in (0.1, 0.2, 0.4):
        for pol in POLS:
            cm = transmit_correlation(_line_surface(50, 0.4), z, 2.0 * math.pi, pol + pol)
            for n in range(50):
                rows.append((z, pol + pol, 1, n + 1, float(cm.raw[0, n]), float(cm.normalized[0, n])))
    cfg = "preset=fig6 wavelength=1 ns=50 layout=line spacing=0.4 z=0.1|0.2|0.4 pols=xx|yy|zz"
    return [write_csv(out_dir / "fig6_copolarized_correlation.csv", cfg,
                      ("z", "pol", "n", "l", "raw", "normalized"), rows)]


def _eigen_preset(out_dir: Path, name: str, z: float):
    tx = SurfaceSpec.grid(15, 15, 0.4)
    scenario = _mirrored_scenario(tx, z)
    channel = assemble_channel(scenario)
    rows = []
    for p in POLS:
        for q in POLS:
            eigs = eigen_spectrum(channel.block(p, q))
            for i, val in enumerate(eigs):
                rows.append((p, q, i + 1, float(val)))
    cfg = f"preset={name} wavelength=1 ns=225 nr=225 spacing=0.4 z={z:g}"
    return [write_csv(out_dir / f"{name}_eigenvalues.csv", cfg,
                      ("rx_pol", "tx_pol", "index", "eigenvalue"), rows)]


def _preset_fig9(out_dir: Path):
    tx = SurfaceSpec.grid(6, 6, 0.4)

    def scenario_at(z):
        rx = SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, z), role="receive")
        return Scenario(wavelength=1.0, transmit=tx, users=(UserPlacement(rx, z),))

    snrs = [float(s) for s in range(-10, 22, 2)]
    rows_a = capacity_rows(scenario_at(0.5), snrs)
    cfg_a = "preset=fig9a wavelength=1 ns=36 nr=9 spacing=0.4 z=0.5 snr=-10:2:20"
    path_a = write_csv(out_dir / "fig9a_capacity_vs_snr.csv", cfg_a,
                       ("snr_db", "family", "capacity"), rows_a)

    zs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]

    def caps_at(z):
        caps = capacity_families(assemble_channel(scenario_at(z)), 10.0)
        return [(z, fam, caps[fam]) for fam in ("tp", "dp", "single")]

    rows_b = []
    for chunk in parallel_map(caps_at, zs):
        rows_b.extend(chunk)
    cfg_b = "preset=fig9b wavelength=1 ns=36 nr=9 spacing=0.4 snr_db=10 z=0.5:0.5:4"
    path_b = write_csv(out_dir / "fig9b_capacity_vs_distance.csv", cfg_b,
                       ("z", "family", "capacity"), rows_b)
    return [path_a, path_b]


def _preset_fig10(out_dir: Path):
    grid = [(z, n) for z in (5.0, 7.0, 9.0) for n in DOF_GRID]

    def one(item):
        z, n = item
        scenario = _mirrored_scenario(fixed_area_square(n, 10.0), z)
        return (z, n, channel_dof(assemble_channel(scenario).stacked()))

    rows = parallel_map(one, grid)
    cfg = "preset=fig10 wavelength=1 area=100 shape=square z=5|7|9 dof=channel-gram rx=mirrored"
    return [write_csv(out_dir / "fig10_dof_vs_antennas.csv", cfg, ("z", "n_tx", "dof"), rows)]


def _preset_fig11(out_dir: Path):
    grid = []
    for n in SHAPE_GRID:
        for shape, spec in sorted(shape_surfaces(n).items()):
            grid.append((shape, n, spec))

    def one(item):
        shape, n, spec = item
        scenario = _mirrored_scenario(spec, 5.0)
        return (shape, n, channel_dof(assemble_channel(scenario).stacked()))

    rows = parallel_map(one, grid)
    cfg = "preset=fig11 wavelength=1 area=64 z=5 shapes=square|circle|rect16x4|rect32x2 dof=channel-gram rx=mirrored"
    return [write_csv(out_dir / "fig11_dof_vs_shape.csv", cfg, ("shape", "n_tx", "dof"), rows)]


def _se_preset(out_dir: Path, name: str, scenario: Scenario):
    snrs = [float(s) for s in range(-10, 22, 2)]
    rows = se_sweep(scenario, SCHEMES, PA_NAMES, snrs)
    cfg = (
        f"preset={name} wavelength=1 ns=225 k={scenario.n_users} "
        f"nr_bar={scenario.users[0].surface.count} snr=-10:2:20 headroom={GAIN_HEADROOM:g}"
    )
    return [write_csv(out_dir / f"{name}_spectral_efficiency.csv", cfg,
                      ("scheme", "pa", "snr_db", "spectral_efficiency"), rows)]


PRESETS = {
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": lambda out: _eigen_preset(out, "fig7", 1.0),
    "fig8": lambda out: _eigen_preset(out, "fig8", 3.0),
    "fig9": _preset_fig9,
    "fig10": _preset_fig10,
    "fig11": _preset_fig11,
    "fig12": lambda out: _se_preset(out, "fig12", fig12_scenario()),
    "fig13": lambda out: _se_preset(out, "fig13", fig13_scenario()),
}


def figure_preset(name: str, out_dir) -> list[Path]:
    """Write the CSV artifacts for one named figure preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})")
    return PRESETS[name](Path(out_dir))
