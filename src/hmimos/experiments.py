"""Scenario pipelines and figure presets producing deterministic CSVs.

Spectral-efficiency sweeps take their SNR axis from the channel alone, with
a fixed 20 dB aperture-gain headroom: the channel is rescaled so that a unit
budget spread evenly over the 3 N_s transmit ports delivers, through the
co-polarized blocks H_pp, a mean received power of ``GAIN_HEADROOM`` per
receive port: scale^2 = GAIN_HEADROOM 9 N_r N_s / ||blockdiag(H_pp)||_F^2.
A point at ``snr_db`` has noise power 1 / 10^(snr_db/10).  Only orderings
and ratios between schemes are meaningful; absolute bit rates depend on
this normalization and are documented as such.

The user-cluster scheme keeps its physical cross-polarization interference:
clustering confines each user's signal to one co-polarized sub-channel but
nulls nothing, so the other polarizations' transmissions leak through the
cross-polarized blocks and cap the attainable SINR.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .channel import POLS, assemble_channel, offset_tables
from .correlation import transmit_correlation
from .csvio import BlockTable, write_csv
from .errors import ConfigError, PrecoderDegeneracyError
from .geometry import Scenario, SurfaceSpec, UserPlacement
from .metrics import capacity_families, channel_dof, eigen_spectrum, total_spectral_efficiency
from .numerics import DEFAULT_TOL
from .power import pa1_select, pa2_equal, pa3_two_layer
from .precoding import StreamLink, cluster_link, cluster_users, two_layer_precoder

GAIN_HEADROOM = 100.0
SCHEMES = ("two-layer", "uc")
PA_NAMES = ("pa1", "pa2", "pa3")


# ---------------------------------------------------------------------------
# spectral-efficiency machinery

def cluster_spectral_efficiency(link: StreamLink, watts, sigma2: float) -> float:
    """Sum rate of a stream link, of either scheme, including its leakage.

    Each stream sees its own singular value as signal; every other user's
    streams interfere through ``link.leakage``, weighted by their watts.
    """
    return total_spectral_efficiency(
        link.singulars, watts, sigma2, link.leakage @ np.concatenate(watts)
    )


def prepare_sweep(scenario: Scenario, schemes=SCHEMES, tol: float = DEFAULT_TOL) -> dict:
    """The :class:`StreamLink` of each scheme in ``schemes``, at the channel's headroom scale.

    No precoder sets the scale, so only the schemes asked for are precoded.
    Each link comes from the unscaled channel: a channel scaled by c scales
    the stream gains by c and the leakage powers by c^2.  Two-layer streams
    leak nothing.
    """
    channel = assemble_channel(scenario)
    energy = sum(float(np.vdot(h, h).real) for h in channel.blocks[range(3), range(3)])
    scale2 = GAIN_HEADROOM * 9 * channel.n_rx * channel.n_tx / energy if energy else math.inf
    if not 0.0 < scale2 < math.inf:  # the energy or the scale underflows or overflows
        raise PrecoderDegeneracyError("H", "its co-polarized energy is too weak or strong to scale")
    scale = math.sqrt(scale2)
    links = {}
    if "two-layer" in schemes:
        gains = two_layer_precoder(channel, tol).singulars
        links["two-layer"] = StreamLink(gains, np.zeros((sum(s.size for s in gains),) * 2))
    if "uc" in schemes:
        links["uc"] = cluster_link(channel, [u.distance for u in scenario.users])
    return {
        name: StreamLink(tuple(s * scale for s in link.singulars), link.leakage * scale2)
        for name, link in links.items()
    }


def scheme_spectral_efficiency(links: dict, scheme: str, pa_name: str, snr_db: float) -> float:
    """SE at ``snr_db`` of one scheme of :func:`prepare_sweep`'s ``links`` and one PA.

    The names are those :func:`se_sweep` accepts; the PA spends a unit budget.
    """
    sigma2 = 1.0 / 10 ** (snr_db / 10.0)
    link = links[scheme]
    squared = [s**2 for s in link.singulars]
    if pa_name == "pa1":
        watts = pa1_select(squared, sigma2)
    elif pa_name == "pa2":
        watts = pa2_equal([s.size for s in squared])
    elif pa_name == "pa3":
        watts = pa3_two_layer(squared, sigma2)
    else:
        raise ConfigError(f"unknown power allocation {pa_name!r}")
    return cluster_spectral_efficiency(link, watts, sigma2)


def se_sweep(scenario: Scenario, schemes, pas, snrs_db, tol: float = DEFAULT_TOL):
    """Rows (scheme, pa, snr_db, spectral_efficiency) over the sweep grid."""
    for flag, names, known, what in (
        ("--schemes", schemes, SCHEMES, "precoding scheme"),
        ("--pa", pas, PA_NAMES, "power allocation"),
    ):
        if not names:
            raise ConfigError(f"{flag} names no {what}")
        for name in names:
            if name not in known:
                raise ConfigError(f"unknown {what} {name!r}")
        if len(set(names)) < len(names):
            raise ConfigError(f"{flag} names a {what} more than once: {','.join(names)}")
    if "uc" in schemes:  # refuse a user count that cannot be clustered before precoding
        cluster_users([u.distance for u in scenario.users])
    links = prepare_sweep(scenario, schemes, tol)
    grid = [(scheme, pa, snr) for scheme in schemes for pa in pas for snr in snrs_db]
    return [(*g, scheme_spectral_efficiency(links, *g)) for g in grid]


# ---------------------------------------------------------------------------
# scenario subcommand pipelines

CO_POLS = tuple(p + p for p in POLS)
CORRELATION_COLUMNS = ("pol", "n", "l", "raw", "normalized")
CAPACITY_COLUMNS = ("snr_db", "family", "capacity")
SE_COLUMNS = ("scheme", "pa", "snr_db", "spectral_efficiency")


def channel_rows(scenario: Scenario) -> BlockTable:
    """Rows (rx_pol, tx_pol, user, rx_patch, tx_patch, re, im) of every channel entry.

    One block per (rx pol, tx pol, user) sub-matrix.  Every array column is
    coded: ``rx_patch`` and ``tx_patch`` over the patch labels of each
    user's row-major N̄_r x N_s matrix, ``re`` and ``im`` over the user's
    :func:`~hmimos.channel.offset_tables` entry, through one codes array per
    user.  The dense channel is never formed.
    """
    n_tx = scenario.transmit.count
    tx_labels = np.arange(1, n_tx + 1)
    user_codes = []
    for table, code in offset_tables(scenario):
        n_rx = code.shape[0]
        rx_codes, tx_codes = np.divmod(np.arange(code.size), n_tx)
        patches = ((np.arange(1, n_rx + 1), rx_codes), (tx_labels, tx_codes))
        user_codes.append((*patches, table, code.ravel()))

    def blocks():
        for p, rx_pol in enumerate(POLS):
            for q, tx_pol in enumerate(POLS):
                for k, (rx, tx, table, codes) in enumerate(user_codes):
                    values = table[p, q]
                    yield (rx_pol, tx_pol, k + 1, rx, tx, (values.real, codes), (values.imag, codes))

    return BlockTable(9 * sum(codes.size for *_, codes in user_codes), blocks)


def correlation_rows(scenario: Scenario) -> BlockTable:
    """Rows (user, pol, n, l, raw, normalized) of each user's co-polarized correlations.

    One block per (user, pol) matrix, computed as the table is iterated
    rather than all up front.  Every array column is coded: ``n`` and ``l``
    over the patch labels, ``raw`` and ``normalized`` over the matrix's
    per-offset values.
    """
    n = scenario.transmit.count
    labels = np.arange(1, n + 1)
    n_codes, l_codes = np.divmod(np.arange(n * n), n)

    def blocks():
        for k, user in enumerate(scenario.users):
            for pol in CO_POLS:
                try:
                    cm = transmit_correlation(scenario.transmit, user.distance, scenario.k0, pol)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(f"user {k + 1}: {exc}") from None
                codes = cm.codes.ravel()
                yield (k + 1, pol, (labels, n_codes), (labels, l_codes),
                       (cm.values, codes), (cm.values / cm.diag_value, codes))

    return BlockTable(scenario.n_users * len(CO_POLS) * n * n, blocks)


def dof_rows(scenario: Scenario):
    channel = assemble_channel(scenario)
    rows = []
    for k, user in enumerate(scenario.users):
        try:
            dof = channel_dof(channel.user_stacked(k))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"user {k + 1}: {exc}") from None
        rows.append((k + 1, user.distance, dof))
    return rows


def capacity_rows(scenario: Scenario, snrs_db):
    snrs_db = list(snrs_db)
    caps = capacity_families(assemble_channel(scenario), 10 ** (np.array(snrs_db) / 10.0))
    columns = [(fam, c.tolist()) for fam, c in caps.items()]
    return [(snr_db, fam, c[i]) for i, snr_db in enumerate(snrs_db) for fam, c in columns]


# ---------------------------------------------------------------------------
# figure presets

SNR_GRID = [float(s) for s in range(-10, 22, 2)]
DOF_GRID = (36, 64, 100, 144, 196, 256, 300, 400, 600)
SHAPE_GRID = (16, 64, 144, 256, 400)
# Lateral offsets (wavelengths) of the SE presets' users, in user order.
LATERALS = ((1.5, 0.5), (-1.2, 1.0), (0.3, -1.6), (-0.8, -1.2), (1.0, 1.4), (-1.6, 0.2))


def _facing(tx: SurfaceSpec, rx: SurfaceSpec, centers) -> Scenario:
    """``tx`` with one user shaped like ``rx`` at each (cx, cy, z) of ``centers``."""
    users = tuple(UserPlacement(replace(rx, center=c, role="receive"), c[2]) for c in centers)
    return Scenario(wavelength=1.0, transmit=tx, users=users)


def fixed_area_square(n: int, side: float) -> SurfaceSpec:
    """``n`` patches on a side x side square; nx >= ny is the factor pair closest to square."""
    ny = max(a for a in range(1, math.isqrt(n) + 1) if n % a == 0)
    nx = n // ny
    return SurfaceSpec.grid(nx, ny, side / nx, side / ny)


def shape_surfaces(n: int, area_side: float = 8.0) -> dict[str, SurfaceSpec]:
    """Equal-area shapes: square, inscribed circle, 16x4 and 32x2 rectangles."""
    shapes: dict[str, SurfaceSpec] = {}
    for aspect, name in ((1, "square"), (4, "rect16x4"), (16, "rect32x2")):
        k = math.isqrt(n // aspect)
        if aspect * k * k == n:
            stretch = math.sqrt(aspect)
            dx, dy = stretch * area_side / (aspect * k), area_side / (stretch * k)
            shapes[name] = SurfaceSpec.grid(aspect * k, k, dx, dy)
    if "square" in shapes:
        shapes["circle"] = SurfaceSpec.circle(n, area_side / 2.0 * math.sqrt(math.pi / n))
    return shapes


def _se_scenario(distances, nx: int, ny: int) -> Scenario:
    """Users at ``distances`` with nx x ny receive grids, facing a 225-patch transmitter."""
    centers = [(cx, cy, z) for (cx, cy), z in zip(LATERALS, distances)]
    return _facing(SurfaceSpec.grid(15, 15, 0.4), SurfaceSpec.grid(nx, ny, 0.4), centers)


def fig12_scenario() -> Scenario:
    """Three users on a 225-patch transmitter, distances 1, 3 and 5 wavelengths."""
    return _se_scenario((1.0, 3.0, 5.0), 4, 3)


def _fig9_scenario(z: float) -> Scenario:
    return _facing(SurfaceSpec.grid(6, 6, 0.4), SurfaceSpec.grid(3, 3, 0.4), [(0.0, 0.0, z)])


def _correlation_cut(cuts, pols):
    """First-patch correlation of a 50-patch line for each (label, spacing, z) cut and pol."""
    rows = []
    for label, spacing, z in cuts:
        for pol in pols:
            cm = transmit_correlation(SurfaceSpec.grid(50, 1, spacing), z, 2.0 * math.pi, pol)
            rows.extend(zip(repeat(label), repeat(pol), repeat(1), range(1, 51),
                            cm.raw[0].tolist(), cm.normalized[0].tolist()))
    return rows


def _eigen_rows(z: float):
    """Eigenvalues of the nine blocks of a mirrored 15x15 surface pair ``z`` apart."""
    tx = SurfaceSpec.grid(15, 15, 0.4)
    channel = assemble_channel(_facing(tx, tx, [(0.0, 0.0, z)]))
    return [
        (p, q, i + 1, float(val))
        for p in POLS
        for q in POLS
        for i, val in enumerate(eigen_spectrum(channel.block(p, q)))
    ]


def _mirrored_dof(label, spec: SurfaceSpec, z: float):
    """Row (label, patch count, DoF) of surface ``spec`` facing its mirror image ``z`` away."""
    channel = assemble_channel(_facing(spec, spec, [(0.0, 0.0, z)]))
    return (label, spec.count, channel_dof(channel.stacked()))


def _capacity_vs_distance(zs, snr_db: float):
    return [(z, fam, cap) for z in zs for _, fam, cap in capacity_rows(_fig9_scenario(z), [snr_db])]


def _eigen_file(name: str, z: float):
    return (
        f"{name}_eigenvalues.csv",
        f"preset={name} wavelength=1 ns=225 nr=225 spacing=0.4 z={z:g}",
        ("rx_pol", "tx_pol", "index", "eigenvalue"),
        lambda: _eigen_rows(z),
    )


def _se_file(name: str, scenario: Scenario):
    return (
        f"{name}_spectral_efficiency.csv",
        f"preset={name} wavelength=1 ns=225 k={scenario.n_users} "
        f"nr_bar={scenario.users[0].surface.count} snr=-10:2:20 headroom={GAIN_HEADROOM:g}",
        SE_COLUMNS,
        lambda: se_sweep(scenario, SCHEMES, PA_NAMES, SNR_GRID),
    )


# Each preset writes a list of (file name, config line, columns, rows thunk).
PRESETS = {
    "fig4": [(
        "fig4_correlation_vs_spacing.csv",
        "preset=fig4 wavelength=1 ns=50 layout=line z=0.3 spacings=0.05|0.2|0.4 pol=xx",
        ("spacing",) + CORRELATION_COLUMNS,
        lambda: _correlation_cut([(s, s, 0.3) for s in (0.05, 0.2, 0.4)], ("xx",)),
    )],
    "fig5": [(
        "fig5_correlation_vs_distance.csv",
        "preset=fig5 wavelength=1 ns=50 layout=line spacing=0.1 z=0.2|0.4|0.8 pol=xx",
        ("z",) + CORRELATION_COLUMNS,
        lambda: _correlation_cut([(z, 0.1, z) for z in (0.2, 0.4, 0.8)], ("xx",)),
    )],
    "fig6": [(
        "fig6_copolarized_correlation.csv",
        "preset=fig6 wavelength=1 ns=50 layout=line spacing=0.4 z=0.1|0.2|0.4 pols=xx|yy|zz",
        ("z",) + CORRELATION_COLUMNS,
        lambda: _correlation_cut([(z, 0.4, z) for z in (0.1, 0.2, 0.4)], CO_POLS),
    )],
    "fig7": [_eigen_file("fig7", 1.0)],
    "fig8": [_eigen_file("fig8", 3.0)],
    "fig9": [
        (
            "fig9a_capacity_vs_snr.csv",
            "preset=fig9a wavelength=1 ns=36 nr=9 spacing=0.4 z=0.5 snr=-10:2:20",
            CAPACITY_COLUMNS,
            lambda: capacity_rows(_fig9_scenario(0.5), SNR_GRID),
        ),
        (
            "fig9b_capacity_vs_distance.csv",
            "preset=fig9b wavelength=1 ns=36 nr=9 spacing=0.4 snr_db=10 z=0.5:0.5:4",
            ("z",) + CAPACITY_COLUMNS[1:],
            lambda: _capacity_vs_distance([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], 10.0),
        ),
    ],
    "fig10": [(
        "fig10_dof_vs_antennas.csv",
        "preset=fig10 wavelength=1 area=100 shape=square z=5|7|9 dof=channel-gram rx=mirrored",
        ("z", "n_tx", "dof"),
        lambda: [
            _mirrored_dof(z, fixed_area_square(n, 10.0), z)
            for z in (5.0, 7.0, 9.0)
            for n in DOF_GRID
        ],
    )],
    "fig11": [(
        "fig11_dof_vs_shape.csv",
        "preset=fig11 wavelength=1 area=64 z=5 shapes=square|circle|rect16x4|rect32x2 "
        "dof=channel-gram rx=mirrored",
        ("shape", "n_tx", "dof"),
        lambda: [
            _mirrored_dof(shape, spec, 5.0)
            for n in SHAPE_GRID
            for shape, spec in sorted(shape_surfaces(n).items())
        ],
    )],
    "fig12": [_se_file("fig12", fig12_scenario())],
    "fig13": [_se_file("fig13", _se_scenario((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 3, 2))],
}


def figure_preset(name: str, out_dir) -> list[Path]:
    """Write the CSV artifacts for one named figure preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})")
    return [
        write_csv(Path(out_dir) / file, config, columns, rows())
        for file, config, columns, rows in PRESETS[name]
    ]
