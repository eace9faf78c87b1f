"""Seeded inputs, timed operations, output digests and correctness gates of
the benchmark workloads.

The size mix of every pass is fixed per workload, so the cost of a pass does
not drift with the seed; the seed draws the geometry (user distances, lateral
offsets, receive pitch).  The program only ever sees the generated
``Scenario`` objects or scenario files.

The surface builders below restate the figure geometries instead of
importing the preset helpers, so that a later change to the presets cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hmimos import channel, cli, experiments, metrics, precoding
from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement

WAVELENGTH = 1.0
TX_PITCH = 0.4
RX_PITCHES = (0.3, 0.4)
USER_Z = (1.0, 6.0)
# Boresight users zero the cross-polarized blocks and make the precoder
# raise, so every lateral offset keeps at least this magnitude.
MIN_LATERAL = 0.3
MAX_LATERAL = 1.6

SCHEMES = ("two-layer", "uc")
PAS = ("pa1", "pa2", "pa3")
# SE must not fall as SNR rises where nothing interferes (two-layer) or the
# allocation does not depend on the noise (pa2).  The user-cluster scheme
# under pa1/pa3 re-allocates power as the noise falls without seeing the
# leakage it causes, and its SE can drop (about 0.5% at most on the seed code).
MONOTONE_CURVES = {("two-layer", pa) for pa in PAS} | {("uc", "pa2")}
SWEEP_SNRS = tuple(float(s) for s in range(-10, 22, 2))

# (n, K, receive grid) per op.  Block diagonalization needs
# (6K - 1) * N_r_bar < 3 n^2; every combination here keeps a margin of at
# least 90 dimensions.  Near that limit the precoder is ill-conditioned:
# 12x12 with K=6 and 4x3 grids (margin 12) leaks up to 6e-8, above the
# acceptance tolerance (see README.md, "Known finding").
#
# The mix is built so that the two order statistics the benchmark reports
# each fall in the middle of a pool of like-cost ops spread through the
# pass, and so rest on many samples across the run instead of on the
# three samples of a single op: the median op (op_p50_s) among the five
# 12x12, K=6 ops, and the tail rank (op_tail_s, 10 of 45 samples above it
# at 3 passes) among the three 15x15, K=3, 2x2 ops, below the two largest.
# The pool positions hold at any number of passes.  An 18x18, K=6 op
# (about 2.9 s) would add a third to every pass and is left out.
SWEEP_SMALL = ((10, 3, (2, 2)), (10, 3, (4, 3)), (10, 6, (2, 2)), (10, 6, (3, 2)), (12, 3, (3, 2)))
SWEEP_MEDIAN = (12, 6, (2, 2))
SWEEP_TAIL = (15, 3, (2, 2))
SWEEP_MIX = (
    SWEEP_SMALL[0], SWEEP_MEDIAN, SWEEP_TAIL,
    SWEEP_SMALL[1], SWEEP_MEDIAN, (15, 6, (3, 2)),
    SWEEP_SMALL[2], SWEEP_MEDIAN, SWEEP_TAIL,
    SWEEP_SMALL[3], SWEEP_MEDIAN, (18, 3, (2, 2)),
    SWEEP_SMALL[4], SWEEP_MEDIAN, SWEEP_TAIL,
)
SWEEP_TINY = ((4, 3, (1, 1)), (5, 3, (2, 1)))

DOF_AREA_SIDE = 10.0
DOF_SIZES = (36, 64, 100, 144, 196, 256, 300, 400, 600)
DOF_TINY_SIZES = (16, 36)
DOF_Z = (5.0, 9.0)
DOF_DISTANCES_PER_SIZE = 2
SHAPE_AREA_SIDE = 8.0
SHAPE_SIZES = (16, 64, 144, 256, 400)
SHAPE_TINY_SIZES = (16,)
DOF_SVD_CHECK_MAX_N = 144
DOF_REL_TOL = 1e-9

# Six scenario files of one cost class (11x11 transmitter, six receive
# patches per user as 3x2 or 2x3): each subcommand then forms a pool of six
# like-cost ops, and the median op (a `channel` op) and the tail rank (among
# the `correlation` ops, 10 of 90 samples above it at 3 passes) each rest
# on a pool rather than on the few samples of one op.  Single correlation
# ops vary by about 20% from pass to pass.
EXPORT_MIX = ((11, (3, 2)), (11, (2, 3))) * 3
EXPORT_TINY = ((4, (1, 1)),)
EXPORT_USERS = 3
EXPORT_CAPACITY_SNR = "-10:0.5:20"
EXPORT_CAPACITY_POINTS = 61
EXPORT_SUBCOMMANDS = ("channel", "correlation", "dof", "capacity", "precode-sweep")
EXPORT_FILES = {
    "channel": "channel.csv",
    "correlation": "correlation.csv",
    "dof": "dof.csv",
    "capacity": "capacity.csv",
    "precode-sweep": "precode_sweep.csv",
}
TEXT_COLUMNS = {"rx_pol", "tx_pol", "pol", "family", "scheme", "pa"}

# Tolerances of acceptance criteria 01 (cancellation) and 02 (BD leakage).
PHYSICS_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One timed operation: a label for the record and its inputs."""

    label: str
    scenario: Scenario
    argv: tuple[str, ...] = ()
    out_path: Path | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _lateral(rng) -> tuple[float, float]:
    mags = rng.uniform(MIN_LATERAL, MAX_LATERAL, size=2)
    signs = rng.choice((-1.0, 1.0), size=2)
    cx, cy = (mags * signs).tolist()
    return cx, cy


def multi_user_scenario(rng, n: int, k: int, grid: tuple[int, int]) -> Scenario:
    """n x n transmitter and K users with one receive grid and pitch."""
    pitch = float(rng.choice(RX_PITCHES))
    tx = SurfaceSpec.grid(n, n, TX_PITCH)
    users = []
    for _ in range(k):
        z = float(rng.uniform(*USER_Z))
        cx, cy = _lateral(rng)
        rx = SurfaceSpec.grid(grid[0], grid[1], pitch, center=(cx, cy, z), role="receive")
        users.append(UserPlacement(rx, z))
    return Scenario(wavelength=WAVELENGTH, transmit=tx, users=tuple(users))


def mirrored_scenario(tx: SurfaceSpec, z: float) -> Scenario:
    """A single receive surface that copies the transmitter at distance z."""
    rx = replace(tx, center=(0.0, 0.0, z), role="receive")
    return Scenario(wavelength=WAVELENGTH, transmit=tx, users=(UserPlacement(rx, z),))


def fixed_area_square(n: int, side: float) -> SurfaceSpec:
    """n patches on a near-square grid filling a side x side aperture (fig10)."""
    ny = max(a for a in range(1, math.isqrt(n) + 1) if n % a == 0)
    nx = n // ny
    return SurfaceSpec.grid(nx, ny, side / nx, side / ny)


def equal_area_shapes(n: int, side: float) -> dict[str, SurfaceSpec]:
    """Square, inscribed circle, 16x4 and 32x2 rectangles of equal area (fig11)."""
    shapes = {}
    root = math.isqrt(n)
    if root * root == n:
        shapes["square"] = SurfaceSpec.grid(root, root, side / root)
        shapes["circle"] = SurfaceSpec.circle(n, side / 2.0 * math.sqrt(math.pi / n))
    k4 = math.isqrt(n // 4)
    if 4 * k4 * k4 == n:
        shapes["rect16x4"] = SurfaceSpec.grid(4 * k4, k4, 2.0 * side / (4 * k4), 0.5 * side / k4)
    k16 = math.isqrt(n // 16)
    if 16 * k16 * k16 == n:
        shapes["rect32x2"] = SurfaceSpec.grid(16 * k16, k16, 4.0 * side / (16 * k16), 0.25 * side / k16)
    return shapes


def _label(scenario: Scenario, prefix: str) -> str:
    users = scenario.users
    return (
        f"{prefix} ns={scenario.transmit.count} k={len(users)} "
        f"nr_bar={users[0].surface.count}"
    )


class Sweep:
    """One op is ``se_sweep`` over both schemes x pa1-pa3 x 16 SNRs."""

    name = "sweep"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        mix = SWEEP_TINY if tiny else SWEEP_MIX
        self.ops = [
            Op(_label(s, "sweep"), s) for s in (multi_user_scenario(rng, *spec) for spec in mix)
        ]
        # The cheapest op warms BLAS and every routine a sweep uses.
        self.warmup = [self.ops[0]]

    def run(self, op: Op):
        return experiments.se_sweep(op.scenario, SCHEMES, PAS, SWEEP_SNRS)

    def digest(self, op: Op, out) -> str:
        return _sha("".join(f"{s},{p},{_fmt(snr)},{_fmt(v)}\n" for s, p, snr, v in out))

    def check(self, op: Op, out) -> list[str]:
        problems = check_sweep_rows(out)
        problems += check_precoder_physics(op.scenario)
        return problems

    def close(self):
        pass


def check_sweep_rows(rows) -> list[str]:
    """SE values are finite and nonnegative, and nondecreasing in SNR on the
    curves in MONOTONE_CURVES."""
    problems = []
    expected = len(SCHEMES) * len(PAS) * len(SWEEP_SNRS)
    if len(rows) != expected:
        problems.append(f"{len(rows)} sweep rows, expected {expected}")
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for scheme, pa, snr, value in rows:
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"{scheme}/{pa} at {snr} dB: SE {value!r}")
        curves.setdefault((scheme, pa), []).append((snr, value))
    for (scheme, pa), points in curves.items():
        if (scheme, pa) not in MONOTONE_CURVES:
            continue
        points.sort()
        for (s0, v0), (s1, v1) in zip(points, points[1:]):
            if v1 < v0:
                problems.append(f"{scheme}/{pa}: SE falls from {v0!r} at {s0} dB to {v1!r} at {s1} dB")
    return problems


def check_precoder_physics(scenario: Scenario) -> list[str]:
    """Cross-polar cancellation residual and worst BD leakage, both < 1e-10.

    Both are computed here from the channel blocks and the precoder set, so
    the gate does not lean on helpers that only the tests need.
    """
    ch = channel.assemble_channel(scenario)
    pre = precoding.two_layer_precoder(ch)
    blocks = ch.blocks
    p_stack = np.vstack(pre.first_layer)
    n_s = ch.n_tx
    num = 0.0
    for p in range(3):
        cross = sum(
            blocks[p, q] @ p_stack[q * n_s : (q + 1) * n_s] for q in range(3) if q != p
        )
        num += float(np.linalg.norm(cross)) ** 2
    h_xp_norm2 = sum(
        float(np.linalg.norm(blocks[p, q])) ** 2 for p in range(3) for q in range(3) if p != q
    )
    denom = math.sqrt(h_xp_norm2) * float(np.linalg.norm(p_stack))
    residual = math.sqrt(num) / denom if denom else 0.0

    leak = 0.0
    k = ch.n_users
    for i in range(3):
        h_p = blocks[i, i] @ pre.first_layer[i]
        for k_rx in range(k):
            h_rx = h_p[ch.user_rows(k_rx)]
            for k_tx in range(k):
                if k_tx == k_rx:
                    continue
                f_tx = pre.second_layer[i][:, pre.col_slices[i][k_tx]]
                d = float(np.linalg.norm(h_rx)) * float(np.linalg.norm(f_tx))
                if d:
                    leak = max(leak, float(np.linalg.norm(h_rx @ f_tx)) / d)
    problems = []
    if not residual < PHYSICS_TOL:
        problems.append(f"cross-polar residual {residual:.3e}")
    if not leak < PHYSICS_TOL:
        problems.append(f"BD leakage {leak:.3e}")
    return problems


class DofGrid:
    """One op is ``assemble_channel`` plus ``channel_dof`` on a mirrored pair."""

    name = "dof-grid"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.ops = []
        for n in DOF_TINY_SIZES if tiny else DOF_SIZES:
            tx = fixed_area_square(n, DOF_AREA_SIDE)
            for _ in range(DOF_DISTANCES_PER_SIZE):
                z = float(rng.uniform(*DOF_Z))
                self.ops.append(Op(f"fig10 n={n} z={z:.3f}", mirrored_scenario(tx, z)))
        for n in SHAPE_TINY_SIZES if tiny else SHAPE_SIZES:
            for shape, tx in sorted(equal_area_shapes(n, SHAPE_AREA_SIDE).items()):
                z = float(rng.uniform(*DOF_Z))
                self.ops.append(Op(f"fig11 {shape} n={n} z={z:.3f}", mirrored_scenario(tx, z)))
        self.warmup = [self.ops[len(self.ops) // 2]]

    def run(self, op: Op):
        return metrics.channel_dof(channel.assemble_channel(op.scenario).stacked())

    def digest(self, op: Op, out) -> str:
        return _sha(_fmt(out))

    def check(self, op: Op, out) -> list[str]:
        return check_dof(op.scenario, out)

    def close(self):
        pass


def check_dof(scenario: Scenario, value: float) -> list[str]:
    """1 <= dof <= min(dims); for N <= 144 it matches the SVD participation ratio."""
    n_s = scenario.transmit.count
    n_r = sum(u.surface.count for u in scenario.users)
    upper = 3 * min(n_s, n_r)
    if not (math.isfinite(value) and 1.0 <= value <= upper):
        return [f"dof {value!r} outside [1, {upper}]"]
    if n_s <= DOF_SVD_CHECK_MAX_N:
        s2 = np.linalg.svd(channel.assemble_channel(scenario).stacked(), compute_uv=False) ** 2
        ref = float(np.sum(s2)) ** 2 / float(np.sum(s2**2))
        if abs(value - ref) > DOF_REL_TOL * ref:
            return [f"dof {value!r} differs from SVD participation ratio {ref!r}"]
    return []


def scenario_file_text(scenario: Scenario) -> str:
    """A scenario file in the CLI's key = value format."""
    tx = scenario.transmit
    rx = scenario.users[0].surface
    lines = [
        f"scenario.wavelength = {_fmt(scenario.wavelength)}",
        f"tx.nx = {tx.nx}",
        f"tx.ny = {tx.ny}",
        f"tx.dx = {_fmt(tx.dx)}",
        f"tx.dy = {_fmt(tx.dy)}",
        f"rx.nx = {rx.nx}",
        f"rx.ny = {rx.ny}",
        f"rx.dx = {_fmt(rx.dx)}",
        f"rx.dy = {_fmt(rx.dy)}",
    ]
    for i, user in enumerate(scenario.users, start=1):
        cx, cy, z = user.surface.center
        lines += [f"user{i}.z = {_fmt(z)}", f"user{i}.cx = {_fmt(cx)}", f"user{i}.cy = {_fmt(cy)}"]
    return "\n".join(lines) + "\n"


class Export:
    """One op is one in-process ``hmimos`` subcommand on a scenario file."""

    name = "export"

    def __init__(self, seed: int, tiny: bool = False, tmp_root: Path | None = None):
        rng = np.random.default_rng(seed)
        if tmp_root is not None:
            tmp_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="export-", dir=tmp_root))
        self.ops = []
        self.warmup = []
        for idx, (n, grid) in enumerate(EXPORT_TINY if tiny else EXPORT_MIX, start=1):
            scenario = multi_user_scenario(rng, n, EXPORT_USERS, grid)
            ops = self._scenario_ops(f"s{idx}", scenario)
            self.ops += ops
            if idx == 1:
                self.warmup = ops

    def _scenario_ops(self, tag: str, scenario: Scenario) -> list[Op]:
        folder = self.tmp / tag
        folder.mkdir()
        path = folder / f"{tag}.cfg"
        path.write_text(scenario_file_text(scenario))
        ops = []
        for sub in EXPORT_SUBCOMMANDS:
            argv = [sub, "--scenario", str(path), "--out", str(folder)]
            if sub == "capacity":
                argv.append(f"--snr={EXPORT_CAPACITY_SNR}")
            label = f"{sub} {tag} ns={scenario.transmit.count} nr={scenario.users[0].surface.count}"
            ops.append(Op(label, scenario, tuple(argv), folder / EXPORT_FILES[sub]))
        return ops

    def run(self, op: Op):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(op.argv))

    def digest(self, op: Op, out) -> str:
        if out != 0 or not op.out_path.is_file():
            return _sha(f"exit {out}")
        h = hashlib.sha256()
        with open(op.out_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()

    def check(self, op: Op, out) -> list[str]:
        if out != 0:
            return [f"exit code {out}"]
        return check_csv(op.out_path, expected_rows(op))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def expected_rows(op: Op) -> int:
    """Data rows each subcommand writes for the op's scenario."""
    scenario = op.scenario
    n_s = scenario.transmit.count
    n_r = sum(u.surface.count for u in scenario.users)
    k = scenario.n_users
    return {
        "channel": 9 * n_r * n_s,
        "correlation": 3 * k * n_s * n_s,
        "dof": k,
        "capacity": 3 * EXPORT_CAPACITY_POINTS,
        "precode-sweep": len(SCHEMES) * len(PAS) * len(SWEEP_SNRS),
    }[op.argv[0]]


def check_csv(path: Path, rows: int) -> list[str]:
    """A '#' config line, a header, ``rows`` data rows, every number finite."""
    problems = []
    with open(path) as fh:
        if not fh.readline().startswith("#"):
            problems.append("missing configuration comment line")
        header = fh.readline().rstrip("\n").split(",")
        numeric = [i for i, col in enumerate(header) if col not in TEXT_COLUMNS]
        count = 0
        for count, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(header):
                problems.append(f"row {count}: {len(fields)} fields, header has {len(header)}")
                break
            try:
                finite = all(math.isfinite(float(fields[i])) for i in numeric)
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"row {count}: non-finite or non-numeric value in {line.strip()!r}")
                break
    if count != rows:
        problems.append(f"{path.name}: {count} rows, expected {rows}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, DofGrid, Export)}


def build(name: str, seed: int, tiny: bool = False, tmp_root: Path | None = None):
    """The named workload with inputs generated from ``seed``."""
    if name == Export.name:
        return Export(seed, tiny, tmp_root)
    return WORKLOADS[name](seed, tiny)
