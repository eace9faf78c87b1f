"""Command-line experiment runner.

Subcommands expose each pipeline stage on a scenario file, plus the figure
presets.  Exit codes: 0 success, 2 configuration/parse errors, 3 degenerate
precoding scenarios, other numerical failures and running out of memory.
Output CSVs are deterministic: reruns at one BLAS thread count
(``OPENBLAS_NUM_THREADS``) write the same bytes.  Every pipeline runs on one
Python thread; BLAS threads are its only parallelism.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import load_scenario
from .csvio import write_csv
from .errors import CapacityExceededError, ConfigError, GeometryError, PrecoderDegeneracyError
from .experiments import (
    CAPACITY_COLUMNS,
    CORRELATION_COLUMNS,
    PA_NAMES,
    PRESETS,
    SCHEMES,
    SE_COLUMNS,
    capacity_rows,
    channel_rows,
    correlation_rows,
    dof_rows,
    figure_preset,
    se_sweep,
)
from .numerics import DEFAULT_TOL

MAX_SNR_POINTS = 10_000
# |SNR| in dB: 10^(300/10) = 1e30 keeps the linear SNR and the noise power far
# from float overflow and underflow.
MAX_ABS_SNR_DB = 300.0


def _snr_numbers(text: str, parts) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--snr expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--snr expects finite numbers, got {text!r}")
    return values


def parse_snr_range(text: str) -> list[float]:
    """Parse 'start:step:stop' (dB) into a grid, or a comma list of values.

    Every number must be finite, a grid has at most MAX_SNR_POINTS points,
    and every SNR value lies within +-MAX_ABS_SNR_DB.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--snr expects start:step:stop, got {text!r}")
        start, step, stop = _snr_numbers(text, parts)
        if step <= 0:
            raise ConfigError("--snr step must be positive")
        out = []
        v = start
        while v <= stop + 1e-9:
            # Counted here: a step below the float resolution of v never advances v.
            if len(out) == MAX_SNR_POINTS:
                raise ConfigError(f"--snr grid has more than {MAX_SNR_POINTS} points, got {text!r}")
            out.append(round(v, 9))
            v += step
    else:
        out = _snr_numbers(text, [p for p in text.split(",") if p.strip()])
    if not out:
        raise ConfigError("--snr range is empty")
    if any(abs(v) > MAX_ABS_SNR_DB for v in out):
        raise ConfigError(
            f"--snr values must lie in [-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}] dB, got {text!r}"
        )
    return out


def _tolerance(text: str) -> float:
    """Type of ``--tol``: a finite number with 0 <= tol < 1."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"expected a number with 0 <= tol < 1, got {text!r}")
    return tol


def _csv_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hmimos`` parser, built once per process: ``parse_args`` keeps
    nothing from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="hmimos",
        description="Near-field tri-polarized holographic MIMO surface simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", type=Path, required=True,
                       help="scenario file (key = value lines)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    add_common(sub.add_parser("channel", help="export the polarized channel matrix"))
    add_common(sub.add_parser("correlation", help="transmit correlation per user and polarization"))
    add_common(sub.add_parser("dof", help="channel diversity gain per user"))

    p_cap = sub.add_parser("capacity", help="tri-/dual-/single-polarized capacity sweep")
    add_common(p_cap)
    p_cap.add_argument("--snr", type=str, default="-10:2:20", help="start:step:stop in dB")

    p_sweep = sub.add_parser("precode-sweep", help="spectral efficiency over scheme x PA x SNR")
    add_common(p_sweep)
    p_sweep.add_argument("--snr", type=str, default="-10:2:20", help="start:step:stop in dB")
    p_sweep.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                         help="rank tolerance, 0 <= tol < 1")
    p_sweep.add_argument("--schemes", type=str, default=",".join(SCHEMES),
                         help="comma list from: " + ",".join(SCHEMES))
    p_sweep.add_argument("--pa", type=str, default=",".join(PA_NAMES),
                         help="comma list from: " + ",".join(PA_NAMES))

    p_preset = sub.add_parser("preset", help="emit the data behind one figure")
    p_preset.add_argument("--preset", type=str, required=True,
                          help="one of: " + ", ".join(sorted(PRESETS)))
    p_preset.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def _scenario_config(path: Path, text: str) -> str:
    """The CSV comment line: the scenario's file name and its non-comment lines."""
    kv = " ".join(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
    return f"scenario={path.name} {kv}"


def run(args) -> list[Path]:
    if args.command == "preset":
        return figure_preset(args.preset, args.out)

    # One read: the scenario and the CSV comment line describe the same text.
    try:
        text = args.scenario.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # reported as a file error, exit 2
        raise OSError(f"'{args.scenario}' is not UTF-8 text: {exc}") from None
    scenario = load_scenario(args.scenario, text)
    cfg = _scenario_config(args.scenario, text)
    out = Path(args.out)

    if args.command == "channel":
        rows = channel_rows(scenario)
        return [write_csv(out / "channel.csv", cfg,
                          ("rx_pol", "tx_pol", "user", "rx_patch", "tx_patch", "re", "im"), rows)]
    if args.command == "correlation":
        rows = correlation_rows(scenario)
        return [write_csv(out / "correlation.csv", cfg, ("user",) + CORRELATION_COLUMNS, rows)]
    if args.command == "dof":
        rows = dof_rows(scenario)
        return [write_csv(out / "dof.csv", cfg, ("user", "z", "dof"), rows)]
    if args.command == "capacity":
        snrs = parse_snr_range(args.snr)
        rows = capacity_rows(scenario, snrs)
        return [write_csv(out / "capacity.csv", f"{cfg} snr={args.snr}", CAPACITY_COLUMNS, rows)]
    if args.command == "precode-sweep":
        snrs = parse_snr_range(args.snr)
        schemes = _csv_list(args.schemes)
        pas = _csv_list(args.pa)
        rows = se_sweep(scenario, schemes, pas, snrs, args.tol)
        return [write_csv(out / "precode_sweep.csv",
                          f"{cfg} snr={args.snr} schemes={args.schemes} pa={args.pa}",
                          SE_COLUMNS, rows)]
    raise ConfigError(f"unknown command {args.command!r}")


def _join_snr_values(argv):
    """Merge '--snr -10:2:20' into '--snr=-10:2:20' so argparse accepts the
    leading minus sign."""
    out = []
    it = iter(argv)
    for token in it:
        if token == "--snr":
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--snr={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_snr_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        paths = run(args)
    except (ConfigError, GeometryError) as exc:
        print(f"hmimos: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # reading --scenario or writing under --out
        print(f"hmimos: file error: {exc}", file=sys.stderr)
        return 2
    except (PrecoderDegeneracyError, CapacityExceededError) as exc:
        print(f"hmimos: precoding failed: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"hmimos: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"hmimos: out of memory: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
