"""Command-line experiment runner.

Subcommands expose each pipeline stage on a scenario file, plus the figure
presets.  Exit codes: 0 success, 2 configuration/parse errors, 3 degenerate
precoding scenarios and other numerical failures.  Output CSVs are
deterministic; HMIMOS_THREADS caps the sweep parallelism without changing
results.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import load_scenario
from .csvio import write_csv
from .errors import CapacityExceededError, ConfigError, GeometryError, PrecoderDegeneracyError
from .experiments import (
    PA_NAMES,
    PRESETS,
    SCHEMES,
    capacity_rows,
    channel_rows,
    correlation_rows,
    dof_rows,
    figure_preset,
    se_sweep,
)
from .numerics import DEFAULT_TOL


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

    Every number must be finite.
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
            out.append(round(v, 9))
            v += step
        if not out:
            raise ConfigError("--snr range is empty")
        return out
    out = _snr_numbers(text, [p for p in text.split(",") if p.strip()])
    if not out:
        raise ConfigError("--snr range is empty")
    return out


def _csv_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmimos",
        description="Near-field tri-polarized holographic MIMO surface simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_required=True):
        p.add_argument("--scenario", type=Path, required=scenario_required,
                       help="scenario file (key = value lines)")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="rank tolerance")

    add_common(sub.add_parser("channel", help="export the polarized channel matrix"))
    add_common(sub.add_parser("correlation", help="transmit correlation per user and polarization"))
    add_common(sub.add_parser("dof", help="channel diversity gain per user"))

    p_cap = sub.add_parser("capacity", help="tri-/dual-/single-polarized capacity sweep")
    add_common(p_cap)
    p_cap.add_argument("--snr", type=str, default="-10:2:20", help="start:step:stop in dB")

    p_sweep = sub.add_parser("precode-sweep", help="spectral efficiency over scheme x PA x SNR")
    add_common(p_sweep)
    p_sweep.add_argument("--snr", type=str, default="-10:2:20", help="start:step:stop in dB")
    p_sweep.add_argument("--schemes", type=str, default=",".join(SCHEMES),
                         help="comma list from: " + ",".join(SCHEMES))
    p_sweep.add_argument("--pa", type=str, default=",".join(PA_NAMES),
                         help="comma list from: " + ",".join(PA_NAMES))

    p_preset = sub.add_parser("preset", help="emit the data behind one figure")
    p_preset.add_argument("--preset", type=str, required=True,
                          help="one of: " + ", ".join(sorted(PRESETS)))
    p_preset.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def _scenario_config(path: Path) -> str:
    kv = " ".join(
        line.strip() for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )
    return f"scenario={path.name} {kv}"


def run(args) -> list[Path]:
    if args.command == "preset":
        return figure_preset(args.preset, args.out)

    scenario = load_scenario(args.scenario)
    cfg = _scenario_config(args.scenario)
    out = Path(args.out)

    if args.command == "channel":
        rows = channel_rows(scenario)
        return [write_csv(out / "channel.csv", cfg,
                          ("rx_pol", "tx_pol", "user", "rx_patch", "tx_patch", "re", "im"), rows)]
    if args.command == "correlation":
        rows = correlation_rows(scenario)
        return [write_csv(out / "correlation.csv", cfg,
                          ("user", "pol", "n", "l", "raw", "normalized"), rows)]
    if args.command == "dof":
        rows = dof_rows(scenario)
        return [write_csv(out / "dof.csv", cfg, ("user", "z", "dof"), rows)]
    if args.command == "capacity":
        snrs = parse_snr_range(args.snr)
        rows = capacity_rows(scenario, snrs)
        return [write_csv(out / "capacity.csv", f"{cfg} snr={args.snr}",
                          ("snr_db", "family", "capacity"), rows)]
    if args.command == "precode-sweep":
        snrs = parse_snr_range(args.snr)
        schemes = _csv_list(args.schemes)
        pas = _csv_list(args.pa)
        rows = se_sweep(scenario, schemes, pas, snrs, args.tol)
        return [write_csv(out / "precode_sweep.csv",
                          f"{cfg} snr={args.snr} schemes={args.schemes} pa={args.pa}",
                          ("scheme", "pa", "snr_db", "spectral_efficiency"), rows)]
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
    except (ConfigError, GeometryError, FileNotFoundError) as exc:
        print(f"hmimos: configuration error: {exc}", file=sys.stderr)
        return 2
    except (PrecoderDegeneracyError, CapacityExceededError) as exc:
        print(f"hmimos: precoding failed: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"hmimos: numerical failure: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
