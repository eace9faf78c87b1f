"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process with OpenBLAS pinned to one thread and HMIMOS_THREADS=1.
Set-up time is the median, over several fresh processes, of the time from
starting the interpreter to the first timed op.  Stdout ends with a record
line (``{"record": ...}``) and then the result line the contract asks for:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer numbers instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TMP_DIR = ROOT / ".bench_tmp"

WORKLOADS = ("sweep", "dof-grid", "export")
BLAS_THREADS = "1"
HMIMOS_THREADS = "1"
# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROBES = 4
DEADLINE_S = 170.0

UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["HMIMOS_THREADS"] = HMIMOS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, tmp: Path, probe: bool, deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, return its JSON and its spawn time."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", str(tmp),
    ]
    if probe:
        cmd.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left before the deadline")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), spawned


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hmimos" / "__init__.py").is_file():
        return fail(f"no hmimos sources under {ROOT / 'src'}; run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, spawned = run_worker(args, tmp, probe=True, deadline=deadline)
                setups.append(probe["t_first_op"] - spawned)
        result, spawned = run_worker(args, tmp, probe=False, deadline=deadline)
        setups.append(result["t_first_op"] - spawned)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    if args.trace:
        from spans import metric_names, unit

        values = {name: {"value": metrics[name], "unit": unit(name)} for name in metric_names()}
    else:
        metrics["setup_s"] = statistics.median(setups)
        values = {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller, one process",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "HMIMOS_THREADS": HMIMOS_THREADS,
        "src_lines": src_lines(),
        "setup_samples_s": setups,
        **result["info"],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
