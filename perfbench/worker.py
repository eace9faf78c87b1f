"""One workload process of the benchmark.

Started by ``run.py`` with the BLAS and ``HMIMOS_THREADS`` settings already in
its environment, so they hold before numpy is imported.  It builds the
workload's inputs from the seed, warms up, and then either stops (a set-up
probe) or runs timed passes in a closed loop: one caller, each op starting
when the previous one ends.  Outputs are digested between ops and checked
after the last pass; neither is timed.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# Every measurement runs at least this many whole passes, so the op mix of
# a run, and with it the tail percentile, does not depend on timing noise.
MIN_PASSES = 3
TAIL_ABOVE = 10
MAX_PROBLEMS = 5


@dataclass
class Pass:
    """Op times, digests, outputs and raised errors of one pass."""

    times: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(wl, tracer=None) -> Pass:
    """Run every op once; only the op call itself is inside the timer."""
    out_pass = Pass()
    for op in wl.ops:
        error = None
        out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(op)
            else:
                with tracer.span("op"):
                    out = wl.run(op)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        out_pass.times.append(t1 - t0)
        out_pass.errors.append(error)
        out_pass.outputs.append(out)
        out_pass.digests.append(None if error else wl.digest(op, out))
    return out_pass


def run_passes(wl, seconds: float, min_passes: int = MIN_PASSES) -> list[Pass]:
    """Whole passes until both ``min_passes`` and ``seconds`` are reached."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl))
    return passes


def tail_percentile(ref_samples: int) -> float:
    """Highest percentile with at least TAIL_ABOVE samples above it, at
    ``ref_samples`` samples (nearest-rank definition)."""
    if ref_samples <= TAIL_ABOVE:
        return 100.0
    return 100.0 * (ref_samples - TAIL_ABOVE) / ref_samples


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def judge(wl, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all passes.

    An op execution fails if it raised, if its output digest differs from
    the op's output in the last pass, or if the last output fails the
    workload's correctness gate.
    """
    last = passes[-1]
    problems: list[str] = []
    gate_failed = []
    for i, op in enumerate(wl.ops):
        found = wl.check(op, last.outputs[i]) if last.errors[i] is None else []
        gate_failed.append(bool(found))
        problems += [f"{op.label}: {msg}" for msg in found]
    attempted = failed = 0
    for p in passes:
        for i, op in enumerate(wl.ops):
            attempted += 1
            if p.errors[i] is not None:
                failed += 1
                problems.append(p.errors[i])
            elif p.digests[i] != last.digests[i]:
                failed += 1
                problems.append(f"{op.label}: output digest changed between passes")
            elif gate_failed[i]:
                failed += 1
    return attempted, failed, problems


def outputs_digest(p: Pass) -> str:
    return hashlib.sha256("".join(d or "-" for d in p.digests).encode()).hexdigest()


def op_medians(passes: list[Pass]) -> list[float]:
    """Each op's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p.times for p in passes))]


def pass_wall(passes: list[Pass]) -> float:
    """One pass built from each op's median over the passes: a burst of
    machine noise shorter than a pass then moves few ops' medians."""
    return sum(op_medians(passes))


def end_to_end(passes: list[Pass], ops_per_pass: int) -> tuple[dict, dict]:
    """wall_s, op_p50_s, op_tail_s and peak_rss_mb, plus how they were taken."""
    times = [t for p in passes for t in p.times]
    pct = tail_percentile(MIN_PASSES * ops_per_pass)
    metrics = {
        "wall_s": pass_wall(passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": nearest_rank(times, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(passes),
        "ops_per_pass": ops_per_pass,
        "op_samples": len(times),
        "tail_percentile": pct,
        "pass_walls_s": [p.wall for p in passes],
        "op_median_s": op_medians(passes),
    }
    return metrics, info


def trace_run(wl, seconds: float) -> tuple[list[Pass], dict, dict]:
    """Untraced and traced passes in turn, so that drift in machine speed
    falls on both; per-layer medians and the tracing overhead."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer = spans.Tracer()
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < 2 * seconds:
        plain.append(run_pass(wl))
        tracer.reset()
        with spans.installed(tracer) as missing:
            p = run_pass(wl, tracer)
        p.layers = spans.layer_summary(tracer.spans, tracer.counts)
        traced.append(p)
    layers = spans.median_summary([p.layers for p in traced])
    plain_wall = pass_wall(plain)
    traced_wall = pass_wall(traced)
    layers[spans.OVERHEAD] = traced_wall - plain_wall
    # Per traced pass, the layers' self times should add up to the op time.
    unattributed = max(
        abs(p.wall - sum(v for k, v in p.layers.items() if k.endswith(".self_s")))
        for p in traced
    )
    info = {
        "missing_probes": missing,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "unattributed_s": unattributed,
        "untraced_digest": outputs_digest(plain[-1]),
        "traced_digest": outputs_digest(traced[-1]),
    }
    # judge() then holds every untraced output to the last traced one.
    return plain + traced, layers, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--tmp", type=Path, required=True, help="scratch directory for outputs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hmimos

    if Path(hmimos.__file__).resolve().parent != (src / "hmimos").resolve():
        print(f"worker: hmimos imported from {hmimos.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    wl = workloads.build(args.workload, args.seed, tmp_root=args.tmp)
    try:
        for op in wl.warmup:
            wl.run(op)
        t_first = time.monotonic()
        if args.probe:
            print(json.dumps({"t_first_op": t_first}))
            return 0
        if args.trace:
            passes, metrics, info = trace_run(wl, args.seconds)
        else:
            passes = run_passes(wl, args.seconds)
            metrics, info = end_to_end(passes, len(wl.ops))
        attempted, failed, problems = judge(wl, passes)
    finally:
        wl.close()
    info["numpy"] = np.__version__
    info["blas"] = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["outputs_sha256"] = outputs_digest(passes[-1])
    info["problems"] = problems[:MAX_PROBLEMS]
    info["ops"] = [op.label for op in wl.ops]
    result = {
        "t_first_op": t_first,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
