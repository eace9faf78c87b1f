"""Layer spans recorded from outside the program.

Each probe replaces one public hmimos function in the module namespace where
its caller looks it up (``hmimos.precoding.svd_partition`` is what
``bd_precoder`` calls, ``hmimos.cli.write_csv`` is what the CLI calls), so
calls the program makes internally are seen without editing it.  Spans are
kept in memory as (name, start, end, parent, failed) and reduced to per-layer
numbers when a traced pass has ended.  A probe whose target no longer exists
is skipped and reported, and its layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = "op"

# Layers in the order they are reported; each gets .calls, .self_s, .errors.
LAYERS = (
    ROOT,
    "cli",
    "experiments",
    "config",
    "channel",
    "geometry",
    "correlation",
    "precoding.two_layer",
    "precoding.first_layer",
    "precoding.bd",
    "numerics.svd",
    "power",
    "metrics.se",
    "metrics.dof",
    "metrics.capacity",
    "csvio.write",
)

COUNTERS = (
    "numerics.svd.v_bytes",
    "numerics.svd.thin_ratio",
    "precoding.first_layer.null_dim",
    "precoding.bd.groups",
    "channel.pair_blocks",
    "metrics.dof.gram_bytes",
    "correlation.entries",
    "csvio.rows",
    "csvio.bytes",
)

OVERHEAD = "trace.overhead_s"

COMPLEX_BYTES = 16


def _svd_counts(args, kwargs, result):
    m, n = np.shape(args[0])
    # Full V is n x n; the thin factor the callers could get by with is min(m, n) x n.
    return {
        "numerics.svd.v_bytes": COMPLEX_BYTES * n * n,
        "numerics.svd.thin_elems": min(m, n) * n,
        "numerics.svd.full_elems": n * n,
    }


def _null_dim(args, kwargs, result):
    return {"precoding.first_layer.null_dim": np.shape(result[0])[1]}


def _groups(args, kwargs, result):
    return {"precoding.bd.groups": len(args[0])}


def _pair_blocks(args, kwargs, result):
    return {"channel.pair_blocks": result.n_rx * result.n_tx}


def _gram_bytes(args, kwargs, result):
    m, n = np.shape(args[0])
    return {"metrics.dof.gram_bytes": COMPLEX_BYTES * min(m, n) ** 2}


def _entries(args, kwargs, result):
    return {"correlation.entries": result.raw.size}


def _csv_counts(args, kwargs, result):
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    return {"csvio.rows": len(rows), "csvio.bytes": Path(result).stat().st_size}


# (module, attribute, layer, counter function)
PROBES = (
    ("hmimos.cli", "main", "cli", None),
    ("hmimos.cli", "load_scenario", "config", None),
    ("hmimos.cli", "write_csv", "csvio.write", _csv_counts),
    ("hmimos.cli", "channel_rows", "experiments", None),
    ("hmimos.cli", "correlation_rows", "experiments", None),
    ("hmimos.cli", "dof_rows", "experiments", None),
    ("hmimos.cli", "capacity_rows", "experiments", None),
    ("hmimos.cli", "se_sweep", "experiments", None),
    ("hmimos.experiments", "se_sweep", "experiments", None),
    ("hmimos.experiments", "assemble_channel", "channel", _pair_blocks),
    ("hmimos.channel", "assemble_channel", "channel", _pair_blocks),
    ("hmimos.channel", "patch_centers", "geometry", None),
    ("hmimos.correlation", "patch_centers", "geometry", None),
    ("hmimos.experiments", "transmit_correlation", "correlation", _entries),
    ("hmimos.experiments", "two_layer_precoder", "precoding.two_layer", None),
    ("hmimos.precoding", "gaussian_elim_precoder", "precoding.first_layer", _null_dim),
    ("hmimos.precoding", "bd_precoder", "precoding.bd", _groups),
    ("hmimos.precoding", "svd_partition", "numerics.svd", _svd_counts),
    ("hmimos.experiments", "pa1_select", "power", None),
    ("hmimos.experiments", "pa2_equal", "power", None),
    ("hmimos.experiments", "pa3_two_layer", "power", None),
    ("hmimos.experiments", "total_spectral_efficiency", "metrics.se", None),
    ("hmimos.experiments", "cluster_spectral_efficiency", "metrics.se", None),
    ("hmimos.experiments", "channel_dof", "metrics.dof", _gram_bytes),
    ("hmimos.metrics", "channel_dof", "metrics.dof", _gram_bytes),
    ("hmimos.metrics", "capacity", "metrics.capacity", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, failed]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        return idx

    def _close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = failed
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self._close(idx, failed=True)
            raise
        self._close(idx)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, failed=True)
                raise
            self._close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


@contextmanager
def installed(tracer: Tracer):
    """Patch every probe for the duration of the block; yields the missing ones."""
    saved = []
    missing = []
    try:
        for module_name, attr, layer, counter in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, layer, counter))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, failed in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, failed) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out.append((end - start) - _covered(inner))
    return out


def layer_summary(spans, counts) -> dict[str, float]:
    """Per-layer calls, self time and errors of one pass, plus its counters."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for span, own in zip(spans, self_times(spans)):
        name, failed = span[0], span[4]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.errors"] = out.get(f"{name}.errors", 0) + int(failed)
    for key in COUNTERS:
        out[key] = counts.get(key, 0)
    full = counts.get("numerics.svd.full_elems", 0)
    out["numerics.svd.thin_ratio"] = counts.get("numerics.svd.thin_elems", 0) / full if full else 0.0
    return out


def median_summary(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median (the lower one for an even count, so counts stay whole) of every
    per-pass layer number over the traced passes."""
    return {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "errors")]
    return names + list(COUNTERS) + [OVERHEAD]


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
