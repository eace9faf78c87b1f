"""Scenario files: flat key/value text with dotted sections.

Example::

    # 3 users on a 15x15 transmit surface
    scenario.wavelength = 1.0
    scenario.noise_power = 1.0
    scenario.total_power = 1.0
    tx.layout = square
    tx.nx = 15
    tx.ny = 15
    tx.dx = 0.4
    tx.dy = 0.4
    rx.nx = 4          # defaults shared by every user
    rx.ny = 3
    rx.dx = 0.4
    rx.dy = 0.4
    user1.z = 1.0
    user1.cx = 1.5     # lateral offsets, default 0
    user1.cy = 0.5
    user2.z = 3.0

All lengths are in meters.  Per-user keys override the ``rx.*`` defaults.
Circle layouts take ``total`` instead of ``nx``/``ny``.  Numbers must be
finite: ``nan`` and ``inf`` are refused with a :class:`ConfigError` naming
the key.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .errors import ConfigError
from .geometry import Scenario, SurfaceSpec, UserPlacement

_KEY_RE = re.compile(r"^[a-z0-9_.]+$")


def parse_keyvalues(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _get_float(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key}")
        return default
    try:
        value = float(kv[key])
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {kv[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: expected a finite number, got {kv[key]!r}")
    return value


def _get_int(kv, key, default=None):
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key}")
        return default
    try:
        return int(kv[key])
    except ValueError:
        raise ConfigError(f"key {key}: expected an integer, got {kv[key]!r}") from None


def _surface(kv, prefix, fallback=None, center=(0.0, 0.0, 0.0), role="transmit") -> SurfaceSpec:
    def pick(field, getter, default=None):
        key = f"{prefix}.{field}"
        if key in kv:
            return getter(kv, key)
        if fallback is not None and f"{fallback}.{field}" in kv:
            return getter(kv, f"{fallback}.{field}")
        return default

    layout = pick("layout", lambda kv, k: kv[k], "rectangle")
    dx = pick("dx", _get_float)
    dy = pick("dy", _get_float, dx)
    if dx is None:
        raise ConfigError(f"missing {prefix}.dx (or {fallback}.dx)")
    if layout == "circle":
        total = pick("total", _get_int)
        if total is None:
            raise ConfigError(f"circle layout needs {prefix}.total")
        return SurfaceSpec.circle(total, dx, dy, center=center, role=role)
    nx = pick("nx", _get_int)
    ny = pick("ny", _get_int, nx)
    if nx is None:
        raise ConfigError(f"missing {prefix}.nx (or {fallback}.nx)")
    return SurfaceSpec.grid(nx, ny, dx, dy, center=center, role=role)


def scenario_from_keyvalues(kv: dict[str, str]) -> Scenario:
    wavelength = _get_float(kv, "scenario.wavelength", 1.0)
    noise = _get_float(kv, "scenario.noise_power", 1.0)
    power = _get_float(kv, "scenario.total_power", 1.0)
    tx = _surface(kv, "tx")

    user_ids = sorted(
        {int(m.group(1)) for key in kv if (m := re.match(r"^user(\d+)\.", key))}
    )
    if not user_ids:
        raise ConfigError("scenario defines no users (user1.z = ... is required)")
    if user_ids != list(range(1, len(user_ids) + 1)):
        raise ConfigError(f"user sections must be numbered 1..K, got {user_ids}")

    users = []
    for uid in user_ids:
        z = _get_float(kv, f"user{uid}.z")
        cx = _get_float(kv, f"user{uid}.cx", 0.0)
        cy = _get_float(kv, f"user{uid}.cy", 0.0)
        surf = _surface(kv, f"user{uid}", fallback="rx", center=(cx, cy, z), role="receive")
        users.append(UserPlacement(surface=surf, distance=z))

    known = {"scenario.wavelength", "scenario.noise_power", "scenario.total_power"}
    for key in kv:
        if key in known:
            continue
        head = key.split(".", 1)[0]
        if head not in ("tx", "rx") and not re.match(r"^user\d+$", head):
            raise ConfigError(f"unknown configuration key {key!r}")

    try:
        return Scenario(
            wavelength=wavelength,
            transmit=tx,
            users=tuple(users),
            noise_power=noise,
            total_power=power,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    """Parse a scenario file into a validated :class:`Scenario`."""
    text = Path(path).read_text()
    return scenario_from_keyvalues(parse_keyvalues(text))
