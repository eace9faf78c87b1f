"""Scenario files: flat key/value text with dotted sections.

Example::

    # 3 users on a 15x15 transmit surface
    scenario.wavelength = 1.0
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
Surface sections (``tx``, ``rx``, ``userN``) take ``layout`` (square,
rectangle or circle; square needs nx == ny), ``nx``, ``ny``, ``dx``, ``dy``
and ``total``; ``userN`` also takes ``z``, ``cx`` and ``cy``.  Users are
numbered ``user1`` to ``userK`` without leading zeros.  Circle
layouts take ``total`` instead of ``nx``/``ny``.  There is no noise or
power key: sweeps spend a unit power budget and derive the noise power from
their SNR axis as 1 / 10^(snr_db/10).
Unknown keys, surface keys that no surface reads (``tx.nx`` under a circle
layout, ``rx.nx`` when every user sets its own), unknown layouts and
non-finite numbers (``nan``, ``inf``) are refused with a
:class:`ConfigError` naming the key, and so is a value of ``nx``, ``ny``,
``dx``, ``dy``, ``total``, ``z`` or ``wavelength`` that is not positive.
A surface of more than ``geometry.MAX_PATCHES`` (10^8) patches is refused
with a :class:`GeometryError` naming ``nx * ny`` or ``n_total``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .errors import ConfigError
from .geometry import LAYOUTS, Scenario, SurfaceSpec, UserPlacement

_KEY_RE = re.compile(r"^[a-z0-9_.]+$")
_USER_RE = re.compile(r"^user([1-9]\d*)$")  # user sections: user1..userK, no leading zeros
_SURFACE_FIELDS = ("layout", "nx", "ny", "dx", "dy", "total")
_USER_FIELDS = _SURFACE_FIELDS + ("z", "cx", "cy")


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


def _get_number(kv, key, default=None, kind=float, positive=False):
    if key not in kv:
        if default is None:
            raise ConfigError(f"missing required key {key}")
        return default
    try:
        value = kind(kv[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key}: expected {noun}, got {kv[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: expected a finite number, got {kv[key]!r}")
    if positive and value <= 0:
        noun = "integer" if kind is int else "number"
        raise ConfigError(f"key {key}: expected a positive {noun}, got {kv[key]!r}")
    return value


def _surface(
    kv, read, prefix, fallback=None, center=(0.0, 0.0, 0.0), role="transmit"
) -> SurfaceSpec:
    """The surface of section ``prefix``; adds every key it reads to the set ``read``."""

    def key_for(field):
        for head in (prefix, fallback):
            key = f"{head}.{field}"
            if head is not None and key in kv:
                read.add(key)
                return key
        return None

    def pick(field, kind=float, default=None):
        key = key_for(field)
        return default if key is None else _get_number(kv, key, kind=kind, positive=True)

    layout_key = key_for("layout")
    layout = kv[layout_key] if layout_key else "rectangle"
    if layout not in LAYOUTS:
        raise ConfigError(f"key {layout_key}: expected one of {', '.join(LAYOUTS)}, got {layout!r}")
    dx = pick("dx")
    dy = pick("dy", default=dx)
    if dx is None:
        raise ConfigError(f"missing {prefix}.dx (or {fallback}.dx)")
    if layout == "circle":
        total = pick("total", int)
        if total is None:
            raise ConfigError(f"circle layout needs {prefix}.total")
        return SurfaceSpec.circle(total, dx, dy, center=center, role=role)
    nx = pick("nx", int)
    ny = pick("ny", int, nx)
    if nx is None:
        raise ConfigError(f"missing {prefix}.nx (or {fallback}.nx)")
    if layout == "square" and nx != ny:
        raise ConfigError(f"key {layout_key}: square layout needs nx == ny, got {nx} x {ny}")
    return SurfaceSpec.grid(nx, ny, dx, dy, center=center, role=role)


def _check_keys(kv) -> None:
    for key in kv:
        if key == "scenario.wavelength":
            continue
        head, _, field = key.partition(".")
        if head in ("tx", "rx"):
            allowed = _SURFACE_FIELDS
        elif _USER_RE.match(head):
            allowed = _USER_FIELDS
        else:
            allowed = ()
        if field not in allowed:
            raise ConfigError(f"unknown configuration key {key!r}")


def scenario_from_keyvalues(kv: dict[str, str]) -> Scenario:
    _check_keys(kv)
    wavelength = _get_number(kv, "scenario.wavelength", 1.0, positive=True)
    read: set[str] = set()
    tx = _surface(kv, read, "tx")

    heads = (_USER_RE.match(key.partition(".")[0]) for key in kv)
    user_ids = sorted({int(m.group(1)) for m in heads if m})
    if not user_ids:
        raise ConfigError("scenario defines no users (user1.z = ... is required)")
    if user_ids != list(range(1, len(user_ids) + 1)):
        raise ConfigError(f"user sections must be numbered 1..K, got {user_ids}")

    users = []
    for uid in user_ids:
        z = _get_number(kv, f"user{uid}.z", positive=True)
        cx = _get_number(kv, f"user{uid}.cx", 0.0)
        cy = _get_number(kv, f"user{uid}.cy", 0.0)
        surf = _surface(kv, read, f"user{uid}", fallback="rx", center=(cx, cy, z), role="receive")
        users.append(UserPlacement(surface=surf, distance=z))
    for key in kv:
        if key.partition(".")[2] in _SURFACE_FIELDS and key not in read:
            raise ConfigError(f"key {key}: not read by the chosen layout")

    try:
        return Scenario(wavelength=wavelength, transmit=tx, users=tuple(users))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path, text: str | None = None) -> Scenario:
    """Parse a scenario file, or its already-read ``text``, into a validated :class:`Scenario`."""
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    return scenario_from_keyvalues(parse_keyvalues(text))
