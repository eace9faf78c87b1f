"""Patch-antenna surface geometry and near-field feasibility checks.

Surfaces are planar grids of rectangular patches.  Receive surfaces sit
parallel to the transmit surface at an offset along +z, laterally centered
unless the scenario says otherwise.  All lengths are in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

LAYOUTS = ("square", "rectangle", "circle")


def _require_finite(**fields) -> None:
    """Refuse NaN and infinities, naming the field; the range checks miss them."""
    for name, value in fields.items():
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise GeometryError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SurfaceSpec:
    """Geometry of one holographic surface (a grid of patch antennas)."""

    layout: str
    dx: float
    dy: float
    nx: int = 0
    ny: int = 0
    n_total: int = 0  # circle layouts only
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    role: str = "transmit"

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise GeometryError(f"unknown layout {self.layout!r}")
        _require_finite(dx=self.dx, dy=self.dy, center=self.center)
        if self.dx <= 0 or self.dy <= 0:
            raise GeometryError("patch spacing must be positive")
        if self.layout == "circle":
            if self.n_total < 1:
                raise GeometryError("circle layout needs n_total >= 1")
        else:
            if self.nx < 1 or self.ny < 1:
                raise GeometryError("grid layout needs nx, ny >= 1")
            if self.layout == "square" and self.nx != self.ny:
                raise GeometryError("square layout requires nx == ny")

    @property
    def count(self) -> int:
        return self.n_total if self.layout == "circle" else self.nx * self.ny

    @classmethod
    def grid(cls, nx, ny, dx, dy=None, center=(0.0, 0.0, 0.0), role="transmit"):
        dy = dx if dy is None else dy
        layout = "square" if nx == ny else "rectangle"
        return cls(layout=layout, dx=dx, dy=dy, nx=nx, ny=ny, center=tuple(center), role=role)

    @classmethod
    def circle(cls, n_total, dx, dy=None, center=(0.0, 0.0, 0.0), role="transmit"):
        dy = dx if dy is None else dy
        return cls(layout="circle", dx=dx, dy=dy, n_total=n_total, center=tuple(center), role=role)


@dataclass(frozen=True)
class UserPlacement:
    """One receive surface at axial distance ``distance`` from the transmitter."""

    surface: SurfaceSpec
    distance: float

    def __post_init__(self):
        _require_finite(distance=self.distance)
        if self.distance <= 0:
            raise GeometryError("user distance must be positive")


@dataclass(frozen=True)
class Scenario:
    """Full link description: transmit surface, users and power budget."""

    wavelength: float
    transmit: SurfaceSpec
    users: tuple[UserPlacement, ...]
    total_power: float = 1.0

    def __post_init__(self):
        _require_finite(wavelength=self.wavelength, total_power=self.total_power)
        if self.wavelength <= 0:
            raise GeometryError("wavelength must be positive")
        if not self.users:
            raise GeometryError("scenario needs at least one user")
        if self.total_power <= 0:
            raise GeometryError("total power must be positive")
        object.__setattr__(self, "users", tuple(self.users))
        # The channel reads each user's height from its surface, the clustering
        # and the correlation read ``distance``: the two must agree.
        for k, user in enumerate(self.users, start=1):
            height = user.surface.center[2] - self.transmit.center[2]
            if abs(user.distance - height) > 1e-12 * user.distance:
                raise GeometryError(
                    f"user {k}: distance {user.distance!r} differs from its surface's "
                    f"height {height!r} above the transmitter"
                )

    @property
    def k0(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def n_users(self) -> int:
        return len(self.users)


def patch_indices(spec: SurfaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Integer grid indices (ix, iy) of each patch, in ``patch_centers`` order.

    Patch n sits at (ix[n] * dx, iy[n] * dy) plus one offset shared by every
    patch, so two patches are (ix[n] - ix[m], iy[n] - iy[m]) steps apart.
    Grids count from 0; a circle counts from the center of its bounding grid.
    """
    if spec.layout in ("square", "rectangle"):
        iy, ix = np.divmod(np.arange(spec.count), spec.nx)
        return ix, iy

    # circle: scan a bounding grid large enough to host n_total points
    n = spec.n_total
    half = int(math.ceil(math.sqrt(n))) + 2
    idx = np.arange(-half, half + 1)
    gx, gy = np.meshgrid(idx * spec.dx, idx * spec.dy, indexing="xy")
    x = gx.ravel()
    y = gy.ravel()
    d2 = x * x + y * y
    if d2.size < n:
        raise GeometryError(f"circle layout cannot host {n} patches at this spacing")
    keep = np.lexsort((y, x, d2))[:n]
    return idx[keep % idx.size], idx[keep // idx.size]


def patch_centers(spec: SurfaceSpec) -> np.ndarray:
    """Patch-center coordinates, shape (count, 3).

    Grid layouts are centered on ``spec.center`` with x varying fastest
    (index n = iy * nx + ix).  The circle layout keeps the ``n_total`` grid
    points closest to the center of a spacing-preserving grid, ties broken by
    (x, y) so the result is deterministic.
    """
    cx, cy, cz = spec.center
    if spec.layout in ("square", "rectangle"):
        xs = (np.arange(spec.nx) - (spec.nx - 1) / 2.0) * spec.dx + cx
        ys = (np.arange(spec.ny) - (spec.ny - 1) / 2.0) * spec.dy + cy
        gx, gy = np.meshgrid(xs, ys, indexing="xy")
        pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, cz)])
        return pts

    ix, iy = patch_indices(spec)
    return np.column_stack([ix * spec.dx + cx, iy * spec.dy + cy, np.full(ix.size, cz)])


@dataclass(frozen=True)
class UserFieldReport:
    distance: float
    nf_bound: float
    in_near_field: bool
    patch_limit: float
    patch_ok: bool


@dataclass(frozen=True)
class NearFieldReport:
    nf_bound: float
    patch_limit: float
    patch_ok: bool
    users: tuple[UserFieldReport, ...] = field(default_factory=tuple)

    @property
    def in_near_field(self) -> tuple[bool, ...]:
        return tuple(u.in_near_field for u in self.users)


def validate_near_field(scenario: Scenario, margin: float = 10.0) -> NearFieldReport:
    """Report-only check of the near-field region and patch-size limits.

    The near-field radius for a square-grid pair is
    ``[4 Ns dxs^2 + 4 Nr dxr^2 + 8 sqrt(Ns Nr) dxs dxr] / lambda``; a user is
    flagged near-field when its distance is within that radius.  The patch
    size must stay well below ``2 sqrt(lambda z)``; "well below" is read as a
    factor of ``margin`` (default 10, configurable).
    """
    lam = scenario.wavelength
    dxs = scenario.transmit.dx
    ns = scenario.transmit.count
    reports = []
    for user in scenario.users:
        nr = user.surface.count
        dxr = user.surface.dx
        bound = (4 * ns * dxs**2 + 4 * nr * dxr**2 + 8 * math.sqrt(ns * nr) * dxs * dxr) / lam
        limit = 2.0 * math.sqrt(lam * user.distance) / margin
        reports.append(
            UserFieldReport(
                distance=user.distance,
                nf_bound=bound,
                in_near_field=user.distance <= bound,
                patch_limit=limit,
                patch_ok=dxs <= limit,
            )
        )
    return NearFieldReport(
        nf_bound=max(r.nf_bound for r in reports),
        patch_limit=min(r.patch_limit for r in reports),
        patch_ok=all(r.patch_ok for r in reports),
        users=tuple(reports),
    )
