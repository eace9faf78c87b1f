"""Patch-antenna surface geometry.

Surfaces are planar grids of rectangular patches.  Receive surfaces sit
parallel to the transmit surface at an offset along +z, laterally centered
unless the scenario says otherwise.  All lengths are in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

LAYOUTS = ("square", "rectangle", "circle")
# Patches per surface: up to 10^8 the largest array of a surface pair, the
# 3 N_r x 3 N_s complex channel (1.4e18 bytes), stays below numpy's 2^63-byte
# limit, so a run too large fails with MemoryError rather than a ValueError.
MAX_PATCHES = 10**8


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
        if self.count > MAX_PATCHES:
            name = "n_total" if self.layout == "circle" else "nx * ny"
            raise GeometryError(f"{name} must be at most {MAX_PATCHES}, got {self.count}")

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
    """Full link description: wavelength, transmit surface and users."""

    wavelength: float
    transmit: SurfaceSpec
    users: tuple[UserPlacement, ...]

    def __post_init__(self):
        _require_finite(wavelength=self.wavelength)
        if self.wavelength <= 0:
            raise GeometryError("wavelength must be positive")
        if not self.users:
            raise GeometryError("scenario needs at least one user")
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

    # circle: scan a bounding grid, whose (2*half + 1)**2 points always outnumber n_total
    n = spec.n_total
    half = int(math.ceil(math.sqrt(n))) + 2
    idx = np.arange(-half, half + 1)
    gx, gy = np.meshgrid(idx * spec.dx, idx * spec.dy, indexing="xy")
    x = gx.ravel()
    y = gy.ravel()
    d2 = x * x + y * y
    keep = np.lexsort((y, x, d2))[:n]
    return idx[keep % idx.size], idx[keep // idx.size]


def patch_centers(spec: SurfaceSpec) -> np.ndarray:
    """Patch-center coordinates, shape (count, 3).

    Grid layouts are centered on ``spec.center`` with x varying fastest
    (index n = iy * nx + ix).  The circle layout keeps the ``n_total`` grid
    points closest to the center of a spacing-preserving grid, ties broken by
    (x, y) so the result is deterministic.
    """
    ix, iy = patch_indices(spec)
    # Grid indices count from a corner, circle indices from the center.
    if spec.layout == "circle":
        ox, oy = 0.0, 0.0
    else:
        ox, oy = (spec.nx - 1) / 2.0, (spec.ny - 1) / 2.0
    cx, cy, cz = spec.center
    return np.column_stack(
        [(ix - ox) * spec.dx + cx, (iy - oy) * spec.dy + cy, np.full(ix.size, cz)]
    )
