"""Image-theory spatial correlation of transmit patches.

The correlation between two coplanar transmit patches is proportional to the
imaginary part of the channel's dyadic Green's function: the free-space term
evaluated at the in-plane separation plus an image term evaluated at the
image offset (in-plane separation, transmit/receive distance).  Both terms
use the radial weights of :func:`hmimos.channel.radial_coeffs`.  Only
normalized correlations are meaningful downstream; the proportionality
constants are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import radial_coeffs
from .geometry import SurfaceSpec, patch_centers

FOUR_PI = 4.0 * math.pi


def im_green0_xx(d, x, k0: float):
    """Imaginary part of the x-co-polarized free-space Green's function.

    Im{exp(i k0 d) / (4 pi d) * (c1 + c2 x^2 / d^2)} with the radial weights
    (c1, c2) of the channel kernel.  ``d`` is the point separation, ``x`` the
    coordinate difference along the polarization axis (|x| <= d).  The
    d -> 0 limit is k0 / (6 pi).  Vectorized over numpy arrays.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > d + 1e-12 * np.maximum(d, 1.0)):
        raise ValueError("|x| must not exceed d")
    safe = np.where(d > 0, d, 1.0)
    kd = k0 * safe
    c1, c2 = radial_coeffs(kd)
    c2 *= (x / safe) ** 2
    c1 += c2
    del c2  # one complex array fewer alive while the phase factor is formed
    c1 *= np.exp(1j * kd)
    val = np.where(d > 0, c1.imag / (FOUR_PI * safe), k0 / (6.0 * math.pi))
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class CorrelationMatrix:
    """Raw correlation over transmit-patch pairs plus its diagonal."""

    raw: np.ndarray

    @property
    def diag_value(self) -> float:
        return float(self.raw[0, 0])

    @property
    def normalized(self) -> np.ndarray:
        return self.raw / self.diag_value

    @property
    def size(self) -> int:
        return self.raw.shape[0]


def transmit_correlation(spec: SurfaceSpec, distance: float, k0: float, pol: str = "xx") -> CorrelationMatrix:
    """Transmit-side spatial correlation matrix for one co-polarization.

    Raw entries are Im{G_pp} at the in-plane separation d plus the image
    term sign * Im{G_pp} at the image offset r = sqrt(dx^2 + dy^2 + z^2).
    The image dyad is diag(-1, -1, +1): the tangential entries flip sign and
    read the same coordinate as their free-space term, while the normal
    entry keeps its sign and reads the image height z (its free-space
    coordinate is zero).  All diagonal entries are equal; ``normalized``
    divides by them.
    """
    if distance <= 0:
        raise ValueError("transmit/receive distance must be positive")
    pts = patch_centers(spec)
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    # (free-space coordinate, image coordinate, image sign) per co-polarization
    terms = {"xx": (dx, dx, -1.0), "yy": (dy, dy, -1.0), "zz": (0.0, distance, 1.0)}
    if pol not in terms:
        raise ValueError(f"unknown polarization {pol!r}")
    coord, image_coord, sign = terms[pol]
    raw = im_green0_xx(np.hypot(dx, dy), coord, k0)
    r = np.sqrt(dx * dx + dy * dy + distance * distance)
    raw += sign * im_green0_xx(r, image_coord, k0)
    raw = 0.5 * (raw + raw.T)
    return CorrelationMatrix(raw=raw)
