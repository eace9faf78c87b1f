"""Image-theory spatial correlation of transmit patches.

The correlation between two coplanar transmit patches is proportional to the
imaginary part of a composite Green's function: the free-space term evaluated
at the in-plane separation plus an image term evaluated at the image offset
(in-plane separation, transmit/receive distance).  Only normalized
correlations are meaningful downstream; the proportionality constants are
dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceSpec, patch_centers

FOUR_PI = 4.0 * math.pi


def im_green0_xx(d, x, k0: float):
    """Imaginary part of the x-co-polarized free-space Green's function.

    ``d`` is the point separation, ``x`` the coordinate difference along the
    polarization axis (|x| <= d).  The d -> 0 limit is k0 / (6 pi).
    Vectorized over numpy arrays.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > d + 1e-12 * np.maximum(d, 1.0)):
        raise ValueError("|x| must not exceed d")
    safe = np.where(d > 0, d, 1.0)
    kd = k0 * safe
    s, c = np.sin(kd), np.cos(kd)
    x2 = x * x
    val = (
        s / (FOUR_PI * safe)
        + c / (FOUR_PI * k0 * safe**2)
        - s / (FOUR_PI * k0**2 * safe**3)
        - x2 * s / (FOUR_PI * safe**3)
        - 3.0 * x2 * c / (FOUR_PI * k0 * safe**4)
        + 3.0 * x2 * s / (FOUR_PI * k0**2 * safe**5)
    )
    val = np.where(d > 0, val, k0 / (6.0 * math.pi))
    return float(val) if val.ndim == 0 else val


def _image_offset(x, y, z):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.sqrt(x * x + y * y + z * z)
    if np.any(r == 0):
        raise ValueError("image offset must be nonzero")
    return r


def im_green_image_xx(x, y, z, k0: float):
    """Imaginary part of the x-co-polarized image-source Green's function.

    Evaluated at the image offset r = sqrt(x^2 + y^2 + z^2) where (x, y) is
    the in-plane separation of the two patches and z the transmit/receive
    distance.  The tangential image dyad carries a minus sign, so this is the
    exact negation of the free-space closed form at the image offset.
    Vectorized over numpy arrays.
    """
    r = _image_offset(x, y, z)
    return -im_green0_xx(r, np.asarray(x, dtype=float), k0)


def _im_green_image_zz(x, y, z, k0: float):
    """zz entry of the image term: polarity flipped, coordinate slot z.

    The image dyad carries (-xx - yy + zz): the normal component keeps the
    free-space sign, and its polarization coordinate is the image height z.
    """
    r = _image_offset(x, y, z)
    return im_green0_xx(r, np.asarray(z, dtype=float), k0)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Raw correlation over transmit-patch pairs plus its diagonal."""

    raw: np.ndarray
    pol: str
    distance: float

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

    Raw entries are Im{G_free(d_nl)} + Im{G_image(x, y, z)} for the requested
    polarization; ``yy`` swaps the in-plane coordinates, ``zz`` uses a zero
    in-plane coordinate in the free-space term and the flipped-polarity image
    entry.  All diagonal entries are equal; ``normalized`` divides by them.
    """
    if distance <= 0:
        raise ValueError("transmit/receive distance must be positive")
    pts = patch_centers(spec)
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    d = np.hypot(dx, dy)
    z = np.full_like(d, distance)

    if pol == "xx":
        raw = im_green0_xx(d, dx, k0) + im_green_image_xx(dx, dy, z, k0)
    elif pol == "yy":
        raw = im_green0_xx(d, dy, k0) + im_green_image_xx(dy, dx, z, k0)
    elif pol == "zz":
        raw = im_green0_xx(d, np.zeros_like(d), k0) + _im_green_image_zz(dx, dy, z, k0)
    else:
        raise ValueError(f"unknown polarization {pol!r}")
    raw = 0.5 * (raw + raw.T)
    return CorrelationMatrix(raw=raw, pol=pol, distance=distance)
