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
from .geometry import SurfaceSpec, patch_indices
from .geometry import patch_centers  # noqa: F401  perfbench's geometry probe patches this name

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
    """Raw correlation over transmit-patch pairs, held once per patch offset.

    ``values`` has one raw correlation per patch offset (|di|, |dj|), the
    zero offset first; ``codes`` (N x N) gives each pair's offset, so the
    matrix is ``values[codes]``.
    """

    values: np.ndarray
    codes: np.ndarray

    @property
    def raw(self) -> np.ndarray:
        return self.values[self.codes]

    @property
    def diag_value(self) -> float:
        return float(self.values[0])

    @property
    def normalized(self) -> np.ndarray:
        return self.raw / self.diag_value


def transmit_correlation(spec: SurfaceSpec, distance: float, k0: float, pol: str = "xx") -> CorrelationMatrix:
    """Transmit-side spatial correlation matrix for one co-polarization.

    Raw entries are Im{G_pp} at the in-plane separation d plus the image
    term sign * Im{G_pp} at the image offset r = sqrt(dx^2 + dy^2 + z^2).
    The image dyad is diag(-1, -1, +1): the tangential entries flip sign and
    read the same coordinate as their free-space term, while the normal
    entry keeps its sign and reads the image height z (its free-space
    coordinate is zero).  All diagonal entries are equal; ``normalized``
    divides by them.

    An entry depends only on the patches' grid offset (|di|, |dj|), so the
    kernel runs once per offset and equal offsets give bit-equal entries.
    A table that is not finite, or whose diagonal is 0, raises
    ``np.linalg.LinAlgError``.
    """
    if distance <= 0:
        raise ValueError("transmit/receive distance must be positive")
    ix, iy = patch_indices(spec)
    dx = np.arange(np.ptp(ix) + 1) * spec.dx
    dy = np.arange(np.ptp(iy) + 1)[:, None] * spec.dy
    # (free-space coordinate, image coordinate, image sign) per co-polarization
    terms = {"xx": (dx, dx, -1.0), "yy": (dy, dy, -1.0), "zz": (0.0, distance, 1.0)}
    if pol not in terms:
        raise ValueError(f"unknown polarization {pol!r}")
    coord, image_coord, sign = terms[pol]
    with np.errstate(all="ignore"):  # a kernel that overflows is refused below
        table = im_green0_xx(np.hypot(dx, dy), coord, k0)
        table += sign * im_green0_xx(np.sqrt(dx * dx + dy * dy + distance * distance), image_coord, k0)
    values = table.ravel()
    if not np.all(np.isfinite(values)) or values[0] == 0.0:
        raise np.linalg.LinAlgError(
            f"{pol} correlation is not finite, or its diagonal is 0, at this spacing and distance"
        )
    codes = np.abs(iy[:, None] - iy)
    codes *= dx.size
    codes += np.abs(ix[:, None] - ix)
    return CorrelationMatrix(values, codes)
