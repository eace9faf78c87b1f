"""Near-field polarized channel synthesis from the free-space dyadic Green's
function.

Every transmit/receive patch pair contributes a 3x3 dyadic block; the blocks
are scattered into nine co-/cross-polarized sub-matrices H_pq (receive
polarization p, transmit polarization q).  The model is deterministic: unit
surface currents, no fading, no noise realizations.  A global i*omega*mu gain
constant is omitted; it cancels in every normalized metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .geometry import Scenario, patch_centers

POLS = ("x", "y", "z")
POL_INDEX = {"x": 0, "y": 1, "z": 2}


def _sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def scalar_green(r, rp, k0: float) -> complex:
    """Free-space scalar Green's function exp(i k0 d) / (4 pi d)."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    d = float(np.linalg.norm(r - rp))
    if d == 0.0:
        raise SingularityError("coincident source and observation points")
    return np.exp(1j * k0 * d) / (4.0 * math.pi * d)


def radial_coeffs(k0r) -> tuple[complex, complex]:
    """Radial weights (c1, c2) of the dyadic Green's function at k0 * r.

    c1 multiplies the identity, c2 the outer product of the unit direction:
    c1 = 1 + i/(k0 r) - 1/(k0 r)^2 and c2 = 3/(k0 r)^2 - 3i/(k0 r) - 1.
    """
    arr = np.asarray(k0r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("k0 * r must be positive")
    inv = 1.0 / arr
    c1 = np.asarray(1.0 + 1j * inv - inv**2)
    c2 = np.asarray(3.0 * inv**2 - 3j * inv - 1.0)
    if arr.ndim == 0:
        return complex(c1), complex(c2)
    return c1, c2


def dyadic_green(r, rp, k0: float) -> np.ndarray:
    """Point-to-point 3x3 dyadic Green's function (c1 I + c2 rr) g."""
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    diff = r - rp
    d = float(np.linalg.norm(diff))
    if d == 0.0:
        raise SingularityError("coincident source and observation points")
    unit = diff / d
    c1, c2 = radial_coeffs(k0 * d)
    g = np.exp(1j * k0 * d) / (4.0 * math.pi * d)
    return (c1 * np.eye(3) + c2 * np.outer(unit, unit)) * g


def pair_blocks(diff, ds, area, k0: float) -> np.ndarray:
    """Integrated 3x3 channel blocks of transmit/receive patch pairs.

    ``diff`` holds receive-minus-transmit center offsets, shape (..., 3);
    ``ds`` is the transmit patch (dx, dy) and ``area`` the product of the
    transmit and receive patch areas, a number or an array broadcasting
    against ``diff[..., 0]``.  Aperture sinc factors use the transmit patch
    dimensions; the receive patch contributes its area only.  Returns shape
    (3, 3, ...): entry [p, q] is receive polarization p, transmit
    polarization q.
    """
    diff = np.asarray(diff, dtype=float)
    dist = np.linalg.norm(diff, axis=-1)
    if np.any(dist == 0.0):
        raise SingularityError("coincident patch centers")
    unit = diff / dist[..., None]
    c1, c2 = radial_coeffs(k0 * dist)
    scalar = (
        area
        * np.exp(1j * k0 * dist)
        / (4.0 * math.pi * dist)
        * _sinc(k0 * diff[..., 0] * ds[0] / (2.0 * dist))
        * _sinc(k0 * diff[..., 1] * ds[1] / (2.0 * dist))
    )
    out = np.empty((3, 3) + dist.shape, dtype=np.complex128)
    for p in range(3):
        for q in range(3):
            dyad = c2 * unit[..., p] * unit[..., q]
            if p == q:
                dyad = dyad + c1
            out[p, q] = scalar * dyad
    return out


@dataclass(frozen=True)
class PolarizedChannel:
    """3 N_r x 3 N_s polarized channel with addressable H_pq sub-blocks.

    ``blocks[p, q]`` is the N_r x N_s sub-channel received on polarization p
    and transmitted on polarization q; rows within each sub-channel stack the
    users in scenario order.  The stacked form is polarization-major (all
    users' x rows, then y, then z).
    """

    blocks: np.ndarray  # (3, 3, N_r, N_s) complex
    user_offsets: tuple[int, ...]  # row offsets per user, len K + 1

    @property
    def n_users(self) -> int:
        return len(self.user_offsets) - 1

    @property
    def n_rx(self) -> int:
        return self.blocks.shape[2]

    @property
    def n_tx(self) -> int:
        return self.blocks.shape[3]

    def user_rows(self, k: int) -> slice:
        return slice(self.user_offsets[k], self.user_offsets[k + 1])

    def block(self, p: str, q: str) -> np.ndarray:
        """H_pq: receive polarization p, transmit polarization q."""
        return self.blocks[POL_INDEX[p], POL_INDEX[q]]

    def user_block(self, p: str, q: str, k: int) -> np.ndarray:
        return self.block(p, q)[self.user_rows(k)]

    def stacked(self) -> np.ndarray:
        """Full 3 N_r x 3 N_s matrix in polarization-major layout."""
        rows = [np.hstack([self.blocks[p, q] for q in range(3)]) for p in range(3)]
        return np.vstack(rows)

    def user_stacked(self, k: int) -> np.ndarray:
        """User k's 3 N̄_r x 3 N_s slice of the polarization-major stack."""
        rows = self.user_rows(k)
        out = [np.hstack([self.blocks[p, q][rows] for q in range(3)]) for p in range(3)]
        return np.vstack(out)

    def xy_stacked(self) -> np.ndarray:
        """Dual-polarized 2 N_r x 2 N_s sub-channel (x and y only)."""
        return np.vstack(
            [
                np.hstack([self.blocks[0, 0], self.blocks[0, 1]]),
                np.hstack([self.blocks[1, 0], self.blocks[1, 1]]),
            ]
        )


def assemble_channel(scenario: Scenario) -> PolarizedChannel:
    """Build the polarized channel for every user of a scenario.

    One :func:`pair_blocks` evaluation over all users' stacked receive
    patches; each row carries its own user's receive patch area.
    """
    tx_spec = scenario.transmit
    tx = patch_centers(tx_spec)
    surfaces = [u.surface for u in scenario.users]
    rx = np.vstack([patch_centers(spec) for spec in surfaces])
    counts = [spec.count for spec in surfaces]
    area = np.repeat([tx_spec.dx * tx_spec.dy * spec.dx * spec.dy for spec in surfaces], counts)
    blocks = pair_blocks(
        rx[:, None, :] - tx[None, :, :], (tx_spec.dx, tx_spec.dy), area[:, None], scenario.k0
    )
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return PolarizedChannel(blocks=blocks, user_offsets=tuple(int(o) for o in offsets))
