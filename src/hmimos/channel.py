"""Near-field polarized channel synthesis from the free-space dyadic Green's
function.

Every transmit/receive patch pair contributes a 3x3 dyadic block; the blocks
are written into one polarization-major 3 N_r x 3 N_s matrix whose nine
N_r x N_s sub-blocks are the co-/cross-polarized channels H_pq (receive
polarization p, transmit polarization q).  A block depends only on the
pair's center offset, so each user's kernel runs once per distinct offset
and the blocks are gathered from that table: at equal receive and transmit
pitch, pairs at equal grid offset get bit-equal blocks.  The model is
deterministic: unit surface currents, no fading, no noise realizations.  A
global i*omega*mu gain constant is omitted; it cancels in every normalized
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Scenario, SurfaceSpec, patch_centers, patch_indices

POLS = ("x", "y", "z")
POL_INDEX = {"x": 0, "y": 1, "z": 2}


def _sinc(x):
    """sin(x)/x with sinc(0) = 1."""
    return np.sinc(np.asarray(x) / np.pi)


def radial_coeffs(k0r) -> tuple[np.ndarray, np.ndarray]:
    """Radial weights (c1, c2) of the dyadic Green's function at k0 * r.

    c1 multiplies the identity, c2 the outer product of the unit direction:
    c1 = 1 + i/(k0 r) - 1/(k0 r)^2 and c2 = 3/(k0 r)^2 - 3i/(k0 r) - 1.
    """
    arr = np.asarray(k0r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("k0 * r must be positive")
    inv = 1.0 / arr
    inv2 = inv**2
    # In place, so that fewer complex temporaries are alive at once; the
    # operations and their order are those of the two formulas above.
    c1 = 1j * inv
    c1 += 1.0
    c1 -= inv2
    inv2 *= 3.0
    c2 = inv2 - 3j * inv
    c2 -= 1.0
    return c1, c2


def block_view(mat: np.ndarray) -> np.ndarray:
    """The (3, 3, n, m) view of a polarization-major 3n x 3m matrix.

    Entry [p, q] is the n x m sub-block in row block p and column block q.
    ``mat`` must be C-contiguous so that writes through the view reach it.
    """
    return mat.reshape(3, mat.shape[0] // 3, 3, mat.shape[1] // 3).transpose(0, 2, 1, 3)


def pair_blocks(diff, ds, area, k0: float) -> np.ndarray:
    """Integrated channel of every transmit/receive patch pair.

    ``diff`` holds receive-minus-transmit center offsets, shape (..., 3);
    ``ds`` is the transmit patch (dx, dy) and ``area`` the product of the
    transmit and receive patch areas, a number or an array broadcasting
    against ``diff[..., 0]``.  Aperture sinc factors use the transmit patch
    dimensions; the receive patch contributes its area only.  Returns the
    (3, 3) + ``diff.shape[:-1]`` blocks: entry [p, q] is receive polarization
    p, transmit polarization q.  A zero-length offset raises ``LinAlgError``.
    """
    diff = np.asarray(diff, dtype=float)
    dist = np.linalg.norm(diff, axis=-1)
    if np.any(dist == 0.0):
        raise np.linalg.LinAlgError("coincident patch centers")
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

    ``matrix`` is the polarization-major channel: all users' x rows, then
    y, then z, against the x, y and z transmit columns.  Every other form is
    a view of it: ``blocks[p, q]`` is the N_r x N_s sub-channel received on
    polarization p and transmitted on polarization q, with rows stacking the
    users in scenario order.
    """

    matrix: np.ndarray  # (3 N_r, 3 N_s) complex
    user_offsets: tuple[int, ...]  # row offsets per user, len K + 1

    @property
    def n_users(self) -> int:
        return len(self.user_offsets) - 1

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[0] // 3

    @property
    def n_tx(self) -> int:
        return self.matrix.shape[1] // 3

    @cached_property
    def blocks(self) -> np.ndarray:
        """(3, 3, N_r, N_s) view of ``matrix``, made once; :meth:`block` indexes it."""
        return block_view(self.matrix)

    def user_rows(self, k: int) -> slice:
        return slice(self.user_offsets[k], self.user_offsets[k + 1])

    def block(self, p: str, q: str) -> np.ndarray:
        """H_pq: receive polarization p, transmit polarization q."""
        return self.blocks[POL_INDEX[p], POL_INDEX[q]]

    def user_block(self, p: str, q: str, k: int) -> np.ndarray:
        return self.block(p, q)[self.user_rows(k)]

    def stacked(self) -> np.ndarray:
        """Full 3 N_r x 3 N_s matrix in polarization-major layout."""
        return self.matrix

    def user_stacked(self, k: int) -> np.ndarray:
        """User k's 3 N̄_r x 3 N_s slice of the polarization-major stack."""
        rows = self.matrix.reshape(3, self.n_rx, -1)[:, self.user_rows(k)]
        return rows.reshape(-1, self.matrix.shape[1])


def _index_frame(spec: SurfaceSpec):
    """Grid indices (ix, iy) of a surface's patches and the center of index (0, 0)."""
    ix, iy = patch_indices(spec)
    return ix, iy, patch_centers(spec)[0] - (ix[0] * spec.dx, iy[0] * spec.dy, 0.0)


def _axis_offsets(i_r, i_t, d_r: float, d_t: float, shift: float):
    """Distinct receive-minus-transmit offsets along one axis, and each pair's code.

    Receive patch n sits at ``i_r[n] * d_r`` and transmit patch m at
    ``i_t[m] * d_t``, ``shift`` apart at index 0.  Offsets are formed on the
    small grid of index ranges as ``(i_r - i_t) * d_t + i_r * (d_r - d_t) +
    shift``: at equal pitch the middle term is exactly zero, so equal index
    differences give bit-equal offsets and share one code.  Returns the
    sorted distinct offsets and the (n_r, n_t) codes into them.
    """
    r0, t0 = i_r.min(), i_t.min()
    u_r = np.arange(r0, i_r.max() + 1)[:, None]
    u_t = np.arange(t0, i_t.max() + 1)
    grid = (u_r - u_t) * d_t + u_r * (d_r - d_t) + shift
    values, inverse = np.unique(grid, return_inverse=True)
    return values, inverse.reshape(grid.shape)[(i_r - r0)[:, None], i_t - t0]


def _offset_table(rx: SurfaceSpec, tx: SurfaceSpec, tx_frame):
    """One user's offset table (T, 3) and each pair's row in it (N̄_r, N_s).

    The table is every distinct x offset against every distinct y offset,
    x varying fastest, less the entries that no pair reads.
    """
    ix, iy, origin = _index_frame(rx)
    tx_ix, tx_iy, tx_origin = tx_frame
    shift = origin - tx_origin
    x_off, x_code = _axis_offsets(ix, tx_ix, rx.dx, tx.dx, shift[0])
    y_off, code = _axis_offsets(iy, tx_iy, rx.dy, tx.dy, shift[1])
    code *= x_off.size
    code += x_code
    diff = np.empty((y_off.size, x_off.size, 3))
    diff[..., 0] = x_off
    diff[..., 1] = y_off[:, None]
    diff[..., 2] = shift[2]
    used = np.bincount(code.ravel(), minlength=x_off.size * y_off.size) > 0
    if not used.all():  # drop a circle's unread bounding-grid offsets, renumber in spare x_code
        diff, code = diff.reshape(-1, 3)[used], np.take(np.cumsum(used) - 1, code, out=x_code)
    return diff.reshape(-1, 3), code


def offset_tables(scenario: Scenario) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each user's kernel table (3, 3, T_k) and each pair's entry in it (N̄_r, N_s).

    A user's table comes from the :func:`~hmimos.geometry.patch_indices` of
    both surfaces (a circle's from its bounding grid), and its pairs' blocks
    are ``table[p, q][code]``.  One :func:`pair_blocks` evaluation covers
    all users' tables, each entry with its user's receive patch area.  At
    equal receive and transmit pitch a grid user's table has span_r +
    span_t + 1 offsets per axis and pairs at equal grid offset share one
    entry; at unequal pitch it has about one entry per pair.  Some pair
    reads every entry.  A user with a zero-length offset or a table that is
    not finite raises ``np.linalg.LinAlgError``.
    """
    tx_spec = scenario.transmit
    tx_frame = _index_frame(tx_spec)
    diffs, codes = zip(*(_offset_table(u.surface, tx_spec, tx_frame) for u in scenario.users))
    bounds = np.cumsum([0] + [len(diff) for diff in diffs]).tolist()
    areas = [tx_spec.dx * tx_spec.dy * u.surface.dx * u.surface.dy for u in scenario.users]
    area = np.repeat(areas, np.diff(bounds))
    diff = np.vstack(diffs)
    try:
        with np.errstate(all="ignore"):  # an offset or pitch that overflows is refused below
            table = pair_blocks(diff, (tx_spec.dx, tx_spec.dy), area, scenario.k0)
    except np.linalg.LinAlgError:  # users sit above the transmitter, so only an underflow gives 0
        user = np.searchsorted(bounds, np.argmin(np.linalg.norm(diff, axis=-1)), side="right")
        raise np.linalg.LinAlgError(f"user {user}: a patch offset underflows to length 0") from None
    tables = [(table[..., lo:hi], code) for lo, hi, code in zip(bounds, bounds[1:], codes)]
    for k, (user_table, _) in enumerate(tables):
        if not np.isfinite(user_table).all():
            raise np.linalg.LinAlgError(f"user {k + 1}: channel is not finite at these offsets")
    return tables


def assemble_channel(scenario: Scenario) -> PolarizedChannel:
    """Build the polarized channel for every user of a scenario.

    Each user's rows of the nine H_pq blocks are gathered from its
    :func:`offset_tables` entry.
    """
    offsets = np.cumsum([0] + [u.surface.count for u in scenario.users]).tolist()
    matrix = np.empty((3 * offsets[-1], 3 * scenario.transmit.count), dtype=np.complex128)
    blocks = block_view(matrix)
    for (table, code), lo, hi in zip(offset_tables(scenario), offsets, offsets[1:]):
        for p in range(3):
            for q in range(3):
                blocks[p, q, lo:hi] = table[p, q][code]
    return PolarizedChannel(matrix, tuple(offsets))
