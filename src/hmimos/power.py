"""Power allocation across polarizations and streams.

Three schemes:

* PA1 selects the polarization with the largest effective Frobenius norm and
  water-fills its streams.
* PA2 splits the budget equally over the three polarizations and uniformly
  over streams.
* PA3 water-fills twice: first over the per-polarization Frobenius gains,
  then over the singular values pooled within each polarization.

A :class:`PowerAllocation` stores the per-polarization watts ``q`` and
per-stream shares ``g`` (each polarization's shares sum to one), so the
physical power of stream i of polarization p is ``q[p] * g[p][i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def water_fill(gains, budget: float, sigma2: float):
    """Exact water filling: powers_i = (eps - sigma2 / gains_i)^+.

    The water level ``eps`` is found by the exact active-set method: sort the
    gains descending and keep the largest active set whose weakest channel
    still receives positive power.  Channels with nonpositive gain get
    nothing; at least one gain must be positive.

    Returns ``(powers, eps)`` with ``powers`` in the input order summing to
    ``budget``.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a nonempty 1-D sequence")
    if budget <= 0 or sigma2 <= 0:
        raise ValueError("budget and noise power must be positive")
    positive = g > 0
    if not np.any(positive):
        raise ValueError("water filling needs at least one positive gain")

    idx = np.flatnonzero(positive)
    order = idx[np.argsort(-g[idx], kind="stable")]
    inv = sigma2 / g[order]
    csum = np.cumsum(inv)
    powers = np.zeros_like(g)
    eps = 0.0
    for m in range(order.size, 0, -1):
        eps = (budget + csum[m - 1]) / m
        if eps - inv[m - 1] > 0:
            active = order[:m]
            powers[active] = eps - inv[:m]
            break
    return powers, float(eps)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-polarization watts and per-stream shares for one scheme."""

    q: np.ndarray  # (3,) watts, sums to the budget
    g: tuple[np.ndarray, np.ndarray, np.ndarray]  # shares, each sums to 1 (or all 0)


def _waterfill_shares(gains: np.ndarray, budget: float, sigma2: float) -> np.ndarray:
    """Water-fill a polarization's streams, returned as unit shares."""
    if budget <= 0 or gains.size == 0 or not np.any(gains > 0):
        return np.zeros(gains.size)
    powers, _ = water_fill(gains, budget, sigma2)
    return powers / budget


def pa1_select(spectra, budget: float = 1.0, sigma2: float = 1.0) -> PowerAllocation:
    """Polarization selection: the whole budget on the strongest polarization.

    ``spectra`` holds the squared singular values of the three effective
    co-polarized channels.  The polarization with the largest squared
    Frobenius norm (sum of the spectrum) wins; ties go to the lowest index
    (x before y before z).  Its streams are water-filled.
    """
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    norms = np.array([float(np.sum(s)) for s in spectra])
    if not np.any(norms > 0):
        raise ValueError("all effective channels are zero")
    sel = int(np.argmax(norms))
    q = np.zeros(3)
    q[sel] = budget
    g = tuple(
        _waterfill_shares(spec, budget, sigma2) if i == sel else np.zeros(spec.size)
        for i, spec in enumerate(spectra)
    )
    return PowerAllocation(q=q, g=g)


def pa2_equal(stream_counts, budget: float = 1.0) -> PowerAllocation:
    """Equal split: budget / 3 per polarization, uniform over its streams.

    ``stream_counts`` holds the stream count of each of the three effective
    channels; a polarization without streams gets empty shares.
    """
    q = np.full(3, budget / 3.0)
    g = tuple(np.full(c, 1.0 / c) if c > 0 else np.zeros(0) for c in stream_counts)
    return PowerAllocation(q=q, g=g)


def pa3_two_layer(spectra, budget: float = 1.0, sigma2: float = 1.0) -> PowerAllocation:
    """Two-layer allocation: water filling over polarizations, then streams.

    ``spectra`` holds the squared singular values of the three effective
    co-polarized channels.  The first layer water-fills their squared
    Frobenius norms.  The second layer water-fills each polarization's
    pooled singular values under that polarization's budget (one water
    level per polarization).
    """
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    norms = np.array([float(np.sum(s)) for s in spectra])
    if not np.any(norms > 0):
        raise ValueError("all effective channels are zero")
    q, _ = water_fill(norms, budget, sigma2)
    g = tuple(_waterfill_shares(spec, q[i], sigma2) for i, spec in enumerate(spectra))
    return PowerAllocation(q=q, g=g)
