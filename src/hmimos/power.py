"""Power allocation across polarizations and streams.

Three schemes, each spending a unit budget:

* PA1 selects the polarization with the largest effective Frobenius norm and
  water-fills its streams.
* PA2 splits the budget equally over the polarizations that have streams
  and uniformly over each one's streams.
* PA3 water-fills twice: first over the per-polarization Frobenius gains,
  then over the singular values pooled within each polarization.

PA1's selected polarization, and each one PA3 gives a positive share, has
a positive gain to water-fill; a polarization without a share gets 0 W.

Each scheme returns the watts of every stream: a tuple of three arrays, one
per polarization, indexed like that polarization's stream gains.  A budget
of P_T watts at noise power sigma2 allocates P_T times the unit-budget watts
at sigma2 / P_T, so the spectral efficiency depends on P_T / sigma2 alone.
"""

from __future__ import annotations

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


def pa1_select(spectra, sigma2: float) -> tuple[np.ndarray, ...]:
    """Polarization selection: the whole unit budget on the strongest polarization.

    ``spectra`` holds the squared singular values of the three effective
    co-polarized channels.  The polarization with the largest squared
    Frobenius norm (sum of the spectrum) wins; ties go to the lowest index
    (x before y before z).  Its streams are water-filled; the others get 0 W.
    """
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    norms = np.array([float(np.sum(s)) for s in spectra])
    if not np.any(norms > 0):
        raise ValueError("all effective channels are zero")
    sel = int(np.argmax(norms))
    return tuple(
        water_fill(spec, 1.0, sigma2)[0] if i == sel else np.zeros(spec.size)
        for i, spec in enumerate(spectra)
    )


def pa2_equal(stream_counts) -> tuple[np.ndarray, ...]:
    """Equal split: an equal share per polarization with streams, uniform over them.

    ``stream_counts`` holds the stream count of each of the three effective
    channels.  The unit budget is split over the polarizations that have
    streams, so it is spent in full; a polarization without streams gets an
    empty array.
    """
    active = sum(1 for c in stream_counts if c > 0)
    return tuple(np.full(c, 1.0 / (active * c)) if c > 0 else np.zeros(0) for c in stream_counts)


def pa3_two_layer(spectra, sigma2: float) -> tuple[np.ndarray, ...]:
    """Two-layer allocation: water filling over polarizations, then streams.

    ``spectra`` holds the squared singular values of the three effective
    co-polarized channels.  The first layer water-fills their squared
    Frobenius norms under the unit budget.  The second layer water-fills
    each polarization's pooled singular values under that polarization's
    share (one water level per polarization).
    """
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    norms = np.array([float(np.sum(s)) for s in spectra])
    if not np.any(norms > 0):
        raise ValueError("all effective channels are zero")
    q, _ = water_fill(norms, 1.0, sigma2)
    return tuple(
        water_fill(spec, q[i], sigma2)[0] if q[i] > 0 else np.zeros(spec.size)
        for i, spec in enumerate(spectra)
    )
