import numpy as np
import pytest

from hmimos.power import pa1_select, pa2_equal, pa3_two_layer, water_fill


def bisect_water_level(gains, budget, sigma2, iters=200):
    """Independent oracle: bisection on the water level."""
    gains = np.asarray(gains, dtype=float)

    def spent(eps):
        return float(np.sum(np.clip(eps - sigma2 / gains[gains > 0], 0.0, None)))

    lo, hi = 0.0, sigma2 / gains[gains > 0].max() + budget + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if spent(mid) < budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_channel_hand_example():
    gains = np.array([4.0, 1.0])
    oracle_eps = bisect_water_level(gains, budget=1.0, sigma2=1.0)
    # hand solution of (eps - 1/4) + (eps - 1) = 1
    assert oracle_eps == pytest.approx(1.125, abs=1e-9)
    powers, eps = water_fill(gains, 1.0, 1.0)
    assert eps == pytest.approx(1.125, abs=1e-9)
    assert powers == pytest.approx([0.875, 0.125], abs=1e-9)


def test_equal_gains_split_equally():
    powers, _ = water_fill([2.0, 2.0, 2.0], 0.9, 0.7)
    assert powers == pytest.approx([0.3, 0.3, 0.3])


def test_single_channel_takes_everything():
    powers, eps = water_fill([5.0], 2.0, 0.5)
    assert powers == pytest.approx([2.0])
    assert eps == pytest.approx(2.0 + 0.5 / 5.0)


def test_conservation_on_random_instances():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        gains = rng.uniform(0.01, 10.0, size=n)
        budget = float(rng.uniform(0.1, 5.0))
        sigma2 = float(rng.uniform(0.01, 3.0))
        powers, _ = water_fill(gains, budget, sigma2)
        assert np.all(powers >= 0)
        assert abs(powers.sum() - budget) <= 1e-9 * budget


def test_matches_bisection_oracle():
    rng = np.random.default_rng(79)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        gains = rng.uniform(0.01, 10.0, size=n)
        budget = float(rng.uniform(0.1, 5.0))
        sigma2 = float(rng.uniform(0.01, 3.0))
        _, eps = water_fill(gains, budget, sigma2)
        assert eps == pytest.approx(bisect_water_level(gains, budget, sigma2), abs=1e-6)


def rate(powers, gains, sigma2):
    return float(np.sum(np.log2(1.0 + np.asarray(gains) * np.asarray(powers) / sigma2)))


def test_grid_search_optimality_small_instances():
    rng = np.random.default_rng(83)
    for _ in range(30):
        gains = rng.uniform(0.05, 8.0, size=2)
        budget = float(rng.uniform(0.2, 3.0))
        sigma2 = float(rng.uniform(0.05, 2.0))
        powers, _ = water_fill(gains, budget, sigma2)
        best = max(
            rate([p, budget - p], gains, sigma2) for p in np.linspace(0.0, budget, 401)
        )
        assert rate(powers, gains, sigma2) >= best - 1e-6
    for _ in range(10):
        gains = rng.uniform(0.05, 8.0, size=3)
        budget = float(rng.uniform(0.2, 3.0))
        sigma2 = float(rng.uniform(0.05, 2.0))
        powers, _ = water_fill(gains, budget, sigma2)
        best = 0.0
        for p1 in np.linspace(0.0, budget, 81):
            for p2 in np.linspace(0.0, budget - p1, 81):
                best = max(best, rate([p1, p2, budget - p1 - p2], gains, sigma2))
        assert rate(powers, gains, sigma2) >= best - 1e-6


def test_water_fill_rejects_bad_input():
    with pytest.raises(ValueError):
        water_fill([0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        water_fill([1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        water_fill([], 1.0, 1.0)


def _spectra(norms, n=4):
    """Flat squared-singular-value spectra with prescribed totals."""
    return [np.full(n, norm / n) for norm in norms]


def test_pa1_selects_strongest_polarization():
    pa = pa1_select(_spectra([4.0, 1.0, 1.0]), budget=1.0, sigma2=0.1)
    assert pa.q == pytest.approx([1.0, 0.0, 0.0])
    assert pa.g[0].sum() == pytest.approx(1.0)
    assert pa.g[1].sum() == 0.0


def test_pa1_tie_break_prefers_x():
    pa = pa1_select(_spectra([2.0, 2.0, 2.0]), budget=1.0, sigma2=0.1)
    assert pa.q == pytest.approx([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        pa1_select(_spectra([0.0, 0.0, 0.0]), 1.0, 0.1)


def test_pa2_uniform():
    pa = pa2_equal(2, 3, budget=1.0)
    assert pa.q == pytest.approx([1 / 3] * 3)
    for g in pa.g:
        assert g == pytest.approx(np.full(6, 1.0 / 6.0))
    # per-stream physical power = budget / (3 K nr_bar)
    assert pa.q[0] * pa.g[0] == pytest.approx(np.full(6, 1.0 / 18.0))
    assert pa.q.sum() == pytest.approx(1.0)


def test_pa3_equal_norms_split_evenly():
    pa = pa3_two_layer(_spectra([2.0, 2.0, 2.0]), budget=1.0, sigma2=0.1)
    assert pa.q == pytest.approx([1 / 3] * 3, abs=1e-9)
    for g in pa.g:
        assert g.sum() == pytest.approx(1.0, abs=1e-9)


def test_pa3_cuts_off_dead_polarization():
    pa = pa3_two_layer(_spectra([5.0, 4.0, 1e-9]), budget=1.0, sigma2=0.5)
    assert pa.q[2] == 0.0
    assert pa.q[:2].sum() == pytest.approx(1.0)
    assert pa.g[2].sum() == 0.0


def test_pa3_conservation():
    rng = np.random.default_rng(89)
    for _ in range(50):
        spectra = [rng.uniform(0.0, 2.0, size=int(rng.integers(1, 6))) for _ in range(3)]
        if not any(s.sum() > 0 for s in spectra):
            continue
        budget = float(rng.uniform(0.5, 4.0))
        pa = pa3_two_layer(spectra, budget, float(rng.uniform(0.05, 1.0)))
        assert pa.q.sum() == pytest.approx(budget, rel=1e-9)
        for i in range(3):
            if pa.q[i] > 0 and np.any(spectra[i] > 0):
                assert pa.g[i].sum() == pytest.approx(1.0, rel=1e-9)


def test_selection_always_loses_to_splitting_on_normalized_channels():
    rng = np.random.default_rng(97)
    q = rng.uniform(0.01, 100.0, size=1000)
    s2 = rng.uniform(0.001, 10.0, size=1000)
    lhs = np.log2(1.0 + q / s2)
    rhs = 3.0 * np.log2(1.0 + q / (3.0 * s2))
    assert np.all(lhs < rhs)
