import math

import numpy as np
import pytest

from _oracles import correlation_dof as dof
from _oracles import dyadic_green, tp_dof
from hmimos.correlation import im_green0_xx, transmit_correlation
from hmimos.geometry import SurfaceSpec, patch_centers

K0 = 2.0 * math.pi


def line(n, spacing):
    return SurfaceSpec.grid(n, 1, spacing)


def image_six_terms(x, y, z, k0):
    """Independent term-by-term evaluation of the image closed form."""
    r = math.sqrt(x * x + y * y + z * z)
    s, c = math.sin(k0 * r), math.cos(k0 * r)
    four_pi = 4 * math.pi
    return -(
        s / (four_pi * r)
        + c / (four_pi * k0 * r**2)
        - s / (four_pi * k0**2 * r**3)
        - x * x * s / (four_pi * r**3)
        - 3 * x * x * c / (four_pi * k0 * r**4)
        + 3 * x * x * s / (four_pi * k0**2 * r**5)
    )


def test_free_space_hand_value_at_half_wavelength():
    # k0 d = pi with no coordinate offset: only the cosine term survives
    val = im_green0_xx(0.5, 0.0, K0)
    assert val == pytest.approx(-1.0 / (2 * math.pi**2), rel=1e-12)


def test_free_space_small_separation_limit():
    limit = K0 / (6 * math.pi)
    assert im_green0_xx(0.0, 0.0, K0) == pytest.approx(limit)
    for axis in ((1e-4, 1e-4), (1e-4, 0.0)):
        d, x = axis
        assert im_green0_xx(d, x, K0) == pytest.approx(limit, rel=1e-3)


def test_free_space_matches_dyadic_green():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.uniform(-1.5, 1.5, size=3)
        b = rng.uniform(-1.5, 1.5, size=3)
        if np.linalg.norm(a - b) < 1e-3:
            continue
        d = float(np.linalg.norm(a - b))
        got = im_green0_xx(d, float(a[0] - b[0]), K0)
        oracle = dyadic_green(a, b, K0)[0, 0].imag
        assert abs(got - oracle) < 1e-10


def test_free_space_rejects_inconsistent_coordinates():
    with pytest.raises(ValueError):
        im_green0_xx(0.1, 0.2, K0)


def image_term(z):
    """Image term of a single patch's xx self-correlation at link distance z."""
    return transmit_correlation(line(1, 0.2), z, K0).diag_value - K0 / (6 * math.pi)


def test_image_hand_value():
    # x = y = 0 with k0 r = pi: only the cosine term survives, sign flipped
    assert image_term(0.5) == pytest.approx(+1.0 / (2 * math.pi**2), rel=1e-12)


def test_image_decays_with_distance():
    # The term oscillates with k0 z, so single points can sit on its zeros;
    # its envelope, the peak over one wavelength, falls as 1 / (4 pi z).
    for z0 in (10.0, 100.0, 1000.0):
        peak = max(abs(image_term(float(z))) for z in z0 + np.linspace(0.0, 1.0, 201))
        assert peak * 4 * math.pi * z0 == pytest.approx(1.0, rel=0.03)


def test_image_matches_term_by_term_oracle():
    # the tangential image term is the negated free-space kernel at the image offset
    rng = np.random.default_rng(47)
    for _ in range(50):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        z = rng.uniform(0.05, 3.0)
        got = -im_green0_xx(math.sqrt(x * x + y * y + z * z), x, K0)
        assert abs(got - image_six_terms(x, y, z, K0)) < 1e-12


@pytest.mark.parametrize("z", [0.1, 0.45, 1.7])
def test_copolarized_entries_match_dyadic_green(z):
    # free-space Im G_pp plus the image-point Im G_pp with image signs (-, -, +)
    spec = SurfaceSpec.grid(3, 2, 0.3, 0.2)
    pts = patch_centers(spec)[:, :2]
    for p, (pol, sign) in enumerate((("xx", -1.0), ("yy", -1.0), ("zz", 1.0))):
        raw = transmit_correlation(spec, z, K0, pol).raw
        for n, a in enumerate(pts):
            obs = np.append(a, 0.0)
            for m, b in enumerate(pts):
                src, img = np.append(b, 0.0), np.append(b, -z)
                free = K0 / (6 * math.pi) if n == m else dyadic_green(obs, src, K0)[p, p].imag
                image = dyadic_green(obs, img, K0)[p, p].imag
                assert abs(raw[n, m] - (free + sign * image)) < 1e-12, (pol, n, m)


def test_normalized_diagonal_is_one():
    cm = transmit_correlation(line(10, 0.2), 0.5, K0)
    assert np.allclose(np.diag(cm.normalized), 1.0, atol=1e-12)
    assert np.allclose(np.diag(cm.raw), cm.diag_value)


def test_correlation_symmetric():
    cm = transmit_correlation(SurfaceSpec.grid(4, 3, 0.3), 0.7, K0)
    assert np.allclose(cm.raw, cm.raw.T, atol=1e-14)


def test_small_separation_diagonal_composition():
    z = 0.6
    cm = transmit_correlation(line(5, 0.25), z, K0)
    expected = K0 / (6 * math.pi) + image_six_terms(0.0, 0.0, z, K0)
    assert cm.diag_value == pytest.approx(expected, rel=1e-12)


def test_farther_receiver_raises_adjacent_correlation():
    # first adjacent pair at 0.1-wavelength spacing: raw correlation grows
    # strongly with the transmit/receive distance
    near = transmit_correlation(line(50, 0.1), 0.2, K0).raw[0, 1]
    far = transmit_correlation(line(50, 0.1), 0.8, K0).raw[0, 1]
    assert far > 2.0 * near


def test_wider_spacing_lowers_normalized_correlation():
    vals = [
        transmit_correlation(line(50, s), 0.3, K0).normalized[0, 1] for s in (0.05, 0.2, 0.4)
    ]
    assert vals[0] > vals[1] > vals[2]
    # every pair, in magnitude, for the extreme pair of spacings
    tight = transmit_correlation(line(50, 0.05), 0.3, K0).normalized
    wide = transmit_correlation(line(50, 0.4), 0.3, K0).normalized
    off = ~np.eye(50, dtype=bool)
    assert np.all(np.abs(wide[off]) < np.abs(tight[off]))


def test_z_polarization_dominates_deep_subwavelength():
    for spacing in (0.1, 0.4):
        raw = {
            pol: transmit_correlation(line(50, spacing), 0.1, K0, pol).raw[0, 1]
            for pol in ("xx", "yy", "zz")
        }
        assert raw["zz"] > raw["xx"]
        assert raw["zz"] > raw["yy"]


def test_yy_swaps_coordinates():
    spec = SurfaceSpec.grid(4, 3, 0.3, 0.2)
    z = 0.5
    xx = transmit_correlation(spec, z, K0, "xx")
    yy = transmit_correlation(spec, z, K0, "yy")
    # swapping the surface axes swaps the roles of xx and yy
    swapped = transmit_correlation(SurfaceSpec.grid(3, 4, 0.2, 0.3), z, K0, "xx")
    assert np.allclose(np.sort(yy.raw.ravel()), np.sort(swapped.raw.ravel()), atol=1e-12)
    assert xx.raw.shape == yy.raw.shape


def test_dof_identity_and_ones():
    assert dof(np.eye(7)) == pytest.approx(7.0)
    assert dof(np.ones((6, 6))) == pytest.approx(1.0)


def test_dof_hand_value():
    assert dof(np.diag([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0)


def test_dof_bounds_on_random_psd():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        r = a @ a.T
        val = dof(r)
        assert 1.0 - 1e-12 <= val <= n + 1e-12
    with pytest.raises(ValueError):
        dof(np.zeros((3, 3)))


def test_tp_dof_matches_blockdiag():
    spec = line(8, 0.3)
    z = 0.4
    mats = [transmit_correlation(spec, z, K0, p).raw for p in ("xx", "yy", "zz")]
    block = np.zeros((24, 24))
    for i, m in enumerate(mats):
        block[8 * i : 8 * (i + 1), 8 * i : 8 * (i + 1)] = m
    assert tp_dof(spec, z, K0) == pytest.approx(dof(block), rel=1e-12)
