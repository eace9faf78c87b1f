import math

import numpy as np
import pytest

from hmimos.errors import GeometryError
from hmimos.geometry import (
    Scenario,
    SurfaceSpec,
    UserPlacement,
    patch_centers,
    patch_indices,
    validate_near_field,
)


def test_2x2_grid_centers():
    spec = SurfaceSpec.grid(2, 2, 0.4)
    pts = patch_centers(spec)
    expected = {(-0.2, -0.2), (0.2, -0.2), (-0.2, 0.2), (0.2, 0.2)}
    got = {(round(x, 12), round(y, 12)) for x, y, _ in pts}
    assert got == expected


def test_single_patch_sits_at_center():
    spec = SurfaceSpec.grid(1, 1, 0.5, center=(1.0, -2.0, 3.0))
    pts = patch_centers(spec)
    assert np.allclose(pts, [[1.0, -2.0, 3.0]])


def test_circle_against_exhaustive_scan():
    # 64 lambda^2 area budget at half-wavelength spacing -> 256 patches
    n_total = 256
    spacing = 0.5
    spec = SurfaceSpec.circle(n_total, spacing)
    pts = patch_centers(spec)
    assert pts.shape == (n_total, 3)

    # oracle: scan a generous bounding grid and keep the closest points
    half = 40
    idx = np.arange(-half, half + 1)
    gx, gy = np.meshgrid(idx * spacing, idx * spacing)
    d2 = (gx**2 + gy**2).ravel()
    radius2 = np.sort(d2)[n_total - 1]
    inside = np.count_nonzero(d2 <= radius2 + 1e-12)
    assert inside >= n_total
    got_d2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert np.all(got_d2 <= radius2 + 1e-12)
    # no duplicates
    assert len({(round(x, 9), round(y, 9)) for x, y, _ in pts}) == n_total


def test_patch_count_matches_declaration():
    for spec in [
        SurfaceSpec.grid(3, 5, 0.2),
        SurfaceSpec.grid(4, 4, 0.1),
        SurfaceSpec.circle(37, 0.3),
    ]:
        assert patch_centers(spec).shape[0] == spec.count


@pytest.mark.parametrize(
    "spec",
    [SurfaceSpec.grid(4, 3, 0.3, 0.2, center=(0.7, -0.4, 0.0)), SurfaceSpec.circle(37, 0.3, 0.2)],
    ids=["grid", "circle"],
)
def test_patch_indices_step_with_the_centers(spec):
    ix, iy = patch_indices(spec)
    assert ix.dtype.kind == iy.dtype.kind == "i"
    pts = patch_centers(spec)
    for idx, coord, step in ((ix, pts[:, 0], spec.dx), (iy, pts[:, 1], spec.dy)):
        assert np.allclose(coord - idx * step, coord[0] - idx[0] * step, rtol=0, atol=1e-12)


def test_grid_reflection_symmetry():
    spec = SurfaceSpec.grid(4, 3, 0.3, 0.2, center=(0.7, -0.4, 0.0))
    pts = patch_centers(spec)
    center = np.array([0.7, -0.4, 0.0])
    reflected = 2 * center - pts
    a = sorted(map(tuple, np.round(pts, 12)))
    b = sorted(map(tuple, np.round(reflected, 12)))
    assert a == b


def _scenario(ns_side, nr_side, ds, dr, z, lam=1.0):
    tx = SurfaceSpec.grid(ns_side, ns_side, ds)
    rx = SurfaceSpec.grid(nr_side, nr_side, dr, center=(0.0, 0.0, z), role="receive")
    return Scenario(wavelength=lam, transmit=tx, users=(UserPlacement(rx, z),))


def test_near_field_bound_hand_value():
    # 4*16*0.16 + 4*16*0.16 + 8*sqrt(256)*0.16 = 40.96
    report = validate_near_field(_scenario(4, 4, 0.4, 0.4, z=3.0))
    hand = (4 * 16 * 0.4**2 + 4 * 16 * 0.4**2 + 8 * math.sqrt(16 * 16) * 0.4 * 0.4) / 1.0
    assert hand == pytest.approx(40.96)
    assert report.nf_bound == pytest.approx(hand, rel=1e-12)
    assert report.in_near_field == (True,)


def test_near_field_degenerate_limit():
    report = validate_near_field(_scenario(1, 1, 1e-6, 1e-6, z=1.0))
    assert report.nf_bound < 1e-9
    assert report.in_near_field == (False,)


def test_dense_surface_user_in_near_field():
    report = validate_near_field(_scenario(15, 15, 0.4, 0.4, z=3.0))
    assert report.users[0].in_near_field


def test_patch_size_limit():
    report = validate_near_field(_scenario(4, 4, 0.4, 0.4, z=3.0))
    assert report.users[0].patch_limit == pytest.approx(2 * math.sqrt(3.0) / 10)
    # 0.4 exceeds the factor-10 margin at z = 3, but passes further out
    assert not report.patch_ok
    assert validate_near_field(_scenario(4, 4, 0.4, 0.4, z=10.0)).patch_ok
    # the margin is configurable
    assert validate_near_field(_scenario(4, 4, 0.4, 0.4, z=3.0), margin=5.0).patch_ok


def test_near_field_bound_monotone():
    base = validate_near_field(_scenario(3, 2, 0.3, 0.2, z=1.0)).nf_bound
    assert validate_near_field(_scenario(4, 2, 0.3, 0.2, z=1.0)).nf_bound >= base
    assert validate_near_field(_scenario(3, 3, 0.3, 0.2, z=1.0)).nf_bound >= base
    assert validate_near_field(_scenario(3, 2, 0.4, 0.2, z=1.0)).nf_bound >= base
    assert validate_near_field(_scenario(3, 2, 0.3, 0.3, z=1.0)).nf_bound >= base


def test_spec_validation_errors():
    with pytest.raises(GeometryError):
        SurfaceSpec.grid(0, 2, 0.4)
    with pytest.raises(GeometryError):
        SurfaceSpec.grid(2, 2, -0.1)
    with pytest.raises(GeometryError):
        SurfaceSpec(layout="square", dx=0.4, dy=0.4, nx=2, ny=3)
    with pytest.raises(GeometryError):
        SurfaceSpec.circle(0, 0.4)
    with pytest.raises(GeometryError):
        SurfaceSpec(layout="hexagon", dx=0.4, dy=0.4, nx=2, ny=2)
    with pytest.raises(GeometryError):
        UserPlacement(SurfaceSpec.grid(1, 1, 0.4), distance=0.0)
    tx = SurfaceSpec.grid(2, 2, 0.4)
    with pytest.raises(GeometryError):
        Scenario(wavelength=0.0, transmit=tx, users=(UserPlacement(SurfaceSpec.grid(1, 1, 0.4), 1.0),))
    with pytest.raises(GeometryError):
        Scenario(wavelength=1.0, transmit=tx, users=())


def _one_user():
    return (UserPlacement(SurfaceSpec.grid(1, 1, 0.4, center=(0.0, 0.0, 1.0)), 1.0),)


def test_user_distance_must_match_surface_height():
    tx = SurfaceSpec.grid(2, 2, 0.4, center=(0.0, 0.0, 0.5))
    rx = SurfaceSpec.grid(1, 1, 0.4, center=(0.3, -0.2, 2.0), role="receive")
    near = UserPlacement(rx, 1.5)  # 2.0 above the origin, 1.5 above the transmitter
    assert Scenario(1.0, tx, (near,)).users == (near,)
    Scenario(1.0, tx, (UserPlacement(rx, 1.5 * (1 + 5e-13)),))  # within 1e-12 relative
    for distance in (2.0, 1.5 * (1 + 2e-12)):
        with pytest.raises(GeometryError, match=r"^user 2: distance .* height 1\.5 above"):
            Scenario(1.0, tx, (near, UserPlacement(rx, distance)))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SurfaceSpec.grid(3, 3, math.nan), "dx"),
        (lambda: SurfaceSpec.grid(3, 3, math.inf), "dx"),
        (lambda: SurfaceSpec.grid(3, 3, 0.4, -math.inf), "dy"),
        (lambda: SurfaceSpec.circle(5, 0.4, center=(math.nan, 0.0, 1.0)), "center"),
        (lambda: SurfaceSpec.grid(3, 3, 0.4, center=(0.0, 0.0, math.inf)), "center"),
        (lambda: UserPlacement(SurfaceSpec.grid(1, 1, 0.4), distance=math.inf), "distance"),
        (lambda: UserPlacement(SurfaceSpec.grid(1, 1, 0.4), distance=math.nan), "distance"),
        (lambda: Scenario(math.nan, SurfaceSpec.grid(2, 2, 0.4), _one_user()), "wavelength"),
        (lambda: Scenario(math.inf, SurfaceSpec.grid(2, 2, 0.4), _one_user()), "wavelength"),
        (lambda: Scenario(1.0, SurfaceSpec.grid(2, 2, 0.4), _one_user(), total_power=math.inf),
         "total_power"),
        (lambda: Scenario(1.0, SurfaceSpec.grid(2, 2, 0.4), _one_user(), total_power=math.nan),
         "total_power"),
    ],
)
def test_non_finite_fields_are_refused(build, field):
    with pytest.raises(GeometryError, match=rf"^{field} must be finite"):
        build()
