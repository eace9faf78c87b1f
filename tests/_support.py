"""Shared builders for near-field test scenarios, randomized or read from text."""

import numpy as np

from hmimos.geometry import Scenario, SurfaceSpec, UserPlacement


def random_nf_scenario(rng, ns_choices=(9, 16, 25), k_choices=(1, 2, 3)):
    """Random non-boresight scenario with single-patch users."""
    ns = int(rng.choice(ns_choices))
    k = int(rng.choice(k_choices))
    n_side = int(np.sqrt(ns))
    tx = SurfaceSpec.grid(n_side, n_side, 0.4)
    users = []
    for _ in range(k):
        z = float(rng.uniform(0.5, 3.0))
        cx, cy = rng.uniform(0.3, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        rx = SurfaceSpec.grid(1, 1, 0.4, center=(float(cx), float(cy), z), role="receive")
        users.append(UserPlacement(rx, z))
    return Scenario(wavelength=1.0, transmit=tx, users=tuple(users))


def two_user_scenario(n_side=4, nr_grid=(2, 2), spacing=0.4):
    """Deterministic small 2-user scenario with lateral offsets."""
    tx = SurfaceSpec.grid(n_side, n_side, spacing)
    users = (
        UserPlacement(
            SurfaceSpec.grid(*nr_grid, spacing, center=(0.5, 0.3, 0.9), role="receive"), 0.9
        ),
        UserPlacement(
            SurfaceSpec.grid(*nr_grid, spacing, center=(-0.6, 0.4, 1.4), role="receive"), 1.4
        ),
    )
    return Scenario(wavelength=1.0, transmit=tx, users=users)


# Three single-patch users in front of a 3x3 transmitter.  The console-script
# smoke step of CI writes this text to a file and runs `hmimos` on it; the CLI
# tests derive their edge-case scenarios from it with :func:`edited`.
SMOKE_SCENARIO = """\
tx.nx = 3
tx.ny = 3
tx.dx = 0.4
tx.dy = 0.4
rx.nx = 1
rx.ny = 1
rx.dx = 0.4
rx.dy = 0.4
user1.z = 1.0
user1.cx = 0.5
user1.cy = 0.3
user2.z = 1.5
user2.cx = -0.6
user2.cy = 0.4
user3.z = 2.0
user3.cx = 0.2
user3.cy = -0.7
"""


def edited(text, *lines):
    """``text`` with each line's key line replaced by that line, or with it appended."""
    rows = text.splitlines()
    for line in lines:
        key = line.split(" =")[0]
        if any(row.startswith(key + " =") for row in rows):
            rows = [line if row.startswith(key + " =") else row for row in rows]
        else:
            rows.append(line)
    return "\n".join(rows) + "\n"
