import numpy as np
import pytest

from hmimos.numerics import range_basis, svd_partition


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_svd_partition_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        svd_partition(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        svd_partition(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        svd_partition(np.eye(2), tol=-1.0)


def test_svd_partition_diagonal():
    u, s, v1, v0 = svd_partition(np.diag([3.0, 2.0]))
    assert np.allclose(s, [3.0, 2.0])
    assert v0.shape == (0, 2)
    assert v1.shape == (2, 2)


def test_svd_partition_block_structure():
    a = np.hstack([np.eye(2), np.zeros((2, 2))])
    _, s, v1, v0 = svd_partition(a)
    assert v0.shape == (2, 4)
    # null rows live in the last two coordinates
    proj = v0.conj().T @ v0
    assert np.allclose(proj, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12)


def test_svd_partition_rank_by_composition():
    rng = np.random.default_rng(17)
    a = random_complex(rng, 5, 3) @ random_complex(rng, 3, 8)
    u, s, v1, v0 = svd_partition(a)
    assert v1.shape[0] == 3
    assert v0.shape[0] == 5
    assert np.linalg.norm(a @ v0.conj().T) < 1e-10


def test_svd_partition_reconstruction():
    rng = np.random.default_rng(19)
    for rows, cols in [(4, 6), (6, 4), (5, 5)]:
        a = random_complex(rng, rows, cols)
        u, s, v1, v0 = svd_partition(a)
        sigma = np.zeros((rows, cols))
        sigma[: s.size, : s.size] = np.diag(s)
        back = u @ sigma @ np.vstack([v1, v0])
        assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-10


def test_svd_partition_deterministic():
    rng = np.random.default_rng(23)
    a = random_complex(rng, 5, 7)
    u1, s1, v11, v01 = svd_partition(a)
    u2, s2, v12, v02 = svd_partition(a.copy())
    for got, other in [(u1, u2), (s1, s2), (v11, v12), (v01, v02)]:
        assert np.array_equal(got, other)


def test_range_basis_is_thin_and_rank_cut():
    rng = np.random.default_rng(29)
    a = random_complex(rng, 8, 3) @ random_complex(rng, 3, 5)
    q = range_basis(a)
    assert q.shape == (8, 3)
    assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    assert np.linalg.norm(a - q @ (q.conj().T @ a)) / np.linalg.norm(a) < 1e-12
    assert range_basis(np.zeros((4, 2))).shape == (4, 0)
