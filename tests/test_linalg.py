import numpy as np
import pytest

from fsclass.errors import NegativeSpectrum, NotHermitian, SingularInput
from fsclass.linalg import (DEFAULT_TOL, Tolerance, cluster_eigenvalues,
                            dagger, fixed_space_of_antilinear, make_rng,
                            matrix_function, nullspace, polar_unitary,
                            real_nullspace, sqrtm_psd)


def test_tolerance_defaults():
    assert DEFAULT_TOL.eps_rank == 1e-9
    assert DEFAULT_TOL.eps_eig == 1e-8
    assert DEFAULT_TOL.eps_round == 1e-6


def test_tolerance_rejects_bad_values():
    with pytest.raises(ValueError):
        Tolerance(eps_rank=-1.0)
    with pytest.raises(ValueError):
        Tolerance(eps_round=2.0)


def test_rng_reproducible():
    a = make_rng(7).standard_normal(5)
    b = make_rng(7).standard_normal(5)
    assert np.array_equal(a, b)


def test_nullspace_rank_deficient():
    m = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ker = nullspace(m)
    assert ker.shape == (3, 1)
    assert np.abs(m @ ker).max() < 1e-12


def test_nullspace_of_numerically_zero_matrix_is_everything():
    m = 1e-30 * np.ones((4, 3))
    assert nullspace(m).shape == (3, 3)


def test_nullspace_full_rank():
    assert nullspace(np.eye(3)).shape == (3, 0)


def test_sqrtm_psd():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = sqrtm_psd(h)
    assert np.allclose(r @ r, h)


def test_matrix_function_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        matrix_function(np.array([[0.0, 1.0], [0.0, 0.0]]), np.sqrt)


def test_sqrtm_rejects_negative():
    with pytest.raises(NegativeSpectrum):
        sqrtm_psd(np.diag([1.0, -1.0]))


def test_polar_unitary_example():
    f = np.array([[0.0, 2.0], [1.0, 0.0]])
    u = polar_unitary(f)
    assert np.allclose(u, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(u @ dagger(u), np.eye(2))


def test_polar_unitary_rejects_singular():
    with pytest.raises(SingularInput):
        polar_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_cluster_eigenvalues():
    vals = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 5.0])
    clusters = cluster_eigenvalues(vals, 1e-8)
    assert [len(c) for c in clusters] == [2, 2, 1]


def test_fixed_space_of_antilinear_conjugation():
    # plain conjugation on C^2 fixes R^2
    W = fixed_space_of_antilinear(np.eye(2))
    assert W.shape == (2, 2)
    assert np.abs(W.imag).max() < 1e-12


def test_fixed_space_of_quaternionic_map_is_empty():
    # j with j conj(j) = -1 has no fixed vectors
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert fixed_space_of_antilinear(j).shape[1] == 0


def _with_singular_values(rng, rows, cols, svals, complex_):
    """rows x cols matrix with the given leading singular values."""
    def unitary(k):
        z = rng.standard_normal((k, k))
        if complex_:
            z = z + 1j * rng.standard_normal((k, k))
        return np.linalg.qr(z)[0]
    s = np.zeros((rows, cols))
    s[np.arange(len(svals)), np.arange(len(svals))] = svals
    return unitary(rows) @ s @ unitary(cols)


SHAPES = {
    "tall": (12, 5, [3.0, 2.0, 1.0, 0.5, 0.1]),
    "tall_rank_deficient": (12, 5, [4.0, 1.0, 1e-12]),
    "wide": (3, 7, [2.0, 1.0, 0.5]),
    "wide_rank_deficient": (4, 7, [5.0, 1e-3]),
    "square": (6, 6, [1.0] * 6),
    "square_rank_deficient": (6, 6, [1e3, 2.0, 1.0, 1e-11]),
    "zero": (4, 3, []),
    "empty_rows": (0, 3, []),
    "empty_cols": (3, 0, []),
}


@pytest.mark.parametrize("complex_", [True, False])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_thin_svd_nullspace_matches_full_svd(name, complex_):
    rows, cols, svals = SHAPES[name]
    m = _with_singular_values(make_rng(11), rows, cols, svals, complex_)
    kernel = nullspace if complex_ else real_nullspace
    ker = kernel(m)
    full_rank = 0
    cutoff = DEFAULT_TOL.eps_rank
    if m.size and np.abs(m).max() > 0:
        s = np.linalg.svd(m, full_matrices=True, compute_uv=False)
        cutoff *= max(1.0, s[0])
        full_rank = int(np.sum(s > cutoff))
    assert ker.shape == (cols, cols - full_rank)
    assert np.allclose(dagger(ker) @ ker, np.eye(ker.shape[1]), atol=1e-12)
    resid = m @ ker
    assert (np.linalg.norm(resid, 2) if resid.size else 0.0) <= cutoff
