"""The checked closed forms against the solves they replaced.

The coseparability idempotent of `compact_decompose` is the kept separability
idempotent of the dual algebra, and the Haar integral of `WeakHopfData` is
the element that represents the counit under the regular trace form.  Each
reference below is the construction used before: E from the inverse of the
matrix-element basis, and the Haar integral from a least-squares solve of
its defining identities with a nullspace test for uniqueness.  On every
bundled input the two must agree within 1e-14.
"""
import numpy as np
import pytest

from fsclass import (FDStarAlgebra, WeakHopfData, compact_decompose,
                     dualize, group_weak_hopf)
from fsclass.algebra import AntiAlgebraMap, SeparabilityIdempotent
from fsclass.cli import Run
from fsclass.coalgebra import FDStarCoalgebra, gamma_full
from fsclass.constructors import _weak_hopf
from fsclass.errors import NoHaar

from conftest import (DOUBLES, GROUP_FILES, TOL, bundled_runs, data_path,
                      load_group, nullspace)

def matrix_unit_coseparability(dec) -> np.ndarray:
    """E(e^(a)_ij, e^(b)_kl) = d_ab d_il d_jk / n_a in the basis P of the
    matrix elements of dec's unitarized blocks, through P^{-1}."""
    cols, swap, weight = [], [], []
    for W, _ in dec.irreps:
        d = W.dim
        cols.append(W.rho.reshape(len(W.rho), d * d))
        # where each matrix element (j, i) of the block sits in P
        swap += list(len(swap) + np.arange(d * d).reshape(d, d).T.ravel())
        weight += [1.0 / d] * (d * d)
    Pinv = np.linalg.inv(np.concatenate(cols, axis=1))
    return (Pinv.T[:, swap] * weight) @ Pinv


def solved_haar(W: WeakHopfData) -> np.ndarray:
    """The Haar integral as the least-squares solution of its identities,
    stacked as one (2n^2 + 2n) x n system M, required consistent and with
    M of full column rank."""
    A, n = W.algebra, W.dim
    EL, ER = W.counit_target_maps()
    # L(e_i) - L(eps_L(e_i)) and R(e_i) - R(eps_R(e_i)), row blocks by i
    Ls = np.array([A.left_mult(e) for e in np.eye(n)])
    Rs = np.array([A.right_mult(e) for e in np.eye(n)])
    L = Ls - np.tensordot(EL, Ls, axes=(0, 0))
    R = Rs - np.tensordot(ER, Rs, axes=(0, 0))
    M = np.vstack((EL, ER, np.stack((L, R), axis=1).reshape(-1, n)))
    b = np.concatenate((A.unit, A.unit, np.zeros(2 * n * n)))
    lam, *_ = np.linalg.lstsq(M, b, rcond=None)
    assert np.abs(M @ lam - b).max() <= A.tol.eps_eig * 100
    assert nullspace(M, A.tol).shape[1] == 0
    return lam


def hopf_inputs() -> list[tuple[str, WeakHopfData]]:
    """C[G] as a Hopf algebra for every bundled group, and the doubles."""
    out = [(f"C[{g}]", group_weak_hopf(load_group(g))[0]) for g in GROUP_FILES]
    return out + [(f"D({g})", Run("double", data_path(g + ".json"), TOL, 0).W)
                  for g in DOUBLES]


@pytest.fixture(scope="module")
def coalgebras() -> list[tuple[str, FDStarCoalgebra]]:
    """dualize(A) for every bundled algebra, the bundled coalgebra, and the
    coalgebras of C[G] and D(G) with star S(c)*."""
    out = []
    for name, run in bundled_runs():
        out.append((name, run.C if run.A is None else dualize(run.A)))
    return out + [(name + " with S(c)*", W.coalgebra)
                  for name, W in hopf_inputs()]


def test_coseparability_idempotent_is_the_matrix_unit_form(coalgebras):
    for name, C in coalgebras:
        dec = compact_decompose(C)
        want = matrix_unit_coseparability(dec)
        assert np.abs(dec.E.matrix - want).max() <= 1e-14, name


def bundled_groupoids() -> list[tuple[str, WeakHopfData]]:
    groupoids = [(name, run.W) for name, run in bundled_runs()
                 if run.W is not None and name.startswith("groupoid")]
    assert len(groupoids) == 4
    return groupoids


def test_haar_integral_is_the_solved_one():
    """Groupoids, doubles, C[G] as a Hopf algebra, and the dual Hopf
    algebras `cqg_indicator` builds from their coalgebras, whose Haar
    integrals are read off the kept E of each dual algebra."""
    groupoids = bundled_groupoids()
    hopf, duals = hopf_inputs(), []
    for name, H in hopf:
        C = H.coalgebra
        _, dual, B = gamma_full(C, H.S.matrix, parts=compact_decompose(C).irreps)
        duals.append((f"dual of {name}",
                      WeakHopfData(B, dualize(H.algebra), dual.S)))
    for name, W in groupoids + hopf + duals:
        lam = W.haar_integral()
        assert np.abs(lam - solved_haar(W)).max() <= 1e-14, name


def test_the_co_star_is_the_dense_product():
    """c -> S(c)* is `A.star` of S's columns: on every groupoid, double and
    C[G] as a Hopf algebra, the dense sigma conj(S) bit for bit."""
    for name, W in bundled_groupoids() + hopf_inputs():
        A = W.algebra
        assert np.array_equal(W.coalgebra.star_matrix,
                              A.star_matrix @ np.conj(W.S.matrix)), name


def sweedler() -> WeakHopfData:
    """Sweedler's 4-dim Hopf algebra on the basis 1, g, x, gx (g^a x^b at
    a + 2b): g^2 = 1, x^2 = 0, xg = -gx, g* = g, x* = x,
    Delta(x) = x (x) 1 + g (x) x, eps(x) = 0, S(x) = -gx.  It is not
    semisimple: its regular trace form has rank 2 of 4, so it is not
    positive definite and A has no separability idempotent E to read the
    Haar integral off."""
    n = 4
    c = np.zeros((n, n, n), dtype=complex)
    for a, b, p, q in np.ndindex(2, 2, 2, 2):
        if b + q < 2:   # g^a x^b g^p x^q = (-1)^(bp) g^(a+p) x^(b+q)
            c[a + 2 * b, p + 2 * q, (a + p) % 2 + 2 * (b + q)] = (-1) ** (b * p)
    unit = np.eye(n)[0]
    star = np.diag([1, 1, 1, -1]).astype(complex)   # (gx)* = xg = -gx
    A = FDStarAlgebra(c, unit, star)
    S = np.zeros((n, n), dtype=complex)
    S[0, 0] = S[1, 1] = S[2, 3] = 1.0   # S(gx) = S(x) S(g) = -gxg = x
    S[3, 2] = -1.0
    Delta = np.zeros((n, n, n), dtype=complex)   # Delta[j, k, i]
    Delta[0, 0, 0] = Delta[1, 1, 1] = 1.0
    Delta[2, 0, 2] = Delta[1, 2, 2] = 1.0        # x (x) 1 + g (x) x
    Delta[3, 1, 3] = Delta[0, 3, 3] = 1.0        # gx (x) g + 1 (x) gx
    counit = np.array([1, 1, 0, 0], dtype=complex)
    return _weak_hopf(A, Delta.reshape(n * n, n), counit,
                      AntiAlgebraMap.validated(A, S))


def test_a_non_semisimple_hopf_algebra_has_no_haar_integral():
    W = sweedler()
    assert np.linalg.matrix_rank(W.algebra.of_products(
        W.algebra.regular_trace())) == 2
    with pytest.raises(NoHaar, match="^regular trace form is not positive "
                       "definite$"):
        W.haar_integral()


def test_a_haar_integral_that_fails_its_identities_raises():
    """A kept E replaced by 2E, unchecked, gives 2 Lam, with
    eps_L(2 Lam) = 2: the identities fail by 1."""
    W, _ = group_weak_hopf(load_group("s3"))
    A = W.algebra
    A.separability_idempotent = SeparabilityIdempotent(
        A, 2 * A.separability_idempotent.tensor)
    with pytest.raises(NoHaar, match=r"^Haar integral identities fail "
                       r"\(residual 1\.000e\+00, "):
        W.haar_integral()
