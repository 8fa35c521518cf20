"""The coalgebra contractions against the einsum forms they replaced.

Each reference below is the earlier einsum form of one coalgebra check or
of the corepresentation indicator.  The indicator must agree with it to
1e-12; for one corrupted entry of E, of a block's coefficients or of the
coalgebra data, the check must raise the same exception with the same
message.
"""
import numpy as np
import pytest

from fsclass import (AntiAlgebraMap, CoseparabilityIdempotent,
                     Corepresentation, FDStarAlgebra, FDStarCoalgebra,
                     canonical_g, compact_decompose, corep_indicator,
                     decompose, drinfeld_double, dualize, dualize_co,
                     group_algebra, regular_representation)
from fsclass import io as fio
from fsclass.algebra import associator_residual
from fsclass.errors import AxiomViolation
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import Tolerance

from conftest import check_text, data_path, load_group, m2_dual_structures


def einsum_corep_indicator(C, V, varsigma, gamma_vec, E):
    """gamma(t_(2)) E(varsigma(t_(1)), t_(3)) through the n^3 array
    Delta^2(t)."""
    Dt = C.delta_tensor()
    T = np.einsum("i,imc,mab->abc", V.character(), Dt, Dt, optimize=True)
    return complex(np.einsum("abc,ma,mc,b->", T, varsigma, E.matrix,
                             gamma_vec, optimize=True))


def einsum_coalgebra(Delta, counit, star):
    n = len(counit)
    Dt = Delta.T.reshape(n, n, n)
    eps = TOL.eps_eig * max(1, n) * max(1.0, np.abs(Dt).max()) ** 2
    coas1 = np.einsum("imc,mab->iabc", Dt, Dt)
    coas2 = np.einsum("iam,mbc->iabc", Dt, Dt)
    if np.abs(coas1 - coas2).max() > eps:
        return "comultiplication is not coassociative"
    eye = np.eye(n)
    if np.abs(np.einsum("j,ijk->ik", counit, Dt) - eye).max() > eps or \
            np.abs(np.einsum("k,ijk->ij", counit, Dt) - eye).max() > eps:
        return "counit law fails"
    if np.abs(star @ np.conj(star) - eye).max() > eps:
        return "coalgebra star is not involutive"
    lhs = np.einsum("ij,iab->jab", star, Dt)
    rhs = np.einsum("pb,iab,qa->ipq", star, np.conj(Dt), star)
    if np.abs(lhs - rhs).max() > eps:
        return "star does not reverse the comultiplication"
    return None


def einsum_corep(C, coeff):
    d = coeff.shape[0]
    eps = TOL.eps_eig * max(1, d) * max(1.0, np.abs(coeff).max()) ** 2
    lhs = np.einsum("ijm,mab->ijab", coeff, C.delta_tensor())
    rhs = np.einsum("ika,kjb->ijab", coeff, coeff)
    if np.abs(lhs - rhs).max() > eps:
        return "Delta(c_ij) != sum_k c_ik (x) c_kj"
    if np.abs(coeff @ C.counit - np.eye(d)).max() > eps:
        return "eps(c_ij) != delta_ij"
    return None


def einsum_coseparability(C, E):
    Dt = C.delta_tensor()
    eps = TOL.eps_eig * 100 * max(1.0, np.abs(E).max())
    if np.abs(np.einsum("ijk,jk->i", Dt, E) - C.counit).max() > eps:
        return "E(c_(1), c_(2)) != eps(c)"
    lhs = np.einsum("iak,kd->ida", Dt, E)
    rhs = np.einsum("dpa,ip->ida", Dt, E)
    if np.abs(lhs - rhs).max() > eps:
        return "coseparability centrality identity fails"
    st = C.star_matrix
    if np.abs(st.T @ E @ st - np.conj(E).T).max() > eps:
        return "E(c*, d*) != conj(E(d, c))"
    Q = st.T @ E
    Q = (Q + Q.conj().T) / 2.0
    if np.linalg.eigvalsh(Q).min() <= TOL.eps_eig * max(1.0, np.abs(Q).max()):
        return "compactness form E(c*, c) is not positive"
    return None


def assert_same(expected, fn, *args):
    assert expected is not None, "corruption did not break the identity"
    with pytest.raises(AxiomViolation) as info:
        fn(*args)
    assert check_text(str(info.value)) == expected


def _positions(shape, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(count)]


def _with_canonical_g(A, S):
    return A, canonical_g(A, S, [V for V, _ in
                                 decompose(regular_representation(A))])


def _rebased(A, S, P):
    """A and S on the basis f_j = sum_i P[i, j] e_i."""
    Pinv = np.linalg.inv(P)
    c = np.einsum("ia,jb,ijk,ck->abc", P, P, A.structure, Pinv, optimize=True)
    B = FDStarAlgebra(c, Pinv @ A.unit, Pinv @ A.star_matrix @ np.conj(P))
    return B, AntiAlgebraMap.validated(B, Pinv @ S.matrix @ P)


def _coalgebras():
    """name -> (algebra, dual structure) for D(S3), C[Q8], the twisted real
    dual structure of M2 and C[S3] on a seeded non-orthogonal basis, where
    varsigma is not symmetric and the associativity residual is not 0."""
    W, d_s3 = drinfeld_double(load_group("s3"))
    q8, d_q8 = group_algebra(load_group("q8"))
    M2, _, S2 = m2_dual_structures()
    s3, d = group_algebra(load_group("s3"))
    P = np.eye(6) + 0.3 * np.random.default_rng(11).standard_normal((6, 6))
    return {"D(S3)": (W.algebra, d_s3), "C[Q8]": (q8, d_q8),
            "M2": _with_canonical_g(M2, S2),
            "C[S3] rebased": _with_canonical_g(*_rebased(s3, d.S, P))}


@pytest.fixture(scope="module")
def decomposed():
    out = {}
    for name, (A, dual) in _coalgebras().items():
        C = dualize(A)
        parts = decompose(regular_representation(A))
        out[name] = (C, dual, compact_decompose(C, parts=parts))
    return out


def test_corep_indicator_matches_the_delta_squared_einsum(decomposed):
    for name, (C, dual, cd) in decomposed.items():
        vs = dual.S.matrix.T
        for block in cd.blocks:
            got = corep_indicator(C, block, vs, dual.g, cd.E)
            want = einsum_corep_indicator(C, block, vs, dual.g, cd.E)
            assert abs(got - want) <= 1e-12, name
            assert abs(got - round(got)) <= 1e-9, name


def test_coseparability_verify_reports_the_einsum_message(decomposed):
    # on the matrix coalgebra M2* (basis e_ij at 2i + j), E(e_ij, e_kl) =
    # d_il d_jk d_j0 satisfies the counit and centrality identities but is
    # not symmetric: it fails first at positivity, and only there
    C = decomposed["M2"][0]
    E = np.zeros((4, 4), dtype=complex)
    E[0, 0] = E[2, 1] = 1.0
    expected = einsum_coseparability(C, E)
    assert expected == "compactness form E(c*, c) is not positive"
    assert_same(expected, CoseparabilityIdempotent(C, E).verify)
    for seed, (name, (C, _, cd)) in enumerate(decomposed.items()):
        assert einsum_coseparability(C, cd.E.matrix) is None
        for pos in _positions(cd.E.matrix.shape, 6, seed=20 + seed):
            for delta in (0.5, 1e-3j):
                E = cd.E.matrix.copy()
                E[pos] += delta
                assert_same(einsum_coseparability(C, E),
                            CoseparabilityIdempotent(C, E).verify)


def test_corepresentation_reports_the_einsum_message(decomposed):
    for seed, (name, (C, _, cd)) in enumerate(decomposed.items()):
        for block in cd.blocks:
            assert einsum_corep(C, block.coeff) is None
            # zero matrix elements are multiplicative but not counital
            zero = np.zeros_like(block.coeff)
            assert einsum_corep(C, zero) == "eps(c_ij) != delta_ij"
            assert_same(einsum_corep(C, zero), Corepresentation, C, zero)
            for pos in _positions(block.coeff.shape, 3, seed=30 + seed):
                coeff = block.coeff.copy()
                coeff[pos] += 0.5
                assert_same(einsum_corep(C, coeff), Corepresentation, C, coeff)


def _coalgebra_data():
    """(Delta, counit, star) of the bundled M2 coalgebra and of the dual of
    C[S3], passed straight to FDStarCoalgebra."""
    co = fio.load_coalgebra_v1(data_path("m2_coalgebra.json"))
    C = dualize(group_algebra(load_group("s3"))[0])
    return [(np.asarray(co["Delta"], dtype=complex).reshape(16, 4),
             np.asarray(co["counit"], dtype=complex),
             np.asarray(co["star"], dtype=complex).reshape(4, 4)),
            (C.Delta.copy(), C.counit.copy(), C.star_matrix.copy())]


def test_coalgebra_reports_the_einsum_message():
    # Delta(x) = a (x) x and x (x) a on span{a, b} are coassociative, and
    # eps = (1, 0) is a counit on one side only
    left, right = np.zeros((4, 2)), np.zeros((4, 2))
    left[[0, 1], [0, 1]] = right[[0, 2], [0, 1]] = 1.0
    for Delta in (left, right):
        expected = einsum_coalgebra(Delta, np.array([1.0, 0.0]), np.eye(2))
        assert expected == "counit law fails"
        assert_same(expected, FDStarCoalgebra, Delta, [1.0, 0.0], np.eye(2))
    for seed, (Delta, counit, star) in enumerate(_coalgebra_data()):
        assert einsum_coalgebra(Delta, counit, star) is None
        FDStarCoalgebra(Delta, counit, star)
        for pos in _positions(counit.shape, 3, seed=40 + seed):
            bad = counit.copy()
            bad[pos] += 0.5
            assert_same(einsum_coalgebra(Delta, bad, star),
                        FDStarCoalgebra, Delta, bad, star)
        for pos in _positions(Delta.shape, 6, seed=50 + seed):
            bad = Delta.copy()
            bad[pos] += 0.5
            assert_same(einsum_coalgebra(bad, counit, star),
                        FDStarCoalgebra, bad, counit, star)
        for pos in _positions(star.shape, 3, seed=60 + seed):
            bad = star.copy()
            bad[pos] += 0.5
            assert_same(einsum_coalgebra(Delta, counit, bad),
                        FDStarCoalgebra, Delta, counit, bad)


def test_corrupted_delta_given_directly_is_not_coassociative():
    # dualize reads coassociativity off the algebra it was given; a Delta
    # handed to FDStarCoalgebra itself is still measured
    for Delta, counit, star in _coalgebra_data():
        n = len(counit)
        bad = Delta.copy()
        bad[n + 1, 0] += 0.5
        assert associator_residual(bad.reshape(n, n, n))[0] > 0.1
        with pytest.raises(AxiomViolation,
                           match="comultiplication is not coassociative"):
            FDStarCoalgebra(bad, counit, star)


def test_dualize_reuses_the_associativity_residual():
    coalgebras = _coalgebras()
    assert coalgebras["C[S3] rebased"][0].associativity_residual > 0
    for A, _ in coalgebras.values():
        C = dualize(A)
        measured = FDStarCoalgebra._coassociativity_residual(C)
        assert C._coassociativity_residual() == A.associativity_residual
        assert dualize_co(C) is A
        assert measured == associator_residual(A.structure)[0]
        assert measured == A.associativity_residual


def einsum_star_reversal(C):
    """max |Delta(e_a*) - (e_a(2))* (x) (e_a(1))*| from the einsum forms of
    `einsum_coalgebra`."""
    Dt, st = C.delta_tensor(), C.star_matrix
    lhs = np.einsum("ij,iab->jab", st, Dt)
    rhs = np.einsum("pb,iab,qa->ipq", st, np.conj(Dt), st)
    return float(np.abs(lhs - rhs).max())


def test_dualize_reuses_the_star_reversal_residual():
    # D(S3) (index table), C[Q8] on a complex unitary basis (dense, with a
    # non-real star) and M2
    q8, d_q8 = group_algebra(load_group("q8"))
    z = np.random.default_rng(12).standard_normal((8, 8, 2)) @ [1, 1j]
    q8u = _rebased(q8, d_q8.S, np.linalg.qr(z)[0])[0]
    assert np.abs(q8u.star_matrix.imag).max() > 0.1 and q8u.table is None
    for A in (drinfeld_double(load_group("s3"))[0].algebra, q8u,
              m2_dual_structures()[0]):
        C = dualize(A)
        want = einsum_star_reversal(C)
        assert C._star_reversal_residual() == A.star_reversal_residual
        assert abs(A.star_reversal_residual - want) <= 1e-14
        assert abs(FDStarCoalgebra._star_reversal_residual(C) - want) <= 1e-14


def test_dualize_rejects_the_star_the_loose_algebra_accepts():
    # C[S3] with (e_g)* = -e_g at an involution g: sigma stays involutive,
    # (ab)* = b* a* fails by 2, which an algebra built with eps_rank = 0.5
    # accepts; the dual coalgebra compares the same residual with its own
    # threshold, as the einsum form does
    G = load_group("s3")
    A = group_algebra(G)[0]
    g = next(g for g in range(1, G.order) if G.inverse[g] == g)
    sig = A.star_matrix.copy()
    sig[g, g] = -1.0
    B = FDStarAlgebra(A.structure, A.unit, sig, Tolerance(eps_rank=0.5))
    assert B.star_reversal_residual == 2.0
    n = B.dim
    expected = einsum_coalgebra(B.structure.reshape(n * n, n), B.unit,
                                np.conj(sig).T)
    assert expected == "star does not reverse the comultiplication"
    assert_same(expected, dualize, B)
