"""The coalgebra contractions against the einsum forms they replaced.

Each reference below is the earlier einsum form of one coalgebra check or
of the corepresentation indicator.  The indicator must agree with it to
1e-12; for one corrupted entry of E, the check must raise the same
exception with the same message.  A coalgebra is checked as its dual
algebra, and a corepresentation as its dual module: for one corrupted entry
of the coalgebra data or of a block's coefficients, it must raise the
error of that algebra or module for the axiom the einsum form reports
broken.
"""
import numpy as np
import pytest

import fsclass.algebra
import fsclass.coalgebra
import fsclass.constructors
import fsclass.indicators
import fsclass.reps
from fsclass import (AntiAlgebraMap, CoseparabilityIdempotent, FDStarAlgebra,
                     FDStarCoalgebra, Representation, SeparabilityIdempotent,
                     canonical_g, compact_decompose, corep_indicator,
                     decompose, drinfeld_double, dualize, dualize_co,
                     group_algebra, regular_representation)
from fsclass import io as fio
from fsclass.algebra import associator_residual
from fsclass.errors import (AxiomViolation, BadStar, FSClassError,
                            NotAssociative, NotStarRep, require)
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import dagger

from conftest import (COREP_CHECKS, DUAL_ERRORS, check_text, data_path,
                      delta_tensor, einsum_coalgebra, load_group,
                      m2_dual_structures)


def einsum_corep_indicator(C, V, varsigma, gamma_vec, E):
    """gamma(t_(2)) E(varsigma(t_(1)), t_(3)) through the n^3 array
    Delta^2(t)."""
    Dt = delta_tensor(C)
    T = np.einsum("i,imc,mab->abc", V.character(), Dt, Dt, optimize=True)
    return complex(np.einsum("abc,ma,mc,b->", T, varsigma, E.matrix,
                             gamma_vec, optimize=True))


def einsum_corep(C, coeff):
    d = coeff.shape[0]
    eps = TOL.eps_eig * max(1, d) * max(1.0, np.abs(coeff).max()) ** 2
    lhs = np.einsum("ijm,mab->ijab", coeff, delta_tensor(C))
    rhs = np.einsum("ika,kjb->ijab", coeff, coeff)
    if np.abs(lhs - rhs).max() > eps:
        return "Delta(c_ij) != sum_k c_ik (x) c_kj"
    if np.abs(coeff @ C.counit - np.eye(d)).max() > eps:
        return "eps(c_ij) != delta_ij"
    # (c_ij)* = star_matrix conj(c_ij) at (j, i)
    star = np.einsum("mk,ijk->jim", C.star_matrix, np.conj(coeff))
    if np.abs(star - coeff).max() > eps:
        return "c_ij* != c_ji"
    return None


def einsum_coseparability(C, E):
    Dt = delta_tensor(C)
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


def assert_same(expected, fn, *args, error=AxiomViolation):
    assert expected is not None, "corruption did not break the identity"
    with pytest.raises(error) as info:
        fn(*args)
    assert check_text(str(info.value)) == expected


def coseparability(C, E):
    """E as the coseparability idempotent of C: a separability idempotent
    of its dual algebra."""
    return CoseparabilityIdempotent(C, SeparabilityIdempotent(C.algebra, E))


def assert_refused_as_module(C, coeff):
    """The dual module of the corepresentation with matrix elements coeff
    fails the check of the module that COREP_CHECKS gives for the axiom
    `einsum_corep` reports broken."""
    assert_same(COREP_CHECKS.get(einsum_corep(C, coeff)), Representation,
                C.algebra, coeff.transpose(2, 0, 1), error=NotStarRep)


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
    assert_same(expected, coseparability(C, E).verify)
    # the kept E of an equal coalgebra given directly is not an idempotent
    # of C's own dual algebra
    direct = FDStarCoalgebra(C.Delta, C.counit, C.star_matrix)
    with pytest.raises(AxiomViolation, match="^E is not an idempotent of "
                       "the dual algebra of C$"):
        CoseparabilityIdempotent(
            C, direct.algebra.separability_idempotent).verify()
    for seed, (name, (C, _, cd)) in enumerate(decomposed.items()):
        assert einsum_coseparability(C, cd.E.matrix) is None
        for pos in _positions(cd.E.matrix.shape, 6, seed=20 + seed):
            for delta in (0.5, 1e-3j):
                E = cd.E.matrix.copy()
                E[pos] += delta
                assert_same(einsum_coseparability(C, E),
                            coseparability(C, E).verify)


def test_an_asymmetric_coseparability_idempotent_is_refused():
    """On the dual of M2 (data/m2_algebra.json, e_ij at 2i + j), E_w =
    sum_ipq w_pq e_ip (x) e_qi is a separability idempotent of M2 for
    every w of trace 1, so its counit and centrality residuals are 0.  With
    w = [[1/2, 1/4], [0, 1/2]] it fails the symmetry E(c*, d*) =
    conj(E(d, c)) by |w_01 - w_10| = 1/4, before positivity is read; with
    w = e_11 it is symmetric and fails positivity instead."""
    d = fio.load_algebra_v1(data_path("m2_algebra.json"))
    C = dualize(FDStarAlgebra(d["structure"], d["unit"], d["star"]))
    i, p, q = np.indices((2, 2, 2)).reshape(3, -1)
    for w, text, residual in (
            ([[0.5, 0.25], [0, 0.5]], "E(c*, d*) != conj(E(d, c))",
             "2.500e-01"),
            ([[1, 0], [0, 0]], "compactness form E(c*, c) is not positive",
             "-0.000e+00")):
        E = np.zeros((4, 4), dtype=complex)
        np.add.at(E, (2 * i + p, 2 * q + i), np.asarray(w)[p, q])
        cosep = coseparability(C, E)
        unit_gap, central = cosep.idempotent.residuals
        assert unit_gap == 0 and not central.any()
        with pytest.raises(AxiomViolation) as info:
            cosep.verify()
        assert check_text(str(info.value)) == text
        assert f"(residual {residual}," in str(info.value)


def test_corepresentation_reports_the_einsum_message(decomposed):
    for seed, (name, (C, _, cd)) in enumerate(decomposed.items()):
        for block in cd.blocks:
            coeff = block.rho.transpose(1, 2, 0)   # c_ij[m] = rho(e_m)[i, j]
            assert einsum_corep(C, coeff) is None
            # zero matrix elements are multiplicative but not counital
            zero = np.zeros_like(coeff)
            assert einsum_corep(C, zero) == "eps(c_ij) != delta_ij"
            assert_refused_as_module(C, zero)
            for pos in _positions(coeff.shape, 3, seed=30 + seed):
                bad = coeff.copy()
                bad[pos] += 0.5
                assert_refused_as_module(C, bad)
            if block.dim > 1:
                # a non-unitary P keeps a corepresentation (Delta and eps
                # hold) but breaks c_ij* = c_ji
                P = np.eye(block.dim)
                P[0, -1] = 2.0
                bent = (np.linalg.inv(P) @ block.rho @ P).transpose(1, 2, 0)
                assert einsum_corep(C, bent) == "c_ij* != c_ji"
                assert_refused_as_module(C, bent)


def _coalgebra_data():
    """(Delta, counit, star) of the bundled M2 coalgebra and of the dual of
    C[S3], passed straight to FDStarCoalgebra."""
    co = fio.load_coalgebra_v1(data_path("m2_coalgebra.json"))
    C = dualize(group_algebra(load_group("s3"))[0])
    return [(np.asarray(co["Delta"], dtype=complex).reshape(16, 4),
             np.asarray(co["counit"], dtype=complex),
             np.asarray(co["star"], dtype=complex).reshape(4, 4)),
            (C.Delta.copy(), C.counit.copy(), C.star_matrix.copy())]


def assert_fails_as_its_dual_algebra(Delta, counit, star):
    """FDStarCoalgebra(Delta, counit, star) raises the type and message of
    FDStarAlgebra(Delta.reshape(n, n, n), counit, dagger(star)), the error
    DUAL_ERRORS gives for the failure the einsum reference reports."""
    reported = einsum_coalgebra(Delta, counit, star)
    assert reported is not None, "corruption did not break the identity"
    n = len(counit)
    with pytest.raises(FSClassError) as want:
        FDStarAlgebra(np.asarray(Delta).reshape(n, n, n), counit, dagger(star))
    assert type(want.value) is DUAL_ERRORS[reported]
    with pytest.raises(type(want.value)) as got:
        FDStarCoalgebra(Delta, counit, star)
    assert str(got.value) == str(want.value)


def test_coalgebra_given_directly_fails_as_its_dual_algebra():
    # Delta(x) = a (x) x and x (x) a on span{a, b} are coassociative, and
    # eps = (1, 0) is a counit on one side only
    left, right = np.zeros((4, 2)), np.zeros((4, 2))
    left[[0, 1], [0, 1]] = right[[0, 2], [0, 1]] = 1.0
    for Delta in (left, right):
        assert einsum_coalgebra(Delta, np.array([1.0, 0.0]),
                                np.eye(2)) == "counit law fails"
        assert_fails_as_its_dual_algebra(Delta, np.array([1.0, 0.0]),
                                         np.eye(2))
    for seed, (Delta, counit, star) in enumerate(_coalgebra_data()):
        assert einsum_coalgebra(Delta, counit, star) is None
        FDStarCoalgebra(Delta, counit, star)
        for pos in _positions(counit.shape, 3, seed=40 + seed):
            bad = counit.copy()
            bad[pos] += 0.5
            assert_fails_as_its_dual_algebra(Delta, bad, star)
        for pos in _positions(Delta.shape, 6, seed=50 + seed):
            bad = Delta.copy()
            bad[pos] += 0.5
            assert_fails_as_its_dual_algebra(bad, counit, star)
        for pos in _positions(star.shape, 3, seed=60 + seed):
            bad = star.copy()
            bad[pos] += 0.5
            assert_fails_as_its_dual_algebra(Delta, counit, bad)


def test_corrupted_delta_given_directly_is_not_coassociative():
    # dualize reads coassociativity off the algebra it was given; a Delta
    # handed to FDStarCoalgebra itself is measured by the associativity
    # check of the dual algebra it is stored as
    for Delta, counit, star in _coalgebra_data():
        n = len(counit)
        bad = Delta.copy()
        bad[n + 1, 0] += 0.5
        assert associator_residual(bad.reshape(n, n, n))[0] > 0.1
        with pytest.raises(NotAssociative):
            FDStarCoalgebra(bad, counit, star)


def _counted_requires(monkeypatch) -> list:
    """Every later `require` call of the package, in order."""
    calls = []

    def counted(*args):
        calls.append(args)
        return require(*args)
    for module in (fsclass.algebra, fsclass.coalgebra, fsclass.constructors,
                   fsclass.indicators, fsclass.reps):
        monkeypatch.setattr(module, "require", counted)
    return calls


def test_dualize_reuses_the_associativity_residual(monkeypatch):
    coalgebras = _coalgebras()
    assert coalgebras["C[S3] rebased"][0].associativity_residual > 0
    checks = _counted_requires(monkeypatch)
    for A, _ in coalgebras.values():
        C = dualize(A)
        assert C.algebra is A and dualize_co(C) is A
        n = C.dim
        assert associator_residual(C.Delta.reshape(n, n, n))[0] == \
            A.associativity_residual
    assert checks == []


def einsum_star_reversal(C):
    """max |Delta(e_a*) - (e_a(2))* (x) (e_a(1))*| from the einsum forms of
    `einsum_coalgebra`."""
    Dt, st = delta_tensor(C), C.star_matrix
    lhs = np.einsum("ij,iab->jab", st, Dt)
    rhs = np.einsum("pb,iab,qa->ipq", st, np.conj(Dt), st)
    return float(np.abs(lhs - rhs).max())


def test_dualize_reuses_the_star_reversal_residual(monkeypatch):
    # D(S3) (index table), C[Q8] on a complex unitary basis (dense, with a
    # non-real star) and M2
    q8, d_q8 = group_algebra(load_group("q8"))
    z = np.random.default_rng(12).standard_normal((8, 8, 2)) @ [1, 1j]
    q8u = _rebased(q8, d_q8.S, np.linalg.qr(z)[0])[0]
    assert np.abs(q8u.star_matrix.imag).max() > 0.1 and q8u.table is None
    algebras = (drinfeld_double(load_group("s3"))[0].algebra, q8u,
                m2_dual_structures()[0])
    checks = _counted_requires(monkeypatch)
    for A in algebras:
        C = dualize(A)
        assert C.algebra is A
        assert abs(einsum_star_reversal(C) - A.star_reversal_residual) <= 1e-14
    assert checks == []


def test_a_star_that_does_not_reverse_delta_given_directly_is_bad_star():
    # C[S3] with (e_g)* = -e_g at an involution g: sigma stays involutive,
    # (ab)* = b* a* fails by 2.  The same data given directly as a
    # coalgebra, at the default tolerance, fails the star-reversal check of
    # its dual algebra with that residual, as the einsum form does
    G = load_group("s3")
    A = group_algebra(G)[0]
    g = next(g for g in range(1, G.order) if G.inverse[g] == g)
    sig = A.star_matrix.copy()
    sig[g, g] = -1.0
    n = A.dim
    Delta, star = A.structure.reshape(n * n, n), np.conj(sig).T
    assert einsum_coalgebra(Delta, A.unit, star) == \
        "star does not reverse the comultiplication"
    with pytest.raises(BadStar, match=r"\(residual 2\.000e\+00, threshold"):
        FDStarCoalgebra(Delta, A.unit, star)
