import numpy as np
import pytest

from fsclass import (Representation, compact_decompose, corep_indicator,
                     cqg_indicator, decompose, drinfeld_double, dualize,
                     dualize_co, group_algebra, group_weak_hopf,
                     regular_representation)
from fsclass.coalgebra import FDStarCoalgebra, gamma_full
from fsclass.errors import (AxiomViolation, BadVarsigma, NotCompact, NotHopf,
                            NotStarRep)
from fsclass.reps import hom_residual

from conftest import (GROUP_FILES, build_m2, count_centrality_kernels,
                      data_path, delta_tensor, load_group)
from test_kernels import invariant_gram


def group_coalgebra(name):
    A, dual = group_algebra(load_group(name))
    return A, dual, dualize(A)


def test_dualize_round_trip():
    A = build_m2()
    C = dualize(A)
    B = dualize_co(C)
    assert np.allclose(B.structure, A.structure)
    assert np.allclose(B.unit, A.unit)
    assert np.allclose(B.star_matrix, A.star_matrix)


def test_dualize_co_is_built_once_per_coalgebra():
    """A coalgebra given directly keeps its dual algebra, so a decomposition
    of it is accepted as parts, and the dense cap holds as for algebras."""
    C0 = dualize(build_m2())
    C = FDStarCoalgebra(C0.Delta, C0.counit, C0.star_matrix)
    B = dualize_co(C)
    assert dualize_co(C) is B
    dec = compact_decompose(C, parts=decompose(regular_representation(B)))
    assert len(dec.blocks) == 1
    with pytest.raises(ValueError, match="exceeds the dense cap 128"):
        FDStarCoalgebra(np.zeros(0), np.zeros(129), np.zeros(0))


def test_group_coalgebra_delta_sums_over_factorizations():
    """On the dual of C[Z3], Delta(e_g) = sum_(hk = g) e_h (x) e_k: the
    transpose of the product, read off the group table."""
    G = load_group("z3")
    A, _, C = group_coalgebra("z3")
    Dt = delta_tensor(C)   # Dt[g, h, k]: coefficient of e_h (x) e_k
    for g in range(3):
        expect = (G.table == g).astype(float)
        assert np.array_equal(Dt[g], expect), g


def test_compact_decompose_blocks_partition_dimension():
    A, _, C = group_coalgebra("s3")
    dec = compact_decompose(C)
    dims = sorted(b.dim for b in dec.blocks)
    assert dims == [1, 1, 2]
    assert sum(d * d for d in dims) == 6
    dec.E.verify()


def test_compact_decompose_rejects_non_compact():
    # C[Z3] with the identity star is a valid *-algebra (abelian) whose
    # trace form is indefinite, so its dual coalgebra is not compact
    from fsclass import FDStarAlgebra, cyclic_group
    G = cyclic_group(3)
    c = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            c[i, j, G.table[i, j]] = 1.0
    unit = np.array([1.0, 0, 0], dtype=complex)
    A = FDStarAlgebra(c, unit, np.eye(3))
    with pytest.raises(NotCompact):
        compact_decompose(dualize(A))


def test_compact_decompose_reuses_the_algebra_decomposition():
    for A in (drinfeld_double(load_group("s3"))[0].algebra,
              group_algebra(load_group("q8"))[0]):
        C = dualize(A)
        fresh = compact_decompose(C, seed=3)
        given = compact_decompose(
            C, parts=decompose(regular_representation(A), seed=3))
        assert len(given.blocks) == len(fresh.blocks)
        for a, b in zip(given.blocks, fresh.blocks):
            np.testing.assert_array_equal(a.rho, b.rho)
        np.testing.assert_array_equal(given.E.matrix, fresh.E.matrix)


@pytest.mark.parametrize("of, on", [("s3", "z6"), ("q8", "d4"),
                                    ("z6", "s3"), ("z3", "s3"), ("s3", "s3")])
def test_compact_decompose_rejects_parts_of_another_algebra(of, on):
    # the parts must decompose the dual algebra of C itself; C[Q8] and C[D4]
    # share dimension and irrep dimensions, C[Z3] has the wrong dimension, and
    # a second C[S3] is equal data but not the algebra C was built from
    A, B = (group_algebra(load_group(name))[0] for name in (of, on))
    parts = decompose(regular_representation(A))
    with pytest.raises(AxiomViolation):
        compact_decompose(dualize(B), parts=parts)


def test_corepresentation_character_pairs_with_counit():
    A, _, C = group_coalgebra("z4")
    dec = compact_decompose(C)
    for b in dec.blocks:
        t = b.character()
        assert np.isclose(C.counit @ t, b.dim)


def test_corep_indicators_match_algebra_side_q8():
    G = load_group("q8")
    A, dual = group_algebra(G)
    parts = decompose(regular_representation(A))
    from fsclass import full_report
    rows = full_report(A, dual, parts, A.separability_idempotent).rows
    C = dualize(A)
    dec = compact_decompose(C)
    vs = dual.S.matrix.T
    gam = gamma_full(C, vs)[0]
    got = [round(corep_indicator(C, b, vs, gam, dec.E)) for b in dec.blocks]
    assert sorted(got) == sorted(r.sigma for r in rows)


def test_gamma_rejects_non_anti_map():
    A, dual, C = group_coalgebra("z3")
    with pytest.raises(BadVarsigma):
        gamma_full(C, np.diag([1.0, 2.0, 3.0]))


def test_cqg_indicator_sign_pattern_z4():
    G = load_group("z4")
    W, dual = group_weak_hopf(G)
    dec = compact_decompose(W.coalgebra)
    # h(t_(1) t_(2)) detects whether the group element squares to the
    # identity; for the dual of C[Z4] the coreps are the points of Z4
    vals = sorted(cqg_indicator(W, dec))
    assert np.allclose(vals, [0.0, 0.0, 1.0, 1.0])
    # a decomposition of another coalgebra, dualize(C[Z4]), is refused
    with pytest.raises(AxiomViolation):
        cqg_indicator(W, compact_decompose(dualize(W.algebra)))


def test_cqg_indicator_double_s3_reuses_the_decomposition(monkeypatch):
    """One value per block of D(S3)'s coalgebra, 6 x 0 and 12 x 1, from
    the decomposition it is given: decompose is not called again."""
    import fsclass.coalgebra
    W, _ = drinfeld_double(load_group("s3"))
    dec = compact_decompose(W.coalgebra)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose called although dec was given")
    monkeypatch.setattr(fsclass.coalgebra, "decompose", refuse)
    vals = cqg_indicator(W, dec)
    assert len(vals) == len(dec.blocks) == 18
    assert np.allclose(sorted(vals), [0.0] * 6 + [1.0] * 12, atol=1e-9)


def test_weak_hopf_data_checks_each_associativity_once(monkeypatch):
    """drinfeld_double(Q8) checks associativity twice, for A and for the
    dual algebra its coalgebra is stored as, and W.coalgebra checks
    nothing more.  cqg_indicator on D(S3) checks none: the dual Hopf
    algebra it reads a Haar integral from keeps A as its coalgebra."""
    import fsclass.algebra
    calls = []
    residual = fsclass.algebra.associator_residual
    monkeypatch.setattr(fsclass.algebra, "associator_residual",
                        lambda *args: calls.append(1) or residual(*args))
    W, _ = drinfeld_double(load_group("q8"))
    assert W.coalgebra.dim == 64
    assert len(calls) == 2
    W, _ = drinfeld_double(load_group("s3"))
    dec = compact_decompose(W.coalgebra)
    calls.clear()
    cqg_indicator(W, dec)
    assert calls == []


def test_cqg_indicator_requires_hopf():
    from fsclass import groupoid_weak_hopf, pair_groupoid
    W, _ = groupoid_weak_hopf(pair_groupoid(2))
    C = dualize(W.algebra)
    dec = compact_decompose(C)
    with pytest.raises(NotHopf):
        cqg_indicator(W, dec)


def test_each_block_is_a_unitary_star_rep_of_the_dual_algebra():
    # a block is a corepresentation stored as its dual module: a checked
    # *-representation of dualize_co(C) whose invariant gram is a positive
    # multiple of the identity, and a homomorphism on all n^2 products
    A, _, C = group_coalgebra("s3")
    dec = compact_decompose(C)
    assert dec.blocks == [W for W, _ in dec.irreps]
    for b in dec.blocks:
        assert b.algebra is dualize_co(C)
        assert hom_residual(b.rho, b.algebra.of_products) < 1e-12
        np.testing.assert_array_equal(b.gram, np.eye(b.dim))
        H = invariant_gram(b.algebra, b.rho)
        assert np.allclose(H / H[0, 0], np.eye(b.dim), atol=1e-12)


def test_invariant_gram_of_a_non_unitary_irrep():
    # conjugating the unitary 2-dim irrep of C[S3] by a non-unitary P moves
    # its invariant gram from I to P^dagger P, up to a positive scale
    A = group_algebra(load_group("s3"))[0]
    V = next(V for V, _ in decompose(regular_representation(A)) if V.dim == 2)
    P = np.array([[1.0, 2.0 + 1.0j], [0.0, 0.5]])
    H = invariant_gram(A, np.linalg.inv(P) @ V.rho @ P)
    want = P.conj().T @ P
    assert np.allclose(H / np.trace(H), want / np.trace(want), atol=1e-12)


def test_compact_decompose_checks_the_star_of_each_block(monkeypatch):
    # decompose's parts have the identity gram and are their own blocks,
    # checked where they were built and not again.  A part W = P^-1 V P of
    # the 2-dim irreducible V of C[S3], with its invariant gram P^dagger P,
    # is unitarized back into V, and that new block is checked as it is
    # built: given a rho_u that is still a homomorphism (so a
    # corepresentation) but not a *-representation, it is refused.  A gram
    # that is not invariant is refused where the part is built.
    A = group_algebra(load_group("s3"))[0]
    parts = decompose(regular_representation(A))
    V, mult = parts[-1]
    assert V.dim == 2
    with pytest.raises(NotStarRep, match=r"rho\(a\)\^dagger H"):
        Representation(A, V.rho, np.diag([1.0, 4.0]))
    P = np.diag([1.0, 2.0])
    W = Representation(A, np.linalg.inv(P) @ V.rho @ P, P.T @ P)
    built = []
    validate = Representation._validate
    monkeypatch.setattr(Representation, "_validate",
                        lambda self: built.append(self) or validate(self))
    assert compact_decompose(dualize(A), parts=parts).blocks == \
        [U for U, _ in parts] and built == []
    blocks = compact_decompose(dualize(A),
                               parts=parts[:-1] + [(W, mult)]).blocks
    assert blocks[:-1] == [U for U, _ in parts[:-1]] and built == blocks[-1:]
    assert np.abs(blocks[-1].rho - V.rho).max() < 1e-12
    W.compressed = lambda *_: np.linalg.inv(P) @ V.rho @ P
    with pytest.raises(NotStarRep, match=r"rho\(a\)\^dagger H"):
        compact_decompose(dualize(A), parts=parts[:-1] + [(W, mult)])


def test_parts_must_all_decompose_the_dual_algebra():
    # every part's algebra is checked, not only the first's, and an empty
    # list is refused, by compact_decompose and gamma_full alike
    A, dual, C = group_coalgebra("s3")
    parts = decompose(regular_representation(A))
    B = group_algebra(load_group("s3"))[0]   # equal to A, another object
    other = decompose(regular_representation(B))
    assert other[0][0].algebra is not A
    for bad in ([], parts[:1] + other[1:]):
        with pytest.raises(AxiomViolation,
                           match="parts do not decompose the dual algebra"):
            compact_decompose(C, parts=bad)
        with pytest.raises(AxiomViolation,
                           match="parts do not decompose the dual algebra"):
            gamma_full(C, dual.S.matrix.T, parts=bad)


@pytest.mark.parametrize("name", GROUP_FILES)
def test_sum_of_corep_indicators_is_the_trace_of_the_antipode(name):
    # the coalgebra side of Linchenko-Montgomery: sum_V nu(V) dim V = Tr(S)
    # over the irreducible corepresentations of C[G]* and, for |G| <= 8,
    # of D(G)*; nu(V) as `fsclass duality` computes it
    G = load_group(name)
    t, inv, n = G.table, G.inverse, G.order
    A, dual = group_algebra(G)
    algebras = [(A, dual, sum(t[g, g] == 0 for g in range(n)))]
    if n <= 8:
        W, dual_d = drinfeld_double(G)
        fixed = sum(t[h, h] == 0 and t[t[h, g], h] == inv[g]
                    for g in range(n) for h in range(n))
        algebras.append((W.algebra, dual_d, fixed))
    for A, dual, trace_S in algebras:
        C = dualize(A)
        cd = compact_decompose(C, parts=decompose(regular_representation(A)))
        total = sum(corep_indicator(C, b, dual.S.matrix.T, dual.g, cd.E)
                    * b.dim for b in cd.blocks)
        assert abs(total - trace_S) < 1e-9


def test_duality_checks_each_coalgebra_axiom_once(monkeypatch, capsys):
    # on D(S3): associativity for the algebra and for the dual algebra of
    # its weak Hopf coalgebra, none for dualize; decompose checks each part
    # once, as a representation, with one run of the homomorphism kernel,
    # and compact_decompose keeps each part, of the identity gram, as its
    # block without a second check; the centrality kernel runs once, for
    # the kept E, and the coseparability check reads its result
    import fsclass.algebra
    import fsclass.reps
    from fsclass.cli import main
    calls = {"associator": 0, "hom": 0, "rep": 0, "hom kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper
    monkeypatch.setattr(fsclass.algebra, "associator_residual", counted(
        "associator", fsclass.algebra.associator_residual))
    monkeypatch.setattr(Representation, "_hom_residual", counted(
        "hom", Representation._hom_residual))
    monkeypatch.setattr(Representation, "_validate", counted(
        "rep", Representation._validate))
    monkeypatch.setattr(fsclass.reps, "hom_residual", counted(
        "hom kernel", fsclass.reps.hom_residual))
    built, kernels = count_centrality_kernels(monkeypatch)
    assert main(["duality", data_path("s3.json"), "--kind", "double"]) == 0
    assert capsys.readouterr().out == "algebra/coalgebra indicators agree: 8/8\n"
    # the star axioms: the regular representation, then each of the 8 blocks
    assert calls == {"associator": 2, "hom": 8, "rep": 9, "hom kernel": 8}
    assert len(built) == len(kernels) == 1
