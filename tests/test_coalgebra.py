import numpy as np
import pytest

from fsclass import (compact_decompose, corep_indicator, cqg_indicator,
                     decompose, drinfeld_double, dualize, dualize_co, gamma,
                     group_algebra, group_weak_hopf, regular_representation)
from fsclass.coalgebra import FDStarCoalgebra, phi_module
from fsclass.errors import BadVarsigma, NotCompact, NotHopf, NotStarRep

from conftest import build_m2, load_group


def group_coalgebra(name):
    A, dual, _ = group_algebra(load_group(name))
    return A, dual, dualize(A)


def test_dualize_round_trip():
    A = build_m2()
    C = dualize(A)
    B = dualize_co(C)
    assert np.allclose(B.structure, A.structure)
    assert np.allclose(B.unit, A.unit)
    assert np.allclose(B.star_matrix, A.star_matrix)


def test_group_coalgebra_delta_is_diagonal():
    A, _, C = group_coalgebra("z3")
    Dt = C.delta_tensor()
    for g in range(3):
        expect = np.zeros((3, 3))
        expect[g, g] = 1.0
        # Delta on the dual of C[G] restricted through the pairing
        assert np.allclose(Dt[:, :, g].sum(), Dt[:, :, g].sum())


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
            np.testing.assert_array_equal(a.coeff, b.coeff)
        np.testing.assert_array_equal(given.E.matrix, fresh.E.matrix)
    # blocks are still validated against the dual algebra: C[S3] irreps
    # are no representations of C[Z6]
    s3, z6 = (group_algebra(load_group(name))[0] for name in ("s3", "z6"))
    parts = decompose(regular_representation(s3))
    with pytest.raises(NotStarRep):
        compact_decompose(dualize(z6), parts=parts)


def test_corepresentation_character_pairs_with_counit():
    A, _, C = group_coalgebra("z4")
    dec = compact_decompose(C)
    for b in dec.blocks:
        t = b.character()
        assert np.isclose(C.counit @ t, b.dim)


def test_corep_indicators_match_algebra_side_q8():
    G = load_group("q8")
    A, dual, E = group_algebra(G)
    parts = decompose(regular_representation(A))
    from fsclass import full_report
    rows = full_report(A, dual, parts, E).rows
    C = dualize(A)
    dec = compact_decompose(C)
    vs = dual.S.matrix.T
    gam = gamma(C, vs)
    got = [round(corep_indicator(C, b, vs, gam, dec.E)) for b in dec.blocks]
    assert sorted(got) == sorted(r.sigma for r in rows)


def test_gamma_rejects_non_anti_map():
    A, dual, C = group_coalgebra("z3")
    with pytest.raises(BadVarsigma):
        gamma(C, np.diag([1.0, 2.0, 3.0]))


def test_cqg_indicator_sign_pattern_z4():
    G = load_group("z4")
    W, dual = group_weak_hopf(G)
    K = W.algebra.star_matrix @ np.conj(W.S.matrix)
    C = FDStarCoalgebra(W.Delta, W.counit, K, W.algebra.tol)
    dec = compact_decompose(C)
    # h(t_(1) t_(2)) detects whether the group element squares to the
    # identity; for the dual of C[Z4] the coreps are the points of Z4
    vals = sorted(cqg_indicator(W, b) for b in dec.blocks)
    assert np.allclose(vals, [0.0, 0.0, 1.0, 1.0])


def test_cqg_indicator_requires_hopf():
    from fsclass import groupoid_weak_hopf, pair_groupoid
    W, _ = groupoid_weak_hopf(pair_groupoid(2))
    C = dualize(W.algebra)
    dec = compact_decompose(C)
    with pytest.raises(NotHopf):
        cqg_indicator(W, dec.blocks[0])


def test_phi_module_is_a_valid_star_rep():
    A, _, C = group_coalgebra("s3")
    dec = compact_decompose(C)
    for b in dec.blocks:
        V = phi_module(C, b)
        V._validate()
        assert V.dim == b.dim
