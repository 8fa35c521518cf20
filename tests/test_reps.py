import numpy as np
import pytest

from fsclass import (FDStarAlgebra, decompose, full_report, group_algebra,
                     intertwiners, regular_representation,
                     separability_idempotent)
from fsclass.algebra import AntiAlgebraMap, DualStructureData
from fsclass.errors import NotStarRep
from fsclass.reps import (Representation, conjugate_representation,
                          dual_representation, restrict)

from conftest import (build_m2, classical_oracle, load_group,
                      m2_dual_structures)


def test_regular_representation_is_a_star_rep():
    A, _, _ = group_algebra(load_group("s3"))
    V = regular_representation(A)
    assert V.dim == 6
    # left multiplication by the unit is the identity
    assert np.allclose(V.apply(A.unit), np.eye(6))


def test_representation_rejects_non_homomorphism():
    A = build_m2()
    rho = np.stack([np.eye(3)] * 4)
    rho[1] = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(NotStarRep):
        Representation(A, rho)


def test_character_of_regular_rep_is_dim_at_unit():
    A, _, _ = group_algebra(load_group("z4"))
    V = regular_representation(A)
    assert np.isclose(V.char_value(A.unit), 4.0)


def test_decompose_group_algebra_dimensions():
    A, _, _ = group_algebra(load_group("s3"))
    parts = decompose(regular_representation(A))
    dims = sorted(p.dim for p, _ in parts)
    mults = [m for p, m in sorted(parts, key=lambda q: q[0].dim)]
    assert dims == [1, 1, 2]
    assert mults == [1, 1, 2]


def test_decompose_m2_single_irrep():
    A = build_m2()
    parts = decompose(regular_representation(A))
    assert len(parts) == 1
    V, mult = parts[0]
    assert V.dim == 2 and mult == 2


def test_decompose_is_seed_independent():
    A, _, _ = group_algebra(load_group("q8"))
    fps = []
    for seed in range(3):
        parts = decompose(regular_representation(A), seed=seed)
        fps.append(tuple(p.fingerprint() for p, _ in parts))
    assert fps[0] == fps[1] == fps[2]


def test_irreducible_leaves_have_trivial_self_hom():
    A, _, _ = group_algebra(load_group("d4"))
    parts = decompose(regular_representation(A))
    for V, _ in parts:
        assert len(intertwiners(V.rho, V.rho, A.tol)) == 1


def test_intertwiners_between_inequivalent_irreps_vanish():
    A, _, _ = group_algebra(load_group("s3"))
    parts = decompose(regular_representation(A))
    for i, (V, _) in enumerate(parts):
        for j, (W, _) in enumerate(parts):
            hom = intertwiners(V.rho, W.rho, A.tol)
            assert len(hom) == (1 if i == j else 0)


def test_restrict_orthonormalizes_gram():
    A, _, _ = group_algebra(load_group("z2"))
    V = regular_representation(A)
    basis = np.array([[1.0], [1.0]], dtype=complex)
    W = restrict(V, basis)
    assert W.dim == 1
    assert np.allclose(W.gram, np.eye(1))


def test_dual_representation_is_valid_and_antiequivalent():
    A, S1, _ = m2_dual_structures()
    V = decompose(regular_representation(A))[0][0]
    D = dual_representation(V, S1, A.unit)
    D._validate()
    # rho_D(xy) = rho_D(y) rho_D(x) transposed through S is again a rep,
    # and for M2 the dual of the defining irrep is equivalent to it
    assert len(intertwiners(V.rho, D.rho, A.tol)) == 1


def test_conjugate_representation_matches_dual_through_riesz():
    A, dual, _ = group_algebra(load_group("z3"))
    from fsclass.algebra import real_form_from_S
    R = real_form_from_S(A, dual.S)
    V = decompose(regular_representation(A))[0][0]
    J = conjugate_representation(V, R, dual.g)
    D = dual_representation(V, dual.S, dual.g)
    J._validate()
    # H^T intertwines J(V) with D(V)
    T = V.gram.T
    for i in range(A.dim):
        assert np.allclose(T @ J.rho[i], D.rho[i] @ T, atol=1e-9)


def _rebased_q8(seed):
    """C[Q8] on the basis f_j = sum_i U[i, j] e_g_i for a seeded random
    complex unitary U: the star matrix gets non-real entries."""
    G = load_group("q8")
    A, dual, _ = group_algebra(G)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    U, _ = np.linalg.qr(z)
    Uinv = np.linalg.inv(U)
    c = np.einsum("ia,jb,ijk,ck->abc", U, U, A.structure, Uinv, optimize=True)
    B = FDStarAlgebra(c, Uinv @ A.unit, Uinv @ A.star_matrix @ np.conj(U))
    S = AntiAlgebraMap.validated(B, Uinv @ dual.S.matrix @ U)
    return G, U, B, DualStructureData.validated(B, S, Uinv @ dual.g)


def test_complex_star_regression_rebased_q8():
    G, U, B, dual = _rebased_q8(seed=5)
    assert np.abs(B.star_matrix.imag).max() > 0.1
    parts = decompose(regular_representation(B))
    assert sorted(V.dim for V, _ in parts) == [1, 1, 1, 1, 2]
    report = full_report(B, dual, parts, separability_idempotent(B))
    for (V, _), row in zip(parts, report.rows):
        chi = V.character() @ np.linalg.inv(U)   # chi on the group basis
        assert row.nu_formula == round(classical_oracle(G, chi).real)


def test_decompose_validates_an_unchecked_input():
    A, _, _ = group_algebra(load_group("s3"))
    rho = regular_representation(A).rho.copy()
    rho[1, 0, 0] += 0.5
    V = Representation(A, rho, check=False)
    assert not V.validated
    with pytest.raises(NotStarRep):
        decompose(V)


def test_decompose_does_not_revalidate_a_checked_input(monkeypatch):
    calls = []
    validate = Representation._validate

    def counted(self):
        calls.append(self.dim)
        validate(self)
    monkeypatch.setattr(Representation, "_validate", counted)
    A, _, _ = group_algebra(load_group("s3"))
    parts = decompose(regular_representation(A))
    assert calls == [6]
    assert sorted(V.dim for V, _ in parts) == [1, 1, 2]
