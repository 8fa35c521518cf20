import numpy as np
import pytest

from fsclass import (build_algebra, check_cstar, is_positive_element,
                     real_form_from_S, separability_idempotent)
from fsclass.algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                             _centrality_residual, product_map_residual,
                             real_form_from_conjugation)
from fsclass.errors import (BadDualStructure, BadStar, BadUnit, NotAntiMap,
                            NotAssociative, NotCStar)
from conftest import build_m2, check_text, load_group, m2_dual_structures

from fsclass import group_algebra


def z2_algebra():
    return group_algebra(load_group("z2"))[0]


def test_mult_and_star_roundtrip():
    A = build_m2()
    e00, e01, e10, _ = np.eye(4)      # e11, e12, e21, e22
    assert np.allclose(A.left_mult(e01) @ e10, e00)
    assert np.allclose(A.star(A.star(e01)), e01)


def test_build_rejects_non_associative():
    A = build_m2()
    c = A.structure.copy()
    c[1, 2, 0] = 0.5    # e12 e21 = e11 / 2 breaks (e12 e21) e12 = e12 (e21 e12)
    with pytest.raises(NotAssociative):
        build_algebra(c, A.unit, A.star_matrix)


def test_build_rejects_bad_unit():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = c[1, 1, 1] = 1.0     # e0, e1 orthogonal idempotents
    with pytest.raises(BadUnit):
        build_algebra(c, [1, 0], np.eye(2))


def test_build_rejects_bad_star():
    A = z2_algebra()
    with pytest.raises(BadStar):
        build_algebra(A.structure, A.unit, np.diag([1.0, 2.0]))


def test_anti_map_rejects_identity_on_noncommutative():
    A = build_m2()
    with pytest.raises(NotAntiMap):
        AntiAlgebraMap.validated(A, np.eye(4))


def test_anti_map_rejects_a_phase_that_the_star_does_not_undo():
    """On C[Z3], S(e_k) = w^k e_k reverses products, but
    S(S(e_k)*)* = w^{2k} e_k."""
    A, _ = group_algebra(load_group("z3"))
    w = np.exp(2j * np.pi / 3)
    with pytest.raises(NotAntiMap) as exc:
        AntiAlgebraMap.validated(A, np.diag(w ** np.arange(3)))
    assert check_text(str(exc.value)) == "S(S(a)*)* != a on the basis"


def test_dual_structure_rejects_g_with_s_of_g_not_its_inverse():
    """On C[Z3], S(2 * 1) = 2 * 1, so S(g) g = 4 * 1, not 1; the singular
    idempotent e = (1 + x + x^2)/3 has S(e) e = e, and fails the same
    check (no inverse is solved for)."""
    A, dual = group_algebra(load_group("z3"))
    for g in (2 * A.unit, np.ones(3) / 3):
        with pytest.raises(BadDualStructure) as exc:
            DualStructureData.validated(A, dual.S, g)
        assert check_text(str(exc.value)) == "S(g) g != 1"


def test_real_form_refuses_a_conjugation_that_is_not_involutive():
    """On C[Z7], x -> 2x is an automorphism, so K e_x = e_2x is a
    multiplicative conjugation, but K conj(K) e_x = e_4x: the involution
    check fails first, with residual 1."""
    A, _ = group_algebra(load_group("z7"))
    x = np.arange(7)
    K = np.zeros((7, 7))
    K[2 * x % 7, x] = 1.0
    assert product_map_residual(A, K, conj=True, reverse=False).max() == 0
    with pytest.raises(NotAntiMap) as exc:
        real_form_from_conjugation(A, K)
    assert check_text(str(exc.value)) == "conjugation is not involutive"
    assert "(residual 1.000e+00," in str(exc.value)


def test_real_form_of_group_algebra_is_real_span():
    A, dual = group_algebra(load_group("s3"))
    R = real_form_from_S(A, dual.S)
    # conjugation is entrywise: fixed space is the real span of the basis
    assert np.allclose(R.conj_matrix, np.eye(6))
    x = np.array([1.0, 2, 3, 0, 0, 0], dtype=complex)
    assert np.allclose(R.conj_matrix @ np.conj(x), x)
    assert not np.allclose(R.conj_matrix @ np.conj(1j * A.unit), 1j * A.unit)


def test_check_cstar_positive_for_m2():
    A = build_m2()
    G, ok = check_cstar(A)
    assert ok
    # tau(a) = 2 tr(a) on M2, so G[(i,j),(k,l)] = 2 d_ik d_jl
    assert np.allclose(G, 2 * np.eye(4))


def test_check_cstar_fails_for_nilpotent():
    # C[x]/(x^2) with x* = x: trace form is degenerate
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    A = build_algebra(c, [1, 0], np.eye(2))
    _, ok = check_cstar(A)
    assert not ok


def test_positive_elements_in_m2():
    A = build_m2()
    assert is_positive_element(A, np.array([2, 0, 0, 3], dtype=complex))
    assert not is_positive_element(A, np.array([1, 0, 0, -1], dtype=complex))
    # e12 e21* + ... a*a form
    x = np.array([0, 1, 0, 0], dtype=complex)
    assert is_positive_element(A, A.left_mult(A.star(x)) @ x)


def test_separability_idempotent_identities():
    for name in ("z4", "s3", "q8"):
        A = group_algebra(load_group(name))[0]
        E = separability_idempotent(A)
        E.verify(eps=1e-8)


def test_separability_idempotent_needs_cstar():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    A = build_algebra(c, [1, 0], np.eye(2))
    with pytest.raises(NotCStar):
        separability_idempotent(A)


def test_orthonormal_basis_is_gram_orthonormal():
    A = build_m2()
    G, _ = check_cstar(A)
    B = A.orthonormal_basis
    assert np.allclose(B.conj().T @ G @ B, np.eye(4))
    assert B is A.orthonormal_basis and not B.flags.writeable


def test_dual_structure_validation():
    A, S1, S2 = m2_dual_structures()
    g = np.array([0.25, 0, 0, 4.0], dtype=complex)
    DualStructureData.validated(A, S2, g)
    with pytest.raises(BadDualStructure, match=r"^S\^2\(a\) g != g a on the "
                       r"basis \(residual"):
        DualStructureData.validated(A, S2, A.unit)   # S2^2 != id
    DualStructureData.validated(A, S1, A.unit)       # S1^2 = id


def _storage_reads(path):
    """(enclosing class, line) of every `.structure` or `._left` attribute
    in the module at path."""
    import ast
    found = []

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("structure",
                                                             "_left"):
            found.append((cls, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)
    with open(path) as fh:
        visit(ast.parse(fh.read()), None)
    return found


def test_only_the_algebra_module_reads_the_structure_tensor():
    """Outside algebra.py only FDStarCoalgebra, whose Delta is the product
    tensor of its dual algebra by definition, reads `.structure` or
    `._left`."""
    import glob
    import os

    import fsclass
    src = os.path.dirname(fsclass.__file__)
    assert _storage_reads(os.path.join(src, "algebra.py"))
    for path in glob.glob(os.path.join(src, "*.py")):
        name = os.path.basename(path)
        if name == "algebra.py":
            continue
        for cls, line in _storage_reads(path):
            assert (name, cls) == ("coalgebra.py", "FDStarCoalgebra"), \
                f"{name}:{line} reads the structure tensor"


def _kernel_algebras(scheme_mats):
    """M2, the C5 scheme, C[Q8] rebased by a seeded complex unitary (a
    dense, non-monomial tensor) and D(S3)."""
    from fsclass import (FDStarAlgebra, drinfeld_double, scheme_from_matrices,
                         table_algebra)
    q8 = group_algebra(load_group("q8"))[0]
    rng = np.random.default_rng(21)
    U = np.linalg.qr(rng.standard_normal((8, 8))
                     + 1j * rng.standard_normal((8, 8)))[0]
    Uinv = np.linalg.inv(U)
    c = np.einsum("ia,jb,ijk,ck->abc", U, U, q8.structure, Uinv, optimize=True)
    rebased = FDStarAlgebra(c, Uinv @ q8.unit, Uinv @ q8.star_matrix @ np.conj(U))
    assert rebased.table is None
    return [build_m2(),
            table_algebra(scheme_from_matrices(scheme_mats["c5_scheme"]))[0],
            rebased, drinfeld_double(load_group("s3"))[0].algebra]


def test_product_kernels_match_einsum(scheme_mats):
    """multiply(Z) = sum_jk Z[j, k] c[j, k] and of_products(X)[i, j] =
    X(e_i e_j), against einsum, for vector and matrix operands; the sums
    run in another order, so the bound is a few ulps per term."""
    rng = np.random.default_rng(22)
    for A in _kernel_algebras(scheme_mats):
        n, c = A.dim, A.structure

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def close(got, want, operand):
            bound = 8 * n * np.finfo(float).eps * np.abs(c).max() * np.abs(
                operand).max()
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= bound, n

        Z = rand(n, n)
        close(A.multiply(Z), np.einsum("jk,jkl->l", Z, c), Z)
        for X in (rand(n), rand(n, 3), rand(n, 2, 2)):
            close(A.of_products(X), np.einsum("ijk,k...->ij...", c, X), X)


def test_the_centrality_residual_of_a_non_injective_table_is_the_dense_one():
    """C + C on the basis {1, p}, p^2 = p, identity star: row p of the
    table sends both 1 and p to p, so the table is not injective.  For a
    monomial Z each entry of e_i Z and of Z e_i is still one product, so
    the coordinate lists give the dense residual max |e_i Z - Z e_i| bit
    for bit."""
    A = FDStarAlgebra((np.array([[0, 1], [1, 1]]), np.ones((2, 2))),
                      np.array([1, 0]), np.eye(2))
    c = A.structure
    for Z, want in ((np.eye(2), [0, 1]),
                    (np.array([[0, 2], [3j, 0]]), [0, np.sqrt(13)]),
                    (np.diag([1.5, -0.25]), [0, 1.5])):
        Z = Z.astype(complex)
        lhs = np.tensordot(c, Z, axes=(1, 0))
        rhs = np.tensordot(Z, c, axes=(1, 0)).transpose(1, 0, 2)
        dense = np.abs(lhs - rhs).reshape(2, -1).max(axis=1)
        got = _centrality_residual(A, Z)
        assert np.array_equal(got, dense)
        assert np.abs(got - want).max() <= 1e-15
