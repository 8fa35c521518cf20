import tracemalloc

import numpy as np
import pytest

from fsclass import (FDStarAlgebra, decompose, drinfeld_double, full_report,
                     group_algebra, intertwiners, regular_representation,
                     scheme_from_matrices, separability_idempotent,
                     table_algebra)
from fsclass import io as fio
from fsclass import reps
from fsclass.algebra import (AntiAlgebraMap, DualStructureData, check_cstar,
                             orthonormal_basis)
from fsclass.errors import DegenerateSplit, NotCStar, NotStarRep
from fsclass.linalg import Tolerance
from fsclass.reps import (Representation, conjugate_representation,
                          dual_representation, restrict)

from conftest import (build_m2, check_text, classical_oracle, data_path,
                      load_group, m2_dual_structures)


def test_regular_representation_is_a_star_rep():
    A, _ = group_algebra(load_group("s3"))
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
    A, _ = group_algebra(load_group("z4"))
    V = regular_representation(A)
    assert np.isclose(V.char_value(A.unit), 4.0)


def test_decompose_group_algebra_dimensions():
    A, _ = group_algebra(load_group("s3"))
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


def _petersen():
    mats = fio.load_scheme_v1(data_path("petersen_scheme.json"))["matrices"]
    return table_algebra(scheme_from_matrices(mats))[0]


def test_decompose_is_seed_independent():
    for A in (group_algebra(load_group("q8"))[0],
              drinfeld_double(load_group("s3"))[0].algebra, _petersen(),
              drinfeld_double(load_group("q8"))[0].algebra,
              _rebased_q8(seed=5)[2]):
        fps = []
        for seed in range(3):
            parts = decompose(regular_representation(A), seed=seed)
            fps.append(tuple((p.fingerprint(), m) for p, m in parts))
        assert fps[0] == fps[1] == fps[2]


def test_irreducible_leaves_have_trivial_self_hom():
    A, _ = group_algebra(load_group("d4"))
    parts = decompose(regular_representation(A))
    for V, _ in parts:
        assert len(intertwiners(V.rho, V.rho, A.tol)) == 1


def test_intertwiners_between_inequivalent_irreps_vanish():
    A, _ = group_algebra(load_group("s3"))
    parts = decompose(regular_representation(A))
    for i, (V, _) in enumerate(parts):
        for j, (W, _) in enumerate(parts):
            hom = intertwiners(V.rho, W.rho, A.tol)
            assert len(hom) == (1 if i == j else 0)


def test_restrict_orthonormalizes_gram():
    A, _ = group_algebra(load_group("z2"))
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
    A, dual = group_algebra(load_group("z3"))
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


def _rebase(A, U):
    """A on the basis f_j = sum_i U[i, j] e_i."""
    Uinv = np.linalg.inv(U)
    c = np.einsum("ia,jb,ijk,ck->abc", U, U, A.structure, Uinv, optimize=True)
    return FDStarAlgebra(c, Uinv @ A.unit, Uinv @ A.star_matrix @ np.conj(U))


def _rebased_q8(seed):
    """C[Q8] on the basis f_j = sum_i U[i, j] e_g_i for a seeded random
    complex unitary U: the star matrix gets non-real entries."""
    G = load_group("q8")
    A, dual = group_algebra(G)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    U, _ = np.linalg.qr(z)
    Uinv = np.linalg.inv(U)
    B = _rebase(A, U)
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
    A, _ = group_algebra(load_group("s3"))
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
    A, _ = group_algebra(load_group("s3"))
    parts = decompose(regular_representation(A))
    assert calls == [6]
    assert sorted(V.dim for V, _ in parts) == [1, 1, 2]


def _left_mult_stack(A):
    return np.stack([A.left_mult(A.basis_element(i)) for i in range(A.dim)])


def test_regular_representation_is_the_left_mult_stack():
    _, _, B, _ = _rebased_q8(seed=5)
    for A in (group_algebra(load_group("s3"))[0],
              drinfeld_double(load_group("s3"))[0].algebra, build_m2(), B):
        assert np.array_equal(regular_representation(A).rho,
                              _left_mult_stack(A))


def test_regular_representation_shares_the_read_only_left_mult_stack():
    A = drinfeld_double(load_group("s3"))[0].algebra
    V = regular_representation(A)
    assert V.rho is A._left
    with pytest.raises(ValueError, match="read-only"):
        V.rho[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        A._left += 1.0
    assert np.array_equal(V.rho, _left_mult_stack(A))


def _outcome(fn):
    try:
        fn()
    except NotStarRep as exc:
        # refusing a trace form is structural; the axiom checks name a residual
        return str(exc) if "trace form" in str(exc) else check_text(str(exc))
    return None


def test_regular_representation_rejects_what_the_loose_algebra_accepts():
    """C[S3] with one entry of c added to or scaled, built with a loose
    eps_rank so that the algebra accepts it: the regular representation
    must reject it as the per-pair homomorphism check does."""
    A = group_algebra(load_group("s3"))[0]
    loose = Tolerance(eps_rank=0.1)
    rng = np.random.default_rng(11)
    nz = np.argwhere(A.structure != 0)
    hom = "rho(e_i e_j) != rho(e_i) rho(e_j)"
    seen = []
    for t in range(12):
        c = A.structure.copy()
        if t % 2 == 0:
            c[tuple(rng.integers(0, A.dim, 3))] += 0.5
        else:
            c[tuple(nz[rng.integers(len(nz))])] *= 1.5
        B = FDStarAlgebra(c, A.unit, A.star_matrix, loose)
        assert B.associativity_residual > 0.1

        def reference():
            G, ok = check_cstar(B)
            if not ok:
                raise NotStarRep(
                    "regular representation is not a *-representation: "
                    "trace form is not positive definite")
            Representation(B, _left_mult_stack(B), G)
        expected = _outcome(reference)
        assert expected is not None
        assert _outcome(lambda: regular_representation(B)) == expected
        if expected == hom:
            seen.append(t % 2)
    assert sorted(set(seen)) == [0, 1]


def test_regular_representation_of_a_double_stays_small():
    tracemalloc.start()
    try:
        W, _ = drinfeld_double(load_group("q8"))
        regular_representation(W.algebra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _commutant_inputs():
    s3 = group_algebra(load_group("s3"))[0]
    skew = np.eye(6) + 0.3 * np.random.default_rng(7).standard_normal((6, 6))
    return {"s3": s3, "s3_skewed": _rebase(s3, skew),
            "double_s3": drinfeld_double(load_group("s3"))[0].algebra,
            "m2": build_m2(), "q8_rebased": _rebased_q8(seed=5)[2],
            "petersen": _petersen()}


def test_regular_commutant_is_right_multiplication():
    for name, A in _commutant_inputs().items():
        V = regular_representation(A)
        comm = V.commutant()
        scale = np.abs(V.rho).max() * np.abs(comm).max()
        for M in comm:
            assert np.abs(M @ V.rho - V.rho @ M).max() < 1e-12 * scale, name
        s = np.linalg.svd(comm.reshape(A.dim, -1), compute_uv=False)
        assert s[-1] > 1e-6 * s[0], name


def _attempts(monkeypatch) -> list[dict]:
    """Records each attempt of `decompose`: its central element z, the
    dimensions of the eigenspaces of rho(z) and the pieces restricted from
    them."""
    central, eig, restrict = reps.central_sum, reps._eigenspaces, reps.restrict
    attempts = []

    def central_recorded(A, B, a):
        attempts.append({"z": central(A, B, a), "blocks": [], "pieces": []})
        return attempts[-1]["z"]

    def eig_recorded(X, H, tol):
        spaces = eig(X, H, tol)
        if H is not None:
            attempts[-1]["blocks"] = [W.shape[1] for W in spaces]
        return spaces

    def restrict_recorded(V, basis):
        attempts[-1]["pieces"].append(restrict(V, basis))
        return attempts[-1]["pieces"][-1]
    monkeypatch.setattr(reps, "central_sum", central_recorded)
    monkeypatch.setattr(reps, "_eigenspaces", eig_recorded)
    monkeypatch.setattr(reps, "restrict", restrict_recorded)
    return attempts


def _pairing(A, x, y):
    """sum_j x(b_j) y(b_j^*) over a trace-form orthonormal basis b_j."""
    B = orthonormal_basis(A, A.trace_form[0])
    return complex((x @ B) @ (y @ A.star(B)))


def _same_parts(parts, expected):
    assert [(W.fingerprint(), m) for W, m in parts] == \
        [(W.fingerprint(), m) for W, m in expected]
    for (W, _), (X, _) in zip(parts, expected):
        assert np.abs(W.character() - X.character()).max() < 1e-10


def test_the_central_split_gives_the_isotypic_blocks(monkeypatch):
    """The eigenspaces of rho(z) in the regular representation are the
    isotypic blocks, of dimension m^2, one per irreducible; each piece is
    irreducible, its commutant solved from scratch being the scalars.  C[S3]
    on a skewed basis has a non-scalar gram, so P = B^dagger H differs from
    B^dagger."""
    attempts = _attempts(monkeypatch)
    inputs = _commutant_inputs()
    H = regular_representation(inputs["s3_skewed"]).gram
    assert np.abs(H - H[0, 0] * np.eye(6)).max() > 0.1
    for name in ("s3", "s3_skewed", "double_s3", "q8_rebased"):
        A = inputs[name]
        attempts.clear()
        parts = decompose(regular_representation(A))
        assert sum(V.dim * m for V, m in parts) == A.dim
        assert all(m == V.dim for V, m in parts)
        assert len(attempts) == 1, name
        blocks = attempts[0]["blocks"]
        assert sorted(blocks) == sorted(m * m for _, m in parts), name
        for V, _ in parts:
            assert len(intertwiners(V.rho, V.rho, A.tol)) == 1, name
            assert abs(_pairing(A, V.character(), V.character()) - 1) < 1e-10


def test_restrict_runs_once_per_irreducible(monkeypatch):
    """Only the piece kept in each block is restricted from V: no block is
    restricted whole."""
    attempts = _attempts(monkeypatch)
    for A in (drinfeld_double(load_group("s3"))[0].algebra,
              _rebased_q8(seed=5)[2]):
        attempts.clear()
        parts = decompose(regular_representation(A))
        assert [len(t["pieces"]) for t in attempts] == [len(parts)]
        assert sorted(L.dim for L in attempts[0]["pieces"]) == \
            sorted(V.dim for V, _ in parts)


def test_a_zero_central_draw_is_redrawn(monkeypatch):
    """a = 0 gives z = 0 and a single eigenspace, the whole of V; its piece
    L is irreducible but <chi_V, chi_L> = dim L != dim V / dim L, so z is
    redrawn, and the parts equal those of an unforced run."""
    A = drinfeld_double(load_group("s3"))[0].algebra
    V = regular_representation(A)
    expected = decompose(V)
    draw, draws = reps.random_complex, []

    def zero_first(rng, shape):
        draws.append(draw(rng, shape))
        return 0 * draws[-1] if len(draws) == 1 else draws[-1]
    monkeypatch.setattr(reps, "random_complex", zero_first)
    attempts = _attempts(monkeypatch)
    parts = decompose(V)
    assert len(attempts) == 2
    assert not attempts[0]["z"].any() and attempts[1]["z"].any()
    assert attempts[0]["blocks"] == [A.dim]
    [L] = attempts[0]["pieces"]
    assert abs(_pairing(A, L.character(), L.character()) - 1) < 1e-10
    assert abs(_pairing(A, V.character(), L.character()) - L.dim) < 1e-10
    _same_parts(parts, expected)


def test_a_zero_commutant_draw_is_redrawn(monkeypatch):
    """M = 0 on the first attempt leaves each block W = L^m whole, so the
    first block with m > 1 gives <chi_W, chi_W> = m^2 != 1: z and M are
    redrawn, and the parts equal those of an unforced run."""
    A = drinfeld_double(load_group("s3"))[0].algebra
    V = regular_representation(A)
    expected = decompose(V)
    draw, draws = reps.random_complex, []

    def zero_second(rng, shape):
        draws.append(draw(rng, shape))
        return 0 * draws[-1] if len(draws) == 2 else draws[-1]
    monkeypatch.setattr(reps, "random_complex", zero_second)
    attempts = _attempts(monkeypatch)
    parts = decompose(V)
    assert len(attempts) == 2
    first = attempts[0]
    dims = [W.dim for W in first["pieces"]]
    assert dims == first["blocks"][:len(dims)]
    *whole, W = first["pieces"]
    m = round(W.dim ** 0.5)
    assert m > 1 and all(X.dim == 1 for X in whole)
    assert abs(_pairing(A, W.character(), W.character()) - m * m) < 1e-9
    _same_parts(parts, expected)


def test_regular_decomposition_solves_no_intertwiners(monkeypatch):
    """Multiplicities are read off the isotypic blocks, so no leaf is
    compared with another by an intertwiner solve."""
    solve = reps.intertwiners
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return solve(*args, **kw)
    monkeypatch.setattr(reps, "intertwiners", counted)
    for A in (group_algebra(load_group("s3"))[0],
              drinfeld_double(load_group("s3"))[0].algebra):
        parts = decompose(regular_representation(A))
        assert sum(V.dim ** 2 for V, _ in parts) == A.dim
    assert calls == []


def test_a_reducible_representation_needs_a_positive_trace_form():
    """span{1, x} with x^2 = 0 and x* = x: its trace form is singular.  An
    irreducible representation still decomposes, with no trace form read;
    a reducible one raises NotCStar, since no central element splits it."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    A = FDStarAlgebra(c, [1.0, 0.0], np.eye(2))
    assert not check_cstar(A)[1]
    one = Representation(A, [[[1.0]], [[0.0]]])
    assert decompose(one) == [(one, 1)]
    two = Representation(A, np.stack([np.eye(2), np.zeros((2, 2))]))
    assert len(two.commutant()) == 4
    with pytest.raises(NotCStar):
        decompose(two)


def test_decompose_a_non_regular_representation():
    """C[S3] regular (+) its 2-dim irreducible, with a block-diagonal gram:
    the default commutant is solved, and the 2-dim irreducible appears
    three times."""
    A = group_algebra(load_group("s3"))[0]
    R = regular_representation(A)
    X = next(V for V, _ in decompose(R) if V.dim == 2)
    rho = np.zeros((A.dim, 8, 8), dtype=complex)
    rho[:, :6, :6], rho[:, 6:, 6:] = R.rho, X.rho
    gram = np.zeros((8, 8), dtype=complex)
    gram[:6, :6], gram[6:, 6:] = R.gram, X.gram
    V = Representation(A, rho, gram)
    assert len(V.commutant()) == 1 + 1 + 3 * 3
    parts = decompose(V)
    assert [V.dim for V, _ in parts] == [1, 1, 2]
    assert [m for _, m in parts] == [1, 1, 3]
    assert parts[2][0].fingerprint() == X.fingerprint()


def test_central_redraws_share_the_split_bound(monkeypatch):
    """A central element that never splits (z = 0 every time) is redrawn
    SPLIT_TRIES times, then DegenerateSplit is raised."""
    calls = []

    def zero(A, B, a):
        calls.append(1)
        return np.zeros(A.dim, dtype=complex)
    monkeypatch.setattr(reps, "central_sum", zero)
    A = group_algebra(load_group("s3"))[0]
    with pytest.raises(DegenerateSplit):
        decompose(regular_representation(A))
    assert len(calls) == reps.SPLIT_TRIES + 1
