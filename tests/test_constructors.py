import copy
import importlib.util
import os
import sys

import numpy as np
import pytest

from fsclass import (FDStarAlgebra, GroupoidData, GroupTable, WeakHopfData,
                     classify_sigma, compact_decompose, cyclic_group,
                     decompose,
                     drinfeld_double, dualize, group_algebra,
                     group_from_permutations, group_weak_hopf,
                     groupoid_weak_hopf, pair_groupoid,
                     real_form_from_S, regular_representation,
                     scheme_from_matrices, table_algebra, table_indicator,
                     twisted_indicator)
from fsclass.constructors import (TableAlgebraData, check_involution_perm,
                                  disjoint_union_groupoid,
                                  table_central_element)
from fsclass.errors import (AxiomViolation, BadGroup, BadGroupoid,
                            NotInvolution)

from conftest import (DATA, check_text, classical_oracle, haar_separability,
                      load_group, table_separability, thin_scheme)

GENERATOR = os.path.join(os.path.dirname(__file__), "..", "scripts",
                         "generate_corpus.py")


# --- groups ---

def test_cyclic_group_table():
    G = cyclic_group(4)
    assert G.order == 4
    assert G.table[1, 3] == 0
    assert list(G.inverse) == [0, 3, 2, 1]


def test_group_from_permutations_generates_s3():
    G = group_from_permutations([[1, 0, 2], [0, 2, 1]])
    assert G.order == 6


def test_records_holding_arrays_compare_and_hash_by_identity():
    """`==` and `hash` on the eleven records that hold arrays raise no
    error: a record equals itself only, not a copy."""
    G = cyclic_group(3)
    A, dual = group_algebra(G)
    R = real_form_from_S(A, dual.S)
    cd = compact_decompose(dualize(A))
    V = decompose(regular_representation(A))[0][0]
    records = [G, dual.S, R, dual, A.separability_idempotent, cd.E, cd,
               scheme_from_matrices([np.eye(2, dtype=int),
                                     1 - np.eye(2, dtype=int)]),
               pair_groupoid(2), group_weak_hopf(G)[0], classify_sigma(V, R)]
    assert len({type(x) for x in records}) == 11
    for x in records:
        y = copy.copy(x)
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_bad_group_table_rejected():
    t = np.zeros((2, 2), dtype=int)   # constant rows, not a Latin square
    with pytest.raises(BadGroup):
        GroupTable.validated(2, t, np.array([0, 0]))


def test_a_wrong_inverse_is_named():
    """inverse[i] must be a two-sided inverse of element i: Z3 with 1 and 2
    taken as their own inverses fails at 1, and so do a table where
    1 * 2 = 0 but 2 * 1 = 1, on the right side only, and its transpose, on
    the left side only."""
    one_sided = np.array([[0, 1, 2], [1, 1, 0], [2, 1, 2]])
    for t, inv in (([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [0, 1, 2]),
                   (one_sided, [0, 2, 1]), (one_sided.T, [0, 2, 1])):
        with pytest.raises(BadGroup, match="^inverse of element 1 is wrong$"):
            GroupTable.validated(3, t, inv)


def test_index_tables_must_be_integers():
    """A float, bool or string index table is refused by its validator,
    not truncated: each of these was once accepted as Z2, as a one-arrow
    groupoid or as a rank-2 scheme."""
    cases = [(BadGroup, GroupTable.validated, (2, [[0, 1.9], [1.2, 0]],
                                               [0, 1.7])),
             (BadGroup, GroupTable.validated, (2, [[0, 1], [1, 0]],
                                               [False, True])),
             (BadGroupoid, GroupoidData.validated, (1, [(0, 0.6)],
                                                    [(0, 0, 0.3)])),
             (BadGroupoid, GroupoidData.validated, (1, [(0, 0)],
                                                    [("0", "0", "0")])),
             (AxiomViolation, scheme_from_matrices,
              ([[[1, 0], [0, 1]], [[0, 1.7], [1.2, 0]]],)),
             (NotInvolution, check_involution_perm,
              (load_group("z2"), [0.0, 1.0]))]
    for error, validator, args in cases:
        with pytest.raises(error, match=r" must hold integers, not "):
            validator(*args)
    assert GroupoidData.validated(1, [(0, 0)], [(0, 0, 0)]).n_arrows == 1
    assert GroupTable.validated(2, [[0, 1], [1, 0]], [0, 1]).order == 2


def test_group_algebra_idempotent_verifies():
    A, dual = group_algebra(load_group("d4"))
    A.separability_idempotent.verify()
    haar_separability(A)
    assert np.allclose(dual.g, A.unit)


def test_group_weak_hopf_haar_is_uniform():
    G = load_group("s3")
    W, dual = group_weak_hopf(G)
    lam = W.haar_integral()
    assert np.allclose(lam, np.full(6, 1.0 / 6.0))


def test_weak_hopf_data_refuses_a_coalgebra_of_another_dimension():
    W, _ = group_weak_hopf(load_group("s3"))
    C = dualize(group_algebra(load_group("z3"))[0])
    with pytest.raises(ValueError, match="differ in dimension"):
        WeakHopfData(W.algebra, C, W.S)


# --- table algebras and schemes ---

def test_c5_scheme_table_algebra(scheme_mats):
    T = scheme_from_matrices(scheme_mats["c5_scheme"])
    A = table_algebra(T)[0]
    A.separability_idempotent.verify()
    table_separability(A, T)
    parts = decompose(regular_representation(A))
    assert sorted(p.dim for p, _ in parts) == [1, 1, 1]
    raws = []
    for V, _ in parts:
        s, raw = table_indicator(T, V.character())
        assert s == 1
        raws.append(raw.real)
    assert any(abs(r - 2.5) < 1e-8 for r in raws)
    assert any(abs(r - 5.0) < 1e-8 for r in raws)


def test_petersen_scheme_all_real(scheme_mats):
    T = scheme_from_matrices(scheme_mats["petersen_scheme"])
    A = table_algebra(T)[0]
    parts = decompose(regular_representation(A))
    for V, _ in parts:
        s, _ = table_indicator(T, V.character())
        assert s == 1


def test_one_dim_table_characters_never_quaternionic(scheme_mats):
    for name in ("c5_scheme", "petersen_scheme"):
        T = scheme_from_matrices(scheme_mats[name])
        A = table_algebra(T)[0]
        for V, _ in decompose(regular_representation(A)):
            if V.dim == 1:
                s, _ = table_indicator(T, V.character())
                assert s in (0, 1)


def test_thin_s5_scheme_is_its_group_table():
    """S5 acting on itself is a rank-120 scheme on 120 points: p[i, j, k]
    is 1 exactly where g_i g_j = g_k, and i* is the inverse of g_i."""
    G = group_from_permutations([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    T = scheme_from_matrices(thin_scheme(G))
    assert T.rank == G.order == 120
    assert np.array_equal(T.p, G.table[:, :, None] == np.arange(120))
    assert np.array_equal(T.involution, G.inverse)


def test_scheme_from_matrices_rejects_bad_partition():
    """Overlapping classes, and matrices that sum to all ones but are not
    0/1 (a 2 in class 1 and a -1 in class 2 at the same pair)."""
    eye = np.eye(3, dtype=int)
    bad = np.ones((3, 3), dtype=int)    # overlaps the identity class
    corner = np.zeros((3, 3), dtype=int)
    corner[0, 1] = 1
    for mats in ([eye, bad], [eye, 1 - eye + corner, -corner]):
        with pytest.raises(AxiomViolation, match="^adjacency matrices do not "
                           "partition the pairs$"):
            scheme_from_matrices(mats)


def test_table_central_element_of_group_case():
    # a group is a table algebra with kappa = 1 everywhere, so v = |G| * unit
    G = load_group("z3")
    p = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            p[i, j, G.table[i, j]] = 1.0
    T = TableAlgebraData.validated(p)
    assert np.array_equal(T.involution, G.inverse)
    v = table_central_element(T)
    assert np.allclose(v, np.array([3.0, 0, 0]))


def _group_p(G: GroupTable) -> np.ndarray:
    """C[G] as a table algebra: p[i, j, k] = 1 where g_i g_j = g_k."""
    p = np.zeros((G.order,) * 3)
    i, j = np.indices(G.table.shape)
    p[i, j, G.table] = 1.0
    return p


def test_each_table_algebra_axiom_fires():
    """C[Z3] by its intersection numbers, whose involution read off p is
    b_1* = b_2, with one corruption per check of
    `TableAlgebraData.validated`: a second coefficient of b_0 in row 1, or
    none above EPS, is refused by the check that names the involution's
    defect, and a row whose b_0 moves to another column leaves no
    permutation.  An involution that is a permutation but no involution
    needs four classes: C[Z4] with 1* = 2, 2* = 3, 3* = 1.  Doubling
    p_(1 2)^0 leaves p_(2 1)^0 = 1 behind it."""
    z3, z4 = load_group("z3"), load_group("z4")
    p = _group_p(z3)
    assert np.array_equal(TableAlgebraData.validated(p).involution, z3.inverse)
    cases = [(p[:, :, :2], {}, "structure constants must be rank^3"),
             (p, {(1, 1, 1): -0.5}, "negative structure constant"),
             (p, {(0, 1, 2): 0.5}, "b_0 is not the identity"),
             (p, {(1, 1, 0): 0.5}, "coefficient of b_0 in b_i b_j must "
              "vanish unless j = i*"),
             (p, {(1, 2, 0): 5e-10}, "p_(i i*)^0 must be positive, i = 1"),
             (p, {(1, 2, 0): 0.0}, "p_(i i*)^0 must be positive, i = 1"),
             (p, {(2, 1, 0): 0.0, (2, 2, 0): 1.0},
              "basis involution is not a permutation"),
             (_group_p(z4), {(1, 3, 0): 0.0, (1, 2, 0): 1.0, (2, 2, 0): 0.0,
                             (2, 3, 0): 1.0},
              "basis involution does not square to identity"),
             (p, {(1, 2, 0): 2.0}, "p_(i i*)^0 != p_(i* i)^0, i = 1")]
    for base, changes, text in cases:
        bad = base.copy()
        for at, value in changes.items():
            bad[at] = value
        with pytest.raises(AxiomViolation) as info:
            TableAlgebraData.validated(bad)
        got = str(info.value)     # structural checks carry no residual
        assert (check_text(got) if " (residual " in got else got) == text


# --- groupoids and weak Hopf ---

@pytest.mark.parametrize("m", [2, 3, 4])
def test_pair_groupoid_indicator_is_real(m):
    Gd = pair_groupoid(m)
    W, dual = groupoid_weak_hopf(Gd)
    lam = W.haar_integral()
    parts = decompose(regular_representation(W.algebra))
    assert len(parts) == 1
    V = parts[0][0]
    assert V.dim == m
    s, raw = W.indicator(V, dual.g)
    assert s == 1


def test_pair_groupoid_haar_is_uniform_on_identities():
    Gd = pair_groupoid(3)
    W, _ = groupoid_weak_hopf(Gd)
    lam = W.haar_integral()
    # Lam is uniform over the arrows with weight 1/m
    assert np.allclose(lam, np.full(Gd.n_arrows, 1.0 / 3.0))


def test_disjoint_union_groupoid_indicators():
    Gd = disjoint_union_groupoid([cyclic_group(2), cyclic_group(2)])
    W, dual = groupoid_weak_hopf(Gd)
    parts = decompose(regular_representation(W.algebra))
    for V, _ in parts:
        s, _ = W.indicator(V, dual.g)
        assert s == 1


def test_drinfeld_double_of_z2():
    W, dual = drinfeld_double(cyclic_group(2))
    parts = decompose(regular_representation(W.algebra))
    assert [p.dim for p, _ in parts] == [1, 1, 1, 1]
    for V, _ in parts:
        s, _ = W.indicator(V, dual.g)
        assert s == 1


# --- twisting ---

def test_check_involution_perm_rejects_non_automorphism():
    G = load_group("z4")
    with pytest.raises(NotInvolution):
        check_involution_perm(G, [1, 0, 2, 3])


def test_twisted_indicator_identity_twist_matches_classical():
    G = load_group("z4")
    A, dual = group_algebra(G)
    parts = decompose(regular_representation(A))
    for V, _ in parts:
        s, _ = twisted_indicator(G, np.arange(4), V)
        assert s == round(classical_oracle(G, V.character()).real)


def test_twisted_indicator_z3_inversion_all_real():
    G = load_group("z3")
    A, dual = group_algebra(G)
    tau = [0, 2, 1]
    for V, _ in decompose(regular_representation(A)):
        s, _ = twisted_indicator(G, tau, V)
        assert s == 1


def _count_calls(monkeypatch, cls, name: str) -> list:
    """One entry per call of the method cls.name."""
    calls = []
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name,
                        lambda self: calls.append(1) or method(self))
    return calls


def test_weak_hopf_indicator_solves_for_the_haar_integral_once(monkeypatch):
    """The Haar integral depends on W alone: over the 8 irreducibles of
    D(S3) it is read off the kept E and checked once (one call of
    `counit_target_maps`, which in the package only `_haar` makes), the
    trace form is not formed again, and every value equals the one a
    fresh W gives."""
    W, dual = drinfeld_double(load_group("s3"))
    parts = decompose(regular_representation(W.algebra))
    fresh = [WeakHopfData(W.algebra, W.coalgebra, W.S).indicator(V, dual.g)
             for V, _ in parts]
    traces = _count_calls(monkeypatch, FDStarAlgebra, "regular_trace")
    checked = _count_calls(monkeypatch, WeakHopfData, "counit_target_maps")
    values = [W.indicator(V, dual.g) for V, _ in parts]
    assert len(parts) == 8
    assert (len(checked), len(traces)) == (1, 0)
    assert values == fresh


def test_twisted_indicator_builds_no_weak_hopf_data(monkeypatch):
    """sigma_tau(V) is chi of the closed form (1/|G|) sum_h e_tau(h)h: over
    the 5 irreducibles of C[S4] no WeakHopfData is built and no Haar
    integral is computed."""
    G = load_group("s4")
    A, _ = group_algebra(G)
    parts = decompose(regular_representation(A))
    built = []
    validate = WeakHopfData._validate
    monkeypatch.setattr(WeakHopfData, "_validate",
                        lambda self: built.append(1) or validate(self))
    traces = _count_calls(monkeypatch, FDStarAlgebra, "regular_trace")
    for V, _ in parts:
        s, _ = twisted_indicator(G, np.arange(G.order), V)
        assert s == round(classical_oracle(G, V.character()).real)
    assert len(parts) == 5
    assert built == [] and traces == []


@pytest.mark.parametrize("name, tau", [("z3", [0, 2, 1]), ("z4", None),
                                       ("q8", None), ("s3", None)])
def test_twisted_indicator_equals_the_haar_route(name, tau):
    """The closed form equals chi(m((tau (x) id) Delta(Lam))) through the
    Hopf-algebra Haar integral of C[G], the route it replaces."""
    G = load_group(name)
    perm = np.arange(G.order) if tau is None else np.array(tau)
    W, dual = group_weak_hopf(G)
    tau_mat = np.zeros((G.order, G.order))
    tau_mat[perm, np.arange(G.order)] = 1.0
    z = W.algebra.multiply(tau_mat @ W.delta_of(W.haar_integral()))
    for V, _ in decompose(regular_representation(W.algebra)):
        chi = V.character()
        want = (chi @ dual.g) / (chi @ W.algebra.unit) * (chi @ z)
        _, raw = twisted_indicator(G, perm, V)
        assert abs(raw - want) < 1e-12


def test_weak_hopf_indicator_forms_the_haar_product_once(monkeypatch):
    """Lam_(1) Lam_(2) depends on W alone: over the 8 irreducibles of D(S3)
    Delta(Lam) is formed once, and every raw value is
    (chi(g)/chi(1)) chi(m(Delta(Lam)))."""
    W, dual = drinfeld_double(load_group("s3"))
    parts = decompose(regular_representation(W.algebra))
    lam = W.haar_integral()
    z = W.algebra.multiply(W.delta_of(lam))
    formed = []
    delta_of = WeakHopfData.delta_of
    monkeypatch.setattr(WeakHopfData, "delta_of",
                        lambda self, x: formed.append(1) or delta_of(self, x))
    for V, _ in parts:
        chi = V.character()
        _, raw = W.indicator(V, dual.g)
        want = (chi @ dual.g) / (chi @ W.algebra.unit) * (chi @ z)
        assert abs(raw - want) < 1e-12
    assert len(parts) == 8
    assert len(formed) == 1


def test_the_corpus_regenerates_byte_for_byte(tmp_path, monkeypatch):
    """scripts/generate_corpus.py, pointed at tmp_path, writes every file
    of data/ and nothing else, each equal to it byte for byte."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script extends it
    spec = importlib.util.spec_from_file_location("generate_corpus", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", str(tmp_path))
    module.main()
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(DATA))
    for name in os.listdir(tmp_path):
        with open(os.path.join(DATA, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
