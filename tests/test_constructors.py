import copy
import importlib.util
import os
import sys

import numpy as np
import pytest

from fsclass import (FDStarAlgebra, GroupTable, WeakHopfData, classify_sigma,
                     compact_decompose, cyclic_group, decompose,
                     drinfeld_double, dualize, group_algebra,
                     group_from_permutations, group_weak_hopf,
                     groupoid_weak_hopf, pair_groupoid,
                     real_form_from_S, regular_representation,
                     scheme_from_matrices, table_algebra, table_indicator,
                     twisted_indicator)
from fsclass.constructors import (TableAlgebraData, check_involution_perm,
                                  disjoint_union_groupoid,
                                  table_central_element)
from fsclass.errors import AxiomViolation, BadGroup, NotInvolution

from conftest import (DATA, check_text, classical_oracle, haar_separability,
                      load_group, table_separability)

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
               scheme_from_matrices([np.eye(2), 1 - np.eye(2)]),
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
    A, S, v = table_algebra(T)
    A.separability_idempotent.verify()
    table_separability(A, T, v)
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
    A, S, v = table_algebra(T)
    parts = decompose(regular_representation(A))
    for V, _ in parts:
        s, _ = table_indicator(T, V.character())
        assert s == 1


def test_one_dim_table_characters_never_quaternionic(scheme_mats):
    for name in ("c5_scheme", "petersen_scheme"):
        T = scheme_from_matrices(scheme_mats[name])
        A, _, _ = table_algebra(T)
        for V, _ in decompose(regular_representation(A)):
            if V.dim == 1:
                s, _ = table_indicator(T, V.character())
                assert s in (0, 1)


def test_scheme_from_matrices_rejects_bad_partition():
    eye = np.eye(3, dtype=int)
    bad = np.ones((3, 3), dtype=int)    # overlaps the identity class
    with pytest.raises(AxiomViolation):
        scheme_from_matrices([eye, bad])


def test_table_central_element_of_group_case():
    # a group is a table algebra with kappa = 1 everywhere, so v = |G| * unit
    G = load_group("z3")
    p = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            p[i, j, G.table[i, j]] = 1.0
    T = TableAlgebraData.validated(p, G.inverse)
    v = table_central_element(T)
    assert np.allclose(v, np.array([3.0, 0, 0]))


def test_each_table_algebra_axiom_fires():
    """C[Z3] by its intersection numbers, b_1* = b_2, with one corruption
    per axiom of `TableAlgebraData.validated`.  The CLI, which derives the
    involution from p, cannot reach the b_0 coefficient check: the identity
    involution here puts b_0 in b_1 b_2 with 2 != 1*."""
    G = load_group("z3")
    p = np.zeros((3, 3, 3))
    p[np.arange(3)[:, None], np.arange(3), G.table] = 1.0
    TableAlgebraData.validated(p, G.inverse)
    cases = [((1, 1, 1), -0.5, G.inverse, "negative structure constant"),
             ((0, 1, 2), 0.5, G.inverse, "b_0 is not the identity"),
             ((0, 0, 0), 1.0, np.arange(3), "coefficient of b_0 in b_i b_j "
              "must vanish unless j = i*"),
             ((1, 2, 0), 5e-10, G.inverse,
              "p_(i i*)^0 must be positive, i = 1")]
    for at, value, star, text in cases:
        bad = p.copy()
        bad[at] = value
        with pytest.raises(AxiomViolation) as info:
            TableAlgebraData.validated(bad, star)
        assert check_text(str(info.value)) == text


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


def _count_regular_traces(monkeypatch) -> list:
    """One entry per call of FDStarAlgebra.regular_trace, which the closed
    form of the Haar integral reads once."""
    calls = []
    regular_trace = FDStarAlgebra.regular_trace
    monkeypatch.setattr(FDStarAlgebra, "regular_trace",
                        lambda self: calls.append(1) or regular_trace(self))
    return calls


def test_weak_hopf_indicator_solves_for_the_haar_integral_once(monkeypatch):
    """The Haar integral depends on W alone: over the 8 irreducibles of
    D(S3) its closed form, one n x n solve, is computed once, and every
    value equals the one a fresh W (a fresh solve) gives."""
    W, dual = drinfeld_double(load_group("s3"))
    parts = decompose(regular_representation(W.algebra))
    fresh = [WeakHopfData(W.algebra, W.coalgebra, W.S).indicator(V, dual.g)
             for V, _ in parts]
    traces = _count_regular_traces(monkeypatch)
    values = [W.indicator(V, dual.g) for V, _ in parts]
    assert len(parts) == 8
    assert len(traces) == 1
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
    traces = _count_regular_traces(monkeypatch)
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
