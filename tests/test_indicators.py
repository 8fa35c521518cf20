import numpy as np
import pytest

from fsclass import (canonical_g, classify_sigma, decompose,
                     fs_indicator_formula, fs_indicator_trace, full_report,
                     group_algebra, regular_representation)
from fsclass.algebra import real_form_from_S
from fsclass.indicators import _round_indicator, endo_real_dimension

from conftest import classical_oracle, load_group, m2_dual_structures


def pipeline(name):
    G = load_group(name)
    A, dual, E = group_algebra(G)
    parts = decompose(regular_representation(A))
    return G, A, dual, E, parts


def test_round_indicator_accepts_only_near_integers():
    assert _round_indicator(1.0 + 1e-9j, 1e-6) == 1
    assert _round_indicator(-1.0 + 0j, 1e-6) == -1
    assert _round_indicator(0.0 + 0j, 1e-6) == 0
    from fsclass.errors import ComplexResult, UnexpectedDimension
    with pytest.raises(ComplexResult):
        _round_indicator(1.0 + 0.5j, 1e-6)
    with pytest.raises(UnexpectedDimension):
        _round_indicator(2.0 + 0j, 1e-6)


@pytest.mark.parametrize("name", ["z3", "z4", "z5", "s3", "q8", "d4"])
def test_both_indicator_methods_match_classical_sum(name):
    G, A, dual, E, parts = pipeline(name)
    for V, _ in parts:
        chi = V.character()
        expect = round(classical_oracle(G, chi).real)
        nu_f, raw = fs_indicator_formula(V, dual.S, dual.g, E)
        nu_t = fs_indicator_trace(V, dual.S, dual.g)
        assert nu_f == expect
        assert nu_t == expect
        assert abs(raw - expect) < 1e-9


def test_formula_element_matches_the_per_pair_sum():
    """chi_V(z), z built once, against the per-pair loop
    sum_m chi_V(S(x_m) g y_m) over trace-orthonormal separability pairs."""
    from fsclass import separability_idempotent
    M2, S1, S2 = m2_dual_structures()
    irreps = [V for V, _ in decompose(regular_representation(M2))]
    d4, d4_dual, _ = group_algebra(load_group("d4"))
    for A, dual in ((d4, d4_dual), (M2, canonical_g(M2, S1, irreps)),
                    (M2, canonical_g(M2, S2, irreps))):
        E = separability_idempotent(A)
        for V, _ in decompose(regular_representation(A)):
            loop = sum(V.char_value(A.mult(A.mult(dual.S.apply(x), dual.g), y))
                       for x, y in E.pairs)
            nu, raw = fs_indicator_formula(V, dual.S, dual.g, E)
            assert abs(raw - loop) < 1e-12
            assert nu == round(loop.real)


def test_q8_has_one_quaternionic_irrep():
    _, A, dual, E, parts = pipeline("q8")
    R = real_form_from_S(A, dual.S)
    sigmas = [classify_sigma(V, R).sigma for V, _ in parts]
    assert sorted(sigmas) == [-1, 1, 1, 1, 1]
    dims = [V.dim for V, _ in parts]
    assert sigmas[dims.index(2)] == -1


def test_z5_has_complex_irreps():
    _, A, dual, E, parts = pipeline("z5")
    R = real_form_from_S(A, dual.S)
    sigmas = [classify_sigma(V, R).sigma for V, _ in parts]
    assert sorted(sigmas) == [0, 0, 0, 0, 1]


def test_sigma_witnesses_are_valid():
    for name in ["z4", "q8"]:
        _, A, dual, E, parts = pipeline(name)
        R = real_form_from_S(A, dual.S)
        for V, _ in parts:
            res = classify_sigma(V, R)
            if res.sigma == 1:
                B = res.witness
                assert B is not None
                # the real-structure basis makes the real form act by
                # real matrices
                for x in R.real_basis.T:
                    M = np.linalg.solve(B, V.apply(x) @ B)
                    assert np.abs(M.imag).max() < 1e-7
            elif res.sigma == -1:
                J = res.j_matrix
                assert np.abs(J @ np.conj(J) + np.eye(V.dim)).max() < 1e-7
            else:
                assert res.j_matrix is None


def test_endo_real_dimension_by_type():
    _, A, dual, E, parts = pipeline("q8")
    R = real_form_from_S(A, dual.S)
    for V, _ in parts:
        assert endo_real_dimension(V, R) == 4
    _, A, dual, E, parts = pipeline("z3")
    R = real_form_from_S(A, dual.S)
    dims = sorted(endo_real_dimension(V, R) for V, _ in parts)
    assert dims == [2, 2, 4]


def test_canonical_g_for_group_algebra_is_unit():
    _, A, dual, E, parts = pipeline("s3")
    got = canonical_g(A, dual.S, [V for V, _ in parts])
    assert np.allclose(got.g, A.unit, atol=1e-9)


def test_canonical_g_for_twisted_m2_dual():
    A, S1, S2 = m2_dual_structures()
    parts = decompose(regular_representation(A))
    got = canonical_g(A, S2, [V for V, _ in parts])
    expect = np.array([0.25, 0, 0, 4.0], dtype=complex)
    assert np.abs(got.g - expect).max() < 1e-8


def test_canonical_g_ignores_irrep_presentation():
    A, S1, S2 = m2_dual_structures()
    parts = [V for V, _ in decompose(regular_representation(A))]
    alt = [V for V, _ in decompose(regular_representation(A), seed=3)]
    g1 = canonical_g(A, S2, parts).g
    g2 = canonical_g(A, S2, alt).g
    assert np.abs(g1 - g2).max() < 1e-8


def test_full_report_rows_and_agreement():
    _, A, dual, E, parts = pipeline("q8")
    rep = full_report(A, dual, parts, E)
    assert rep.algebra_dim == 8
    assert sorted(r.sigma for r in rep.rows) == [-1, 1, 1, 1, 1]
    assert all(r.nu_formula == r.nu_trace == r.sigma for r in rep.rows)
    d = rep.as_dict()
    types = sorted(row["type"] for row in d["irreps"])
    assert types == ["quaternionic", "real", "real", "real", "real"]
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0].startswith("index,dim,")


def test_full_report_detects_mismatched_dual():
    # pairing the quaternionic dual structure of M2 with the canonical g of
    # the real one breaks the sigma = nu agreement check
    A, S1, S2 = m2_dual_structures()
    parts = decompose(regular_representation(A))
    from fsclass.algebra import separability_idempotent
    E = separability_idempotent(A)
    dual_good = canonical_g(A, S1, [V for V, _ in parts])
    rep = full_report(A, dual_good, parts, E)
    assert [r.sigma for r in rep.rows] == [-1]
