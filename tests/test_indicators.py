from dataclasses import replace

import numpy as np
import pytest

import fsclass.constructors
import fsclass.indicators
import fsclass.linalg
from fsclass import (Representation,
                     canonical_g, classify_sigma, compact_decompose,
                     corep_indicator, cqg_indicator, decompose,
                     drinfeld_double, dualize, fs_indicator_formula,
                     fs_indicator_trace, full_report, group_algebra,
                     group_weak_hopf, regular_representation,
                     scheme_from_matrices, table_algebra, table_indicator,
                     twisted_indicator)
from fsclass import io as fio
from fsclass.algebra import (AntiAlgebraMap, DualStructureData,
                             real_form_from_S, separability_idempotent)
from fsclass.indicators import (_real_indicator, _round_indicator,
                                classify_sigmas, dual_hom)
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import dagger

from conftest import (GROUP_FILES, check_text, classical_oracle, data_path,
                      diagonal_rescaling, fixed_space_of_antilinear,
                      haar_separability, load_group, m2_dual_structures,
                      rescaled, unchecked)


def pipeline(name):
    G = load_group(name)
    A, dual = group_algebra(G)
    parts = decompose(regular_representation(A))
    return G, A, dual, haar_separability(A), parts


def test_round_indicator_accepts_only_near_integers():
    assert _round_indicator(1.0 + 1e-9j, 1e-6) == 1
    assert _round_indicator(-1.0 + 0j, 1e-6) == -1
    assert _round_indicator(0.0 + 0j, 1e-6) == 0
    from fsclass.errors import ComplexResult, UnexpectedDimension
    with pytest.raises(ComplexResult):
        _round_indicator(1.0 + 0.5j, 1e-6)
    with pytest.raises(UnexpectedDimension):
        _round_indicator(2.0 + 0j, 1e-6)


def test_the_rule_measures_the_complex_distance():
    """|raw - nu| <= eps_round is a disc: a corner of the old box
    |Re raw - nu|, |Im raw| <= eps_round is refused, and so is NaN."""
    from fsclass.errors import ComplexResult
    assert _round_indicator(1.0 + 0.7e-6 + 0.7e-6j, 1e-6) == 1
    for raw in (1.0 + 0.9e-6 + 0.9e-6j, complex(np.nan, 0.0),
                complex(0.0, np.nan)):
        with pytest.raises(ComplexResult):
            _round_indicator(raw, 1e-6)
    assert _real_indicator(0.5 + 0.9e-6j, 1e-6) == 0.5
    with pytest.raises(ComplexResult, match="not real"):
        _real_indicator(np.array([1.0, 0.5 + 2e-6j]), 1e-6)


def test_the_rule_names_the_irreducible_of_a_stack():
    """With names, each of the rule's checks opens with the name of the
    first failing entry of the stack; without them, with none."""
    from fsclass.errors import ComplexResult, UnexpectedDimension
    names = np.array(["irrep 0: ", "irrep 5: "])
    for raw, error, text in [
            ([1.0, 2.0], UnexpectedDimension, "indicator outside {-1, 0, +1}"),
            ([0.5, 1.0], ComplexResult, "indicator value is not near an "
             "integer"),
            ([1.0, 1j], ComplexResult, "indicator value is not real")]:
        bad = "irrep 5: " if raw[0] == 1.0 else "irrep 0: "
        with pytest.raises(error) as info:
            _round_indicator(np.array(raw), 1e-6, names)
        assert check_text(str(info.value)) == bad + text
        with pytest.raises(error) as info:
            _round_indicator(np.array(raw), 1e-6)
        assert check_text(str(info.value)) == text


def test_a_hom_v_dv_plane_is_refused_unnamed():
    """On the sum V of a 1-dim irreducible of Q8 (real) and its 2-dim one
    (quaternionic), Hom(V, D(V)) is a plane: fs_indicator_trace and
    classify_sigma take one V, not a stack, and raise UnexpectedDimension
    with no irreducible named."""
    from fsclass.errors import UnexpectedDimension
    _, A, dual, _, parts = pipeline("q8")
    one, two = (next(V for V, _ in parts if V.dim == d) for d in (1, 2))
    rho = np.zeros((A.dim, 3, 3), dtype=complex)
    rho[:, :1, :1], rho[:, 1:, 1:] = one.rho, two.rho
    gram = np.zeros((3, 3), dtype=complex)
    gram[:1, :1], gram[1:, 1:] = one.gram, two.gram
    V = Representation(A, rho, gram)
    R = real_form_from_S(A, dual.S)
    for call in (lambda: fs_indicator_trace(V, dual.S, dual.g),
                 lambda: classify_sigma(V, R)):
        with pytest.raises(UnexpectedDimension) as info:
            call()
        assert str(info.value) == ("Hom(V, D(V)) has dim > 1; V is not "
                                   "irreducible")


def _scaled(V, factor):
    """V with every rho(e_i) times factor, unchecked: character factor chi_V."""
    return unchecked(V.algebra, V.rho * factor, V.gram)


@pytest.mark.parametrize("factor, message", [(1.1, "not near an integer"),
                                             (1 + 0.1j, "not real")])
def test_every_indicator_rounds_by_one_rule(scheme_mats, monkeypatch, factor,
                                           message):
    """One raw value 0.1 off an integer raises ComplexResult from the
    formula, weak Hopf, table and twisted indicators alike; the corep and
    CQG indicators, which return raw reals, raise it when the value is 0.1
    off the real line and return it otherwise."""
    from fsclass.errors import ComplexResult
    G = load_group("s3")
    W, dual = group_weak_hopf(G)
    A = W.algebra
    E = separability_idempotent(A)
    V = next(V for V, _ in decompose(regular_representation(A))
             if np.allclose(V.character(), 1.0))   # the trivial character
    T = scheme_from_matrices(scheme_mats["c5_scheme"])
    chi = decompose(regular_representation(table_algebra(T)[0]))[0][0].character()
    calls = [lambda: fs_indicator_formula(V, dual.S, dual.g, E),
             lambda: fs_indicator_formula(_scaled(V, factor), dual.S, dual.g, E),
             lambda: W.indicator(_scaled(V, factor), dual.g),
             lambda: table_indicator(T, factor * chi),
             lambda: twisted_indicator(G, np.arange(G.order), _scaled(V, factor))]
    assert calls[0]()[0] == 1
    for call in calls[1:]:
        with pytest.raises(ComplexResult, match=message):
            call()
    C = dualize(A)
    cd = compact_decompose(C)
    block = _scaled(cd.blocks[0], factor)
    dec = compact_decompose(W.coalgebra)
    # the blocks are scaled, while gamma is still read off the true ones
    gamma_full = fsclass.constructors.gamma_full
    monkeypatch.setattr(fsclass.constructors, "gamma_full",
                        lambda C, vs, parts: gamma_full(C, vs, parts=dec.irreps))
    scaled = replace(dec, irreps=[(_scaled(b, factor), m)
                                  for b, m in dec.irreps])
    raw = [lambda: [corep_indicator(C, block, dual.S.matrix.T, dual.g, cd.E)],
           lambda: cqg_indicator(W, scaled)]
    for call in raw:
        if factor.imag:
            with pytest.raises(ComplexResult, match=message):
                call()
        else:
            assert max(abs(v) for v in call()) == pytest.approx(1.1)


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
    sum_m chi_V(S(x_m) g y_m) over the pairs (e_j, row j of E.tensor) of
    the trace-orthonormal separability idempotent."""
    from fsclass import separability_idempotent
    M2, S1, S2 = m2_dual_structures()
    irreps = [V for V, _ in decompose(regular_representation(M2))]
    d4, d4_dual = group_algebra(load_group("d4"))
    for A, dual in ((d4, d4_dual), (M2, canonical_g(M2, S1, irreps)),
                    (M2, canonical_g(M2, S2, irreps))):
        E = separability_idempotent(A)
        for V, _ in decompose(regular_representation(A)):
            xg = (A.left_mult(A.left_mult(dual.S.apply(x)) @ dual.g)
                  for x in np.eye(A.dim))
            loop = sum(V.char_value(L @ y) for L, y in zip(xg, E.tensor))
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
                for x in fixed_space_of_antilinear(R.conj_matrix, TOL).T:
                    M = np.linalg.solve(B, V.apply(x) @ B)
                    assert np.abs(M.imag).max() < 1e-7
            elif res.sigma == -1:
                J = res.j_matrix
                assert np.abs(J @ np.conj(J) + np.eye(V.dim)).max() < 1e-7
            else:
                assert res.j_matrix is None


@pytest.mark.parametrize("name, dim, sigma", [("s3", 2, 1), ("z3", 1, 0),
                                              ("q8", 2, -1)])
def test_sigma_through_a_non_identity_gram(name, dim, sigma):
    # V' = B^-1 V B with gram H' = B^dagger B for a seeded invertible B:
    # the antilinear intertwiner is H'^-1 conj(F') for F' spanning
    # Hom(V', D(V')), where conj(F') alone is not one
    _, A, dual, E, parts = pipeline(name)
    R = real_form_from_S(A, dual.S)
    V = next(V for V, _ in parts
             if V.dim == dim and classify_sigma(V, R).sigma == sigma)
    rng = np.random.default_rng(25)
    B = rng.standard_normal((dim, dim, 2)) @ [1, 1j] + 2 * np.eye(dim)
    Vb = Representation(A, np.linalg.inv(B) @ V.rho @ B, dagger(B) @ B)
    assert np.abs(Vb.gram - np.eye(dim)).max() > 0.5
    res = classify_sigma(Vb, R)
    line, F = dual_hom(A, R.anti_matrix, Vb.rho[:, None], np.array([""]))
    hom = list(F) if line[0] else []
    assert (res.sigma, len(hom)) == (sigma, abs(sigma))
    if sigma == 0:
        assert res.j_matrix is None and res.witness is None
        return
    j = res.j_matrix
    riesz = np.linalg.solve(Vb.gram, np.conj(hom[0]))
    c = np.vdot(riesz, j) / np.vdot(riesz, riesz)
    assert np.abs(j - c * riesz).max() <= 1e-12 * np.abs(j).max()
    rho_bar = np.tensordot(R.conj_matrix, Vb.rho, axes=(0, 0))

    def gap(F):   # max |F conj(rho'(e_i)) - rho'(conj e_i) F|
        return np.abs(F @ np.conj(Vb.rho) - rho_bar @ F).max()
    assert gap(j) < 1e-9
    assert gap(np.conj(hom[0]) * c) > 1e-2
    if sigma == 1:
        m = np.linalg.inv(res.witness) @ np.tensordot(
            fixed_space_of_antilinear(R.conj_matrix, TOL), Vb.rho,
            axes=(0, 0)) @ res.witness
        assert np.abs(m.imag).max() < 1e-9
    else:
        assert np.abs(j @ np.conj(j) + np.eye(dim)).max() < 1e-9


def test_endo_real_dimension_by_type():
    _, A, dual, E, parts = pipeline("q8")
    for row in full_report(A, dual, parts, E).rows:
        assert row.endo_real_dim == 4
    _, A, dual, E, parts = pipeline("z3")
    dims = sorted(r.endo_real_dim for r in full_report(A, dual, parts, E).rows)
    assert dims == [2, 2, 4]


def _sum_nu_dim(A, dual, E):
    rows = full_report(A, dual, decompose(regular_representation(A)), E).rows
    return sum(r.nu_formula * r.dim for r in rows)


@pytest.mark.parametrize("name", GROUP_FILES)
def test_sum_of_indicators_is_the_trace_of_the_antipode(name, group_pipelines):
    # Linchenko-Montgomery: sum_V nu(V) dim V = Tr(S).  On C[G], S(g) = g^-1
    # fixes the involutions; on D(G), S(delta_g h) = delta_(h^-1 g^-1 h) h^-1
    # fixes the pairs with h^2 = 1 and h g h = g^-1.
    G = load_group(name)
    t, inv, n = G.table, G.inverse, G.order
    A, dual, E = group_pipelines[name]
    involutions = sum(t[g, g] == 0 for g in range(n))
    assert np.trace(dual.S.matrix).real == involutions
    assert _sum_nu_dim(A, dual, E) == involutions
    if n > 8:
        return
    W, dual_d = drinfeld_double(G)
    fixed = sum(t[h, h] == 0 and t[t[h, g], h] == inv[g]
                for g in range(n) for h in range(n))
    assert np.trace(dual_d.S.matrix).real == fixed
    assert _sum_nu_dim(W.algebra, dual_d,
                       separability_idempotent(W.algebra)) == fixed


def _answers(A, dual, E):
    rows = full_report(A, dual, decompose(regular_representation(A)), E).rows
    return sorted((r.dim, r.multiplicity, r.nu_formula, r.nu_trace, r.sigma)
                  for r in rows)


@pytest.mark.parametrize("name, double", [("s3", False), ("q8", False),
                                          ("s3", True)])
def test_answers_do_not_depend_on_basis_rescaling(name, double):
    # f_i = d[i] e_i with random phases and magnitudes in [0.5, 2]: the
    # structure constants stay monomial, so the index-table checks run on
    # non-unit values
    G = load_group(name)
    if double:
        W, dual = drinfeld_double(G)
        A, E = W.algebra, separability_idempotent(W.algebra)
    else:
        A, dual = group_algebra(G)
        E = haar_separability(A)
    d = diagonal_rescaling(A.dim, seed=16)
    B = rescaled(A, d)
    assert B.table is not None
    S = AntiAlgebraMap.validated(B, dual.S.matrix * d / d[:, None])
    dual_b = DualStructureData.validated(B, S, dual.g / d)
    assert _answers(B, dual_b, separability_idempotent(B)) == \
        _answers(A, dual, E)


def test_full_report_solves_once_per_dimension(monkeypatch):
    # one stacked Hom(V, D(V)) solve per irreducible dimension feeds both
    # the trace indicator and sigma: D(S3) has irreducibles of dims 1, 2
    # and 3, so 3 solves for its 8.  End_A(V) is not solved and D(V) is
    # not validated again.  classify_sigmas stacks the same way, and
    # classify_sigma, a stack of one, solves once per call
    W, dual = drinfeld_double(load_group("s3"))
    A = W.algebra
    parts = decompose(regular_representation(A))
    E = separability_idempotent(A)
    calls = {"solve": 0, "validate": 0}
    solve = fsclass.indicators.hom_spaces
    validate = Representation._validate

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    def counted_validate(self):
        calls["validate"] += 1
        return validate(self)
    monkeypatch.setattr(fsclass.indicators, "hom_spaces", counted_solve)
    monkeypatch.setattr(Representation, "_validate", counted_validate)
    rows = full_report(A, dual, parts, E).rows
    assert [r.dim for r in rows] == [1, 1, 2, 2, 2, 2, 3, 3]
    assert calls == {"solve": 3, "validate": 0}
    R = real_form_from_S(A, dual.S)
    assert [res.sigma for res in classify_sigmas([V for V, _ in parts], R)] \
        == [r.sigma for r in rows]
    assert calls == {"solve": 6, "validate": 0}
    assert [classify_sigma(V, R).sigma for V, _ in parts] == \
        [r.sigma for r in rows]
    assert calls == {"solve": 14, "validate": 0}


def test_no_nullspace_grows_with_the_algebra(monkeypatch):
    """full_report and classify_sigma take no SVD wider than 2 d for an
    irreducible of dim d: the real form is its conjugation K, and the one
    SVD of a fixed space is the batched one of the d x d antilinear maps j,
    whose realifications are 2d x 2d."""
    widths = []
    fixed = fsclass.indicators.fixed_spaces_of_antilinear

    def recorded(j, *args):
        widths.append(2 * np.shape(j)[-1])
        return fixed(j, *args)
    monkeypatch.setattr(fsclass.indicators, "fixed_spaces_of_antilinear",
                        recorded)
    for name in ("s3", "q8"):
        W, dual = drinfeld_double(load_group(name))
        A = W.algebra
        parts = decompose(regular_representation(A))
        E = separability_idempotent(A)
        widths.clear()
        full_report(A, dual, parts, E)
        R = real_form_from_S(A, dual.S)
        for V, _ in parts:
            classify_sigma(V, R)
        assert widths, name
        assert max(widths) <= 2 * max(V.dim for V, _ in parts), name


def test_canonical_g_for_group_algebra_is_unit():
    _, A, dual, E, parts = pipeline("s3")
    got = canonical_g(A, dual.S, [V for V, _ in parts])
    assert np.allclose(got.g, A.unit, atol=1e-9)


def test_canonical_g_for_a_table_algebra_is_unit():
    """S(b_i) = b_{i*} squares to the identity, so the CLI takes g = 1 for a
    scheme without decomposing it; the solved canonical g agrees."""
    for name in ("c5_scheme.json", "petersen_scheme.json"):
        mats = fio.load_scheme_v1(data_path(name))["matrices"]
        A, dual = table_algebra(scheme_from_matrices(mats))
        parts = decompose(regular_representation(A))
        got = canonical_g(A, dual.S, [V for V, _ in parts])
        assert np.abs(got.g - A.unit).max() < 1e-12, name


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


def test_canonical_g_needs_the_complete_set_of_irreducibles():
    """The glue reads tau = sum_X dim X chi_X off the irreducibles, so a
    list whose dims squared do not sum to dim A is refused by name: C[S3]
    with its 2-dim irreducible twice (the least-squares glue accepted it)
    or with the trivial one missing (it failed later, as S(g) != g^-1)."""
    from fsclass.errors import InternalConsistency
    _, A, dual, _, parts = pipeline("s3")
    sign, triv, two = [V for V, _ in parts]
    assert [V.dim for V in (sign, triv, two)] == [1, 1, 2]
    assert np.allclose(triv.character(), 1) and sign.character()[1] == -1
    for irreps, total in (([sign, triv, two, two], 10), ([sign, two], 5)):
        with pytest.raises(InternalConsistency, match=r"^irreducibles do not "
                           rf"span A: sum of dim\^2 is {total}, not 6$"):
            canonical_g(A, dual.S, irreps)


def _m2_twisted_by(w):
    """S(a) = w a^T w^-1 on M_2(C), not validated: anti-multiplicative, with
    S^2 = Ad(w w^-T), but S(S(a)*)* = a only when w conj(w) is scalar."""
    A = m2_dual_structures()[0]
    cols = [w @ np.eye(4)[k].reshape(2, 2).T @ np.linalg.inv(w)
            for k in range(4)]
    return A, AntiAlgebraMap(np.array(cols).reshape(4, 4).T)


def test_each_canonical_g_check_fires():
    """One named corruption per check of `canonical_g`, each an input that
    skips the check that would refuse it first:
    - S^2 = Ad(diag(1, -1)) on M_2 (w = [[0, i], [1, 0]]): the twisted
      intertwiner is traceless in the invariant metric;
    - S^2 = Ad(diag(1, -2)) (w = [[0, i / sqrt 2], [1, 0]]): after the
      phase fix it is indefinite;
    - C[S3] with its sign irreducible in place of the trivial one: dims
      squared sum to 6, but tau is wrong, so rho_sign(g) = 2 g_sign;
    - S(e_g) = w^g e_g on C[Z3], w = exp(2 pi i / 3): V o S^2 is another
      irreducible, so Hom(V, V o S^2) = 0;
    - the trivial irreducible of C[Z4] twice, as one 2-dim V: its twisted
      intertwiners span all 2 x 2 matrices."""
    from fsclass.errors import (BadDualStructure, InternalConsistency,
                                NoTwistedMap)
    A, S = _m2_twisted_by(np.array([[0, 1j], [1, 0]]))
    parts = [V for V, _ in decompose(regular_representation(A))]
    with pytest.raises(BadDualStructure) as info:
        canonical_g(A, S, parts)
    assert check_text(str(info.value)) == \
        "twisted intertwiner has trace zero in the invariant metric"
    A, S = _m2_twisted_by(np.array([[0, 1j / np.sqrt(2)], [1, 0]]))
    with pytest.raises(BadDualStructure, match=r"^twisted intertwiner is not "
                       r"positive in the invariant metric \(residual 4\.472e-01,"):
        canonical_g(A, S, parts)   # eigenvalues (-1, 2) / sqrt 5
    _, A, dual, _, parts = pipeline("s3")
    sign, _, two = [V for V, _ in parts]
    with pytest.raises(InternalConsistency, match=r"^irrep 0: block element "
                       r"does not glue \(residual 1\.000e\+00,"):
        canonical_g(A, dual.S, [sign, sign, two])
    _, A, _, _, parts = pipeline("z3")
    twist = AntiAlgebraMap(np.diag(np.exp(2j * np.pi / 3) ** np.arange(3)))
    with pytest.raises(NoTwistedMap, match=r"^irrep 0: no twisted "
                       r"intertwiner for a 1-dim irreducible$"):
        canonical_g(A, twist, [V for V, _ in parts])
    _, A, dual, _, _ = pipeline("z4")
    V = Representation(A, np.ones((4, 1, 1)) * np.eye(2))
    with pytest.raises(InternalConsistency, match=r"^twisted intertwiner "
                       r"space has dim > 1$"):
        canonical_g(A, dual.S, [V])


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
