"""End-to-end acceptance checks for the indicator/classification pipeline.

One test per advertised guarantee, run over the whole bundled corpus:
group algebras, association schemes, groupoid algebras, doubles of group
algebras, and hand-built dual structures on M_2(C).
"""
import time

import numpy as np
import pytest

from fsclass import (canonical_g, check_cstar, classify_sigma, compact_decompose,
                     corep_indicator, cqg_indicator, cyclic_group, decompose,
                     drinfeld_double, dualize, fs_indicator_formula,
                     full_report, group_algebra,
                     group_weak_hopf, groupoid_weak_hopf,
                     is_positive_element, pair_groupoid,
                     regular_representation, scheme_from_matrices,
                     separability_idempotent, table_algebra, table_indicator,
                     twisted_indicator)
from fsclass.algebra import (SeparabilityIdempotent, real_form_from_conjugation,
                             real_form_from_S)
from fsclass.coalgebra import gamma_full
from fsclass.constructors import disjoint_union_groupoid
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import make_rng

from conftest import (GROUP_FILES, classical_oracle, fixed_space_of_antilinear,
                      haar_separability, load_group, m2_dual_structures)


class Instance:
    def __init__(self, name, A, dual, parts, **extra):
        self.name = name
        self.A = A
        self.dual = dual
        self.parts = parts
        self.extra = extra

    @property
    def irreps(self):
        return [V for V, _ in self.parts]


def _build_corpus():
    out = []
    for name in GROUP_FILES:
        G = load_group(name)
        A, dual = group_algebra(G)
        parts = decompose(regular_representation(A))
        out.append(Instance(name, A, dual, parts, G=G,
                            haar_E=haar_separability(A)))
    for m in (2, 3, 4):
        W, dual = groupoid_weak_hopf(pair_groupoid(m))
        parts = decompose(regular_representation(W.algebra))
        out.append(Instance(f"pair{m}", W.algebra, dual, parts, W=W))
    W, dual = groupoid_weak_hopf(
        disjoint_union_groupoid([cyclic_group(2), cyclic_group(2)]))
    parts = decompose(regular_representation(W.algebra))
    out.append(Instance("two_z2", W.algebra, dual, parts, W=W))
    for name in ("z2", "s3"):
        W, dual = drinfeld_double(load_group(name))
        parts = decompose(regular_representation(W.algebra))
        out.append(Instance(f"double_{name}", W.algebra, dual, parts, W=W))
    from conftest import data_path
    from fsclass import io as fio
    for sname in ("c5_scheme", "petersen_scheme"):
        d = fio.load_scheme_v1(data_path(sname + ".json"))
        T = scheme_from_matrices(d["matrices"])
        A, dual = table_algebra(T)
        parts = decompose(regular_representation(A))
        dual = canonical_g(A, dual.S, [V for V, _ in parts])
        out.append(Instance(sname, A, dual, parts, T=T))
    A, S1, S2 = m2_dual_structures()
    parts = decompose(regular_representation(A))
    irr = [V for V, _ in parts]
    out.append(Instance("m2_S1", A, canonical_g(A, S1, irr), parts))
    out.append(Instance("m2_S2", A, canonical_g(A, S2, irr), parts))
    return out


@pytest.fixture(scope="module")
def corpus():
    t0 = time.monotonic()
    inst = _build_corpus()
    return inst, time.monotonic() - t0


def test_sigma_equals_nu_over_full_corpus(corpus):
    """Both indicator formulas and the antilinear classification agree
    on every irreducible of every corpus instance, in under 2 minutes."""
    instances, build_time = corpus
    t0 = time.monotonic()
    n_irreps = 0
    for inst in instances:
        E = separability_idempotent(inst.A)
        report = full_report(inst.A, inst.dual, inst.parts, E)
        for row in report.rows:
            assert row.nu_formula == row.nu_trace == row.sigma
            assert abs(row.nu_formula_raw - row.nu_formula) < 1e-6
            n_irreps += 1
    assert n_irreps >= 60
    assert build_time + (time.monotonic() - t0) < 120.0


def test_classical_indicator_values(corpus):
    instances, _ = corpus
    expected = {"q8": [-1, 1, 1, 1, 1], "s3": [1, 1, 1],
                "z5": [0, 0, 0, 0, 1], "z4": [0, 0, 1, 1]}
    by_name = {inst.name: inst for inst in instances}
    for name, want in expected.items():
        inst = by_name[name]
        G = inst.extra["G"]
        got = []
        for V in inst.irreps:
            chi = V.character()
            oracle = classical_oracle(G, chi)
            nu, _ = fs_indicator_formula(V, inst.dual.S, inst.dual.g,
                                         inst.extra["haar_E"])
            assert nu == round(oracle.real)
            got.append(nu)
        assert sorted(got) == want


def test_canonical_g_properties(corpus):
    instances, _ = corpus
    for inst in instances:
        A, S = inst.A, inst.dual.S
        dual = canonical_g(A, S, inst.irreps)
        g = dual.g
        # S(g) = g^{-1} and S^2 = conjugation by g
        assert np.abs(A.left_mult(S.apply(g)) @ g - A.unit).max() < 1e-8
        S2 = S.squared()
        ginv = np.linalg.solve(A.left_mult(g), A.unit)
        for e in np.eye(A.dim):
            lhs = S2 @ e
            rhs = A.left_mult(A.left_mult(g) @ e) @ ginv
            assert np.abs(lhs - rhs).max() < 1e-8
        assert check_cstar(A)[1] and is_positive_element(A, g)
        for V in inst.irreps:
            tg = np.trace(V.apply(g)).real
            tginv = np.trace(V.apply(ginv)).real
            assert tg > 0
            assert abs(tg - tginv) < 1e-8


def test_canonical_g_m2_value_and_reordering(corpus):
    instances, _ = corpus
    inst = next(i for i in instances if i.name == "m2_S2")
    assert np.abs(inst.dual.g
                  - np.array([0.25, 0, 0, 4.0])).max() < 1e-8
    for target in instances:
        g1 = canonical_g(target.A, target.dual.S, target.irreps).g
        g2 = canonical_g(target.A, target.dual.S, target.irreps[::-1]).g
        assert np.abs(g1 - g2).max() < 1e-8


def test_indicator_independent_of_separability_idempotent(corpus):
    instances, _ = corpus
    rng = make_rng(7)
    for inst in instances:
        A = inst.A
        U, _ = np.linalg.qr(rng.standard_normal((A.dim, A.dim))
                            + 1j * rng.standard_normal((A.dim, A.dim)))
        B = A.orthonormal_basis @ U
        rotated = SeparabilityIdempotent(A, B @ A.star(B).T)
        rotated.verify(eps=A.tol.eps_eig * 100)
        idempotents = [separability_idempotent(A), rotated]
        if "haar_E" in inst.extra:
            idempotents.append(inst.extra["haar_E"])
        for V in inst.irreps:
            raws = [fs_indicator_formula(V, inst.dual.S, inst.dual.g, E)[1]
                    for E in idempotents]
            for r in raws[1:]:
                assert abs(r - raws[0]) < 1e-6


def test_twisted_reduction(corpus):
    instances, _ = corpus
    by_name = {inst.name: inst for inst in instances}
    # tau = id reproduces the untwisted classical values
    for name in ("q8", "s3", "z5", "z4"):
        inst = by_name[name]
        G = inst.extra["G"]
        for V in inst.irreps:
            s, _ = twisted_indicator(G, np.arange(G.order), V)
            assert s == round(classical_oracle(G, V.character()).real)
    # Z/3 twisted by inversion: sum chi(tau(h) h) = sum chi(e) = 3 chi(e)
    inst = by_name["z3"]
    G = inst.extra["G"]
    tau = np.array([0, 2, 1])
    for V in inst.irreps:
        s, _ = twisted_indicator(G, tau, V)
        assert s == 1
    # the twisted value matches the classification over the twisted real form
    for name, tau in (("z3", np.array([0, 2, 1])),
                      ("z4", np.arange(4)),
                      ("q8", np.arange(8)),
                      ("s3", np.arange(6))):
        inst = by_name[name]
        G = inst.extra["G"]
        A, dual = inst.A, inst.dual
        tau_mat = np.zeros((G.order, G.order))
        tau_mat[tau, np.arange(G.order)] = 1.0
        K = A.star_matrix @ np.conj(dual.S.matrix)
        R = real_form_from_conjugation(A, tau_mat @ K)
        for V in inst.irreps:
            s, raw = twisted_indicator(G, tau, V)
            assert classify_sigma(V, R).sigma == s
            assert abs(raw - s) < 1e-6


def test_table_algebra_theorem(corpus):
    instances, _ = corpus
    for name in ("c5_scheme", "petersen_scheme"):
        inst = next(i for i in instances if i.name == name)
        T = inst.extra["T"]
        from fsclass.constructors import table_central_element
        v = table_central_element(T)
        unit = np.zeros(T.rank)
        unit[0] = 1.0
        raws = []
        for V in inst.irreps:
            chi = V.character()
            s, raw = table_indicator(T, chi)
            norm = (chi @ v) / (chi @ unit)
            assert abs(raw - norm * s) < 1e-6
            if V.dim == 1:
                assert s in (0, 1)
            raws.append(raw.real)
        if name == "c5_scheme":
            assert any(abs(r - 2.5) < 1e-8 for r in raws)


def test_weak_hopf_theorem(corpus):
    instances, _ = corpus
    hopf = [inst for inst in instances if "W" in inst.extra]
    assert len(hopf) == 6
    for inst in hopf:
        W = inst.extra["W"]
        A = inst.A
        lam = W.haar_integral()     # NoHaar unless Lam passes its identities
        # m(Delta(Lam)) is central
        z = np.einsum("jk,jkl->l", W.delta_of(lam), A.structure)
        assert np.abs(A.left_mult(z) - A.right_mult(z)).max() < 1e-8
        R = real_form_from_S(A, inst.dual.S)
        for V in inst.irreps:
            s, raw = W.indicator(V, inst.dual.g)
            assert s == classify_sigma(V, R).sigma
            assert abs(raw - s) < 1e-6


def test_coalgebra_duality(corpus):
    instances, _ = corpus
    for inst in instances:
        A, dual = inst.A, inst.dual
        E = separability_idempotent(A)
        report = full_report(A, dual, inst.parts, E)
        C = dualize(A)
        dec = compact_decompose(C)
        vs = dual.S.matrix.T
        gam = gamma_full(C, vs)[0]
        for row, block in zip(report.rows, dec.blocks):
            cval = corep_indicator(C, block, vs, gam, dec.E)
            assert abs(cval - row.nu_formula) < 1e-6


def test_cqg_haar_sign_pattern(corpus):
    # on the function coalgebra of a finite group the coreps are the group
    # elements and h(t_(1) t_(2)) is 1 exactly on the involutions
    for name in ("z2", "z4", "q8"):
        G = load_group(name)
        W, _ = group_weak_hopf(G)
        dec = compact_decompose(W.coalgebra)
        for block, val in zip(dec.blocks, cqg_indicator(W, dec), strict=True):
            coeff = block.rho[:, 0, 0]   # c_00 of the 1-dim corepresentation
            g = int(np.argmax(np.abs(coeff)))
            expect = 1.0 if G.table[g, g] == 0 else 0.0
            assert abs(val - expect) < 1e-6


def test_decomposition_engine_double_s3():
    W, dual = drinfeld_double(load_group("s3"))
    V = regular_representation(W.algebra)
    t0 = time.monotonic()
    parts = decompose(V)
    elapsed = time.monotonic() - t0
    multiset = sorted(p.dim for p, _ in parts)
    assert multiset == [1, 1, 2, 2, 2, 2, 3, 3]
    assert sum(d * d for d in multiset) == 36
    assert elapsed < 10.0
    for seed in range(1, 5):
        other = sorted(p.dim for p, _ in decompose(V, seed=seed))
        assert other == multiset


def _closure(G, elements) -> set:
    """The subgroup of G generated by elements."""
    group, frontier = {0}, {0}
    while frontier:
        frontier = {int(G.table[x, y]) for x in frontier
                    for y in elements} - group
        group |= frontier
    return group


def _conjugate(G, h: int, g: int) -> int:
    """h g h^-1, read off the group table."""
    return int(G.table[G.table[h, g], G.inverse[h]])


def _dpr_dimensions(G) -> list[int]:
    """Sorted dimensions [G : C_G(a)] dim pi of the irreducibles of D(G),
    one per conjugacy class a of G and irreducible pi of the centralizer
    C_G(a) (Dijkgraaf-Pasquier-Roche 1990), from the group table.  A
    centralizer H of order at most 8 has [H : H'] linear characters, H' its
    derived subgroup, and its other k(H) - [H : H'] irreducibles share one
    dimension d with (k(H) - [H : H']) d^2 = |H| - [H : H']."""
    t, inv, n = G.table, G.inverse, G.order
    seen, dims = set(), []
    for a in range(n):
        if a in seen:
            continue
        seen |= {_conjugate(G, h, a) for h in range(n)}
        H = [h for h in range(n) if t[h, a] == t[a, h]]
        assert len(H) <= 8
        k = len({frozenset(_conjugate(G, h, x) for h in H) for x in H})
        derived = _closure(G, {int(t[t[x, y], t[inv[x], inv[y]]])
                               for x in H for y in H})
        linear = len(H) // len(derived)
        d = 1
        if k > linear:
            d2, rest = divmod(len(H) - linear, k - linear)
            d = int(round(d2 ** 0.5))
            assert rest == 0 and d * d == d2
        dims += [n // len(H) * x for x in [1] * linear + [d] * (k - linear)]
    return sorted(dims)


@pytest.mark.parametrize("name, count", [("s3", 8), ("q8", 22), ("d4", 22)])
def test_drinfeld_double_matches_dpr(name, count):
    """D(G) against oracles read off the group table alone: as many
    irreducibles as pairwise-commuting triples over |G|, the
    Dijkgraaf-Pasquier-Roche dimensions, and sum_V nu(V) dim V = Tr(S),
    the number of basis elements delta_g x h that S fixes (h^2 = 1 and
    h g^-1 h^-1 = g)."""
    G = load_group(name)
    t, inv, n = G.table, G.inverse, G.order
    commute = (t == t.T).astype(int)
    triples = int(np.einsum("ab,ac,bc->", commute, commute, commute))
    assert divmod(triples, n) == (count, 0)
    fixed = sum(1 for g in range(n) for h in range(n)
                if t[h, h] == 0 and _conjugate(G, h, inv[g]) == g)
    W, dual = drinfeld_double(G)
    A = W.algebra
    parts = decompose(regular_representation(A))
    assert len(parts) == count
    assert sorted(V.dim for V, _ in parts) == _dpr_dimensions(G)
    report = full_report(A, dual, parts, A.separability_idempotent)
    assert sum(r.nu_formula * r.dim for r in report.rows) == fixed
    assert np.trace(dual.S.matrix) == fixed


def test_witness_validity(corpus):
    instances, _ = corpus
    for inst in instances:
        R = real_form_from_S(inst.A, inst.dual.S)
        for V in inst.irreps:
            res = classify_sigma(V, R)
            if res.sigma == 1:
                B = res.witness
                for x in fixed_space_of_antilinear(R.conj_matrix, TOL).T:
                    M = np.linalg.solve(B, V.apply(x) @ B)
                    assert np.abs(M.imag).max() < 1e-7
            elif res.sigma == -1:
                J = res.j_matrix
                assert np.abs(J @ np.conj(J)
                              + np.eye(V.dim)).max() < 1e-7
