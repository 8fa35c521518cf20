"""The tensor-identity validators against the loop forms they replaced.

Each reference below is the earlier per-basis-pair loop (or einsum) form
of one check, returning the message it raised first.  For one corrupted
entry of each input, the validator must raise the same exception type with
the same message, so the same reported (i, j) or e{i}.  The associativity
kernel and the product-map kernel are also compared with their dense
forms, on monomial inputs (index-table path) and on dense ones, and the
index-table kernel past the dense cap with a sparse reference.  The
coordinate-list multiplicativity kernel is compared with the `scipy.sparse`
products it replaced.  The array loaders of `fsclass.io` are compared with
the per-entry loaders they replaced, `loop_load_*`, on every input and on
seeded corruptions of every field.
"""
import copy
import json
import os
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import fsclass.algebra
from fsclass import (FDStarAlgebra, GroupoidData, GroupTable, cyclic_group,
                     drinfeld_double, group_algebra, group_from_permutations,
                     group_weak_hopf, groupoid_weak_hopf, pair_groupoid,
                     scheme_from_matrices, table_algebra)
from fsclass import io as fio
from fsclass.algebra import (DENSE_DIM_CAP, AntiAlgebraMap,
                             SeparabilityIdempotent, associator_residual,
                             product_map_residual, real_form_from_conjugation,
                             real_form_from_S, table_associator_residual)
from fsclass.constructors import (_coo_product, _coo_sum,
                                  _multiplicativity_residual, _weak_hopf,
                                  double_product_table)
from fsclass.errors import (AxiomViolation, BadDualStructure, BadGroup,
                            BadGroupoid, BadStar, NotAntiMap, NotAssociative,
                            SchemaError)
from fsclass.linalg import DEFAULT_TOL as TOL

from conftest import (DATA, DUAL_ERRORS, build_m2, check_text, data_path,
                      delta_tensor, diagonal_rescaling, einsum_coalgebra,
                      kind_of, load_group, m2_dual_structures, rescaled,
                      s4_on_twelve_points, thin_scheme)


def _mult(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def loop_assoc(c):
    n = c.shape[0]
    eps = TOL.eps_rank * max(1.0, np.abs(c).max()) ** 2 * n
    assoc = np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)
    bad = np.abs(assoc).max()
    if bad > eps:
        i, j, k, _ = np.unravel_index(np.abs(assoc).argmax(), assoc.shape)
        return (f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}) "
                f"(residual {bad:.3e}, threshold {eps:.3e})")
    return None


def loop_star(c, sig):
    n = c.shape[0]
    eps = TOL.eps_rank * max(1.0, np.abs(c).max()) ** 2 * n
    e = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            lhs = sig @ np.conj(_mult(c, e[i], e[j]))
            rhs = _mult(c, sig @ np.conj(e[j]), sig @ np.conj(e[i]))
            if np.abs(lhs - rhs).max() > eps:
                return f"(e{i} e{j})* != e{j}* e{i}*"
    return None


def loop_anti_map(A, S):
    n = A.dim
    eps = TOL.eps_eig * max(1.0, np.abs(S).max()) ** 2 * n
    for i in range(n):
        for j in range(n):
            lhs = S @ A.structure[i, j]
            rhs = _mult(A.structure, S[:, j], S[:, i])
            if np.abs(lhs - rhs).max() > eps:
                return f"S(e{i} e{j}) != S(e{j}) S(e{i})"
    comp = A.star_matrix @ np.conj(S) @ np.conj(A.star_matrix) @ S
    if np.abs(comp - np.eye(n)).max() > eps:
        return "S(S(a)*)* != a on the basis"
    return None


def loop_conjugation(A, K):
    n = A.dim
    eps = TOL.eps_eig * max(1.0, np.abs(K).max()) ** 2 * n
    if np.abs(K @ np.conj(K) - np.eye(n)).max() > eps:
        return "conjugation is not involutive"
    for i in range(n):
        for j in range(n):
            lhs = K @ np.conj(A.structure[i, j])
            rhs = _mult(A.structure, K[:, i], K[:, j])
            if np.abs(lhs - rhs).max() > eps:
                return f"conjugation is not multiplicative at (e{i}, e{j})"
    return None


def loop_separability(A, pairs, eps=1e-8):
    c = A.structure
    total = sum(_mult(c, x, y) for x, y in pairs)
    gap = np.abs(total - A.unit).max()
    if gap > eps:
        return (f"sum x_m y_m misses the unit "
                f"(residual {gap:.3e}, threshold {eps:.3e})")
    for i in range(A.dim):
        e = np.eye(A.dim)[i]
        lhs = sum(np.outer(_mult(c, e, x), y) for x, y in pairs)
        rhs = sum(np.outer(x, _mult(c, y, e)) for x, y in pairs)
        if np.abs(lhs - rhs).max() > eps:
            return f"centrality identity fails at basis e{i}"
    return None


def loop_weak_hopf(A, Delta, counit):
    n = A.dim
    eps = TOL.eps_eig * max(1, n)
    Dt = Delta.T.reshape(n, n, n)
    coas1 = np.einsum("imc,mab->iabc", Dt, Dt)
    coas2 = np.einsum("iam,mbc->iabc", Dt, Dt)
    if np.abs(coas1 - coas2).max() > eps:
        return "comultiplication is not coassociative"
    eye = np.eye(n)
    left = np.einsum("j,ijk->ik", counit, Dt)
    right = np.einsum("k,ijk->ij", counit, Dt)
    if np.abs(left - eye).max() > eps or np.abs(right - eye).max() > eps:
        return "counit law fails"
    c = A.structure
    lhs = np.einsum("ijk,kab->ijab", c, Dt)
    rhs = np.einsum("ipq,jrs,pra,qsb->ijab", Dt, Dt, c, c, optimize=True)
    if np.abs(lhs - rhs).max() > eps * 10:
        return "comultiplication is not multiplicative"
    return None


def assert_same(exc_type, expected, fn, *args):
    """fn(*args) raises exc_type with the text expected, followed by a
    residual above its threshold unless the check is structural (group and
    groupoid tables); a reference that measures its residual (loop_assoc,
    loop_separability) gives the whole message."""
    assert expected is not None, "corruption did not break the identity"
    with pytest.raises(exc_type) as info:
        fn(*args)
    got = str(info.value)
    text = got if exc_type in (BadGroup, BadGroupoid) else check_text(got)
    assert (got if " (residual " in expected else text) == expected


def _positions(shape, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(count)]


def test_associativity_reports_the_loop_index():
    for A in (group_algebra(load_group("s3"))[0], build_m2()):
        for pos in _positions(A.structure.shape, 6, seed=1):
            c = A.structure.copy()
            c[pos] += 0.5
            assert_same(NotAssociative, loop_assoc(c),
                        FDStarAlgebra, c, A.unit, A.star_matrix)


def test_star_reversal_reports_the_loop_index():
    G = load_group("s3")
    A = group_algebra(G)[0]
    for g in range(G.order):
        if G.inverse[g] != g:
            continue
        for value in (-1.0, 1j):     # unimodular: sigma stays involutive
            sig = A.star_matrix.copy()
            sig[g, g] = value
            assert_same(BadStar, loop_star(A.structure, sig),
                        FDStarAlgebra, A.structure, A.unit, sig)


def test_anti_map_reports_the_loop_index():
    A = group_algebra(load_group("s3"))[0]
    M2, _, S2 = m2_dual_structures()
    for B, S in ((A, A.star_matrix), (M2, S2.matrix)):
        for pos in _positions(S.shape, 6, seed=2):
            bad = S.copy()
            bad[pos] += 0.5
            assert_same(NotAntiMap, loop_anti_map(B, bad),
                        AntiAlgebraMap.validated, B, bad)


def test_conjugation_reports_the_loop_index():
    A = group_algebra(load_group("s3"))[0]
    for g in range(A.dim):
        for value in (-1.0, 1j):     # unimodular diagonal: still involutive
            K = np.eye(A.dim, dtype=complex)
            K[g, g] = value
            assert_same(NotAntiMap, loop_conjugation(A, K),
                        real_form_from_conjugation, A, K)


def _m2_pairs():
    """sum_ij E_ij / 2 (x) E_ji on the basis E_ij = e_(2i + j)."""
    pairs = []
    for i in range(2):
        for j in range(2):
            x = np.zeros(4, dtype=complex)
            y = np.zeros(4, dtype=complex)
            x[2 * i + j] = 0.5
            y[2 * j + i] = 1.0
            pairs.append((x, y))
    return pairs


def _tensor(pairs):
    """sum_m x_m (x) y_m as the coefficient matrix SeparabilityIdempotent
    stores."""
    return sum(np.outer(x, y) for x, y in pairs)


def test_separability_verify_reports_the_loop_index():
    A = build_m2()
    SeparabilityIdempotent(A, _tensor(_m2_pairs())).verify()
    # E_11 (E_11 + E_22) / 2 = E_11 / 2 keeps the unit and breaks centrality
    pairs = _m2_pairs()
    pairs[0] = (pairs[0][0], pairs[0][1] + np.array([0, 0, 0, 1.0]))
    expected = loop_separability(A, pairs)
    assert expected.startswith("centrality")
    assert_same(BadDualStructure, expected,
                SeparabilityIdempotent(A, _tensor(pairs)).verify)
    for m, side, k in _positions((4, 2, 4), 8, seed=3):
        pairs = _m2_pairs()
        x, y = (v.copy() for v in pairs[m])
        (x, y)[side][k] += 0.5
        pairs[m] = (x, y)
        assert_same(BadDualStructure, loop_separability(A, pairs),
                    SeparabilityIdempotent(A, _tensor(pairs)).verify)


def _rebased_hopf(W, P):
    """The Hopf data of W on the basis f_j = sum_i P[i, j] e_i."""
    Pinv = np.linalg.inv(P)
    n, A = W.dim, W.algebra
    c = np.einsum("ia,jb,ijk,ck->abc", P, P, A.structure, Pinv, optimize=True)
    B = FDStarAlgebra(c, Pinv @ A.unit, Pinv @ A.star_matrix @ np.conj(P))
    Dt = np.einsum("ia,ijk,bj,ck->abc", P, delta_tensor(W.coalgebra), Pinv,
                   Pinv, optimize=True)
    S = AntiAlgebraMap.validated(B, Pinv @ W.S.matrix @ P)
    return B, Dt.reshape(n, n * n).T, P.T @ W.counit, S


def _transported_delta(W, p, q, t):
    """(T (x) T) Delta T^-1 for T = 1 + t E_pq with counit[p] = 0: still
    coassociative and counital, but T is no algebra map."""
    n = W.dim
    T = np.eye(n, dtype=complex)
    T[p, q] += t
    return np.kron(T, T) @ W.Delta @ np.linalg.inv(T)


def _check_weak_hopf(W, Delta, counit=None, A=None, S=None):
    """loop_weak_hopf decides that Delta is refused.  Its coassociativity
    and counit failures are failures of the coalgebra with co-star S(c)*,
    raised as the errors DUAL_ERRORS names.  A Delta that is only not
    multiplicative fails first where einsum_coalgebra finds that co-star
    broken, else with the multiplicativity message."""
    A = W.algebra if A is None else A
    counit = W.counit if counit is None else counit
    S = W.S if S is None else S
    expected = loop_weak_hopf(A, Delta, counit)
    assert expected is not None, "corruption did not break the identity"
    if expected == "comultiplication is not multiplicative":
        star = A.star_matrix @ np.conj(S.matrix)
        expected = einsum_coalgebra(Delta, counit, star) or expected
    error = DUAL_ERRORS.get(expected, AxiomViolation)
    with pytest.raises(error) as info:
        _weak_hopf(A, Delta, counit, S)
    if error is AxiomViolation:
        assert check_text(str(info.value)) == expected


def _m2_matrix_coalgebra():
    """M2 with the matrix coalgebra Delta(e_ij) = sum_k e_ik (x) e_kj, its
    counit and the transpose as antipode."""
    A, _, _ = m2_dual_structures()
    Delta = np.zeros((16, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                Delta[(2 * i + k) * 4 + 2 * k + j, 2 * i + j] = 1.0
    counit = np.array([1, 0, 0, 1], dtype=complex)
    transpose = AntiAlgebraMap.validated(A, A.star_matrix.real)
    return A, Delta, counit, transpose


def test_weak_hopf_reports_the_loop_check():
    W, _ = group_weak_hopf(load_group("s3"))
    for pos in _positions(W.Delta.shape, 6, seed=4):
        Delta = W.Delta.copy()
        Delta[pos] += 0.5
        _check_weak_hopf(W, Delta)
    # D(S3): Delta is not group-like, and dim 36 leaves most of c and Delta 0
    D, _ = drinfeld_double(load_group("s3"))
    for pos in _positions(D.Delta.shape, 6, seed=5):
        Delta = D.Delta.copy()
        Delta[pos] += 0.5
        _check_weak_hopf(D, Delta)
    # a transported Delta passes every coalgebra check, so it reaches the
    # multiplicativity check
    p = int(np.flatnonzero(D.counit == 0)[0])
    Delta = _transported_delta(D, p, p + 1, 0.5)
    expected = loop_weak_hopf(D.algebra, Delta, D.counit)
    assert expected == "comultiplication is not multiplicative"
    assert einsum_coalgebra(Delta, D.counit, D.coalgebra.star_matrix) is None
    _check_weak_hopf(D, Delta)
    # C[S3] on a seeded real orthogonal basis: c and Delta are dense
    Q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))[0]
    B, Delta, counit, S = _rebased_hopf(W, Q)
    assert np.count_nonzero(Delta) > Delta.size // 2
    assert loop_weak_hopf(B, Delta, counit) is None
    _weak_hopf(B, Delta, counit, S)
    for pos in _positions(Delta.shape, 6, seed=7):
        bad = Delta.copy()
        bad[pos] += 0.5
        _check_weak_hopf(W, bad, counit, B, S)
    # matrix coalgebra on M2: coassociative and counital, not
    # multiplicative, and the co-star S(c)* does not reverse its Delta
    A, Delta, counit, transpose = _m2_matrix_coalgebra()
    expected = loop_weak_hopf(A, Delta, counit)
    assert expected == "comultiplication is not multiplicative"
    assert_same(BadStar, "(e0 e1)* != e1* e0*",
                _weak_hopf, A, Delta, counit, transpose)
    _check_weak_hopf(None, Delta, counit, A, transpose)


def _pair3_weak_hopf():
    d = fio.load_groupoid_v1(data_path("pair3_groupoid.json"))
    return groupoid_weak_hopf(
        GroupoidData.validated(d["objects"], d["arrows"], d["compose"]))[0]


def _tuples(rows: np.ndarray) -> list[tuple]:
    """A loader's (m, k) groupoid array as the list of tuples the
    corruptions below edit."""
    return list(map(tuple, rows.tolist()))


def _one_object(table):
    """Triples (a, b, table[a][b]) of a one-object groupoid."""
    return [(a, b, ab) for a, row in enumerate(table) for b, ab in enumerate(row)]


def test_groupoid_validation_rejects_each_broken_axiom():
    """One corruption per rejection of `GroupoidData.validated`: the pair
    groupoid on two objects with one composite dropped or sent to an arrow
    with other ends, and one-object compositions that are not associative
    (a b = -a - b mod 3), have no identity (a b = a) or have a non-invertible
    arrow (a b = max(a, b)); and Z2's table with a triple naming an arrow
    out of range, refused before a repeated pair is looked for."""
    d = fio.load_groupoid_v1(data_path("pair2_groupoid.json"))
    arrows, compose = _tuples(d["arrows"]), _tuples(d["compose"])
    a, b, ab = compose[0]
    wrong = next(x for x in range(len(arrows)) if arrows[x] != arrows[ab])
    loop = [(0, 0)] * 3
    z2 = _one_object([[0, 1], [1, 0]])
    cases = [
        (loop[:2], z2 + [(7, 0, 1)], "triple (7, 0, 1) names an arrow outside"
         " 0..1"),
        (loop[:2], [z2[0], z2[0], (1, 1, 5)], "triple (1, 1, 5) names"),
        (loop[:2], z2[:3] + [(1, 1, -2)], "triple (1, 1, -2) names"),
        (arrows, compose[1:], f"composability of ({a}, {b}) disagrees"),
        (arrows, [(a, b, wrong)] + compose[1:], f"composite of ({a}, {b}) "
         "has wrong ends"),
        (loop, _one_object([[(-x - y) % 3 for y in range(3)]
                            for x in range(3)]), "not associative"),
        (loop[:2], _one_object([[0, 0], [1, 1]]), "no identity arrow"),
        (loop[:2], _one_object([[0, 1], [1, 1]]), "has no inverse"),
    ]
    GroupoidData.validated(d["objects"], arrows, compose)
    for arr, triples, message in cases:
        with pytest.raises(BadGroupoid, match=re.escape(message)):
            GroupoidData.validated(1 + max(max(x) for x in arr), arr, triples)


def test_groupoid_arrow_ends_must_name_objects():
    """An arrow end outside 0..n_objects-1 is refused, naming the arrow,
    before any triple is read: past the last object it escaped as
    IndexError, and -1 named the last object."""
    z2 = _one_object([[0, 1], [1, 0]])
    with pytest.raises(BadGroupoid,
                       match=r"^arrow 1 has an end outside 0\.\.1$"):
        GroupoidData.validated(2, [(0, 0), (3, 3)], [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(BadGroupoid,
                       match=r"^arrow 1 has an end outside 0\.\.1$"):
        GroupoidData.validated(2, [(0, 0), (0, -1), (1, 1)],
                               [(9, 9, 9)])
    with pytest.raises(BadGroupoid,
                       match=r"^arrow 0 has an end outside 0\.\.0$"):
        GroupoidData.validated(1, [(-1, -1), (-1, -1)], z2)
    GroupoidData.validated(1, [(0, 0), (0, 0)], z2)


def test_more_objects_than_arrows_is_refused_before_any_table():
    """Each object needs an identity arrow of its own, so more objects than
    arrows is refused first, with the identity message and nothing sized
    by the object count (an int64 array of 10**6 entries is 8 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(BadGroupoid,
                           match=r"^some object has no identity arrow$"):
            GroupoidData.validated(10**6, [(0, 0)], [(0, 0, 0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(BadGroupoid,
                       match=r"^some object has no identity arrow$"):
        GroupoidData.validated(10**400, [(0, 0)], [(0, 0, 0)])
    with pytest.raises(BadGroupoid,
                       match=r"^some object has no identity arrow$"):
        GroupoidData.validated(3, [(0, 0), (1, 1)], [(0, 0, 0), (1, 1, 1)])


def loop_groupoid(n_objects, arrows, triples):
    """The per-pair and per-triple loops GroupoidData.validated ran on its
    composition dict: the message it raised first, or None."""
    src = [s for s, _ in arrows]
    tgt = [t for _, t in arrows]
    n = len(arrows)
    comp = {}
    for a, b, ab in triples:
        if (a, b) in comp:
            return f"composite of ({a}, {b}) is given twice"
        comp[(a, b)] = ab
    for a in range(n):
        for b in range(n):
            defined = (a, b) in comp
            if defined != (src[a] == tgt[b]):
                return f"composability of ({a}, {b}) disagrees with src/tgt"
            if defined:
                ab = comp[(a, b)]
                if src[ab] != src[b] or tgt[ab] != tgt[a]:
                    return f"composite of ({a}, {b}) has wrong ends"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (a, b) in comp and (b, c) in comp:
                    if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]:
                        return "composition is not associative"
    ident = [-1] * n_objects
    for e in range(n):
        if src[e] == tgt[e] and all(
                comp.get((e, b)) == b for b in range(n) if tgt[b] == src[e]):
            if all(comp.get((a, e)) == a for a in range(n) if src[a] == src[e]):
                ident[src[e]] = e
    if min(ident) < 0:
        return "some object has no identity arrow"
    for a in range(n):
        if not any(comp.get((a, b)) == ident[tgt[a]] and
                   comp.get((b, a)) == ident[src[a]] for b in range(n)):
            return "some arrow has no inverse"
    return None


def _with_object(g, table):
    """g with one more object whose arrows compose by the one-object
    table, numbered after g's arrows."""
    m, arrows, triples = g
    off = len(arrows)
    return (m + 1, arrows + [(m, m)] * len(table),
            triples + [(off + a, off + b, off + ab)
                       for a, b, ab in _one_object(table)])


def _groupoid_bases():
    """pair2, pair3, pair4, two_z2 and the one-object tables of Z3, S3
    and Q8, as (objects, arrows, triples)."""
    for name in ("pair2", "pair3", "pair4", "two_z2"):
        d = fio.load_groupoid_v1(data_path(f"{name}_groupoid.json"))
        yield d["objects"], _tuples(d["arrows"]), _tuples(d["compose"])
    for G in (cyclic_group(3), load_group("s3"), load_group("q8")):
        yield 1, [(0, 0)] * G.order, _one_object(G.table.tolist())


def _relabelled(g, rng):
    """g with its arrows renumbered and its triples shuffled."""
    m, arrows, triples = g
    p = rng.permutation(len(arrows))
    moved = [None] * len(arrows)
    for x, y in enumerate(p):
        moved[y] = arrows[x]
    out = [(int(p[a]), int(p[b]), int(p[ab])) for a, b, ab in triples]
    return m, moved, [out[i] for i in rng.permutation(len(out))]


# associative tables on a new object: no identity, or one but no inverse
SEMIGROUPS = {"x y = x": [[0, 0], [1, 1]], "x y = y": [[0, 1], [0, 1]],
              "x y = max": [[0, 1], [1, 1]]}


def _groupoid_corruption(g, kind, rng):
    """g with one seeded corruption of the kind given, or None when g has
    no room for it: no arrow with other ends, or none other with the
    same ends."""
    m, arrows, triples = g
    triples = list(triples)
    i = int(rng.integers(len(triples)))
    a, b, ab = triples[i]
    ends = [x for x in range(len(arrows)) if arrows[x] == arrows[ab]]
    if kind == "drop":
        del triples[i]
    elif kind == "ends":
        if len(ends) == len(arrows):
            return None
        triples[i] = (a, b, int(rng.choice(
            [x for x in range(len(arrows)) if x not in ends])))
    elif kind == "extra":   # a composite of a pair that does not compose
        loose = [(x, y) for x in range(len(arrows)) for y in range(len(arrows))
                 if arrows[x][0] != arrows[y][1]]
        if not loose:
            return None
        x, y = loose[int(rng.integers(len(loose)))]
        triples.insert(int(rng.integers(len(triples) + 1)),
                       (x, y, int(rng.integers(len(arrows)))))
    elif kind == "repeat":
        triples.insert(int(rng.integers(len(triples) + 1)),
                       (a, b, int(rng.integers(len(arrows)))))
    elif kind == "swap":    # same ends: composable, but not a groupoid
        if len(ends) == 1:
            return None
        triples[i] = (a, b, int(rng.choice([x for x in ends if x != ab])))
    elif kind in SEMIGROUPS:
        return _relabelled(_with_object(g, SEMIGROUPS[kind]), rng)
    return m, arrows, triples


def test_groupoid_table_reports_the_loop_check():
    """On every base groupoid, renumbered and shuffled, the table checks
    raise what the loops raised first: the same message, so the same
    first failing pair (a, b) in row-major order, also when a dropped
    composite and one with wrong ends compete, and the first repeated
    pair in the order given."""
    rng = np.random.default_rng(32)
    seen = set()
    for base in _groupoid_bases():
        for _ in range(3):
            g = _relabelled(base, rng)
            assert loop_groupoid(*g) is None
            Gd = GroupoidData.validated(*g)
            a, b, ab = np.array(g[2]).T
            assert (Gd.table[a, b] == ab).all()
            assert (Gd.table >= 0).sum() == len(g[2])
            for kind in ("drop", "extra", "ends", "repeat", "swap",
                         *SEMIGROUPS, "drop, ends", "repeat, repeat"):
                bad = g
                for k in kind.split(", "):   # two: the first one fails
                    bad = bad and _groupoid_corruption(bad, k, rng)
                if bad is None:
                    continue
                expected = loop_groupoid(*bad)
                seen.add(re.sub(r"\(\d+, \d+\)", "(a, b)", expected))
                assert_same(BadGroupoid, expected, GroupoidData.validated, *bad)
    assert seen == {
        "composite of (a, b) is given twice",
        "composability of (a, b) disagrees with src/tgt",
        "composite of (a, b) has wrong ends",
        "composition is not associative",
        "some object has no identity arrow",
        "some arrow has no inverse"}


def loop_scheme(mats):
    """The per-class-triple loop scheme_from_matrices ran, with an N x N
    product per class pair: the message it raised first, or the
    intersection numbers and the involution it found.  An empty class
    escapes as IndexError."""
    mats = [np.asarray(m, dtype=int) for m in mats]
    r = len(mats)
    n = mats[0].shape[0]
    if not np.array_equal(sum(mats), np.ones((n, n), dtype=int)):
        return "adjacency matrices do not partition the pairs"
    if not np.array_equal(mats[0], np.eye(n, dtype=int)):
        return "class 0 is not the identity relation"
    star = np.full(r, -1, dtype=int)
    for i in range(r):
        for j in range(r):
            if np.array_equal(mats[i].T, mats[j]):
                star[i] = j
                break
        if star[i] < 0:
            return f"transpose of class {i} is not a class"
    p = np.zeros((r, r, r), dtype=float)
    for i in range(r):
        for j in range(r):
            prod = mats[i] @ mats[j]
            for k in range(r):
                x, y = np.argwhere(mats[k])[0]
                p[i, j, k] = prod[x, y]
                if np.abs(prod * mats[k] - p[i, j, k] * mats[k]).max() != 0:
                    return (f"product of classes {i}, {j} is not constant "
                            f"on class {k}")
    return p, star


def _scheme_bases():
    """c5, Petersen, the thin schemes of Q8 and S3 and S4 on 12 points,
    as lists of adjacency matrices."""
    for name in ("c5_scheme", "petersen_scheme"):
        yield fio.load_scheme_v1(data_path(f"{name}.json"))["matrices"]
    for name in ("q8", "s3"):
        yield thin_scheme(load_group(name))
    yield s4_on_twelve_points()


def _reclassed(mats, rng):
    """mats with classes 1.. in a seeded order."""
    return [mats[0]] + [mats[k] for k in 1 + rng.permutation(len(mats) - 1)]


def _scheme_corruption(mats, kind, rng):
    """mats with one seeded corruption of the kind given: an off-diagonal
    pair moved to another class ("move"), moved together with its
    transpose ("pair"), a pair moved into or out of class 0 ("class 0"),
    or a pair put in a second class ("overlap")."""
    C = np.argmax(mats, axis=0)
    r, n = len(mats), len(C)
    x, y = rng.choice(n, 2, replace=False)
    k = int(rng.choice([k for k in range(1, r) if k != C[x, y]]))
    moves = {"move": [(x, y, k)], "overlap": []}
    if kind == "pair":
        # the transpose of class k: the class of (b, a) for a pair (a, b) of k
        a, b = np.argwhere(C == k)[0]
        moves["pair"] = [(x, y, k), (y, x, C[b, a])]
    if kind == "class 0":
        moves["class 0"] = [(x, y, 0)] if rng.integers(2) else [(x, x, k)]
    for a, b, c in moves[kind]:
        C[a, b] = c
    out = [(C == c).astype(int) for c in range(r)]
    if kind == "overlap":
        out[k][x, y] = 1
    return out


def test_scheme_checks_report_the_loop_check():
    """On every base scheme, with its classes reordered, the array checks
    of `scheme_from_matrices` raise what the loop raised first: the same
    message, so the same first failing class or (i, j, k), also when two
    corruptions compete; where the loop accepts, p and the involution
    are the loop's."""
    rng = np.random.default_rng(33)
    seen = set()
    for base in _scheme_bases():
        for _ in range(3):
            mats = _reclassed(base, rng)
            p, star = loop_scheme(mats)
            T = scheme_from_matrices(mats)
            assert np.array_equal(T.p, p)
            assert np.array_equal(T.involution, star)
            for kind in ("move", "pair", "class 0", "overlap", "move, move",
                         "pair, move", "pair, pair"):
                bad = mats
                for k in kind.split(", "):
                    bad = _scheme_corruption(bad, k, rng)
                expected = loop_scheme(bad)
                if not isinstance(expected, str):
                    T = scheme_from_matrices(bad)
                    assert np.array_equal(T.p, expected[0])
                    assert np.array_equal(T.involution, expected[1])
                    continue
                seen.add(re.sub(r"\d+", "i", expected))
                with pytest.raises(AxiomViolation) as info:
                    scheme_from_matrices(bad)
                assert str(info.value) == expected
    assert seen == {
        "adjacency matrices do not partition the pairs",
        "class i is not the identity relation",
        "transpose of class i is not a class",
        "product of classes i, i is not constant on class i"}


def test_an_empty_scheme_class_is_refused():
    """An all-zero adjacency matrix is refused as an empty class, after
    the transpose check and before the counts, where the loop raised
    IndexError; a class that is not closed under transposition is still
    reported first."""
    mats = list(fio.load_scheme_v1(data_path("c5_scheme.json"))["matrices"])
    empty = np.zeros_like(mats[0])
    for at in (1, 3):
        bad = mats[:at] + [empty] + mats[at:]
        with pytest.raises(IndexError):
            loop_scheme(bad)
        with pytest.raises(AxiomViolation, match=f"^class {at} is empty$"):
            scheme_from_matrices(bad)
    open_ = _scheme_corruption(mats, "move", np.random.default_rng(0))
    bad = open_ + [empty]
    assert loop_scheme(bad) == "transpose of class 1 is not a class"
    with pytest.raises(AxiomViolation,
                       match="^transpose of class 1 is not a class$"):
        scheme_from_matrices(bad)


# --- the loaders against the per-entry loops they replaced ---
#
# loop_load_* are the loaders `fsclass.io` had before it read its inputs as
# arrays, as they were: one Python step per entry, SchemaError naming the
# first bad one.


def _loop_load(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def _loop_require_fields(doc: dict, required: set[str]) -> None:
    missing, unknown = required - set(doc), set(doc) - required
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")


def _loop_index(v, n: int, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
        raise SchemaError(f"{what} must be an integer in [0, {n})")
    return v


def _loop_number(v, what: str) -> float:
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise SchemaError(f"{what} must be a finite number")
    return float(v)


def _loop_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be a list")
    return x


def _loop_integers(x, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=object)
    if not all(type(v) is int for v in a.flat):
        raise SchemaError(f"{what} must hold integers only")
    return a.astype(int)


def _loop_complex_vector(entries, n: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != n:
        raise SchemaError(f"{what} must be a list of {n} [re, im] pairs")
    out = np.zeros(n, dtype=complex)
    for idx, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{what}[{idx}] must be an [re, im] pair")
        out[idx] = complex(*(_loop_number(x, f"{what}[{idx}]") for x in pair))
    return out


def _loop_sparse_entries(entries, keys: tuple[str, ...], n: int, what: str):
    for idx, ent in enumerate(_loop_list(entries, what)):
        if not isinstance(ent, dict):
            raise SchemaError(f"{what}[{idx}] must be an object")
        want = set(keys) | {"re", "im"}
        if set(ent) != want:
            raise SchemaError(f"{what}[{idx}] must have fields {sorted(want)}")
        pos = [_loop_index(ent[k], n, f"{what}[{idx}].{k}") for k in keys]
        yield (*pos, complex(*(_loop_number(ent[k], f"{what}[{idx}].{k}")
                               for k in ("re", "im"))))


def _loop_load_structure(path: str, unit: str, tensor: str, place):
    doc = _loop_load(path)
    _loop_require_fields(doc, {"dim", unit, tensor, "star"})
    n = doc["dim"]
    if type(n) is not int or n < 1:
        raise SchemaError("dim must be a positive integer")
    fsclass.algebra.dense_dim(n)
    u = _loop_complex_vector(doc[unit], n, unit)
    c = np.zeros((n, n, n), dtype=complex)
    for i, j, k, v in _loop_sparse_entries(doc[tensor], ("i", "j", "k"), n,
                                           tensor):
        c[place(i, j, k)] += v
    sigma = np.zeros((n, n), dtype=complex)
    for i, k, v in _loop_sparse_entries(doc["star"], ("i", "k"), n, "star"):
        sigma[k, i] += v
    return n, u, c, sigma


def loop_load_algebra(path: str) -> dict:
    n, unit, c, sigma = _loop_load_structure(path, "unit", "structure",
                                             lambda i, j, k: (i, j, k))
    return {"dim": n, "structure": c, "unit": unit, "star": sigma}


def loop_load_coalgebra(path: str) -> dict:
    n, counit, c, sigma = _loop_load_structure(path, "counit", "Delta",
                                               lambda i, j, k: (j, k, i))
    return {"dim": n, "Delta": c.reshape(n * n, n), "counit": counit,
            "star": sigma}


def loop_load_group(path: str) -> dict:
    doc = _loop_load(path)
    _loop_require_fields(doc, {"order", "table", "inverse"})
    n = doc["order"]
    if type(n) is not int or n < 1:
        raise SchemaError("order must be a positive integer")
    table = _loop_integers(doc["table"], "table")
    if table.shape != (n, n):
        raise SchemaError("table must be order x order")
    inverse = _loop_integers(doc["inverse"], "inverse")
    if inverse.shape != (n,):
        raise SchemaError("inverse must be a list of length order")
    return {"order": n, "table": table, "inverse": inverse}


def loop_load_scheme(path: str) -> dict:
    doc = _loop_load(path)
    if "matrices" in doc:
        _loop_require_fields(doc, {"classes", "matrices"})
    else:
        _loop_require_fields(doc, {"classes", "p"})
    r = doc["classes"]
    if type(r) is not int or r < 1:
        raise SchemaError("classes must be a positive integer")
    fsclass.algebra.dense_dim(r)
    if "matrices" in doc:
        mats = [_loop_integers(m, "matrices")
                for m in _loop_list(doc["matrices"], "matrices")]
        if len(mats) != r:
            raise SchemaError("number of matrices must equal classes")
        size = mats[0].shape
        for m in mats:
            if m.shape != size or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise SchemaError("matrices must all be square of one size")
            if not np.isin(m, (0, 1)).all():
                raise SchemaError("matrices must be 0/1")
        return {"classes": r, "matrices": mats}
    p = np.asarray(doc["p"], dtype=object)
    if p.shape != (r, r, r):
        raise SchemaError("p must be classes^3 nested lists")
    return {"classes": r, "p": np.array(
        [_loop_number(v, "p") for v in p.flat]).reshape(p.shape)}


def loop_load_groupoid(path: str) -> dict:
    doc = _loop_load(path)
    _loop_require_fields(doc, {"objects", "arrows", "compose"})
    m = doc["objects"]
    if type(m) is not int or m < 1:
        raise SchemaError("objects must be a positive integer")
    arrows = []
    for idx, a in enumerate(_loop_list(doc["arrows"], "arrows")):
        if not isinstance(a, dict) or set(a) != {"src", "tgt"}:
            raise SchemaError(f"arrows[{idx}] must have fields src, tgt")
        arrows.append(tuple(_loop_index(a[k], m, f"arrows[{idx}].{k}")
                            for k in ("src", "tgt")))
    n = fsclass.algebra.dense_dim(len(arrows))
    triples = []
    for idx, t in enumerate(_loop_list(doc["compose"], "compose")):
        if not isinstance(t, dict) or set(t) != {"a", "b", "ab"}:
            raise SchemaError(f"compose[{idx}] must have fields a, b, ab")
        triples.append(tuple(_loop_index(t[k], n, f"compose[{idx}].{k}")
                             for k in ("a", "b", "ab")))
    return {"objects": m, "arrows": arrows, "compose": triples}


# kind -> (the loader, its loop oracle)
LOADERS = {"algebra": (fio.load_algebra_v1, loop_load_algebra),
           "coalgebra": (fio.load_coalgebra_v1, loop_load_coalgebra),
           "group": (fio.load_group_v1, loop_load_group),
           "scheme": (fio.load_scheme_v1, loop_load_scheme),
           "groupoid": (fio.load_groupoid_v1, loop_load_groupoid)}


def _rebased_s3_file(tmp_path) -> str:
    """C[S3] on a seeded complex diagonal rebasing, as an algebra file whose
    every nonzero structure and star value is split over two entries, in
    shuffled order: the loaders must add them up in file order alike."""
    A = rescaled(group_algebra(load_group("s3"))[0], diagonal_rescaling(6, 35))
    rng = np.random.default_rng(35)

    def entries(keys, index, values):
        part = values * rng.uniform(0.2, 0.8, len(values))
        rows = [dict(zip(keys, (*map(int, at), float(v.real), float(v.imag))))
                for at, v in zip(np.repeat(index, 2, axis=0),
                                 np.ravel([part, values - part], order="F"))]
        return [rows[i] for i in rng.permutation(len(rows))]
    c, sigma = A.structure, A.star_matrix
    doc = {"dim": 6, "unit": [[z.real, z.imag] for z in A.unit],
           "structure": entries(("i", "j", "k", "re", "im"),
                                np.argwhere(c), c[c != 0]),
           "star": entries(("i", "k", "re", "im"),
                           np.argwhere(sigma.T), sigma.T[sigma.T != 0])}
    path = tmp_path / "s3_rebased_algebra.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _same_arrays(new: dict, old: dict) -> None:
    """new and old have the same keys, and equal values: arrays of one
    dtype and shape, bit for bit (old's lists of tuples as arrays)."""
    assert new.keys() == old.keys()
    for key, value in new.items():
        want = np.asarray(old[key])
        assert (np.asarray(value).dtype, np.shape(value)) == \
            (want.dtype, want.shape), key
        assert np.asarray(value).tobytes() == want.tobytes(), key


def test_loaders_read_every_input_as_the_loops_did(tmp_path):
    """On every bundled input, intersection numbers p of both bundled
    schemes and a rebased C[S3] whose values are split over repeated
    entries, each loader returns the loop oracle's result: the same
    arrays, bit for bit."""
    paths = [(kind_of(name), data_path(name)) for name in sorted(os.listdir(
        DATA)) if name != "z3_inversion.json"]
    for name in ("c5_scheme", "petersen_scheme"):
        T = scheme_from_matrices(fio.load_scheme_v1(
            data_path(f"{name}.json"))["matrices"])
        path = tmp_path / f"{name}_p.json"
        path.write_text(json.dumps({"classes": T.rank, "p": T.p.tolist()}))
        paths.append(("scheme", str(path)))
    paths.append(("algebra", _rebased_s3_file(tmp_path)))
    assert len(paths) == 23
    for kind, path in paths:
        load, loop_load = LOADERS[kind]
        _same_arrays(load(path), loop_load(path))


# one-entry corruptions, by what a field holds: numbers, integers
# (indices included) and counts
NUMBER_VALUES = [True, "1", float("nan"), float("inf"), -float("inf"),
                 10 ** 400, [1], {}, None]
INTEGER_VALUES = [True, 1.0, 1.5, "1", float("nan"), float("inf"),
                  10 ** 400, [1], None]
COUNT_VALUES = [True, 1.0, "1", float("nan"), 0, -1, None]
CONTAINER_VALUES = [5, {"a": 1}, "x"]
DELETE = object()
# (kind, input) -> field -> "count", nested lists of "integers" or
# "numbers", or the fields of each entry of a list: "number", or the count
# n of an index in range(n)
_NUMBERS = {"re": "number", "im": "number"}
LOADER_FIELDS = {
    ("algebra", "m2_algebra"): {
        "dim": "count", "unit": {0: "number", 1: "number"},
        "structure": {"i": 4, "j": 4, "k": 4, **_NUMBERS},
        "star": {"i": 4, "k": 4, **_NUMBERS}},
    ("coalgebra", "m2_coalgebra"): {
        "dim": "count", "counit": {0: "number", 1: "number"},
        "Delta": {"i": 4, "j": 4, "k": 4, **_NUMBERS},
        "star": {"i": 4, "k": 4, **_NUMBERS}},
    ("group", "s3"): {"order": "count", "table": "integers",
                      "inverse": "integers"},
    ("scheme", "c5_scheme"): {"classes": "count", "matrices": "integers"},
    ("scheme", "petersen p"): {"classes": "count", "p": "numbers"},
    ("groupoid", "pair3_groupoid"): {
        "objects": "count", "arrows": {"src": 3, "tgt": 3},
        "compose": {"a": 9, "b": 9, "ab": 9}},
}


def _loader_doc(name: str) -> dict:
    if name == "petersen p":
        T = scheme_from_matrices(fio.load_scheme_v1(
            data_path("petersen_scheme.json"))["matrices"])
        return {"classes": T.rank, "p": T.p.tolist()}
    with open(data_path(name + ".json")) as fh:
        return json.load(fh)


def _nested_position(x, rng) -> tuple:
    """A seeded position of a scalar inside the nested lists x."""
    at = ()
    while isinstance(x, list):
        at += (int(rng.integers(len(x))),)
        x = x[at[-1]]
    return at


def _corruptions(doc: dict, fields: dict, rng):
    """(path, value) of each corruption of doc: a missing and an unknown
    field, each value of a field's kind at a seeded entry, a container
    that is no list, an entry that is no object or pair, or a missing or
    extra key in it, a short row, an index out of range."""
    yield (next(iter(fields)),), DELETE
    yield ("extra",), 0
    for field, spec in fields.items():
        if spec == "count":
            yield from (((field,), v) for v in COUNT_VALUES)
            continue
        yield from (((field,), v) for v in CONTAINER_VALUES)
        if spec in ("integers", "numbers"):
            at = _nested_position(doc[field], rng)
            row = doc[field]
            for k in at[:-1]:
                row = row[k]
            yield (field, *at[:-1]), row[:-1]
            yield from (((field, *at), v) for v in (
                INTEGER_VALUES if spec == "integers" else NUMBER_VALUES))
            continue
        e = int(rng.integers(len(doc[field])))
        yield from (((field, e), v) for v in CONTAINER_VALUES)
        if isinstance(doc[field][e], list):
            yield (field, e), [0.0]
            yield (field, e), [0.0, 0.0, 0.0]
        else:
            yield (field, e, next(iter(spec))), DELETE
            yield (field, e, "x"), 0
        for key, what in spec.items():
            yield from (((field, e, key), v) for v in (
                NUMBER_VALUES if what == "number"
                else INTEGER_VALUES + [-1, what]))


def _outcome(load, path):
    """What load returns, or the SchemaError (or, from a loop oracle, the
    OverflowError) it raises."""
    try:
        return load(path)
    except (SchemaError, OverflowError) as exc:
        return exc


def _place(message: str) -> str:
    """The field and entry a loader's message names: its first word."""
    return message.split(" ", 1)[0]


def test_loaders_refuse_each_corruption_as_the_loops_did(tmp_path):
    """On seeded one-entry corruptions of every field of every kind, the
    loader and its loop oracle both refuse with a SchemaError naming the
    same field and entry; the loader may name the position inside it too
    (table[1][2] for table, unit[3][1] for unit[3]).  Two exceptions, by
    design: an arrow end or a composite out of range loads, and
    `GroupoidData.validated`, which checks every range of a groupoid,
    refuses it with BadGroupoid; an integer past 64 bits in a group table
    or an adjacency matrix, on which the loop crashed with OverflowError,
    is a SchemaError naming its entry."""
    rng = np.random.default_rng(35)
    validated, overflowed, cases = [], [], 0
    for (kind, name), fields in LOADER_FIELDS.items():
        doc = _loader_doc(name)
        load, loop_load = LOADERS[kind]
        for path, value in _corruptions(doc, fields, rng):
            bad = copy.deepcopy(doc)
            target = bad
            for k in path[:-1]:
                target = target[k]
            if value is DELETE:
                del target[path[-1]]
            else:
                target[path[-1]] = value
            file = tmp_path / f"{cases}.json"
            file.write_text(json.dumps(bad))
            cases += 1
            new, old = _outcome(load, file), _outcome(loop_load, file)
            label = (name, path, value)
            if isinstance(new, dict):
                validated.append(label)
                assert isinstance(old, SchemaError), label
                with pytest.raises(BadGroupoid, match=r"^(arrow|triple) "):
                    GroupoidData.validated(new["objects"], new["arrows"],
                                           new["compose"])
                continue
            assert isinstance(new, SchemaError), (label, new)
            if isinstance(old, OverflowError):
                overflowed.append(label)
                assert _place(str(new)).startswith(f"{path[0]}["), label
                continue
            assert isinstance(old, SchemaError), (label, old)
            assert _place(str(new)) == _place(str(old)) or _place(str(
                new)).startswith(_place(str(old)) + "["), (label, new, old)
    assert cases == 443
    assert sorted((path[0], value) for _, path, value in validated) == \
        sorted([("arrows", -1), ("arrows", 3)] * 2
               + [("compose", -1), ("compose", 9)] * 3)
    assert sorted(name for name, *_ in overflowed) == \
        ["c5_scheme", "s3", "s3"]


def test_groupoid_validation_has_no_arrows_cubed_temporary():
    """Associativity is checked a row at a time: pair_groupoid(11), 121
    arrows, costs a few n^2 arrays and its triples, not the 14 MB of an
    n^3 int64 array."""
    tracemalloc.start()
    try:
        Gd = pair_groupoid(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Gd.n_arrows == 121
    assert peak < 2 * 2**20


def _delta_corruptions(Delta, kinds, seed):
    """Delta with one nonzero scaled by 1.5, multiplied by 1j, moved to
    another e_i of its row or set to zero (kind t % 4 = 0, 1, 2, 3 for t
    in kinds) at seeded entries: Delta.reshape(n, n, n) stays monomial."""
    rng = np.random.default_rng(seed)
    nz = np.argwhere(Delta != 0)
    n = Delta.shape[1]
    for t in kinds:
        r, i = nz[rng.integers(len(nz))]
        bad = Delta.copy()
        if t % 4 == 0:
            bad[r, i] *= 1.5
        elif t % 4 == 1:
            bad[r, i] *= 1j
        elif t % 4 == 2:
            bad[r, (i + 1 + rng.integers(n - 1)) % n] = bad[r, i]
            bad[r, i] = 0
        else:
            bad[r, i] = 0
        yield bad


def test_weak_hopf_monomial_delta_corruptions_report_the_loop_check():
    # the loop reference takes about a second at dim 36: on D(S3) only the
    # two kinds that change the support, a moved and a zeroed entry
    D, _ = drinfeld_double(load_group("s3"))
    messages = set()
    for W, kinds, seed in ((D, (2, 3), 19), (_pair3_weak_hopf(), range(8), 20)):
        for bad in _delta_corruptions(W.Delta, kinds, seed):
            assert is_monomial(bad.reshape((W.dim,) * 3))
            messages.add(loop_weak_hopf(W.algebra, bad, W.counit))
            _check_weak_hopf(W, bad)
    assert "comultiplication is not coassociative" in messages


def test_weak_hopf_support_checks_catch_one_entry_at_dim_64():
    W, _ = drinfeld_double(load_group("q8"))
    assert W.dim == 64
    Delta = W.Delta.copy()
    Delta[_positions(Delta.shape, 1, seed=8)[0]] += 1e-3
    with pytest.raises(NotAssociative):
        _weak_hopf(W.algebra, Delta, W.counit, W.S)


def sparse_multiplicativity_residual(A, Delta):
    """max |Delta(e_i) Delta(e_j) - Delta(e_i e_j)| from `scipy.sparse` CSR
    products over the nonzeros of c and Delta, regrouped as in the
    coordinate-list kernel."""
    n = A.dim
    ci, cj, ck = np.nonzero(A.structure)
    cv = A.structure[ci, cj, ck]
    dj, dk, di = np.nonzero(Delta.reshape(n, n, n))
    dv = Delta.reshape(n, n, n)[dj, dk, di]

    def regroup(m, order):
        m = m.tocoo()
        x = (*np.divmod(m.row, n), *np.divmod(m.col, n))
        a, b, c, d = (x[k] for k in order)
        return sp.csr_array((m.data, (a * n + b, c * n + d)),
                            shape=(n * n, n * n))

    def cd(x, y, z, u, v, w):
        return (sp.csr_array((cv, (x * n + y, z)), shape=(n * n, n))
                @ sp.csr_array((dv, (u, v * n + w)), shape=(n, n * n)))
    lhs = cd(ci, cj, ck, di, dj, dk)
    X = regroup(cd(cj, ck, ci, dj, di, dk), (1, 2, 3, 0))
    Y = regroup(cd(ci, ck, cj, dk, di, dj), (1, 2, 0, 3))
    rhs = regroup(X @ Y.T, (1, 3, 0, 2))
    return float(np.abs((lhs - rhs).data).max(initial=0.0))


def _dense_of(m, rows, cols):
    out = np.zeros((rows, cols), dtype=complex)
    np.add.at(out, m[:2], m[2])
    return out


def test_coordinate_list_product_matches_the_dense_product():
    rng = np.random.default_rng(21)
    size = 12

    def coo(rows, cols, nnz):
        # few distinct coordinates, so most of them repeat
        i, j = rng.integers(rows, size=nnz), rng.integers(cols, size=nnz)
        return i, j, rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    empty = (np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))
    cases = [(coo(7, 9, 40), coo(9, 5, 30)), (coo(12, 12, 200),
                                              coo(12, 12, 200)),
             (coo(1, 3, 6), coo(3, 1, 6)), (empty, coo(6, 4, 10)),
             (coo(4, 6, 10), empty), (empty, empty)]
    for a, b in cases:
        expected = _dense_of(a, size, size) @ _dense_of(b, size, size)
        raw = _coo_product(a, b, size)
        assert np.allclose(_dense_of(raw, size, size), expected, atol=1e-12)
        i, j, v = _coo_sum(*raw, size)
        key = i * size + j
        assert (np.diff(key) > 0).all()
        assert np.allclose(_dense_of((i, j, v), size, size), expected,
                           atol=1e-12)
        assert set(zip(i, j)) >= set(zip(*np.nonzero(expected)))


def _coordinates(Delta):
    """(j, k, i, D[j, k, i]) over the nonzeros of D = Delta.reshape(n, n,
    n), row-major: the `coordinates()` of an algebra with structure tensor
    D, also for a Delta no coalgebra accepts."""
    n = Delta.shape[1]
    D = Delta.reshape(n, n, n)
    j, k, i = np.nonzero(D)
    return j, k, i, D[j, k, i]


def test_multiplicativity_residual_matches_the_sparse_products():
    W, _ = group_weak_hopf(load_group("s3"))
    Q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))[0]
    B, rebased, _, _ = _rebased_hopf(W, Q)
    D, _ = drinfeld_double(load_group("s3"))
    p = int(np.flatnonzero(D.counit == 0)[0])
    corrupt = D.Delta.copy()
    corrupt[_positions(corrupt.shape, 1, seed=22)[0]] += 0.5
    m2, m2_delta, _, _ = _m2_matrix_coalgebra()
    P = _pair3_weak_hopf()
    cases = [(D.algebra, D.Delta), (P.algebra, P.Delta), (W.algebra, W.Delta),
             (B, rebased), (m2, m2_delta),
             (D.algebra, _transported_delta(D, p, p + 1, 0.5)),
             (D.algebra, corrupt)]
    for H in (D, P, W):
        assert all(np.array_equal(a, b) for a, b in zip(
            _coordinates(H.Delta), H.coalgebra.algebra.coordinates()))
    for k, (A, Delta) in enumerate(cases):
        got = _multiplicativity_residual(A, _coordinates(Delta))
        expected = sparse_multiplicativity_residual(A, Delta)
        assert abs(got - expected) <= 1e-15, k
        assert (expected > 1e-6) == (k >= 4), k


def associator(c: np.ndarray) -> np.ndarray:
    """a[i, j, k, :] = (e_i e_j) e_k - e_i (e_j e_k) for the structure
    tensor c, as two GEMMs on c.reshape(n*n, n): the whole n^4 tensor that
    `associator_residual` forms one n^3 slab at a time."""
    n = c.shape[0]
    flat = c.reshape(n * n, n)
    a = (flat @ c.reshape(n, n * n)).reshape(n, n, n, n)
    # sum_m c[j,k,m] c[i,m,l], computed in (j, k, i, l) order
    a -= (flat @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(
        n, n, n, n).transpose(2, 0, 1, 3)
    return a


def dense_residual(c):
    """The dense associator's max |entry| and its first (i, j, k)."""
    a = np.abs(associator(c))
    i, j, k, _ = np.unravel_index(a.argmax(), a.shape)
    return float(a.max()), (int(i), int(j), int(k))


def is_monomial(c):
    return bool((np.count_nonzero(c, axis=2) <= 1).all())


def _monomial_inputs():
    """name -> (algebra, Delta reshaped to n x n x n) of monomial inputs."""
    W, _ = group_weak_hopf(load_group("s3"))
    D, _ = drinfeld_double(load_group("s3"))
    P = _pair3_weak_hopf()
    co = fio.load_coalgebra_v1(data_path("m2_coalgebra.json"))
    out = {}
    for name, A, Delta in (("C[S3]", W.algebra, W.Delta),
                           ("D(S3)", D.algebra, D.Delta),
                           ("pair3", P.algebra, P.Delta),
                           ("M2", build_m2(), co["Delta"])):
        n = A.dim
        out[name] = (A, np.asarray(Delta, dtype=complex).reshape(n, n, n))
    return out


def test_associator_residual_matches_dense_on_clean_tensors():
    for name, (A, dual) in _monomial_inputs().items():
        for c in (A.structure, dual):
            assert is_monomial(c), name
            assert associator_residual(c) == dense_residual(c), name


def _monomial_corruptions(c, count, seed):
    """One nonzero of c scaled by 1.5, multiplied by 1j or moved to
    another k, at seeded positions; each result is still monomial."""
    rng = np.random.default_rng(seed)
    nz = np.argwhere(c != 0)
    n = c.shape[0]
    for t in range(count):
        i, j, k = nz[rng.integers(len(nz))]
        bad = c.copy()
        if t % 3 == 0:
            bad[i, j, k] *= 1.5
        elif t % 3 == 1:
            bad[i, j, k] *= 1j
        else:
            bad[i, j, (k + 1 + rng.integers(n - 1)) % n] = bad[i, j, k]
            bad[i, j, k] = 0
        assert is_monomial(bad)
        yield bad


def test_associator_residual_on_monomial_corruptions():
    inputs = _monomial_inputs()
    # the loop reference is n^5: three corruptions of the dim-36 D(S3)
    for name, count in (("C[S3]", 6), ("pair3", 6), ("M2", 6), ("D(S3)", 3)):
        A = inputs[name][0]
        for bad in _monomial_corruptions(A.structure, count, seed=9):
            assert associator_residual(bad) == dense_residual(bad), name
            assert_same(NotAssociative, loop_assoc(bad),
                        FDStarAlgebra, bad, A.unit, A.star_matrix)


def _zeroed_products(c, count, seed):
    """c with one nonzero product e_i e_j set to zero, at seeded pairs: then
    e_i (e_j e_k) is nonzero at triples where (e_i e_j) e_k vanishes."""
    rng = np.random.default_rng(seed)
    nz = np.argwhere(c != 0)
    for _ in range(count):
        bad = c.copy()
        bad[tuple(nz[rng.integers(len(nz))])] = 0
        yield bad


def _right_only(c):
    """Whether e_i (e_j e_k) != 0 = (e_i e_j) e_k for some (i, j, k)."""
    left = np.einsum("ijm,mkl->ijkl", c, c) != 0
    right = np.einsum("jkm,iml->ijkl", c, c) != 0
    return bool((right.any(axis=3) & ~left.any(axis=3)).any())


def test_associator_residual_on_zeroed_products():
    inputs = _monomial_inputs()
    # the loop reference is n^5: one corruption of the dim-36 D(S3)
    for name, count in (("C[S3]", 4), ("pair3", 4), ("M2", 4), ("D(S3)", 1)):
        A = inputs[name][0]
        for bad in _zeroed_products(A.structure, count, seed=16):
            assert is_monomial(bad) and _right_only(bad), name
            assert associator_residual(bad) == dense_residual(bad), name
            assert_same(NotAssociative, loop_assoc(bad),
                        FDStarAlgebra, bad, A.unit, A.star_matrix)


def sparse_associator_residual(T, v):
    """The associator's max |entry| and first (i, j, k), from sparse
    products of the structure tensor, one i at a time: for fixed i,
    (e_i e_j) e_k at e_l is (c_i c_flat)[j, (k, l)] and e_i (e_j e_k) is
    (c_pairs c_i)[(j, k), l], with c_i[j, m] = c[i, j, m]."""
    n = len(T)
    i, j = np.nonzero(v)
    pairs = sp.csr_array((v[i, j], (i * n + j, T[i, j])), shape=(n * n, n))
    flat = sp.csr_array((v[i, j], (i, j * n + T[i, j])), shape=(n, n * n))
    best, first = 0.0, (0, 0, 0)
    for a in range(n):
        c_a = pairs[a * n:(a + 1) * n]
        diff = ((c_a @ flat).reshape((n * n, n)) - pairs @ c_a).tocoo()
        r = np.zeros(n * n)
        np.maximum.at(r, diff.row, np.abs(diff.data))
        if r.max() > best:
            best, (j, k) = float(r.max()), divmod(int(r.argmax()), n)
            first = (a, j, k)
    return best, first


def _table_corruptions(T, v, seed):
    """(T, v) with one nonzero product scaled by 1.5, multiplied by 1j,
    moved to another basis element or set to zero, at seeded pairs."""
    rng = np.random.default_rng(seed)
    nz = np.argwhere(v != 0)
    n = len(T)
    for t in range(4):
        i, j = nz[rng.integers(len(nz))]
        bad_T, bad_v = T.copy(), v.copy()
        if t == 0:
            bad_v[i, j] *= 1.5
        elif t == 1:
            bad_v[i, j] *= 1j
        elif t == 2:
            bad_T[i, j] = (T[i, j] + 1 + rng.integers(n - 1)) % n
        else:
            bad_T[i, j], bad_v[i, j] = 0, 0
        yield bad_T, bad_v


def test_associator_kernel_past_the_dense_cap():
    # D(A4), n = 144, from its index table alone: the dense tensor would be
    # one n^3 complex array, and the kernel peaks below an eighth of that
    A4 = group_from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]])
    T, v = double_product_table(A4)
    n = len(T)
    assert A4.order == 12 and n > DENSE_DIM_CAP
    cube = n ** 3 * np.dtype(complex).itemsize
    for k, (bad_T, bad_v) in enumerate(
            [(T, v)] + list(_table_corruptions(T, v, seed=17))):
        tracemalloc.start()
        try:
            got = table_associator_residual((bad_T, bad_v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube / 8
        assert got == sparse_associator_residual(bad_T, bad_v)
        assert (got[0] == 0) == (k == 0)


def test_full_support_enumerates_the_right_side_only_when_needed(monkeypatch):
    # on C[S4] every product is nonzero, so the left side's triples are all
    # n^3 and cover the right side's: enumerating those again would double
    # the cost for nothing.  With a product set to zero they are needed.
    A = group_algebra(load_group("s4"))[0]
    calls = []
    ragged = fsclass.algebra._ragged
    monkeypatch.setattr(fsclass.algebra, "_ragged",
                        lambda *args: calls.append(1) or ragged(*args))
    assert associator_residual(A.structure, A.table) == (0.0, (0, 0, 0))
    assert len(calls) == 1
    for bad in _zeroed_products(A.structure, 2, seed=18):
        assert associator_residual(bad) == dense_residual(bad)
    assert len(calls) == 5
    monkeypatch.undo()
    times = []
    for _ in range(30):
        start = time.perf_counter()
        associator_residual(A.structure, A.table)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3


def test_associator_residual_on_dense_inputs():
    A = group_algebra(load_group("q8"))[0]
    rng = np.random.default_rng(10)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    U = np.linalg.qr(z)[0]
    rebased = np.einsum("ia,jb,ijk,ck->abc", U, U, A.structure,
                        np.linalg.inv(U), optimize=True)
    mats = fio.load_scheme_v1(data_path("petersen_scheme.json"))["matrices"]
    petersen = table_algebra(scheme_from_matrices(mats))[0].structure
    for c in (rebased, petersen):
        assert not is_monomial(c)
        bad = c.copy()
        bad[1, 2, 0] += 0.5
        for t in (c, bad):
            assert associator_residual(t) == dense_residual(t)


def test_dense_associator_residual_in_cubic_memory():
    """The dense path takes associator(c) one n^3 slab at a time: on random
    dense tensors it gives the (i, j, k) and, to rounding, the residual of
    the whole n^4 associator (the slab products are the same sums, but BLAS
    may tile them differently when n is not a multiple of its block), and
    at n = 64 it peaks below a sixteenth of one n^4 complex array (that
    array is 268 MB; two of them were built before)."""
    rng = np.random.default_rng(19)
    for n in (5, 17, 24):
        c = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        assert not is_monomial(c)
        got, want = associator_residual(c), dense_residual(c)
        assert got[1] == want[1]
        assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0)
    n = 64
    c = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    tracemalloc.start()
    try:
        associator_residual(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n ** 4 * np.dtype(complex).itemsize / 16


def loop_group(t):
    """The per-(i, j) loop GroupTable.validated ran after its identity and
    inverse checks: row i's permutation test, then associativity at (i, j)."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            if not np.array_equal(np.sort(t[i]), np.arange(n)):
                return f"row {i} is not a permutation"
            if not np.array_equal(t[t[i, j]], t[i][t[j]]):
                return f"associativity fails at ({i}, {j})"
    return None


def test_group_table_reports_the_loop_index():
    rng = np.random.default_rng(11)
    for name in ("s3", "q8", "s4"):
        G = load_group(name)
        n, inv = G.order, G.inverse
        for t_ in range(8):
            # entries off row 0, column 0 and g g^-1, so that the identity
            # and inverse checks still pass
            p = int(rng.integers(1, n))
            q1, q2 = (int(q) for q in rng.choice(
                [q for q in range(1, n) if q != inv[p]], 2, replace=False))
            t = G.table.copy()
            if t_ % 2:      # the row stays a permutation
                t[p, q1], t[p, q2] = t[p, q2], t[p, q1]
            else:           # a repeated entry
                t[p, q1] = t[p, q2]
            assert_same(BadGroup, loop_group(t), GroupTable.validated, n, t, inv)


def test_group_table_validation_has_no_order_cubed_temporary():
    """Associativity is checked a row at a time: an order-300 table costs
    a few order^2 arrays, not two order^3 int64 arrays of 216 MB."""
    tracemalloc.start()
    try:
        G = cyclic_group(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 300
    assert peak < 10 * 2**20


def dense_map_residual(A, M, conj, reverse):
    """max_l |M(x_ij) - M(e_a) M(e_b)| from the dense lhs and rhs forms."""
    c = A.structure
    lhs = np.einsum("ijk,lk->ijl", np.conj(c) if conj else c, M)
    rhs = np.einsum("pi,qj,pqk->ijk", M, M, c)          # M(e_i) M(e_j)
    return np.abs(lhs - (rhs.transpose(1, 0, 2) if reverse else rhs)).max(axis=2)


def _product_maps(A, S):
    """(M, conj, reverse) for the star, the antipode and K = sigma conj(S)."""
    K = A.star_matrix @ np.conj(S)
    return ((A.star_matrix, True, True), (S, False, True), (K, True, False))


def _monomial_map(M):
    return bool((np.count_nonzero(M, axis=0) <= 1).all())


def test_product_map_residual_matches_dense_forms():
    inputs = _monomial_inputs()
    M2, S1, S2 = m2_dual_structures()
    antipodes = {"C[S3]": inputs["C[S3]"][0].star_matrix,
                 "D(S3)": drinfeld_double(load_group("s3"))[1].S.matrix,
                 "pair3": inputs["pair3"][0].star_matrix}
    cases = [(inputs[k][0], S) for k, S in antipodes.items()]
    cases += [(M2, S1.matrix), (M2, S2.matrix)]
    for A, S in cases:
        assert A.table is not None
        for M, conj, reverse in _product_maps(A, S):
            assert _monomial_map(M)
            r = product_map_residual(A, M, conj, reverse)
            assert np.array_equal(r, dense_map_residual(A, M, conj, reverse))
    # D(S3) on a rescaled basis: the index-table path on non-unit values
    W, dual = drinfeld_double(load_group("s3"))
    d = diagonal_rescaling(W.dim, seed=12)
    B = rescaled(W.algebra, d)
    assert B.table is not None
    for M, conj, reverse in _product_maps(B, dual.S.matrix * d / d[:, None]):
        assert _monomial_map(M)
        r = product_map_residual(B, M, conj, reverse)
        assert np.abs(r - dense_map_residual(B, M, conj, reverse)).max() < 1e-14


def _involutive_corruptions(M, seed):
    """Monomial corruptions of a monomial M with M conj(M) = 1 that keep
    that identity, so the product check decides: the pair of entries of a
    2-cycle scaled by z and 1/conj(z) for z = 1.5, 1j, and two 2-cycles
    re-paired (entries moved to other rows)."""
    rng = np.random.default_rng(seed)
    n = M.shape[0]
    P = np.abs(M).argmax(axis=0)
    moved = [b for b in range(n) if P[b] != b]
    for z in (1.5, 1j):
        b = moved[rng.integers(len(moved))]
        bad = M.copy()
        bad[P[b], b] *= z
        bad[b, P[b]] /= np.conj(z)
        yield bad
    b = moved[rng.integers(len(moved))]
    b2 = next(x for x in rng.permutation(moved) if x not in (b, P[b]))
    a, a2 = P[b], P[b2]
    bad = M.copy()
    for x, y in ((b, a2), (a2, b), (b2, a), (a, b2)):
        bad[:, x] = 0
        bad[y, x] = 1.0
    yield bad


def test_product_map_corruptions_report_the_loop_index():
    W, dual = drinfeld_double(load_group("s3"))
    A = W.algebra
    for sig in _involutive_corruptions(A.star_matrix, seed=13):
        assert _monomial_map(sig)
        assert_same(BadStar, loop_star(A.structure, sig),
                    FDStarAlgebra, A.structure, A.unit, sig)
    K = A.star_matrix @ np.conj(dual.S.matrix)
    for bad in _involutive_corruptions(K, seed=14):
        assert _monomial_map(bad)
        assert_same(NotAntiMap, loop_conjugation(A, bad),
                    real_form_from_conjugation, A, bad)
    S = dual.S.matrix
    for t_, pos in enumerate(np.argwhere(S != 0)[[3, 10, 17, 24, 31, 35]]):
        bad = S.copy()
        i, j = pos
        if t_ % 3 == 0:
            bad[i, j] *= 1.5
        elif t_ % 3 == 1:
            bad[i, j] *= 1j
        else:
            bad[(i + 1 + t_) % W.dim, j], bad[i, j] = bad[i, j], 0
        assert _monomial_map(bad)
        assert_same(NotAntiMap, loop_anti_map(A, bad),
                    AntiAlgebraMap.validated, A, bad)


def test_product_identities_take_the_index_table_path(monkeypatch):
    # monomial inputs make no dense products call; a rebased C[Q8] and the
    # Petersen scheme (non-monomial structure tensors) still do
    calls = []
    products = FDStarAlgebra.products

    def counted(self, X, Y):
        calls.append(self.dim)
        return products(self, X, Y)
    monkeypatch.setattr(FDStarAlgebra, "products", counted)
    W, dual = drinfeld_double(load_group("s3"))
    real_form_from_S(W.algebra, dual.S)
    assert calls == []
    A, dual = group_algebra(load_group("q8"))
    rng = np.random.default_rng(15)
    U = np.linalg.qr(rng.standard_normal((8, 8))
                     + 1j * rng.standard_normal((8, 8)))[0]
    Uinv = np.linalg.inv(U)
    c = np.einsum("ia,jb,ijk,ck->abc", U, U, A.structure, Uinv, optimize=True)
    B = FDStarAlgebra(c, Uinv @ A.unit, Uinv @ A.star_matrix @ np.conj(U))
    assert B.table is None
    real_form_from_S(B, Uinv @ dual.S.matrix @ U)
    assert calls == [8, 8, 8]
    mats = fio.load_scheme_v1(data_path("petersen_scheme.json"))["matrices"]
    P = table_algebra(scheme_from_matrices(mats))[0]
    assert P.table is None
    assert calls[3:] == [P.dim, P.dim]
