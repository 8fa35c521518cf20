"""The tensor-identity validators against the loop forms they replaced.

Each reference below is the earlier per-basis-pair loop (or einsum) form
of one check, returning the message it raised first.  For one corrupted
entry of each input, the validator must raise the same exception type with
the same message, so the same reported (i, j) or e{i}.  The associativity
kernel and the product-map kernel are also compared with their dense
forms, on monomial inputs (index-table path) and on dense ones, and the
index-table kernel past the dense cap with a sparse reference.  The
coordinate-list multiplicativity kernel is compared with the `scipy.sparse`
products it replaced.
"""
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import fsclass.algebra
from fsclass import (FDStarAlgebra, GroupoidData, GroupTable, cyclic_group,
                     drinfeld_double, group_algebra, group_from_permutations,
                     group_weak_hopf, groupoid_weak_hopf, scheme_from_matrices,
                     table_algebra)
from fsclass import io as fio
from fsclass.algebra import (DENSE_DIM_CAP, AntiAlgebraMap,
                             SeparabilityIdempotent, associator,
                             associator_residual, monomial_table,
                             product_map_residual, real_form_from_conjugation,
                             real_form_from_S, table_associator_residual)
from fsclass.constructors import (WeakHopfData, _coo_product, _coo_sum,
                                  _multiplicativity_residual,
                                  double_product_table)
from fsclass.errors import (AxiomViolation, BadDualStructure, BadGroup,
                            BadGroupoid, BadStar, NotAntiMap, NotAssociative)
from fsclass.linalg import DEFAULT_TOL as TOL

from conftest import (build_m2, check_text, data_path, diagonal_rescaling,
                      load_group, m2_dual_structures, rescaled)


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
        e = A.basis_element(i)
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
    Dt = np.einsum("ia,ijk,bj,ck->abc", P, W.delta_tensor(), Pinv, Pinv,
                   optimize=True)
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
    A = W.algebra if A is None else A
    counit = W.counit if counit is None else counit
    S = W.S if S is None else S
    assert_same(AxiomViolation, loop_weak_hopf(A, Delta, counit),
                WeakHopfData, A, Delta, counit, S)


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
    p = int(np.flatnonzero(D.counit == 0)[0])
    Delta = _transported_delta(D, p, p + 1, 0.5)
    expected = loop_weak_hopf(D.algebra, Delta, D.counit)
    assert expected == "comultiplication is not multiplicative"
    _check_weak_hopf(D, Delta)
    # C[S3] on a seeded real orthogonal basis: c and Delta are dense
    Q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))[0]
    B, Delta, counit, S = _rebased_hopf(W, Q)
    assert np.count_nonzero(Delta) > Delta.size // 2
    assert loop_weak_hopf(B, Delta, counit) is None
    WeakHopfData(B, Delta, counit, S)
    for pos in _positions(Delta.shape, 6, seed=7):
        bad = Delta.copy()
        bad[pos] += 0.5
        _check_weak_hopf(W, bad, counit, B, S)
    # matrix coalgebra on M2: coassociative and counital, not multiplicative
    A, Delta, counit, transpose = _m2_matrix_coalgebra()
    expected = loop_weak_hopf(A, Delta, counit)
    assert expected == "comultiplication is not multiplicative"
    assert_same(AxiomViolation, expected,
                WeakHopfData, A, Delta, counit, transpose)


def _pair3_weak_hopf():
    d = fio.load_groupoid_v1(data_path("pair3_groupoid.json"))
    return groupoid_weak_hopf(
        GroupoidData.validated(d["objects"], d["arrows"], d["compose"]))[0]


def _one_object(table):
    """Triples (a, b, table[a][b]) of a one-object groupoid."""
    return [(a, b, ab) for a, row in enumerate(table) for b, ab in enumerate(row)]


def test_groupoid_validation_rejects_each_broken_axiom():
    """One corruption per rejection of `GroupoidData.validated`: the pair
    groupoid on two objects with one composite dropped or sent to an arrow
    with other ends, and one-object compositions that are not associative
    (a b = -a - b mod 3), have no identity (a b = a) or have a non-invertible
    arrow (a b = max(a, b))."""
    d = fio.load_groupoid_v1(data_path("pair2_groupoid.json"))
    arrows, compose = d["arrows"], d["compose"]
    a, b, ab = compose[0]
    wrong = next(x for x in range(len(arrows)) if arrows[x] != arrows[ab])
    loop = [(0, 0)] * 3
    cases = [
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
    with pytest.raises(AxiomViolation):
        WeakHopfData(W.algebra, Delta, W.counit, W.S)


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
    for k, (A, Delta) in enumerate(cases):
        n = A.dim
        Dn = Delta.reshape(n, n, n)
        got = _multiplicativity_residual(A, Dn, monomial_table(Dn))
        expected = sparse_multiplicativity_residual(A, Delta)
        assert abs(got - expected) <= 1e-15, k
        assert (expected > 1e-6) == (k >= 4), k


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
