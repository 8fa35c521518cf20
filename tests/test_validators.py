"""The tensor-identity validators against the loop forms they replaced.

Each reference below is the earlier per-basis-pair loop (or einsum) form
of one check, returning the message it raised first.  For one corrupted
entry of each input, the validator must raise the same exception type with
the same message, so the same reported (i, j) or e{i}.
"""
import numpy as np
import pytest

from fsclass import (FDStarAlgebra, drinfeld_double, group_algebra,
                     group_weak_hopf)
from fsclass.algebra import (AntiAlgebraMap, SeparabilityIdempotent,
                             real_form_from_conjugation)
from fsclass.constructors import WeakHopfData
from fsclass.errors import (AxiomViolation, BadDualStructure, BadStar,
                            NotAntiMap, NotAssociative)
from fsclass.linalg import DEFAULT_TOL as TOL

from conftest import build_m2, load_group, m2_dual_structures


def _mult(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def loop_assoc(c):
    n = c.shape[0]
    eps = TOL.eps_rank * max(1.0, np.abs(c).max()) ** 2 * n
    assoc = np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)
    bad = np.abs(assoc).max()
    if bad > eps:
        i, j, k, _ = np.unravel_index(np.abs(assoc).argmax(), assoc.shape)
        return f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}), residual {bad:.3e}"
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
    if np.abs(total - A.unit).max() > eps:
        return f"sum x_m y_m misses the unit by {np.abs(total - A.unit).max():.3e}"
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
    assert expected is not None, "corruption did not break the identity"
    with pytest.raises(exc_type) as info:
        fn(*args)
    assert str(info.value) == expected


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


def test_separability_verify_reports_the_loop_index():
    A = build_m2()
    SeparabilityIdempotent(A, _m2_pairs()).verify()
    # E_11 (E_11 + E_22) / 2 = E_11 / 2 keeps the unit and breaks centrality
    pairs = _m2_pairs()
    pairs[0] = (pairs[0][0], pairs[0][1] + np.array([0, 0, 0, 1.0]))
    expected = loop_separability(A, pairs)
    assert expected.startswith("centrality")
    assert_same(BadDualStructure, expected,
                SeparabilityIdempotent(A, pairs).verify)
    for m, side, k in _positions((4, 2, 4), 8, seed=3):
        pairs = _m2_pairs()
        x, y = (v.copy() for v in pairs[m])
        (x, y)[side][k] += 0.5
        pairs[m] = (x, y)
        assert_same(BadDualStructure, loop_separability(A, pairs),
                    SeparabilityIdempotent(A, pairs).verify)


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
    A, _, _ = m2_dual_structures()
    Delta = np.zeros((16, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                Delta[(2 * i + k) * 4 + 2 * k + j, 2 * i + j] = 1.0
    counit = np.array([1, 0, 0, 1], dtype=complex)
    transpose = AntiAlgebraMap.validated(A, A.star_matrix.real)
    expected = loop_weak_hopf(A, Delta, counit)
    assert expected == "comultiplication is not multiplicative"
    assert_same(AxiomViolation, expected,
                WeakHopfData, A, Delta, counit, transpose)


def test_weak_hopf_support_checks_catch_one_entry_at_dim_64():
    W, _ = drinfeld_double(load_group("q8"))
    assert W.dim == 64
    Delta = W.Delta.copy()
    Delta[_positions(Delta.shape, 1, seed=8)[0]] += 1e-3
    with pytest.raises(AxiomViolation):
        WeakHopfData(W.algebra, Delta, W.counit, W.S)
