"""One kernel per identity, against the constructions it replaced.

Each reference below is code the library ran before its identity got a
single kernel:

- `batched_hom_residual`: the n^2 batched products rho(e_i) rho(e_j) that
  `reps.hom_residual` forms as one GEMM;
- `delta_contraction_residual`: the corepresentation check's own Delta
  contraction, now `hom_residual` of the dual module the corepresentation
  is stored as, over the dual algebra, whose `of_products` is Delta.dot
  (a gather when the dual algebra has an index table);
- `coseparability_contraction_residuals`: the coseparability check's own
  counit and centrality contractions, now `SeparabilityIdempotent.residuals`
  over the dual algebra;
- `haar_separability` and `table_separability` (conftest): the closed-form
  separability idempotents the group and table algebra constructors built
  beside the kept one;
- `two_contraction_functional`: the duality functional w of
  `corep_indicators` as its own two n^3 contractions on Delta, now
  `formula_element` over the dual algebra;
- `kron_system` and `kron_intertwiners`: every Hom_A(V, W) as the null
  space, under an eps_rank SVD cutoff, of the n d_V d_W x d_V d_W
  Kronecker system of F rho_V(e_i) = rho_W(e_i) F, now the range of the
  separability idempotent's average that `reps.intertwiners` projects
  with; the gram `invariant_gram` read off the same solve, now an average
  over the trace-form orthonormal basis;
- `twisted_antilinear_intertwiners`: `classify_sigma`'s own solve of the
  antilinear self-intertwiners against the K-twisted stack rho(abar), now
  the Riesz images H^{-1} conj(F) of the Hom(V, D(V)) basis that the trace
  indicator reads;
- `real_basis_residuals`: `classify_sigma`'s own witness check on a real
  basis of A0, the fixed space of the conjugation K under a 2n x 2n SVD,
  now m(abar) = conj(m(a)) through K on the basis elements;
- `dense_*`: the kernels that read the dense structure tensor before
  monomial algebras were stored as their index table (T, v): the product
  map and its transpose, left and right multiplication, the unit check,
  the regular representation's star check and the centrality residuals.
"""
import importlib.util
import os
import re
import tracemalloc

import numpy as np
import pytest

import fsclass.algebra
import fsclass.coalgebra
from fsclass import (CoseparabilityIdempotent, FDStarAlgebra,
                     FDStarCoalgebra, Representation,
                     SeparabilityIdempotent, compact_decompose,
                     cyclic_group, decompose, drinfeld_double, dualize,
                     dualize_co, group_algebra, groupoid_weak_hopf,
                     pair_groupoid,
                     regular_representation, scheme_from_matrices,
                     table_algebra)
from fsclass import io as fio
from fsclass.coalgebra import corep_indicators
from fsclass.errors import (AxiomViolation, BadDualStructure, BadUnit,
                            FSClassError, InconsistentAlpha,
                            InternalConsistency, NotStarRep,
                            UnexpectedDimension, require)
from fsclass.algebra import (GENERATOR_DIM, _monomial_columns,
                             real_form_from_conjugation, real_form_from_S,
                             star_residual, transpose_times)
from fsclass.cli import Run, _cmat
from fsclass.indicators import (SigmaResult, _round_indicator, classify_sigma,
                                classify_sigmas, formula_element)
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import Tolerance, dagger
from fsclass.reps import RegularRepresentation, hom_residual, intertwiners

from conftest import (GROUP_FILES, bundled_runs, count_centrality_kernels,
                      data_path, diagonal_rescaling, fixed_space_of_antilinear,
                      haar_separability, load_group, m2_dual_structures,
                      nullspace, rescaled, table_separability, unchecked)


def batched_hom_residual(V) -> float:
    prod = V.rho[:, None] @ V.rho[None, :]
    return float(np.abs(prod - V.algebra.of_products(V.rho)).max(initial=0.0))


def delta_contraction_residual(C, c) -> float:
    d, n = c.shape[0], C.dim
    # Delta(c_ij) at (a, b), and sum_k c_ik[a] c_kj[b] at ((i, a), (j, b))
    lhs = (c.reshape(d * d, n) @ C.Delta.T).reshape(d, d, n, n)
    rhs = (c.transpose(0, 2, 1).reshape(d * n, d) @ c.reshape(d, d * n)
           ).reshape(d, n, d, n).transpose(0, 2, 1, 3)
    return float(np.abs(lhs - rhs).max(initial=0.0))


def coseparability_contraction_residuals(C, E) -> tuple[float, float]:
    n = C.dim
    unit_gap = float(np.abs(E.ravel() @ C.Delta - C.counit).max())
    # c_(1) E(c_(2), d) = E(c, d_(1)) d_(2) on basis pairs (e_i, e_d), at
    # e_a: sum_k Dt[i, a, k] E[k, d] = sum_p E[i, p] Dt[d, p, a], as [a, d, i]
    lhs = E.T @ C.Delta.reshape(n, n, n)
    rhs = (E @ C.Delta.reshape(n, n * n)).reshape(n, n, n).transpose(1, 2, 0)
    return unit_gap, float(np.abs(lhs - rhs).max(initial=0.0))


def two_contraction_functional(Delta, varsigma, gamma_vec, E) -> np.ndarray:
    """w[i] = sum_{m,c} Dt[i, m, c] Y[m, c] with
    Y[m, c] = sum_{a,b} Dt[m, a, b] gamma_b (varsigma^T E)[a, c], for the
    n^2 x n matrix Delta = Dt.reshape(n, n * n).T."""
    n = Delta.shape[1]
    Y = (gamma_vec @ Delta.reshape(n, n, n)).T @ (varsigma.T @ E)
    return Y.ravel() @ Delta


def _algebras():
    """D(S3), C[Q8] on a complex unitary basis, the Petersen scheme and M2."""
    q8 = group_algebra(load_group("q8"))[0]
    z = np.random.default_rng(12).standard_normal((8, 8, 2)) @ [1, 1j]
    U = np.linalg.qr(z)[0]
    Uinv = np.linalg.inv(U)
    c = np.einsum("ia,jb,ijk,ck->abc", U, U, q8.structure, Uinv, optimize=True)
    q8u = FDStarAlgebra(c, Uinv @ q8.unit, Uinv @ q8.star_matrix @ np.conj(U))
    mats = fio.load_scheme_v1(data_path("petersen_scheme.json"))["matrices"]
    return {"D(S3)": drinfeld_double(load_group("s3"))[0].algebra,
            "C[Q8] rebased": q8u,
            "Petersen": table_algebra(scheme_from_matrices(mats))[0],
            "M2": m2_dual_structures()[0]}


@pytest.fixture(scope="module")
def algebras():
    return _algebras()


def _corrupted(x, rng):
    bad = x.copy()
    bad[tuple(int(rng.integers(0, s)) for s in x.shape)] += 0.5
    return bad


def test_hom_kernel_matches_the_batched_products(algebras):
    rng = np.random.default_rng(70)
    for name, A in algebras.items():
        R = regular_representation(A)
        for V in [R] + [V for V, _ in decompose(R)]:
            bad = unchecked(A, _corrupted(V.rho, rng))
            for W in (V, bad):
                # every row: the n^2 products
                got = hom_residual(W.rho, A.of_products)
                bound = 1e-15 * max(1.0, np.abs(W.rho).max()) ** 2
                assert abs(got - batched_hom_residual(W)) <= bound, name
            assert hom_residual(bad.rho, A.of_products) > 0.1, name


def test_the_generator_rows_bound_every_product(monkeypatch):
    """A representation's homomorphism check runs on the generator rows S
    of its algebra: its residual r is at most the n^2 one of the batched
    oracle, and that is at most F r, F the factor `_hom_residual` states.
    So one entry of one part's rho(e_i) off by 1e-7 is refused, for an e_i
    in S and for one outside it.  A dense algebra's S is every row, F = 1,
    and r is the n^2 residual bit for bit.  Tables of dimension below
    GENERATOR_DIM (all of these) keep every row too, so it is lowered."""
    assert max(A.dim for A in _algebras().values()) < GENERATOR_DIM
    monkeypatch.setattr(fsclass.algebra, "GENERATOR_DIM", 1)
    cases = _algebras()
    D = cases["D(S3)"]
    cases["D(S3) rescaled"] = rescaled(D, diagonal_rescaling(D.dim, seed=16))
    for name, A in cases.items():
        rows, depth, _ = A.generators
        if A.table is None:
            assert (rows, depth) == (slice(None), 1), name
            corrupt = [0, A.dim - 1]
        else:
            assert 1 < len(rows) < A.dim and depth > 1, name
            corrupt = [int(rows[-1]),
                       int(np.setdiff1d(np.arange(A.dim), rows)[0])]
        for V, _ in decompose(regular_representation(A)):
            for i in [None] + corrupt:
                rho = V.rho.copy()
                if i is not None:
                    rho[i, 0, 0] += 1e-7
                r, F = Representation._hom_residual(unchecked(A, rho))
                full = batched_hom_residual(unchecked(A, rho))
                if A.table is None:
                    assert (r, F) == (hom_residual(rho, A.of_products), 1.0)
                else:   # f_1 = d, f_l = (a f_(l-1) + d (max |c| + a)) / m
                    a = np.linalg.svd(rho, compute_uv=False).max()
                    f, d, m = V.dim, V.dim, A.generators[2]
                    for _ in range(depth - 1):
                        f = (a * f + d * (A.max_coefficient + a)) / m
                    assert F == pytest.approx(f, rel=1e-12), name
                ulps = 1e-14 * max(1.0, np.abs(rho).max()) ** 2
                assert r <= full + ulps and full <= F * r + ulps, name
                if i is not None:
                    with pytest.raises(NotStarRep, match=r"^rho\(e_i e_j\) "):
                        Representation(A, rho)


def test_corepresentation_check_matches_the_delta_contraction(algebras):
    rng = np.random.default_rng(71)
    for name, A in algebras.items():
        C = dualize(A)
        # the same coalgebra given directly, stored as its own dual algebra
        direct = FDStarCoalgebra(C.Delta.copy(), C.counit, C.star_matrix)
        assert direct.algebra is not A, name
        for block in compact_decompose(C).blocks:
            coeff = block.rho.transpose(1, 2, 0)   # c_ij[m] = rho(e_m)[i, j]
            for coeff in (coeff, _corrupted(coeff, rng)):
                rho = coeff.transpose(2, 0, 1)
                got = hom_residual(rho, direct.algebra.of_products)
                assert got == hom_residual(rho, direct.Delta.dot), name
                want = delta_contraction_residual(direct, coeff)
                bound = 1e-15 * max(1.0, np.abs(coeff).max()) ** 2
                assert abs(got - want) <= bound, name
            Representation(direct.algebra, block.rho)


def test_coseparability_residuals_are_the_separability_residuals(algebras):
    rng = np.random.default_rng(72)
    for name, A in algebras.items():
        C = dualize(A)
        kept = A.separability_idempotent.tensor
        for E in (kept, kept + 1e-3 * (rng.random(kept.shape) < 0.1)):
            unit_gap, central = SeparabilityIdempotent(A, E).residuals
            assert (unit_gap, float(central.max())) == \
                coseparability_contraction_residuals(C, E), name


def test_the_kept_e_is_checked_once_and_a_corrupted_copy_again(
        algebras, monkeypatch):
    for name, A in algebras.items():
        C = dualize(A)
        dec = compact_decompose(C)
        built, kernels = count_centrality_kernels(monkeypatch)
        dec.E.verify()
        assert (built, kernels) == ([], []), name
        bad = dec.E.matrix.copy()
        bad[0, 0] += 1e-3
        unit_gap, _ = coseparability_contraction_residuals(C, bad)
        eps = C.tol.eps_eig * 100 * max(1.0, np.abs(bad).max())
        assert unit_gap > eps, name
        with pytest.raises(AxiomViolation, match="^" + re.escape(
                f"E(c_(1), c_(2)) != eps(c) (residual {unit_gap:.3e}, "
                f"threshold {eps:.3e})") + "$"):
            CoseparabilityIdempotent(
                C, SeparabilityIdempotent(dualize_co(C), bad)).verify()
        assert (len(built), len(kernels)) == (1, 1), name
        assert dualize_co(C) is A
        monkeypatch.undo()


def test_closed_form_separability_idempotents_equal_the_kept_one(scheme_mats):
    for name in GROUP_FILES:
        A = group_algebra(load_group(name))[0]
        gap = np.abs(haar_separability(A).tensor
                     - A.separability_idempotent.tensor).max()
        assert gap <= 1e-15, name
    for name, mats in scheme_mats.items():
        T = scheme_from_matrices(mats)
        A = table_algebra(T)[0]
        gap = np.abs(table_separability(A, T).tensor
                     - A.separability_idempotent.tensor).max()
        assert gap <= 1e-15, name


def test_duality_functional_matches_the_two_contractions(monkeypatch):
    """On every bundled input with a dual structure, the w that
    `corep_indicators` forms for gamma = g and varsigma = S^T, as
    `duality` calls it, is A's formula element z, bit for bit.  Both
    kernels agree within 1e-15 of the same sums over absolute values, also
    for a seeded varsigma and gamma.  The block characters t_V of
    `compact_decompose` are the characters chi_V they are read off."""
    formed = []
    monkeypatch.setattr(fsclass.coalgebra, "formula_element",
                        lambda *args: formed.append(formula_element(*args))
                        or formed[-1])
    rng = np.random.default_rng(73)
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None]
    assert len(runs) == 24
    for name, run in runs:
        A, dual = run.A, run.dual
        C = dualize(A)
        E = A.separability_idempotent.tensor
        z = formula_element(A, dual.S.matrix, dual.g, E)
        n = A.dim
        x = rng.standard_normal((n, n + 1, 2)) @ [1, 1j]
        for varsigma, gamma_vec in ((dual.S.matrix.T, dual.g),
                                    (x[:, :n], x[:, n])):
            w = formula_element(C.algebra, varsigma.T, gamma_vec, E)
            want = two_contraction_functional(C.Delta, varsigma, gamma_vec, E)
            scale = two_contraction_functional(
                *map(np.abs, (C.Delta, varsigma, gamma_vec, E))).max()
            assert np.abs(w - want).max() <= 1e-15 * max(1.0, scale), name
        cd = compact_decompose(C, parts=run.parts)
        corep_indicators(C, cd.blocks, dual.S.matrix.T, dual.g, cd.E)
        assert np.array_equal(formed[-1], z), name
        for block, (V, _) in zip(cd.blocks, run.parts, strict=True):
            assert np.abs(block.character() - V.character()).max() <= \
                1e-13, name


def kron_system(a, b, c, d) -> np.ndarray:
    """The blocks kron(a_i, b_i) - kron(c_i, d_i) stacked over i, one block
    of rows per i: the linear system of a Sylvester-type identity such as
    F x_i = y_i F, in the row-major vec(F) coordinates.  Each operand is a
    stack of matrices indexed by i or a single matrix shared by every i.
    Entry for entry, the products and the difference are those np.kron
    gives, so the matrix is the same as the per-i stack built with it.
    """
    def kron(x, y):
        p = x[..., :, None, :, None] * y[..., None, :, None, :]
        *lead, r, s, t, u = p.shape
        return p.reshape(*lead, r * s, t * u)
    out = kron(a, b)
    out -= kron(c, d)
    return out.reshape(-1, out.shape[-1])


def kron_intertwiners(rho_v, rho_w, tol=TOL) -> list[np.ndarray]:
    """Basis of {F : F rho_v(e_i) = rho_w(e_i) F}, each of shape (dW, dV):
    the null space of the Kronecker system, for any stacks rho_v, rho_w."""
    dv, dw = rho_v.shape[1], rho_w.shape[1]
    system = kron_system(np.eye(dw), rho_v.transpose(0, 2, 1),
                         rho_w, np.eye(dv))
    ker = nullspace(system, tol)
    return [ker[:, j].reshape(dw, dv) for j in range(ker.shape[1])]


def invariant_gram(A, rho: np.ndarray) -> np.ndarray:
    """Hermitian positive H = sum_j rho(b_j)^dagger rho(b_j) over the
    trace-form orthonormal basis b_j = `A.orthonormal_basis`, with
    rho(a)^dagger H = H rho(a*) checked, `NotStarRep` otherwise.  It holds
    whenever rho is multiplicative: right multiplications by a and by a*
    are adjoint for the tracial inner product, so sum_j (b_j a)^* (x) b_j
    = sum_j b_j^* (x) b_j a*.  The gram by averaging, as the library
    formed it before every part came out of `decompose` unitary."""
    R = np.tensordot(A.orthonormal_basis, rho, axes=(0, 0))   # rho(b_j)
    H = np.einsum("jba,jbc->ac", np.conj(R), R)
    scale = max(1.0, float(np.abs(rho).max(initial=0.0))) ** 2
    require(NotStarRep, "rho(a)^dagger H != H rho(a*)",
            star_residual(rho, A.star_matrix, H),
            A.tol.eps_eig * scale * len(H) * max(1.0, np.abs(H).max()))
    return H


def kron_invariant_gram(A, rho) -> np.ndarray:
    """The invariant gram of an irreducible rho, trace 1, from the one
    solution K of K rho(a*) = rho(a)^dagger K that the Kronecker solve
    gives: K is a phase times a positive definite H."""
    rho_star = np.tensordot(A.star_matrix, rho, axes=(0, 0))
    [K] = kron_intertwiners(rho_star, np.conj(rho).transpose(0, 2, 1), A.tol)
    return K / np.trace(K)


def test_kron_system_matches_the_per_index_kron_stack():
    rng = np.random.default_rng(9)
    n, dv, dw = 5, 3, 4

    def stack(k):
        shape = (n, k, k)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rv, rw, rb = stack(dv), stack(dw), stack(dv)
    ev, ew = np.eye(dv), np.eye(dw)
    # intertwiners (F rho_v = rho_w F), the same system for the antilinear
    # self-intertwiners, and the identity operands in the other places
    cases = [
        ((ew, rv.transpose(0, 2, 1), rw, ev),
         [np.kron(ew, rv[i].T) - np.kron(rw[i], ev) for i in range(n)]),
        ((ev, np.conj(rv).transpose(0, 2, 1), rb, ev),
         [np.kron(ev, np.conj(rv[i]).T) - np.kron(rb[i], ev)
          for i in range(n)]),
        ((np.conj(rw).transpose(0, 2, 1), ew, ew, rw.transpose(0, 2, 1)),
         [np.kron(dagger(rw[i]), ew) - np.kron(ew, rw[i].T)
          for i in range(n)]),
    ]
    for args, blocks in cases:
        got = kron_system(*args)
        want = np.vstack(blocks)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def averaging_projection(A, rho_v, rho_w) -> np.ndarray:
    """P = sum_m kron(rho_w(b_m), rho_v(b_m^*)^T) over the trace-form
    orthonormal basis b_m, one np.kron per m: the average with the
    symmetric separability idempotent sum_m b_m (x) b_m^*."""
    B = A.orthonormal_basis
    x = np.tensordot(B, rho_w, axes=(0, 0))
    y = np.tensordot(A.star(B), rho_v, axes=(0, 0))
    return sum(np.kron(xm, ym.T) for xm, ym in zip(x, y))


def test_averaged_hom_spaces_match_the_kronecker_solve():
    """On every bundled input with a dual structure and for every
    irreducible V, Hom(V, D(V)), Hom(V, V o S^2) and End_A(V) from the
    average have the Kronecker solve's dimension and span, within 1e-12;
    the k-th singular value of the averaging projection is >= 1 - 1e-12.
    The averaged invariant gram of V conjugated by a non-unitary matrix is
    the Kronecker solve's, up to scale, within 1e-12."""
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None]
    assert len(runs) == 24
    rng = np.random.default_rng(74)
    for name, run in runs:
        A, S = run.A, run.dual.S
        S2 = S.squared()
        for V, _ in run.parts:
            d = V.dim
            targets = [np.tensordot(S.matrix, V.rho, axes=(0, 0))
                       .transpose(0, 2, 1),
                       np.tensordot(S2, V.rho, axes=(0, 0)), V.rho]
            for rho_w in targets:
                new = intertwiners(A, V.rho, rho_w)
                old = kron_intertwiners(V.rho, rho_w, A.tol)
                assert len(new) == len(old), name
                if not old:
                    continue
                span_new, span_old = (
                    np.stack([F.reshape(-1) for F in hom], axis=1)
                    for hom in (new, old))
                gap = (span_new @ dagger(span_new)
                       - span_old @ dagger(span_old))
                assert np.abs(gap).max() <= 1e-12, name
                s = np.linalg.svd(averaging_projection(A, V.rho, rho_w),
                                  compute_uv=False)
                assert s[len(new) - 1] >= 1 - 1e-12, name
            P = np.eye(d) + 0.3 * np.triu(rng.standard_normal((d, d)))
            rho = np.linalg.inv(P) @ V.rho @ P
            H = invariant_gram(A, rho)
            gap = H / np.trace(H) - kron_invariant_gram(A, rho)
            assert np.abs(gap).max() <= 1e-12, name


def twisted_antilinear_intertwiners(V, R) -> list[np.ndarray]:
    """Basis of {F : F conj(rho(e_i)) = rho(K e_i) F}, K = R.conj_matrix."""
    rho_bar = np.einsum("ji,jab->iab", R.conj_matrix, V.rho)
    return kron_intertwiners(np.conj(V.rho), rho_bar, V.algebra.tol)


def test_sigma_intertwiner_matches_the_twisted_antilinear_solve():
    """On every bundled input with a dual structure, classify_sigma and
    full_report give the sigma of the K-twisted solve, and j spans the
    same complex line as its intertwiner."""
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None]
    assert len(runs) == 24
    for name, run in runs:
        R = real_form_from_S(run.A, run.dual.S)
        for (V, _), row in zip(run.parts, run.report.rows, strict=True):
            old = twisted_antilinear_intertwiners(V, R)
            res = classify_sigma(V, R)
            assert len(old) == abs(res.sigma) == abs(row.sigma), name
            if not old:
                continue
            F, j = old[0], res.j_matrix
            alpha = np.trace(F @ np.conj(F)).real
            assert res.sigma == row.sigma == np.sign(alpha), name
            c = np.vdot(F, j) / np.vdot(F, F)
            assert np.abs(j - c * F).max() <= 1e-12 * np.abs(j).max(), name


def real_basis_residuals(V, R, W) -> np.ndarray:
    """max |Im W^-1 rho(r) W| / (1 + max |W^-1 rho(r) W|) for each vector r
    of a real basis of A0 = {a : K conj(a) = a}."""
    basis = fixed_space_of_antilinear(R.conj_matrix, TOL)
    assert basis.shape[1] == V.algebra.dim
    m = np.linalg.inv(W) @ np.tensordot(basis, V.rho, axes=(0, 0)) @ W
    return np.abs(m.imag).max(axis=(1, 2)) / (1 + np.abs(m).max(axis=(1, 2)))


def conjugation_residuals(V, R, W) -> np.ndarray:
    """max |sum_k K[k, i] m_k - conj(m_i)| / (1 + max |m_i|) for each basis
    element e_i, m_i = W^-1 rho(e_i) W: the check `classify_sigma` makes."""
    m = np.linalg.inv(W) @ V.rho @ W
    gap = np.tensordot(R.conj_matrix, m, axes=(0, 0)) - np.conj(m)
    return np.abs(gap).max(axis=(1, 2)) / (1 + np.abs(m).max(axis=(1, 2)))


def test_witness_check_through_k_matches_the_real_basis_check():
    """On every real irreducible of every bundled input with a dual
    structure, the witness passes both forms of the check.  Under a seeded
    complex change of basis C both fail where d >= 2; for d = 1,
    W^-1 rho W = rho whatever W is, so both still pass."""
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None]
    assert len(runs) == 24
    rng = np.random.default_rng(29)
    dims = []
    for name, run in runs:
        R = real_form_from_S(run.A, run.dual.S)
        for V, _ in run.parts:
            res = classify_sigma(V, R)
            if res.sigma != 1:
                continue
            dims.append(V.dim)
            W = res.witness
            assert conjugation_residuals(V, R, W).max() <= 1e-12, name
            assert real_basis_residuals(V, R, W).max() <= 1e-12, name
            C = np.eye(V.dim) + 0.5j * rng.standard_normal((V.dim, V.dim))
            k_form = conjugation_residuals(V, R, W @ C).max()
            basis_form = real_basis_residuals(V, R, W @ C).max()
            if V.dim == 1:
                assert max(k_form, basis_form) <= 1e-12, name
            else:
                assert min(k_form, basis_form) > TOL.eps_round, name
    assert (len(dims), sum(d > 1 for d in dims)) == (95, 34)


# --- the per-irreducible loop that the stacked pass replaced ---
#
# full_report and classify_sigma once solved Hom(V, D(V)) and read the
# trace indicator and sigma from it one irreducible at a time; each check
# raised for that irreducible alone.  `indicators` now runs these kernels
# on a stack of the irreducibles of each dimension.

def loop_dual_hom(V, S) -> list[np.ndarray]:
    """Basis of Hom(V, D(V)) = {F : F rho(a) = rho(S a)^T F}."""
    rho_d = np.tensordot(S, V.rho, axes=(0, 0)).transpose(0, 2, 1)
    return intertwiners(V.algebra, V.rho, rho_d)


def loop_nu_trace(V, hom, g) -> int:
    """The trace of F -> F^T rho(g) on the span of hom, by least squares."""
    if not hom:
        return 0
    A = V.algebra
    rho_g = V.apply(g)
    basis = np.stack([F.reshape(-1) for F in hom], axis=1)
    images = np.stack([(F.T @ rho_g).reshape(-1) for F in hom], axis=1)
    T, res, *_ = np.linalg.lstsq(basis, images, rcond=None)
    require(InternalConsistency, "involution does not preserve Hom(V, D(V))",
            res.max(initial=0.0), A.tol.eps_eig * 100)
    require(InternalConsistency, "duality map on Hom(V, D(V)) does not square "
            "to the identity", np.abs(T @ T - np.eye(len(hom))).max(),
            A.tol.eps_round * 10)
    return _round_indicator(complex(np.trace(T)), A.tol.eps_round)


def loop_sigma(V, R, hom) -> SigmaResult:
    """sigma of one irreducible from the Riesz image of its hom."""
    A, d = V.algebra, V.dim
    if not hom:
        return SigmaResult(0, None, None, None)
    if len(hom) > 1:
        raise UnexpectedDimension("antilinear self-intertwiner space has "
                                  "dim > 1")
    F = np.linalg.solve(V.gram, np.conj(hom[0]))
    F = F / np.linalg.norm(F)
    FFbar = F @ np.conj(F)
    alpha = np.trace(FFbar).real / d
    require(InconsistentAlpha, "F conj(F) is not a scalar matrix",
            np.abs(FFbar - alpha * np.eye(d)).max(),
            A.tol.eps_round * (1 + abs(alpha)))
    require(InconsistentAlpha, "F conj(F) vanishes for a nonzero intertwiner",
            -abs(alpha), -A.tol.eps_rank)
    sigma = 1 if alpha > 0 else -1
    j = F / np.sqrt(abs(alpha))
    witness = None
    if sigma == 1:
        W = fixed_space_of_antilinear(j, A.tol)
        if W.shape[1] != d:
            raise InternalConsistency("fixed space of j has the wrong dimension")
        witness = W
        m = np.linalg.inv(W) @ V.rho @ W
        require(InternalConsistency, "real form does not act by real "
                "matrices in the j-fixed basis",
                np.abs(np.tensordot(R.conj_matrix, m, axes=(0, 0))
                       - np.conj(m)).max(axis=(1, 2)),
                A.tol.eps_round * (1 + np.abs(m).max(axis=(1, 2))))
    else:
        require(InternalConsistency, "j conj(j) != -I for sigma = -1",
                np.abs(j @ np.conj(j) + np.eye(d)).max(), A.tol.eps_round * 10)
    return SigmaResult(sigma, float(alpha), j, witness)


def loop_report(A, dual, parts, E) -> list[tuple]:
    """(nu_formula, raw, nu_trace, SigmaResult) for each irreducible, one
    Hom(V, D(V)) solve each, as `full_report` computed them."""
    R = real_form_from_S(A, dual.S)
    z = formula_element(A, dual.S.matrix, dual.g, E.tensor)
    out = []
    for V, _ in parts:
        raw = V.char_value(z)
        hom = loop_dual_hom(V, dual.S.matrix)
        out.append((_round_indicator(raw, A.tol.eps_round), raw,
                    loop_nu_trace(V, hom, dual.g), loop_sigma(V, R, hom)))
    return out


@pytest.fixture
def witness_equivalent(monkeypatch):
    """`witness_equivalent` of scripts/cli_matrix.py, whose import pins the
    BLAS thread variables (monkeypatch puts them back)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "cli_matrix.py")
    spec = importlib.util.spec_from_file_location("cli_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.witness_equivalent


def test_stacked_pass_matches_the_per_irreducible_loop(witness_equivalent):
    """On every bundled input with a dual structure, D(Q8) and D(D4)
    among them, `full_report` and `classify_sigmas` give the loop's nu,
    nu_trace, sigma and endo_real_dim, nu_formula_raw within 1e-13 (the
    largest gap seen is 2.2e-16), and witnesses that `witness_equivalent`
    accepts: the real basis W up to a phase and a real invertible matrix,
    j up to a unit scalar."""
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None]
    assert len(runs) == 24
    assert {"double q8", "double d4"} <= {name for name, _ in runs}
    for name, run in runs:
        A, dual, parts = run.A, run.dual, run.parts
        loop = loop_report(A, dual, parts, A.separability_idempotent)
        stacked = classify_sigmas([V for V, _ in parts],
                                  real_form_from_S(A, dual.S))
        for (nu_f, raw, nu_t, old), row, new in zip(loop, run.report.rows,
                                                     stacked, strict=True):
            assert (row.nu_formula, row.nu_trace, row.sigma, new.sigma,
                    row.endo_real_dim) == (nu_f, nu_t, old.sigma, old.sigma,
                                           4 if old.sigma else 2), name
            assert abs(row.nu_formula_raw - raw) <= 1e-13, name
            if old.sigma:
                assert witness_equivalent("quaternion_map", _cmat(old.j_matrix),
                                          _cmat(new.j_matrix)), name
            if old.sigma == 1:
                assert witness_equivalent("real_basis", _cmat(old.witness),
                                          _cmat(new.witness)), name


def test_monomial_products_are_gathers_equal_to_the_dense_ones():
    """On every bundled input stored as an index table (groups, groupoids
    and doubles: S and E are monomial), z = `formula_element` equals
    A.multiply(R_g S E) formed by dense n x n products bit for bit, and so
    do the real form's K = sigma conj(S), K conj(K) and sigma conj(K),
    which is `R.anti_matrix` and equals the S the real form was built
    from."""
    runs = [(name, run) for name, run in bundled_runs()
            if run._dual is not None and run.A.table is not None]
    assert len(runs) == 22
    for name, run in runs:
        A, S, g = run.A, run.dual.S.matrix, run.dual.g
        E, sigma = A.separability_idempotent.tensor, A.star_matrix
        assert all(_monomial_columns(M) is not None for M in (S, E, E.T))
        assert np.array_equal(formula_element(A, S, g, E),
                              A.multiply(A.right_mult(g) @ S @ E)), name
        R = real_form_from_S(A, run.dual.S)
        K = R.conj_matrix
        assert np.array_equal(R.anti_matrix, S), name
        assert np.array_equal(K, sigma @ np.conj(S)), name
        assert np.array_equal(_times_conj(K, K), K @ np.conj(K)), name
        assert np.array_equal(real_form_from_conjugation(A, K).anti_matrix,
                              sigma @ np.conj(K)), name


def test_transpose_times_takes_a_vector_and_a_matrix():
    """On D(S3), where S, E and sigma are monomial, `transpose_times(M, X)`
    is the dense M^T X, in X's shape, for a vector X as for a matrix (a
    vector once came back n x n)."""
    run = Run("double", data_path("s3.json"), TOL, 0)
    A = run.A
    X = np.random.default_rng(35).standard_normal((A.dim, 3))
    for M in (run.dual.S.matrix, A.separability_idempotent.tensor,
              A.star_matrix):
        assert _monomial_columns(M) is not None
        for Y in (X[:, 0], X):
            assert np.array_equal(transpose_times(M, Y), M.T @ Y)


def _times_conj(M, N):
    """M conj(N) as `real_form_from_conjugation` forms it."""
    return transpose_times(np.conj(N), M.T).T


# --- kernels on the index table against the dense forms they replaced ---
#
# Each dense_* function below is the code that read the dense structure
# tensor c before monomial algebras were stored as their index table.

def dense_multiply(c, Z):
    n = len(c)
    return Z.reshape(-1) @ c.reshape(n * n, n)


def dense_of_products(c, X):
    n = len(c)
    return (c.reshape(n * n, n) @ X.reshape(n, -1)).reshape(n, n, *X.shape[1:])


def dense_left_mult(c, x):
    return np.tensordot(x, np.ascontiguousarray(c.transpose(0, 2, 1)),
                        axes=(0, 0))


def dense_right_mult(c, y):
    n = len(c)
    left = np.ascontiguousarray(c.transpose(0, 2, 1))
    return (left.reshape(n * n, n) @ y).reshape(n, n).T


def dense_unit_residual(c, u):
    n, eye = len(c), np.eye(len(c))
    return np.maximum(
        np.abs((u @ c.reshape(n, n * n)).reshape(n, n) - eye).max(axis=1),
        np.abs(np.einsum("ijk,j->ik", c, u) - eye).max(axis=1))


def dense_star_residual(c, sigma, H):
    """The star check of the regular representation with gram H."""
    rho = np.ascontiguousarray(c.transpose(0, 2, 1))
    star_rho = np.tensordot(sigma, rho, axes=(0, 0))
    lhs = np.conj(rho).transpose(0, 2, 1) @ H
    return float(np.abs(lhs - H @ star_rho).max(initial=0.0))


def dense_centrality(c, Z):
    lhs = np.tensordot(c, Z, axes=(1, 0))
    rhs = np.tensordot(Z, c, axes=(1, 0)).transpose(1, 0, 2)
    return np.abs(lhs - rhs).reshape(len(c), -1).max(axis=1)


def dense_verify(c, unit, Z, eps):
    """`SeparabilityIdempotent.verify` on the dense forms."""
    require(BadDualStructure, "sum x_m y_m misses the unit",
            float(np.abs(dense_multiply(c, Z) - unit).max()), eps)
    require(BadDualStructure, "centrality identity fails at basis e{}",
            dense_centrality(c, Z), eps)


LOOSE = Tolerance(eps_rank=0.5)


def _table_algebras():
    """D(S3), the pair groupoid on 3 objects (whose products are partly
    zero) and C[Q8], each stored as its index table."""
    return {"D(S3)": drinfeld_double(load_group("s3"))[0].algebra,
            "pair(3)": groupoid_weak_hopf(pair_groupoid(3))[0].algebra,
            "C[Q8]": group_algebra(load_group("q8"))[0]}


def _seeded_tables(A, rng):
    """A, then A rebuilt from its table, at a tolerance loose enough to
    accept it, with one product's coefficient wrong and with one product
    zeroed.  Its coefficients stay real, as every constructor's are, so
    each product is rounded once on either path (see
    `test_table_kernels_on_complex_coefficients`)."""
    T, v = A.table
    out = [("clean", A)]
    for label, value in (("wrong v", 1.5), ("zeroed", 0.0)):
        i, j = np.argwhere(v != 0)[rng.integers(np.count_nonzero(v))]
        bad = v.copy()
        bad[i, j] = value
        out.append((f"{label} at ({i}, {j})",
                    FDStarAlgebra((T, bad), A.unit, A.star_matrix, LOOSE)))
    return out


def _perturbed(M, rng, scale):
    """M; M with one nonzero entry, on the diagonal if M has any there,
    times scale; and M plus 1e-3 at a symmetric pair of zero entries.  The
    first two are monomial, the third is not."""
    nz = np.argwhere(M != 0)
    on_diagonal = nz[nz[:, 0] == nz[:, 1]]
    nz = on_diagonal if len(on_diagonal) else nz
    i, j = nz[rng.integers(len(nz))]
    scaled = M.copy()
    scaled[i, j] *= scale
    a, b = np.argwhere(M == 0)[0]
    off = M.copy()
    off[a, b] += 1e-3
    off[b, a] += 1e-3
    return [M, scaled, off]


def _message(fn, *args):
    """The type and text of the check that fn(*args) fails, or None."""
    try:
        fn(*args)
    except FSClassError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_table_kernels_match_their_dense_forms():
    """On D(S3), a groupoid and C[Q8], clean and with a seeded wrong or
    zeroed product: every entry of of_products, left_mult, right_mult and
    the matrices L(e_i) and R(e_j) is one product, so the table forms equal
    the dense ones bit for bit, as do the unit residuals and the regular
    trace (whose sums of these coefficients are exact).  multiply sums
    several products per coordinate, in another order, so it agrees within
    a few ulps.  None of them builds the dense tensor, which, built by
    of_products on first read, equals the scatter of the table."""
    rng = np.random.default_rng(80)
    for name, A in _table_algebras().items():
        for label, B in _seeded_tables(A, rng):
            n = B.dim
            x = rng.standard_normal((4, n, 2)) @ [1, 1j]
            X, Z = x[0].reshape(n, 1) * x[1], x[2].reshape(n, 1) * x[3]
            got = {"of_products vector": B.of_products(x[0]),
                   "of_products map": B.of_products(X),
                   "left_mult": B.left_mult(x[1]),
                   "right_mult": B.right_mult(x[2]),
                   "regular_trace": B.regular_trace(),
                   "L(e_i)": np.array([B.left_mult(e) for e in np.eye(n)]),
                   "R(e_j)": np.array([B.right_mult(e) for e in np.eye(n)]),
                   "multiply": B.multiply(Z)}
            assert "structure" not in vars(B), (name, label)
            T, v = B.table
            c = np.zeros((n, n, n), dtype=complex)
            i, j = np.nonzero(v)
            c[i, j, T[i, j]] = v[i, j]
            assert np.array_equal(B.structure, c), (name, label)
            want = {"of_products vector": dense_of_products(c, x[0]),
                    "of_products map": dense_of_products(c, X),
                    "left_mult": dense_left_mult(c, x[1]),
                    "right_mult": dense_right_mult(c, x[2]),
                    "regular_trace": np.einsum("iaa->i", c.transpose(0, 2, 1)),
                    "L(e_i)": c.transpose(0, 2, 1),
                    "R(e_j)": c.transpose(1, 2, 0),
                    "multiply": dense_multiply(c, Z)}
            for kernel, value in want.items():
                if kernel == "multiply":
                    bound = 8 * n * np.finfo(float).eps * np.abs(Z).max() \
                        * np.abs(c).max()
                    assert np.abs(got[kernel] - value).max() <= bound
                else:
                    assert np.array_equal(got[kernel], value), \
                        (name, label, kernel)
            bad_unit = B.unit.copy()
            bad_unit[n - 1] += 100.0
            eps = LOOSE.eps_rank * max(1.0, np.abs(c).max()) ** 2 * n
            assert _message(FDStarAlgebra, B.table, bad_unit, B.star_matrix,
                            LOOSE) == _message(
                require, BadUnit, "unit axiom fails on basis element e{}",
                dense_unit_residual(c, bad_unit), eps) is not None, \
                (name, label)


def test_star_and_centrality_checks_match_their_dense_forms():
    """The regular representation's star check and the centrality
    residuals of a separability idempotent, on the table, against their
    n^4 dense forms: residuals equal bit for bit, hence equal first
    violations and messages.  Inputs are D(S3), a groupoid and C[Q8],
    clean and with a seeded wrong or zeroed product, each with the clean
    trace-form gram and E tensor, and with one of their entries scaled
    (still monomial) or a Hermitian pair added off their pattern (the
    dense path)."""
    rng = np.random.default_rng(81)
    for name, A in _table_algebras().items():
        G = A.trace_form[0]
        Z0 = A.separability_idempotent.tensor
        grams = _perturbed(G, rng, 1.001)
        tensors = _perturbed(Z0, rng, 1.001 - 0.002j)
        for label, B in _seeded_tables(A, rng):
            for H in grams:
                got = B.regular_star_residual(H)
                assert got == dense_star_residual(
                    B.structure, B.star_matrix, H), (name, label)
                assert (got == 0) == (label == "clean" and H is G)
            for Z in tensors:
                E = SeparabilityIdempotent(B, Z)
                unit_gap, central = E.residuals
                want = dense_centrality(B.structure, Z)
                assert np.array_equal(central, want), (name, label)
                assert unit_gap == float(np.abs(
                    dense_multiply(B.structure, Z) - B.unit).max())
                eps = TOL.eps_eig * 100
                assert _message(E.verify, eps) == _message(
                    dense_verify, B.structure, B.unit, Z, eps), (name, label)
        for H in grams[1:]:    # the messages of a rejected gram
            rho = A.left_stack()
            assert _message(RegularRepresentation, A, H) \
                == _message(Representation, A, rho, H) is not None, name


def test_rebased_and_scheme_algebras_keep_the_dense_path():
    """C[Q8] on a complex unitary basis and the Petersen scheme have no
    index table: the kernels read the dense tensor, as they always did.
    `right_mult` sums c[i, j, k] y_j over j on c itself, not on a copy
    in (i, k, j) order, so BLAS may order the sum differently: it agrees
    within the dot-product bound 4 n eps sum_j |c[i, j, k] y_j|."""
    rng = np.random.default_rng(82)
    algebras = _algebras()
    for name in ("C[Q8] rebased", "Petersen"):
        A = algebras[name]
        assert A.table is None, name
        c, n = A.structure, A.dim
        Z = A.separability_idempotent.tensor
        x = rng.standard_normal((n, 2)) @ [1, 1j]
        assert np.array_equal(A.of_products(x), dense_of_products(c, x))
        assert np.array_equal(A.multiply(Z), dense_multiply(c, Z))
        assert np.array_equal(A.left_mult(x), dense_left_mult(c, x))
        bound = 4 * n * np.finfo(float).eps * dense_right_mult(
            np.abs(c), np.abs(x))
        assert (np.abs(A.right_mult(x) - dense_right_mult(c, x))
                <= bound).all(), name
        assert A.regular_star_residual(A.trace_form[0]) == \
            dense_star_residual(c, A.star_matrix, A.trace_form[0])
        assert np.array_equal(SeparabilityIdempotent(A, Z).residuals[1],
                              dense_centrality(c, Z))


def test_dense_right_mult_copies_no_structure_tensor():
    """C[Z64] on a real orthogonal basis is dense: `right_mult` reads c
    in place, so one call allocates its n x n result, not the 4 MB of a
    copy of c."""
    A0 = group_algebra(cyclic_group(64))[0]
    n = A0.dim
    Q = np.linalg.qr(np.random.default_rng(85).standard_normal((n, n)))[0]
    c = np.einsum("ia,jb,ijk,kc->abc", Q, Q, A0.structure, Q, optimize=True)
    A = FDStarAlgebra(c, Q.T @ A0.unit, Q.T @ A0.star_matrix @ Q)
    assert A.table is None
    y = np.random.default_rng(86).standard_normal(n).astype(complex)
    tracemalloc.start()
    try:
        got = A.right_mult(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.nbytes / 16
    bound = 4 * n * np.finfo(float).eps * dense_right_mult(
        np.abs(c), np.abs(y))
    assert (np.abs(got - dense_right_mult(c, y)) <= bound).all()


def test_table_kernels_on_complex_coefficients():
    """D(S3) on a basis rescaled by seeded complex factors is monomial with
    complex coefficients.  A complex coefficient times a complex operand
    may round differently in the fused products of BLAS than in numpy's,
    so there the table kernels and checks agree with the dense forms
    within a few ulps of their scale rather than bit for bit; the
    regular representation and E pass their checks."""
    A = drinfeld_double(load_group("s3"))[0].algebra
    B = rescaled(A, diagonal_rescaling(A.dim, 83))
    c, n = B.structure, B.dim
    assert B.table is not None and np.iscomplex(B.table[1]).any()
    x = np.random.default_rng(84).standard_normal((n, 2)) @ [1, 1j]
    G, Z = B.trace_form[0], B.separability_idempotent.tensor
    regular_representation(B)
    pairs = [(B.of_products(x), dense_of_products(c, x), x),
             (B.left_mult(x), dense_left_mult(c, x), x),
             (B.right_mult(x), dense_right_mult(c, x), x),
             (B.regular_star_residual(G),
              dense_star_residual(c, B.star_matrix, G), G),
             (SeparabilityIdempotent(B, Z).residuals[1],
              dense_centrality(c, Z), Z)]
    for got, want, operand in pairs:
        bound = 4 * np.finfo(float).eps * np.abs(c).max() * np.abs(
            operand).max() * max(1.0, np.abs(operand).max())
        assert np.abs(np.asarray(got) - want).max() <= bound
