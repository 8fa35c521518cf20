"""One kernel per identity, against the constructions it replaced.

Each reference below is code the library ran before its identity got a
single kernel:

- `batched_hom_residual`: the n^2 batched products rho(e_i) rho(e_j) that
  `reps.hom_residual` forms as one GEMM;
- `delta_contraction_residual`: the corepresentation check's own Delta
  contraction, now `hom_residual` of the dual module the corepresentation
  is stored as, over the dual algebra, whose `of_products` is the same
  GEMM as Delta.dot;
- `coseparability_contraction_residuals`: the coseparability check's own
  counit and centrality contractions, now `SeparabilityIdempotent.residuals`
  over the dual algebra;
- `haar_separability` and `table_separability` (conftest): the closed-form
  separability idempotents the group and table algebra constructors built
  beside the kept one;
- `two_contraction_functional`: the duality functional w of
  `corep_indicators` as its own two n^3 contractions on Delta, now
  `formula_element` over the dual algebra.
"""
import re

import numpy as np
import pytest

import fsclass.coalgebra
from fsclass import (CoseparabilityIdempotent, FDStarAlgebra,
                     FDStarCoalgebra, Representation,
                     SeparabilityIdempotent, compact_decompose, decompose,
                     drinfeld_double, dualize, dualize_co, group_algebra,
                     regular_representation, scheme_from_matrices,
                     table_algebra)
from fsclass import io as fio
from fsclass.coalgebra import corep_indicators
from fsclass.errors import AxiomViolation
from fsclass.indicators import formula_element
from fsclass.reps import hom_residual

from conftest import (GROUP_FILES, bundled_runs, count_centrality_kernels,
                      data_path, haar_separability, load_group,
                      m2_dual_structures, table_separability)


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
            bad = Representation(A, _corrupted(V.rho, rng), check=False)
            for W in (V, bad):
                # the base method: the regular representation overrides it
                got = Representation._hom_residual(W)
                bound = 1e-15 * max(1.0, np.abs(W.rho).max()) ** 2
                assert abs(got - batched_hom_residual(W)) <= bound, name
            assert Representation._hom_residual(bad) > 0.1, name


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
        A, _, v = table_algebra(T)
        gap = np.abs(table_separability(A, T, v).tensor
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
