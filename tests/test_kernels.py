"""One kernel per identity, against the constructions it replaced.

Each reference below is code the library ran before its identity got a
single kernel:

- `batched_hom_residual`: the n^2 batched products rho(e_i) rho(e_j) that
  `reps.hom_residual` forms as one GEMM;
- `delta_contraction_residual`: the corepresentation check's own Delta
  contraction, now `hom_residual` of the dual module over Delta;
- `coseparability_contraction_residuals`: the coseparability check's own
  counit and centrality contractions, now `SeparabilityIdempotent.residuals`
  over the dual algebra;
- `haar_separability` and `table_separability` (conftest): the closed-form
  separability idempotents the group and table algebra constructors built
  beside the kept one.
"""
import re

import numpy as np
import pytest

from fsclass import (CoseparabilityIdempotent, Corepresentation,
                     FDStarAlgebra, FDStarCoalgebra, Representation,
                     SeparabilityIdempotent, compact_decompose, decompose,
                     drinfeld_double, dualize, dualize_co, group_algebra,
                     regular_representation, scheme_from_matrices,
                     table_algebra)
from fsclass import io as fio
from fsclass.errors import AxiomViolation
from fsclass.reps import hom_residual

from conftest import (GROUP_FILES, count_centrality_kernels, data_path,
                      haar_separability, load_group, m2_dual_structures,
                      table_separability)


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
        # the same coalgebra given directly, with no dual algebra built
        direct = FDStarCoalgebra(C.Delta.copy(), C.counit, C.star_matrix)
        for block in compact_decompose(C).blocks:
            for coeff in (block.coeff, _corrupted(block.coeff, rng)):
                got = hom_residual(coeff.transpose(2, 0, 1), direct.Delta.dot)
                want = delta_contraction_residual(direct, coeff)
                bound = 1e-15 * max(1.0, np.abs(coeff).max()) ** 2
                assert abs(got - want) <= bound, name
            Corepresentation(direct, block.coeff)
        assert direct.algebra is None, name


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
            CoseparabilityIdempotent(C, bad).verify()
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
