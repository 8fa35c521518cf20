"""Frobenius-Schur indicators and real/complex/quaternionic classification
for *-representations of a C*-able algebra equipped with a dual-structure
pair (S, g).

Two independent indicator computations are provided: a closed formula over
a separability idempotent, and the trace of the canonical involution on the
morphism space Hom(V, D(V)).  The classification sigma comes from an
antilinear self-intertwiner and must agree with the indicator.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      RealForm, SeparabilityIdempotent, real_form_from_S)
from .errors import (AgreementFailure, BadDualStructure, ComplexResult,
                     InconsistentAlpha, InternalConsistency, NoTwistedMap,
                     UnexpectedDimension)
from .linalg import dagger, fixed_space_of_antilinear, kron_system, nullspace
from .reps import Representation, dual_representation, intertwiners


def _round_indicator(value: complex, eps_round: float) -> int:
    if abs(value.imag) > eps_round:
        raise ComplexResult(f"indicator value {value} is not real")
    r = int(round(value.real))
    if abs(value.real - r) > eps_round:
        raise ComplexResult(f"indicator value {value.real} is not near an integer")
    if r not in (-1, 0, 1):
        raise UnexpectedDimension(f"indicator {r} outside {{-1, 0, +1}}")
    return r


def canonical_g(A: FDStarAlgebra, S: AntiAlgebraMap,
                irreps: list[Representation]) -> DualStructureData:
    """The distinguished positive group-like-style element g for S.

    Per irreducible X: the twisted intertwiner space
    {t : t rho(a) = rho(S^2(a)) t} is one-dimensional; its generator is
    phase-fixed to be positive in the invariant metric and rescaled so
    tr(g_X) = tr(g_X^{-1}).  The blocks are then glued into a single
    algebra element.
    """
    S2 = S.squared()
    blocks = []
    for V in irreps:
        rho_s2 = np.einsum("ji,jab->iab", S2, V.rho)
        hom = intertwiners(V.rho, rho_s2, A.tol)
        if len(hom) == 0:
            raise NoTwistedMap(
                f"no twisted intertwiner for a {V.dim}-dim irreducible")
        if len(hom) > 1:
            raise InternalConsistency("twisted intertwiner space has dim > 1")
        gt = hom[0]
        M = V.gram @ gt
        phase = np.trace(M)
        if abs(phase) < A.tol.eps_rank:
            raise BadDualStructure("twisted intertwiner has trace zero in "
                                   "the invariant metric")
        gt = gt * (np.conj(phase) / abs(phase))
        M = V.gram @ gt
        M = (M + dagger(M)) / 2.0
        vals = scipy.linalg.eigh(M, V.gram, eigvals_only=True)
        if vals.min() <= A.tol.eps_eig * max(1.0, vals.max()):
            raise BadDualStructure(
                "twisted intertwiner is not positive in the invariant metric")
        gt = np.linalg.inv(V.gram) @ M
        scale = np.sqrt(np.trace(np.linalg.inv(gt)).real / np.trace(gt).real)
        blocks.append(scale * gt)
    # glue: one g in A with rho_X(g) = g_X for every X
    rows, rhs = [], []
    for V, gX in zip(irreps, blocks):
        rows.append(V.rho.reshape(A.dim, V.dim * V.dim).T)
        rhs.append(gX.reshape(-1))
    M = np.vstack(rows)
    b = np.concatenate(rhs)
    g, *_ = np.linalg.lstsq(M, b, rcond=None)
    resid = np.abs(M @ g - b).max(initial=0.0)
    if resid > A.tol.eps_eig * 100 * max(1.0, np.abs(b).max(initial=0.0)):
        raise InternalConsistency(
            f"block element does not glue, residual {resid:.3e}")
    return DualStructureData.validated(A, S, g)


def formula_element(A: FDStarAlgebra, S: AntiAlgebraMap, g: np.ndarray,
                    E: SeparabilityIdempotent) -> np.ndarray:
    """z = sum_m S(x_m) g y_m over the separability pairs, so that
    nu(V) = chi_V(z) for every V."""
    n = A.dim
    X = np.array([x for x, _ in E.pairs], dtype=complex).reshape(-1, n).T
    Y = np.array([y for _, y in E.pairs], dtype=complex).reshape(-1, n).T
    U = A.right_mult(g) @ S.matrix @ X          # columns S(x_m) g
    return (U @ Y.T).reshape(-1) @ A.structure.reshape(n * n, n)


def _nu_formula(V: Representation, z: np.ndarray) -> tuple[int, complex]:
    total = V.char_value(z)
    return _round_indicator(total, V.algebra.tol.eps_round), total


def fs_indicator_formula(V: Representation, S: AntiAlgebraMap, g: np.ndarray,
                         E: SeparabilityIdempotent) -> tuple[int, complex]:
    """nu(V) = sum_m chi_V(S(x_m) g y_m) over the separability pairs.

    Returns (rounded indicator, raw value).
    """
    return _nu_formula(V, formula_element(V.algebra, S, g, E))


def fs_indicator_trace(V: Representation, S: AntiAlgebraMap,
                       g: np.ndarray) -> int:
    """nu(V) as the trace of the involution F -> F^T rho(g) on Hom(V, D(V))."""
    A = V.algebra
    D = dual_representation(V, S, g)
    hom = intertwiners(V.rho, D.rho, A.tol)
    if not hom:
        return 0
    rho_g = V.apply(g)
    basis = np.stack([F.reshape(-1) for F in hom], axis=1)
    images = np.stack([(F.T @ rho_g).reshape(-1) for F in hom], axis=1)
    T, res, *_ = np.linalg.lstsq(basis, images, rcond=None)
    if res.size and res.max() > A.tol.eps_eig * 100:
        raise InternalConsistency("involution does not preserve Hom(V, D(V))")
    if np.abs(T @ T - np.eye(len(hom))).max() > A.tol.eps_round * 10:
        raise InternalConsistency("duality map on Hom(V, D(V)) does not square "
                                  "to the identity")
    return _round_indicator(complex(np.trace(T)), A.tol.eps_round)


def _antilinear_self_intertwiners(V: Representation,
                                  R: RealForm) -> list[np.ndarray]:
    """Basis of {F : F conj(rho(a)) = rho(abar) F for all a}."""
    A = V.algebra
    d = V.dim
    rho_bar = np.einsum("ji,jab->iab", R.conj_matrix, V.rho)
    eye = np.eye(d)
    system = kron_system(eye, np.conj(V.rho).transpose(0, 2, 1), rho_bar, eye)
    ker = nullspace(system, A.tol)
    return [ker[:, j].reshape(d, d) for j in range(ker.shape[1])]


@dataclass
class SigmaResult:
    sigma: int
    alpha: float | None
    j_matrix: np.ndarray | None
    witness: np.ndarray | None   # real-structure basis when sigma = +1


def classify_sigma(V: Representation, R: RealForm) -> SigmaResult:
    """Classification of an irreducible V via an antilinear self-intertwiner.

    An intertwiner F for the conjugation satisfies F conj(F) = alpha I with
    alpha real; sigma is its sign, and j = |alpha|^{-1/2} F squares to
    sigma id as an antilinear map.  No intertwiner means complex type.
    """
    A = V.algebra
    d = V.dim
    hom = _antilinear_self_intertwiners(V, R)
    if not hom:
        return SigmaResult(0, None, None, None)
    if len(hom) > 1:
        raise UnexpectedDimension(
            "antilinear self-intertwiner space has dim > 1; "
            "representation is not irreducible")
    F = hom[0]
    FFbar = F @ np.conj(F)
    alpha = complex(np.trace(FFbar)) / d
    if abs(alpha.imag) > A.tol.eps_round * (1 + abs(alpha)):
        raise InconsistentAlpha(f"F conj(F) has non-real trace {alpha}")
    alpha = alpha.real
    if np.abs(FFbar - alpha * np.eye(d)).max() > A.tol.eps_round * (1 + abs(alpha)):
        raise InconsistentAlpha("F conj(F) is not a scalar matrix")
    if abs(alpha) < A.tol.eps_rank:
        raise InconsistentAlpha("F conj(F) vanishes for a nonzero intertwiner")
    sigma = 1 if alpha > 0 else -1
    j = F / np.sqrt(abs(alpha))
    witness = None
    if sigma == 1:
        W = fixed_space_of_antilinear(j, A.tol)
        if W.shape[1] != d:
            raise InternalConsistency("fixed space of j has the wrong dimension")
        witness = W
        Winv = np.linalg.inv(W)
        for k in range(R.real_basis.shape[1]):
            m = Winv @ V.apply(R.real_basis[:, k]) @ W
            if np.abs(m.imag).max() > A.tol.eps_round * (1 + np.abs(m).max()):
                raise InternalConsistency(
                    "real form does not act by real matrices in the j-fixed basis")
    else:
        if np.abs(j @ np.conj(j) + np.eye(d)).max() > A.tol.eps_round * 10:
            raise InternalConsistency("j conj(j) != -I for sigma = -1")
    return SigmaResult(sigma, float(alpha), j, witness)


def endo_real_dimension(V: Representation, R: RealForm) -> int:
    """Real dimension of the commutant of the real form acting on V viewed
    as a real vector space: 2 for complex type, 4 for real or quaternionic."""
    lin = intertwiners(V.rho, V.rho, V.algebra.tol)
    anti = _antilinear_self_intertwiners(V, R)
    return 2 * len(lin) + 2 * len(anti)


@dataclass
class IndicatorRow:
    index: int
    dim: int
    multiplicity: int
    nu_formula: int
    nu_formula_raw: complex
    nu_trace: int
    sigma: int
    endo_real_dim: int

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "dim": self.dim,
            "multiplicity": self.multiplicity,
            "nu_formula": self.nu_formula,
            "nu_formula_raw": [self.nu_formula_raw.real, self.nu_formula_raw.imag],
            "nu_trace": self.nu_trace,
            "sigma": self.sigma,
            "endo_real_dim": self.endo_real_dim,
            "type": {1: "real", 0: "complex", -1: "quaternionic"}[self.sigma],
        }


@dataclass
class IndicatorReport:
    algebra_dim: int
    rows: list[IndicatorRow]

    def as_dict(self) -> dict:
        return {"algebra_dim": self.algebra_dim,
                "irreps": [r.as_dict() for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["index", "dim", "multiplicity", "nu_formula", "nu_trace",
                    "sigma", "endo_real_dim", "type"])
        for r in self.rows:
            d = r.as_dict()
            w.writerow([d["index"], d["dim"], d["multiplicity"],
                        d["nu_formula"], d["nu_trace"], d["sigma"],
                        d["endo_real_dim"], d["type"]])
        return buf.getvalue()


def full_report(A: FDStarAlgebra, dual: DualStructureData,
                parts: list[tuple[Representation, int]],
                E: SeparabilityIdempotent) -> IndicatorReport:
    """Indicators and classification for each irreducible, with the
    agreement sigma = nu enforced."""
    R = real_form_from_S(A, dual.S)
    z = formula_element(A, dual.S, dual.g, E)
    rows = []
    for idx, (V, mult) in enumerate(parts):
        nu_f, raw = _nu_formula(V, z)
        nu_t = fs_indicator_trace(V, dual.S, dual.g)
        sig = classify_sigma(V, R)
        endo = endo_real_dimension(V, R)
        if nu_f != nu_t:
            raise AgreementFailure(
                f"irrep {idx}: formula indicator {nu_f} != trace indicator {nu_t}")
        if sig.sigma != nu_f:
            raise AgreementFailure(
                f"irrep {idx}: sigma {sig.sigma} != indicator {nu_f}")
        rows.append(IndicatorRow(idx, V.dim, mult, nu_f, raw, nu_t,
                                 sig.sigma, endo))
    return IndicatorReport(A.dim, rows)
