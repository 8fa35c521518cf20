"""Frobenius-Schur indicators and real/complex/quaternionic classification
for *-representations of a C*-able algebra equipped with a dual-structure
pair (S, g).

Two independent indicator computations are provided: a closed formula over
a separability idempotent, and the trace of the canonical involution on the
morphism space Hom(V, D(V)).  The classification sigma comes from an
antilinear self-intertwiner, the Riesz image of the same Hom(V, D(V)), and
must agree with the indicator.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      RealForm, SeparabilityIdempotent, real_form_from_S)
from .errors import (AgreementFailure, BadDualStructure, ComplexResult,
                     InconsistentAlpha, InternalConsistency, NoTwistedMap,
                     UnexpectedDimension, require)
from .linalg import dagger, fixed_space_of_antilinear
from .reps import Representation, intertwiners


def _real_indicator(raw, eps_round: float):
    """Re raw, for raw values of any shape; `ComplexResult` when some
    |Im raw| > eps_round.  The realness half of `_round_indicator`, for the
    indicators that return raw reals."""
    require(ComplexResult, "indicator value is not real", np.abs(np.imag(raw)),
            eps_round)
    return np.real(raw)


def _round_indicator(raw: complex, eps_round: float) -> int:
    """The one rule that turns a raw indicator value into nu: nu =
    round(Re raw) when |raw - nu| <= eps_round, else `ComplexResult`;
    `UnexpectedDimension` when nu is not -1, 0 or +1."""
    nu = np.rint(_real_indicator(raw, eps_round))
    require(ComplexResult, "indicator value is not near an integer",
            abs(raw - nu), eps_round)
    if nu not in (-1, 0, 1):
        raise UnexpectedDimension(f"indicator {nu:.0f} outside {{-1, 0, +1}}")
    return int(nu)


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
        rho_s2 = np.tensordot(S2, V.rho, axes=(0, 0))
        hom = intertwiners(A, V.rho, rho_s2)
        if len(hom) == 0:
            raise NoTwistedMap(
                f"no twisted intertwiner for a {V.dim}-dim irreducible")
        if len(hom) > 1:
            raise InternalConsistency("twisted intertwiner space has dim > 1")
        gt = hom[0]
        M = V.gram @ gt
        phase = np.trace(M)
        require(BadDualStructure, "twisted intertwiner has trace zero in the "
                "invariant metric", -abs(phase), -A.tol.eps_rank)
        gt = gt * (np.conj(phase) / abs(phase))
        M = V.gram @ gt
        M = (M + dagger(M)) / 2.0
        Q = V.orthonormal_basis
        vals = np.linalg.eigvalsh(dagger(Q) @ M @ Q)
        require(BadDualStructure, "twisted intertwiner is not positive in the "
                "invariant metric", -vals.min(),
                -np.nextafter(A.tol.eps_eig * max(1.0, vals.max()), np.inf))
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
    require(InternalConsistency, "block element does not glue",
            np.abs(M @ g - b).max(initial=0.0),
            A.tol.eps_eig * 100 * max(1.0, np.abs(b).max(initial=0.0)))
    return DualStructureData.validated(A, S, g)


def formula_element(A: FDStarAlgebra, S: np.ndarray, g: np.ndarray,
                    E: np.ndarray) -> np.ndarray:
    """z = m((R_g S (x) id) E) = sum_m S(x_m) g y_m for the matrix S of an
    anti-algebra map and the tensor E = sum_m x_m (x) y_m of a separability
    idempotent, so that nu(V) = chi_V(z) for every V.  Over a coalgebra's
    dual algebra it is the duality functional of `corep_indicators`."""
    return A.multiply(A.right_mult(g) @ S @ E)


def _nu_formula(V: Representation, z: np.ndarray) -> tuple[int, complex]:
    total = V.char_value(z)
    return _round_indicator(total, V.algebra.tol.eps_round), total


def fs_indicator_formula(V: Representation, S: AntiAlgebraMap, g: np.ndarray,
                         E: SeparabilityIdempotent) -> tuple[int, complex]:
    """nu(V) = sum_m chi_V(S(x_m) g y_m) for E = sum_m x_m (x) y_m.

    Returns (rounded indicator, raw value).
    """
    return _nu_formula(V, formula_element(V.algebra, S.matrix, g, E.tensor))


def dual_hom(V: Representation, S: np.ndarray) -> list[np.ndarray]:
    """Basis of Hom(V, D(V)) = {F : F rho(a) = rho(S a)^T F} for the matrix
    S of an anti-algebra map, each of shape (d, d).  rho_D is one
    tensordot; D(V)'s gram is not needed here, so it is not built."""
    rho_d = np.tensordot(S, V.rho, axes=(0, 0)).transpose(0, 2, 1)
    return intertwiners(V.algebra, V.rho, rho_d)


def fs_indicator_trace(V: Representation, S: AntiAlgebraMap,
                       g: np.ndarray) -> int:
    """nu(V) as the trace of the involution F -> F^T rho(g) on Hom(V, D(V))."""
    return _nu_trace(V, dual_hom(V, S.matrix), g)


def _nu_trace(V: Representation, hom: list[np.ndarray], g: np.ndarray) -> int:
    """`fs_indicator_trace` on a basis hom of Hom(V, D(V))."""
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


@dataclass(eq=False)
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
    The intertwiners are read off Hom(V, D(V)) for S = `R.anti_matrix`.
    """
    return _sigma(V, R, dual_hom(V, R.anti_matrix))


def _sigma(V: Representation, R: RealForm,
           hom: list[np.ndarray]) -> SigmaResult:
    """`classify_sigma` on a basis hom of Hom(V, D(V)) for R's S.  By
    rho(b)^dagger = H rho(b*) H^{-1}, the conjugate of F rho(a) = rho(S a)^T F
    is H^{-1} conj(F) conj(rho(a)) = rho(abar) H^{-1} conj(F), abar = S(a)*:
    the antilinear self-intertwiners are the Riesz images H^{-1} conj(F)."""
    A = V.algebra
    d = V.dim
    if not hom:
        return SigmaResult(0, None, None, None)
    if len(hom) > 1:
        raise UnexpectedDimension(
            "antilinear self-intertwiner space has dim > 1; "
            "representation is not irreducible")
    F = np.linalg.solve(V.gram, np.conj(hom[0]))
    F = F / np.linalg.norm(F)   # unit norm, so alpha's scale is not H's
    FFbar = F @ np.conj(F)
    # tr(F conj F) is real for any square F: its conjugate is tr(conj F F)
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
        # m[i] = W^-1 rho(e_i) W.  j conj(rho(a)) = rho(abar) j and
        # j conj(W) = W give m(abar) = conj(m(a)), so m is real on A0 exactly
        # when sum_k K[k, i] m[k] = conj(m[i]) for every basis element e_i
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
    agreement sigma = nu enforced.

    endo_real_dim is the real dimension of the commutant of the real form
    on V: the complex scalars (End_A(V) for an irreducible V) plus, when
    sigma != 0, the antilinear self-intertwiners, one more complex line."""
    R = real_form_from_S(A, dual.S)
    z = formula_element(A, dual.S.matrix, dual.g, E.tensor)
    rows = []
    for idx, (V, mult) in enumerate(parts):
        nu_f, raw = _nu_formula(V, z)
        hom = dual_hom(V, dual.S.matrix)
        nu_t = _nu_trace(V, hom, dual.g)
        sig = _sigma(V, R, hom)
        if nu_f != nu_t:
            raise AgreementFailure(
                f"irrep {idx}: formula indicator {nu_f} != trace indicator {nu_t}")
        if sig.sigma != nu_f:
            raise AgreementFailure(
                f"irrep {idx}: sigma {sig.sigma} != indicator {nu_f}")
        rows.append(IndicatorRow(idx, V.dim, mult, nu_f, raw, nu_t,
                                 sig.sigma, 4 if sig.sigma else 2))
    return IndicatorReport(A.dim, rows)
