"""Frobenius-Schur indicators and real/complex/quaternionic classification
for *-representations of a C*-able algebra equipped with a dual-structure
pair (S, g).

Two independent indicator computations are provided: a closed formula over
a separability idempotent, and the trace of the canonical involution on the
morphism space Hom(V, D(V)).  The classification sigma comes from an
antilinear self-intertwiner, the Riesz image of the same Hom(V, D(V)), and
must agree with the indicator.  All three run on one stack per dimension.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      RealForm, SeparabilityIdempotent, real_form_from_S,
                      transpose_times)
from .errors import (AgreementFailure, BadDualStructure, ComplexResult,
                     InconsistentAlpha, InternalConsistency, NoTwistedMap,
                     UnexpectedDimension, require)
from .linalg import fixed_spaces_of_antilinear
from .reps import Representation, hom_spaces


def _real_indicator(raw, eps_round: float, names=None):
    """Re raw, for raw values of any shape; `ComplexResult` when some
    |Im raw| > eps_round.  The realness half of `_round_indicator`, for the
    indicators that return raw reals."""
    require(ComplexResult, "indicator value is not real", np.abs(np.imag(raw)),
            eps_round, names)
    return np.real(raw)


def _round_indicator(raw, eps_round: float, names=None):
    """The one rule that turns a raw indicator value into nu, entry by
    entry for an array of them: nu = round(Re raw) when |raw - nu| <=
    eps_round, else `ComplexResult`; `UnexpectedDimension` when nu is not
    -1, 0 or +1.  An int, or a list of ints (names: `require`'s)."""
    nu = np.rint(np.asarray(_real_indicator(raw, eps_round, names)))
    require(ComplexResult, "indicator value is not near an integer",
            abs(raw - nu), eps_round, names)
    require(UnexpectedDimension, "indicator outside {{-1, 0, +1}}", abs(nu),
            1, names)
    return nu.astype(int).tolist()


def canonical_g(A: FDStarAlgebra, S: AntiAlgebraMap,
                irreps: list[Representation]) -> DualStructureData:
    """The distinguished positive group-like-style element g for S, from
    the complete set of irreducibles (sum of dim^2 = dim A), one stack per
    dimension (`_stacks`).  Per irreducible X, Hom(V, V o S^2) = {t : t
    rho(a) = rho(S^2(a)) t} is a line; its generator is phase-fixed to be
    positive in the invariant metric and rescaled so tr(g_X) =
    tr(g_X^{-1}).  The blocks glue exactly through the kept E = sum_m x_m
    (x) y_m: a = sum_m x_m tau(y_m a), tau = sum_X dim X chi_X, so g = E t
    for t[q] = sum_X dim X tr(rho_X(e_q) g_X), checked by rho_X(g) = g_X."""
    n, tol = A.dim, A.tol
    if (total := sum(V.dim ** 2 for V in irreps)) != n:
        raise InternalConsistency("irreducibles do not span A: sum of dim^2 "
                                  f"is {total}, not {n}")
    S2, stacks, t = S.squared(), [], np.zeros(n, dtype=complex)
    for at, names, rho, gram in _stacks(irreps):
        (_, m, d, _), flat = rho.shape, rho.reshape(n, -1)
        k, U = hom_spaces(A, rho, transpose_times(S2, flat).reshape(rho.shape),
                          names)
        if not k.all():
            raise NoTwistedMap(f"{names[k.argmin()]}no twisted intertwiner "
                               f"for a {d}-dim irreducible")
        if (k > 1).any():
            raise InternalConsistency(f"{names[k.argmax()]}twisted "
                                      "intertwiner space has dim > 1")
        gX = U[:, :, 0].reshape(m, d, d)
        phase = np.einsum("vaa->v", gram @ gX)
        require(BadDualStructure, "twisted intertwiner has trace zero in the "
                "invariant metric", -abs(phase), -tol.eps_rank, names)
        M = gram @ gX * (np.conj(phase) / abs(phase))[:, None, None]
        M = (M + M.conj().transpose(0, 2, 1)) / 2.0
        Q = np.stack([irreps[i].orthonormal_basis for i in at])
        vals = np.linalg.eigvalsh(Q.conj().transpose(0, 2, 1) @ M @ Q)
        require(BadDualStructure, "twisted intertwiner is not positive in the "
                "invariant metric", -vals.min(axis=1), -np.nextafter(
                    tol.eps_eig * np.maximum(1.0, vals.max(axis=1)), np.inf),
                names)
        gX = np.linalg.solve(gram, M)
        gX *= np.sqrt(np.einsum("vaa->v", np.linalg.inv(gX)).real
                      / np.einsum("vaa->v", gX).real)[:, None, None]
        t += d * (flat @ gX.transpose(0, 2, 1).reshape(-1))
        stacks.append((names, flat, gX))
    g = transpose_times(A.separability_idempotent.tensor.T, t)   # E t
    eps = tol.eps_eig * 100 * max([1.0] + [np.abs(b).max() for *_, b in stacks])
    for names, flat, gX in stacks:
        require(InternalConsistency, "block element does not glue", np.abs(
            (g @ flat).reshape(gX.shape) - gX).max(axis=(1, 2)), eps, names)
    return DualStructureData.validated(A, S, g)


def formula_element(A: FDStarAlgebra, S: np.ndarray, g: np.ndarray,
                    E: np.ndarray) -> np.ndarray:
    """z = m((R_g S (x) id) E) = sum_m S(x_m) g y_m for the matrix S of an
    anti-algebra map and the tensor E = sum_m x_m (x) y_m of a separability
    idempotent, so that nu(V) = chi_V(z) for every V.  Over a coalgebra's
    dual algebra it is the duality functional of `corep_indicators`.
    (R_g S E)^T = E^T S^T R_g^T: two gathers when S and E are monomial."""
    return A.multiply(transpose_times(E, transpose_times(
        S, A.right_mult(g).T)).T)


def _stacks(Vs: list[Representation]):
    """(at, names, rho, gram) per dimension d among the irreducibles Vs, in
    order of first appearance: at the positions in Vs of those of dim d,
    rho (n, m, d, d) and gram (m, d, d) theirs, stacked; names "irrep i: "
    for Vs[i], "" for a lone V."""
    for d in dict.fromkeys(V.dim for V in Vs):
        at = np.array([i for i, V in enumerate(Vs) if V.dim == d])
        yield (at, np.array([f"irrep {i}: " if len(Vs) > 1 else "" for i in at]),
               np.stack([Vs[i].rho for i in at], axis=1),
               np.stack([Vs[i].gram for i in at]))


def _stacked(A: FDStarAlgebra, S: np.ndarray, Vs: list[Representation],
             kernel) -> list:
    """kernel(names, rho, gram, F) per stack of `_stacks(Vs)`: with F a unit
    in Hom(V, D(V)) under S where that is a line, else F None
    (`dual_hom`).  Results by Vs."""
    out = {}
    for at, names, rho, gram in _stacks(Vs):
        line, F = dual_hom(A, S, rho, names)
        for part, F in ((line, F), (~line, None)):
            if part.any():
                out.update(zip(at[part], kernel(names[part], rho[:, part],
                                                gram[part], F)))
    return [out[i] for i in range(len(Vs))]


def _nu_formula(rho: np.ndarray, z: np.ndarray, eps_round, names) -> list:
    """(nu, raw) for each V of a stack: raw = chi_V(z), rounded."""
    raw = np.einsum("jvaa->vj", rho) @ z
    return list(zip(_round_indicator(raw, eps_round, names), raw.tolist()))


def fs_indicator_formula(V: Representation, S: AntiAlgebraMap, g: np.ndarray,
                         E: SeparabilityIdempotent) -> tuple[int, complex]:
    """nu(V) = sum_m chi_V(S(x_m) g y_m) for E = sum_m x_m (x) y_m.

    Returns (rounded indicator, raw value).
    """
    z = formula_element(V.algebra, S.matrix, g, E.tensor)
    return _nu_formula(V.rho[:, None], z, V.algebra.tol.eps_round, None)[0]


def dual_hom(A: FDStarAlgebra, S: np.ndarray, rho: np.ndarray,
             names) -> tuple[np.ndarray, np.ndarray | None]:
    """Hom(V, D(V)) = {F : F rho(a) = rho(S a)^T F}, S the matrix of an
    anti-algebra map, for a stack of irreducibles named by names: the mask
    where it is a line (elsewhere 0) and a unit F in each; rho_D is one
    product."""
    n, m, d, _ = rho.shape
    rho_d = transpose_times(S, rho.reshape(n, -1)).reshape(rho.shape)
    k, U = hom_spaces(A, rho, rho_d.transpose(0, 1, 3, 2), names)
    if (k > 1).any():
        raise UnexpectedDimension(f"{names[np.argmax(k > 1)]}Hom(V, D(V)) "
                                  "has dim > 1; V is not irreducible")
    return k == 1, None if U is None else U[k == 1, :, 0].reshape(-1, d, d)


def fs_indicator_trace(V: Representation, S: AntiAlgebraMap,
                       g: np.ndarray) -> int:
    """nu(V) as the trace of the involution F -> F^T rho(g) on Hom(V, D(V));
    `UnexpectedDimension` when that has dim > 1, as for no irreducible V."""
    return _stacked(V.algebra, S.matrix, [V], lambda names, rho, _, F:
                    _nu_trace(V.algebra, rho, names, g, F))[0]


def _nu_trace(A: FDStarAlgebra, rho: np.ndarray, names, g: np.ndarray,
              F: np.ndarray | None) -> list[int]:
    """`fs_indicator_trace` on a stack (`_stacked`): T, F^T rho(g) = T F."""
    if F is None:
        return [0] * len(names)
    image = F.transpose(0, 2, 1) @ (g @ rho.reshape(len(rho), -1)).reshape(
        F.shape)
    T = np.einsum("vab,vab->v", np.conj(F), image)   # F has unit norm
    require(InternalConsistency, "involution does not preserve Hom(V, D(V))",
            (np.abs(image - T[:, None, None] * F) ** 2).sum(axis=(1, 2)),
            A.tol.eps_eig * 100, names)
    require(InternalConsistency, "duality map on Hom(V, D(V)) does not square "
            "to the identity", abs(T * T - 1), A.tol.eps_round * 10, names)
    return _round_indicator(T, A.tol.eps_round, names)


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
    return classify_sigmas([V], R)[0]


def classify_sigmas(Vs: list[Representation], R: RealForm
                    ) -> list[SigmaResult]:
    """`classify_sigma` of each irreducible of Vs, stacked by dimension."""
    return _stacked(R.algebra, R.anti_matrix, Vs, lambda names, rho, gram, F:
                    _sigma(R, rho, gram, names, F))


def _sigma(R: RealForm, rho: np.ndarray, gram: np.ndarray, names,
           F: np.ndarray | None) -> list[SigmaResult]:
    """`classify_sigma` on a stack (`_stacked`) under R's S.  Conjugating
    F rho(a) = rho(S a)^T F with rho(b)^dagger = H rho(b*) H^{-1} gives
    H^{-1} conj(F) conj(rho(a)) = rho(abar) H^{-1} conj(F), abar = S(a)*:
    the antilinear self-intertwiners are the Riesz images H^{-1} conj(F)."""
    if F is None:
        return [SigmaResult(0, None, None, None)] * len(names)
    (n, _, d, _), tol, eye = rho.shape, R.algebra.tol, np.eye(rho.shape[-1])
    F = np.linalg.solve(gram, np.conj(F))
    F /= np.sqrt(np.einsum("vab,vab->v", F, np.conj(F)).real)[:, None, None]
    FFbar = F @ np.conj(F)   # F has unit norm, so alpha's scale is not H's
    # tr(F conj F) is real for any square F: its conjugate is tr(conj F F)
    alpha = np.einsum("vaa->v", FFbar).real / d
    require(InconsistentAlpha, "F conj(F) is not a scalar matrix",
            np.abs(FFbar - alpha[:, None, None] * eye).max(axis=(1, 2)),
            tol.eps_round * (1 + abs(alpha)), names)
    require(InconsistentAlpha, "F conj(F) vanishes for a nonzero intertwiner",
            -abs(alpha), -tol.eps_rank, names)
    j, real, witness = F / np.sqrt(abs(alpha))[:, None, None], alpha > 0, {}
    if real.any():
        dims, W = fixed_spaces_of_antilinear(j[real], tol)
        # the scalar check gives |j conj(j) - I| <= eps_round (1 + |alpha|) /
        # |alpha| (>= 2 eps_round); dims is read at eps_rank: not implied
        require(InternalConsistency, "fixed space of j has the wrong "
                "dimension", abs(dims - d), 0, names[real])
        # m[i] = W^-1 rho(e_i) W.  j conj(rho(a)) = rho(abar) j and j conj(W)
        # = W give m(abar) = conj(m(a)), so m is real on A0 exactly when
        # sum_k K[k, i] m[k] = conj(m[i]) for every basis element e_i
        r = len(W)   # m[i, v] = W_v^-1 rho_v(e_i) W_v, two batched GEMMs
        m = (np.linalg.inv(W) @ rho[:, real].transpose(1, 2, 0, 3).reshape(
            r, d, n * d)).reshape(r, d * n, d) @ W
        m = m.reshape(r, d, n, d).transpose(2, 0, 1, 3).reshape(n, r, d * d)
        gap = transpose_times(R.conj_matrix, m.reshape(n, -1)).reshape(m.shape)
        require(InternalConsistency, "real form does not act by real matrices "
                "in the j-fixed basis", np.abs(gap - np.conj(m)).max(2).T,
                tol.eps_round * (1 + np.abs(m).max(2).T), names[real])
        witness = dict(zip(np.flatnonzero(real), W))
    # implied by the scalar check, |j conj(j) + I| <= eps_round (1 + |alpha|)
    # / |alpha|, when |alpha| >= 1/9; |alpha| = 1/d for a unitary V (gram
    # I, as `decompose` builds), so for d <= 9
    require(InternalConsistency, "j conj(j) != -I for sigma = -1",
            np.abs(j[~real] @ np.conj(j[~real]) + eye).max(axis=(1, 2)),
            tol.eps_round * 10, names[~real])
    return [SigmaResult(1 if real[r] else -1, float(alpha[r]), j[r],
                        witness.get(r)) for r in range(len(names))]


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
    TYPES = {1: "real", 0: "complex", -1: "quaternionic"}   # by sigma

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
            "type": self.TYPES[self.sigma],
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
    agreement sigma = nu enforced, stacked by dimension: one Hom(V, D(V))
    solve per dimension feeds both the trace indicator and sigma.

    endo_real_dim is the real dimension of the commutant of the real form
    on V: the complex scalars (End_A(V) for an irreducible V) plus, when
    sigma != 0, the antilinear self-intertwiners, one more complex line."""
    R = real_form_from_S(A, dual.S)
    z = formula_element(A, dual.S.matrix, dual.g, E.tensor)
    cols = _stacked(A, R.anti_matrix, [V for V, _ in parts],
                    lambda names, rho, gram, F: zip(
                        _nu_formula(rho, z, A.tol.eps_round, names),
                        _nu_trace(A, rho, names, dual.g, F),
                        _sigma(R, rho, gram, names, F)))
    rows = []
    for idx, ((V, mult), ((nu_f, raw), nu_t, sig)) in enumerate(zip(parts, cols)):
        if nu_f != nu_t:
            raise AgreementFailure(
                f"irrep {idx}: formula indicator {nu_f} != trace indicator {nu_t}")
        if sig.sigma != nu_f:
            raise AgreementFailure(
                f"irrep {idx}: sigma {sig.sigma} != indicator {nu_f}")
        rows.append(IndicatorRow(idx, V.dim, mult, nu_f, raw, nu_t,
                                 sig.sigma, 4 if sig.sigma else 2))
    return IndicatorReport(A.dim, rows)
