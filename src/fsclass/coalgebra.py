"""Finite-dimensional *-coalgebras and corepresentations.

Everything is computed through the dual algebra: a coalgebra is stored by the
transposed structure tensors, coreps become modules over the dual, and the
canonical functional gamma is the distinguished element of the dual algebra
read back as a functional.  There is no independent corep decomposition
engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      SeparabilityIdempotent, associator_residual, dense_dim)
from .constructors import WeakHopfData
from .errors import (AxiomViolation, BadVarsigma, InternalConsistency,
                     NotAntiMap, NotCompact, NotHopf, NotStarRep, require)
from .indicators import _real_indicator, canonical_g
from .linalg import DEFAULT_TOL, Tolerance, dagger
from .reps import (Representation, decompose, hom_residual, intertwiners,
                   regular_representation)

Parts = list[tuple[Representation, int]]


class FDStarCoalgebra:
    """Coalgebra with an antilinear co-involution.  Delta is an n^2 x n
    matrix; column i is vec(Delta(e_i)) with index (j, k) -> j*n + k.
    The star acts by c* = star_matrix @ conj(c)."""

    algebra: FDStarAlgebra | None = None   # dualize_co(self), once built

    def __init__(self, Delta: np.ndarray, counit: np.ndarray,
                 star: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        self.counit = np.asarray(counit, dtype=complex)
        self.dim = n = dense_dim(self.counit.shape[0])
        self.Delta = np.asarray(Delta, dtype=complex).reshape(n * n, n)
        self.star_matrix = np.asarray(star, dtype=complex).reshape(n, n)
        self.tol = tol
        self._validate()

    def delta_tensor(self) -> np.ndarray:
        n = self.dim
        return self.Delta.T.reshape(n, n, n)  # Dt[i, j, k] coeff of e_j (x) e_k

    def star(self, c: np.ndarray) -> np.ndarray:
        return self.star_matrix @ np.conj(c)

    def _coassociativity_residual(self) -> float:
        # coassociative iff the dual (convolution) product is associative
        return associator_residual(self.Delta.reshape((self.dim,) * 3))[0]

    def _star_reversal_residual(self) -> float:
        # Delta(c*) = (c_(2))* (x) (c_(1))* on basis elements
        st, Dt = self.star_matrix, self.delta_tensor()
        lhs = np.tensordot(st, Dt, axes=(0, 0))
        rhs = st @ np.conj(Dt).transpose(0, 2, 1) @ st.T
        return float(np.abs(lhs - rhs).max(initial=0.0))

    def _validate(self):
        n, Dt = self.dim, self.delta_tensor()
        eps = self.tol.eps_eig * max(1, n) * max(
            1.0, float(np.abs(Dt).max(initial=0.0))) ** 2
        require(AxiomViolation, "comultiplication is not coassociative",
                self._coassociativity_residual(), eps)
        eye, e = np.eye(n), self.counit  # (e (x) id) Delta, (id (x) e) Delta
        require(AxiomViolation, "counit law fails", np.maximum(
            np.abs(e @ self.Delta.reshape(n, n * n) - eye.ravel()).max(),
            np.abs(e @ self.Delta.reshape(n, n, n) - eye).max()), eps)
        st = self.star_matrix
        require(AxiomViolation, "coalgebra star is not involutive",
                np.abs(st @ np.conj(st) - eye).max(), eps)
        require(AxiomViolation, "star does not reverse the comultiplication",
                self._star_reversal_residual(), eps)


class _DualCoalgebra(FDStarCoalgebra):
    """The coalgebra dualize(A), which keeps A."""

    def __init__(self, A: FDStarAlgebra):
        self.algebra, n = A, A.dim
        super().__init__(A.structure.reshape(n * n, n), A.unit,
                         dagger(A.star_matrix), A.tol)

    def _coassociativity_residual(self) -> float:
        return self.algebra.associativity_residual

    def _star_reversal_residual(self) -> float:
        return self.algebra.star_reversal_residual


def dualize(A: FDStarAlgebra) -> FDStarCoalgebra:
    """The dual coalgebra on the same basis: comultiplication transposes the
    product, counit is the unit, star comes from <a*, c> = conj<a, c*>.
    Delta.reshape(n, n, n) is A.structure, so the coassociativity residual
    is A's associativity residual, compared with the coalgebra threshold.
    Likewise the star-reversal residual: with Dt[i, j, k] = c[j, k, i] and
    star dagger(sigma), |Delta(e_a*) - (e_a(2))* (x) (e_a(1))*| at (j, k)
    is |((e_j e_k)* - e_k* e_j*)_a| entry for entry, so its maximum is A's
    `star_reversal_residual`."""
    return _DualCoalgebra(A)


def dualize_co(C: FDStarCoalgebra) -> FDStarAlgebra:
    """The dual algebra: convolution product, counit as unit.  Built once
    per coalgebra and kept as C.algebra, so the round trip with dualize is
    the identity on the nose: dualize_co(dualize(A)) is A."""
    if C.algebra is None:
        C.algebra = FDStarAlgebra(C.Delta.reshape((C.dim,) * 3), C.counit,
                                  dagger(C.star_matrix), C.tol)
    return C.algebra


class Corepresentation:
    """Matrix corepresentation: coeff[i, j] in C^n are the matrix elements
    c_{ij}, with Delta(c_ij) = sum_k c_ik (x) c_kj, entry for entry the
    `hom_residual` of the dual module over Delta.dot, and eps(c_ij) = d_ij."""

    def __init__(self, C: FDStarCoalgebra, coeff: np.ndarray,
                 check: bool = True):
        self.coalgebra = C
        self.coeff = np.asarray(coeff, dtype=complex)
        self.dim = self.coeff.shape[0]
        if check:
            self._validate()

    def character(self) -> np.ndarray:
        """t_V = sum_i c_ii as an element of the coalgebra."""
        return np.einsum("iim->m", self.coeff)

    def dual_module_matrices(self) -> np.ndarray:
        """rho(e^m)[i, j] = <e^m, c_ij>: the module over the dual algebra."""
        return np.ascontiguousarray(self.coeff.transpose(2, 0, 1))

    def _validate(self):
        C, d = self.coalgebra, self.dim
        if self.coeff.shape != (d, d, C.dim):
            raise AxiomViolation("coefficients must have shape (d, d, dim_C)")
        eps = C.tol.eps_eig * max(1, d) * max(
            1.0, float(np.abs(self.coeff).max(initial=0.0))) ** 2
        require(AxiomViolation, "Delta(c_ij) != sum_k c_ik (x) c_kj",
                hom_residual(self.dual_module_matrices(), C.Delta.dot), eps)
        require(AxiomViolation, "eps(c_ij) != delta_ij",
                np.abs(self.coeff @ C.counit - np.eye(d)).max(), eps)


@dataclass
class CoseparabilityIdempotent:
    """Bilinear form E[i, j] = E(e_i, e_j); its counit and centrality residuals
    are the `residuals` of E as a `SeparabilityIdempotent` of dualize_co(C)."""

    coalgebra: FDStarCoalgebra
    matrix: np.ndarray

    def verify(self) -> None:
        C, E, B = self.coalgebra, self.matrix, dualize_co(self.coalgebra)
        eps = C.tol.eps_eig * 100 * max(1.0, float(np.abs(E).max(initial=0.0)))
        kept = vars(B).get("separability_idempotent")   # the kept E, if built
        sep = kept if kept and kept.tensor is E else SeparabilityIdempotent(B, E)
        unit_gap, central = sep.residuals
        require(AxiomViolation, "E(c_(1), c_(2)) != eps(c)", unit_gap, eps)
        require(AxiomViolation, "coseparability centrality identity fails",
                central.max(initial=0.0), eps)
        st = C.star_matrix
        sym = st.T @ E @ st   # entry (i, j) = E(e_i*, e_j*)
        require(AxiomViolation, "E(c*, d*) != conj(E(d, c))",
                np.abs(sym - np.conj(E).T).max(initial=0.0), eps)
        Q = st.T @ E     # Q[i, j] = E(e_i*, e_j), Hermitian for the form above
        Q = (Q + dagger(Q)) / 2.0
        # smallest eigenvalue > eps_eig * max(1, max |Q|)
        require(AxiomViolation, "compactness form E(c*, c) is not positive",
                -np.linalg.eigvalsh(Q).min(), -np.nextafter(
                    C.tol.eps_eig * max(1.0, np.abs(Q).max()), np.inf))


@dataclass
class CompactDecomposition:
    blocks: list[Corepresentation]
    E: CoseparabilityIdempotent
    irreps: Parts   # of dualize_co(E.coalgebra), unitarized


def _dual_parts(C: FDStarCoalgebra, parts: Parts | None, seed: int) -> Parts:
    """parts, a decomposition of the regular representation of
    dualize_co(C) itself (A when C = dualize(A)), or one made with seed."""
    B = dualize_co(C)
    if parts is None:
        return decompose(regular_representation(B), seed=seed)
    if parts[0][0].algebra is not B:
        raise AxiomViolation("parts do not decompose the dual algebra of C")
    return parts


def compact_decompose(C: FDStarCoalgebra, seed: int = 0,
                      parts: Parts | None = None) -> CompactDecomposition:
    """Matrix-coalgebra block decomposition of a compact *-coalgebra, with
    the coseparability idempotent E(e^(a)_ij, e^(b)_kl) = d_ab d_il d_jk / n_a:
    the kept separability idempotent of dualize_co(C), A for dualize(A).

    parts is as for `_dual_parts`.  Each block is checked as a
    corepresentation of C (`hom_residual` over C.Delta.dot), and rho_u for
    the star alone; E.verify() reads the residuals of B's kept E."""
    B = dualize_co(C)
    if not B.trace_form[1]:
        raise NotCompact("dual algebra admits no C*-norm")
    parts = _dual_parts(C, parts, seed)
    blocks, unitarized = [], []
    for V, mult in parts:
        # unitarize: rho' = Q^dagger H rho Q in V's orthonormal basis Q
        Q = V.orthonormal_basis
        rho_u = dagger(Q) @ V.gram @ V.rho @ Q
        W = Representation(B, rho_u, None, check=False)
        W._validate(hom=False)
        unitarized.append((W, mult))
        blocks.append(Corepresentation(C, rho_u.transpose(1, 2, 0).copy()))
    if sum(W.dim ** 2 for W, _ in unitarized) != C.dim:
        raise InternalConsistency("matrix elements do not span the dual")
    E = CoseparabilityIdempotent(C, B.separability_idempotent.tensor)
    E.verify()
    return CompactDecomposition(blocks, E, unitarized)


def gamma(C: FDStarCoalgebra, varsigma: np.ndarray,
          seed: int = 0) -> np.ndarray:
    """The canonical positive functional gamma attached to an anti-coalgebra
    map: the distinguished element of the dual algebra for S(a) = a o
    varsigma, returned as a vector of values on the basis."""
    return gamma_full(C, varsigma, seed)[0]


def gamma_full(C: FDStarCoalgebra, varsigma: np.ndarray, seed: int = 0,
               parts: Parts | None = None
               ) -> tuple[np.ndarray, DualStructureData, FDStarAlgebra]:
    """gamma, its (S, g) and dualize_co(C); parts as for `_dual_parts`."""
    B = dualize_co(C)
    try:
        S = AntiAlgebraMap.validated(B, np.asarray(varsigma, dtype=complex).T)
    except NotAntiMap as exc:
        raise BadVarsigma(str(exc)) from exc
    parts = _dual_parts(C, parts, seed)
    dual = canonical_g(B, S, [V for V, _ in parts])
    return dual.g, dual, B


def corep_indicator(C: FDStarCoalgebra, V: Corepresentation,
                    varsigma: np.ndarray, gamma_vec: np.ndarray,
                    E: CoseparabilityIdempotent) -> float:
    """nu(V) = gamma(t_(2)) E(varsigma(t_(1)), t_(3)) for t the character
    of an irreducible corepresentation: `corep_indicators` of V alone."""
    return corep_indicators(C, [V], varsigma, gamma_vec, E)[0]


def corep_indicators(C: FDStarCoalgebra, blocks: list[Corepresentation],
                     varsigma: np.ndarray, gamma_vec: np.ndarray,
                     E: CoseparabilityIdempotent) -> list[float]:
    """`corep_indicator` of each block, in order: nu(V) = t . w for the
    character t, w[i] = sum_{m,c} Dt[i, m, c] Y[m, c],
    Y[m, c] = sum_{a,b} Dt[m, a, b] gamma_b (varsigma^T E)[a, c],
    Dt = C.delta_tensor(): w is formed once, by two n^3 contractions on
    the contiguous C.Delta, and Delta^2(t) is never formed."""
    n = C.dim
    vsE = np.asarray(varsigma, dtype=complex).T @ E.matrix
    Y = (np.asarray(gamma_vec) @ C.Delta.reshape(n, n, n)).T @ vsE
    t = np.array([V.character() for V in blocks])
    return [float(v) for v in
            _real_indicator(t @ (Y.ravel() @ C.Delta), C.tol.eps_round)]


def cqg_indicator(H: WeakHopfData, dec: CompactDecomposition) -> list[float]:
    """nu(V) = (gamma(t)/eps(t)) h(t_(1) t_(2)) for each block V, character
    t, of dec, the compact decomposition of the coalgebra of the Hopf
    *-algebra H with star c -> S(c)*; h is the Haar integral of the dual
    Hopf algebra (dualize_co(C), dualize(A)).  h(t_(1) t_(2)) = t . w."""
    A, C = H.algebra, dec.E.coalgebra
    require(NotHopf, "Delta(1) != 1 (x) 1", np.abs(
        H.delta_of(A.unit) - np.outer(A.unit, A.unit)).max(), A.tol.eps_eig)
    if not (np.array_equal(C.Delta, H.Delta) and np.array_equal(C.counit, H.counit)
            and np.allclose(C.star_matrix, A.star_matrix @ np.conj(H.S.matrix))):
        raise AxiomViolation("dec is not of H's coalgebra with star S(c)*")
    gamma_vec, dual, B = gamma_full(C, H.S.matrix, parts=dec.irreps)
    h = WeakHopfData(B, dualize(A).Delta, A.unit, dual.S).haar_integral()
    w = A.of_products(h).ravel() @ H.Delta
    t = np.array([V.character() for V in dec.blocks])
    vals = (t @ gamma_vec) / (t @ H.counit) * (t @ w)
    return [float(v) for v in _real_indicator(vals, A.tol.eps_round)]


def phi_module(C: FDStarCoalgebra, V: Corepresentation) -> Representation:
    """Phi(V): the module over the dual algebra, with an invariant gram
    solved for (unique up to scale for irreducible V)."""
    B = dualize_co(C)
    rho = V.dual_module_matrices()
    H = invariant_gram(B, rho)
    return Representation(B, rho, H)


def invariant_gram(A: FDStarAlgebra, rho: np.ndarray) -> np.ndarray:
    """Hermitian positive H with rho(a)^dagger H = H rho(a*); requires the
    solution space to contain a definite element (dim 1 when irreducible)."""
    rho_star = np.tensordot(A.star_matrix, rho, axes=(0, 0))
    for K in intertwiners(rho_star, np.conj(rho).transpose(0, 2, 1), A.tol):
        H = (K + dagger(K)) / 2.0
        vals = np.linalg.eigvalsh(H)
        if vals.min() > A.tol.eps_eig:
            return H
        if vals.max() < -A.tol.eps_eig:
            return -H
        Hi = (K - dagger(K)) / 2j
        vals = np.linalg.eigvalsh(Hi)
        if vals.min() > A.tol.eps_eig:
            return Hi
        if vals.max() < -A.tol.eps_eig:
            return -Hi
    raise NotStarRep("no positive invariant gram found")
