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
                      associator, check_cstar)
from .constructors import WeakHopfData
from .errors import (AxiomViolation, BadVarsigma, InternalConsistency,
                     NotAntiMap, NotCompact, NotHopf, NotStarRep,
                     UnexpectedDimension)
from .linalg import DEFAULT_TOL, Tolerance, dagger, kron_system, nullspace
from .reps import Representation, decompose, regular_representation


class FDStarCoalgebra:
    """Coalgebra with an antilinear co-involution.  Delta is an n^2 x n
    matrix; column i is vec(Delta(e_i)) with index (j, k) -> j*n + k.
    The star acts by c* = star_matrix @ conj(c)."""

    def __init__(self, Delta: np.ndarray, counit: np.ndarray,
                 star: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        self.counit = np.asarray(counit, dtype=complex)
        n = self.counit.shape[0]
        self.dim = n
        self.Delta = np.asarray(Delta, dtype=complex).reshape(n * n, n)
        self.star_matrix = np.asarray(star, dtype=complex).reshape(n, n)
        self.tol = tol
        self._validate()

    def delta_tensor(self) -> np.ndarray:
        n = self.dim
        return self.Delta.T.reshape(n, n, n)  # Dt[i, j, k] coeff of e_j (x) e_k

    def delta_of(self, c: np.ndarray) -> np.ndarray:
        n = self.dim
        return (self.Delta @ c).reshape(n, n)

    def star(self, c: np.ndarray) -> np.ndarray:
        return self.star_matrix @ np.conj(c)

    def _validate(self):
        n, Dt = self.dim, self.delta_tensor()
        eps = self.tol.eps_eig * max(1, n) * max(
            1.0, float(np.abs(Dt).max(initial=0.0))) ** 2
        # coassociative iff the dual (convolution) product is associative
        if np.abs(associator(self.Delta.reshape(n, n, n))).max(initial=0.0) > eps:
            raise AxiomViolation("comultiplication is not coassociative")
        eye = np.eye(n)
        if np.abs(np.einsum("j,ijk->ik", self.counit, Dt) - eye).max() > eps or \
                np.abs(np.einsum("k,ijk->ij", self.counit, Dt) - eye).max() > eps:
            raise AxiomViolation("counit law fails")
        st = self.star_matrix
        if np.abs(st @ np.conj(st) - eye).max() > eps:
            raise AxiomViolation("coalgebra star is not involutive")
        # Delta(c*) = (c_(2))* (x) (c_(1))* on basis elements
        lhs = np.tensordot(st, Dt, axes=(0, 0))
        rhs = st @ np.conj(Dt).transpose(0, 2, 1) @ st.T
        if np.abs(lhs - rhs).max(initial=0.0) > eps:
            raise AxiomViolation("star does not reverse the comultiplication")


def dualize(A: FDStarAlgebra) -> FDStarCoalgebra:
    """The dual coalgebra on the same basis: comultiplication transposes the
    product, counit is the unit, star comes from <a*, c> = conj<a, c*>."""
    n = A.dim
    Delta = A.structure.reshape(n * n, n)
    return FDStarCoalgebra(Delta, A.unit, dagger(A.star_matrix), A.tol)


def dualize_co(C: FDStarCoalgebra) -> FDStarAlgebra:
    """The dual algebra: convolution product, counit as unit.  Round trip
    with dualize is the identity on the nose."""
    n = C.dim
    structure = C.Delta.reshape(n, n, n)
    return FDStarAlgebra(structure, C.counit, dagger(C.star_matrix), C.tol)


class Corepresentation:
    """Matrix corepresentation: coeff[i, j] in C^n are the matrix elements
    c_{ij}, with Delta(c_ij) = sum_k c_ik (x) c_kj and eps(c_ij) = d_ij."""

    def __init__(self, C: FDStarCoalgebra, coeff: np.ndarray,
                 gram: np.ndarray | None = None, check: bool = True):
        self.coalgebra = C
        self.coeff = np.asarray(coeff, dtype=complex)
        self.dim = self.coeff.shape[0]
        self.gram = gram
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
        Dt = C.delta_tensor()
        eps = C.tol.eps_eig * max(1, d) * max(
            1.0, float(np.abs(self.coeff).max(initial=0.0))) ** 2
        lhs = np.einsum("ijm,mab->ijab", self.coeff, Dt)
        rhs = np.einsum("ika,kjb->ijab", self.coeff, self.coeff)
        if np.abs(lhs - rhs).max(initial=0.0) > eps:
            raise AxiomViolation("Delta(c_ij) != sum_k c_ik (x) c_kj")
        if np.abs(self.coeff @ C.counit - np.eye(d)).max() > eps:
            raise AxiomViolation("eps(c_ij) != delta_ij")


@dataclass
class CoseparabilityIdempotent:
    """Bilinear form E on the coalgebra, E[i, j] = E(e_i, e_j)."""

    coalgebra: FDStarCoalgebra
    matrix: np.ndarray

    def value(self, c: np.ndarray, d: np.ndarray) -> complex:
        return complex(c @ self.matrix @ d)

    def verify(self) -> None:
        C, E = self.coalgebra, self.matrix
        Dt = C.delta_tensor()
        eps = C.tol.eps_eig * 100 * max(1.0, float(np.abs(E).max(initial=0.0)))
        counit = np.einsum("ijk,jk->i", Dt, E)
        if np.abs(counit - C.counit).max() > eps:
            raise AxiomViolation("E(c_(1), c_(2)) != eps(c)")
        # c_(1) E(c_(2), d) = E(c, d_(1)) d_(2) on basis pairs
        lhs = np.einsum("iak,kd->ida", Dt, E)
        rhs = np.einsum("dpa,ip->ida", Dt, E)
        if np.abs(lhs - rhs).max(initial=0.0) > eps:
            raise AxiomViolation("coseparability centrality identity fails")
        st = C.star_matrix
        sym = st.T @ E @ st   # entry (i, j) = E(e_i*, e_j*)
        if np.abs(sym - np.conj(E).T).max(initial=0.0) > eps:
            raise AxiomViolation("E(c*, d*) != conj(E(d, c))")
        Q = st.T @ E     # Q[i, j] = E(e_i*, e_j), Hermitian for the form above
        Q = (Q + dagger(Q)) / 2.0
        if np.linalg.eigvalsh(Q).min() <= C.tol.eps_eig * max(
                1.0, np.abs(Q).max()):
            raise AxiomViolation("compactness form E(c*, c) is not positive")


@dataclass
class CompactDecomposition:
    blocks: list[Corepresentation]
    E: CoseparabilityIdempotent
    irreps: list[tuple[Representation, int]]   # of the dual algebra, unitarized
    dual_algebra: FDStarAlgebra


def compact_decompose(C: FDStarCoalgebra, seed: int = 0,
                      parts: list[tuple[Representation, int]] | None = None
                      ) -> CompactDecomposition:
    """Matrix-coalgebra block decomposition of a compact *-coalgebra, with
    the coseparability idempotent E(e^(a)_ij, e^(b)_kl) = d_ab d_il d_jk.

    parts is a decomposition the caller already has of the regular
    representation of the dual algebra (of A itself when C = dualize(A));
    without it, that representation is decomposed here with the seed.
    Either way each block is validated as a representation of the dual
    algebra and as a corepresentation of C."""
    B = dualize_co(C)
    G, ok = check_cstar(B)
    if not ok:
        raise NotCompact("dual algebra admits no C*-norm")
    if parts is None:
        parts = decompose(regular_representation(B), seed=seed)
    n = C.dim
    blocks = []
    unitarized = []
    cols = []
    e_rows = []
    for V, mult in parts:
        # unitarize: gram H = L L^dagger, rho' = L^dagger rho L^{-dagger}
        L = np.linalg.cholesky((V.gram + dagger(V.gram)) / 2.0)
        R = dagger(L)
        Rinv = np.linalg.inv(R)
        rho_u = R @ V.rho @ Rinv
        W = Representation(B, rho_u, None)
        unitarized.append((W, mult))
        coeff = np.ascontiguousarray(rho_u.transpose(1, 2, 0))
        blocks.append(Corepresentation(C, coeff))
        d = W.dim
        for i in range(d):
            for j in range(d):
                cols.append(rho_u[:, i, j])
                e_rows.append((len(blocks) - 1, d, i, j))
    P = np.stack(cols, axis=1)
    if P.shape != (n, n):
        raise InternalConsistency("matrix elements do not span the dual")
    # E(e^(a)_ij, e^(b)_kl) = d_ab d_il d_jk / n_a; the 1/n_a makes the
    # counit identity E(c_(1), c_(2)) = eps(c) hold on d-dim blocks
    E_block = np.zeros((n, n), dtype=complex)
    for a, (ba, da, i, j) in enumerate(e_rows):
        for b, (bb, db, k, l) in enumerate(e_rows):
            if ba == bb and i == l and j == k:
                E_block[a, b] = 1.0 / da
    Pinv = np.linalg.inv(P)
    E_mat = Pinv.T @ E_block @ Pinv
    E = CoseparabilityIdempotent(C, E_mat)
    E.verify()
    return CompactDecomposition(blocks, E, unitarized, B)


def _varsigma_to_dual_S(C: FDStarCoalgebra,
                        varsigma: np.ndarray) -> AntiAlgebraMap:
    B = dualize_co(C)
    try:
        return AntiAlgebraMap.validated(B, np.asarray(varsigma, dtype=complex).T)
    except NotAntiMap as exc:
        raise BadVarsigma(str(exc)) from exc


def gamma(C: FDStarCoalgebra, varsigma: np.ndarray,
          seed: int = 0) -> np.ndarray:
    """The canonical positive functional gamma attached to an anti-coalgebra
    map: the distinguished element of the dual algebra for S(a) = a o
    varsigma, returned as a vector of values on the basis."""
    return gamma_full(C, varsigma, seed)[0]


def gamma_full(C: FDStarCoalgebra, varsigma: np.ndarray, seed: int = 0
               ) -> tuple[np.ndarray, DualStructureData, FDStarAlgebra]:
    from .indicators import canonical_g
    S = _varsigma_to_dual_S(C, varsigma)
    B = dualize_co(C)
    parts = decompose(regular_representation(B), seed=seed)
    dual = canonical_g(B, S, [V for V, _ in parts])
    return dual.g, dual, B


def corep_indicator(C: FDStarCoalgebra, V: Corepresentation,
                    varsigma: np.ndarray, gamma_vec: np.ndarray,
                    E: CoseparabilityIdempotent) -> float:
    """nu(V) = gamma(t_(2)) E(varsigma(t_(1)), t_(3)) for t the character
    of an irreducible corepresentation."""
    t = V.character()
    Dt = C.delta_tensor()
    # Delta^2(t)[a, b, c]
    T = np.einsum("i,imc,mab->abc", t, Dt, Dt, optimize=True)
    vs = np.asarray(varsigma, dtype=complex)
    val = complex(np.einsum("abc,ma,mc,b->", T, vs, E.matrix, gamma_vec,
                            optimize=True))
    if abs(val.imag) > C.tol.eps_round * (1 + abs(val)):
        raise UnexpectedDimension(f"corep indicator {val} is not real")
    return val.real


def cqg_indicator(H: WeakHopfData, V: Corepresentation,
                  seed: int = 0) -> float:
    """nu(V) = (gamma(t)/eps(t)) h(t_(1) t_(2)) for an irreducible corep of
    a finite-dimensional Hopf *-algebra; h is the dual Haar integral."""
    A = H.algebra
    n = H.dim
    D1 = H.delta_of(A.unit)
    if np.abs(D1 - np.outer(A.unit, A.unit)).max() > A.tol.eps_eig:
        raise NotHopf("Delta(1) != 1 (x) 1")
    S_mat = H.S.matrix
    # dagger-coalgebra structure c -> S(c)* on the underlying coalgebra
    K = A.star_matrix @ np.conj(S_mat)
    C = FDStarCoalgebra(H.Delta, H.counit, K, A.tol)
    gamma_vec, _, B = gamma_full(C, S_mat, seed=seed)
    # Haar functional = Haar integral of the dual Hopf algebra
    Delta_B = A.structure.reshape(n * n, n)
    S_B = AntiAlgebraMap.validated(B, S_mat.T)
    dual_hopf = WeakHopfData(B, Delta_B, A.unit, S_B)
    h = dual_hopf.haar_integral()
    t = V.character()
    z = np.einsum("jk,jkl->l", H.delta_of(t), A.structure)
    eps_t = complex(H.counit @ t)
    val = complex((gamma_vec @ t) / eps_t * (h @ z))
    if abs(val.imag) > A.tol.eps_round * (1 + abs(val)):
        raise UnexpectedDimension(f"CQG indicator {val} is not real")
    return val.real


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
    d = rho.shape[1]
    eye = np.eye(d)
    # rho(e_i*), one tensordot per i: a single batched product would round
    # differently and so change the system the nullspace is taken of
    rho_star = np.stack([np.tensordot(A.star_matrix[:, i], rho, axes=(0, 0))
                         for i in range(rho.shape[0])])
    system = kron_system(np.conj(rho).transpose(0, 2, 1), eye,
                         eye, rho_star.transpose(0, 2, 1))
    ker = nullspace(system, A.tol)
    for j in range(ker.shape[1]):
        H = ker[:, j].reshape(d, d)
        H = (H + dagger(H)) / 2.0
        vals = np.linalg.eigvalsh(H)
        if vals.min() > A.tol.eps_eig:
            return H
        if vals.max() < -A.tol.eps_eig:
            return -H
        Hi = (ker[:, j].reshape(d, d) - dagger(ker[:, j].reshape(d, d))) / 2j
        vals = np.linalg.eigvalsh(Hi)
        if vals.min() > A.tol.eps_eig:
            return Hi
        if vals.max() < -A.tol.eps_eig:
            return -Hi
    raise NotStarRep("no positive invariant gram found")
