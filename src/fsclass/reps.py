"""Finite-dimensional *-representations: construction, intertwiner spaces,
complete decomposition into irreducibles, and the dual and conjugate
representations attached to a dual-structure pair (S, g).

A representation carries both the matrices rho(e_i) and a Hermitian positive
gram H making it a *-representation: rho(a*) = H^{-1} rho(a)^dagger H.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .algebra import AntiAlgebraMap, FDStarAlgebra, RealForm
from .errors import DegenerateSplit, InternalConsistency, NotStarRep
from .linalg import (DEFAULT_TOL, Tolerance, cluster_eigenvalues, dagger,
                     kron_system, make_rng, nullspace, random_complex,
                     svd_rank)


class Representation:
    """Matrices rho(e_i) plus an invariant Hermitian positive gram.

    `validated` records whether the axioms have been checked: construction
    with check=True checks them, check=False leaves that to the caller.
    """

    def __init__(self, algebra: FDStarAlgebra, rho: np.ndarray,
                 gram: np.ndarray | None = None, check: bool = True):
        rho = np.asarray(rho, dtype=complex)
        self.algebra = algebra
        self.rho = rho
        self.dim = rho.shape[1]
        if gram is None:
            gram = np.eye(self.dim, dtype=complex)
        self.gram = np.asarray(gram, dtype=complex)
        self.validated = False
        if check:
            self._validate()

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.tensordot(x, self.rho, axes=(0, 0))

    def character(self) -> np.ndarray:
        """chi(e_i) for every basis element, as a vector."""
        return np.einsum("iaa->i", self.rho)

    def char_value(self, x: np.ndarray) -> complex:
        return complex(self.character() @ x)

    def fingerprint(self, eps_round: float | None = None) -> tuple:
        eps = self.algebra.tol.eps_round if eps_round is None else eps_round
        chi = self.character() / eps
        return (self.dim,) + tuple(
            (int(round(z.real)), int(round(z.imag))) for z in chi)

    def _validate(self):
        A, n, d = self.algebra, self.algebra.dim, self.dim
        tol = A.tol
        if self.rho.shape != (n, d, d):
            raise NotStarRep("matrix block must have shape (dim_A, d, d)")
        scale = max(1.0, float(np.abs(self.rho).max(initial=0.0))) ** 2
        eps = tol.eps_eig * scale * max(1, d)
        # homomorphism and unit
        if self._hom_residual() > eps:
            raise NotStarRep("rho(e_i e_j) != rho(e_i) rho(e_j)")
        if np.abs(self.apply(A.unit) - np.eye(d)).max() > eps:
            raise NotStarRep("rho(1) != I")
        H = self.gram
        if np.abs(H - dagger(H)).max(initial=0.0) > tol.eps_eig * max(
                1.0, float(np.abs(H).max(initial=0.0))):
            raise NotStarRep("gram is not Hermitian")
        if d and np.linalg.eigvalsh((H + dagger(H)) / 2).min() <= 0:
            raise NotStarRep("gram is not positive definite")
        # star compatibility: rho(a)^dagger H = H rho(a*), where
        # rho(e_i*) = sum_k sigma[k, i] rho(e_k)
        star_rho = np.tensordot(A.star_matrix, self.rho, axes=(0, 0))
        lhs = np.conj(self.rho).transpose(0, 2, 1) @ H
        rhs = H @ star_rho
        if np.abs(lhs - rhs).max(initial=0.0) > eps * max(
                1.0, float(np.abs(H).max(initial=0.0))):
            raise NotStarRep("rho(a)^dagger H != H rho(a*)")
        self.validated = True

    def _hom_residual(self) -> float:
        """max |rho(e_i) rho(e_j) - rho(e_i e_j)| over all i, j."""
        A, n, d = self.algebra, self.algebra.dim, self.dim
        prod = self.rho[:, None] @ self.rho[None, :]
        via = (A.structure.reshape(n * n, n) @ self.rho.reshape(n, d * d)
               ).reshape(n, n, d, d)
        return float(np.abs(prod - via).max(initial=0.0))

    def commutant(self) -> np.ndarray:
        """Basis of End_A(V) = {M : M rho(e_i) = rho(e_i) M}, as a (k, d, d)
        stack, solved from the full intertwiner system.  Subclasses that
        know it in closed form override this."""
        return np.array(intertwiners(self.rho, self.rho, self.algebra.tol))


class RegularRepresentation(Representation):
    """Left regular representation rho(e_i) = L(e_i), with the regular
    trace form as gram.

    rho(e_i) rho(e_j) - rho(e_i e_j) is, entry for entry, minus the
    associator (e_i e_j) e_b - e_i (e_j e_b) at e_a, so its homomorphism
    residual is the associativity residual the algebra measured when it
    was built.  Every other axiom is checked as for any representation.
    """

    def _hom_residual(self) -> float:
        return self.algebra.associativity_residual

    def commutant(self) -> np.ndarray:
        """End_A(A) is right multiplication: R(e_j)[k, i] = c[i, j, k]."""
        return self.algebra.structure.transpose(1, 2, 0)


def regular_representation(A: FDStarAlgebra) -> RegularRepresentation:
    from .algebra import check_cstar
    G, ok = check_cstar(A)
    if not ok:
        raise NotStarRep("regular representation is not a *-representation: "
                         "trace form is not positive definite")
    return RegularRepresentation(A, A._left.copy(), G)


def restrict(V: Representation, basis: np.ndarray,
             check: bool = False) -> Representation:
    """Subrepresentation on the column span of basis (columns must be
    gram-orthonormal so that the restricted gram is the identity)."""
    B = basis
    P = dagger(B) @ V.gram
    rho = P @ V.rho @ B
    return Representation(V.algebra, rho, None, check=check)


def intertwiners(
        rho_v: np.ndarray, rho_w: np.ndarray,
        tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {F : F rho_v(e_i) = rho_w(e_i) F}, each of shape (dW, dV)."""
    dv, dw = rho_v.shape[1], rho_w.shape[1]
    system = kron_system(np.eye(dw), rho_v.transpose(0, 2, 1),
                         rho_w, np.eye(dv))
    ker = nullspace(system, tol)
    return [ker[:, j].reshape(dw, dv) for j in range(ker.shape[1])]


def _split_once(V: Representation, comm: np.ndarray,
                rng) -> list[tuple[Representation, np.ndarray]] | None:
    """One eigen-split of V by a random gram-Hermitian element of its
    commutant comm, a (k, d, d) stack spanning End_A(V).

    Returns (piece, commutant of the piece) pairs, each piece a
    gram-identity subrepresentation on the H-orthonormal basis B of an
    eigenvalue cluster, or None when the chosen element fails to separate
    (caller retries with a fresh element).  The H-orthogonal projection
    B P, P = B^dagger H, onto a piece lies in End_A(V), so the piece's
    commutant is P End_A(V) B: the span of P comm B, orthonormalised with
    the rank rule of `nullspace`.
    """
    A, H = V.algebra, V.gram
    M = np.tensordot(random_complex(rng, len(comm)), comm, axes=(0, 0))
    Hinv = np.linalg.inv(H)
    M = (M + Hinv @ dagger(M) @ H) / 2.0  # gram-Hermitian
    vals, vecs = scipy.linalg.eigh(H @ M, H)  # vecs are H-orthonormal
    clusters = cluster_eigenvalues(vals, A.tol.eps_eig * max(1.0, np.abs(vals).max()))
    if len(clusters) < 2:
        return None
    out = []
    for idx in clusters:
        B = vecs[:, idx]
        P = dagger(B) @ H
        flat = (P @ comm @ B).reshape(len(comm), -1)
        u, s, _ = np.linalg.svd(flat.T, full_matrices=False)
        k = svd_rank(s, A.tol)
        out.append((restrict(V, B), u[:, :k].T.reshape(k, len(idx), len(idx))))
    return out


def decompose(V: Representation, seed: int = 0,
              max_tries: int = 8) -> list[tuple[Representation, int]]:
    """Full decomposition into pairwise inequivalent irreducibles with
    multiplicities, sorted by (dimension, character fingerprint).  V is
    validated here unless it already was.

    The commutant is taken once, from `V.commutant()`.  A piece whose
    commutant is one-dimensional is irreducible; any other is split by
    `_split_once` (at most max_tries seeded draws), and its parts get
    their commutants by compression, not by a new solve.
    """
    if not V.validated:
        V._validate()
    tol = V.algebra.tol
    leaves: list[Representation] = []
    stack = [(V, V.commutant())]
    while stack:
        W, comm = stack.pop()
        if W.dim == 0:
            continue
        if len(comm) == 1:
            leaves.append(W)
            continue
        parts = None
        for t in range(max_tries):
            parts = _split_once(W, comm, make_rng(seed + 1000 * t + 17 * W.dim))
            if parts is not None:
                break
        if parts is None:
            raise DegenerateSplit(
                f"could not split a {W.dim}-dim representation with "
                f"commutant dimension {len(comm)}")
        stack.extend(parts)
    # group equivalent leaves
    groups: list[list[Representation]] = []
    for L in leaves:
        placed = False
        for grp in groups:
            if L.dim != grp[0].dim:
                continue
            hom = intertwiners(L.rho, grp[0].rho, tol)
            if len(hom) == 1:
                grp.append(L)
                placed = True
                break
            if len(hom) > 1:
                raise InternalConsistency(
                    "hom space between putative irreducibles has dim > 1")
        if not placed:
            groups.append([L])
    result = [(grp[0], len(grp)) for grp in groups]
    result.sort(key=lambda p: p[0].fingerprint())
    return result


def dual_representation(V: Representation, S: AntiAlgebraMap,
                        g: np.ndarray) -> Representation:
    """D(V): rho_D(a) = rho(S(a))^T on the dual space, with the gram induced
    by the pairing, H_D = (rho(g) H^{-1})^T."""
    A = V.algebra
    rho_d = np.einsum("ji,jab->iba", S.matrix, V.rho)
    H_d = (V.apply(g) @ np.linalg.inv(V.gram)).T
    return Representation(A, rho_d, H_d)


def conjugate_representation(V: Representation, R: RealForm,
                             g: np.ndarray | None = None) -> Representation:
    """J(V): rho_J(a) = conj(rho(abar)) on the conjugate space.  The gram
    H_J = (H rho(g))^T makes the Riesz map H^T a unitary isomorphism onto
    the dual representation; g defaults to the unit."""
    A = V.algebra
    if g is None:
        g = A.unit
    rho_j = np.einsum("ji,jab->iab", np.conj(R.conj_matrix), np.conj(V.rho))
    H_j = (V.gram @ V.apply(g)).T
    return Representation(A, rho_j, H_j)
