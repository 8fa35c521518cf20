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
                     kron_system, make_rng, nullspace, random_complex)


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
        prod = self.rho[:, None] @ self.rho[None, :]
        via = (A.structure.reshape(n * n, n) @ self.rho.reshape(n, d * d)
               ).reshape(n, n, d, d)
        if np.abs(prod - via).max(initial=0.0) > eps:
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


def regular_representation(A: FDStarAlgebra) -> Representation:
    from .algebra import check_cstar
    G, ok = check_cstar(A)
    if not ok:
        raise NotStarRep("regular representation is not a *-representation: "
                         "trace form is not positive definite")
    rho = np.stack([A.left_mult(A.basis_element(i)) for i in range(A.dim)])
    return Representation(A, rho, G)


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


def _commutant_basis(V: Representation) -> list[np.ndarray]:
    """Basis of End_A(V) = {M : M rho(e_i) = rho(e_i) M}.

    For large algebras the full stacked system is expensive, so we first
    try the commutant of a few random algebra elements and certify each
    candidate against the whole basis, falling back to the full system.
    """
    A, d = V.algebra, V.dim
    tol = A.tol
    scale = max(1.0, float(np.abs(V.rho).max(initial=0.0)))
    eps = tol.eps_eig * scale * max(1, d)

    def certify(mats: list[np.ndarray]) -> bool:
        for M in mats:
            resid = M @ V.rho - V.rho @ M
            if np.abs(resid).max(initial=0.0) > eps * (1 + np.abs(M).max()):
                return False
        return True

    rng = make_rng(20260826)
    for _ in range(3):
        g1 = V.apply(random_complex(rng, (A.dim,)))
        g2 = V.apply(random_complex(rng, (A.dim,)))
        try:
            mats = _commutant_of_pair(g1, g2, tol)
        except np.linalg.LinAlgError:
            continue
        if certify(mats):
            return mats
    return intertwiners(V.rho, V.rho, tol)


def _commutant_of_pair(g1: np.ndarray, g2: np.ndarray,
                       tol: Tolerance) -> list[np.ndarray]:
    """Joint commutant of two matrices.

    Anything commuting with g1 preserves its eigenspaces, so the commutant
    of g1 alone is spanned by P E_pq P^{-1} over within-cluster index pairs;
    commutation with g2 is then a small linear system on those parameters.
    """
    d = g1.shape[0]
    w, P = np.linalg.eig(g1)
    Pinv = np.linalg.inv(P)
    order = np.argsort(w.real + 1e-3 * w.imag)
    clusters = []
    cur = [order[0]]
    eps_w = tol.eps_eig * 100 * (1 + np.abs(w).max())
    for a, b in zip(order, order[1:]):
        if abs(w[b] - w[a]) <= eps_w:
            cur.append(b)
        else:
            clusters.append(cur)
            cur = [b]
    clusters.append(cur)
    params = []
    for idx in clusters:
        for p in idx:
            for q in idx:
                params.append(np.outer(P[:, p], Pinv[q, :]))
    cols = np.stack([(M @ g2 - g2 @ M).reshape(-1) for M in params], axis=1)
    scale = max(1.0, float(np.abs(cols).max(initial=0.0)))
    ker = nullspace(cols / scale, tol)
    stack = np.stack(params)
    return [np.tensordot(ker[:, j], stack, axes=(0, 0))
            for j in range(ker.shape[1])]


def _split_once(V: Representation, comm: list[np.ndarray],
                rng) -> list[Representation] | None:
    """One eigen-split of V by a random Hermitian element of its commutant.

    Returns gram-identity subrepresentations, or None when the chosen
    element fails to separate (caller retries with a fresh element).
    """
    A, d, H = V.algebra, V.dim, V.gram
    coeffs = rng.standard_normal(len(comm))
    M = sum(c * T for c, T in zip(coeffs, comm))
    Hinv = np.linalg.inv(H)
    M = (M + Hinv @ dagger(M) @ H) / 2.0  # gram-Hermitian
    vals, vecs = scipy.linalg.eigh(H @ M, H)  # vecs are H-orthonormal
    clusters = cluster_eigenvalues(vals, A.tol.eps_eig * max(1.0, np.abs(vals).max()))
    if len(clusters) < 2:
        return None
    out = []
    for idx in clusters:
        out.append(restrict(V, vecs[:, idx]))
    return out


def decompose(V: Representation, seed: int = 0,
              max_tries: int = 8) -> list[tuple[Representation, int]]:
    """Full decomposition into pairwise inequivalent irreducibles with
    multiplicities, sorted by (dimension, character fingerprint).  V is
    validated here unless it already was."""
    if not V.validated:
        V._validate()
    tol = V.algebra.tol
    leaves: list[Representation] = []
    stack = [V]
    while stack:
        W = stack.pop()
        if W.dim == 0:
            continue
        comm = _commutant_basis(W)
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
