"""Finite-dimensional *-representations: construction, intertwiner spaces,
complete decomposition into irreducibles, and the dual and conjugate
representations attached to a dual-structure pair (S, g).

A representation carries both the matrices rho(e_i) and a Hermitian positive
gram H making it a *-representation: rho(a*) = H^{-1} rho(a)^dagger H.
"""
from __future__ import annotations

import numpy as np

from .algebra import (AntiAlgebraMap, FDStarAlgebra, RealForm, central_sum,
                      orthonormal_basis)
from .errors import DegenerateSplit, NotCStar, NotStarRep, require
from .linalg import (DEFAULT_TOL, Tolerance, cluster_eigenvalues, dagger,
                     kron_system, make_rng, nullspace, pencil_eigh,
                     random_complex)


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

    def fingerprint(self) -> tuple:
        chi = self.character() / self.algebra.tol.eps_round
        return (self.dim,) + tuple(
            (int(round(z.real)), int(round(z.imag))) for z in chi)

    def _validate(self, hom: bool = True):
        A, n, d = self.algebra, self.algebra.dim, self.dim
        tol = A.tol
        if self.rho.shape != (n, d, d):
            raise NotStarRep("matrix block must have shape (dim_A, d, d)")
        scale = max(1.0, float(np.abs(self.rho).max(initial=0.0))) ** 2
        eps = tol.eps_eig * scale * max(1, d)
        # homomorphism and unit, unless hom=False: a caller that has checked
        # the same residuals another way
        if hom:
            require(NotStarRep, "rho(e_i e_j) != rho(e_i) rho(e_j)",
                    self._hom_residual(), eps)
            require(NotStarRep, "rho(1) != I",
                    np.abs(self.apply(A.unit) - np.eye(d)).max(), eps)
        H = self.gram
        h_scale = max(1.0, float(np.abs(H).max(initial=0.0)))
        require(NotStarRep, "gram is not Hermitian",
                np.abs(H - dagger(H)).max(initial=0.0), tol.eps_eig * h_scale)
        # smallest eigenvalue > 0 (none when d = 0)
        require(NotStarRep, "gram is not positive definite",
                -np.linalg.eigvalsh((H + dagger(H)) / 2).min(initial=np.inf),
                -np.nextafter(0.0, 1.0))
        # star compatibility: rho(a)^dagger H = H rho(a*), where
        # rho(e_i*) = sum_k sigma[k, i] rho(e_k)
        star_rho = np.tensordot(A.star_matrix, self.rho, axes=(0, 0))
        lhs = np.conj(self.rho).transpose(0, 2, 1) @ H
        rhs = H @ star_rho
        require(NotStarRep, "rho(a)^dagger H != H rho(a*)",
                np.abs(lhs - rhs).max(initial=0.0), eps * h_scale)
        self.validated = True

    def _hom_residual(self) -> float:
        """`hom_residual` of rho over the product of its algebra."""
        return hom_residual(self.rho, self.algebra.of_products)

    def commutant(self) -> np.ndarray:
        """Basis of End_A(V) = {M : M rho(e_i) = rho(e_i) M}, as a (k, d, d)
        stack, solved from the full intertwiner system.  Subclasses that
        know it in closed form override this."""
        return np.array(intertwiners(self.rho, self.rho, self.algebra.tol))


def hom_residual(rho: np.ndarray, of_products) -> float:
    """max |rho(e_i) rho(e_j) - rho(e_i e_j)| over all i, j, the n^2 products
    as one GEMM.  of_products(X) = X(e_i e_j) for X (n, d^2): `A.of_products`,
    or `C.Delta.dot` for the dual algebra of a coalgebra C, left unbuilt."""
    n, d = rho.shape[:2]
    prod = rho.reshape(n * d, d) @ rho.transpose(1, 0, 2).reshape(d, n * d)
    via = of_products(rho.reshape(n, d * d)).reshape(n, n, d, d)
    gap = prod.reshape(n, d, n, d).transpose(0, 2, 1, 3) - via
    return float(np.abs(gap).max(initial=0.0))


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
        return self.algebra.right_stack()


def regular_representation(A: FDStarAlgebra) -> RegularRepresentation:
    """The left regular *-representation; its rho is A's own read-only
    stack of left-multiplication matrices, shared, not copied."""
    G, ok = A.trace_form
    if not ok:
        raise NotStarRep("regular representation is not a *-representation: "
                         "trace form is not positive definite")
    return RegularRepresentation(A, A.left_stack(), G)


def restrict(V: Representation, basis: np.ndarray) -> Representation:
    """Subrepresentation on the column span of basis (columns must be
    gram-orthonormal so that the restricted gram is the identity)."""
    B = basis
    P = dagger(B) @ V.gram
    rho = P @ V.rho @ B
    return Representation(V.algebra, rho, None, check=False)


def intertwiners(
        rho_v: np.ndarray, rho_w: np.ndarray,
        tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {F : F rho_v(e_i) = rho_w(e_i) F}, each of shape (dW, dV)."""
    dv, dw = rho_v.shape[1], rho_w.shape[1]
    system = kron_system(np.eye(dw), rho_v.transpose(0, 2, 1),
                         rho_w, np.eye(dv))
    ker = nullspace(system, tol)
    return [ker[:, j].reshape(dw, dv) for j in range(ker.shape[1])]


SPLIT_TRIES = 8


def _eigenspaces(X: np.ndarray, H: np.ndarray | None,
                 tol: Tolerance) -> list[np.ndarray]:
    """H-orthonormal bases of the eigenspaces of the H-Hermitian part of
    H^{-1} X (H = None: the identity), one per eigenvalue cluster, in
    ascending order."""
    X = (X + dagger(X)) / 2.0
    # H = None skips the Cholesky reduction on the many small compressed blocks
    vals, vecs = np.linalg.eigh(X) if H is None else pencil_eigh(X, H)
    eps = tol.eps_eig * max(1.0, np.abs(vals).max())
    return [vecs[:, idx] for idx in cluster_eigenvalues(vals, eps)]


def decompose(V: Representation,
              seed: int = 0) -> list[tuple[Representation, int]]:
    """Full decomposition into pairwise inequivalent irreducibles with
    multiplicities, sorted by (dimension, character fingerprint).  V is
    validated here unless it already was.

    The commutant is taken once, from `V.commutant()`; when it is
    one-dimensional V is irreducible.  Otherwise each attempt draws a
    central z = `central_sum` of a random self-adjoint a over a trace-form
    orthonormal basis b_j (a reducible V needs a positive definite trace
    form) and a random M in the commutant.  Each eigenspace W of rho(z)
    gives the piece L, the first eigenspace of M compressed onto W.  The
    pairing <x, y> = sum_j x(b_j) y(b_j^*) makes irreducible characters
    orthonormal, so <chi_L, chi_L> = 1 and <chi_V, chi_L> = dim W / dim L,
    each within eps_round times the integer, prove W = L^m with L
    irreducible; otherwise z and M are redrawn, at most SPLIT_TRIES times.
    """
    if not V.validated:
        V._validate()
    comm = V.commutant()
    if len(comm) == 1:
        return [(V, 1)]
    A, H, tol = V.algebra, V.gram, V.algebra.tol
    G, ok = A.trace_form
    if not ok:
        raise NotCStar("cannot split a reducible representation: the trace "
                       "form of its algebra is not positive definite")
    B = orthonormal_basis(A, G)
    Bs = A.star(B)
    chi_V = V.character()

    def pairs_to(x: np.ndarray, y: np.ndarray, k: int) -> bool:
        return abs((x @ B) @ (y @ Bs) - k) <= tol.eps_round * k

    rng = make_rng(seed)
    for _ in range(SPLIT_TRIES + 1):
        r = random_complex(rng, A.dim)
        z = central_sum(A, B, r + A.star(r))
        # the commutant of a regular representation is a transposed view,
        # which einsum reads in place
        HM = H @ np.einsum("k,kab->ab", random_complex(rng, len(comm)), comm)
        result = []
        for BW in _eigenspaces(H @ V.apply(z), H, tol):
            BL = BW @ _eigenspaces(dagger(BW) @ HM @ BW, None, tol)[0]
            L = restrict(V, BL)
            chi = L.character()
            m, rest = divmod(BW.shape[1], L.dim)
            if rest or not (pairs_to(chi, chi, 1) and pairs_to(chi_V, chi, m)):
                break
            result.append((L, m))
        else:
            return sorted(result, key=lambda p: p[0].fingerprint())
    raise DegenerateSplit(
        f"could not split a {V.dim}-dim representation with commutant "
        f"dimension {len(comm)} in {SPLIT_TRIES} redraws")


def dual_representation(V: Representation, S: AntiAlgebraMap,
                        g: np.ndarray) -> Representation:
    """D(V): rho_D(a) = rho(S(a))^T on the dual space, with the gram induced
    by the pairing, H_D = (rho(g) H^{-1})^T.  Built unchecked: it is a
    *-representation whenever V is one and (S, g) is a dual structure."""
    A = V.algebra
    rho_d = np.einsum("ji,jab->iba", S.matrix, V.rho)
    H_d = (V.apply(g) @ np.linalg.inv(V.gram)).T
    return Representation(A, rho_d, H_d, check=False)


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
