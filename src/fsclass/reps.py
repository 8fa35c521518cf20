"""Finite-dimensional *-representations: construction, intertwiner spaces,
complete decomposition into irreducibles, and the dual and conjugate
representations attached to a dual-structure pair (S, g).

A representation carries both the matrices rho(e_i) and a Hermitian positive
gram H making it a *-representation: rho(a*) = H^{-1} rho(a)^dagger H.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

import numpy as np

from .algebra import (AntiAlgebraMap, FDStarAlgebra, RealForm, central_sum,
                      star_residual, transpose_times)
from .errors import (DegenerateSplit, InternalConsistency, NotCStar,
                     NotStarRep, require)
from .linalg import (Tolerance, cluster_eigenvalues, dagger, gram_basis,
                     make_rng, random_complex)


class Representation:
    """Matrices rho(e_i) plus an invariant Hermitian positive gram, checked
    as a *-representation when built (`_validate`), `NotStarRep` if not."""

    def __init__(self, algebra: FDStarAlgebra, rho: np.ndarray,
                 gram: np.ndarray | None = None):
        self.algebra, self.rho = algebra, np.asarray(rho, dtype=complex)
        self.dim = self.rho.shape[1]
        if gram is None:   # the identity is its own orthonormal basis
            gram = np.eye(self.dim, dtype=complex)
            gram.flags.writeable = False
            self.orthonormal_basis = gram
        self.gram = np.asarray(gram, dtype=complex)
        self._validate()

    @cached_property
    def orthonormal_basis(self) -> np.ndarray:
        """`gram_basis(H)`, kept: Q with Q^dagger H Q = I, in which rho is
        Q^dagger H rho Q, unitary for the standard inner product.  Built
        without a gram, V keeps the read-only identity, which is H and Q."""
        return gram_basis(self.gram)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.rho.reshape(len(x), -1)).reshape(self.dim, self.dim)

    def character(self) -> np.ndarray:
        """chi(e_i) for every basis element, as a vector."""
        return np.einsum("iaa->i", self.rho)

    def char_value(self, x: np.ndarray) -> complex:
        return complex(self.character() @ x)

    def fingerprint(self) -> tuple:
        """(dim, chi / eps_round rounded half to even, as `round` does)."""
        chi = np.rint(self.character() / self.algebra.tol.eps_round)
        return (self.dim,) + tuple(zip(chi.real.astype(np.int64).tolist(),
                                       chi.imag.astype(np.int64).tolist()))

    def _validate(self):
        A, d, tol = self.algebra, self.dim, self.algebra.tol
        scale = max(1.0, self._max_entry()) ** 2
        eps = tol.eps_eig * scale * max(1, d)
        resid, factor = self._hom_residual()
        require(NotStarRep, "rho(e_i e_j) != rho(e_i) rho(e_j)", resid,
                eps / factor)
        require(NotStarRep, "rho(1) != I",
                np.abs(self.apply(A.unit) - np.eye(d)).max(), eps)
        H = self.gram
        h_scale = max(1.0, float(np.abs(H).max(initial=0.0)))
        # the identity, or a gram known positive, needs no check
        if not (np.array_equal(H, np.eye(d)) or self._gram_checked()):
            require(NotStarRep, "gram is not Hermitian", np.abs(
                H - dagger(H)).max(initial=0.0), tol.eps_eig * h_scale)
            # smallest eigenvalue > 0 (none when d = 0)
            low = np.linalg.eigvalsh((H + dagger(H)) / 2).min(initial=np.inf)
            require(NotStarRep, "gram is not positive definite", -low,
                    -np.nextafter(0.0, 1.0))
        require(NotStarRep, "rho(a)^dagger H != H rho(a*)",
                self._star_residual(), eps * h_scale)

    def _max_entry(self) -> float:   # max |rho(e_i)[a, b]|, rho (n, d, d)
        if self.rho.shape != (self.algebra.dim, self.dim, self.dim):
            raise NotStarRep("matrix block must have shape (dim_A, d, d)")
        return float(np.abs(self.rho).max(initial=0.0))

    def _gram_checked(self) -> bool:   # H known Hermitian positive definite
        return False

    def _hom_residual(self) -> tuple[float, float]:
        """(r, F): r the `hom_residual` of rho on the rows S of
        `A.generators` = (S, L, m), F with |D(e_i, e_j)| <= F r for all i, j,
        D(a, b) = rho(ab) - rho(a) rho(b): so r <= eps / F implies eps on all
        n^2 products.  A is associative, so e_k = s e_k' / v gives D(e_k, x)
        = (rho(s) D(e_k', x) + D(s, e_k' x) - D(s, e_k') rho(x)) / v.  In the
        operator norm, with a = max_i |rho(e_i)| and m <= |v| <= max |c|,
        the bound f_l of |D(e_k, x)| / r at depth l has f_1 = d (|X| <=
        d max |X_ab|) and f_l = (a f_(l-1) + d (max |c| + a)) / m; F = f_L.
        With S every row, F = 1: all products, bit for bit."""
        A, d = self.algebra, self.dim
        rows, depth, least = A.generators
        r = hom_residual(self.rho, lambda X: A.of_products(X, rows), rows)
        if depth == 1 or not np.isfinite(r):   # every row, or r fails anyway
            return r, 1.0
        a = float(np.linalg.norm(self.rho, 2, axis=(1, 2)).max())
        f = d
        for _ in range(depth - 1):
            f = (a * f + d * (A.max_coefficient + a)) / least
        return r, f

    def _star_residual(self) -> float:
        """`star_residual`: star compatibility rho(a)^dagger H = H rho(a*)."""
        return star_residual(self.rho, self.algebra.star_matrix, self.gram)

    def commutant_map(self) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """(k, r -> sum_j r_j M_j) for a basis M_1..M_k of End_A(V), the
        `intertwiners` of V with itself, unless a subclass knows it."""
        comm = np.array(intertwiners(self.algebra, self.rho, self.rho))
        return len(comm), lambda r: np.einsum("k,kab->ab", r, comm)

    def compressed(self, P: np.ndarray, B: np.ndarray) -> np.ndarray:
        """P rho(e_i) B for every i, as an (n, rows P, cols B) stack."""
        return P @ self.rho @ B


def hom_residual(rho: np.ndarray, of_products, rows=slice(None)) -> float:
    """max |rho(e_i) rho(e_j) - rho(e_i e_j)| over the i of rows (all by
    default) and all j, as one GEMM; of_products(X) = X(e_i e_j) for those
    i, X (n, d^2).  On the rows of `A.generators` it bounds all n^2 products
    (`Representation._hom_residual`).  A corepresentation is stored as its
    dual module, so over the dual algebra this is also its
    comultiplication check."""
    n, d = rho.shape[:2]
    left = rho[rows]
    r = len(left)
    prod = left.reshape(r * d, d) @ rho.transpose(1, 0, 2).reshape(d, n * d)
    via = of_products(rho.reshape(n, d * d)).reshape(r, n, d, d)
    gap = prod.reshape(r, d, n, d).transpose(0, 2, 1, 3) - via
    return float(np.abs(gap).max(initial=0.0))


class RegularRepresentation(Representation):
    """Left regular representation rho(e_i) = L(e_i), with the regular
    trace form as gram.  It stores no matrices: it runs its algebra's
    kernels, and `rho`, `A.left_stack()`, is for tests and generic callers.

    rho(e_i) rho(e_j) - rho(e_i e_j) is, entry for entry, minus the
    associator (e_i e_j) e_b - e_i (e_j e_b) at e_a, so its homomorphism
    residual is the associativity residual the algebra measured when it
    was built.  Its star check is `FDStarAlgebra.regular_star_residual`,
    read off the index table when A has one.  A gram that is the trace
    form `check_cstar` passed is not checked again: the same Hermitian
    threshold, and eigenvalues above eps_eig times its scale, not above 0.
    Every other axiom is checked as for any representation.
    """

    def __init__(self, algebra: FDStarAlgebra, gram: np.ndarray):
        self.algebra, self.dim, self.gram = algebra, algebra.dim, gram
        self._validate()

    @property
    def rho(self) -> np.ndarray:
        return self.algebra.left_stack()

    @property
    def orthonormal_basis(self) -> np.ndarray:   # the trace form's, kept on A
        return self.algebra.orthonormal_basis

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.algebra.left_mult(x)

    def character(self) -> np.ndarray:
        return self.algebra.regular_trace()

    def _max_entry(self) -> float:   # L(e_i)[k, j] = c[i, j, k]
        return float(self.algebra.max_coefficient)

    def _gram_checked(self) -> bool:   # by check_cstar, with a stronger bound
        G, ok = self.algebra.trace_form
        return ok and self.gram is G

    def _hom_residual(self) -> tuple[float, float]:
        return self.algebra.associativity_residual, 1.0

    def _star_residual(self) -> float:
        return self.algebra.regular_star_residual(self.gram)

    def commutant_map(self) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """End_A(A) is right multiplication: sum_j r_j R(e_j) = R(r)."""
        return self.dim, self.algebra.right_mult

    def compressed(self, P: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(P L(e_i))[a, j] = P[a] (e_i e_j): one `of_products` of P^T (a
        gather on a table), then one batched GEMM with B."""
        return self.algebra.of_products(P.T).transpose(0, 2, 1) @ B


def regular_representation(A: FDStarAlgebra) -> RegularRepresentation:
    """The left regular *-representation of A, checked."""
    G, ok = A.trace_form
    if not ok:
        raise NotStarRep("regular representation is not a *-representation: "
                         "trace form is not positive definite")
    return RegularRepresentation(A, G)


def intertwiners(A: FDStarAlgebra, rho_v: np.ndarray,
                 rho_w: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of Hom_A(V, W) = {F : F rho_v(e_i) = rho_w(e_i) F},
    each of shape (dW, dV): `hom_spaces` of a stack of one."""
    k, U = hom_spaces(A, rho_v[:, None], rho_w[:, None], None)
    return [U[0, :, j].reshape(rho_w.shape[1], -1) for j in range(k[0])]


def hom_spaces(A: FDStarAlgebra, rho_v: np.ndarray, rho_w: np.ndarray,
               names) -> tuple[np.ndarray, np.ndarray | None]:
    """Hom_A(V, W) for stacked pairs rho_v (n, m, dV, dV), rho_w (n, m, dW,
    dW): the dimension k of each, and the left singular vectors of its
    averaging projection P, (m, dW dV, dW dV), the first k of which span it
    (None when every k is 0).  With A's kept E = sum_m x_m (x) y_m (Aguiar
    2000), P(X) = sum_m rho_w(x_m) X rho_v(y_m): sum a x_m (x) y_m = sum
    x_m (x) y_m a puts its range in Hom_A(V, W), sum x_m y_m = 1 fixes
    every F, and an idempotent's nonzero singular values are >= 1.  k = tr
    P = chi_W^T E chi_V.  A failed check opens with names[r] (`require`)."""
    (n, m, dv, _), dw = rho_v.shape, rho_w.shape[-1]
    E = A.separability_idempotent.tensor
    chi_w, chi_v = (np.einsum("jvaa->vj", rho) for rho in (rho_w, rho_v))
    trace = np.einsum("vj,vj->v", chi_w @ E, chi_v)
    k = np.maximum(0, np.rint(trace.real)).astype(int)
    require(InternalConsistency, "dim Hom_A(V, W) = tr P is not an integer",
            abs(trace - k), A.tol.eps_round * np.maximum(1, k), names)
    if not k.any():
        return k, None
    y = transpose_times(E.T, rho_v.reshape(n, -1))   # sum_k E[j, k] rho_v(e_k)
    P = (rho_w.transpose(1, 2, 3, 0).reshape(m, dw * dw, n)     # [v, (a, c), j]
         @ y.reshape(n, m, dv * dv).transpose(1, 0, 2))         # [v, j, (d, b)]
    P = P.reshape(m, dw, dw, dv, dv).transpose(0, 1, 4, 2, 3)
    return k, np.linalg.svd(P.reshape(m, dw * dv, dw * dv))[0]


SPLIT_TRIES = 8


def _eigenspaces(X: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Orthonormal bases of the eigenspaces of the Hermitian part of X, one
    per eigenvalue cluster, in ascending order."""
    vals, vecs = np.linalg.eigh((X + dagger(X)) / 2.0)
    eps = tol.eps_eig * max(1.0, np.abs(vals).max())
    return [vecs[:, idx] for idx in cluster_eigenvalues(vals, eps)]


def decompose(V: Representation,
              seed: int = 0) -> list[tuple[Representation, int]]:
    """Full decomposition into pairwise inequivalent irreducibles with
    multiplicities, sorted by (dimension, character fingerprint).

    A 1-dim V is irreducible.  Any other V needs a positive definite trace
    form, whose kept E = sum_m x_m (x) y_m the commutant and the split are
    read with: the commutant is taken once, from `V.commutant_map()`; when
    it is one-dimensional V is irreducible.  Otherwise each attempt draws a
    central z = `central_sum` = m((R_a (x) id) E) of a random self-adjoint
    a and a random M = sum_k r_k M_k in the commutant (R(r) for the regular
    representation).  Each eigenspace of Q^dagger H rho(z) Q, Q =
    `V.orthonormal_basis`, mapped back by Q is an H-orthonormal basis of a
    block W, which gives the piece L, the first eigenspace of M compressed
    onto W, kept as arrays with the identity gram.  The pairing <x, y> =
    x^T E y makes irreducible characters orthonormal, so <chi_L, chi_L> = 1
    and <chi_V, chi_L> = dim W / dim L, each within eps_round times the
    integer, prove W = L^m with L irreducible; then each L is built, so
    checked, once.  Otherwise z and M are redrawn (building nothing), at
    most SPLIT_TRIES times.  Q, H and E enter products by `transpose_times`.
    """
    if V.dim == 1:
        return [(V, 1)]
    A, H, tol = V.algebra, V.gram, V.algebra.tol
    if not A.trace_form[1]:
        raise NotCStar("cannot read the commutant: the trace form of its "
                       "algebra is not positive definite")
    k, commutant_element = V.commutant_map()
    if k == 1:
        return [(V, 1)]
    E, Q = A.separability_idempotent.tensor, V.orthonormal_basis
    QH = transpose_times(np.conj(Q), H)
    chi_V = V.character()

    def pairs_to(x: np.ndarray, y: np.ndarray, k: int) -> bool:
        return abs(transpose_times(E, x) @ y - k) <= tol.eps_round * k

    rng = make_rng(seed)
    for _ in range(SPLIT_TRIES + 1):
        r = random_complex(rng, A.dim)
        z = central_sum(A, r + A.star(r))
        HM = transpose_times(H.T, commutant_element(random_complex(rng, k)))
        pieces = []
        QHz = transpose_times(QH.T, V.apply(z))
        for W in _eigenspaces(transpose_times(Q, QHz.T).T, tol):
            BW = transpose_times(Q.T, W)
            BL = BW @ _eigenspaces(dagger(BW) @ HM @ BW, tol)[0]
            rho = V.compressed(dagger(BL) @ H, BL)
            chi = np.einsum("iaa->i", rho)
            m, rest = divmod(BW.shape[1], BL.shape[1])
            if rest or not (pairs_to(chi, chi, 1) and pairs_to(chi_V, chi, m)):
                break
            pieces.append((rho, m))
        else:
            parts = [(Representation(A, rho), m) for rho, m in pieces]
            return sorted(parts, key=lambda p: p[0].fingerprint())
    raise DegenerateSplit(
        f"could not split a {V.dim}-dim representation with commutant "
        f"dimension {k} in {SPLIT_TRIES} redraws")


def dual_representation(V: Representation, S: AntiAlgebraMap,
                        g: np.ndarray) -> Representation:
    """D(V): rho_D(a) = rho(S(a))^T on the dual space, with the gram induced
    by the pairing, H_D = (rho(g) H^{-1})^T: a *-representation whenever V
    is one and (S, g) is a dual structure, checked as any other."""
    rho_d = np.tensordot(S.matrix, V.rho, axes=(0, 0)).transpose(0, 2, 1)
    H_d = (V.apply(g) @ np.linalg.inv(V.gram)).T
    return Representation(V.algebra, rho_d, H_d)


def conjugate_representation(V: Representation, R: RealForm,
                             g: np.ndarray | None = None) -> Representation:
    """J(V): rho_J(a) = conj(rho(abar)) on the conjugate space.  The gram
    H_J = (H rho(g))^T makes the Riesz map H^T a unitary isomorphism onto
    the dual representation; g defaults to the unit."""
    g = V.algebra.unit if g is None else g
    rho_j = np.tensordot(np.conj(R.conj_matrix), np.conj(V.rho), axes=(0, 0))
    H_j = (V.gram @ V.apply(g)).T
    return Representation(V.algebra, rho_j, H_j)
