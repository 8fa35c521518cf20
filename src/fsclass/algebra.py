"""Finite-dimensional *-algebras over the complex numbers, given by structure
constants, together with anti-algebra maps, real forms, dual-structure data
and separability idempotents.

Elements are coordinate vectors over the distinguished basis e_0..e_{n-1}
with e_i e_j = sum_k c[i,j,k] e_k.  The *-involution is antilinear and is
stored as the matrix sigma with (e_i)^* = sum_k sigma[k,i] e_k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadDualStructure, BadStar, BadUnit, NotAntiMap,
                     NotAssociative, NotCStar)
from .linalg import DEFAULT_TOL, Tolerance, dagger, fixed_space_of_antilinear

DENSE_DIM_CAP = 128


class FDStarAlgebra:
    """Associative unital *-algebra from a dense structure tensor.

    Immutable after construction; all methods are pure.
    """

    def __init__(self, structure: np.ndarray, unit: np.ndarray,
                 star: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        structure = np.asarray(structure, dtype=complex)
        n = structure.shape[0]
        if structure.shape != (n, n, n):
            raise ValueError("structure tensor must be n x n x n")
        if n > DENSE_DIM_CAP:
            raise ValueError(f"dimension {n} exceeds the dense cap {DENSE_DIM_CAP}")
        self.dim = n
        self.structure = structure
        self.unit = np.asarray(unit, dtype=complex).reshape(n)
        self.star_matrix = np.asarray(star, dtype=complex).reshape(n, n)
        self.tol = tol
        # left-multiplication matrices L_i = L(e_i), cached for speed
        self._left = np.ascontiguousarray(structure.transpose(0, 2, 1))
        self._validate()

    # --- arithmetic ---

    def mult(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.left_mult(x) @ y

    def products(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """P[p, q] = X[:, p] Y[:, q]: every product of a column of X with a
        column of Y, as a (cols X, cols Y, dim) array."""
        n = self.dim
        XC = (X.T @ self.structure.reshape(n, n * n)).reshape(-1, n, n)
        return Y.T @ XC

    def star(self, x: np.ndarray) -> np.ndarray:
        return self.star_matrix @ np.conj(x)

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x y over the basis."""
        return np.tensordot(x, self._left, axes=(0, 0))

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of x -> x y over the basis."""
        n = self.dim
        return (self._left.reshape(n * n, n) @ y).reshape(n, n).T

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.left_mult(x), self.unit)

    def basis_element(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=complex)
        e[i] = 1.0
        return e

    def regular_trace(self) -> np.ndarray:
        """Vector t with tau(x) = t . x, tau = trace of left multiplication."""
        return np.einsum("iaa->i", self._left)

    # --- validation ---

    def _validate(self):
        c, n = self.structure, self.dim
        eps = self.tol.eps_rank * max(1.0, np.abs(c).max(initial=0.0)) ** 2 * n
        assoc = np.abs(associator(c))
        bad = assoc.max(initial=0.0)
        if bad > eps:
            i, j, k, _ = np.unravel_index(assoc.argmax(), assoc.shape)
            raise NotAssociative(
                f"(e{i} e{j}) e{k} != e{i} (e{j} e{k}), residual {bad:.3e}")
        lm = self.left_mult(self.unit)
        rm = self.right_mult(self.unit)
        eye = np.eye(n)
        if np.abs(lm - eye).max() > eps or np.abs(rm - eye).max() > eps:
            i = int(np.abs(lm - eye).max(axis=0).argmax())
            raise BadUnit(f"unit axiom fails on basis element e{i}")
        # a** = a
        sig = self.star_matrix
        if np.abs(sig @ np.conj(sig) - eye).max() > eps:
            raise BadStar("star is not involutive on the basis")
        # (ab)* = b* a*: (e_i e_j)* = sigma conj(c[i, j]), e_j* = sigma[:, j]
        lhs = np.conj(c) @ sig.T
        rhs = self.products(sig, sig).transpose(1, 0, 2)
        bad_ij = _first_violation(lhs - rhs, eps)
        if bad_ij is not None:
            i, j = bad_ij
            raise BadStar(f"(e{i} e{j})* != e{j}* e{i}*")


def associator(c: np.ndarray) -> np.ndarray:
    """a[i, j, k, :] = (e_i e_j) e_k - e_i (e_j e_k) for the structure
    tensor c, as two GEMMs on c.reshape(n*n, n)."""
    n = c.shape[0]
    flat = c.reshape(n * n, n)
    a = (flat @ c.reshape(n, n * n)).reshape(n, n, n, n)
    # sum_m c[j,k,m] c[i,m,l], computed in (j, k, i, l) order
    a -= (flat @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(
        n, n, n, n).transpose(2, 0, 1, 3)
    return a


def _first_violation(resid: np.ndarray, eps: float) -> tuple[int, ...] | None:
    """Index of the first row resid[..., :], in row-major order, holding an
    entry above eps in absolute value; None when there is none."""
    bad = np.abs(resid).max(axis=-1) > eps
    if not bad.any():
        return None
    return tuple(int(k) for k in np.unravel_index(bad.argmax(), bad.shape))


def build_algebra(structure, unit, star, tol: Tolerance = DEFAULT_TOL,
                  dim: int | None = None) -> FDStarAlgebra:
    """Validated algebra from either a dense tensor or sparse triples.

    Sparse form: structure is an iterable of (i, j, k, value); star is an
    iterable of (i, k, value) meaning (e_i)^* has coefficient value on e_k.
    """
    if isinstance(structure, np.ndarray) and structure.ndim == 3:
        dense = structure
        n = dense.shape[0]
    else:
        if dim is None:
            raise ValueError("dim is required for sparse structure input")
        n = dim
        if n > DENSE_DIM_CAP:
            raise ValueError(f"dimension {n} exceeds the dense cap {DENSE_DIM_CAP}")
        dense = np.zeros((n, n, n), dtype=complex)
        for i, j, k, v in structure:
            dense[i, j, k] += v
    if isinstance(star, np.ndarray) and star.ndim == 2:
        sig = star
    else:
        sig = np.zeros((n, n), dtype=complex)
        for i, k, v in star:
            sig[k, i] += v
    return FDStarAlgebra(dense, unit, sig, tol)


@dataclass(frozen=True)
class AntiAlgebraMap:
    """Linear map S with S(ab) = S(b)S(a) and S(S(a)*)* = a."""

    matrix: np.ndarray

    @staticmethod
    def validated(A: FDStarAlgebra, matrix: np.ndarray) -> "AntiAlgebraMap":
        S = np.asarray(matrix, dtype=complex)
        n = A.dim
        eps = A.tol.eps_eig * max(1.0, np.abs(S).max()) ** 2 * n
        lhs = A.structure @ S.T                       # S(e_i e_j)
        rhs = A.products(S, S).transpose(1, 0, 2)     # S(e_j) S(e_i)
        bad = _first_violation(lhs - rhs, eps)
        if bad is not None:
            i, j = bad
            raise NotAntiMap(f"S(e{i} e{j}) != S(e{j}) S(e{i})")
        # S(S(a)*)* = a, i.e. sigma conj(S) conj(sigma) S = id
        comp = A.star_matrix @ np.conj(S) @ np.conj(A.star_matrix) @ S
        if np.abs(comp - np.eye(n)).max() > eps:
            raise NotAntiMap("S(S(a)*)* != a on the basis")
        return AntiAlgebraMap(S)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def squared(self) -> np.ndarray:
        return self.matrix @ self.matrix


@dataclass(frozen=True)
class RealForm:
    """A real form, stored through its conjugation a -> conj_matrix @ conj(a),
    together with a real basis of the fixed subalgebra."""

    algebra: FDStarAlgebra
    conj_matrix: np.ndarray          # K with abar = K conj(a)
    real_basis: np.ndarray           # complex columns spanning A0 over R

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        return self.conj_matrix @ np.conj(x)

    def contains(self, x: np.ndarray, eps: float | None = None) -> bool:
        eps = self.algebra.tol.eps_eig if eps is None else eps
        return bool(np.abs(self.conjugate(x) - x).max() <= eps * (1 + np.abs(x).max()))


def real_form_from_conjugation(A: FDStarAlgebra, K: np.ndarray) -> RealForm:
    """Real form fixed by the antilinear map a -> K conj(a), which must be
    an involutive algebra conjugation."""
    K = np.asarray(K, dtype=complex)
    n = A.dim
    eps = A.tol.eps_eig * max(1.0, np.abs(K).max()) ** 2 * n
    if np.abs(K @ np.conj(K) - np.eye(n)).max() > eps:
        raise NotAntiMap("conjugation is not involutive")
    lhs = np.conj(A.structure) @ K.T                  # conj(e_i e_j)
    bad = _first_violation(lhs - A.products(K, K), eps)
    if bad is not None:
        i, j = bad
        raise NotAntiMap(f"conjugation is not multiplicative at (e{i}, e{j})")
    basis = fixed_space_of_antilinear(K, A.tol)
    if basis.shape[1] != n:
        raise NotAntiMap(
            f"fixed space of the conjugation has real dimension {basis.shape[1]}, "
            f"expected {n}")
    return RealForm(A, K, basis)


def real_form_from_S(A: FDStarAlgebra, S: AntiAlgebraMap | np.ndarray) -> RealForm:
    """Real form {a : S(a)* = a} of the anti-algebra map S."""
    if not isinstance(S, AntiAlgebraMap):
        S = AntiAlgebraMap.validated(A, S)
    return real_form_from_conjugation(A, A.star_matrix @ np.conj(S.matrix))


def check_cstar(A: FDStarAlgebra) -> tuple[np.ndarray, bool]:
    """Gram matrix G[i,j] = tau(e_i* e_j) of the regular trace form, and
    whether it is Hermitian positive definite (iff A admits a C*-norm)."""
    t = A.regular_trace()
    G = A.star_matrix.T @ (A.structure @ t)
    scale = max(1.0, np.abs(G).max(initial=0.0))
    if np.abs(G - dagger(G)).max(initial=0.0) > A.tol.eps_eig * scale:
        return G, False
    vals = np.linalg.eigvalsh((G + dagger(G)) / 2.0)
    ok = bool(vals.min() > A.tol.eps_eig * scale)
    return G, ok


def is_positive_element(A: FDStarAlgebra, x: np.ndarray,
                        gram: np.ndarray | None = None) -> bool:
    """Positivity (x = a* a for some a), decided in the regular
    *-representation: G L(x) must be Hermitian psd."""
    if gram is None:
        gram, ok = check_cstar(A)
        if not ok:
            raise NotCStar("positivity test requires a C*-able algebra")
    M = gram @ A.left_mult(x)
    scale = max(1.0, np.abs(M).max(initial=0.0))
    if np.abs(M - dagger(M)).max(initial=0.0) > A.tol.eps_eig * scale * 10:
        return False
    vals = np.linalg.eigvalsh((M + dagger(M)) / 2.0)
    return bool(vals.min() >= -A.tol.eps_eig * scale * 10)


@dataclass(frozen=True)
class DualStructureData:
    """Pair (S, g): anti-algebra map with S(g) = g^{-1} and
    S^2(a) = g a g^{-1}."""

    S: AntiAlgebraMap
    g: np.ndarray

    @staticmethod
    def validated(A: FDStarAlgebra, S: AntiAlgebraMap,
                  g: np.ndarray) -> "DualStructureData":
        g = np.asarray(g, dtype=complex).reshape(A.dim)
        eps = A.tol.eps_eig * 100
        try:
            ginv = A.inverse(g)
        except np.linalg.LinAlgError as exc:
            raise BadDualStructure("g is not invertible") from exc
        if np.abs(S.apply(g) - ginv).max() > eps * (1 + np.abs(ginv).max()):
            raise BadDualStructure("S(g) != g^{-1}")
        Lg, Rginv = A.left_mult(g), A.right_mult(ginv)
        conj_g = Rginv @ Lg
        if np.abs(S.squared() - conj_g).max() > eps * (1 + np.abs(conj_g).max()):
            raise BadDualStructure("S^2 is not conjugation by g")
        return DualStructureData(S, g)


@dataclass(frozen=True)
class SeparabilityIdempotent:
    """Pairs (x_m, y_m) with sum x_m y_m = 1 and the centrality identity
    sum (a x_m) (x) y_m = sum x_m (x) (y_m a)."""

    algebra: FDStarAlgebra
    pairs: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def verify(self, eps: float = 1e-8) -> None:
        A, n, c = self.algebra, self.algebra.dim, self.algebra.structure
        X = np.array([x for x, _ in self.pairs], dtype=complex).reshape(-1, n)
        Y = np.array([y for _, y in self.pairs], dtype=complex).reshape(-1, n)
        Z = X.T @ Y          # sum_m x_m (x) y_m as an n x n matrix
        total = Z.reshape(-1) @ c.reshape(n * n, n)
        if np.abs(total - A.unit).max() > eps:
            raise BadDualStructure(
                f"sum x_m y_m misses the unit by {np.abs(total - A.unit).max():.3e}")
        lhs = np.tensordot(c, Z, axes=(1, 0))                      # (e_i x) (x) y
        rhs = np.tensordot(Z, c, axes=(1, 0)).transpose(1, 0, 2)   # x (x) (y e_i)
        bad = _first_violation((lhs - rhs).reshape(n, -1), eps)
        if bad is not None:
            raise BadDualStructure(f"centrality identity fails at basis e{bad[0]}")


def orthonormal_basis(A: FDStarAlgebra, gram: np.ndarray,
                      rotation: np.ndarray | None = None) -> np.ndarray:
    """Columns b_j with b^dagger G b = I; optionally mixed by a unitary."""
    R = np.linalg.cholesky((gram + dagger(gram)) / 2.0).conj().T
    B = np.linalg.inv(R)
    if rotation is not None:
        B = B @ rotation
    return B


def separability_idempotent(A: FDStarAlgebra,
                            rotation: np.ndarray | None = None
                            ) -> SeparabilityIdempotent:
    """Separability idempotent sum e_i (x) e_i^* v^{-1} built from a basis
    orthonormal for the regular trace form; v = sum e_i e_i^* is central."""
    G, ok = check_cstar(A)
    if not ok:
        raise NotCStar("no separability idempotent: algebra is not C*-able")
    B = orthonormal_basis(A, G, rotation)
    cols = [B[:, j] for j in range(A.dim)]
    v = sum(A.mult(x, A.star(x)) for x in cols)
    vinv = A.inverse(v)
    pairs = [(x, A.mult(A.star(x), vinv)) for x in cols]
    E = SeparabilityIdempotent(A, pairs)
    E.verify(eps=A.tol.eps_eig * 100 * max(1.0, float(np.abs(vinv).max())))
    return E


def central_positive_invertible(A: FDStarAlgebra, v: np.ndarray,
                                gram: np.ndarray, eps: float = 1e-8) -> bool:
    """Check that v is central, positive in the regular *-representation
    and invertible."""
    comm = A.left_mult(v) - A.right_mult(v)
    if np.abs(comm).max() > eps * (1 + np.abs(v).max()):
        return False
    if not is_positive_element(A, v, gram):
        return False
    s = np.linalg.svd(A.left_mult(v), compute_uv=False)
    return bool(s[-1] > A.tol.eps_rank * max(1.0, s[0]))
