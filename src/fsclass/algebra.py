"""Finite-dimensional *-algebras over the complex numbers, given by structure
constants, together with anti-algebra maps, real forms, dual-structure data
and separability idempotents.

Elements are coordinate vectors over the distinguished basis e_0..e_{n-1}
with e_i e_j = sum_k c[i,j,k] e_k.  The *-involution is antilinear and is
stored as the matrix sigma with (e_i)^* = sum_k sigma[k,i] e_k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadDualStructure, BadStar, BadUnit, NotAntiMap,
                     NotAssociative, NotCStar, require)
from .linalg import DEFAULT_TOL, Tolerance, dagger, fixed_space_of_antilinear

DENSE_DIM_CAP = 128


def dense_dim(n: int) -> int:
    """n, or ValueError when a dense n x n x n tensor would pass the cap."""
    if n > DENSE_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the dense cap {DENSE_DIM_CAP}")
    return n


class FDStarAlgebra:
    """Associative unital *-algebra from a dense structure tensor.

    Only this module reads the storage (`structure`, `_left`); other
    modules use the methods: the contraction kernels `multiply` (the product
    map m: A (x) A -> A) and `of_products` (its transpose), the L and R
    stacks, `coordinates` and the multiplications below.

    Construction validates associativity, the unit and the star axioms.
    The associativity residual max |(e_i e_j) e_k - e_i (e_j e_k)| is kept
    as `associativity_residual`: the regular representation reuses it as
    its homomorphism residual.  The star-reversal residual
    max |(e_i e_j)* - e_j* e_i*| is kept as `star_reversal_residual`: the
    dual coalgebra reuses it.  `table` is `monomial_table(structure)`,
    computed once and read by every product identity checked against A.
    `trace_form` is `check_cstar(A)`, kept.  Immutable after construction
    (`_left` and the trace-form Gram are read-only, so the regular
    representation shares them); all methods are pure.
    """

    def __init__(self, structure: np.ndarray, unit: np.ndarray,
                 star: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        structure = np.asarray(structure, dtype=complex)
        n = structure.shape[0]
        if structure.shape != (n, n, n):
            raise ValueError("structure tensor must be n x n x n")
        self.dim = dense_dim(n)
        self.structure = structure
        self.unit = np.asarray(unit, dtype=complex).reshape(n)
        self.star_matrix = np.asarray(star, dtype=complex).reshape(n, n)
        self.tol = tol
        # left-multiplication matrices L_i = L(e_i), cached for speed
        self._left = np.ascontiguousarray(structure.transpose(0, 2, 1))
        self._left.flags.writeable = False
        self._validate()

    # --- arithmetic ---

    def multiply(self, Z: np.ndarray) -> np.ndarray:
        """m(Z) = sum_jk Z[j, k] e_j e_k, Z in A (x) A as an n x n matrix."""
        return Z.reshape(-1) @ self.structure.reshape(self.dim ** 2, -1)

    def of_products(self, X: np.ndarray) -> np.ndarray:
        """X(e_i e_j) for every pair (i, j), as (n, n, ...), for X a vector
        or an (n, ...) map: the transpose of `multiply`."""
        n = self.dim
        flat = self.structure.reshape(n * n, n) @ X.reshape(n, -1)
        return flat.reshape(n, n, *X.shape[1:])

    def left_stack(self) -> np.ndarray:
        """L(e_i) for every i: A's own read-only (n, n, n) stack."""
        return self._left

    def right_stack(self) -> np.ndarray:
        """R(e_j)[k, i] = c[i, j, k] for every j, as an (n, n, n) view."""
        return self.structure.transpose(1, 2, 0)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """`nonzero_coordinates` of the structure tensor."""
        return nonzero_coordinates(self.structure, self.table)

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

    @cached_property
    def trace_form(self) -> tuple[np.ndarray, bool]:
        """`check_cstar(self)`, kept: the read-only Gram of the regular
        trace form and whether it is positive definite."""
        G, ok = check_cstar(self)
        G.flags.writeable = False
        return G, ok

    @cached_property
    def separability_idempotent(self) -> "SeparabilityIdempotent":
        """`separability_idempotent(self)`, kept, with a read-only tensor."""
        E = separability_idempotent(self)
        E.tensor.flags.writeable = False
        return E

    # --- validation ---

    def _validate(self):
        c, n = self.structure, self.dim
        self.table = monomial_table(c)
        # the largest |c| is the largest |v| when c is monomial
        coeffs = c if self.table is None else self.table[1]
        eps = self.tol.eps_rank * max(1.0, np.abs(coeffs).max(initial=0.0)) ** 2 * n
        bad, (i, j, k) = associator_residual(c, self.table)
        self.associativity_residual = bad
        require(NotAssociative, f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})",
                bad, eps)
        # column i: |1 e_i - e_i| and |e_i 1 - e_i|
        eye = np.eye(n)
        require(BadUnit, "unit axiom fails on basis element e{}", np.maximum(
            np.abs(self.left_mult(self.unit) - eye).max(axis=0),
            np.abs(self.right_mult(self.unit) - eye).max(axis=0)), eps)
        # a** = a
        sig = self.star_matrix
        require(BadStar, "star is not involutive on the basis",
                np.abs(sig @ np.conj(sig) - eye).max(), eps)
        # (ab)* = b* a*: (e_i e_j)* = sigma conj(c[i, j]), e_j* = sigma[:, j]
        resid = product_map_residual(self, sig, conj=True)
        self.star_reversal_residual = float(resid.max(initial=0.0))
        require(BadStar, "(e{0} e{1})* != e{1}* e{0}*", resid, eps)


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


def monomial_table(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Index table (T, v) of a monomial structure tensor, e_i e_j =
    v[i, j] e_T[i, j] (T = 0, v = 0 where the product vanishes); None when
    some product has two or more nonzero coefficients.  Reads the one
    boolean mask c != 0, with no float copy of c."""
    mask = c != 0
    if not (np.count_nonzero(mask, axis=2) <= 1).all():
        return None
    T = mask.argmax(axis=2)
    return T, np.take_along_axis(c, T[..., None], axis=2)[..., 0]


def nonzero_coordinates(c: np.ndarray, table: tuple | None
                        ) -> tuple[np.ndarray, ...]:
    """(i, j, k, c[i, j, k]) over the nonzero entries of c, row-major: read
    off the index table `monomial_table(c)` when there is one."""
    if table is None:
        i, j, k = np.nonzero(c)
        return i, j, k, c[i, j, k]
    T, v = table
    i, j = np.nonzero(v)
    return i, j, T[i, j], v[i, j]


def _monomial_gap(at_a, a, at_b, b) -> np.ndarray:
    """max |a e_at_a - b e_at_b| over the coordinates, elementwise: |a - b|
    where the positions agree, max(|a|, |b|) where they differ."""
    same = at_a == at_b
    if same.all():
        return np.abs(a - b)
    return np.where(same, np.abs(a - b), np.maximum(np.abs(a), np.abs(b)))


def _ragged(counts: np.ndarray, rows: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the rows `rows` of a CSR layout with row lengths
    `counts`, and the positions of their entries, row after row."""
    ptr = np.concatenate(([0], np.cumsum(counts)))
    starts, lengths = ptr.take(rows), counts.take(rows)
    skip = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return lengths, np.arange(len(skip)) + skip


def table_associator_residual(table: tuple[np.ndarray, np.ndarray]
                              ) -> tuple[float, tuple[int, int, int]]:
    """`associator_residual` of the monomial tensor with index table
    (T, v), visiting only the triples where a side is nonzero.

    (e_i e_j) e_k = v[i, j] v[m, k] e_T[m, k], m = T[i, j], can be nonzero
    only where v[i, j] and v[m, k] are: for each nonzero pair (i, j), k
    runs over the nonzeros of row m of v, which visits those triples in
    row-major order.  e_i (e_j e_k) = v[j, k] v[i, m] e_T[i, m],
    m = T[j, k], is read at the same triples.  Off both supports both
    sides vanish, and each product is formed as in the dense associator
    (one nonzero term per sum), so the maximum and its first (i, j, k) are
    the dense ones.

    A triple where only e_i (e_j e_k) is nonzero breaks associativity, so
    only a faulty table has one (a product set to zero, say).  Those
    triples are enumerated from the columns of v only when an O(n^2) count
    says they exist: the triples where the right side can be nonzero
    outnumber those among the visited ones.  Where every product is
    nonzero (group algebras: n^3 triples) enumerating the right side as
    well would double the cost for nothing.
    """
    T, v = table
    n = len(T)
    Tf, vf, nz = T.ravel(), v.ravel(), (v != 0).ravel()
    pi, pj = np.nonzero(v)            # the nonzero pairs, row-major: CSR of v
    pf = pi * n + pj
    pm, pv = Tf.take(pf), vf.take(pf)
    # left side: k over row m = T[i, j] of v, at CSR positions `at`
    cnt, at = _ragged(np.count_nonzero(v, axis=1), pm)
    k = pj.take(at)
    jk = np.repeat(pj * n, cnt) + k
    im = np.repeat(pi * n, cnt) + Tf.take(jk)
    right = vf.take(jk) * vf.take(im)
    resid = _monomial_gap(pm.take(at), np.repeat(pv, cnt) * pv.take(at),
                          Tf.take(im), right)
    # right side alone: i over column m = T[j, k] of v, off the left support
    col_nnz, extra = np.count_nonzero(v, axis=0), None
    if col_nnz.take(pm).sum() > np.count_nonzero(right):
        col_cnt, at = _ragged(col_nnz, pm)
        i, jk = np.nonzero(v.T)[1].take(at), np.repeat(pf, col_cnt)
        ij = i * n + jk // n
        off = ~(nz.take(ij) & nz.take(Tf.take(ij) * n + jk % n))
        i, jk = i[off], jk[off]
        resid = np.concatenate(
            (resid, np.abs(vf.take(jk) * vf.take(i * n + Tf.take(jk)))))
        extra = i * n * n + jk
    bad = float(resid.max(initial=0.0))
    if bad == 0:
        return bad, (0, 0, 0)
    flat = np.repeat(pf * n, cnt) + k     # i n^2 + j n + k, in visiting order
    if extra is not None:
        flat = np.concatenate((flat, extra))
    # the first NaN when there is one, as in the dense argmax
    at = np.isnan(resid) if np.isnan(bad) else resid == bad
    i, j, k = np.unravel_index(int(flat[at].min()), (n, n, n))
    return bad, (int(i), int(j), int(k))


def associator_residual(c: np.ndarray, table: tuple | None = None
                        ) -> tuple[float, tuple[int, int, int]]:
    """max over i, j, k, l of |associator(c)[i, j, k, l]|, and the first
    (i, j, k), in row-major order, where it is reached.

    `table` is `monomial_table(c)`, computed here when not given.  When c is
    monomial, `table_associator_residual` reads both products off the index
    table, only on the triples where one of them is nonzero (n^2 of the n^3
    for a Drinfeld double, all n^3 for a group algebra); any other c goes
    through the dense associator, one n^3 slab associator(c)[i] at a time.
    """
    table = monomial_table(c) if table is None else table
    if table is not None:
        return table_associator_residual(table)
    n = c.shape[0]
    flat, wide = c.reshape(n * n, n), c.reshape(n, n * n)
    resid = np.empty((n, n, n))
    for i in range(n):
        # (e_i e_j) e_k - e_i (e_j e_k) at [j, k, :], as in `associator`
        slab = (c[i] @ wide).reshape(n, n, n)
        slab -= (flat @ c[i]).reshape(n, n, n)
        resid[i] = np.abs(slab).max(axis=2)
    i, j, k = np.unravel_index(resid.argmax(), resid.shape)
    return float(resid[i, j, k]), (int(i), int(j), int(k))


def product_map_residual(A: FDStarAlgebra, M: np.ndarray, conj: bool = False,
                         reverse: bool = True) -> np.ndarray:
    """r[i, j] = max_l |M(x_ij) - M(e_a) M(e_b)|_l, x_ij = e_i e_j (conjugated
    when conj), (a, b) = (j, i) if reverse else (i, j).  Read off index arrays
    in O(n^2) when A.table exists and M(e_i) = m[i] e_P[i] (one nonzero per
    column: sigma, S and K of groups, groupoids, doubles); else dense GEMMs."""
    n = A.dim
    if A.table is not None and (np.count_nonzero(M, axis=0) <= 1).all():
        T, v = A.table
        P = np.abs(M).argmax(axis=0)
        m = M[P, np.arange(n)]
        a, b = np.ogrid[:n, :n][::-1] if reverse else np.ogrid[:n, :n]
        return _monomial_gap(P[T], (np.conj(v) if conj else v) * m[T],
                             T[P[a], P[b]], m[b] * (m[a] * v[P[a], P[b]]))
    # conj(c) @ X = conj(c @ conj(X)): no conjugated copy of c
    lhs = np.conj(A.of_products(np.conj(M.T))) if conj else A.of_products(M.T)
    rhs = A.products(M, M)
    return np.abs(lhs - (rhs.transpose(1, 0, 2) if reverse else rhs)).max(axis=2)


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
        n = dense_dim(dim)
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
        require(NotAntiMap, "S(e{0} e{1}) != S(e{1}) S(e{0})",
                product_map_residual(A, S), eps)
        # S(S(a)*)* = a, i.e. sigma conj(S) conj(sigma) S = id
        comp = A.star_matrix @ np.conj(S) @ np.conj(A.star_matrix) @ S
        require(NotAntiMap, "S(S(a)*)* != a on the basis",
                np.abs(comp - np.eye(n)).max(), eps)
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
    require(NotAntiMap, "conjugation is not involutive",
            np.abs(K @ np.conj(K) - np.eye(n)).max(), eps)
    require(NotAntiMap, "conjugation is not multiplicative at (e{}, e{})",
            product_map_residual(A, K, conj=True, reverse=False), eps)
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
    G = A.star_matrix.T @ A.of_products(t)
    scale = max(1.0, np.abs(G).max(initial=0.0))
    if np.abs(G - dagger(G)).max(initial=0.0) > A.tol.eps_eig * scale:
        return G, False
    vals = np.linalg.eigvalsh((G + dagger(G)) / 2.0)
    ok = bool(vals.min() > A.tol.eps_eig * scale)
    return G, ok


def is_positive_element(A: FDStarAlgebra, x: np.ndarray) -> bool:
    """Positivity (x = a* a for some a), decided in the regular
    *-representation: G L(x) must be Hermitian psd, G = A.trace_form."""
    gram, ok = A.trace_form
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
        require(BadDualStructure, "S(g) != g^{{-1}}",
                np.abs(S.apply(g) - ginv).max(), eps * (1 + np.abs(ginv).max()))
        Lg, Rginv = A.left_mult(g), A.right_mult(ginv)
        conj_g = Rginv @ Lg
        require(BadDualStructure, "S^2 is not conjugation by g",
                np.abs(S.squared() - conj_g).max(),
                eps * (1 + np.abs(conj_g).max()))
        return DualStructureData(S, g)


@dataclass(frozen=True)
class SeparabilityIdempotent:
    """E = sum_jk tensor[j, k] e_j (x) e_k = sum_m x_m (x) y_m, with m(E) = 1
    and the centrality identity sum (a x_m) (x) y_m = sum x_m (x) (y_m a)."""

    algebra: FDStarAlgebra
    tensor: np.ndarray

    @cached_property
    def residuals(self) -> tuple[float, np.ndarray]:
        """|m(E) - 1| and, per e_i, max |(e_i x_m) (x) y_m - x_m (x) (y_m e_i)|:
        the one kernel of both identities, run on first use and kept."""
        A, Z, c = self.algebra, self.tensor, self.algebra.structure
        lhs = np.tensordot(c, Z, axes=(1, 0))                      # (e_i x) (x) y
        rhs = np.tensordot(Z, c, axes=(1, 0)).transpose(1, 0, 2)   # x (x) (y e_i)
        return (float(np.abs(A.multiply(Z) - A.unit).max()),
                np.abs(lhs - rhs).reshape(A.dim, -1).max(axis=1))

    def verify(self, eps: float = 1e-8) -> None:
        unit_gap, central = self.residuals
        require(BadDualStructure, "sum x_m y_m misses the unit", unit_gap, eps)
        require(BadDualStructure, "centrality identity fails at basis e{}",
                central, eps)


def orthonormal_basis(A: FDStarAlgebra, gram: np.ndarray,
                      rotation: np.ndarray | None = None) -> np.ndarray:
    """Columns b_j with b^dagger G b = I; optionally mixed by a unitary."""
    R = np.linalg.cholesky((gram + dagger(gram)) / 2.0).conj().T
    B = np.linalg.inv(R)
    if rotation is not None:
        B = B @ rotation
    return B


def central_sum(A: FDStarAlgebra, B: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j b_j a b_j^* over the columns b_j of B.  Central when B is
    orthonormal for the trace form: sum_j b_j (x) b_j^* then commutes with
    every element of A."""
    return A.multiply(A.right_mult(a) @ B @ A.star(B).T)


def separability_idempotent(A: FDStarAlgebra,
                            rotation: np.ndarray | None = None
                            ) -> SeparabilityIdempotent:
    """The one symmetric separability idempotent (Aguiar 2000), sum_j b_j
    (x) b_j^* over the columns b_j of a basis B orthonormal for the regular
    trace form.  Its product sum_j b_j b_j^* is 1 for any such basis: on a
    block M_d it is sum_ij (1/d) f_ij f_ji."""
    G, ok = A.trace_form
    if not ok:
        raise NotCStar("no separability idempotent: algebra is not C*-able")
    B = orthonormal_basis(A, G, rotation)
    E = SeparabilityIdempotent(A, B @ A.star(B).T)
    E.verify(eps=A.tol.eps_eig * 100)
    return E


def central_positive_invertible(A: FDStarAlgebra, v: np.ndarray,
                                eps: float = 1e-8) -> bool:
    """Check that v is central, positive in the regular *-representation
    and invertible."""
    comm = A.left_mult(v) - A.right_mult(v)
    if np.abs(comm).max() > eps * (1 + np.abs(v).max()):
        return False
    if not is_positive_element(A, v):
        return False
    s = np.linalg.svd(A.left_mult(v), compute_uv=False)
    return bool(s[-1] > A.tol.eps_rank * max(1.0, s[0]))
