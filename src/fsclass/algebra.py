"""Finite-dimensional *-algebras over the complex numbers, given by structure
constants, together with anti-algebra maps, real forms (each stored as its
conjugation), dual-structure data and separability idempotents.

Elements are coordinate vectors over the distinguished basis e_0..e_{n-1}
with e_i e_j = sum_k c[i,j,k] e_k.  An algebra is stored either as that
dense tensor c or, when every product is a multiple of one basis element
(groups, groupoids, Drinfeld doubles and their dual coalgebras), as the
index table (T, v) with e_i e_j = v[i, j] e_T[i, j]; see `FDStarAlgebra`.
The *-involution is antilinear and is stored as the matrix sigma with
(e_i)^* = sum_k sigma[k,i] e_k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadDualStructure, BadStar, BadUnit, NotAntiMap,
                     NotAssociative, NotCStar, require)
from .linalg import DEFAULT_TOL, Tolerance, dagger, gram_basis

DENSE_DIM_CAP = 128
GENERATOR_DIM = 64   # tables from this dimension on find `generators` rows


def dense_dim(n: int) -> int:
    """n, or ValueError when a dense n x n x n tensor would pass the cap."""
    if n > DENSE_DIM_CAP:
        raise ValueError(f"dimension {n} exceeds the dense cap {DENSE_DIM_CAP}")
    return n


class FDStarAlgebra:
    """Associative unital *-algebra, stored in one of two forms:

    - monomial: the index table `table` = (T, v), e_i e_j = v[i, j]
      e_T[i, j] (T = 0, v = 0 where the product vanishes).  The group,
      groupoid and double constructors hand it over as it is, and a dense
      tensor that `monomial_table` finds monomial is read through it too.
      The dense `structure` is then a read-only view built on first read,
      by tests and the dense fallbacks below only;
    - dense (`table` is None): the n x n x n tensor `structure`, c, with
      e_i e_j = sum_k c[i, j, k] e_k.

    Only this module reads the storage (`structure`, `table`); other
    modules use the methods: the contraction kernels `multiply` (the
    product map m: A (x) A -> A) and `of_products` (its transpose),
    `coordinates`, the multiplications below, `regular_trace` and
    `regular_star_residual`: all the regular representation reads, so no
    stack of its matrices L(e_i) is stored.  With a table, `of_products` is
    a gather, v X[T]; `multiply`, `left_mult` and `right_mult` are O(n^2)
    scatters; `regular_trace` and `coordinates` are read off it.
    Associativity is checked on the triples where a product is nonzero
    (`table_associator_residual`).  The star-reversal check, the regular
    representation's star check and the centrality residuals of a
    separability idempotent compare coordinate lists of O(n^2) entries when
    their other operand (sigma, the gram, E's tensor) is monomial too;
    otherwise they run the dense forms.  Each entry they compare is one
    product, as in the dense contractions, so with real coefficients (every
    constructor's) the residuals are the dense ones bit for bit.  Only
    `products`, which serves a non-monomial map, always reads c.

    Construction validates associativity, the unit and the star axioms.
    The associativity residual max |(e_i e_j) e_k - e_i (e_j e_k)| is kept
    as `associativity_residual` and max |c| as `max_coefficient`: the
    regular representation reuses them as its homomorphism residual and
    its largest entry.  The star-reversal residual
    max |(e_i e_j)* - e_j* e_i*| is kept as `star_reversal_residual`: the
    dual coalgebra reuses it.  `trace_form` is `check_cstar(A)`, kept, and
    `orthonormal_basis` its factored form.  Immutable after construction
    (the trace-form Gram and its basis are read-only, so the regular
    representation shares them); all methods are pure.
    """

    def __init__(self, structure: np.ndarray | tuple[np.ndarray, np.ndarray],
                 unit: np.ndarray, star: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL):
        """structure: the dense tensor c, or the index table (T, v) of a
        monomial one."""
        if isinstance(structure, tuple):
            T, v = structure
            v = np.asarray(v, dtype=complex)
            n = v.shape[0]
            if v.shape != (n, n) or np.shape(T) != (n, n):
                raise ValueError("index table must be n x n")
            T = np.where(v != 0, np.asarray(T, dtype=np.intp), 0)
            if T.min(initial=0) < 0 or T.max(initial=0) >= n:
                raise ValueError("index table entries must lie in range(n)")
            self.dim = dense_dim(n)
            self.table = T, v
        else:
            structure = np.asarray(structure, dtype=complex)
            n = structure.shape[0]
            if structure.shape != (n, n, n):
                raise ValueError("structure tensor must be n x n x n")
            self.dim = dense_dim(n)
            self.structure = structure
            self.table = monomial_table(structure)
        self.unit = np.asarray(unit, dtype=complex).reshape(n)
        self.star_matrix = np.asarray(star, dtype=complex).reshape(n, n)
        self.tol = tol
        self._validate()

    @cached_property
    def structure(self) -> np.ndarray:
        """The dense tensor c, built from the table on first read when the
        algebra was given one (c[i, j] = v[i, j] e_T[i, j]); read-only."""
        c = self.of_products(np.eye(self.dim))
        c.flags.writeable = False
        return c

    # --- arithmetic ---

    def multiply(self, Z: np.ndarray) -> np.ndarray:
        """m(Z) = sum_jk Z[j, k] e_j e_k, Z in A (x) A as an n x n matrix."""
        if self.table is None:
            return Z.reshape(-1) @ self.structure.reshape(self.dim ** 2, -1)
        T, v = self.table
        return _scatter_add(T.ravel(), (Z.reshape(v.shape) * v).ravel(),
                            self.dim)

    def of_products(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        """X(e_i e_j) for the i of rows (all by default) and every j, for X a
        vector or an (n, ...) map: the transpose of `multiply`."""
        n = self.dim
        if self.table is None:
            flat = self.structure[rows].reshape(-1, n) @ X.reshape(n, -1)
        else:
            T, v = (x[rows] for x in self.table)
            flat = v.reshape(-1, 1) * X.reshape(n, -1)[T.ravel()]
        return flat.reshape(-1, n, *X.shape[1:])

    def left_stack(self) -> np.ndarray:
        """L(e_i)[k, j] = c[i, j, k] for every i: a read-only (n, n, n) view
        of `structure`, for tests and generic callers."""
        view = self.structure.transpose(0, 2, 1)
        view.flags.writeable = False
        return view

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """(i, j, k, c[i, j, k]) over the nonzero entries of the structure
        tensor c, row-major: read off `table` when there is one."""
        if self.table is None:
            c = self.structure
            i, j, k = np.nonzero(c)
            return i, j, k, c[i, j, k]
        T, v = self.table
        i, j = np.nonzero(v)
        return i, j, T[i, j], v[i, j]

    def products(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """P[p, q] = X[:, p] Y[:, q]: every product of a column of X with a
        column of Y, as a (cols X, cols Y, dim) array."""
        n = self.dim
        XC = (X.T @ self.structure.reshape(n, n * n)).reshape(-1, n, n)
        return Y.T @ XC

    def star(self, x: np.ndarray) -> np.ndarray:
        return transpose_times(self.star_matrix.T, np.conj(x))

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x y over the basis."""
        if self.table is None:   # sum_i x_i c[i, j, k] at (k, j)
            return np.tensordot(x, self.structure, axes=(0, 0)).T
        T, v = self.table   # x_i v[i, j] at (T[i, j], j)
        n = self.dim
        return _scatter_add((T * n + np.arange(n)).ravel(),
                            (x[:, None] * v).ravel(), n * n).reshape(n, n)

    def right_mult(self, y: np.ndarray) -> np.ndarray:
        """Matrix of x -> x y over the basis."""
        if self.table is None:   # sum_j c[i, j, k] y_j at (k, i), no copy of c
            return (self.structure.transpose(0, 2, 1) @ y).T
        T, v = self.table   # v[i, j] y_j at (T[i, j], i)
        n = self.dim
        return _scatter_add((T * n + np.arange(n)[:, None]).ravel(),
                            (v * y).ravel(), n * n).reshape(n, n)

    def regular_trace(self) -> np.ndarray:
        """Vector t with tau(x) = t . x, tau = trace of left multiplication."""
        if self.table is None:
            return np.einsum("iaa->i", self.structure)
        T, v = self.table
        return np.where(T == np.arange(self.dim), v, 0).sum(axis=1)

    def regular_star_residual(self, H: np.ndarray) -> float:
        """`star_residual` of the regular representation with gram H,
        max |L(e_i)^dagger H - H L(e_i*)|.  Read off the table, as two
        coordinate lists of n^2 entries, when sigma and H are monomial
        (e_i* = s_i e_P[i]; H has one nonzero per row, at Qr[k], and per
        column, at Qc[k]): row j of L(e_i)^dagger H is conj(v[i, j])
        H[T[i, j]], one entry, at column Qr[T[i, j]], and column l of
        H L(e_i*) is H[:, k] s_i v[P[i], l], k = T[P[i], l], one entry, at
        row Qc[k].  Each is the one product of the dense entry, so the
        residual is the dense one bit for bit."""
        columns = [_monomial_columns(M) for M in (self.star_matrix, H, H.T)]
        if self.table is None or any(x is None for x in columns):
            return star_residual(self.structure.transpose(0, 2, 1),
                                 self.star_matrix, H)
        (T, v), ((P, s), (Qc, hc), (Qr, hr)) = self.table, columns
        n = self.dim
        i, j = np.divmod(np.arange(n * n), n)
        k = T[P].ravel()                      # [i, l], l = j
        lhs = (i, j * n + Qr[T].ravel(), (np.conj(v) * hr[T]).ravel())
        rhs = (i, Qc[k] * n + j, hc[k] * (s[:, None] * v[P]).ravel())
        return float(_coo_gap(lhs, rhs, n * n)[1].max(initial=0.0))

    @cached_property
    def trace_form(self) -> tuple[np.ndarray, bool]:
        """`check_cstar(self)`, kept: the read-only Gram of the regular
        trace form and whether it is positive definite."""
        G, ok = check_cstar(self)
        G.flags.writeable = False
        return G, ok

    @cached_property
    def orthonormal_basis(self) -> np.ndarray:
        """`gram_basis` of the trace form G, kept: b^dagger G b = I.  Read
        it only when G is positive definite."""
        return gram_basis(self.trace_form[0])

    @cached_property
    def separability_idempotent(self) -> "SeparabilityIdempotent":
        """`separability_idempotent(self)`, kept, with a read-only tensor."""
        E = separability_idempotent(self)
        E.tensor.flags.writeable = False
        return E

    @cached_property
    def generators(self) -> tuple[np.ndarray | slice, int, float]:
        """(S, L, m): basis rows S with every basis element in S or e_k =
        s e_k' / v[s, k'], s in S, e_k' a step nearer S, in at most L steps,
        and m = min |v| over the nonzero v, by a greedy closure on the table:
        S takes the unreached row whose left products reach most unreached
        elements.  Every row, L = 1, when dense or n < GENERATOR_DIM: there
        the n^2 products cost less than the closure (D(S3), n = 36)."""
        if self.table is None or self.dim < GENERATOR_DIM:
            return slice(None), 1, 1.0
        (T, v), n = self.table, self.dim
        T = np.where(v != 0, T, n)   # a zero product lands on n, never new
        depth, S = np.zeros(n + 1, int), []
        while not depth[:n].all():
            R = np.flatnonzero(depth[:n])
            gain = np.count_nonzero(depth[T[:, R]] == 0, axis=1)
            S.append(int(np.where(depth[:n] > 0, -1, gain).argmax()))
            rows = np.array(S)
            depth[:n], depth[n], front, level = 0, -1, rows, 1
            while len(front):   # breadth first: level letters reach e_k
                depth[front] = level
                hit = np.zeros(n + 1, bool)
                hit[T[rows[:, None], front]] = True
                front, level = np.flatnonzero(hit & (depth == 0)), level + 1
        return rows, level - 1, float(np.abs(v[v != 0]).min())

    # --- validation ---

    def _validate(self):
        n, table = self.dim, self.table
        eye, u = np.eye(n), self.unit
        # row j of left and of right: 1 e_j and e_j 1
        left, right = self.left_mult(u).T, self.right_mult(u).T
        c = self.structure if table is None else None   # max |c| = max |v|
        self.max_coefficient = np.abs(c if table is None else table[1]).max(
            initial=0.0)
        eps = self.tol.eps_rank * max(1.0, self.max_coefficient) ** 2 * n
        bad, (i, j, k) = associator_residual(c, table)
        self.associativity_residual = bad
        require(NotAssociative, f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})",
                bad, eps)
        require(BadUnit, "unit axiom fails on basis element e{}", np.maximum(
            np.abs(left - eye).max(axis=1), np.abs(right - eye).max(axis=1)),
            eps)
        # a** = a
        sig = self.star_matrix
        require(BadStar, "star is not involutive on the basis",
                np.abs(self.star(sig) - eye).max(), eps)
        # (ab)* = b* a*: (e_i e_j)* = sigma conj(c[i, j]), e_j* = sigma[:, j]
        resid = product_map_residual(self, sig, conj=True)
        self.star_reversal_residual = float(resid.max(initial=0.0))
        require(BadStar, "(e{0} e{1})* != e{1}* e{0}*", resid, eps)


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


def _scatter_add(index: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """out[index[r]] += w[r] for r in order, into a complex vector of
    length size: one `np.bincount` per part."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, w.real, size)
    out.imag = np.bincount(index, w.imag, size)
    return out


def _monomial_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(P, m) with M[:, i] = m[i] e_P[i] when every column of M has at most
    one nonzero (sigma, S and K of groups, groupoids and doubles); else
    None."""
    nz = M != 0   # one pass over M; bools count faster than complex entries
    P = nz.argmax(axis=0)
    m = M[P, np.arange(M.shape[1])]   # each nonzero of M is one of m exactly
    return (P, m) if np.count_nonzero(nz) == np.count_nonzero(m) else None


def transpose_times(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M^T X, X a vector or a matrix of n rows: the gather m[i] X[P[i]] when
    M[:, i] = m[i] e_P[i] (sigma, S, K and E on table inputs), each entry
    the one product of the dense sum, bit for bit on real entries."""
    columns = _monomial_columns(M)
    if columns is None:
        return M.T @ X
    P, m = columns
    return m.reshape(-1, *[1] * (X.ndim - 1)) * X[P]


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


def _coo_sum(i, j, v, size: int) -> tuple[np.ndarray, ...]:
    """The coordinate list (i, j, v), every index below size, with the
    values at equal (i, j) summed, in row-major order."""
    key = i * size + j
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    start = np.flatnonzero(first)
    key = key[start]
    return key // size, key % size, np.add.reduceat(v[order], start)


def _coo_gap(a: tuple, b: tuple, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, |a - b|) at every (i, j) of either coordinate list (i, j, value),
    in row-major order: `_coo_sum` of a and of minus b, so where each list
    holds (i, j) once the gap is |x - y| where both do and |x| or |y|
    where one does, as in a dense difference."""
    i, _, gap = _coo_sum(*map(np.concatenate, zip(a, (b[0], b[1], -b[2]))),
                         size)
    return i, np.abs(gap)


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
    """max over i, j, k, l of |((e_i e_j) e_k - e_i (e_j e_k))_l|, and the
    first (i, j, k), in row-major order, where it is reached.

    `table` is `monomial_table(c)`, computed here when not given; c is not
    read when it is given.  When c is monomial, `table_associator_residual`
    reads both products off the index table, only on the triples where one
    of them is nonzero (n^2 of the n^3 for a Drinfeld double, all n^3 for
    a group algebra); any other c goes through the dense associator, one
    n^3 slab (fixed i) at a time.
    """
    table = monomial_table(c) if table is None else table
    if table is not None:
        return table_associator_residual(table)
    n = c.shape[0]
    flat, wide = c.reshape(n * n, n), c.reshape(n, n * n)
    resid = np.empty((n, n, n))
    for i in range(n):
        # (e_i e_j) e_k - e_i (e_j e_k) at [j, k, :]
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
    n, columns = A.dim, _monomial_columns(M)
    if A.table is not None and columns is not None:
        (T, v), (P, m) = A.table, columns
        a, b = np.ogrid[:n, :n][::-1] if reverse else np.ogrid[:n, :n]
        return _monomial_gap(P[T], (np.conj(v) if conj else v) * m[T],
                             T[P[a], P[b]], m[b] * (m[a] * v[P[a], P[b]]))
    # conj(c) @ X = conj(c @ conj(X)): no conjugated copy of c
    lhs = np.conj(A.of_products(np.conj(M.T))) if conj else A.of_products(M.T)
    rhs = A.products(M, M)
    return np.abs(lhs - (rhs.transpose(1, 0, 2) if reverse else rhs)).max(axis=2)


def star_residual(rho: np.ndarray, sigma: np.ndarray, H: np.ndarray) -> float:
    """max |rho(e_i)^dagger H - H rho(e_i*)| over i and entries, where
    rho(e_i*) = sum_k sigma[k, i] rho(e_k): the star check of a
    representation with gram H, as batched products."""
    star_rho = transpose_times(sigma, rho.reshape(len(rho), -1))
    gap = np.conj(rho).transpose(0, 2, 1) @ H - H @ star_rho.reshape(rho.shape)
    return float(np.abs(gap).max(initial=0.0))


def build_algebra(structure, unit, star,
                  tol: Tolerance = DEFAULT_TOL) -> FDStarAlgebra:
    """Validated algebra from a dense structure tensor, unit and star
    matrix; `io.load_algebra_v1` parses the sparse file format into them."""
    return FDStarAlgebra(structure, unit, star, tol)


@dataclass(frozen=True, eq=False)
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
        # S(S(a)*)* = a, i.e. K conj(K) = id for K = sigma conj(S)
        K = A.star(S)
        require(NotAntiMap, "S(S(a)*)* != a on the basis",
                np.abs(transpose_times(K.T, np.conj(K)) - np.eye(n)).max(), eps)
        return AntiAlgebraMap(S)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def squared(self) -> np.ndarray:
        return transpose_times(self.matrix.T, self.matrix)


@dataclass(frozen=True, eq=False)
class RealForm:
    """A real form A0 = {a : abar = a}, stored as its conjugation
    a -> conj_matrix @ conj(a) alone: A0 enters only through abar."""

    algebra: FDStarAlgebra
    conj_matrix: np.ndarray          # K with abar = K conj(a)

    @cached_property
    def anti_matrix(self) -> np.ndarray:
        """sigma conj(K) = `star` of K's columns: the anti-algebra map S
        with abar = S(a)*, whose real form this is."""
        return self.algebra.star(self.conj_matrix)


def real_form_from_conjugation(A: FDStarAlgebra, K: np.ndarray) -> RealForm:
    """Real form fixed by the antilinear map a -> K conj(a), which must be
    an involutive algebra conjugation, applied by gather when monomial.  Its
    fixed space has real dimension n: x = (x + K conj x)/2 + i (x - K conj
    x)/(2i), both parts fixed."""
    K = np.asarray(K, dtype=complex)
    n = A.dim
    eps = A.tol.eps_eig * max(1.0, np.abs(K).max()) ** 2 * n
    require(NotAntiMap, "conjugation is not involutive", np.abs(
        transpose_times(np.conj(K), K.T).T - np.eye(n)).max(), eps)
    require(NotAntiMap, "conjugation is not multiplicative at (e{}, e{})",
            product_map_residual(A, K, conj=True, reverse=False), eps)
    return RealForm(A, K)


def real_form_from_S(A: FDStarAlgebra, S: AntiAlgebraMap | np.ndarray) -> RealForm:
    """Real form {a : S(a)* = a} of the anti-algebra map S."""
    if not isinstance(S, AntiAlgebraMap):
        S = AntiAlgebraMap.validated(A, S)
    K = A.star(S.matrix)   # sigma conj(S)
    return real_form_from_conjugation(A, K)


def check_cstar(A: FDStarAlgebra) -> tuple[np.ndarray, bool]:
    """Gram matrix G[i,j] = tau(e_i* e_j) of the regular trace form, and
    whether it is Hermitian positive definite (iff A admits a C*-norm)."""
    G = transpose_times(A.star_matrix, A.of_products(A.regular_trace()))
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


@dataclass(frozen=True, eq=False)
class DualStructureData:
    """Pair (S, g): anti-algebra map with S(g) = g^{-1} and
    S^2(a) = g a g^{-1}."""

    S: AntiAlgebraMap
    g: np.ndarray

    @staticmethod
    def validated(A: FDStarAlgebra, S: AntiAlgebraMap,
                  g: np.ndarray) -> "DualStructureData":
        """Checks S(g) g = 1 within eps (1 + max |S(g)|), so S(g) = g^-1 (a
        one-sided inverse is two-sided), and S^2(a) g = g a on the basis,
        R_g S^2 = L_g, within eps (1 + max |L_g|), eps = 100 eps_eig: at
        g = 1 the thresholds of S(g) = g^-1 and S^2 = R_(g^-1) L_g.  A
        singular g fails the first."""
        g = np.asarray(g, dtype=complex).reshape(A.dim)
        eps = A.tol.eps_eig * 100
        Sg, Rg, Lg = S.apply(g), A.right_mult(g), A.left_mult(g)
        require(BadDualStructure, "S(g) g != 1",
                np.abs(Rg @ Sg - A.unit).max(), eps * (1 + np.abs(Sg).max()))
        require(BadDualStructure, "S^2(a) g != g a on the basis",
                np.abs(transpose_times(S.squared(), Rg.T).T - Lg).max(),
                eps * (1 + np.abs(Lg).max()))
        return DualStructureData(S, g)


@dataclass(frozen=True, eq=False)
class SeparabilityIdempotent:
    """E = sum_jk tensor[j, k] e_j (x) e_k = sum_m x_m (x) y_m, with m(E) = 1
    and the centrality identity sum (a x_m) (x) y_m = sum x_m (x) (y_m a)."""

    algebra: FDStarAlgebra
    tensor: np.ndarray

    @cached_property
    def residuals(self) -> tuple[float, np.ndarray]:
        """|m(E) - 1| and, per e_i, max |(e_i x_m) (x) y_m - x_m (x) (y_m e_i)|:
        the one kernel of both identities, run on first use and kept."""
        A, Z = self.algebra, self.tensor
        return (float(np.abs(A.multiply(Z) - A.unit).max()),
                _centrality_residual(A, Z))

    def verify(self, eps: float = 1e-8) -> None:
        unit_gap, central = self.residuals
        require(BadDualStructure, "sum x_m y_m misses the unit", unit_gap, eps)
        require(BadDualStructure, "centrality identity fails at basis e{}",
                central, eps)


def _centrality_residual(A: FDStarAlgebra, Z: np.ndarray) -> np.ndarray:
    """Per e_i, max |(e_i x_m) (x) y_m - x_m (x) (y_m e_i)| over the
    entries of the two n x n coefficient matrices.  Read off the table, as
    two coordinate lists of at most n^2 entries, when Z is monomial (one
    nonzero per row, at Zr[j], and per column, at Zc[m]): the left matrix
    holds v[i, j] Z[j, Zr[j]] at (T[i, j], Zr[j]), the right one
    Z[Zc[m], m] v[m, i] at (Zc[m], T[m, i]).  Each is the one product of
    the dense entry on any table, injective or not: the dense sum at
    column b of e_i Z runs over the one row of Z with a nonzero in column
    b, and likewise for Z e_i, so the residuals are the dense ones bit for
    bit."""
    n = A.dim
    columns = [_monomial_columns(M) for M in (Z, Z.T)]
    if A.table is None or any(x is None for x in columns):
        c = A.structure
        lhs = np.tensordot(c, Z, axes=(1, 0))                      # (e_i x) (x) y
        rhs = np.tensordot(Z, c, axes=(1, 0)).transpose(1, 0, 2)   # x (x) (y e_i)
        return np.abs(lhs - rhs).reshape(n, -1).max(axis=1)
    (T, v), ((Zc, zc), (Zr, zr)) = A.table, columns
    i, j = np.nonzero(v)
    k = T[i, j]
    at, gap = _coo_gap((i, k * n + Zr[j], v[i, j] * zr[j]),
                       (j, Zc[i] * n + k, zc[i] * v[i, j]), n * n)
    out = np.zeros(n)
    np.maximum.at(out, at, gap)
    return out


def central_sum(A: FDStarAlgebra, a: np.ndarray) -> np.ndarray:
    """m((R_a (x) id) E) = sum_m x_m a y_m for the kept E = sum_m x_m (x)
    y_m: central, by the centrality identity E's check passed."""
    E = A.separability_idempotent.tensor
    return A.multiply(transpose_times(E, A.right_mult(a).T).T)


def separability_idempotent(A: FDStarAlgebra) -> SeparabilityIdempotent:
    """The one symmetric separability idempotent (Aguiar 2000), sum_j b_j
    (x) b_j^* over the trace-form orthonormal basis `A.orthonormal_basis`;
    any other orthonormal basis gives the same E.  Its product
    sum_j b_j b_j^* is 1: on a block M_d it is sum_ij (1/d) f_ij f_ji."""
    if not A.trace_form[1]:
        raise NotCStar("no separability idempotent: algebra is not C*-able")
    B = A.orthonormal_basis
    E = SeparabilityIdempotent(A, transpose_times(B.T, A.star(B).T))
    E.verify(eps=A.tol.eps_eig * 100)
    return E

