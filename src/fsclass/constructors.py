"""Concrete algebra families: group algebras, table algebras and association
schemes, groupoid algebras with their weak Hopf structure, and Drinfeld
doubles of finite groups.

All constructors return an FDStarAlgebra plus whatever extra structure the
family carries (antipode, distinguished element, coalgebra).  Group,
groupoid and double algebras, and the dual algebras their coalgebras are
stored as, are handed their index tables (T, v), e_i e_j = v[i, j]
e_T[i, j]: no dense structure tensor is built.  Weak Hopf
data is an algebra and an `FDStarCoalgebra` on the same basis, each
checked by its own axioms, plus what joins them: a multiplicative Delta
and the antipode.  `cqg_indicator`, the compact quantum group indicator,
lives with it: it reads the Haar integral of the dual weak Hopf algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      _coo_gap, _coo_sum, _ragged, transpose_times)
from .coalgebra import (CompactDecomposition, FDStarCoalgebra, dualize,
                        gamma_full)
from .errors import (AxiomViolation, BadGroup, BadGroupoid, NoHaar, NotHopf,
                     NotInvolution, require)
from .indicators import _real_indicator, _round_indicator
from .linalg import DEFAULT_TOL, Tolerance


def _indices(x, error: type, what: str) -> np.ndarray:
    """x as an int array; a float, bool or string x is refused, not cut."""
    a = np.asarray(x)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} must hold integers, not {a.dtype}")
    return a.astype(int, copy=False)


# --- finite groups ---

@dataclass(frozen=True, eq=False)
class GroupTable:
    """Finite group by its multiplication table; element 0 is the identity."""

    order: int
    table: np.ndarray       # table[i, j] = index of g_i g_j
    inverse: np.ndarray

    @staticmethod
    def validated(order: int, table, inverse) -> "GroupTable":
        t = _indices(table, BadGroup, "table")
        inv = _indices(inverse, BadGroup, "inverse")
        n = order
        if t.shape != (n, n) or inv.shape != (n,):
            raise BadGroup("table must be order x order, inverse length order")
        if t.min(initial=0) < 0 or t.max(initial=0) >= n:
            raise BadGroup("table entries out of range")
        if inv.min(initial=0) < 0 or inv.max(initial=0) >= n:
            raise BadGroup("inverse entries out of range")
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise BadGroup("element 0 is not the identity")
        wrong = (t[:, inv].diagonal() != 0) | (t[inv].diagonal() != 0)
        if wrong.any():   # t[i, inv[i]] or t[inv[i], i] is not 0
            raise BadGroup(f"inverse of element {wrong.argmax()} is wrong")
        # rows must be permutations and (ij)k = i(jk), checked row by row
        # (n^2 per row); the first failing row i is reported, its
        # permutation test before its (i, j)
        row_bad = (np.sort(t, axis=1) != np.arange(n)).any(axis=1)
        for i in range(n):
            if row_bad[i]:
                raise BadGroup(f"row {i} is not a permutation")
            assoc_bad = (t[t[i]] != t[i][t]).any(axis=1)
            if assoc_bad.any():
                raise BadGroup(
                    f"associativity fails at ({i}, {int(assoc_bad.argmax())})")
        return GroupTable(n, t, inv)


def cyclic_group(n: int) -> GroupTable:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return GroupTable.validated(n, table, (-idx) % n)


def group_from_permutations(gens: list[list[int]]) -> GroupTable:
    """Group generated by permutations, as a multiplication table: the
    elements in lexicographic order, so the identity first, and g_i g_j
    the permutation k -> g_j[g_i[k]]."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, {ident}
    while frontier:
        frontier = {tuple(p[k] for k in g) for p in frontier for g in gens}
        frontier -= seen
        seen |= frontier
    elems = sorted(seen)
    index = {p: i for i, p in enumerate(elems)}
    P, n = np.array(elems), len(elems)
    products = P[np.arange(n)[:, None], P[:, None]].reshape(n * n, -1)
    table = np.reshape([index[tuple(q)] for q in products.tolist()], (n, n))
    return GroupTable.validated(n, table, (table == 0).argmax(axis=1))


def group_algebra(G: GroupTable, tol: Tolerance = DEFAULT_TOL
                  ) -> tuple[FDStarAlgebra, DualStructureData]:
    """C[G] with (e_g)* = e_{g^{-1}}, antipode S(e_g) = e_{g^{-1}} and
    distinguished element g = 1; the kept `A.separability_idempotent`, whose
    residuals are measured once, is (1/n) sum_g g^{-1} (x) g."""
    n = G.order
    sigma = np.zeros((n, n), dtype=complex)
    sigma[G.inverse, np.arange(n)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    A = FDStarAlgebra((G.table, np.ones((n, n), dtype=complex)), unit, sigma,
                      tol)
    S = AntiAlgebraMap.validated(A, sigma.copy())
    return A, DualStructureData.validated(A, S, unit)


def group_weak_hopf(G: GroupTable, tol: Tolerance = DEFAULT_TOL
                    ) -> tuple["WeakHopfData", DualStructureData]:
    """C[G] as a Hopf algebra: Delta(e_g) = e_g (x) e_g, eps = 1."""
    A, dual = group_algebra(G, tol)
    n = G.order
    return _weak_hopf(A, _diagonal_coproduct(n), np.ones(n, dtype=complex),
                      dual.S), dual


# --- table algebras and association schemes ---

@dataclass(frozen=True, eq=False)
class TableAlgebraData:
    """Standard basis b_0 = 1, b_1, ..., with real nonnegative structure
    constants and the basis involution i -> i* they determine."""

    p: np.ndarray             # p[i, j, k] real, >= 0
    involution: np.ndarray    # permutation i -> i*
    EPS = 1e-9                # the threshold of each axiom in `validated`

    @property
    def rank(self) -> int:
        return self.p.shape[0]

    @staticmethod
    def validated(p) -> "TableAlgebraData":
        """Checks the axioms on p and reads the involution off it: b_0
        occurs in b_i b_j exactly when j = i*, with p_(i i*)^0 = p_(i* i)^0
        > 0 (Arad-Blau), so i* is the j of the largest p_ij^0, alone above
        EPS."""
        eps = TableAlgebraData.EPS
        p = np.asarray(p, dtype=float)
        r = p.shape[0]
        if p.shape != (r, r, r):
            raise AxiomViolation("structure constants must be rank^3")
        require(AxiomViolation, "negative structure constant", -p.min(), eps)
        # b_0 is the unit
        require(AxiomViolation, "b_0 is not the identity", np.maximum(
            np.abs(p[0] - np.eye(r)).max(), np.abs(p[:, 0, :] - np.eye(r)).max()),
            eps)
        b0, idx = p[:, :, 0], np.arange(r)
        star = b0.argmax(axis=1)
        require(AxiomViolation, "coefficient of b_0 in b_i b_j must vanish "
                "unless j = i*", np.where(idx == star[:, None], 0.0,
                                          np.abs(b0)), eps)
        require(AxiomViolation, "p_(i i*)^0 must be positive, i = {}",
                -b0[idx, star], -np.nextafter(eps, np.inf))
        if not np.array_equal(np.sort(star), idx):
            raise AxiomViolation("basis involution is not a permutation")
        if not np.array_equal(star[star], idx):
            raise AxiomViolation("basis involution does not square to identity")
        require(AxiomViolation, "p_(i i*)^0 != p_(i* i)^0, i = {}",
                np.abs(b0[idx, star] - b0[star, idx]), eps)
        return TableAlgebraData(p, star)


def table_algebra(T: TableAlgebraData, tol: Tolerance = DEFAULT_TOL
                  ) -> tuple[FDStarAlgebra, DualStructureData]:
    """The table algebra with (b_i)* = b_{i*} and its dual structure: the
    linear antipode S(b_i) = b_{i*}, which squares to the identity, and
    g = 1.  The kept `A.separability_idempotent` is
    sum_i (1/p_(i i*)^0) b_{i*} (x) b_i v^{-1}, for v the central element
    `table_central_element(T)`.  v needs no check of its own: with
    p_(i i*)^0 = p_(i* i)^0 the b_0 coefficient is a symmetric trace, whose
    dual basis to b_i is b_{i*} / p_(i i*)^0, so v is its Casimir element,
    central; and v = sum_i b_i* b_i / p_(i i*)^0 >= b_0* b_0 = 1 once the
    trace form is positive definite, so v is positive and invertible."""
    r = T.rank
    sigma = np.zeros((r, r), dtype=complex)
    sigma[T.involution, np.arange(r)] = 1.0
    unit = np.zeros(r, dtype=complex)
    unit[0] = 1.0
    A = FDStarAlgebra(T.p.astype(complex), unit, sigma, tol)
    S = AntiAlgebraMap.validated(A, sigma.copy())
    if not A.trace_form[1]:
        raise AxiomViolation("trace form is not positive definite, so v is "
                             "not positive invertible")
    return A, DualStructureData.validated(A, S, A.unit)


def _basis_sum(T: TableAlgebraData, tau: np.ndarray) -> np.ndarray:
    """sum_i b_tau(i) b_i / p_(i i*)^0, as a coefficient vector."""
    i = np.arange(T.rank)
    return (T.p[tau, i] / T.p[i, T.involution, 0][:, None]).sum(axis=0)


def table_central_element(T: TableAlgebraData) -> np.ndarray:
    """v = sum_i (1 / p_(i i*)^0) b_{i*} b_i, central positive invertible."""
    return _basis_sum(T, T.involution)


def table_indicator(T: TableAlgebraData, chi: np.ndarray,
                    tau: np.ndarray | None = None) -> tuple[int, complex]:
    """Indicator of the irreducible character chi of a table algebra:
    sum_i chi(b_tau(i) b_i) / p_(i i*)^0 divided by chi(v)/chi(1); tau is
    an optional involution of the index set (default identity).  Returns
    (nu, raw) with raw the undivided sum."""
    chi = np.asarray(chi, dtype=complex)
    tau = np.arange(T.rank) if tau is None else np.asarray(tau)
    raw = complex(chi @ _basis_sum(T, tau))
    norm = (chi @ table_central_element(T)) / chi[0]
    return _round_indicator(raw / norm, DEFAULT_TOL.eps_round), raw


def scheme_from_matrices(mats: list[np.ndarray]) -> TableAlgebraData:
    """Intersection numbers of an association scheme given by its 0/1
    adjacency matrices M_0 = I, M_1, ..., read off its class-index matrix
    C: (x, y) lies in class C[x, y]."""
    M = _indices(mats, AxiomViolation, "adjacency matrices")
    r, n = M.shape[:2]
    if M.min() < 0 or not (M.sum(axis=0) == 1).all():
        raise AxiomViolation("adjacency matrices do not partition the pairs")
    if not np.array_equal(M[0], np.eye(n, dtype=int)):
        raise AxiomViolation("class 0 is not the identity relation")
    C, size = M.argmax(axis=0), M.sum(axis=(1, 2))
    # M_i^T = M_star[i], star[i] the class of (y0, x0) for the first pair
    # (x0, y0) of class i, when every pair of i turns into one of star[i]
    # and star[i] is no larger; an empty class passes, to be refused next
    x0, y0 = np.divmod(M.reshape(r, -1).argmax(axis=1), n)
    star = np.where(size > 0, C[y0, x0], np.arange(r))
    loose = size[star] != size
    loose[C[C.T != star[C]]] = True
    if loose.any():
        raise AxiomViolation(
            f"transpose of class {loose.argmax()} is not a class")
    if (size == 0).any():
        raise AxiomViolation(f"class {(size == 0).argmax()} is empty")
    # p[i, j, k] counts the z with C[x, z] = i and C[z, y] = j at the first
    # pair (x, y) of class k; M_i M_j is constant on class k when the
    # counts at every (x, y) equal p[:, :, C[x, y]], checked a row x at a
    # time (N r^2 counts per row); the first failing (i, j, k) is reported
    p = np.bincount(((C[x0] * r + C[:, y0].T) * r + np.arange(r)[:, None])
                    .ravel(), minlength=r ** 3).reshape(r, r, r)
    per_class = np.ascontiguousarray(p.transpose(2, 0, 1))
    bad = np.zeros((r, r, r), dtype=bool)
    for x in range(n):
        got = np.bincount(((np.arange(n) * r + C[x][:, None]) * r + C).ravel(),
                          minlength=n * r * r).reshape(n, r, r)
        wrong = got != per_class[C[x]]
        if wrong.any():
            y, i, j = np.nonzero(wrong)
            bad[i, j, C[x, y]] = True
    if bad.any():
        raise AxiomViolation("product of classes {}, {} is not constant on "
                             "class {}".format(*np.argwhere(bad)[0]))
    return TableAlgebraData.validated(p)


# --- groupoids ---

@dataclass(frozen=True, eq=False)
class GroupoidData:
    """Finite groupoid by its composition table: arrows with source and
    target objects, the partial composition, and the identities and
    inverses derived from them."""

    n_objects: int
    src: np.ndarray
    tgt: np.ndarray
    table: np.ndarray       # table[a, b] = a after b, -1 unless src[a] == tgt[b]
    identity: np.ndarray    # identity arrow at each object
    inverse: np.ndarray

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    @staticmethod
    def validated(n_objects: int, arrows, compose_triples) -> "GroupoidData":
        src, tgt = _indices(arrows, BadGroupoid, "arrows").reshape(-1, 2).T
        n = len(src)
        if n_objects > n:   # each object needs an identity arrow of its own
            raise BadGroupoid("some object has no identity arrow")
        out = (np.minimum(src, tgt) < 0) | (np.maximum(src, tgt) >= n_objects)
        if out.any():
            raise BadGroupoid(f"arrow {out.argmax()} has an end outside "
                              f"0..{n_objects - 1}")
        triples = _indices(compose_triples, BadGroupoid,
                           "compose triples").reshape(-1, 3)
        out = ((triples < 0) | (triples >= n)).any(axis=1)
        if out.any():
            raise BadGroupoid("triple ({}, {}, {}) names an arrow outside "
                              "0..{}".format(*triples[out.argmax()], n - 1))
        a, b, ab = triples.T
        # the first triple whose (a, b) came before: stable sort by (a, b)
        key = a * n + b
        order = np.argsort(key, kind="stable")
        again = order[1:][key[order[1:]] == key[order[:-1]]]
        if len(again):
            raise BadGroupoid("composite of ({}, {}) is given twice".format(
                *triples[again.min(), :2]))
        t = np.full((n, n), -1)
        t[a, b] = ab
        defined = t >= 0
        # the first failing (a, b) in row-major order, composability first
        loose = defined != (src[:, None] == tgt)
        ends = defined & ((src[t] != src) | (tgt[t] != tgt[:, None]))
        if (loose | ends).any():
            i, j = divmod(int((loose | ends).argmax()), n)
            raise BadGroupoid(
                f"composability of ({i}, {j}) disagrees with src/tgt"
                if loose[i, j] else f"composite of ({i}, {j}) has wrong ends")
        # (x b) c = x (b c) wherever b c is defined, a row x at a time;
        # the ends checked above make both sides defined there
        for x in range(n):
            bc = t[defined[x]]                      # b c for each b after x
            if ((t[t[x, defined[x]]] != t[x, bc]) & (bc >= 0)).any():
                raise BadGroupoid("composition is not associative")
        # e is the identity at src[e] if e b = b and a e = a where defined
        idx = np.arange(n)
        unit = (src == tgt) & ((tgt != src[:, None]) | (t == idx)).all(axis=1) \
            & ((src[:, None] != src) | (t == idx[:, None])).all(axis=0)
        ident = np.full(n_objects, -1)
        ident[src[unit]] = idx[unit]
        if (ident < 0).any():
            raise BadGroupoid("some object has no identity arrow")
        # a b = 1 for all a makes b two-sided: b c = 1 gives a = a b c = c
        inverts = t == ident[tgt][:, None]
        if not inverts.any(axis=1).all():
            raise BadGroupoid("some arrow has no inverse")
        return GroupoidData(n_objects, src, tgt, t, ident,
                            inverts.argmax(axis=1))


def pair_groupoid(m: int) -> GroupoidData:
    """Arrows (i, j) : j -> i, index i m + j, for all pairs of m objects:
    (i <- j) after (j <- k) = (i <- k)."""
    i, j, k = np.indices((m, m, m)).reshape(3, -1)
    return GroupoidData.validated(m, np.c_[j, i][k == 0],
                                  np.c_[i * m + j, j * m + k, i * m + k])


def disjoint_union_groupoid(groups: list[GroupTable]) -> GroupoidData:
    """One object per group, arrows the group elements."""
    offs = np.cumsum([0] + [G.order for G in groups])
    arrows = [(o, o) for o, G in enumerate(groups) for _ in range(G.order)]
    triples = [off + np.c_[np.indices(G.table.shape).reshape(2, -1).T,
                           G.table.ravel()] for G, off in zip(groups, offs)]
    return GroupoidData.validated(len(groups), arrows, np.concatenate(triples))


# --- weak Hopf algebras ---

def _coo_product(a: tuple, b: tuple, size: int) -> tuple[np.ndarray, ...]:
    """The product of two matrices given as coordinate lists (i, j, v),
    every index below size, as a coordinate list with repeated (i, j):
    each entry (i, k, x) of a meets the entries (k, j, y) of b, found in
    b's rows sorted by k (a stable sort, which does almost no work on the
    row-major lists `_coo_sum` returns).  `_coo_sum` adds up the repeats."""
    ai, ak, av = a
    order = np.argsort(b[0], kind="stable")
    bk, bj, bv = (x[order] for x in b)
    lengths, at = _ragged(np.bincount(bk, minlength=size), ak)
    return np.repeat(ai, lengths), bj[at], np.repeat(av, lengths) * bv[at]


def _regroup(m: tuple, n: int, order: tuple[int, int, int, int]) -> tuple:
    """The coordinate list m indexed as [(x0, x1), (x2, x3)], each x in
    range(n), re-indexed as [(x_o0, x_o1), (x_o2, x_o3)] for
    order = (o0, o1, o2, o3)."""
    x = (*np.divmod(m[0], n), *np.divmod(m[1], n))
    a, b, c, d = (x[k] for k in order)
    return a * n + b, c * n + d, m[2]


def _multiplicativity_residual(A: FDStarAlgebra, D: tuple) -> float:
    """max |Delta(e_i) Delta(e_j) - Delta(e_i e_j)| over all i, j and
    coordinates, for D = (j, k, i, Dt[i, j, k]) the `coordinates()` of the
    coalgebra's dual algebra, whose structure tensor is
    Delta.reshape(n, n, n), on D and the coordinate list of c.

    Delta(e_i) Delta(e_j) at e_a (x) e_b is
    sum_pqrs Dt[i,p,q] Dt[j,r,s] c[p,r,a] c[q,s,b] = (X Y^T)[(a,i),(b,j)]
    for X[(a,i),(q,r)] = sum_p c[p,r,a] Dt[i,p,q] and
    Y[(b,j),(q,r)] = sum_s c[q,s,b] Dt[j,r,s]; both sides vanish off
    their supports, so the largest entry of lhs - rhs on the union of the
    supports is the dense residual.
    """
    n = A.dim
    size = n * n
    ci, cj, ck, cv = A.coordinates()
    dj, dk, di, dv = D

    def cd(x, y, z, u, v, w):   # c as [(x, y), z] times Dt as [u, (v, w)]
        return _coo_product((x * n + y, z, cv), (u, v * n + w, dv), size)

    def summed(m, order):        # m regrouped, in row-major order
        return _coo_sum(*_regroup(m, n, order), size)
    lhs = cd(ci, cj, ck, di, dj, dk)
    X = summed(cd(cj, ck, ci, dj, di, dk), (1, 2, 3, 0))
    Yt = summed(cd(ci, ck, cj, dk, di, dj), (0, 3, 1, 2))
    i, j, r = _regroup(_coo_product(X, Yt, size), n, (1, 3, 0, 2))
    return float(_coo_gap(lhs, (i, j, r), size)[1].max(initial=0.0))


@dataclass(eq=False)
class WeakHopfData:
    """A *-algebra, a *-coalgebra on the same basis and an antipode.

    The coalgebra is an `FDStarCoalgebra`, checked when it was built as its
    dual algebra: coassociativity fails as `NotAssociative`, the counit
    laws as `BadUnit`, the co-star's involution and reversal of Delta as
    `BadStar`.  The constructors below give it the co-star c -> S(c)*
    and hand it Delta as the index table of its dual algebra.  `Delta`, an
    n^2 x n matrix whose column i is vec(Delta(e_i)) with tensor index
    (j, k) flattened to j*n + k, and `counit` are read-only views of it;
    `delta_of` reads the dual algebra's products, so nothing on the way
    from a constructor to the Haar integral forms Delta densely.

    Construction checks what joins the two: multiplicativity of Delta, by
    `_multiplicativity_residual`: products of coordinate lists of the
    structure tensor c and of Delta, so its cost scales with nnz(c) and
    nnz(Delta), not with n^6.  Both lists are read off the index tables of
    A and of the coalgebra's dual algebra where those exist.
    """

    algebra: FDStarAlgebra
    coalgebra: FDStarCoalgebra
    S: AntiAlgebraMap

    Delta = property(lambda self: self.coalgebra.Delta)
    counit = property(lambda self: self.coalgebra.counit)

    def __post_init__(self):
        self._validate()

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta_of(self, x: np.ndarray) -> np.ndarray:
        """Delta(x) as an n x n coefficient matrix: x on the products of
        the coalgebra's dual algebra."""
        return self.coalgebra.algebra.of_products(x)

    def _validate(self):
        A, C = self.algebra, self.coalgebra
        if C.dim != A.dim:
            raise ValueError("algebra and coalgebra differ in dimension")
        require(AxiomViolation, "comultiplication is not multiplicative",
                _multiplicativity_residual(A, C.algebra.coordinates()),
                A.tol.eps_eig * max(1, A.dim) * 10)

    def counit_target_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrices of eps_L(a) = eps(1_(1) a) 1_(2) and
        eps_R(a) = 1_(1) eps(a 1_(2))."""
        A = self.algebra
        D1 = self.delta_of(A.unit)           # D1[j, k]
        eps_jk = A.of_products(self.counit)  # eps(e_j e_i) at [j, i]
        return transpose_times(D1, eps_jk), transpose_times(D1.T, eps_jk.T)

    def haar_integral(self) -> np.ndarray:
        """The unique two-sided Haar integral: eps_L(Lam) = eps_R(Lam) = 1,
        a Lam = eps_L(a) Lam and Lam a = Lam eps_R(a) for all a, checked
        (else `NoHaar`) on the Lam with tau(y Lam) = eps(y), tau the regular
        trace (Larson-Sweedler 1969), read off the kept E as in `_haar`.
        Any Lam' that passes equals it: Lam' Lam = eps_L(Lam') Lam = Lam
        and Lam' Lam = Lam' eps_R(Lam) = Lam'.  Computed on first use and
        kept, read-only."""
        return self._haar

    @cached_property
    def _haar(self) -> np.ndarray:
        """Lam = (id (x) eps)(E), no solve: E's tensor G^-1 sigma^T, for the
        trace form G = sigma^T M, M[i, j] = tau(e_i e_j), is M^-1.  No E,
        and `NoHaar`, when G is not positive definite."""
        A = self.algebra
        if not A.trace_form[1]:
            raise NoHaar("regular trace form is not positive definite")
        lam = transpose_times(A.separability_idempotent.tensor.T, self.counit)
        EL, ER = self.counit_target_maps()
        # row i of X is e_i Lam, of EL.T @ X eps_L(e_i) Lam; Y likewise for R
        X, Y = A.right_mult(lam).T, A.left_mult(lam).T
        resid = np.max([np.abs(d).max() for d in (
            transpose_times(EL.T, lam) - A.unit,
            transpose_times(ER.T, lam) - A.unit,
            X - transpose_times(EL, X), Y - transpose_times(ER, Y))])
        require(NoHaar, "Haar integral identities fail", resid,
                A.tol.eps_eig * 100)
        lam.flags.writeable = False
        return lam

    @cached_property
    def _haar_product(self) -> np.ndarray:
        """Lam_(1) Lam_(2) = m(Delta(Lam)), formed on first use and kept:
        nu(V) is a multiple of its character."""
        return self.algebra.multiply(self.delta_of(self.haar_integral()))

    def indicator(self, V, g: np.ndarray) -> tuple[int, complex]:
        """nu(V) = (chi(g)/chi(1)) * chi(Lam_(1) Lam_(2)), and its raw value."""
        A = self.algebra
        chi = V.character()
        raw = complex((chi @ g) / (chi @ A.unit) * (chi @ self._haar_product))
        return _round_indicator(raw, A.tol.eps_round), raw


def _diagonal_coproduct(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Delta(e_a) = e_a (x) e_a, as the index table of its dual algebra."""
    return np.diag(np.arange(n)), np.eye(n, dtype=complex)


def _weak_hopf(A: FDStarAlgebra, Delta, counit: np.ndarray,
               S: AntiAlgebraMap) -> WeakHopfData:
    """A with the coalgebra (Delta, counit), Delta a matrix or an index
    table as `FDStarCoalgebra` takes it, and the co-star c -> S(c)*:
    `A.star` of S's columns, a gather when sigma is monomial."""
    return WeakHopfData(A, FDStarCoalgebra(Delta, counit, A.star(S.matrix),
                                           A.tol), S)


def check_involution_perm(G: GroupTable, perm) -> np.ndarray:
    """An involutive automorphism of G given as a permutation of elements."""
    p = _indices(perm, NotInvolution, "permutation")
    n = G.order
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise NotInvolution("not a permutation")
    if not np.array_equal(p[p], np.arange(n)):
        raise NotInvolution("does not square to the identity")
    if (p[G.table] != G.table[np.ix_(p, p)]).any():
        raise NotInvolution("not a group automorphism")
    return p


def groupoid_weak_hopf(Gd: GroupoidData,
                       tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[WeakHopfData, DualStructureData]:
    """Groupoid algebra with Delta(e_a) = e_a (x) e_a, eps = 1,
    S(e_a) = e_{a^{-1}}; the unit is the sum of object identities."""
    n = Gd.n_arrows
    unit = np.zeros(n, dtype=complex)
    unit[Gd.identity] = 1.0
    sigma = np.zeros((n, n), dtype=complex)
    sigma[Gd.inverse, np.arange(n)] = 1.0
    A = FDStarAlgebra((Gd.table, Gd.table >= 0), unit, sigma, tol)
    S = AntiAlgebraMap.validated(A, sigma.copy())
    W = _weak_hopf(A, _diagonal_coproduct(n), np.ones(n, dtype=complex), S)
    return W, DualStructureData.validated(A, S, unit)


def double_product_table(G: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Index table (T, v) of the product of D(G) on the basis
    delta_g (x) h, index g * |G| + h, in the form of `monomial_table`:
    (delta_g x h)(delta_g' x h') = delta_g x hh' if g = h g' h^{-1}, else 0."""
    m, t, inv = G.order, G.table, G.inverse
    g, h, g2, h2 = np.ix_(*[np.arange(m)] * 4)
    hit = np.broadcast_to(g2 == t[t[inv[h], g], h], (m,) * 4)
    T = np.where(hit, g * m + t[h, h2], 0)
    return T.reshape(m * m, m * m), hit.reshape(m * m, m * m).astype(complex)


def drinfeld_double(G: GroupTable,
                    tol: Tolerance = DEFAULT_TOL
                    ) -> tuple[WeakHopfData, DualStructureData]:
    """D(G) on the basis delta_g (x) h, index g * |G| + h, with
    (delta_g x h)* = delta_{h^-1 g h} x h^-1,
    S(delta_g x h) = delta_{h^-1 g^-1 h} x h^-1 and
    Delta(delta_g x h) = sum_{ab = g} (delta_a x h) (x) (delta_b x h)."""
    m = G.order
    n = m * m
    t, inv = G.table, G.inverse
    g, h = np.ix_(np.arange(m), np.arange(m))
    sigma = np.zeros((n, n), dtype=complex)
    sigma[t[t[inv[h], g], h] * m + inv[h], g * m + h] = 1.0
    S_mat = np.zeros((n, n), dtype=complex)
    S_mat[t[t[inv[h], inv[g]], h] * m + inv[h], g * m + h] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[np.arange(m) * m] = 1.0
    A = FDStarAlgebra(double_product_table(G), unit, sigma, tol)
    S = AntiAlgebraMap.validated(A, S_mat)
    # (delta_a x h) (x) (delta_b x h) is a term of Delta(delta_ab x h)
    a, h, b, h2 = np.ix_(*[np.arange(m)] * 4)
    same = np.broadcast_to(h == h2, (m,) * 4)
    Delta = (np.where(same, t[a, b] * m + h, 0).reshape(n, n),
             same.reshape(n, n).astype(complex))
    counit = np.zeros(n, dtype=complex)
    counit[:m] = 1.0
    W = _weak_hopf(A, Delta, counit, S)
    return W, DualStructureData.validated(A, S, unit)


def cqg_indicator(H: WeakHopfData, dec: CompactDecomposition) -> list[float]:
    """nu(V) = (gamma(t)/eps(t)) h(t_(1) t_(2)) for each block V, character
    t, of dec, the compact decomposition of H.coalgebra, the coalgebra of
    the Hopf *-algebra H with star c -> S(c)*; h is the Haar integral of
    the dual Hopf algebra (dualize_co(C), dualize(A)), whose coalgebra
    checks nothing: A's checks are its axioms.  h(t_(1) t_(2)) = t . w."""
    A, C = H.algebra, dec.E.coalgebra
    require(NotHopf, "Delta(1) != 1 (x) 1", np.abs(
        H.delta_of(A.unit) - np.outer(A.unit, A.unit)).max(), A.tol.eps_eig)
    if C is not H.coalgebra:
        raise AxiomViolation("dec is not of H.coalgebra, H's coalgebra with "
                             "star S(c)*")
    gamma_vec, dual, B = gamma_full(C, H.S.matrix, parts=dec.irreps)
    h = WeakHopfData(B, dualize(A), dual.S).haar_integral()
    w = C.algebra.multiply(A.of_products(h))
    t = np.array([V.character() for V in dec.blocks])
    vals = (t @ gamma_vec) / (t @ H.counit) * (t @ w)
    return [float(v) for v in _real_indicator(vals, A.tol.eps_round)]


def twisted_indicator(G: GroupTable, tau, V) -> tuple[int, complex]:
    """Twisted indicator sigma_tau(V) = chi(z), z = (1/|G|) sum_h e_tau(h)h,
    of an involutive automorphism tau, and its raw value; z is
    tau(Lam_(1)) Lam_(2) for the Haar integral Lam = (1/|G|) sum_h e_h of
    C[G].  V must be a representation of the group algebra."""
    perm = check_involution_perm(G, tau)
    if V.algebra.dim != G.order:
        raise BadGroup("representation does not live over C[G]")
    n = G.order
    raw = V.char_value(np.bincount(G.table[perm, np.arange(n)], minlength=n) / n)
    return _round_indicator(raw, V.algebra.tol.eps_round), raw
