"""Finite-dimensional *-coalgebras and corepresentations.

Everything is computed through the dual algebra B = dualize_co(C).  A
coalgebra is stored as B and checked by B's axioms.  A corepresentation
with matrix elements c_ij in C is stored as its dual module, the
`Representation` of B with rho(e_m)[i, j] = c_ij[m], and checked by that
module's axioms when it is built, entry for entry the corepresentation
axioms at the threshold eps_eig max(1, d) max(1, |c|)^2:

- Delta(c_ij) = sum_k c_ik (x) c_kj is rho(e_a e_b) = rho(e_a) rho(e_b);
- eps(c_ij) = d_ij is rho(1) = I;
- unitarity for the co-star, c_ij* = c_ji, is rho(a)^dagger = rho(a*).

The canonical functional gamma is the distinguished element of B read back
as a functional.  There is no independent corep decomposition engine.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AntiAlgebraMap, DualStructureData, FDStarAlgebra,
                      SeparabilityIdempotent, dense_dim, transpose_times)
from .errors import (AxiomViolation, BadVarsigma, InternalConsistency,
                     NotAntiMap, NotCompact, require)
from .indicators import _real_indicator, canonical_g, formula_element
from .linalg import DEFAULT_TOL, Tolerance, dagger
from .reps import Representation, decompose, regular_representation

Parts = list[tuple[Representation, int]]


class FDStarCoalgebra:
    """Coalgebra with an antilinear co-involution.  Delta is an n^2 x n
    matrix; column i is vec(Delta(e_i)) with index (j, k) -> j*n + k.
    The star acts by c* = star_matrix @ conj(c).

    Stored as `algebra`, the dual algebra FDStarAlgebra(Delta.reshape(n, n,
    n), counit, dagger(star), tol), whose checks are the coalgebra axioms
    entry for entry (see `dualize`): coassociativity fails as
    `NotAssociative`, the counit laws as `BadUnit`, the co-star's
    involution and reversal of Delta as `BadStar`.  Delta may also be given
    as that algebra's index table (T, v), Delta(e_k) = sum v[i, j]
    e_i (x) e_j over T[i, j] = k: the dual algebra is then stored as its
    table, and `Delta` is built on first read.  The other attributes are
    read-only views of it."""

    def __init__(self, Delta: np.ndarray | tuple[np.ndarray, np.ndarray],
                 counit: np.ndarray, star: np.ndarray,
                 tol: Tolerance = DEFAULT_TOL):
        counit = np.asarray(counit, dtype=complex)
        n = dense_dim(counit.shape[0])
        if not isinstance(Delta, tuple):
            Delta = np.asarray(Delta, dtype=complex).reshape(n, n, n)
        self.algebra = FDStarAlgebra(
            Delta, counit,
            dagger(np.asarray(star, dtype=complex).reshape(n, n)), tol)

    Delta = property(lambda self: self.algebra.structure.reshape(
        self.dim ** 2, self.dim))
    counit = property(lambda self: self.algebra.unit)
    star_matrix = property(lambda self: dagger(self.algebra.star_matrix))
    dim = property(lambda self: self.algebra.dim)
    tol = property(lambda self: self.algebra.tol)


def dualize(A: FDStarAlgebra) -> FDStarCoalgebra:
    """The dual coalgebra on the same basis: comultiplication transposes the
    product, counit is the unit, star comes from <a*, c> = conj<a, c*>.
    It keeps A as its dual algebra and checks nothing: A's checks are its
    axioms.  Delta.reshape(n, n, n) is A.structure, so coassociativity is
    A's associativity and the counit laws are A's unit laws.  With
    Dt[i, j, k] = c[j, k, i] and star dagger(sigma),
    |Delta(e_a*) - (e_a(2))* (x) (e_a(1))*| at (j, k) is
    |((e_j e_k)* - e_k* e_j*)_a| entry for entry, so the star-reversal
    residual is A's `star_reversal_residual`, and the co-star is involutive
    exactly when sigma is."""
    C = FDStarCoalgebra.__new__(FDStarCoalgebra)
    C.algebra = A
    return C


def dualize_co(C: FDStarCoalgebra) -> FDStarAlgebra:
    """The dual algebra: convolution product, counit as unit.  It is the
    algebra C is stored as, so dualize_co(dualize(A)) is A."""
    return C.algebra


@dataclass(eq=False)
class CoseparabilityIdempotent:
    """Bilinear form E[i, j] = E(e_i, e_j) on C, held as the
    `SeparabilityIdempotent` of dualize_co(C) whose tensor it is: its counit
    and centrality residuals are that idempotent's `residuals`."""

    coalgebra: FDStarCoalgebra
    idempotent: SeparabilityIdempotent

    matrix = property(lambda self: self.idempotent.tensor)

    def verify(self) -> None:
        C, E = self.coalgebra, self.matrix
        if self.idempotent.algebra is not dualize_co(C):
            raise AxiomViolation("E is not an idempotent of the dual algebra "
                                 "of C")
        eps = C.tol.eps_eig * 100 * max(1.0, float(np.abs(E).max(initial=0.0)))
        unit_gap, central = self.idempotent.residuals
        require(AxiomViolation, "E(c_(1), c_(2)) != eps(c)", unit_gap, eps)
        require(AxiomViolation, "coseparability centrality identity fails",
                central.max(initial=0.0), eps)
        st = C.star_matrix
        Q = transpose_times(st, E)   # Q[i, j] = E(e_i*, e_j)
        sym = transpose_times(st, Q.T).T   # entry (i, j) = E(e_i*, e_j*)
        require(AxiomViolation, "E(c*, d*) != conj(E(d, c))",
                np.abs(sym - np.conj(E).T).max(initial=0.0), eps)
        Q = (Q + dagger(Q)) / 2.0   # Hermitian for the form above
        # smallest eigenvalue > eps_eig * max(1, max |Q|)
        require(AxiomViolation, "compactness form E(c*, c) is not positive",
                -np.linalg.eigvalsh(Q).min(), -np.nextafter(
                    C.tol.eps_eig * max(1.0, np.abs(Q).max()), np.inf))


@dataclass(eq=False)
class CompactDecomposition:
    irreps: Parts   # of dualize_co(E.coalgebra), unitarized: the blocks
    E: CoseparabilityIdempotent

    @property
    def blocks(self) -> list[Representation]:
        """The irreducible corepresentations, each stored as its dual
        module: W of each (W, multiplicity) in `irreps`."""
        return [W for W, _ in self.irreps]


def _dual_parts(C: FDStarCoalgebra, parts: Parts | None, seed: int) -> Parts:
    """parts, a decomposition of the regular representation of
    dualize_co(C) itself (A when C = dualize(A)), or one made with seed."""
    B = dualize_co(C)
    if parts is None:
        return decompose(regular_representation(B), seed=seed)
    if not parts or any(V.algebra is not B for V, _ in parts):
        raise AxiomViolation("parts do not decompose the dual algebra of C")
    return parts


def compact_decompose(C: FDStarCoalgebra, seed: int = 0,
                      parts: Parts | None = None) -> CompactDecomposition:
    """Matrix-coalgebra block decomposition of a compact *-coalgebra, with
    the coseparability idempotent E(e^(a)_ij, e^(b)_kl) = d_ab d_il d_jk / n_a:
    the kept separability idempotent of dualize_co(C), A for dualize(A).

    parts is as for `_dual_parts`.  Each block is an irreducible
    corepresentation of C stored as its dual module, a unitary rho_u with
    c_ij[m] = rho_u(e_m)[i, j]: a part with the identity gram (as from
    `decompose`) is its own, any other is unitarized into a new one, each
    checked once, where built, as a *-representation of B (see the module
    docstring).  E holds B's kept separability idempotent, for E.verify()."""
    B = dualize_co(C)
    if not B.trace_form[1]:
        raise NotCompact("dual algebra admits no C*-norm")
    irreps = []
    for V, mult in _dual_parts(C, parts, seed):
        if not np.array_equal(V.gram, np.eye(V.dim)):
            Q = V.orthonormal_basis   # unitarize: rho' = Q^dagger H rho Q
            V = Representation(B, V.compressed(dagger(Q) @ V.gram, Q))
        irreps.append((V, mult))
    if sum(W.dim ** 2 for W, _ in irreps) != C.dim:
        raise InternalConsistency("matrix elements do not span the dual")
    E = CoseparabilityIdempotent(C, B.separability_idempotent)
    E.verify()
    return CompactDecomposition(irreps, E)


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


def corep_indicator(C: FDStarCoalgebra, V: Representation,
                    varsigma: np.ndarray, gamma_vec: np.ndarray,
                    E: CoseparabilityIdempotent) -> float:
    """nu(V) = gamma(t_(2)) E(varsigma(t_(1)), t_(3)) for t = sum_i c_ii,
    the character of an irreducible corepresentation V stored as its dual
    module (a block of `compact_decompose`): `corep_indicators` of V
    alone."""
    return corep_indicators(C, [V], varsigma, gamma_vec, E)[0]


def corep_indicators(C: FDStarCoalgebra, blocks: list[Representation],
                     varsigma: np.ndarray, gamma_vec: np.ndarray,
                     E: CoseparabilityIdempotent) -> list[float]:
    """`corep_indicator` of each block, in order: nu(V) = t . w for the
    character t and w the duality functional
    w[i] = sum Dt[i, m, c] Dt[m, a, b] gamma_b (varsigma^T E)[a, c],
    Dt[i, j, k] the coefficient of e_j (x) e_k in Delta(e_i) (the dual
    algebra's structure tensor): `formula_element` over the dual algebra
    B = dualize_co(C), with varsigma^T as S, gamma as g and E as B's
    separability idempotent.  w is formed once and Delta^2(t) never.

    For C = dualize(A), gamma = g and varsigma = S^T, w is the z of A's
    formula indicator, and t is chi_V for the blocks of `compact_decompose`
    read off the regular representation's irreducibles: the duality
    agreement compares chi_V . z with t_V . z, so it can fail only
    through t_V != chi_V or rounding."""
    w = formula_element(C.algebra, np.asarray(varsigma).T,
                        np.asarray(gamma_vec), E.matrix)
    t = np.array([V.character() for V in blocks])
    return [float(v) for v in _real_indicator(t @ w, C.tol.eps_round)]

