import os
import re
from functools import cached_property

import numpy as np
import pytest

from fsclass import (FDStarAlgebra, AntiAlgebraMap, GroupTable,
                     Representation, SeparabilityIdempotent, group_algebra)
from fsclass import io as fio
from fsclass.constructors import table_central_element
from fsclass.cli import Run
from fsclass.errors import BadStar, BadUnit, NotAssociative
from fsclass.linalg import DEFAULT_TOL as TOL
from fsclass.linalg import fixed_spaces_of_antilinear

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

GROUP_FILES = ["z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
               "s3", "s4", "d4", "q8"]
DOUBLES = ["z2", "z3", "z4", "s3", "q8", "d4"]


def nullspace(m: np.ndarray, tol=TOL) -> np.ndarray:
    """Orthonormal basis of ker(m), as the columns of the returned matrix:
    the oracle the package read null spaces with before every Hom space
    became an average and the fixed spaces of antilinear maps one batched
    SVD (`linalg.fixed_spaces_of_antilinear`).

    The rank counts the singular values above eps_rank times max(1,
    largest); the absolute floor keeps a numerically-zero matrix from
    reading as full rank.  The zero and empty matrices are handled.  When
    m has at least as many rows as columns the thin SVD is used: its right
    factor is still square, and the unused left factor shrinks to rows x
    columns.  Real input is solved in real arithmetic and gives a real
    basis; complex input a complex one.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.size == 0 or not np.abs(m).max(initial=0.0) > 0:
        return np.eye(m.shape[1], dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[int(np.sum(s > tol.eps_rank * max(1.0, s[0]))):].conj().T


def fixed_space_of_antilinear(k: np.ndarray, tol=TOL) -> np.ndarray:
    """Real basis (complex columns) of {x : k @ conj(x) = x}: the package's
    batched `linalg.fixed_spaces_of_antilinear` on a stack of one, as the
    loop oracle and the witness tests read it.  The fixed space W meets iW
    in 0, so its real dimension is at most d."""
    dims, W = fixed_spaces_of_antilinear(k[None], tol)
    assert dims[0] <= len(k), f"fixed space of real dimension {dims[0]}"
    return W[0][:, len(k) - dims[0]:]


CHECK_SUFFIX = re.compile(r"(.*) \(residual (\S+), threshold (\S+)\)", re.S)


def check_text(message: str) -> str:
    """The text of a failed `require` message, before its
    ` (residual R, threshold T)` suffix; asserts that the suffix is there and
    that R exceeds T (or is NaN)."""
    m = CHECK_SUFFIX.fullmatch(message)
    assert m, f"no residual suffix: {message!r}"
    assert not float(m[2]) <= float(m[3]), message
    return m[1]


def unchecked(A, rho, gram=None) -> Representation:
    """rho as a `Representation` of A without the check that building one
    runs: values the library can no longer make (a scaled part, a character
    that is no homomorphism), for the code that runs after the check."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Representation, "_validate", lambda self: None)
        return Representation(A, rho, gram)


def delta_tensor(C) -> np.ndarray:
    """Dt[i, j, k], the coefficient of e_j (x) e_k in Delta(e_i)."""
    n = C.dim
    return C.Delta.T.reshape(n, n, n)


def einsum_coalgebra(Delta, counit, star):
    """The first coalgebra axiom that (Delta, counit, star) breaks, by the
    einsum forms of the coalgebra checks, or None."""
    n = len(counit)
    Dt = Delta.T.reshape(n, n, n)
    eps = TOL.eps_eig * max(1, n) * max(1.0, np.abs(Dt).max()) ** 2
    coas1 = np.einsum("imc,mab->iabc", Dt, Dt)
    coas2 = np.einsum("iam,mbc->iabc", Dt, Dt)
    if np.abs(coas1 - coas2).max() > eps:
        return "comultiplication is not coassociative"
    eye = np.eye(n)
    if np.abs(np.einsum("j,ijk->ik", counit, Dt) - eye).max() > eps or \
            np.abs(np.einsum("k,ijk->ij", counit, Dt) - eye).max() > eps:
        return "counit law fails"
    if np.abs(star @ np.conj(star) - eye).max() > eps:
        return "coalgebra star is not involutive"
    lhs = np.einsum("ij,iab->jab", star, Dt)
    rhs = np.einsum("pb,iab,qa->ipq", star, np.conj(Dt), star)
    if np.abs(lhs - rhs).max() > eps:
        return "star does not reverse the comultiplication"
    return None


# the coalgebra axiom each einsum message names -> the error its dual
# algebra raises for it; the weak Hopf loop reference shares the first two
DUAL_ERRORS = {"comultiplication is not coassociative": NotAssociative,
               "counit law fails": BadUnit,
               "coalgebra star is not involutive": BadStar,
               "star does not reverse the comultiplication": BadStar}


# the corepresentation axiom each einsum reference message names -> the
# check text of the dual module the corepresentation is stored as, which
# raises NotStarRep for it
COREP_CHECKS = {"Delta(c_ij) != sum_k c_ik (x) c_kj":
                "rho(e_i e_j) != rho(e_i) rho(e_j)",
                "eps(c_ij) != delta_ij": "rho(1) != I",
                "c_ij* != c_ji": "rho(a)^dagger H != H rho(a*)"}


def data_path(name):
    return os.path.join(DATA, name)


def kind_of(name: str) -> str:
    for suffix in ("scheme", "groupoid", "algebra", "coalgebra"):
        if name.endswith("_" + suffix + ".json"):
            return suffix
    return "group"


def bundled_runs() -> list[tuple[str, Run]]:
    """Every input file in data/ as its own kind (z3_inversion.json is a
    twist, not an input), and the doubles of DOUBLES."""
    out = [(f"{kind_of(name)} {name}", Run(kind_of(name), data_path(name),
                                          TOL, 0))
           for name in sorted(os.listdir(DATA)) if name != "z3_inversion.json"]
    return out + [(f"double {g}",
                   Run("double", data_path(g + ".json"), TOL, 0))
                  for g in DOUBLES]


def load_group(name):
    d = fio.load_group_v1(data_path(name + ".json"))
    return GroupTable.validated(d["order"], d["table"], d["inverse"])


def classical_oracle(G, chi):
    """(1/|G|) sum_h chi(h^2), computed straight from the group table."""
    total = sum(chi[G.table[h, h]] for h in range(G.order))
    return total / G.order


def build_m2():
    """M_2(C) on the basis e11, e12, e21, e22 (index 2i + j)."""
    n = 4
    c = np.zeros((n, n, n), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        c[2 * i + j, 2 * k + l, 2 * i + l] = 1.0
    unit = np.array([1, 0, 0, 1], dtype=complex)
    sig = np.zeros((n, n))
    for i in range(2):
        for j in range(2):
            sig[2 * j + i, 2 * i + j] = 1.0
    return FDStarAlgebra(c, unit, sig)


def m2_anti_map(A, mat_map):
    """Anti-algebra map on M_2(C) from its action on 2x2 matrices."""
    S = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[i, j] = 1.0
            S[:, 2 * i + j] = mat_map(E).reshape(-1)
    return AntiAlgebraMap.validated(A, S)


def m2_dual_structures():
    """The two hand-built dual structures on M_2(C): S1 = conjugated
    transpose by the symplectic form (quaternionic), S2 with a non-unitary
    twist (real, canonical g = diag(1/4, 4))."""
    A = build_m2()
    v = np.array([[0, 1], [-1, 0]], dtype=complex)
    u = np.array([[0, 0.5], [2, 0]], dtype=complex)
    S1 = m2_anti_map(A, lambda a: v @ a.T @ np.linalg.inv(v))
    S2 = m2_anti_map(A, lambda a: u @ a.T @ u)
    return A, S1, S2


@pytest.fixture(scope="session")
def groups():
    return {name: load_group(name) for name in GROUP_FILES}


def haar_separability(A):
    """(1/n) sum_g g^{-1} (x) g = sigma / n on C[G], the closed form
    `group_algebra` once built beside the kept E, verified: an E built
    independently of `A.separability_idempotent`."""
    E = SeparabilityIdempotent(A, A.star_matrix / A.dim)
    E.verify()
    return E


def table_separability(A, T):
    """sum_i (1/p_(i i*)^0) b_{i*} (x) b_i v^{-1} = (sigma / kappa) R(v^-1)^T
    on the table algebra A of T with central element v, the closed form
    `table_algebra` once built beside the kept E, verified."""
    v = table_central_element(T)
    v_inv = np.linalg.solve(A.left_mult(v), A.unit)
    kappa = T.p[np.arange(T.rank), T.involution, 0]
    # column i of sigma is b_{i*}, column i of R(v^{-1}) is b_i v^{-1}
    E = SeparabilityIdempotent(
        A, (A.star_matrix / kappa) @ A.right_mult(v_inv).T)
    E.verify()
    return E


def count_centrality_kernels(monkeypatch) -> tuple[list, list]:
    """One entry per SeparabilityIdempotent built, and one per run of its
    `residuals` kernel, the only evaluation of the centrality identity."""
    built, kernels = [], []
    init = SeparabilityIdempotent.__init__
    kernel = SeparabilityIdempotent.residuals.func
    counted = cached_property(lambda E: kernels.append(1) or kernel(E))
    counted.__set_name__(SeparabilityIdempotent, "residuals")
    monkeypatch.setattr(SeparabilityIdempotent, "residuals", counted)
    monkeypatch.setattr(SeparabilityIdempotent, "__init__",
                        lambda E, *a: built.append(1) or init(E, *a))
    return built, kernels


@pytest.fixture(scope="session")
def group_pipelines(groups):
    """(A, dual, E) for every corpus group, built once; E is the closed form
    `haar_separability(A)`."""
    out = {}
    for name, G in groups.items():
        A, dual = group_algebra(G)
        out[name] = (A, dual, haar_separability(A))
    return out


@pytest.fixture(scope="session")
def scheme_mats():
    out = {}
    for name in ("c5_scheme", "petersen_scheme"):
        d = fio.load_scheme_v1(data_path(name + ".json"))
        out[name] = d["matrices"]
    return out


def thin_scheme(G) -> list[np.ndarray]:
    """The adjacency matrices of G acting on itself: (x, y) lies in class
    x^-1 y, so the scheme's table algebra is C[G] on the basis of group
    elements, p[i, j, k] = 1 where g_i g_j = g_k."""
    C = G.table[G.inverse]
    return list((C == np.arange(G.order)[:, None, None]).astype(int))


def s4_on_twelve_points() -> list[np.ndarray]:
    """S4 on the 12 ordered pairs (a, b) of distinct points of {0, 1, 2,
    3}, which are the cosets of <(01)>, the stabiliser of (2, 3).  The
    orbital of ((a, b), (c, d)) is its pattern of equalities among a = c,
    a = d, b = c and b = d: 7 classes, the identity (a = c, b = d) first."""
    pts = np.array([(a, b) for a in range(4) for b in range(4) if a != b])
    (a, b), (c, d) = pts.T[:, :, None], pts.T[:, None, :]
    pattern = (a == c) + 2 * (a == d) + 4 * (b == c) + 8 * (b == d)
    return [(pattern == k).astype(int) for k in (9, 0, 1, 2, 4, 6, 8)]


def diagonal_rescaling(n, seed):
    """Seeded d with random phases and magnitudes in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n))


def rescaled(A, d):
    """A on the basis f_i = d[i] e_i: still monomial when A is, with
    non-unit structure constants; a linear map M of A becomes
    M * d[None, :] / d[:, None]."""
    c = A.structure * d[:, None, None] * d[None, :, None] / d[None, None, :]
    return FDStarAlgebra(c, A.unit / d,
                         A.star_matrix * np.conj(d)[None, :] / d[:, None])
