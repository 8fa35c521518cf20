import os
import re
from functools import cached_property

import numpy as np
import pytest

from fsclass import (FDStarAlgebra, AntiAlgebraMap, GroupTable,
                     SeparabilityIdempotent, group_algebra)
from fsclass import io as fio

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

GROUP_FILES = ["z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8",
               "s3", "s4", "d4", "q8"]


CHECK_SUFFIX = re.compile(r"(.*) \(residual (\S+), threshold (\S+)\)", re.S)


def check_text(message: str) -> str:
    """The text of a failed `require` message, before its
    ` (residual R, threshold T)` suffix; asserts that the suffix is there and
    that R exceeds T (or is NaN)."""
    m = CHECK_SUFFIX.fullmatch(message)
    assert m, f"no residual suffix: {message!r}"
    assert not float(m[2]) <= float(m[3]), message
    return m[1]


def data_path(name):
    return os.path.join(DATA, name)


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


def table_separability(A, T, v):
    """sum_i (1/p_(i i*)^0) b_{i*} (x) b_i v^{-1} = (sigma / kappa) R(v^-1)^T
    on the table algebra A of T with central element v, the closed form
    `table_algebra` once built beside the kept E, verified."""
    kappa = T.p[np.arange(T.rank), T.involution, 0]
    # column i of sigma is b_{i*}, column i of R(v^{-1}) is b_i v^{-1}
    E = SeparabilityIdempotent(
        A, (A.star_matrix / kappa) @ A.right_mult(A.inverse(v)).T)
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
