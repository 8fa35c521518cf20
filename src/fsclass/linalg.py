"""Dense complex matrix kernel: nullspaces and numerical rank, fixed spaces
of antilinear maps, the orthonormal basis of a positive definite gram,
eigenvalue clustering and seeded randomness.

All functions are pure; matrices are numpy complex arrays and are never
mutated in place.  `gram_basis` is the one Cholesky factorization: the
owner of a gram (an algebra, a representation) calls it once and keeps it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout the pipeline.

    eps_rank governs rank/nullspace decisions (relative to the largest
    singular value), eps_eig eigenvalue clustering, eps_round the band in
    which an indicator is snapped to an integer.
    """

    eps_rank: float = 1e-9
    eps_eig: float = 1e-8
    eps_round: float = 1e-6

    def __post_init__(self):
        for name in ("eps_rank", "eps_eig", "eps_round"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


DEFAULT_TOL = Tolerance()


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator; no global state."""
    return np.random.Generator(np.random.Philox(seed))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker(m), as the columns of the returned matrix.

    The rank is `svd_rank` of the singular values.  The zero and empty
    matrices are handled.  When m has at least as many rows as columns the
    thin SVD is used: its right factor is still square, and the unused left
    factor shrinks to rows x columns.  Real input is solved in real
    arithmetic and gives a real basis; complex input a complex one.
    """
    m = np.asarray(m)
    m = m.astype(np.result_type(m, float), copy=False)
    if m.size == 0 or not np.abs(m).max(initial=0.0) > 0:
        return np.eye(m.shape[1], dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[svd_rank(s, tol):].conj().T


def svd_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank from non-empty descending singular values s: the
    number above eps_rank times max(1, largest).  The absolute floor keeps
    a numerically-zero matrix from reading as full rank."""
    return int(np.sum(s > tol.eps_rank * max(1.0, s[0])))


def gram_basis(H: np.ndarray) -> np.ndarray:
    """Read-only Q = L^{-dagger}, H = L L^dagger, so Q^dagger H Q = I.  The
    pencil X v = lam H v is the standard problem for Q^dagger X Q, v = Q w
    (Golub-Van Loan, Matrix Computations, 8.7; as LAPACK's zhegv does)."""
    Q = np.linalg.inv(dagger(np.linalg.cholesky((H + dagger(H)) / 2.0)))
    Q.flags.writeable = False
    return Q


def cluster_eigenvalues(vals: np.ndarray, eps: float) -> list[np.ndarray]:
    """Group sorted real eigenvalues into clusters; two values belong to the
    same cluster when |a - b| <= eps * (1 + |a|).  Returns lists of indices
    into the original (sorted ascending) array.
    """
    order = np.argsort(vals)
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and abs(vals[idx] - vals[clusters[-1][-1]]) <= eps * (1 + abs(vals[idx])):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def antilinear_real_matrix(k: np.ndarray) -> np.ndarray:
    """Realification of the antilinear map x -> k @ conj(x) acting on
    stacked (Re x, Im x) coordinates."""
    kr, ki = k.real, k.imag
    return np.block([[kr, ki], [ki, -kr]])


def fixed_space_of_antilinear(k: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real basis (complex columns) of {x : k @ conj(x) = x}."""
    n = k.shape[0]
    big = antilinear_real_matrix(k) - np.eye(2 * n)
    basis = nullspace(big, tol)
    return basis[:n] + 1j * basis[n:]
