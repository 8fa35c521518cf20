"""Dense complex matrix kernel: fixed spaces of antilinear maps, the
orthonormal basis of a positive definite gram, eigenvalue clustering and
seeded randomness.

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


def fixed_spaces_of_antilinear(k: np.ndarray, tol: Tolerance = DEFAULT_TOL
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed spaces of a stack k (m, d, d), one batched SVD of (Re x, Im x)
    realifications minus I: their real dimensions dims, the nullities
    (singular values <= eps_rank max(1, largest)), at most d, and the last
    d right singular vectors as complex columns, the last dims spanning it."""
    d, kr, ki = k.shape[-1], k.real, k.imag
    real = np.concatenate((np.concatenate((kr, ki), axis=-1),
                           np.concatenate((ki, -kr), axis=-1)), axis=-2)
    _, s, vh = np.linalg.svd(real - np.eye(2 * d))
    dims = 2 * d - np.sum(s > tol.eps_rank * np.maximum(1.0, s[:, :1]), axis=1)
    basis = vh[:, d:].conj().transpose(0, 2, 1)
    return dims, basis[:, :d] + 1j * basis[:, d:]
