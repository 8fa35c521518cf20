"""Dense complex matrix kernel: nullspaces, Hermitian functional calculus,
polar decomposition, eigenvalue clustering and seeded randomness.

All functions are pure; matrices are numpy complex arrays and are never
mutated in place.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeSpectrum, NotHermitian, SingularInput


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


def is_hermitian(a: np.ndarray, eps: float) -> bool:
    scale = max(1.0, np.abs(a).max(initial=0.0))
    return bool(np.abs(a - dagger(a)).max(initial=0.0) <= eps * scale)


def nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ker(m), as the columns of the returned matrix.

    The rank is `svd_rank` of the singular values.  The zero and empty
    matrices are handled.  When m has at least as many rows as columns the
    thin SVD is used: its right factor is still square, and the unused left
    factor shrinks to rows x columns.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0 or not np.abs(m).max(initial=0.0) > 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[svd_rank(s, tol):].conj().T


def svd_rank(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank from non-empty descending singular values s: the
    number above eps_rank times max(1, largest).  The absolute floor keeps
    a numerically-zero matrix from reading as full rank."""
    return int(np.sum(s > tol.eps_rank * max(1.0, s[0])))


def kron_system(a, b, c, d) -> np.ndarray:
    """The blocks kron(a_i, b_i) - kron(c_i, d_i) stacked over i, one block
    of rows per i: the linear system of a Sylvester-type identity such as
    F x_i = y_i F, in the row-major vec(F) coordinates.  Each operand is a
    stack of matrices indexed by i or a single matrix shared by every i.
    Entry for entry, the products and the difference are those np.kron
    gives, so the matrix is the same as the per-i stack built with it.
    """
    def kron(x, y):
        p = x[..., :, None, :, None] * y[..., None, :, None, :]
        *lead, r, s, t, u = p.shape
        return p.reshape(*lead, r * s, t * u)
    out = kron(a, b)
    out -= kron(c, d)
    return out.reshape(-1, out.shape[-1])


def matrix_function(a: np.ndarray, fn: Callable[[np.ndarray], np.ndarray],
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Apply a real function to a Hermitian psd matrix through its
    eigendecomposition.  Small negative eigenvalues (within eps_eig) are
    clamped to zero; genuinely negative spectrum is an error.
    """
    a = np.asarray(a, dtype=complex)
    scale = max(1.0, np.abs(a).max(initial=0.0))
    if not is_hermitian(a, tol.eps_rank * 10):
        raise NotHermitian(f"matrix deviates from Hermitian by "
                           f"{np.abs(a - dagger(a)).max():.3e}")
    vals, vecs = np.linalg.eigh((a + dagger(a)) / 2.0)
    if vals.min(initial=0.0) < -tol.eps_eig * scale:
        raise NegativeSpectrum(f"eigenvalue {vals.min():.3e} below -eps_eig")
    vals = np.clip(vals, 0.0, None)
    return (vecs * fn(vals)) @ dagger(vecs)


def sqrtm_psd(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return matrix_function(a, np.sqrt, tol)


def polar_unitary(f: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor u = f |f|^(-1) of an invertible matrix, where
    |f| = (f^* f)^(1/2)."""
    f = np.asarray(f, dtype=complex)
    if f.shape[0] != f.shape[1]:
        raise SingularInput("polar_unitary requires a square matrix")
    s = np.linalg.svd(f, compute_uv=False)
    if s[-1] <= tol.eps_rank * max(1.0, s[0]):
        raise SingularInput(f"smallest singular value {s[-1]:.3e} below tolerance")
    absf = sqrtm_psd(dagger(f) @ f, tol)
    return f @ np.linalg.inv(absf)


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


def real_nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Nullspace of a real matrix, orthonormal columns, real arithmetic."""
    m = np.asarray(m, dtype=float)
    if m.size == 0 or not np.abs(m).max(initial=0.0) > 0:
        return np.eye(m.shape[1])
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cutoff = tol.eps_rank * s[0]
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T


def antilinear_real_matrix(k: np.ndarray) -> np.ndarray:
    """Realification of the antilinear map x -> k @ conj(x) acting on
    stacked (Re x, Im x) coordinates."""
    kr, ki = k.real, k.imag
    return np.block([[kr, ki], [ki, -kr]])


def fixed_space_of_antilinear(k: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real basis (complex columns) of {x : k @ conj(x) = x}."""
    n = k.shape[0]
    big = antilinear_real_matrix(k) - np.eye(2 * n)
    basis = real_nullspace(big, tol)
    return basis[:n] + 1j * basis[n:]
