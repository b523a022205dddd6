"""Dense complex linear algebra for small Hilbert spaces.

All operations take and return plain ``numpy.ndarray`` values (complex128,
row-major).  Composite indices are always A-major: the row index of a
bipartite operator is ``i_A * d_B + i_B``, so ``tensor`` is the plain
Kronecker product and an operator on A alone embeds as ``tensor(op, eye(d_B))``.

Hermitian eigendecomposition goes through LAPACK (``numpy.linalg.eigh`` and
``eigvalsh``) after an explicit check that the input is square, finite and
Hermitian within a stated tolerance; only the exact Hermitian part is handed
to the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImpactPowerError, NoConvergence, NotHermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: default absolute tolerance on max entrywise deviation from A = A^dagger
HERMITICITY_TOL = 1e-9


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices with A-major index ordering.

    Equal entry for entry to ``np.kron``; its general-rank bookkeeping costs
    several times the products themselves on these small operands, and the
    oracles call this once or more per trial axis.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def _bipartite_view(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_a, d_b = int(dims[0]), int(dims[1])
    a = np.asarray(a, dtype=complex)
    n = d_a * d_b
    if a.shape != (n, n):
        raise DimensionMismatch(
            f"expected a {n}x{n} matrix for dims {d_a}x{d_b}, got {a.shape}"
        )
    return a.reshape(d_a, d_b, d_a, d_b)


def partial_trace_B(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out subsystem B, returning a d_A x d_A matrix."""
    return np.einsum("ibjb->ij", _bipartite_view(a, dims))


def partial_trace_A(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out subsystem A, returning a d_B x d_B matrix."""
    return np.einsum("aiaj->ij", _bipartite_view(a, dims))


def hs_norm_sq(a: np.ndarray) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, sum of |a_ij|^2."""
    a = np.asarray(a)
    return float(np.vdot(a, a).real)


def trace_norm(a: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Trace norm of a Hermitian matrix, the sum of |eigenvalue|."""
    return float(np.sum(np.abs(hermitian_eigenvalues(a, tol=tol))))


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Spectral decomposition A = V diag(w) V^dagger.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigendecompose(a: np.ndarray, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Eigendecompose a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    The solver sees the exact Hermitian part (A + A^dagger)/2.  Raises
    DimensionMismatch unless A is square, ImpactPowerError if an entry is
    non-finite, NotHermitian if any entry of A - A^dagger exceeds ``tol`` in
    magnitude, and NoConvergence if LAPACK reports that it did not converge.
    """
    vals, vecs = _lapack(np.linalg.eigh, _checked_hermitian_part(a, tol))
    return HermitianEig(eigenvalues=vals, eigenvectors=vecs)


def hermitian_eigenvalues(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors)."""
    return _lapack(np.linalg.eigvalsh, _checked_hermitian_part(a, tol))


def _lapack(solver, work: np.ndarray):
    try:
        return solver(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver did not converge: {exc}") from exc


def _checked_hermitian_part(a: np.ndarray, tol: float) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ImpactPowerError("matrix has non-finite entries (NaN or inf)")
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise NotHermitian(
            f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e} exceeds {tol:.1e}"
        )
    return (a + a.conj().T) / 2.0


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary (QR of a Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def matrix_to_pairs(a: np.ndarray) -> list[list[float]]:
    """Flatten a complex matrix to row-major [re, im] pairs (JSON codec)."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]


def pairs_to_matrix(pairs: list[list[float]], rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`."""
    flat = np.asarray(pairs, dtype=float)
    if flat.ndim != 2 or flat.shape != (rows * cols, 2):
        raise DimensionMismatch(
            f"expected {rows * cols} [re, im] pairs for a {rows}x{cols} matrix, "
            f"got array of shape {flat.shape}"
        )
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(rows, cols)
