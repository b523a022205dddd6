"""Dense complex linear algebra for small Hilbert spaces.

All operations take and return plain ``numpy.ndarray`` values (complex128,
row-major).  Composite indices are always A-major: the row index of a
bipartite operator is ``i_A * d_B + i_B``, so ``tensor`` is the plain
Kronecker product and an operator on A alone embeds as ``tensor(op, eye(d_B))``.

Hermitian eigendecomposition goes through LAPACK (``numpy.linalg.eigh`` and
``eigvalsh``) after an explicit check that the input is square, finite and
Hermitian within a stated tolerance; only the exact Hermitian part is handed
to the solver.

The module also holds the generic search machinery of the package: the one
golden-section search, a scalar coroutine, and the one driver that runs search
coroutines in lockstep.  The impact-power routes share both while each keeps its
own objective, grid and tolerance.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
from typing import Callable, Generator

import numpy as np

from .errors import DimensionMismatch, ImpactPowerError, NoConvergence, NotHermitian, OutOfRange

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: absolute tolerance on max entrywise deviation from A = A^dagger
HERMITICITY_TOL = 1e-9
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices with A-major index ordering.

    Either operand may be a ``(..., m, n)`` stack; leading axes broadcast and
    each matrix of the result is the product of the matching pair.  Equal
    entry for entry to ``np.kron``; its general-rank bookkeeping costs several
    times the products themselves on these small operands.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    prod = a[..., None, :, None] * b[..., None, :, None, :]
    shape = prod.shape
    return prod.reshape(shape[:-4] + (shape[-4] * shape[-3], shape[-2] * shape[-1]))


def _bipartite_view(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    d_a, d_b = _dims(dims)
    a = np.asarray(a, dtype=complex)
    n = d_a * d_b
    if a.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"expected a {n}x{n} matrix for dims {d_a}x{d_b}, got {a.shape}"
        )
    return a.reshape(a.shape[:-2] + (d_a, d_b, d_a, d_b))


def partial_trace_B(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out subsystem B, returning a d_A x d_A matrix (one per matrix of a stack)."""
    return np.einsum("...ibjb->...ij", _bipartite_view(a, dims))


def partial_trace_A(a: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Trace out subsystem A, returning a d_B x d_B matrix (one per matrix of a stack)."""
    return np.einsum("...aiaj->...ij", _bipartite_view(a, dims))


def hs_norm_sq(a: np.ndarray) -> float | np.ndarray:
    """Squared Hilbert-Schmidt (Frobenius) norm, sum of |a_ij|^2.

    A ``(..., m, n)`` stack gives one norm per matrix, each equal to the bit
    to the norm of that matrix alone.
    """
    a = np.asarray(a)
    if a.ndim <= 2:
        return float(np.vdot(a, a).real)
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def trace_norm(a: np.ndarray) -> float | np.ndarray:
    """Trace norm of a Hermitian matrix, the sum of |eigenvalue|.

    A ``(..., n, n)`` stack gives one norm per matrix.
    """
    magnitudes = np.abs(hermitian_eigenvalues(a))
    if magnitudes.ndim == 1:
        return float(np.sum(magnitudes))
    return np.sum(magnitudes, axis=-1)


def hermitian_eigendecompose(a: np.ndarray):
    """Eigendecompose a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Returns numpy's ``EighResult``: ``eigenvalues`` real and ascending,
    ``eigenvectors`` the matching orthonormal eigenvectors as columns, so
    A = V diag(w) V^dagger.  The solver sees the exact Hermitian part
    (A + A^dagger)/2.  Raises DimensionMismatch unless A is square,
    ImpactPowerError if an entry is non-finite, NotHermitian if any entry of
    A - A^dagger exceeds ``HERMITICITY_TOL`` in magnitude, and NoConvergence
    if LAPACK reports that it did not converge.
    """
    return _lapack(np.linalg.eigh, _checked_hermitian_part(a))


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (no eigenvectors).

    A ``(..., n, n)`` stack gives ``(..., n)`` eigenvalues after the same
    checks on every matrix; each row equals the call on that matrix alone.
    """
    return _lapack(np.linalg.eigvalsh, _checked_hermitian_part(a))


def _lapack(solver, work: np.ndarray):
    try:
        return solver(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver did not converge: {exc}") from exc


def _checked_hermitian_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ImpactPowerError("matrix has non-finite entries (NaN or inf)")
    a_dag = a.conj().swapaxes(-1, -2)
    dev = float(np.abs(a - a_dag).max())
    if dev > HERMITICITY_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e}"
        )
    return (a + a_dag) / 2.0


def _golden_steps(
    lo: float, hi: float, tol: float
) -> Generator[tuple[float, float], float, tuple[float, float]]:
    """Golden-section maximization on [lo, hi] as a coroutine.

    Yields each abscissa with the width of the current bracket, which holds
    that abscissa, every later one and the one returned, and receives the
    objective value there.  Returns (best value, its abscissa) once the
    bracket is no wider than ``tol``, or once a round leaves it no narrower,
    as where the float spacing of the abscissae exceeds ``tol`` (past
    t ~ 8192 for a tolerance of 1e-12).  The value returned is the largest
    one received.
    """
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = yield x1, b - a
    f2 = yield x2, b - a
    while b - a > tol:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = yield x2, b - a
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = yield x1, b - a
        if b - a >= width:
            break
    return (f1, x1) if f1 >= f2 else (f2, x2)


def _lockstep(searches: list[Generator], answer: Callable[[list[int], list], list]) -> list:
    """Run the coroutines ``searches`` in lockstep; returns their return values, in order.

    Each round hands the pending requests of the unfinished searches, with
    their indices in ascending order, to one ``answer(indices, requests)``
    call and sends each search the matching item of the replies it returns.
    """
    results = [None] * len(searches)
    pending = [(i, search, next(search)) for i, search in enumerate(searches)]
    while pending:
        replies = answer([i for i, _, _ in pending], [request for _, _, request in pending])
        running = []
        for (i, search, _), reply in zip(pending, replies):
            try:
                running.append((i, search, search.send(reply)))
            except StopIteration as done:
                results[i] = done.value
        pending = running
    return results


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary (QR of a Ginibre matrix, phases fixed); ``rng`` is read by ``_seed``."""
    return _haar_stack(_count(d, "unitary dimension"), 1, _seed(rng))[0]


def _haar_stack(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random d x d unitaries, equal to n ``haar_unitary`` calls in turn on ``rng``."""
    x = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr((x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[:, None, :]


def _matrix_to_pairs(a: np.ndarray) -> list[list[float]]:
    """Flatten a complex matrix to row-major [re, im] pairs (JSON codec)."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).ravel()]


def _pairs_to_matrix(pairs: list[list[float]], rows: int, cols: int, field: str) -> np.ndarray:
    """Inverse of :func:`_matrix_to_pairs`; reads each entry with :func:`_json_float`."""
    flat = np.array([[_json_float(x, field) for x in pair] for pair in pairs])
    if flat.ndim != 2 or flat.shape != (rows * cols, 2):
        raise DimensionMismatch(
            f"expected {rows * cols} [re, im] pairs for a {rows}x{cols} matrix, "
            f"got array of shape {flat.shape}"
        )
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(rows, cols)


def _count(value, name: str, low: int = 1, error: type[ImpactPowerError] = OutOfRange) -> int:
    """The count ``name`` as an int: a whole number from ``low`` to ``sys.maxsize``.

    ``error`` naming the parameter for 0, -3, 1.5, True, "2", 10**400 and the
    like; numpy integers pass (``operator.index``).
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = low - 1
    if not low <= count <= sys.maxsize or isinstance(value, bool):
        raise error(f"{name}: expected a whole number >= {low}, got {reprlib.repr(value)}")
    return count


def _dims(dims) -> tuple[int, int]:
    """Subsystem dimensions (d_A, d_B) as ints, each read by ``_count``.

    DimensionMismatch naming the value for (2,), (2, 2, 5), 0, 2.7, True and the like.
    """
    try:
        d_a, d_b = dims
    except (TypeError, ValueError):
        raise DimensionMismatch(f"expected a pair (d_A, d_B), got {reprlib.repr(dims)}") from None
    return (
        _count(d_a, "subsystem dimension", error=DimensionMismatch),
        _count(d_b, "subsystem dimension", error=DimensionMismatch),
    )


def _floats(value, name: str, dtype=float, error=OutOfRange) -> np.ndarray:
    """The parameter ``name`` as a float (or complex) array of any shape, NaN and inf kept.

    ``error`` naming it unless every entry is an int or a float (or a complex,
    for complex ``dtype``; numpy numbers pass) that fits a float: for "0.3",
    True, None, 10**400, and a ragged nest of lists, whose rows are entries.
    DimensionMismatch for arrays numpy cannot stack, "<name> have inconsistent shapes".
    """
    kinds = "iuf" if dtype is float else "iufc"
    try:
        # entry by entry unless a numeric array: numpy reads [0.5, True] as [0.5, 1.0]
        if not (isinstance(value, np.ndarray) and value.dtype.kind in kinds) and not all(
            np.dtype(getattr(v, "dtype", type(v))).kind in kinds
            for v in np.asarray(value, dtype=object).flat
        ):
            kind = "real" if dtype is float else "complex"
            raise error(f"{name} {reprlib.repr(value)} is not a {kind} number")
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise error(f"{name} {reprlib.repr(value)} does not fit a float") from None
    except ValueError:  # the arrays of a ragged stack, left as entries or refused by numpy
        raise DimensionMismatch(f"{name} have inconsistent shapes") from None


def _finite(value, name: str, low=-math.inf, high=math.inf, dtype=float, error=OutOfRange) -> np.ndarray:
    """``_floats``, then ``error`` naming the parameter unless every entry is finite and in [low, high]."""
    array = _floats(value, name, dtype, error)
    if not np.isfinite(array).all():
        raise error(f"{name} {reprlib.repr(array.tolist())} is non-finite (NaN or inf)")
    if not ((low <= array) & (array <= high)).all():
        raise error(f"{name} {reprlib.repr(array.tolist())} outside [{low:g}, {high:g}]")
    return array


def _real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """The real parameter ``name`` as one float.

    OutOfRange naming it unless it is a finite int or float (numpy numbers
    pass) within [low, high]: for "0.3", True, NaN, inf, 10**400.
    DimensionMismatch, "expected one <name>", for an array.
    """
    array = _finite(value, name, low, high)
    if array.ndim:
        raise DimensionMismatch(f"expected one {name}, got an array of shape {array.shape}")
    return float(array)


def _seed(value) -> np.random.Generator:
    """``numpy.random.default_rng(value)``: None, a whole number >= 0, a sequence
    of them, a ``SeedSequence``, a bit generator or a ``Generator`` (returned as is).

    OutOfRange naming ``seed`` for "x", 1.5, NaN, -1, [1, -1] and the like.
    """
    try:
        return np.random.default_rng(value)
    except (TypeError, ValueError):
        raise OutOfRange(
            f"seed: expected None, a whole number >= 0, a sequence of them or a numpy "
            f"random generator, got {reprlib.repr(value)}"
        ) from None


def _json_int(value, field: str) -> int:
    """A whole number read from the JSON ``field`` (2 or 2.0).

    ValueError naming the field for 2.7, inf, true, "2" and the like.
    """
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{field}: expected a whole number, got {reprlib.repr(value)}")
    return int(value)


def _json_float(value, field: str) -> float:
    """A number read from the JSON ``field``: a float, or an int that fits in one.

    ValueError naming the field for true, "2", 10**400 and the like; NaN and
    Infinity pass, for the invariants of the object read to reject.
    """
    if type(value) is float or type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{field}: expected a JSON number that fits a float, got {reprlib.repr(value)}")
