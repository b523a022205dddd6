"""Bipartite density matrices: validation, named families, sampling, Bloch data.

A state lives on H_A (x) H_B with the A-major index convention from
:mod:`impactpower.linalg`.  Construction always validates the density-operator
invariants (Hermitian, unit trace, positive semidefinite); eigenvalues in
[-1e-9, 0) are treated as round-off, clamped to zero and the state is
renormalized.  Anything worse is rejected.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import InitVar, dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NotNormalized,
    OutOfRange,
)

TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9


def _validated_density(mat: np.ndarray, dim: int) -> np.ndarray:
    if mat.shape != (dim, dim):
        raise DimensionMismatch(
            f"state matrix has shape {mat.shape}, expected {(dim, dim)}"
        )
    return _validated_stack(mat[None], dim)[0]


def _validated_stack(stack: np.ndarray, dim: int) -> np.ndarray:
    # An (N, dim, dim) stack.  Each check runs on the whole stack before the
    # next one, and a failure is reported for the first matrix that breaks it,
    # with the message _validated_density gives for that matrix alone.
    if not np.isfinite(stack).all():
        raise InvalidDensityMatrix("finiteness violated: rho has non-finite (NaN or inf) entries")
    stack_dag = stack.conj().swapaxes(-1, -2)
    dev = np.abs(stack - stack_dag)
    if dev.max() > linalg.HERMITICITY_TOL:
        dev = dev.max(axis=(-2, -1))
        raise InvalidDensityMatrix(
            f"hermiticity violated: max |rho - rho^dagger| = "
            f"{_first(dev, dev > linalg.HERMITICITY_TOL):.3e} > {linalg.HERMITICITY_TOL:.1e}"
        )
    stack = (stack + stack_dag) / 2.0
    tr = _traces(stack)
    tr_dev = np.abs(tr - 1.0)
    if tr_dev.max() > TRACE_TOL:
        raise InvalidDensityMatrix(
            f"trace invariant violated: Tr[rho] = {_first(tr, tr_dev > TRACE_TOL)!r}, "
            f"expected 1 within {TRACE_TOL:.1e}"
        )
    stack = stack / tr[:, None, None]
    # finite and exactly Hermitian by now, so LAPACK gets the stack as it is
    eigenvalues, eigenvectors = linalg._lapack(np.linalg.eigh, stack)
    smallest = eigenvalues[:, 0]
    lowest = smallest.min()
    if lowest < 0.0:
        if lowest < EIGENVALUE_FLOOR:
            raise InvalidDensityMatrix(
                f"positivity violated: smallest eigenvalue "
                f"{_first(smallest, smallest < EIGENVALUE_FLOOR):.3e} < {EIGENVALUE_FLOOR:.1e}"
            )
        clamp = smallest < 0.0
        vals = np.maximum(eigenvalues[clamp], 0.0)
        v = eigenvectors[clamp]
        fixed = (v * vals[:, None, :]) @ v.conj().swapaxes(-1, -2)
        fixed = (fixed + fixed.conj().swapaxes(-1, -2)) / 2.0
        stack[clamp] = fixed / _traces(fixed)[:, None, None]
    purity = linalg.hs_norm_sq(stack)
    if purity.min() < 1.0 / dim - 1e-9 or purity.max() > 1.0 + 1e-9:
        bad = (purity < 1.0 / dim - 1e-9) | (purity > 1.0 + 1e-9)
        raise InvalidDensityMatrix(
            f"purity {_first(purity, bad)!r} outside [1/{dim} - 1e-9, 1 + 1e-9]"
        )
    return stack


def _first(values: np.ndarray, flags: np.ndarray) -> float:
    return float(values[np.flatnonzero(flags)[0]])


def _traces(stack: np.ndarray) -> np.ndarray:
    # real part of the trace of each matrix, summed as np.trace sums one matrix
    return stack.trace(axis1=-2, axis2=-1).real


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on a d_A x d_B bipartite space."""

    mat: np.ndarray
    dims: tuple[int, int]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        d_a, d_b = linalg._dims(self.dims)
        mat = np.asarray(self.mat, dtype=complex)
        if validate:
            mat = _validated_density(mat, d_a * d_b)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", (d_a, d_b))

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    @property
    def purity(self) -> float:
        """Tr[rho^2]."""
        return linalg.hs_norm_sq(self.mat)

    def reduced_a(self) -> np.ndarray:
        """Marginal on A (B traced out)."""
        return linalg.partial_trace_B(self.mat, self.dims)

    def reduced_b(self) -> np.ndarray:
        """Marginal on B (A traced out)."""
        return linalg.partial_trace_A(self.mat, self.dims)


def from_pure(vec: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Rank-one projector |psi><psi| for a normalized state vector."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    d_a, d_b = linalg._dims(dims)
    if vec.size != d_a * d_b:
        raise DimensionMismatch(
            f"vector of length {vec.size} does not fit dims {d_a}x{d_b}"
        )
    if not np.all(np.isfinite(vec)):
        raise NotNormalized("state vector has non-finite (NaN or inf) entries")
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > 1e-9:
        raise NotNormalized(f"state vector norm {nrm!r} is not 1 within 1e-9")
    vec = vec / nrm
    return DensityMatrix(np.outer(vec, vec.conj()), (d_a, d_b), validate=False)


def phi_plus(d: int = 2) -> np.ndarray:
    """Maximally entangled vector sum_k |kk> / sqrt(d) on a d x d space."""
    d = linalg._count(d, "local dimension")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return v


def swap_operator(d: int = 2) -> np.ndarray:
    """Permutation operator F = sum_{k,l} |k><l| (x) |l><k|."""
    d = linalg._count(d, "local dimension")
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(0, 1, 3, 2).reshape(d * d, d * d)


def werner(x: float) -> DensityMatrix:
    """Two-qubit Werner state (2-x)/6 * Id + (2x-1)/6 * F, x in [-1, 1].

    Purity is (x^2 - x + 1)/3; the family runs from the singlet (x = -1)
    through the maximally mixed state (x = 1/2) to the symmetric edge (x = 1).
    """
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise OutOfRange(f"werner parameter {x!r} outside [-1, 1]")
    mat = (2.0 - x) / 6.0 * np.eye(4, dtype=complex) + (2.0 * x - 1.0) / 6.0 * swap_operator(2)
    return DensityMatrix(mat, (2, 2))


def isotropic(f: float, d: int = 2) -> DensityMatrix:
    """Isotropic state on d x d: fidelity-f mixture of |phi+><phi+| and its complement.

    rho = (1-f)/(d^2-1) * (Id - P) + f * P with P the maximally entangled
    projector; invariant under U (x) U* twirling.
    """
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise OutOfRange(f"isotropic fidelity {f!r} outside [0, 1]")
    d = linalg._count(d, "isotropic local dimension", low=2)
    p = np.outer(phi_plus(d), phi_plus(d).conj())
    mat = (1.0 - f) / (d * d - 1.0) * (np.eye(d * d, dtype=complex) - p) + f * p
    return DensityMatrix(mat, (d, d))


@dataclass(frozen=True, eq=False)
class ClassicalQuantumSpec:
    """Data for a classically correlated state sum_i p_i |i><i| (x) omega_i.

    ``basis`` holds the orthonormal A-side vectors |i> as columns, ``blocks``
    the matching B-side density operators.
    """

    probabilities: np.ndarray
    basis: np.ndarray
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float).reshape(-1)
        basis = np.asarray(self.basis, dtype=complex)
        blocks = tuple(np.asarray(b, dtype=complex) for b in self.blocks)
        n = probs.size
        if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(basis))):
            raise OutOfRange("probabilities or basis have non-finite (NaN or inf) entries")
        if basis.ndim != 2 or basis.shape[1] != n or len(blocks) != n:
            raise DimensionMismatch(
                f"need one basis column and one block per probability "
                f"(got {n} probabilities, basis {basis.shape}, {len(blocks)} blocks)"
            )
        if np.any(probs < -1e-12):
            raise OutOfRange(f"negative probability {float(probs.min())!r}")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise OutOfRange(f"probabilities sum to {float(probs.sum())!r}, expected 1")
        gram = basis.conj().T @ basis
        if float(np.max(np.abs(gram - np.eye(n)))) > 1e-10:
            raise NotNormalized("basis columns are not orthonormal within 1e-10")
        d_b = blocks[0].shape[0]
        for b in blocks:
            if b.shape != (d_b, d_b):
                raise DimensionMismatch("B-side blocks have inconsistent shapes")
            _validated_density(b, d_b)
        object.__setattr__(self, "probabilities", np.clip(probs, 0.0, None))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "blocks", blocks)

    @property
    def d_a(self) -> int:
        return self.basis.shape[0]

    @property
    def d_b(self) -> int:
        return self.blocks[0].shape[0]


def classical_quantum(spec: ClassicalQuantumSpec) -> DensityMatrix:
    """Assemble the zero-discord state sum_i p_i |i><i| (x) omega_i."""
    projectors = spec.basis.T[:, :, None] * spec.basis.T.conj()[:, None, :]
    terms = spec.probabilities[:, None, None] * linalg.tensor(projectors, np.stack(spec.blocks))
    # summed term by term from 0: add.reduce may regroup the terms and would
    # start from the first one, signed zeros included
    return DensityMatrix(np.add.accumulate(terms)[-1] + 0.0, (spec.d_a, spec.d_b))


def random_state(
    dims: tuple[int, int],
    rank: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> DensityMatrix:
    """Sample a random state by tracing out a rank-sized purification.

    G is a (d x rank) complex Ginibre matrix and rho = G G^dagger / Tr;
    at full rank this is the Hilbert-Schmidt induced measure.  Deterministic
    for a given seed.
    """
    return DensityMatrix(random_states(dims, rank, [seed])[0], dims, validate=False)


def random_states(
    dims: tuple[int, int],
    rank: int | None,
    seeds: Sequence[int | Sequence[int] | np.random.Generator | None],
) -> np.ndarray:
    """``(N, d, d)`` stack of validated random states, one per seed.

    Matrix k is ``random_state(dims, rank, seeds[k]).mat`` to the bit: it is
    drawn from its own ``default_rng(seeds[k])``, and the stack is validated
    in one pass with the same checks as a single state.
    """
    d_a, d_b = linalg._dims(dims)
    dim = d_a * d_b
    rank = dim if rank is None else linalg._count(rank, "rank")
    if rank > dim:
        raise OutOfRange(f"rank {rank} outside [1, {dim}]")
    if len(seeds) == 0:
        return np.empty((0, dim, dim), dtype=complex)
    # per seed one draw of the real parts, then the imaginary parts
    x = np.empty((len(seeds), 2, dim, rank))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=x[k])
    g = x[:, 0] + 1j * x[:, 1]
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= _traces(mats)[:, None, None]
    return _validated_stack(mats, dim)


# --- per-row generators ---------------------------------------------------
#
# NumPy's SeedSequence (numpy/random/bit_generator.pyx) with its default pool
# of four uint32 words, run over many entropy rows at once.  Each hash step
# XORs a running constant, multiplies by its next value and folds the high
# half down; the constants do not depend on the data.

_MASK32 = 0xFFFFFFFF
_MULT_A = 0x931E8875


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


#: the constants of the 4 words' first hashes and of the 12 pool cross-mixes
_HASH_A = _hash_chain(0x43B0D7E5, _MULT_A, 16)


def _cross_table(offset: int) -> np.ndarray:
    # [src, dst]: a constant of the hash of pool word src that mixes into word
    # dst; the off-diagonal entries in row-major order are the mixes in turn
    table = np.zeros((4, 4), dtype=np.uint32)
    table[~np.eye(4, dtype=bool)] = _HASH_A[offset:offset + 12]
    return table


#: the xor and the multiplier constants of each cross-mix
_CROSS_XOR, _CROSS_MUL = _cross_table(4), _cross_table(5)
#: the constants of generate_state(4, uint64): 8 output words over the pool twice
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


def _int_words(n: int) -> list[int]:
    # an int >= 0 as SeedSequence splits it: uint32 words, low first, 0 is [0]
    n = operator.index(n)
    if n < 0:
        raise OutOfRange(f"seed words must be >= 0, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.cache
def _hashed_seed_type() -> type:
    # PCG64 takes an ISeedSequence as its seed.  The subclass is built on first
    # use, so that importing the package does not load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        """The PCG64 seed that ``SeedSequence(entropy)`` gives, hashed beforehand."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} {dtype}")
            return self.words

    return HashedSeed


def _row_generators(prefix: Sequence[int], rows: Sequence[int]) -> list[np.random.Generator]:
    """``default_rng([*prefix, i])`` for each i in ``rows``, in the same state.

    ``prefix`` holds ints >= 0 and ``rows`` ints in [0, 2**64).

    The rows' SeedSequence hashes run as uint32 array operations over all
    rows at once, so each row costs a PCG64 and a Generator.  The hash has a
    fixed cost of a few dozen array operations: worth it for many rows, not
    for one.
    """
    head = [w for p in prefix for w in _int_words(p)]
    rows = np.asarray(rows, dtype=np.uint64)
    high = (rows >> np.uint64(32)).astype(np.uint32)
    p = len(head)
    # entropy rows padded with zeros: a missing word among the first four
    # hashes as a zero word would
    width = max(4, p + 2)
    entropy = np.zeros((rows.size, width), dtype=np.uint32)
    entropy[:, :p] = head
    entropy[:, p] = rows & np.uint64(_MASK32)
    entropy[:, p + 1] = high
    pool = _hashmix(entropy[:, :4], _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        mixed = _mix(pool, _hashmix(pool[:, src, None], _CROSS_XOR[src], _CROSS_MUL[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # each entropy word past the pool mixes into every pool word, in the rows that have it
    length = p + 1 + (high > 0)
    chain = _HASH_A
    for src in range(4, width):
        chain = _hash_chain(int(chain[-1]), _MULT_A, 4)
        mixed = _mix(pool, _hashmix(entropy[:, src, None], chain[:-1], chain[1:]))
        pool = np.where((length > src)[:, None], mixed, pool)
    state = _hashmix(np.tile(pool, 2), _HASH_B[:-1], _HASH_B[1:])
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    seed_type = _hashed_seed_type()
    return [np.random.Generator(np.random.PCG64(seed_type(words))) for words in state]


def random_cq_spec(
    dims: tuple[int, int],
    n_blocks: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> ClassicalQuantumSpec:
    """Sample a random classical-quantum spec (Haar basis, Dirichlet weights)."""
    d_a, d_b = linalg._dims(dims)
    n_blocks = d_a if n_blocks is None else linalg._count(n_blocks, "block count")
    if n_blocks > d_a:
        raise OutOfRange(f"block count {n_blocks} outside [1, {d_a}]")
    rng = np.random.default_rng(seed)
    basis = linalg.haar_unitary(d_a, rng)[:, :n_blocks]
    probs = rng.dirichlet(np.ones(n_blocks))
    blocks = tuple(random_state((d_b, 1), seed=rng).mat for _ in range(n_blocks))
    return ClassicalQuantumSpec(probs, basis, blocks)


@dataclass(frozen=True, eq=False)
class BlochTwoQubit:
    """Local Bloch vectors x, y and correlation matrix T of a two-qubit state."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray


_SIGMAS = np.stack((np.eye(2, dtype=complex),) + linalg.PAULIS)
#: sigma_k (x) sigma_l for k, l in 0..3 with sigma_0 = 1, indexed [k, l]
_PAULI_PRODUCTS = linalg.tensor(_SIGMAS[:, None], _SIGMAS)
#: (k, l) of each term of the Bloch expansion, in summation order: 1, then
#: x_i and y_i for each i, then T row by row
_BLOCH_TERMS = ([0, 1, 0, 2, 0, 3, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3],
                [0, 0, 1, 0, 2, 0, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3])


def bloch_decompose(rho: DensityMatrix) -> BlochTwoQubit:
    """Pauli expectations x_i = <sigma_i (x) 1>, y_i = <1 (x) sigma_i>, T_ij = <sigma_i (x) sigma_j>."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"Bloch decomposition needs a 2x2 system, got {rho.dims}")
    e = np.trace(rho.mat @ _PAULI_PRODUCTS, axis1=-2, axis2=-1).real
    return BlochTwoQubit(x=e[1:, 0].copy(), y=e[0, 1:].copy(), t=e[1:, 1:].copy())


def bloch_reconstruct(b: BlochTwoQubit) -> DensityMatrix:
    """Rebuild the state (1/4)(1 + x.sigma (x) 1 + 1 (x) y.sigma + sum T_ij sigma_i (x) sigma_j)."""
    coeffs = np.block([[np.ones((1, 1)), np.reshape(b.y, (1, 3))], [np.reshape(b.x, (3, 1)), b.t]])
    terms = coeffs[_BLOCH_TERMS][:, None, None] * _PAULI_PRODUCTS[_BLOCH_TERMS]
    return DensityMatrix(np.add.accumulate(terms)[-1] / 4.0, (2, 2))


def swap_parties(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the roles of A and B (dims become (d_B, d_A))."""
    d_a, d_b = rho.dims
    mat = rho.mat.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2).reshape(rho.dim, rho.dim)
    return DensityMatrix(mat, (d_b, d_a), validate=False)


# --- JSON interface -------------------------------------------------------
#
# {"dims": [dA, dB], "matrix": [[re, im], ...]}  with the matrix flattened
# row-major, one [re, im] pair per entry.


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dims": [rho.d_a, rho.d_b], "matrix": linalg._matrix_to_pairs(rho.mat)}


def state_from_dict(data: dict) -> DensityMatrix:
    try:
        d_a, d_b = (linalg._json_int(v, "dims") for v in data["dims"])
        mat = linalg._pairs_to_matrix(data["matrix"], d_a * d_b, d_a * d_b, "matrix")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDensityMatrix(f"malformed state object: {exc}") from exc
    return DensityMatrix(mat, (d_a, d_b))


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho), fh)
