"""Closed-form quantumness measures built on the impact power.

For qubit A the impact power of a nondegenerate H_A with measurement axis r
equals Tr[rho^2] - r^T M r, where M_ij = Tr[rho sigma_i^A rho sigma_j^A].
The extreme eigenvalues of M therefore give the largest and smallest
achievable impact power, and half the smallest one is the geometric discord
(squared Hilbert-Schmidt distance from the classical-quantum set).

For two qubits the same quantity has a Bloch-data form built from
K = x x^T + T T^T, and it obeys the purity bound
p_min <= (4/3) Tr[rho^2] - 1/3, saturated by the Werner family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, linalg
from .errors import DegenerateHamiltonian, DimensionMismatch
from .states import DensityMatrix, bloch_decompose

SATURATION_TOL = 1e-9
EIGENVALUE_TIE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MMatrix:
    """M_ij = Tr[rho sigma_i^A rho sigma_j^A] with its ascending spectrum."""

    m: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class KMatrix:
    """K = x x^T + T T^T from two-qubit Bloch data, with its top eigenvalue."""

    k: np.ndarray
    k_max: float


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    saturates: bool


class GeneralBoundCheck(NamedTuple):
    p: float
    bound: float


@dataclass(frozen=True)
class CorrelationReport:
    """Bundle of the correlation quantities for one state.

    ``p_min``/``p_max`` and the purity-bound fields are only defined when the
    relevant closed forms apply (qubit A, respectively two qubits) and are
    None otherwise.  ``method`` records how the discord was obtained.  The
    fields, in this order, are the keys of the report that ``compute`` prints.
    """

    purity: float
    p_min: float | None
    p_max: float | None
    discord: float
    bound_rhs: float | None
    saturates_bound: bool | None
    method: str


def _require_qubit_a(rho: DensityMatrix, what: str) -> None:
    if rho.d_a != 2:
        raise DimensionMismatch(f"{what} requires d_A = 2, got d_A = {rho.d_a}")


#: upper-triangle index pairs (i <= j) of the symmetric 3x3 M
_M_ROWS, _M_COLS = np.triu_indices(3)


def _m_stack(mats: np.ndarray, d_b: int):
    # M and its spectrum for every matrix of an (N, 2 d_B, 2 d_B) stack, from
    # stacked products and one stacked eigh.  With X_i = rho (sigma_i (x) 1),
    # M_ij sums the entries of X_i * X_j^T of one matrix in row-major order,
    # so a matrix gets the same M alone or in any stack.  Row i of M's upper
    # triangle is one product of X_i with the contiguous X_j^T, j >= i, so no
    # temporary holds all six products at once.
    sig = linalg.tensor(np.stack(linalg.PAULIS), np.eye(d_b, dtype=complex))
    x = mats[:, None] @ sig
    xt = np.ascontiguousarray(x.swapaxes(-1, -2))
    n = mats.shape[0]
    entries = np.concatenate(
        [(x[:, i, None] * xt[:, i:]).reshape(n, 3 - i, -1).sum(axis=-1).real for i in range(3)],
        axis=1,
    )
    m = np.empty((n, 3, 3))
    m[:, _M_ROWS, _M_COLS] = entries
    m[:, _M_COLS, _M_ROWS] = entries
    # finite and exactly symmetric by construction, so LAPACK gets M as it is
    return m, linalg._lapack(np.linalg.eigh, m.astype(complex))


def m_matrix(rho: DensityMatrix) -> MMatrix:
    """The 3x3 impact-power quadratic form for qubit A (any d_B)."""
    _require_qubit_a(rho, "m_matrix")
    m, eig = _m_stack(rho.mat[None], rho.d_b)
    return MMatrix(m=m[0], eigenvalues=eig.eigenvalues[0], eigenvectors=eig.eigenvectors[0].real)


def p_extrema_stack(mats: np.ndarray, d_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(purity, p_min, p_max) arrays for an ``(N, 2 d_B, 2 d_B)`` stack of qubit-A states.

    The matrices must already be validated density operators.  Row k equals
    ``p_extrema`` of matrix k alone, to the bit.
    """
    mats = np.asarray(mats, dtype=complex)
    dim = 2 * int(d_b)
    if mats.ndim != 3 or mats.shape[1:] != (dim, dim):
        raise DimensionMismatch(
            f"p_extrema_stack needs an (N, {dim}, {dim}) stack for d_A = 2, d_B = {d_b}, "
            f"got shape {mats.shape}"
        )
    _, eig = _m_stack(mats, int(d_b))
    purity = linalg.hs_norm_sq(mats)
    p_min = _zero_roundoff(purity - eig.eigenvalues[:, -1])
    p_max = _zero_roundoff(purity - eig.eigenvalues[:, 0])
    return purity, p_min, p_max


def _zero_roundoff(p: np.ndarray) -> np.ndarray:
    # values in [-1e-10, 0) are eigensolver round-off of a zero impact power
    return np.where((p >= -1e-10) & (p < 0.0), 0.0, p)


def _canonical_axis(vec: np.ndarray) -> np.ndarray:
    # the unit vector whose first entry above 1e-12 in magnitude is positive
    v = vec / np.linalg.norm(vec)
    lead = v[np.abs(v) > 1e-12]
    return -v if lead.size and lead[0] < 0.0 else v


def extremal_axes(mm: MMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Measurement axes attaining p_min and p_max.

    Under eigenvalue ties the lexicographically smallest canonical
    eigenvector is returned, so the output is deterministic.
    """
    axes = []
    for extreme in (mm.eigenvalues[-1], mm.eigenvalues[0]):
        idx = np.nonzero(np.abs(mm.eigenvalues - extreme) <= EIGENVALUE_TIE_TOL)[0]
        candidates = [_canonical_axis(mm.eigenvectors[:, i]) for i in idx]
        axes.append(min(candidates, key=lambda v: tuple(v)))
    return axes[0], axes[1]


def p_extrema(rho: DensityMatrix) -> tuple[float, float]:
    """(p_min, p_max) for qubit A: purity minus the extreme eigenvalues of M."""
    _require_qubit_a(rho, "p_extrema")
    _, p_min, p_max = p_extrema_stack(rho.mat[None], rho.d_b)
    return float(p_min[0]), float(p_max[0])


# --- numeric discord for d_A > 2 -------------------------------------------


#: sweep cap per start; every sweep lowers the distance, so stopping early
#: still leaves a valid upper bound
_MAX_SWEEPS = 1000
#: a pair is rotated only when its criterion gain exceeds this share of G's top
#: eigenvalue, i.e. more than eigensolver round-off
_GAIN_ROUNDOFF = 1e-13


def _joint_diagonal_weight(a: np.ndarray) -> np.ndarray:
    # Jacobi-angle sweeps over an (S, K, d, d) stack of starts, rotated in
    # place; returns sum_k sum_i |a_kii|^2 per start.  For each pair (p, q),
    # sum_k |a_kpp - a_kqq|^2 after a rotation is v^T G v for a unit v in R^3
    # (v = e_0 for no rotation), so the top eigenvector of G gives the best one.
    # Every start rotates in place, through views of rows and columns p, q;
    # a start that does not gain beyond round-off gets the identity.  A start
    # that a whole sweep leaves alone is a fixed point, so stop after a sweep
    # in which none gains.
    n_starts, n_blocks, d, _ = a.shape
    h = np.empty((n_starts, 3, n_blocks), dtype=complex)
    rotations = np.empty((n_starts, 1, 2, 2), dtype=complex)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                app, apq, aqp, aqq = a[..., p, p], a[..., p, q], a[..., q, p], a[..., q, q]
                np.subtract(app, aqq, out=h[:, 0])
                np.add(apq, aqp, out=h[:, 1])
                np.multiply(1j, aqp - apq, out=h[:, 2])
                g = (h @ h.conj().swapaxes(-1, -2)).real
                vals, vecs = linalg._lapack(np.linalg.eigh, g)
                gain = vals[:, -1] - g[:, 0, 0] > _GAIN_ROUNDOFF * vals[:, -1]
                if not gain.any():
                    continue
                v = vecs[..., -1]
                x, y, z = (v * np.copysign(1.0, v[:, :1])).T
                c = np.where(gain, np.sqrt((1.0 + x) / 2.0), 1.0)
                s = np.where(gain, (y - 1j * z) / np.sqrt(2.0 * (1.0 + x)), 0.0)
                rotations[:, 0, 0, 0], rotations[:, 0, 0, 1] = c, -s.conj()
                rotations[:, 0, 1, 0], rotations[:, 0, 1, 1] = s, c
                pq = slice(p, q + 1, q - p)
                a[..., pq, :] = rotations.conj().swapaxes(-1, -2) @ a[..., pq, :]
                a[..., pq] = a[..., pq] @ rotations
                rotated = True
        if not rotated:
            break
    return linalg.hs_norm_sq(np.diagonal(a, axis1=-2, axis2=-1))


def measurement_min_discord(
    rho: DensityMatrix,
    starts: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> float:
    """Minimize ||rho - Phi(rho)||^2 over rank-one projective measurements on A.

    For a measurement basis given by the columns of U the distance is
    Tr[rho^2] - sum_i sum_{b,d} |(U^+ R_bd U)_ii|^2 over the d_B^2 blocks
    R_bd = <.b|rho|.d>, a joint-diagonalization criterion.  From the
    identity and starts - 1 Haar bases, Jacobi-angle sweeps (Cardoso &
    Souloumiac, SIAM J. Matrix Anal. Appl. 17, 161, 1996) apply the optimal
    complex Givens rotation to one pair of basis vectors at a time until no
    pair improves.  All starts are swept together as one stack, each rotated
    only where it gains, so every start follows its own sweep sequence.  The
    result is an upper bound on the distance that tightens with more starts;
    for d_A = 2 it reproduces the closed form.
    """
    starts = linalg._count(starts, "starts")
    rng = linalg._seed(seed)
    d_a = rho.d_a
    rho4 = rho.mat.reshape(d_a, rho.d_b, d_a, rho.d_b)
    draws = linalg._haar_stack(d_a, starts - 1, rng)
    u = np.concatenate([np.eye(d_a, dtype=complex)[None], draws])
    blocks = np.einsum("sai,abcd,scj->sbdij", u.conj(), rho4, u).reshape(len(u), -1, d_a, d_a)
    return max(rho.purity - float(_joint_diagonal_weight(blocks).max()), 0.0)


def geometric_discord(
    rho: DensityMatrix,
    starts: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> tuple[float, str]:
    """Geometric discord of rho with respect to measurements on A, and its method.

    ``(discord, method)`` of :func:`report`: exact for qubit A
    ("closed-form"), an upper bound from the measurement minimization for
    larger A ("numeric").
    """
    rep = report(rho, starts=starts, seed=seed)
    return rep.discord, rep.method


def k_matrix(rho: DensityMatrix) -> KMatrix:
    """K = x x^T + T T^T for a two-qubit state."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"k_matrix requires dims (2, 2), got {rho.dims}")
    b = bloch_decompose(rho)
    k = np.outer(b.x, b.x) + b.t @ b.t.T
    k_max = float(linalg.hermitian_eigenvalues(k.astype(complex))[-1])
    return KMatrix(k=k, k_max=k_max)


def k_matrix_discord(rho: DensityMatrix) -> float:
    """Two-qubit discord (1/4)(|x|^2 + |T|^2 - k_max) from Bloch data alone."""
    km = k_matrix(rho)
    # Tr K = |x|^2 + |T|_F^2
    return 0.25 * (float(np.trace(km.k)) - km.k_max)


def purity_bound_check(rho: DensityMatrix) -> BoundCheck:
    """Evaluate p_min <= (4/3) Tr[rho^2] - 1/3 for a two-qubit state, as :func:`report` does."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"purity bound requires dims (2, 2), got {rho.dims}")
    rep = report(rho)
    return BoundCheck(lhs=rep.p_min, rhs=rep.bound_rhs, saturates=rep.saturates_bound)


def purity_bound_rhs(purity: float | np.ndarray) -> float | np.ndarray:
    """(4/3) Tr[rho^2] - 1/3, the two-qubit purity bound on p_min; elementwise on arrays."""
    return (4.0 / 3.0) * purity - 1.0 / 3.0


def general_dim_bound_check(
    rho: DensityMatrix,
    h: dynamics.LocalHamiltonian,
    starts: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> GeneralBoundCheck:
    """Impact power against its discord lower bound 4 D / (d_A (d_A - 1)).

    Requires a fully nondegenerate H_A with at least two levels.  For d_A > 2
    the discord is the numeric measurement minimum, itself an upper bound on
    the distance, so the comparison is conservative.
    """
    if h.trivial or not h.fully_nondegenerate:
        raise DegenerateHamiltonian(
            "general-dimension bound requires a fully nondegenerate Hamiltonian "
            f"with at least two levels ({h.energies.size} distinct levels on d_A = {h.d_a})"
        )
    p = dynamics.impact_power(rho, h)
    d, _ = geometric_discord(rho, starts=starts, seed=seed)
    d_a = rho.d_a
    return GeneralBoundCheck(p=p, bound=4.0 * d / (d_a * (d_a - 1.0)))


def report(
    rho: DensityMatrix,
    starts: int = 12,
    seed: int | np.random.Generator | None = 0,
) -> CorrelationReport:
    """Purity, impact-power extrema, discord and bound data; the one place the regime is chosen.

    Qubit A: the exact discord p_min/2 ("closed-form") from one ``p_extrema``
    call, and the purity bound for d_B = 2.  Larger A: the numeric upper bound
    of ``measurement_min_discord`` ("numeric"); the qubit-A fields are None.
    Either regime raises OutOfRange unless ``starts`` is a whole number >= 1.
    """
    starts = linalg._count(starts, "starts")
    purity = rho.purity
    if rho.d_a != 2:
        discord = measurement_min_discord(rho, starts=starts, seed=seed)
        return CorrelationReport(purity, None, None, discord, None, None, method="numeric")
    p_min, p_max = p_extrema(rho)
    bound_rhs = saturates = None
    if rho.d_b == 2:
        bound_rhs = purity_bound_rhs(purity)
        saturates = abs(p_min - bound_rhs) <= SATURATION_TOL
    return CorrelationReport(purity, p_min, p_max, p_min / 2.0, bound_rhs, saturates, method="closed-form")
