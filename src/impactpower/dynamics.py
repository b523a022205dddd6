"""Local unitary dynamics on subsystem A and the impact functional.

The impact of a local Hamiltonian H_A at time t is half the squared
Hilbert-Schmidt distance between the evolved and the initial global state,

    I(rho, H_A, t) = (1/2) ||exp(-i H_A t) rho exp(i H_A t) - rho||^2,

and the impact power P(rho, H_A) = max_t I.  H_A is stored as its distinct
energies, ascending, and one ``(L, d_A, d_A)`` stack of eigenprojectors, and
every sum over levels or level pairs is one array reduction over that stack.
``impact`` and ``trace_impact`` take a scalar time or an array of times; an
array gives one value per time, each equal to the bit to the scalar call.
Expanding in the eigenprojectors gives I(t) = a - sum_{l>k} b_lk cos(dE_lk t)
with time-independent coefficients; for a spectrum with at most two distinct
levels the maximum is exactly 2a at t = pi/dE, otherwise it is found
numerically on a dense time grid and reported as a certified lower bound.  The
grid search probes one point per cell of the grid and evaluates in full only
the cells that a per-pair reach bound cannot rule out; it returns the full
grid's argmax and values to the bit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidHamiltonian, OutOfRange
from .states import DensityMatrix

PROJECTOR_TOL = 1e-10
#: relative scale for the degeneracy threshold gap_tol = 1e-10 * max|E_i|
GAP_TOL_SCALE = 1e-10

GRID_POINTS = 100_000
#: grid points per cell of the pruned grid search, one probe each; divides GRID_POINTS
GRID_CELL = 100
#: float-error allowance of a profile value, per unit of sum|w| (1 + max dE * span)
PROFILE_SLACK = 1e-9
TIME_REFINE_TOL = 1e-12


def _gap_tol(energies: np.ndarray) -> float:
    scale = float(np.max(np.abs(energies)))
    return GAP_TOL_SCALE * scale if scale > 0.0 else 0.0


def _merge_levels(
    energies: np.ndarray, projectors: np.ndarray, gap_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Energies merged within ``gap_tol``, with summed projectors, ascending.

    A level joins the current group when it lies within ``gap_tol`` of the
    group's first energy; each group's projectors are summed in sorted order.
    """
    order = np.argsort(energies, kind="stable")
    levels = energies[order].tolist()
    starts = [0]
    for pos, e in enumerate(levels):
        if e - levels[starts[-1]] > gap_tol:
            starts.append(pos)
    return np.array(levels)[starts], np.add.reduceat(projectors[order], starts, axis=0)


@functools.cache
def _lower_pairs(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(n, k)``, built once per (n, k) as read-only arrays."""
    pairs = np.tril_indices(n, k)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _level_sum(weights: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    # sum_l w_l Pi_l, accumulated in level order; ``weights`` may carry
    # leading axes, giving one sum per row
    return np.add.reduce(weights[..., None, None] * projectors, axis=-3)


@dataclass(frozen=True, eq=False)
class LocalHamiltonian:
    """Hermitian operator on A stored as its distinct levels.

    The levels passed in are checked, then merged within gap_tol: ``energies``
    holds the distinct levels in ascending order and ``projectors`` one
    ``(L, d_A, d_A)`` complex array, row l the summed projector onto the
    eigenspace of ``energies[l]``.  Both are read-only.
    """

    energies: np.ndarray
    projectors: np.ndarray

    def __post_init__(self) -> None:
        energies = linalg._floats(self.energies, "energies").reshape(-1)
        count = len(self.projectors)
        if energies.size != count or count == 0:
            raise DimensionMismatch(
                f"need one projector per energy, got {energies.size} energies "
                f"and {count} projectors"
            )
        try:
            projectors = np.array(self.projectors, dtype=complex)
        except ValueError as exc:  # ragged: numpy cannot stack them
            raise DimensionMismatch("projectors have inconsistent shapes") from exc
        if projectors.ndim != 3 or projectors.shape[1] != projectors.shape[2]:
            raise DimensionMismatch("projectors have inconsistent shapes")
        if not np.all(np.isfinite(energies)):
            raise InvalidHamiltonian("energies have non-finite (NaN or inf) entries")
        if not np.all(np.isfinite(projectors)):
            raise InvalidHamiltonian("projectors have non-finite (NaN or inf) entries")
        skew = np.abs(projectors - projectors.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = np.flatnonzero(skew > PROJECTOR_TOL)
        if bad.size:
            raise InvalidHamiltonian(
                f"projector {bad[0]} violates Pi = Pi^dagger within {PROJECTOR_TOL:.1e}"
            )
        # Pi_i Pi_j - delta_ij Pi_i for every pair (i, j) from one stacked product
        defect = projectors[:, None] @ projectors
        diag = np.arange(count)
        defect[diag, diag] -= projectors
        bad = np.argwhere(np.abs(defect).max(axis=(-2, -1)) > PROJECTOR_TOL)
        if bad.size:
            i, j = bad[0]  # the first failing pair in row-major order
            raise InvalidHamiltonian(
                f"projectors {i},{j} violate Pi_i Pi_j = delta_ij Pi_i "
                f"within {PROJECTOR_TOL:.1e}"
            )
        complete = projectors.sum(axis=0)
        if float(np.max(np.abs(complete - np.eye(projectors.shape[1])))) > PROJECTOR_TOL:
            raise InvalidHamiltonian(
                f"projectors do not resolve the identity within {PROJECTOR_TOL:.1e}"
            )
        merged = _merge_levels(energies, projectors, _gap_tol(energies))
        for name, array in zip(("energies", "projectors"), merged):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def d_a(self) -> int:
        return self.projectors.shape[1]

    def check_acts_on(self, rho: DensityMatrix) -> None:
        """Raise DimensionMismatch unless H acts on rho's subsystem A."""
        if self.d_a != rho.d_a:
            raise DimensionMismatch(
                f"Hamiltonian acts on dimension {self.d_a}, state has d_A = {rho.d_a}"
            )

    @property
    def period(self) -> float:
        """2 pi / min dE over the distinct levels: one period of the slowest pair.

        Raises OutOfRange for a single level, and for a gap so small or so
        large that 2 pi / dE is not a finite positive number.
        """
        if self.energies.size < 2:
            raise OutOfRange("a single distinct level has no period")
        gap = float(np.min(np.diff(self.energies)))
        period = 2.0 * math.pi / gap
        if not 0.0 < period < math.inf:
            raise OutOfRange(f"smallest level gap {gap!r} gives no finite period 2 pi / gap")
        return period

    @property
    def trivial(self) -> bool:
        """True if H is proportional to the identity (single distinct level)."""
        return self.energies.size == 1

    @property
    def fully_nondegenerate(self) -> bool:
        """True if there are d_A distinct levels, i.e. every projector is rank one."""
        return self.energies.size == self.d_a

    def matrix(self) -> np.ndarray:
        """H as a dense d_A x d_A matrix."""
        return _level_sum(self.energies, self.projectors)

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "LocalHamiltonian":
        """Spectral decomposition of a Hermitian matrix, merging close eigenvalues."""
        h = np.asarray(h, dtype=complex)
        eig = linalg.hermitian_eigendecompose(h)
        vecs = eig.eigenvectors.T
        return cls(eig.eigenvalues, vecs[:, :, None] * vecs.conj()[:, None, :])

    @classmethod
    def from_bloch_axis(cls, axis, gap: float) -> "LocalHamiltonian":
        """Qubit Hamiltonian (gap/2) r.sigma for a unit axis r."""
        axis = np.reshape(linalg._real(axis, "bloch axis"), -1)
        if axis.shape != (3,):
            raise DimensionMismatch(f"bloch axis must have 3 components, got {axis.shape}")
        largest = float(np.max(np.abs(axis)))
        if largest == 0.0:
            raise OutOfRange("bloch axis must be nonzero")
        if not 1e-150 < largest < 1e150:  # the squares in its norm would under- or overflow
            axis = axis / largest
        nrm = float(np.linalg.norm(axis))
        gap = linalg._real(gap, "gap")
        axis = axis / nrm
        r_sigma = sum(axis[i] * linalg.PAULIS[i] for i in range(3))
        eye2 = np.eye(2, dtype=complex)
        return cls(
            np.array([-gap / 2.0, gap / 2.0]),
            np.stack(((eye2 - r_sigma) / 2.0, (eye2 + r_sigma) / 2.0)),
        )


@dataclass(frozen=True, eq=False)
class ImpactCoefficients:
    """Time-independent impact data: a and the pair coefficients b_lk (l > k).

    ``b`` is an L x L matrix over the distinct levels, populated on the strict
    lower triangle; a = sum_{l>k} b_lk holds identically.
    """

    a: float
    b: np.ndarray


@dataclass(frozen=True)
class ImpactPowerResult:
    """Impact power with its attainment data.

    ``exact`` is True when the value comes from the two-level closed form
    (maximum attained at t_max); otherwise the value is the certified lower
    bound found by grid search and ``upper_bound`` = 2a caps the supremum.
    """

    value: float
    t_max: float
    exact: bool
    upper_bound: float


def _evolved(rho: DensityMatrix, h: LocalHamiltonian, t) -> np.ndarray:
    # the matrix of rho(t) = U rho U^dagger with U = exp(-i H_A t) (x) 1_B,
    # one matrix per entry of the time array t (a single one for a scalar)
    h.check_acts_on(rho)
    times = np.asarray(linalg._real(t, "time"))
    u_a = _level_sum(np.exp(-1j * h.energies * times[..., None]), h.projectors)
    u = linalg.tensor(u_a, np.eye(rho.d_b, dtype=complex))
    return u @ rho.mat @ u.conj().swapaxes(-1, -2)


def evolve(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> DensityMatrix:
    """Conjugate rho by exp(-i H_A t) (x) 1_B at one time t."""
    time = linalg._real(t, "time")
    if np.ndim(time) != 0:
        raise DimensionMismatch(f"evolve takes one time, got an array of shape {np.shape(time)}")
    # unitary conjugation preserves every density-matrix invariant
    return DensityMatrix(_evolved(rho, h, time), rho.dims, validate=False)


def impact(rho: DensityMatrix, h: LocalHamiltonian, t) -> float | np.ndarray:
    """Half the squared Hilbert-Schmidt distance between rho(t) and rho.

    A scalar t gives a float; an array of times gives one value per time.
    """
    return 0.5 * linalg.hs_norm_sq(_evolved(rho, h, t) - rho.mat)


def trace_impact(rho: DensityMatrix, h: LocalHamiltonian, t) -> float | np.ndarray:
    """Half the squared trace norm of rho(t) - rho; never below ``impact``.

    A scalar t gives a float; an array of times gives one value per time.
    """
    n = linalg.trace_norm(_evolved(rho, h, t) - rho.mat)
    return 0.5 * n * n


def impact_coefficients(rho: DensityMatrix, h: LocalHamiltonian) -> ImpactCoefficients:
    """The constants in I(t) = a - sum_{l>k} b_lk cos(dE_lk t).

    a = Tr[rho^2] - Tr[rho sum_i Pi_i rho Pi_i] and
    b_lk = 2 Tr[rho Pi_l rho Pi_k], over the Hamiltonian's distinct levels.
    """
    h.check_acts_on(rho)
    # Y_l = rho (Pi_l (x) 1_B), so Tr[rho Pi_l rho Pi_k] = Tr[Y_l Y_k] sums the
    # entries of Y_l * Y_k^T in row-major order, for every pair l >= k at once
    y = rho.mat @ linalg.tensor(h.projectors, np.eye(rho.d_b, dtype=complex))
    n = len(y)
    rows, cols = _lower_pairs(n, 0)
    prod = y[rows] * y[cols].swapaxes(-1, -2)
    overlaps = np.zeros((n, n))
    overlaps[rows, cols] = prod.reshape(len(rows), -1).sum(axis=-1).real
    # sum_l Tr[Y_l Y_l] as a running sum in level order
    dephased_overlap = float(np.cumsum(np.diagonal(overlaps))[-1])
    b = 2.0 * overlaps
    np.fill_diagonal(b, 0.0)  # the strict lower triangle, zeros elsewhere
    return ImpactCoefficients(a=rho.purity - dephased_overlap, b=b)


def _grid_argmax(
    profile, step: float, gaps: np.ndarray, weights: np.ndarray, slack: float
) -> tuple[int, float]:
    """First index i of the largest profile((i + 1) * step) over GRID_POINTS indices.

    Probes one point per cell of GRID_CELL indices.  Within a distance delta a
    pair term w (1 - cos(dE t)) moves by at most min(2|w|, |w dE| delta), so no
    point of a cell lies above its probe's value + the sum of these reaches at
    the largest distance to the probe + slack.  Only the cells whose bound
    reaches the best probe are evaluated, in index order: the argmax over them
    is the full grid's, ties included.  Returns the index and its value.
    """
    half = GRID_CELL // 2
    starts = np.arange(0, GRID_POINTS, GRID_CELL)
    probes = profile((starts + (half + 1.0)) * step)
    delta = max(half, GRID_CELL - 1 - half) * step
    w = np.abs(weights)
    reach = float(np.sum(np.minimum(2.0 * w, w * gaps * delta))) + slack
    kept = starts[probes + reach >= probes.max()]
    index = (kept[:, None] + np.arange(GRID_CELL)).ravel()
    values = profile((index + 1.0) * step)
    best = int(np.argmax(values))
    return int(index[best]), float(values[best])


def impact_power_result(rho: DensityMatrix, h: LocalHamiltonian) -> ImpactPowerResult:
    """Impact power with attainment metadata; see :class:`ImpactPowerResult`."""
    h.check_acts_on(rho)
    energies = h.energies
    if energies.size == 1:
        return ImpactPowerResult(value=0.0, t_max=0.0, exact=True, upper_bound=0.0)
    coeff = impact_coefficients(rho, h)
    if energies.size == 2:
        value = max(2.0 * coeff.a, 0.0)
        return ImpactPowerResult(
            value=value, t_max=h.period / 2.0, exact=True, upper_bound=value
        )

    # the pairs l > k in row-major order, reduced over in that order from 0
    rows, cols = _lower_pairs(energies.size, -1)
    gaps = energies[rows] - energies[cols]
    weights = coeff.b[rows, cols]

    def profile(ts):
        # one row of w_lk (1 - cos(dE_lk t)) per pair, built in place; a running
        # sum down the rows keeps the pair order for any number of times (a
        # reduce over a single time would sum pairwise)
        terms = np.multiply.outer(gaps, ts)
        np.cos(terms, out=terms)
        np.subtract(1.0, terms, out=terms)
        terms *= weights[:, None]
        total = np.add.accumulate(terms, axis=0, out=terms)[-1]
        total += 0.0  # as if summed from +0.0: no -0.0 total
        return total

    span = h.period
    step = span / GRID_POINTS
    # the slack covers the float error of each value, mostly from rounding the
    # argument dE t
    slack = PROFILE_SLACK * float(np.sum(np.abs(weights))) * (1.0 + float(np.max(gaps)) * span)
    best, best_value = _grid_argmax(profile, step, gaps, weights, slack)
    t_grid = (best + 1.0) * step  # the same float as every evaluation of grid point i
    lo = max(t_grid - step, step * 1e-6)
    hi = min(t_grid + step, span)
    [(value, t_best)] = linalg._lockstep(
        [linalg._golden_steps(lo, hi, TIME_REFINE_TOL)],
        lambda _, steps: profile(np.array([x for x, _ in steps])).tolist(),
    )
    value = max(value, best_value)
    if value == best_value:
        t_best = t_grid
    return ImpactPowerResult(
        value=value, t_max=t_best, exact=False, upper_bound=2.0 * coeff.a
    )


def impact_power(rho: DensityMatrix, h: LocalHamiltonian) -> float:
    """max_t I(rho, H_A, t); exactly 2a for at most two distinct levels."""
    return impact_power_result(rho, h).value


# --- JSON interface -------------------------------------------------------
#
# Full form:   {"dA": n, "energies": [...], "projectors": [[[re, im], ...], ...]}
# Qubit short: {"dA": 2, "bloch_axis": [rx, ry, rz], "gap": dE}


def hamiltonian_to_dict(h: LocalHamiltonian) -> dict:
    return {
        "dA": h.d_a,
        "energies": [float(e) for e in h.energies],
        "projectors": [linalg._matrix_to_pairs(p) for p in h.projectors],
    }


def hamiltonian_from_dict(data: dict) -> LocalHamiltonian:
    try:
        d_a = linalg._json_int(data["dA"], "dA")
        if "bloch_axis" in data:
            if d_a != 2:
                raise InvalidHamiltonian("bloch_axis shorthand requires dA = 2")
            axis = [linalg._json_float(r, "bloch_axis") for r in data["bloch_axis"]]
            return LocalHamiltonian.from_bloch_axis(axis, linalg._json_float(data["gap"], "gap"))
        energies = [linalg._json_float(e, "energies") for e in data["energies"]]
        projectors = [linalg._pairs_to_matrix(p, d_a, d_a, "projectors") for p in data["projectors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidHamiltonian(f"malformed hamiltonian object: {exc}") from exc
    return LocalHamiltonian(energies, projectors)


def load_hamiltonian(path) -> LocalHamiltonian:
    with open(path, "r", encoding="utf-8") as fh:
        return hamiltonian_from_dict(json.load(fh))


def save_hamiltonian(h: LocalHamiltonian, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hamiltonian_to_dict(h), fh)


__all__ = [
    "LocalHamiltonian",
    "ImpactCoefficients",
    "ImpactPowerResult",
    "evolve",
    "impact",
    "trace_impact",
    "impact_coefficients",
    "impact_power",
    "impact_power_result",
    "hamiltonian_to_dict",
    "hamiltonian_from_dict",
    "load_hamiltonian",
    "save_hamiltonian",
]
