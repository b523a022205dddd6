"""Local unitary dynamics on subsystem A and the impact functional.

The impact of a local Hamiltonian H_A at time t is half the squared
Hilbert-Schmidt distance between the evolved and the initial global state,

    I(rho, H_A, t) = (1/2) ||exp(-i H_A t) rho exp(i H_A t) - rho||^2,

and the impact power P(rho, H_A) = max_t I.  Expanding in the eigenprojectors
of H_A gives I(t) = a - sum_{l>k} b_lk cos(dE_lk t) with time-independent
coefficients; for a spectrum with at most two distinct levels the maximum is
exactly 2a at t = pi/dE, otherwise it is found numerically on a dense time
grid and reported as a certified lower bound.
"""

from __future__ import annotations

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
TIME_REFINE_TOL = 1e-12


def _gap_tol(energies: np.ndarray) -> float:
    scale = float(np.max(np.abs(energies)))
    return GAP_TOL_SCALE * scale if scale > 0.0 else 0.0


def _merge_levels(
    energies: np.ndarray, projectors: tuple[np.ndarray, ...], gap_tol: float
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Energies merged within ``gap_tol``, with summed projectors, ascending."""
    merged_e: list[float] = []
    merged_p: list[np.ndarray] = []
    for idx in np.argsort(energies, kind="stable"):
        e = float(energies[idx])
        if merged_e and e - merged_e[-1] <= gap_tol:
            merged_p[-1] = merged_p[-1] + projectors[idx]
        else:
            merged_e.append(e)
            merged_p.append(projectors[idx].copy())
    return np.array(merged_e), tuple(merged_p)


@dataclass(frozen=True, eq=False)
class LocalHamiltonian:
    """Hermitian operator on A stored as energies plus orthogonal projectors."""

    energies: np.ndarray
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float).reshape(-1)
        projectors = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        if energies.size != len(projectors) or energies.size == 0:
            raise DimensionMismatch(
                f"need one projector per energy, got {energies.size} energies "
                f"and {len(projectors)} projectors"
            )
        d = projectors[0].shape[0]
        for p in projectors:
            if p.shape != (d, d):
                raise DimensionMismatch("projectors have inconsistent shapes")
        if not np.all(np.isfinite(energies)):
            raise InvalidHamiltonian("energies have non-finite (NaN or inf) entries")
        if not all(np.all(np.isfinite(p)) for p in projectors):
            raise InvalidHamiltonian("projectors have non-finite (NaN or inf) entries")
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                target = p if i == j else 0.0
                if float(np.max(np.abs(p @ q - target))) > PROJECTOR_TOL:
                    raise InvalidHamiltonian(
                        f"projectors {i},{j} violate Pi_i Pi_j = delta_ij Pi_i "
                        f"within {PROJECTOR_TOL:.1e}"
                    )
        complete = sum(projectors)
        if float(np.max(np.abs(complete - np.eye(d)))) > PROJECTOR_TOL:
            raise InvalidHamiltonian(
                f"projectors do not resolve the identity within {PROJECTOR_TOL:.1e}"
            )
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "projectors", projectors)

    @property
    def d_a(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def gap_tol(self) -> float:
        return _gap_tol(self.energies)

    @property
    def nondegenerate(self) -> bool:
        """True if all stored energies are pairwise separated by more than gap_tol."""
        e = np.sort(self.energies)
        if e.size < 2:
            return False
        return float(np.min(np.diff(e))) > self.gap_tol

    def distinct_levels(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Energies merged within gap_tol, with summed projectors, ascending."""
        return _merge_levels(self.energies, self.projectors, self.gap_tol)

    @property
    def trivial(self) -> bool:
        """True if H is proportional to the identity (single distinct level)."""
        return self.distinct_levels()[0].size == 1

    @property
    def fully_nondegenerate(self) -> bool:
        """True if there are d_A distinct levels, i.e. every projector is rank one."""
        return self.distinct_levels()[0].size == self.d_a

    def matrix(self) -> np.ndarray:
        """H as a dense d_A x d_A matrix."""
        return sum(e * p for e, p in zip(self.energies, self.projectors))

    @classmethod
    def from_matrix(cls, h: np.ndarray, tol: float = 1e-9) -> "LocalHamiltonian":
        """Spectral decomposition of a Hermitian matrix, merging close eigenvalues."""
        h = np.asarray(h, dtype=complex)
        eig = linalg.hermitian_eigendecompose(h, tol=tol)
        rank_one = tuple(np.outer(vec, vec.conj()) for vec in eig.eigenvectors.T)
        return cls(*_merge_levels(eig.eigenvalues, rank_one, _gap_tol(eig.eigenvalues)))

    @classmethod
    def from_bloch_axis(cls, axis, gap: float) -> "LocalHamiltonian":
        """Qubit Hamiltonian (gap/2) r.sigma for a unit axis r."""
        axis = np.asarray(axis, dtype=float).reshape(-1)
        if axis.shape != (3,):
            raise DimensionMismatch(f"bloch axis must have 3 components, got {axis.shape}")
        if not np.all(np.isfinite(axis)):
            raise OutOfRange("bloch axis has non-finite (NaN or inf) components")
        nrm = float(np.linalg.norm(axis))
        if nrm == 0.0:
            raise OutOfRange("bloch axis must be nonzero")
        gap = float(gap)
        if not math.isfinite(gap):
            raise OutOfRange(f"gap {gap!r} is non-finite")
        axis = axis / nrm
        r_sigma = sum(axis[i] * linalg.PAULIS[i] for i in range(3))
        eye2 = np.eye(2, dtype=complex)
        return cls(
            np.array([-gap / 2.0, gap / 2.0]),
            ((eye2 - r_sigma) / 2.0, (eye2 + r_sigma) / 2.0),
        )


@dataclass(frozen=True, eq=False)
class ImpactCoefficients:
    """Time-independent impact data: a and the pair coefficients b_lk (l > k).

    ``b`` is a k x k matrix over the stored levels, populated on the strict
    lower triangle; a = sum_{l>k} b_lk holds identically.
    """

    a: float
    b: np.ndarray

    def pairs(self):
        """Iterate (l, k, b_lk) over l > k."""
        n = self.b.shape[0]
        for l in range(1, n):
            for k in range(l):
                yield l, k, float(self.b[l, k])


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


def _check_dims(rho: DensityMatrix, h: LocalHamiltonian) -> None:
    if h.d_a != rho.d_a:
        raise DimensionMismatch(
            f"Hamiltonian acts on dimension {h.d_a}, state has d_A = {rho.d_a}"
        )


def _embedded_unitary(h: LocalHamiltonian, t: float, d_b: int) -> np.ndarray:
    u_a = sum(np.exp(-1j * e * t) * p for e, p in zip(h.energies, h.projectors))
    return linalg.tensor(u_a, np.eye(d_b, dtype=complex))


def evolve(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> DensityMatrix:
    """Conjugate rho by exp(-i H_A t) (x) 1_B."""
    _check_dims(rho, h)
    u = _embedded_unitary(h, float(t), rho.d_b)
    # unitary conjugation preserves every density-matrix invariant
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims, validate=False)


def impact(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> float:
    """Half the squared Hilbert-Schmidt distance between rho(t) and rho."""
    _check_dims(rho, h)
    u = _embedded_unitary(h, float(t), rho.d_b)
    delta = u @ rho.mat @ u.conj().T - rho.mat
    return 0.5 * linalg.hs_norm_sq(delta)


def trace_impact(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> float:
    """Half the squared trace norm of rho(t) - rho; never below ``impact``."""
    _check_dims(rho, h)
    u = _embedded_unitary(h, float(t), rho.d_b)
    delta = u @ rho.mat @ u.conj().T - rho.mat
    return 0.5 * linalg.trace_norm(delta) ** 2


def _coefficients(rho: DensityMatrix, projectors) -> ImpactCoefficients:
    eye_b = np.eye(rho.d_b, dtype=complex)
    # Y_i = rho (Pi_i (x) 1_B), so Tr[rho Pi_l rho Pi_k] = Tr[Y_l Y_k]
    y = [rho.mat @ linalg.tensor(p, eye_b) for p in projectors]
    n = len(y)
    b = np.zeros((n, n))
    dephased_overlap = 0.0
    for l in range(n):
        dephased_overlap += float(np.sum(y[l] * y[l].T).real)
        for k in range(l):
            b[l, k] = 2.0 * float(np.sum(y[l] * y[k].T).real)
    a = rho.purity - dephased_overlap
    return ImpactCoefficients(a=a, b=b)


def impact_coefficients(rho: DensityMatrix, h: LocalHamiltonian) -> ImpactCoefficients:
    """The constants in I(t) = a - sum_{l>k} b_lk cos(dE_lk t).

    a = Tr[rho^2] - Tr[rho sum_i Pi_i rho Pi_i] and
    b_lk = 2 Tr[rho Pi_l rho Pi_k], over the Hamiltonian's stored projectors.
    """
    _check_dims(rho, h)
    return _coefficients(rho, h.projectors)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for a local maximum of f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    t_best = x1 if f1 >= f2 else x2
    return (f1 if f1 >= f2 else f2), t_best


def impact_power_result(rho: DensityMatrix, h: LocalHamiltonian) -> ImpactPowerResult:
    """Impact power with attainment metadata; see :class:`ImpactPowerResult`."""
    _check_dims(rho, h)
    energies, projectors = h.distinct_levels()
    if energies.size == 1:
        return ImpactPowerResult(value=0.0, t_max=0.0, exact=True, upper_bound=0.0)
    coeff = _coefficients(rho, projectors)
    if energies.size == 2:
        gap = abs(float(energies[1] - energies[0]))
        value = max(2.0 * coeff.a, 0.0)
        return ImpactPowerResult(
            value=value, t_max=math.pi / gap, exact=True, upper_bound=value
        )

    pairs = list(coeff.pairs())
    gaps = np.array([energies[l] - energies[k] for l, k, _ in pairs])
    weights = np.array([w for _, _, w in pairs])

    def profile(ts):
        acc = np.zeros_like(ts)
        for g, w in zip(gaps, weights):
            acc += w * (1.0 - np.cos(g * ts))
        return acc

    span = 2.0 * math.pi / float(np.min(gaps))
    ts = np.arange(1, GRID_POINTS + 1) * (span / GRID_POINTS)
    values = profile(ts)
    best = int(np.argmax(values))
    step = span / GRID_POINTS
    lo = max(ts[best] - step, step * 1e-6)
    hi = min(ts[best] + step, span)
    value, t_best = _golden_max(
        lambda t: float(profile(np.array([t]))[0]), lo, hi, TIME_REFINE_TOL
    )
    value = max(value, float(values[best]))
    if value == float(values[best]):
        t_best = float(ts[best])
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
        "projectors": [linalg.matrix_to_pairs(p) for p in h.projectors],
    }


def hamiltonian_from_dict(data: dict) -> LocalHamiltonian:
    try:
        d_a = int(data["dA"])
        if "bloch_axis" in data:
            if d_a != 2:
                raise InvalidHamiltonian("bloch_axis shorthand requires dA = 2")
            return LocalHamiltonian.from_bloch_axis(data["bloch_axis"], data["gap"])
        energies = np.asarray(data["energies"], dtype=float)
        projectors = [linalg.pairs_to_matrix(p, d_a, d_a) for p in data["projectors"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidHamiltonian(f"malformed hamiltonian object: {exc}") from exc
    return LocalHamiltonian(energies, tuple(projectors))


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
