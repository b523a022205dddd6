"""Brute-force reference implementations of the closed-form quantities.

Everything here recomputes its target by direct optimization or direct
series evaluation, sharing only the :mod:`impactpower.linalg` kernel with
the production code paths, so agreement between the two routes is a real
check.

Only the arithmetic is batched.  Each objective is evaluated on a stack of
candidates (axes, times or CQ parameters) in one numpy pass, at most
``_CHUNK`` matrices at a time, and every row is computed on its own, so a
value does not depend on how candidates are stacked.  The searches keep the
candidate order, step schedule, tolerances and acceptance rule of trying one
candidate at a time: golden sections run in lockstep, one scalar search per
bracket, and a descent round accepts the first improving candidate of its
stack and re-stacks the remaining moves from there.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Generator, NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateHamiltonian, DimensionMismatch
from .states import DensityMatrix
from .dynamics import LocalHamiltonian

_TIME_TOL = 1e-12
_ANGLE_STEP0 = 0.1
_ANGLE_STEP_MIN = 1e-8
#: a descent move is accepted only if it lowers the objective by more than this
_ACCEPT_MARGIN = 1e-18
#: most matrices in one stacked evaluation; bounds the temporaries, not the result
_CHUNK = 64
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_UNIT_GAP_ENERGIES = np.array([0.0, 1.0])
#: row i is the Pauli matrix sigma_i flattened, so axes @ rows gives r.sigma
_PAULI_ROWS = np.array(linalg.PAULIS).reshape(3, 4)
#: row i is sigma_i transposed and flattened, so rows @ vec(B) gives Tr(B sigma_i)
_PAULI_T_ROWS = np.array([s.T for s in linalg.PAULIS]).reshape(3, 4)
_EYE2 = np.eye(2, dtype=complex)


class GridMax(NamedTuple):
    value: float
    t: float


class AxisSearch(NamedTuple):
    value: float
    axis: np.ndarray


def fibonacci_sphere_axes(
    n: int,
    seed: int | np.random.Generator | None = None,
    jitter: float = 0.0,
) -> np.ndarray:
    """n near-uniform unit vectors on S^2 (Fibonacci lattice), optionally jittered.

    The lattice itself is deterministic; ``jitter`` adds seeded Gaussian
    perturbations of size jitter * lattice spacing so repeated searches with
    different seeds probe different gap locations.
    """
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    axes = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        spacing = math.sqrt(4.0 * math.pi / n)
        axes = axes + jitter * spacing * rng.standard_normal(axes.shape)
        axes /= np.linalg.norm(axes, axis=1)[:, None]
    return axes


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b for two 3-vectors, the products and differences of ``np.cross``."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _tangent_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(axis)))] = 1.0
    t1 = _cross(axis, helper)
    t1 /= np.linalg.norm(t1)
    return t1, _cross(axis, t1)


def _chunked(kernel: Callable[[np.ndarray], np.ndarray], items: np.ndarray) -> np.ndarray:
    """kernel over ``_CHUNK``-row slices of ``items``, concatenated.

    Every kernel computes each row independently of the others, so the split
    changes memory use only, never a value.
    """
    return np.concatenate([kernel(items[i : i + _CHUNK]) for i in range(0, len(items), _CHUNK)])


def _first_improvement(
    objective: Callable[[np.ndarray], np.ndarray],
    candidates: Callable[[np.ndarray, int], np.ndarray],
    point: np.ndarray,
    value: float,
    count: int,
) -> tuple[np.ndarray, float, bool]:
    """One round of ``count`` ordered moves, accepting every improving one.

    ``candidates(point, k)`` stacks moves ``k, ..., count - 1`` applied to
    ``point``, and ``objective`` maps that stack to one value per row.  The
    first row below ``value`` by more than the acceptance margin is taken and
    the moves after it are re-stacked from the new point, which is exactly
    the sequence of moves that trying them one at a time accepts.
    """
    improved = False
    k = 0
    while k < count:
        stack = candidates(point, k)
        values = objective(stack)
        hits = values < value - _ACCEPT_MARGIN
        if not hits.any():
            break
        j = int(hits.argmax())
        point, value, improved = stack[j], float(values[j]), True
        k += j + 1
    return point, value, improved


def _sphere_moves(axis: np.ndarray, step: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """Rotations by ``step`` towards +-t1, +-t2, the tangent basis at ``axis``.

    The four directions are fixed for the round; later moves in the round
    rotate the accepted point along them.
    """
    t1, t2 = _tangent_basis(axis)
    directions = np.array([t1, -t1, t2, -t2])
    cos, sin = math.cos(step), math.sin(step)

    def candidates(point: np.ndarray, k: int) -> np.ndarray:
        cand = cos * point + sin * directions[k:]
        return cand / np.sqrt(np.vecdot(cand, cand))[:, None]

    return candidates


def _refine_axis(
    objective: Callable[[np.ndarray], np.ndarray],
    axis: np.ndarray,
    value: float,
    minimize: bool = True,
) -> tuple[float, np.ndarray]:
    """Derivative-free descent on the sphere: rotate towards tangent directions,
    halving the step angle from ``_ANGLE_STEP0`` down to ``_ANGLE_STEP_MIN``.

    ``objective`` maps an ``(N, 3)`` stack of axes to N values, and ``value``
    is its value at the start ``axis``, as the sampling pass computed it.
    """
    sign = 1.0 if minimize else -1.0

    def signed(axes: np.ndarray) -> np.ndarray:
        return sign * objective(axes)

    best = sign * value
    step = _ANGLE_STEP0
    while step > _ANGLE_STEP_MIN:
        axis, best, improved = _first_improvement(signed, _sphere_moves(axis, step), axis, best, 4)
        if not improved:
            step *= 0.5
    return sign * best, axis


def _golden_steps(lo: float, hi: float, tol: float) -> Generator[float, float, tuple[float, float]]:
    """Golden-section maximization on [lo, hi] as a coroutine.

    Yields each abscissa and receives the objective value there; returns
    (best value, its abscissa) once the bracket is no wider than ``tol``, or
    once a round leaves it no narrower (the float spacing exceeds ``tol``).
    """
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = yield x1
    f2 = yield x2
    while b - a > tol:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = yield x2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = yield x1
        if b - a >= width:
            break
    return (f1, x1) if f1 >= f2 else (f2, x2)


def _golden_max(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximization on every bracket [lo_i, hi_i] in lockstep.

    Each bracket runs its own scalar search; one round evaluates
    ``f(x, active)`` once, with ``x[j]`` the next abscissa of bracket
    ``active[j]``, over the brackets whose search has not finished.  Returns
    the best value and abscissa per bracket.
    """
    searches = [_golden_steps(a, b, tol) for a, b in zip(lo.tolist(), hi.tolist())]
    best, at = np.empty(len(searches)), np.empty(len(searches))
    pending = [(i, search, next(search)) for i, search in enumerate(searches)]
    while pending:
        active = np.array([i for i, _, _ in pending])
        fx = f(np.array([x for _, _, x in pending]), active).tolist()
        running = []
        for (i, search, _), fi in zip(pending, fx):
            try:
                running.append((i, search, search.send(fi)))
            except StopIteration as done:
                best[i], at[i] = done.value
        pending = running
    return best, at


def _pauli_combination(vectors: np.ndarray) -> np.ndarray:
    """r.sigma for a real 3-vector r, or for each row of an ``(..., 3)`` stack."""
    vectors = np.asarray(vectors, dtype=float)
    return (vectors @ _PAULI_ROWS).reshape(vectors.shape[:-1] + (2, 2))


def _qubit_projectors(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 +- r.sigma)/2 for an axis r, or for each row of an ``(..., 3)`` stack."""
    r_sigma = _pauli_combination(axes)
    return (_EYE2 + r_sigma) / 2.0, (_EYE2 - r_sigma) / 2.0


def _dephasing_distances(rho: DensityMatrix, axes: np.ndarray) -> np.ndarray:
    """2 ||rho - sum_i Pi_i rho Pi_i||^2 for the qubit measurement along each axis."""
    p_plus, p_minus = _qubit_projectors(axes)
    eye_b = np.eye(rho.d_b, dtype=complex)
    p0 = linalg.tensor(p_plus, eye_b)
    p1 = linalg.tensor(p_minus, eye_b)
    dephased = p0 @ rho.mat @ p0 + p1 @ rho.mat @ p1
    return 2.0 * linalg.hs_norm_sq(rho.mat - dephased)


def _direct_impacts(
    mat: np.ndarray, embedded: np.ndarray, energies: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """(1/2) ||U rho U^dagger - rho||^2 with U = sum_l exp(-i E_l t) Pi_l (x) 1_B.

    ``embedded`` is a ``(..., L, n, n)`` stack of embedded projectors and
    ``t`` an array of times broadcasting against its leading axes.
    """
    phases = np.exp(-1j * energies * t[..., None])
    u = np.add.reduce(phases[..., None, None] * embedded, axis=-3)
    delta = u @ mat @ u.conj().swapaxes(-1, -2) - mat
    return 0.5 * linalg.hs_norm_sq(delta)


def _grid_golden_max(
    mat: np.ndarray, embedded: np.ndarray, energies: np.ndarray, span: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per projector set in the ``(N, L, n, n)`` stack ``embedded``: the best
    direct impact on the grid span/grid_points * (1, ..., grid_points), then
    polished by golden section over the neighbouring grid cells.

    Returns (values, times), each of length N.
    """
    n = len(embedded)
    step = span / grid_points
    times = np.arange(1, grid_points + 1) * step
    block = max(1, _CHUNK // n)
    grid = np.concatenate(
        [
            _direct_impacts(mat, embedded[:, None], energies, times[None, j : j + block])
            for j in range(0, grid_points, block)
        ],
        axis=1,
    )
    best = np.argmax(grid, axis=1)
    best_val = grid[np.arange(n), best]
    best_t = times[best]
    lo = np.maximum(best_t - step, step * 1e-9)
    hi = np.minimum(best_t + step, span)
    val, t = _golden_max(
        lambda x, active: _direct_impacts(mat, embedded[active], energies, x), lo, hi, _TIME_TOL
    )
    polished = val >= best_val
    return np.where(polished, val, best_val), np.where(polished, t, best_t)


def impact_power_grid(
    rho: DensityMatrix, h: LocalHamiltonian, grid_points: int = 4096
) -> GridMax:
    """Maximize the impact over a dense time grid, then polish by golden section.

    The grid spans one period of the slowest pairwise oscillation,
    2 pi / min gap.  Each profile point is a direct evolve-and-subtract
    evaluation; no coefficient formula is involved.
    """
    if h.d_a != rho.d_a:
        raise DimensionMismatch(
            f"Hamiltonian acts on dimension {h.d_a}, state has d_A = {rho.d_a}"
        )
    levels, _ = h.distinct_levels()
    if levels.size < 2:
        raise DegenerateHamiltonian("impact power grid search needs at least two distinct levels")
    span = 2.0 * math.pi / float(np.min(np.diff(levels)))
    embedded = linalg.tensor(h.projectors, np.eye(rho.d_b, dtype=complex))
    value, t = _grid_golden_max(rho.mat, embedded[None], h.energies, span, grid_points)
    return GridMax(value=float(value[0]), t=float(t[0]))


def p_min_search(
    rho: DensityMatrix, samples: int = 1000, seed: int | np.random.Generator | None = 0
) -> AxisSearch:
    """Minimal impact power by axis sampling: min_r 2 ||rho - Phi_r(rho)||^2.

    Scans ``samples`` jittered Fibonacci-lattice axes and refines the best
    one by derivative-free descent, deterministic for a given seed.
    """
    if rho.d_a != 2:
        raise DimensionMismatch(f"p_min_search requires d_A = 2, got {rho.d_a}")

    def objective(axes: np.ndarray) -> np.ndarray:
        return _dephasing_distances(rho, axes)

    axes = fibonacci_sphere_axes(samples, seed=seed, jitter=0.5)
    values = _chunked(objective, axes)
    best = int(np.argmin(values))
    value, axis = _refine_axis(objective, axes[best], float(values[best]), minimize=True)
    return AxisSearch(value=value, axis=axis)


def _qubit_impact_powers(rho: DensityMatrix, axes: np.ndarray, grid_points: int) -> np.ndarray:
    """Grid-and-golden impact power of the unit-gap Hamiltonian along each axis."""
    projectors = np.stack(_qubit_projectors(axes), axis=-3)
    embedded = linalg.tensor(projectors, np.eye(rho.d_b, dtype=complex))
    # energies 0 and 1: the slowest oscillation has period 2 pi
    value, _ = _grid_golden_max(rho.mat, embedded, _UNIT_GAP_ENERGIES, 2.0 * math.pi, grid_points)
    return value


def p_max_search(
    rho: DensityMatrix,
    samples: int = 1000,
    seed: int | np.random.Generator | None = 0,
    grid_points: int = 24,
) -> AxisSearch:
    """Maximal impact power by axis sampling over time-grid maxima.

    For every axis the impact power of the unit-gap Hamiltonian along it is
    recomputed by the time-grid search of :func:`impact_power_grid`, so the
    only shared machinery with the closed form is the linear-algebra kernel.
    """
    if rho.d_a != 2:
        raise DimensionMismatch(f"p_max_search requires d_A = 2, got {rho.d_a}")

    def objective(axes: np.ndarray) -> np.ndarray:
        return _qubit_impact_powers(rho, axes, grid_points)

    axes = fibonacci_sphere_axes(samples, seed=seed, jitter=0.5)
    values = _chunked(objective, axes)
    best = int(np.argmax(values))
    value, axis = _refine_axis(objective, axes[best], float(values[best]), minimize=False)
    return AxisSearch(value=value, axis=axis)


def unitary_expm_evolve(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> DensityMatrix:
    """Evolve by a scaling-and-squaring Taylor exponential of -i H_A t (x) 1_B.

    Independent of the spectral route used by :func:`impactpower.dynamics.evolve`.
    """
    if h.d_a != rho.d_a:
        raise DimensionMismatch(
            f"Hamiltonian acts on dimension {h.d_a}, state has d_A = {rho.d_a}"
        )
    generator = -1j * float(t) * linalg.tensor(h.matrix(), np.eye(rho.d_b, dtype=complex))
    norm = math.sqrt(linalg.hs_norm_sq(generator))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 1.0 else 0
    scaled = generator / (2.0 ** squarings)
    dim = scaled.shape[0]
    term = np.eye(dim, dtype=complex)
    u = np.eye(dim, dtype=complex)
    for k in range(1, 40):
        term = term @ scaled / k
        u = u + term
        if math.sqrt(linalg.hs_norm_sq(term)) < 1e-20:
            break
    for _ in range(squarings):
        u = u @ u
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.dims)


def _cq_blocks(rests: np.ndarray) -> np.ndarray:
    """The B-side blocks (p tau_u, (1 - p) tau_v), stacked on axis -3, for each
    row [p, u_x, u_y, u_z, v_x, v_y, v_z].

    tau = (1 + b.sigma)/2 for the Bloch vector b first shrunk onto the unit
    ball, and the weight p is clamped to [0, 1].
    """
    vectors = rests[..., 1:7].reshape(rests.shape[:-1] + (2, 3))
    nrm_sq = (vectors * vectors).sum(axis=-1)
    scale = 1.0 / np.sqrt(np.maximum(nrm_sq, 1.0))
    taus = (_EYE2 + _pauli_combination(vectors * scale[..., None])) / 2.0
    p = np.minimum(np.maximum(rests[..., 0:1], 0.0), 1.0)
    return np.concatenate([p, 1.0 - p], axis=-1)[..., None, None] * taus


def _cq_distances(target: np.ndarray, pp: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """||rho - omega||^2 with omega = Pi_+ (x) B_u + Pi_- (x) B_v.

    ``pp`` holds the projectors Pi_+ and ``blocks`` the pair (B_u, B_v) from
    :func:`_cq_blocks`; stacked rows of the two broadcast against each other.
    """
    omega = linalg.tensor(pp, blocks[..., 0, :, :]) + linalg.tensor(_EYE2 - pp, blocks[..., 1, :, :])
    return linalg.hs_norm_sq(target - omega)


def _coordinate_moves(step: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """Move 2 i + s adds (step, -step)[s] to coordinate i of the 7 CQ parameters."""
    coords = np.repeat(np.arange(7), 2)
    deltas = np.tile([step, -step], 7)

    def candidates(rest: np.ndarray, k: int) -> np.ndarray:
        stack = np.repeat(rest[None], coords.size - k, axis=0)
        stack[np.arange(coords.size - k), coords[k:]] += deltas[k:]
        return stack

    return candidates


def discord_cq_search(
    rho: DensityMatrix, samples: int = 12, seed: int | np.random.Generator | None = 0
) -> float:
    """Geometric discord of a two-qubit state by direct search over CQ states.

    A candidate is parameterized by a measurement axis (two angles), a weight
    p, and two B-side Bloch vectors; the distance ||rho - omega||^2 is then
    minimized by multistart coordinate descent, ``samples`` starts in total.
    The result is an upper bound that tightens with more starts.
    """
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"discord_cq_search requires dims (2, 2), got {rho.dims}")
    rng = np.random.default_rng(seed)
    target = rho.mat

    def conditional_rest(axis: np.ndarray) -> np.ndarray:
        # weight and block Bloch vectors read off the measured state, the
        # optimal feasible point for this axis
        p_plus, p_minus = _qubit_projectors(axis)
        rest = np.zeros(7)
        for offset, proj in ((1, p_plus), (4, p_minus)):
            embedded = linalg.tensor(proj, _EYE2)
            block = linalg.partial_trace_A(embedded @ rho.mat @ embedded, rho.dims)
            weight = float(np.trace(block).real)
            if offset == 1:
                rest[0] = weight
            if weight > 1e-12:
                # Tr(block sigma_i), a sum of two entries, so exact in any order
                rest[offset : offset + 3] = (_PAULI_T_ROWS @ (block / weight).reshape(4)).real
        return rest

    lattice_starts = max(samples // 2, 1)
    start_axes = list(fibonacci_sphere_axes(lattice_starts))
    while len(start_axes) < samples:
        axis = rng.standard_normal(3)
        start_axes.append(axis / np.linalg.norm(axis))

    best = math.inf
    for axis in start_axes:
        rest = conditional_rest(axis)
        value = _cq_distances(target, _qubit_projectors(axis)[0], _cq_blocks(rest))
        step = 0.25
        while step > 1e-5:
            blocks = _cq_blocks(rest)
            axis, value, turned = _first_improvement(
                lambda axes: _cq_distances(target, _qubit_projectors(axes)[0], blocks),
                _sphere_moves(axis, step),
                axis,
                value,
                4,
            )
            pp = _qubit_projectors(axis)[0]
            rest, value, shifted = _first_improvement(
                lambda rests: _cq_distances(target, pp, _cq_blocks(rests)),
                _coordinate_moves(step),
                rest,
                value,
                14,
            )
            improved = turned or shifted
            # exact block-coordinate step: re-optimize weight and blocks for
            # the current axis, which the conditional data achieves.  At an
            # axis that has not turned since the last such step it would
            # repeat that step's value, which the distance has not risen
            # above since, so it is taken only after a turn.
            if turned:
                cand = conditional_rest(axis)
                val = _cq_distances(target, pp, _cq_blocks(cand))
                if val < value - _ACCEPT_MARGIN:
                    rest, value = cand, val
                    improved = True
            if not improved:
                step *= 0.5
        best = min(best, value)
    return max(best, 0.0)


def _trace_impacts(rho: DensityMatrix, axes: np.ndarray) -> np.ndarray:
    """Half the squared trace norm of U rho U^dagger - rho, U = r.sigma (x) 1_B, per axis r."""
    p_plus, p_minus = _qubit_projectors(axes)
    # unit gap, so the Hilbert-Schmidt peak time is exactly pi
    u = linalg.tensor(p_plus - p_minus, np.eye(rho.d_b, dtype=complex))
    delta = u @ rho.mat @ u.conj().swapaxes(-1, -2) - rho.mat
    return 0.5 * linalg.trace_norm(delta) ** 2


def trace_p_min_probe(
    rho: DensityMatrix, samples: int = 1000, seed: int | np.random.Generator | None = 0
) -> float:
    """Axis-sampled trace-norm analogue of the impact power gap.

    For each sampled axis the trace impact is evaluated at t = pi/dE, the
    time where the Hilbert-Schmidt impact of that axis peaks, and the minimum
    over axes is returned.  Since the trace impact dominates the
    Hilbert-Schmidt one pointwise, the result can only exceed the
    corresponding Hilbert-Schmidt gap estimate.
    """
    if rho.d_a != 2:
        raise DimensionMismatch(f"trace_p_min_probe requires d_A = 2, got {rho.d_a}")
    axes = fibonacci_sphere_axes(samples, seed=seed, jitter=0.5)
    return float(np.min(_chunked(partial(_trace_impacts, rho), axes)))
