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
candidate at a time: a descent round accepts the first improving candidate of
its stack and re-stacks the remaining moves from there.  Every search is a
coroutine that yields its requests, run by :func:`impactpower.linalg._lockstep`:
the golden sections of a time polish, one per bracket, and the starts of the
CQ multistart, one per start, each get one stacked evaluation a round.
"""

from __future__ import annotations

import math
import reprlib
from functools import partial
from typing import Callable, Generator, NamedTuple

import numpy as np

from . import linalg
from .errors import DegenerateHamiltonian, DimensionMismatch, OutOfRange
from .states import DensityMatrix
from .dynamics import LocalHamiltonian

_TIME_TOL = 1e-12
_ANGLE_STEP0 = 0.1
_ANGLE_STEP_MIN = 1e-8
#: a descent move is accepted only if it lowers the objective by more than this
_ACCEPT_MARGIN = 1e-18
#: most matrices in one stacked evaluation; bounds the temporaries, not the result
_CHUNK = 128
#: phase rates -i E of the unit-gap qubit Hamiltonian, energies 0 and 1
_UNIT_GAP_RATES = -1j * np.array([0.0, 1.0])
#: row i is the Pauli matrix sigma_i flattened, so axes @ rows gives r.sigma
_PAULI_ROWS = np.array(linalg.PAULIS).reshape(3, 4)
#: row i is sigma_i transposed and flattened, so rows @ vec(B) gives Tr(B sigma_i)
_PAULI_T_ROWS = np.array([s.T for s in linalg.PAULIS]).reshape(3, 4)
_EYE2 = np.eye(2, dtype=complex)
#: CQ coordinate move 2 i + s adds (step, -step)[s] to parameter i, column 3 + i of a CQ row
_MOVE_COLUMNS = 3 + np.repeat(np.arange(7), 2)
_MOVE_SIGNS = np.tile([1.0, -1.0], 7)
_MOVE_ROWS = np.arange(14)


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
    n = linalg._count(n, "n")
    try:
        spread = float(jitter)
    except OverflowError:
        spread = math.inf
    if not 0.0 <= spread < math.inf:  # NaN fails both comparisons
        raise OutOfRange(f"jitter {reprlib.repr(jitter)} is not a finite number >= 0")
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    axes = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    if spread > 0.0:
        rng = np.random.default_rng(seed)
        spacing = math.sqrt(4.0 * math.pi / n)
        axes = axes + spread * spacing * rng.standard_normal(axes.shape)
        axes /= np.linalg.norm(axes, axis=1)[:, None]
    return axes


def _cross(a: list[float], b: list[float]) -> np.ndarray:
    """a x b for two 3-vectors, the products and differences of ``np.cross``."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _tangent_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = axis.tolist()
    helper = [0.0, 0.0, 0.0]
    # the first component smallest in magnitude, as np.argmin takes it
    helper[min(range(3), key=lambda i: abs(a[i]))] = 1.0
    t1 = _cross(a, helper)
    # the arithmetic of np.linalg.norm for a real vector
    t1 /= math.sqrt(t1.dot(t1))
    return t1, _cross(a, t1.tolist())


def _chunked(kernel: Callable[[np.ndarray], np.ndarray], items: np.ndarray) -> np.ndarray:
    """kernel over ``_CHUNK``-row slices of ``items``, concatenated.

    Every kernel computes each row independently of the others, so the split
    changes memory use only, never a value.
    """
    if len(items) <= _CHUNK:
        return kernel(items)
    return np.concatenate([kernel(items[i : i + _CHUNK]) for i in range(0, len(items), _CHUNK)])


def _improvement_steps(
    candidates: Callable[[np.ndarray, int], np.ndarray], point: np.ndarray, value: float, count: int
) -> Generator[np.ndarray, np.ndarray, tuple[np.ndarray, float, bool]]:
    """One round of ``count`` ordered moves as a coroutine, accepting every improving one.

    ``candidates(point, k)`` stacks moves ``k, ..., count - 1`` applied to
    ``point``; each stack is yielded and one value per row is received.  The
    first row below ``value`` by more than the acceptance margin is taken and
    the moves after it are re-stacked from the new point, which is exactly
    the sequence of moves that trying them one at a time accepts.  Returns
    (point, value, improved).
    """
    improved = False
    k = 0
    while k < count:
        stack = candidates(point, k)
        values = (yield stack).tolist()
        threshold = value - _ACCEPT_MARGIN
        j = next((i for i, v in enumerate(values) if v < threshold), None)
        if j is None:
            break
        point, value, improved = stack[j], values[j], True
        k += j + 1
    return point, value, improved


def _sphere_moves(axis: np.ndarray, step: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """Rotations by ``step`` towards +-t1, +-t2, the tangent basis at ``axis``.

    The four directions are fixed for the round; later moves in the round
    rotate the accepted point along them.
    """
    t1, t2 = _tangent_basis(axis)
    cos = math.cos(step)
    turns = math.sin(step) * np.array([t1, -t1, t2, -t2])

    def candidates(point: np.ndarray, k: int) -> np.ndarray:
        cand = cos * point + turns[k:]
        return cand / np.sqrt(np.vecdot(cand, cand))[:, None]

    return candidates


def _sphere_descent(axis: np.ndarray, value: float) -> Generator[np.ndarray, np.ndarray, tuple]:
    """The step-halving descent on the sphere from ``axis`` as a coroutine.

    Yields stacks of axes and receives their values; returns (axis, value).
    """
    step = _ANGLE_STEP0
    while step > _ANGLE_STEP_MIN:
        axis, value, improved = yield from _improvement_steps(_sphere_moves(axis, step), axis, value, 4)
        if not improved:
            step *= 0.5
    return axis, value


def _axis_search(
    objective: Callable[[np.ndarray], np.ndarray],
    samples: int,
    seed: int | np.random.Generator | None,
    sign: float,
) -> AxisSearch:
    """The axis minimizing ``sign * objective``: sign 1 minimizes, -1 maximizes.

    ``objective`` maps an ``(N, 3)`` stack of axes to N values.  The first
    best of ``samples`` jittered Fibonacci-lattice axes, deterministic for a
    given seed, starts a derivative-free descent on the sphere that rotates
    towards tangent directions, halving the step angle from ``_ANGLE_STEP0``
    down to ``_ANGLE_STEP_MIN``.
    """

    def signed(axes: np.ndarray) -> np.ndarray:
        return sign * objective(axes)

    axes = fibonacci_sphere_axes(linalg._count(samples, "samples"), seed=seed, jitter=0.5)
    values = _chunked(signed, axes)
    best = int(np.argmin(values))
    descent = _sphere_descent(axes[best], float(values[best]))
    [(axis, value)] = linalg._lockstep([descent], lambda _, stacks: [signed(stacks[0])])
    return AxisSearch(value=sign * value, axis=axis)


def _pauli_combination(vectors: np.ndarray) -> np.ndarray:
    """r.sigma for a real 3-vector r, or for each row of an ``(..., 3)`` stack."""
    vectors = np.asarray(vectors, dtype=float)
    # one product for the whole stack: each entry is one signed component of
    # r, so the product is exact however it is summed
    return (vectors.reshape(-1, 3) @ _PAULI_ROWS).reshape(vectors.shape[:-1] + (2, 2))


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


def _direct_impacts(mat: np.ndarray, embedded: np.ndarray, rates: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1/2) ||U rho U^dagger - rho||^2 with U = sum_l exp(-i E_l t) Pi_l (x) 1_B.

    ``rates`` holds the phase rates -i E_l, ``embedded`` is a
    ``(..., L, n, n)`` stack of embedded projectors and ``t`` an array of
    times broadcasting against its leading axes.
    """
    phases = np.exp(rates * t[..., None])
    u = np.add.reduce(phases[..., None, None] * embedded, axis=-3)
    delta = u @ mat @ u.conj().swapaxes(-1, -2) - mat
    return 0.5 * linalg.hs_norm_sq(delta)


def _grid_golden_max(
    mat: np.ndarray, embedded: np.ndarray, rates: np.ndarray, span: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per projector set in the ``(N, L, n, n)`` stack ``embedded``: the best
    direct impact (phase rates ``rates``) on the grid
    span/grid_points * (1, ..., grid_points), then polished by golden section
    over the neighbouring grid cells.

    Returns (values, times), each of length N.
    """
    n = len(embedded)
    step = span / grid_points
    times = np.arange(1, grid_points + 1) * step
    block = max(1, _CHUNK // n)
    grid = np.concatenate(
        [
            _direct_impacts(mat, embedded[:, None], rates, times[None, j : j + block])
            for j in range(0, grid_points, block)
        ],
        axis=1,
    )
    best = np.argmax(grid, axis=1)
    best_val = grid[np.arange(n), best]
    best_t = times[best]
    lo = np.maximum(best_t - step, step * 1e-9)
    hi = np.minimum(best_t + step, span)

    def polish(active: list[int], x: list[float]) -> list[float]:
        # while every bracket is live, the whole stack is the active one
        stack = embedded if len(active) == n else embedded[active]
        return _direct_impacts(mat, stack, rates, np.array(x)).tolist()

    searches = [linalg._golden_steps(a, b, _TIME_TOL) for a, b in zip(lo.tolist(), hi.tolist())]
    val, t = np.array(linalg._lockstep(searches, polish)).T
    polished = val >= best_val
    return np.where(polished, val, best_val), np.where(polished, t, best_t)


def impact_power_grid(
    rho: DensityMatrix, h: LocalHamiltonian, grid_points: int = 4096
) -> GridMax:
    """Maximize the impact over a dense time grid, then polish by golden section.

    The grid spans ``h.period`` = 2 pi / min gap, one period of the slowest
    pairwise oscillation.  Each profile point is a direct evolve-and-subtract
    evaluation; no coefficient formula is involved.
    """
    h.check_acts_on(rho)
    if h.trivial:
        raise DegenerateHamiltonian("impact power grid search needs at least two distinct levels")
    grid_points = linalg._count(grid_points, "grid_points")
    embedded = linalg.tensor(h.projectors, np.eye(rho.d_b, dtype=complex))
    value, t = _grid_golden_max(rho.mat, embedded[None], -1j * h.energies, h.period, grid_points)
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

    return _axis_search(partial(_dephasing_distances, rho), samples, seed, 1.0)


def _qubit_impact_powers(rho: DensityMatrix, axes: np.ndarray, grid_points: int) -> np.ndarray:
    """Grid-and-golden impact power of the unit-gap Hamiltonian along each axis."""
    projectors = np.stack(_qubit_projectors(axes), axis=-3)
    embedded = linalg.tensor(projectors, np.eye(rho.d_b, dtype=complex))
    # energies 0 and 1: the slowest oscillation has period 2 pi
    value, _ = _grid_golden_max(rho.mat, embedded, _UNIT_GAP_RATES, 2.0 * math.pi, grid_points)
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

    objective = partial(_qubit_impact_powers, rho, grid_points=linalg._count(grid_points, "grid_points"))
    return _axis_search(objective, samples, seed, -1.0)


def unitary_expm_evolve(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> DensityMatrix:
    """Evolve by a scaling-and-squaring Taylor exponential of -i H_A t (x) 1_B.

    Independent of the spectral route used by :func:`impactpower.dynamics.evolve`.
    """
    h.check_acts_on(rho)
    try:
        time = float(t)
    except OverflowError:
        raise OutOfRange(f"time {reprlib.repr(t)} does not fit a float") from None
    if not math.isfinite(time):
        raise OutOfRange(f"time {time!r} is non-finite (NaN or inf)")
    generator = -1j * time * linalg.tensor(h.matrix(), np.eye(rho.d_b, dtype=complex))
    norm = math.sqrt(linalg.hs_norm_sq(generator))
    if not math.isfinite(norm):
        raise OutOfRange(f"generator -i H_A t has no finite norm at time {time!r}")
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


def _cq_row_distances(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`_cq_distances` for each CQ row [axis, p, u, v] of an ``(N, 10)`` stack:
    the measurement axis in columns 0-2, the parameters of :func:`_cq_blocks` after it."""
    return _cq_distances(target, _qubit_projectors(rows[:, :3])[0], _cq_blocks(rows[:, 3:]))


def _conditional_rests(rho: DensityMatrix, axes: np.ndarray) -> np.ndarray:
    """Per axis of an ``(N, 3)`` stack, the weight and block Bloch vectors read off
    rho measured along it: the optimal CQ parameters for that axis."""
    embedded = linalg.tensor(np.stack(_qubit_projectors(axes), axis=-3), _EYE2)
    blocks = linalg.partial_trace_A(embedded @ rho.mat @ embedded, rho.dims)
    weights = np.trace(blocks, axis1=-2, axis2=-1).real
    kept = weights > 1e-12
    # Tr(block sigma_i), a sum of two entries, so exact in any order
    bloch = ((blocks / np.where(kept, weights, 1.0)[..., None, None]).reshape(-1, 2, 4) @ _PAULI_T_ROWS.T).real
    bloch[~kept] = 0.0
    return np.concatenate([weights[:, :1], bloch.reshape(-1, 6)], axis=1)


def _axis_turns(axis: np.ndarray, step: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """:func:`_sphere_moves` of the axis of a CQ row, its parameters held."""
    turns = _sphere_moves(axis, step)

    def candidates(row: np.ndarray, k: int) -> np.ndarray:
        stack = np.repeat(row[None], 4 - k, axis=0)
        stack[:, :3] = turns(row[:3], k)
        return stack

    return candidates


def _coordinate_moves(step: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """Move 2 i + s adds (step, -step)[s] to CQ parameter i of a row."""
    deltas = step * _MOVE_SIGNS

    def candidates(row: np.ndarray, k: int) -> np.ndarray:
        stack = np.repeat(row[None], 14 - k, axis=0)
        stack[_MOVE_ROWS[: 14 - k], _MOVE_COLUMNS[k:]] += deltas[k:]
        return stack

    return candidates


def _cq_descent(row: np.ndarray, value: float) -> Generator[np.ndarray, np.ndarray | tuple, float]:
    """One start of :func:`discord_cq_search` as a coroutine, from the CQ row ``row``.

    Yields a stack of rows and receives their distances, or yields an axis
    alone for the conditional step and receives its conditional row with
    that row's distance.  Returns the start's final distance.
    """
    step = 0.25
    while step > 1e-5:
        row, value, turned = yield from _improvement_steps(_axis_turns(row[:3], step), row, value, 4)
        row, value, shifted = yield from _improvement_steps(_coordinate_moves(step), row, value, 14)
        improved = turned or shifted
        # exact block-coordinate step: re-optimize weight and blocks for
        # the current axis, which the conditional data achieves.  At an
        # axis that has not turned since the last such step it would
        # repeat that step's value, which the distance has not risen
        # above since, so it is taken only after a turn.
        if turned:
            cand, val = yield row[:3]
            if val < value - _ACCEPT_MARGIN:
                row, value, improved = cand, val, True
        if not improved:
            step *= 0.5
    return value


def _cq_answers(rho: DensityMatrix, requests: list[np.ndarray]) -> list:
    """One lockstep tick of :func:`discord_cq_search`: the reply to each
    :func:`_cq_descent` request.

    The axes asking for the conditional step get their rows from one
    :func:`_conditional_rests` call, and those rows join the move stacks of
    the other starts in one distance evaluation.  Every row is computed on
    its own, so each start takes the steps it would take alone.
    """
    stacks = [request for request in requests if request.ndim == 2]
    asked = [request for request in requests if request.ndim == 1]
    if asked:
        axes = np.array(asked)
        stacks.append(np.concatenate([axes, _conditional_rests(rho, axes)], axis=1))
    values = _chunked(partial(_cq_row_distances, rho.mat), np.concatenate(stacks))
    # the conditional rows come last: one (row, distance) answer per asking start
    answers = zip(stacks[-1], values[len(values) - len(asked) :].tolist())
    replies = []
    at = 0
    for request in requests:
        if request.ndim == 2:
            replies.append(values[at : at + len(request)])
            at += len(request)
        else:
            replies.append(next(answers))
    return replies


def discord_cq_search(
    rho: DensityMatrix, samples: int = 12, seed: int | np.random.Generator | None = 0
) -> float:
    """Geometric discord of a two-qubit state by direct search over CQ states.

    A candidate is parameterized by a measurement axis (two angles), a weight
    p, and two B-side Bloch vectors; the distance ||rho - omega||^2 is then
    minimized by multistart coordinate descent, ``samples`` starts in total,
    run in lockstep.  The result is an upper bound that tightens with more
    starts.
    """
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"discord_cq_search requires dims (2, 2), got {rho.dims}")
    samples = linalg._count(samples, "samples")
    rng = np.random.default_rng(seed)
    lattice_starts = max(samples // 2, 1)
    # one draw for the random starts, each row normalized on its own: the
    # stream and the bits of one standard_normal(3) call per start
    random_axes = rng.standard_normal((samples - lattice_starts, 3))
    axes = np.array([*fibonacci_sphere_axes(lattice_starts), *(a / np.linalg.norm(a) for a in random_axes)])
    rows = np.concatenate([axes, _conditional_rests(rho, axes)], axis=1)
    values = _chunked(partial(_cq_row_distances, rho.mat), rows).tolist()
    descents = [_cq_descent(row, value) for row, value in zip(rows, values)]
    return max(min(linalg._lockstep(descents, lambda _, requests: _cq_answers(rho, requests))), 0.0)


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
    axes = fibonacci_sphere_axes(linalg._count(samples, "samples"), seed=seed, jitter=0.5)
    return float(np.min(_chunked(partial(_trace_impacts, rho), axes)))
