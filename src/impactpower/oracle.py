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
its stack and re-stacks the remaining moves from there.  The sphere descent of
``p_min_search`` and ``p_max_search`` also stacks, after the moves left in its
round, the moves of the next ``_LOOKAHEAD`` rounds as they run if every move
before them is rejected.  Those rows are exactly the candidates that trying
one at a time reaches while it rejects, so the first improving row is still
the next move it accepts, and fewer stacks run one after another.  The CQ
multistart is a coroutine per start, run by :func:`impactpower.linalg._lockstep`,
and each round of it gets one stacked evaluation.

A time polish golden-sections the two grid cells around a grid maximum, and
:class:`_Polishes` steps the polishes of many axes together, one stacked
evaluation a step.  The impact of an axis has
|I''| <= C = ||[H, rho]||^2 + 2 ||[H, [H, rho]]||, so while a polish brackets
its maximum by a width w, with m the largest value found so far, it ends in
[m, m + C w^2/8]: every point of the bracket lies within w/2 of an end whose
value is at most m, and I' = 0 at an inner maximum.  ``p_max_search`` decides
each comparison of polished values as soon as these brackets make it certain.
A sampled axis stops once it cannot reach the largest m of all axes, and a
descent row once its comparison with the current value is certain, so only
the rows that decide a stack are polished to the end.  The descent needs the
accepted axis but not its value, so its next stack starts at once and is
compared against the accepted row's bracket, whose polish shares each stacked
evaluation with the new rows.  Every value and axis keeps its bits.
"""

from __future__ import annotations

import math
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
#: sphere-descent rounds stacked after the current one, as they run if its moves are rejected
_LOOKAHEAD = 2
#: a descent move is accepted only if it lowers the objective by more than this
_ACCEPT_MARGIN = 1e-18
#: rounding allowance of the polish bound of p_max: impacts are at most 2, a
#: priori bounds put their float error near 1e-14, and 16,000 seeded polishes
#: overshot the bound without it by at most 4.4e-16
_POLISH_SLACK = 1e-12
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
    spread = linalg._real(jitter, "jitter", low=0.0)
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    axes = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])
    if spread > 0.0:
        rng = linalg._seed(seed)
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


def _chunked(kernel: Callable[..., np.ndarray], *items: np.ndarray) -> np.ndarray:
    """kernel over ``_CHUNK``-row slices of the arrays ``items``, concatenated.

    Every kernel computes each row independently of the others, so the split
    changes memory use only, never a value.
    """
    n = len(items[0])
    if n <= _CHUNK:
        return kernel(*items)
    return np.concatenate([kernel(*(a[i : i + _CHUNK] for a in items)) for i in range(0, n, _CHUNK)])


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


def _sphere_descent(axis: np.ndarray, first_accepted: Callable[[np.ndarray], int | None]) -> np.ndarray:
    """The step-halving descent on the sphere from ``axis``; returns its last axis.

    ``first_accepted(stack)`` gives the index of the first row of a stack of
    axes that improves on the value of the current axis, or None.  A round
    tries the four moves of :func:`_sphere_moves` in order, accepting every
    improving one; a round with no move halves the step.  Each stack holds
    the moves left in the current round, then the moves of the next
    ``_LOOKAHEAD`` rounds as they run if every move before them is rejected:
    from the same axis, at the same step after a round that moved and at
    half the step otherwise, ending at ``_ANGLE_STEP_MIN``.  So the first
    improving row is the move that trying them one at a time accepts next,
    and the descent resumes from it.
    """
    step, first, improved = _ANGLE_STEP0, 0, False
    while step > _ANGLE_STEP_MIN:
        if first == 0:
            moves = _sphere_moves(axis, step)
        # (step, moves, first move) per stacked round, the current one first
        rounds = [(step, moves, first)]
        ahead = step if improved else 0.5 * step
        while len(rounds) <= _LOOKAHEAD and ahead > _ANGLE_STEP_MIN:
            rounds.append((ahead, _sphere_moves(axis, ahead), 0))
            ahead *= 0.5
        stack = np.concatenate([round_moves(axis, k) for _, round_moves, k in rounds])
        j = first_accepted(stack)
        if j is None:
            # every stacked round ran without a move: the next one has step ``ahead``
            step, first, improved = ahead, 0, False
            continue
        axis, improved = stack[j], True
        step, moves, first = [(s, m, k + 1) for s, m, f in rounds for k in range(f, 4)][j]
        if first == 4:
            # the round is over and moved: the next one keeps its step
            first, improved = 0, False
    return axis


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
    down to ``_ANGLE_STEP_MIN``.  A row is accepted when it lowers the value
    by more than the acceptance margin.
    """

    def signed(axes: np.ndarray) -> np.ndarray:
        return sign * objective(axes)

    axes = fibonacci_sphere_axes(linalg._count(samples, "samples"), seed=seed, jitter=0.5)
    values = _chunked(signed, axes)
    best = int(np.argmin(values))
    value = float(values[best])

    def first_accepted(stack: np.ndarray) -> int | None:
        nonlocal value
        stacked = signed(stack).tolist()
        threshold = value - _ACCEPT_MARGIN
        j = next((i for i, v in enumerate(stacked) if v < threshold), None)
        if j is not None:
            value = stacked[j]
        return j

    axis = _sphere_descent(axes[best], first_accepted)
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


def _grid_maxima(
    mat: np.ndarray, embedded: np.ndarray, rates: np.ndarray, span: float, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per projector set in the ``(N, L, n, n)`` stack ``embedded``: the best
    direct impact (phase rates ``rates``) on the grid
    span/grid_points * (1, ..., grid_points), and its time.
    """
    n = len(embedded)
    times = np.arange(1, grid_points + 1) * (span / grid_points)
    block = max(1, _CHUNK // n)
    grid = np.concatenate(
        [
            _direct_impacts(mat, embedded[:, None], rates, times[None, j : j + block])
            for j in range(0, grid_points, block)
        ],
        axis=1,
    )
    best = np.argmax(grid, axis=1)
    return grid[np.arange(n), best], times[best]


def _reach(value, curvature, width):
    """The most a polish can end with: m + C w^2/8 plus ``_POLISH_SLACK``, for the
    largest value m found so far, the curvature bound C of the impact and the
    width w of the bracket (floats or arrays).

    Every point of the bracket lies within w/2 of an end, an end has a value
    of at most m, and at an inner maximum I' = 0, so |I''| <= C bounds the
    rise from the nearer end by C (w/2)^2/2.
    """
    return value + curvature * (0.125 * width * width) + _POLISH_SLACK


class _Polishes:
    """The golden polish of each grid maximum of :func:`_grid_maxima`, stepped on request.

    ``g`` and ``t`` are the grid maxima of the ``(N, L, n, n)`` stack
    ``embedded`` and their times; row i golden-sections the two grid cells
    around t_i, and :func:`_polish_step` advances rows by one abscissa each.
    ``low[i]`` is the largest value of row i so far, g_i included; once
    ``requests[i]`` is None the polish is over and ``low[i]`` and ``t[i]``
    are its result: the golden maximum if it reaches g_i, else g_i at t_i.
    ``curvature``, the bound C of each row's impact, gives :meth:`high`.
    """

    def __init__(
        self,
        mat: np.ndarray,
        embedded: np.ndarray,
        rates: np.ndarray,
        span: float,
        grid_points: int,
        g: np.ndarray,
        t: np.ndarray,
        curvature: np.ndarray | None = None,
    ) -> None:
        step = span / grid_points
        lo = np.maximum(t - step, step * 1e-9)
        hi = np.minimum(t + step, span)
        self.mat, self.embedded, self.rates = mat, embedded, rates
        self.curvature = None if curvature is None else curvature.tolist()
        self.grid, self.low, self.t = g.tolist(), g.tolist(), t.tolist()
        self.searches = [linalg._golden_steps(a, b, _TIME_TOL) for a, b in zip(lo.tolist(), hi.tolist())]
        #: per row the pending (abscissa, bracket width), None once polished
        self.requests = [next(search) for search in self.searches]
        self._gathered = (None, None)

    def gathered(self, rows: list[int]) -> np.ndarray:
        """``embedded[rows]``, gathered again only when the rows change: they
        mostly step together round after round."""
        if self._gathered[0] != rows:
            self._gathered = (rows, self.embedded[rows])
        return self._gathered[1]

    def high(self, i: int) -> float:
        """The most row i can end with, :func:`_reach` until it is polished."""
        request = self.requests[i]
        return self.low[i] if request is None else _reach(self.low[i], self.curvature[i], request[1])

    def send(self, i: int, value: float) -> None:
        if value > self.low[i]:
            self.low[i] = value
        try:
            self.requests[i] = self.searches[i].send(value)
        except StopIteration as done:
            self.requests[i] = None
            polished, t = done.value
            if polished >= self.grid[i]:
                self.t[i] = t

    def finish(self, rows) -> None:
        """Polish ``rows`` to the end."""
        while any(self.requests[i] is not None for i in rows):
            _polish_step([(self, rows)])


def _polish_step(parts: list[tuple[_Polishes, list[int]]]) -> None:
    """One golden step of each listed row still polishing, from one stacked evaluation.

    ``parts`` pairs polishes that share their state and phase rates with
    lists of their rows.
    """
    parts = [(p, live) for p, rows in parts if (live := [i for i in rows if p.requests[i] is not None])]
    polish = parts[0][0]
    stacks = [p.gathered(rows) for p, rows in parts]
    embedded = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    times = np.array([p.requests[i][0] for p, rows in parts for i in rows])
    values = iter(_chunked(lambda e, t: _direct_impacts(polish.mat, e, polish.rates, t), embedded, times).tolist())
    for p, rows in parts:
        for i in rows:
            p.send(i, next(values))


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
    problem = (rho.mat, embedded[None], -1j * h.energies, h.period, grid_points)
    polish = _Polishes(*problem, *_grid_maxima(*problem))
    polish.finish([0])
    return GridMax(value=polish.low[0], t=polish.t[0])


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


def _unit_gap_embedded(rho: DensityMatrix, axes: np.ndarray) -> np.ndarray:
    """(Pi_+, Pi_-) (x) 1_B along each axis, stacked on axis -3: the levels 0
    and 1 of the unit-gap Hamiltonian H = Pi_- (x) 1_B."""
    return linalg.tensor(np.stack(_qubit_projectors(axes), axis=-3), np.eye(rho.d_b, dtype=complex))


def _curvatures(mat: np.ndarray, embedded: np.ndarray) -> np.ndarray:
    """C = ||[H, rho]||^2 + 2 ||[H, [H, rho]]|| for the unit-gap H = Pi_- (x) 1_B
    of each row of :func:`_unit_gap_embedded`: |I''| <= C for its impact.

    I'' = ||[H, rho]||^2 - Re Tr[(rho(t) - rho) [H, [H, rho(t)]]], and
    ||rho(t) - rho|| <= 2 with unitary invariance bounds the second term.
    The commutators are those of the direct route, never the M matrix.
    """
    h = embedded[:, 1]
    comm = h @ mat - mat @ h
    return linalg.hs_norm_sq(comm) + 2.0 * np.sqrt(linalg.hs_norm_sq(h @ comm - comm @ h))


def _unit_gap_polishes(rho: DensityMatrix, axes: np.ndarray, grid_points: int) -> _Polishes:
    """:class:`_Polishes` of the unit-gap impact along each axis, over its period 2 pi."""
    embedded = _unit_gap_embedded(rho, axes)
    problem = (rho.mat, embedded, _UNIT_GAP_RATES, 2.0 * math.pi, grid_points)
    return _Polishes(*problem, *_grid_maxima(*problem), _curvatures(rho.mat, embedded))


def _sampled_impact_powers(rho: DensityMatrix, axes: np.ndarray, grid_points: int) -> np.ndarray:
    """The grid-and-golden impact power of the unit-gap Hamiltonian along each
    axis that can have the largest one; a lower bound of it, below that
    largest value, along every other axis.

    The polishes run together, ``_CHUNK`` axes at a time, and an axis stops
    as soon as the :func:`_reach` of its polish falls below the largest value
    m of all axes so far: before the first step, for an axis whose grid
    maximum g lies below the largest g by more than C step^2/2 and the
    slack.  Every value is at most the axis's polished value, and every axis
    that stops ends below the largest polished value, so the first best axis
    and its value are those of polishing every axis.
    """
    span = 2.0 * math.pi

    def grid(chunk: np.ndarray) -> np.ndarray:
        # per axis [g, time of g, C]
        embedded = _unit_gap_embedded(rho, chunk)
        g, t = _grid_maxima(rho.mat, embedded, _UNIT_GAP_RATES, span, grid_points)
        return np.column_stack([g, t, _curvatures(rho.mat, embedded)])

    def polished(chunk: np.ndarray) -> np.ndarray:
        # the contenders in ``chunk`` polished together, each while it can reach ``best``
        nonlocal best
        embedded = _unit_gap_embedded(rho, axes[chunk])
        polish = _Polishes(rho.mat, embedded, _UNIT_GAP_RATES, span, grid_points, g[chunk], t[chunk], curvature[chunk])
        rows = range(len(chunk))
        while rows := [i for i in rows if polish.requests[i] is not None and polish.high(i) >= best]:
            _polish_step([(polish, rows)])
            best = max(best, *(polish.low[i] for i in rows))
        return np.array(polish.low)

    g, t, curvature = _chunked(grid, axes).T
    best = g.max()
    # a bracket is at most two grid steps wide
    contenders = np.flatnonzero(_reach(g, curvature, 2.0 * span / grid_points) >= best)
    values = g.copy()
    values[contenders] = _chunked(polished, contenders)
    return values


class _PmaxAcceptance:
    """The acceptance test of the ``p_max_search`` descent, decided on polishes in progress.

    Called on a stack, it returns the first row whose polished impact power
    exceeds the current value, the value of the last accepted axis, as
    :func:`_axis_search` would, or None.  Each row is compared by its bracket
    [``low``, ``high``] against the bracket of the current value.  A row
    stops once it is certainly rejected, and so does every row after a
    certain accept; the stack is decided once the first row left is a
    certain accept, or no row is left.  The accepted row's polish goes on
    while the next stacks are compared against it, in the same stacked
    evaluations as their own rows.
    """

    def __init__(self, rho: DensityMatrix, grid_points: int, value: float) -> None:
        self.rho, self.grid_points = rho, grid_points
        #: the current value: exact, or the polish and row of the last accepted axis
        self.value, self.held = value, None

    def bounds(self) -> tuple[float, float]:
        if self.held is None:
            return self.value, self.value
        polish, i = self.held
        return polish.low[i], polish.high(i)

    def __call__(self, stack: np.ndarray) -> int | None:
        polish = _unit_gap_polishes(self.rho, stack, self.grid_points)
        rows = range(len(stack))
        while True:
            low, high = self.bounds()
            # the descent minimizes -P and accepts -P_j < -value - margin: the
            # loosest threshold is at the lowest value, the strictest at the
            # highest.  A certain outcome stays certain, so a rejected row and
            # the rows after a certain accept leave for good.
            loosest, strictest = -low - _ACCEPT_MARGIN, -high - _ACCEPT_MARGIN
            left, accepted = [], False
            for i in rows:
                if -polish.high(i) < loosest:
                    left.append(i)
                    if -polish.low[i] < strictest:
                        accepted = True
                        break
            rows = left
            if not rows:
                return None
            if accepted and len(rows) == 1:
                self.held = (polish, rows[0])
                return rows[0]
            # some row is still unpolished, or the outcome would be certain
            held = [] if self.held is None else [(self.held[0], [self.held[1]])]
            _polish_step([(polish, rows), *held])

    def final(self) -> float:
        """The current value, its polish finished."""
        if self.held is None:
            return self.value
        polish, i = self.held
        polish.finish([i])
        return polish.low[i]


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
    The first best of ``samples`` jittered Fibonacci-lattice axes starts the
    descent of :func:`_axis_search`, with the same accepted moves and values.
    """
    if rho.d_a != 2:
        raise DimensionMismatch(f"p_max_search requires d_A = 2, got {rho.d_a}")

    grid_points = linalg._count(grid_points, "grid_points")
    axes = fibonacci_sphere_axes(linalg._count(samples, "samples"), seed=seed, jitter=0.5)
    values = _sampled_impact_powers(rho, axes, grid_points)
    best = int(np.argmax(values))
    accept = _PmaxAcceptance(rho, grid_points, float(values[best]))
    axis = _sphere_descent(axes[best], accept)
    return AxisSearch(value=accept.final(), axis=axis)


def unitary_expm_evolve(rho: DensityMatrix, h: LocalHamiltonian, t: float) -> DensityMatrix:
    """Evolve by a scaling-and-squaring Taylor exponential of -i H_A t (x) 1_B.

    Independent of the spectral route used by :func:`impactpower.dynamics.evolve`.
    """
    h.check_acts_on(rho)
    time = linalg._real(t, "time")
    if np.ndim(time) != 0:
        raise DimensionMismatch(f"unitary_expm_evolve takes one time, got shape {np.shape(time)}")
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
    rng = linalg._seed(seed)
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
