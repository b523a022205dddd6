import math
from functools import partial

import numpy as np
import pytest

from impactpower import correlations, dynamics, linalg, oracle, states
from impactpower.linalg import PAULIS
from impactpower.errors import DegenerateHamiltonian, DimensionMismatch, ImpactPowerError, OutOfRange

from conftest import random_hermitian


def bell_state():
    return states.from_pure(states.phi_plus(2), (2, 2))


def test_grid_matches_qubit_closed_form(rng):
    for _ in range(5):
        rho = states.random_state((2, 3), seed=rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ham = dynamics.LocalHamiltonian.from_bloch_axis(axis, float(rng.uniform(0.5, 3.0)))
        found = oracle.impact_power_grid(rho, ham, grid_points=256)
        assert abs(found.value - dynamics.impact_power(rho, ham)) <= 1e-10
        gap = float(ham.energies[1] - ham.energies[0])
        assert abs(found.t - math.pi / gap) <= 1e-6


def test_grid_rejects_trivial_hamiltonian():
    ham = dynamics.LocalHamiltonian.from_matrix(2.0 * np.eye(2))
    with pytest.raises(DegenerateHamiltonian):
        oracle.impact_power_grid(states.random_state((2, 2), seed=0), ham)


def test_grid_commensurate_qutrit_matches_calculus():
    # gaps 1, 1, 2: f(t) = (b10 + b21)(1 - cos t) + b20 (1 - cos 2t), whose
    # critical points are t = pi and cos t = -(b10 + b21) / (4 b20)
    rho = states.random_state((3, 2), seed=17)
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]))
    coeff = dynamics.impact_coefficients(rho, ham)
    b10, b20, b21 = coeff.b[1, 0], coeff.b[2, 0], coeff.b[2, 1]

    def profile(t):
        return (b10 + b21) * (1.0 - math.cos(t)) + b20 * (1.0 - math.cos(2.0 * t))

    candidates = [math.pi]
    if b20 > 0:
        c = -(b10 + b21) / (4.0 * b20)
        if -1.0 <= c <= 1.0:
            candidates += [math.acos(c), 2.0 * math.pi - math.acos(c)]
    analytic = max(profile(t) for t in candidates)
    found = oracle.impact_power_grid(rho, ham, grid_points=4096)
    assert abs(found.value - analytic) <= 1e-9


def test_grid_finishes_for_a_tiny_level_gap():
    # span = 2 pi / 1e-7 puts t where its float spacing exceeds the golden tolerance
    rho = states.random_state((3, 2), seed=0)
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 1.0 + 1e-7]))
    found = oracle.impact_power_grid(rho, ham)
    assert math.isfinite(found.value) and math.isfinite(found.t)
    assert 0.0 < found.value <= 2.0 * dynamics.impact_coefficients(rho, ham).a


@pytest.mark.parametrize("levels", [[0.0, 1e-320], [0.0, 1e-320, 2e-320]])
def test_grid_rejects_a_gap_with_no_finite_period(levels):
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag(levels))
    with pytest.raises(ImpactPowerError, match="gap 1e-320"):
        oracle.impact_power_grid(states.random_state((len(levels), 2), seed=0), ham)


def test_grid_monotone_under_refinement():
    rho = states.random_state((2, 2), seed=23)
    ham = dynamics.LocalHamiltonian.from_bloch_axis([0.1, -0.7, 0.7], 1.1)
    coarse = oracle.impact_power_grid(rho, ham, grid_points=128).value
    fine = oracle.impact_power_grid(rho, ham, grid_points=1024).value
    assert fine >= coarse - 1e-12


def test_p_min_search_werner():
    found = oracle.p_min_search(states.werner(1.0), samples=800, seed=1)
    assert abs(found.value - 1.0 / 9.0) <= 1e-8


def test_p_min_search_product_state():
    rho = states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    found = oracle.p_min_search(rho, samples=500, seed=2)
    assert found.value <= 1e-10


def test_p_min_search_matches_closed_form(rng):
    for _ in range(5):
        rho = states.random_state((2, 3), seed=rng)
        found = oracle.p_min_search(rho, samples=1000, seed=rng)
        assert abs(found.value - correlations.p_extrema(rho)[0]) <= 1e-8
        assert abs(np.linalg.norm(found.axis) - 1.0) <= 1e-12


def test_p_min_sampling_resolution_ladder(rng):
    # raw lattice sampling alone reaches 1e-4; refinement closes to 1e-9
    rho = states.random_state((2, 2), seed=rng)
    closed = correlations.p_extrema(rho)[0]
    axes = oracle.fibonacci_sphere_axes(10_000)
    eye_b = np.eye(2, dtype=complex)
    raw = math.inf
    for axis in axes:
        r_sigma = axis[0] * np.array([[0, 1], [1, 0]]) + axis[1] * np.array(
            [[0, -1j], [1j, 0]]
        ) + axis[2] * np.array([[1, 0], [0, -1]])
        p0 = np.kron((np.eye(2) + r_sigma) / 2.0, eye_b)
        p1 = np.kron((np.eye(2) - r_sigma) / 2.0, eye_b)
        dephased = p0 @ rho.mat @ p0 + p1 @ rho.mat @ p1
        diff = rho.mat - dephased
        raw = min(raw, 2.0 * float(np.vdot(diff, diff).real))
    assert abs(raw - closed) <= 1e-4
    refined = oracle.p_min_search(rho, samples=10_000, seed=0).value
    assert abs(refined - closed) <= 1e-9


def test_p_min_search_monotone_in_samples():
    rho = states.werner(0.3)
    coarse = oracle.p_min_search(rho, samples=200, seed=5).value
    fine = oracle.p_min_search(rho, samples=800, seed=5).value
    assert fine <= coarse + 1e-12


def test_p_min_search_requires_qubit_a():
    with pytest.raises(DimensionMismatch):
        oracle.p_min_search(states.random_state((3, 2), seed=0))


def test_p_max_search_matches_closed_form(rng):
    for _ in range(3):
        rho = states.random_state((2, 2), seed=rng)
        found = oracle.p_max_search(rho, samples=400, seed=rng, grid_points=12)
        assert abs(found.value - correlations.p_extrema(rho)[1]) <= 1e-7


@pytest.mark.parametrize("d_b", [3, 4])
def test_p_max_search_matches_closed_form_larger_b(rng, d_b):
    for _ in range(2):
        rho = states.random_state((2, d_b), seed=rng)
        found = oracle.p_max_search(rho, samples=100, seed=rng, grid_points=12)
        assert abs(found.value - correlations.p_extrema(rho)[1]) <= 1e-7


def test_expm_evolve_identity_at_t0(rng):
    rho = states.random_state((2, 2), seed=rng)
    ham = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 1.0)
    assert np.max(np.abs(oracle.unitary_expm_evolve(rho, ham, 0.0).mat - rho.mat)) <= 1e-12


def test_expm_evolve_matches_spectral_route(rng):
    for _ in range(10):
        d_a = int(rng.integers(2, 4))
        rho = states.random_state((d_a, 2), seed=rng)
        ham = dynamics.LocalHamiltonian.from_matrix(random_hermitian(rng, d_a))
        t = float(rng.uniform(0.0, 5.0))
        direct = oracle.unitary_expm_evolve(rho, ham, t)
        spectral = dynamics.evolve(rho, ham, t)
        assert np.sqrt(np.vdot(direct.mat - spectral.mat, direct.mat - spectral.mat).real) <= 1e-9


def test_expm_evolve_diagonal_phases():
    ham = dynamics.LocalHamiltonian(
        np.array([0.0, 1.5]),
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    rho = states.random_state((2, 2), seed=4)
    t = 0.9
    u = np.kron(np.diag([1.0, np.exp(-1.5j * t)]), np.eye(2))
    expected = u @ rho.mat @ u.conj().T
    assert np.max(np.abs(oracle.unitary_expm_evolve(rho, ham, t).mat - expected)) <= 1e-12


def test_cq_search_feasible_point_is_zero(rng):
    spec = states.random_cq_spec((2, 2), seed=rng)
    omega = states.classical_quantum(spec)
    assert oracle.discord_cq_search(omega, samples=8, seed=0) <= 1e-9


def test_cq_search_werner_and_bell():
    assert abs(oracle.discord_cq_search(states.werner(0.0), samples=8, seed=0) - 1.0 / 18.0) <= 1e-6
    assert abs(oracle.discord_cq_search(bell_state(), samples=8, seed=0) - 0.5) <= 1e-6


def test_cq_search_matches_k_matrix_route(rng):
    for _ in range(5):
        rho = states.random_state((2, 2), seed=rng)
        found = oracle.discord_cq_search(rho, samples=8, seed=rng)
        assert abs(found - correlations.k_matrix_discord(rho)) <= 1e-6


def test_cq_search_monotone_in_starts():
    rho = states.random_state((2, 2), seed=31)
    coarse = oracle.discord_cq_search(rho, samples=4, seed=9)
    fine = oracle.discord_cq_search(rho, samples=12, seed=9)
    assert fine <= coarse + 1e-12


def test_wrong_dimension_hamiltonian_raises_the_same_error_on_every_route():
    rho = states.random_state((3, 2), seed=0)
    ham = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 1.0)
    routes = (
        lambda: dynamics.impact(rho, ham, 0.5),
        lambda: dynamics.impact_power_result(rho, ham),
        lambda: oracle.impact_power_grid(rho, ham, grid_points=16),
        lambda: oracle.unitary_expm_evolve(rho, ham, 0.5),
    )
    messages = set()
    for route in routes:
        with pytest.raises(DimensionMismatch) as excinfo:
            route()
        messages.add(str(excinfo.value))
    assert messages == {"Hamiltonian acts on dimension 2, state has d_A = 3"}


def test_cq_search_requires_two_qubits():
    with pytest.raises(DimensionMismatch):
        oracle.discord_cq_search(states.random_state((2, 3), seed=0))


def test_trace_probe_exceeds_hs_gap(rng):
    for _ in range(3):
        rho = states.random_state((2, 2), seed=rng)
        probe = oracle.trace_p_min_probe(rho, samples=300, seed=rng)
        assert probe >= correlations.p_extrema(rho)[0] - 1e-10


def test_trace_probe_exceeds_hs_gap_qubit_qutrit(rng):
    for _ in range(3):
        rho = states.random_state((2, 3), seed=rng)
        probe = oracle.trace_p_min_probe(rho, samples=300, seed=rng)
        assert probe >= correlations.p_extrema(rho)[0] - 1e-10


def test_fibonacci_axes_unit_and_deterministic():
    axes = oracle.fibonacci_sphere_axes(100)
    assert np.max(np.abs(np.linalg.norm(axes, axis=1) - 1.0)) <= 1e-12
    jittered = oracle.fibonacci_sphere_axes(100, seed=3, jitter=0.5)
    jittered2 = oracle.fibonacci_sphere_axes(100, seed=3, jitter=0.5)
    assert np.array_equal(jittered, jittered2)
    assert np.max(np.abs(np.linalg.norm(jittered, axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize(
    "jitter, problem",
    [
        (math.inf, r"is non-finite \(NaN or inf\)"),
        (-math.inf, r"is non-finite \(NaN or inf\)"),
        (math.nan, r"is non-finite \(NaN or inf\)"),
        (-0.5, r"outside \[0, inf\]"),
        (10**400, "does not fit a float"),
        ("0.5", "is not a real number"),
        (True, "is not a real number"),
    ],
    ids=["inf", "-inf", "nan", "-0.5", str(10**400), "0.5-string", "True"],
)
def test_fibonacci_jitter_must_be_finite_and_not_negative(jitter, problem):
    # inf once gave all-NaN axes; NaN and negative values were silently
    # ignored, and "0.5" and True were read as numbers
    with pytest.raises(OutOfRange, match=f"^jitter .* {problem}$"):
        oracle.fibonacci_sphere_axes(4, seed=0, jitter=jitter)


# --- stacked search machinery --------------------------------------------------


def _sequential_tangent_basis(axis):
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(axis)))] = 1.0
    t1 = np.cross(axis, helper)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(axis, t1)


def _sequential_refine_axis(objective, axis, minimize=True, step0=0.1, step_min=1e-8):
    """Reference: the descent trying one candidate axis at a time.

    The direction tuple is built once per round, so moves after an accepted
    one rotate the new axis along the round's original tangent directions.
    """
    sign = 1.0 if minimize else -1.0
    best = sign * objective(axis)
    step = step0
    while step > step_min:
        improved = False
        t1, t2 = _sequential_tangent_basis(axis)
        for direction in (t1, -t1, t2, -t2):
            cand = math.cos(step) * axis + math.sin(step) * direction
            cand /= np.linalg.norm(cand)
            val = sign * objective(cand)
            if val < best - 1e-18:
                axis, best = cand, val
                improved = True
                t1, t2 = _sequential_tangent_basis(axis)
        if not improved:
            step *= 0.5
    return sign * best, axis


def _sphere_bowl(axes):
    # elementwise in the last axis, so one axis and a stack of axes share arithmetic
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    return (x - 0.3) * (x - 0.3) + 2.0 * (y + 0.1) * (y + 0.1) + 0.5 * z + 0.1 * x * y


@pytest.mark.parametrize("minimize", [True, False])
def test_stacked_refine_matches_sequential_loop(minimize):
    # the reference: the first best lattice axis, then the one-at-a-time descent
    sign = 1.0 if minimize else -1.0
    for seed in range(6):
        axes = oracle.fibonacci_sphere_axes(40, seed=seed, jitter=0.5)
        values = _sphere_bowl(axes)
        start = axes[int(np.argmin(values) if minimize else np.argmax(values))]
        expected = _sequential_refine_axis(_sphere_bowl, start, minimize=minimize)
        found = oracle._axis_search(_sphere_bowl, 40, seed, sign)
        assert found.value == expected[0]
        assert np.array_equal(found.axis, expected[1])
        assert not np.array_equal(found.axis, start)


def _axis_reference_states():
    return [
        states.random_state((2, 2), seed=21),
        states.random_state((2, 3), seed=22),
        states.random_state((2, 2), rank=1, seed=23),
    ]


def _polished_impact_powers(rho, axes, grid_points):
    """The p_max objective: grid and golden polish of the unit-gap impact along each axis, to the end."""
    polish = oracle._unit_gap_polishes(rho, axes, grid_points)
    polish.finish(range(len(axes)))
    return np.array(polish.low)


@pytest.mark.parametrize("kind", ["p_min", "p_max"])
def test_look_ahead_descent_matches_sequential_loop_on_oracle_objectives(kind, monkeypatch):
    # the stacks hold the moves of the rounds after the current one as if every
    # move were rejected; the one-at-a-time descent must still be reproduced bit
    # for bit, the stacked objectives scoring each axis as it does alone, and
    # p_max deciding each stack on polishes in progress
    sign = 1.0 if kind == "p_min" else -1.0
    stacks = []
    descend = oracle._sphere_descent

    def counted_descent(axis, first_accepted):
        def counted(stack):
            stacks.append(len(stack))
            return first_accepted(stack)

        return descend(axis, counted)

    monkeypatch.setattr(oracle, "_sphere_descent", counted_descent)
    for i, rho in enumerate(_axis_reference_states()):
        stacks.clear()
        if kind == "p_min":
            objective = partial(oracle._dephasing_distances, rho)
            found = oracle.p_min_search(rho, samples=40, seed=[7, i])
        else:
            objective = partial(_polished_impact_powers, rho, grid_points=12)
            found = oracle.p_max_search(rho, samples=40, seed=[7, i], grid_points=12)
        axes = oracle.fibonacci_sphere_axes(40, seed=[7, i], jitter=0.5)
        start = axes[int(np.argmin(sign * objective(axes)))]
        tried = []

        def one(axis):
            tried.append(axis)
            return objective(axis[None])[0]

        value, axis = _sequential_refine_axis(one, start, minimize=kind == "p_min")
        assert found.value == value
        assert np.array_equal(found.axis, axis)
        assert not np.array_equal(found.axis, start)
        # a round tries at most four moves, so rounds >= tries / 4; without the
        # look-ahead every round takes a stack of its own
        assert len(stacks) < (len(tried) - 1) / 4
        assert max(stacks) > 4


def _frozen_unpruned_impact_powers(rho, axes, grid_points):
    """Reference: the p_max sample scores before pruning, grid and golden polish
    on every axis; returns (scores, grid maxima)."""
    mat = rho.mat
    embedded = np.stack(
        [np.kron(p, np.eye(rho.d_b)) for pair in zip(*oracle._qubit_projectors(axes)) for p in pair]
    ).reshape(len(axes), 2, 2 * rho.d_b, 2 * rho.d_b)
    rates = -1j * np.array([0.0, 1.0])
    span = 2.0 * math.pi
    n = len(embedded)
    step = span / grid_points
    times = np.arange(1, grid_points + 1) * step
    block = max(1, oracle._CHUNK // n)
    grid = np.concatenate(
        [
            oracle._direct_impacts(mat, embedded[:, None], rates, times[None, j : j + block])
            for j in range(0, grid_points, block)
        ],
        axis=1,
    )
    best = np.argmax(grid, axis=1)
    best_val = grid[np.arange(n), best]
    best_t = times[best]
    lo = np.maximum(best_t - step, step * 1e-9)
    hi = np.minimum(best_t + step, span)

    def polish(active, steps):
        return oracle._direct_impacts(mat, embedded[active], rates, np.array([x for x, _ in steps])).tolist()

    searches = [linalg._golden_steps(a, b, 1e-12) for a, b in zip(lo.tolist(), hi.tolist())]
    val = np.array(linalg._lockstep(searches, polish))[:, 0]
    return np.where(val >= best_val, val, best_val), best_val


def _curvature(rho, axis):
    """||[H, rho]||^2 + 2 ||[H, [H, rho]]|| for the unit-gap H = Pi_- (x) 1_B along ``axis``."""
    h = np.kron((np.eye(2) - sum(a * s for a, s in zip(axis, PAULIS))) / 2.0, np.eye(rho.d_b))
    comm = h @ rho.mat - rho.mat @ h
    return np.linalg.norm(comm) ** 2 + 2.0 * np.linalg.norm(h @ comm - comm @ h)


@pytest.mark.parametrize("grid_points", [12, 13, 24])
def test_pruned_sample_scores_keep_the_first_best_axis(grid_points):
    step = 2.0 * math.pi / grid_points
    stopped = 0
    for i, rho in enumerate(_axis_reference_states() + [states.random_state((2, 4), rank=2, seed=24)]):
        axes = oracle.fibonacci_sphere_axes(300, seed=[8, i], jitter=0.5)
        pruned = oracle._sampled_impact_powers(rho, axes, grid_points)
        full, g = oracle._chunked(
            lambda a: np.column_stack(_frozen_unpruned_impact_powers(rho, a, grid_points)), axes
        ).T
        best = int(np.argmax(full))
        assert int(np.argmax(pruned)) == best
        assert pruned[best] == full[best]
        # the rule: an axis stops once its polish cannot reach the largest value
        # so far, so a score lies between g and the polished value, and below
        # the best unless it is the polished value
        assert np.all((g <= pruned) & (pruned <= full))
        assert np.all((pruned == full) | (pruned < full[best]))
        # an axis whose g + C step^2/2 misses the largest g is never polished;
        # borderline axes within 1e-6 are left out
        reach = g + np.array([_curvature(rho, axis) for axis in axes]) * step * step / 2.0
        kept = reach < g.max() - 1e-6
        assert np.array_equal(pruned[kept], g[kept])
        assert kept.any()
        stopped += np.count_nonzero((g < pruned) & (pruned < full))
    # on an odd grid the polish gains, and some axes stop after gaining
    assert stopped > 0 or grid_points % 2 == 0


def _frozen_p_max_search(rho, samples, seed, grid_points):
    """Reference: p_max_search with every sampled axis and every descent row
    polished to the end, each comparison made on final values."""

    def objective(axes):
        return oracle._chunked(lambda a: _frozen_unpruned_impact_powers(rho, a, grid_points)[0], axes)

    return oracle._axis_search(objective, samples, seed, -1.0)


def _p_max_reference_states():
    return [
        states.random_state((2, 2), seed=31),
        states.random_state((2, 3), seed=32),
        states.random_state((2, 2), rank=1, seed=33),
        states.random_state((2, 4), rank=2, seed=34),
    ]


@pytest.mark.parametrize("grid_points", [7, 12, 13, 24])
@pytest.mark.parametrize("samples", [100, 1000])
def test_p_max_search_matches_polishing_every_row(samples, grid_points):
    # odd grids miss t = pi, where every unit-gap impact peaks, so there the
    # polish gains more than rounding and the brackets decide the comparisons
    for i, rho in enumerate(_p_max_reference_states()):
        found = oracle.p_max_search(rho, samples=samples, seed=[10, i], grid_points=grid_points)
        expected = _frozen_p_max_search(rho, samples, [10, i], grid_points)
        assert found.value == expected.value
        assert np.array_equal(found.axis, expected.axis)


@pytest.mark.parametrize("grid_points", [7, 13])
def test_polished_value_stays_within_every_round_bound(grid_points):
    # while a golden section brackets its maximum by a width w, with m the
    # largest value so far, the polish ends at most at m + C w^2/8: every point
    # lies within w/2 of an end, and an end's value is at most m
    span = 2.0 * math.pi
    for k, rho in enumerate(_axis_reference_states()):
        axes = oracle.fibonacci_sphere_axes(20, seed=[11, k], jitter=0.5)
        polish = oracle._unit_gap_polishes(rho, axes, grid_points)
        curvature = np.array([_curvature(rho, axis) for axis in axes])
        bounds = [[] for _ in axes]
        rows = list(range(len(axes)))
        while rows := [i for i in rows if polish.requests[i] is not None]:
            for i in rows:
                bounds[i].append(polish.low[i] + curvature[i] * polish.requests[i][1] ** 2 / 8.0)
            oracle._polish_step([(polish, rows)])
        for final, rounds in zip(polish.low, bounds):
            # a float allowance far below the 1e-12 slack of the search
            assert final <= min(rounds) + 1e-14
            assert len(rounds) > 50
        # the first bound is at most the g + C step^2/2 of the sampling rule
        step = span / grid_points
        assert all(b[0] <= g + c * step * step / 2.0 + 1e-14 for b, g, c in zip(bounds, polish.grid, curvature))


def _bench_p_max_pool(seed):
    """The p_max_search requests of the oracle-crosscheck benchmark pool: 28 states and seeds."""
    return [
        (states.random_state((2, 2), seed=np.random.default_rng([seed, 4, k])), [seed, 4, k, 1]) for k in range(28)
    ]


def test_p_max_search_makes_fewer_sequential_evaluations(monkeypatch):
    # with every comparison made on final values the search made 60,299
    # sequential calls on this pool; deciding each as soon as its outcome is
    # certain makes under 0.75 of them
    calls = []
    direct = oracle._direct_impacts

    def counted(*args):
        calls.append(None)
        return direct(*args)

    monkeypatch.setattr(oracle, "_direct_impacts", counted)
    for rho, seed in _bench_p_max_pool(0):
        oracle.p_max_search(rho, samples=100, seed=seed, grid_points=12)
    assert len(calls) <= 0.75 * 60299


@pytest.mark.parametrize("grid_points", [7, 12, 13, 24])
def test_polish_bound_holds_on_dense_brackets(grid_points):
    # I'' <= C = ||[H, rho]||^2 + 2 ||[H, [H, rho]]||, so no point of a polish
    # bracket, which lies within one grid step of the grid maximum g, exceeds
    # g + C step^2/2
    span = 2.0 * math.pi
    step = span / grid_points
    gained = 0.0
    for i, rho in enumerate(_axis_reference_states()):
        axes = oracle.fibonacci_sphere_axes(30, seed=[9, i], jitter=0.5)
        embedded = oracle._unit_gap_embedded(rho, axes)
        g, t = oracle._grid_maxima(rho.mat, embedded, oracle._UNIT_GAP_RATES, span, grid_points)
        for axis, g_axis, t_axis in zip(axes, g.tolist(), t.tolist()):
            bracket = np.linspace(max(t_axis - step, step * 1e-9), min(t_axis + step, span), 2001)
            dense = dynamics.impact(rho, dynamics.LocalHamiltonian.from_bloch_axis(axis, 1.0), bracket)
            assert dense.max() <= g_axis + _curvature(rho, axis) * step * step / 2.0 + 1e-12
            gained = max(gained, dense.max() - g_axis)
    # an odd grid misses t = pi, where a unit-gap impact a - b cos t peaks, so
    # there the polish gains more than rounding
    if grid_points % 2:
        assert gained > 1e-6


def _sequential_first_improvement(objective, candidates, point, value, count):
    improved = False
    k = 0
    while k < count:
        stack = candidates(point, k)
        values = objective(stack)
        hits = values < value - 1e-18
        if not hits.any():
            break
        j = int(hits.argmax())
        point, value, improved = stack[j], float(values[j]), True
        k += j + 1
    return point, value, improved


def _sequential_coordinate_moves(step):
    coords = np.repeat(np.arange(7), 2)
    deltas = np.tile([step, -step], 7)

    def candidates(rest, k):
        stack = np.repeat(rest[None], coords.size - k, axis=0)
        stack[np.arange(coords.size - k), coords[k:]] += deltas[k:]
        return stack

    return candidates


def _sequential_discord_cq_search(rho, samples, seed):
    """Reference: the CQ multistart run one start after another, each start
    with its own descent, conditional step and per-start distance calls."""
    rng = np.random.default_rng(seed)
    target = rho.mat

    def conditional_rest(axis):
        p_plus, p_minus = oracle._qubit_projectors(axis)
        rest = np.zeros(7)
        for offset, proj in ((1, p_plus), (4, p_minus)):
            embedded = np.kron(proj, np.eye(2))
            block = np.einsum("aiaj->ij", (embedded @ rho.mat @ embedded).reshape(2, 2, 2, 2))
            weight = float(np.trace(block).real)
            if offset == 1:
                rest[0] = weight
            if weight > 1e-12:
                rest[offset : offset + 3] = [np.trace((block / weight) @ s).real for s in PAULIS]
        return rest

    lattice_starts = max(samples // 2, 1)
    random_axes = rng.standard_normal((max(samples - lattice_starts, 0), 3))
    start_axes = [*oracle.fibonacci_sphere_axes(lattice_starts), *(a / np.linalg.norm(a) for a in random_axes)]
    best = math.inf
    for axis in start_axes:
        rest = conditional_rest(axis)
        value = oracle._cq_distances(target, oracle._qubit_projectors(axis)[0], oracle._cq_blocks(rest))
        step = 0.25
        while step > 1e-5:
            blocks = oracle._cq_blocks(rest)
            axis, value, turned = _sequential_first_improvement(
                lambda axes: oracle._cq_distances(target, oracle._qubit_projectors(axes)[0], blocks),
                oracle._sphere_moves(axis, step),
                axis,
                value,
                4,
            )
            pp = oracle._qubit_projectors(axis)[0]
            rest, value, shifted = _sequential_first_improvement(
                lambda rests: oracle._cq_distances(target, pp, oracle._cq_blocks(rests)),
                _sequential_coordinate_moves(step),
                rest,
                value,
                14,
            )
            improved = turned or shifted
            if turned:
                cand = conditional_rest(axis)
                val = oracle._cq_distances(target, pp, oracle._cq_blocks(cand))
                if val < value - 1e-18:
                    rest, value = cand, val
                    improved = True
            if not improved:
                step *= 0.5
        best = min(best, value)
    return max(best, 0.0)


def _cq_reference_states():
    special = [
        bell_state(),
        states.werner(0.3),
        states.from_pure(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2)),
        states.classical_quantum(states.random_cq_spec((2, 2), seed=5)),
    ]
    return special + [states.random_state((2, 2), rank=rank, seed=[rank, i]) for rank in (1, 2, 3, 4) for i in range(3)]


@pytest.mark.parametrize("samples", [1, 2, 8, 12])
def test_lockstep_cq_search_matches_sequential_starts(samples):
    # 16 states per start count, 64 in all: ranks 1-4 and the special states
    for i, rho in enumerate(_cq_reference_states()):
        expected = _sequential_discord_cq_search(rho, samples, [samples, i])
        assert oracle.discord_cq_search(rho, samples=samples, seed=[samples, i]) == expected


@pytest.mark.parametrize("chunk", [1, 5, 64, 128])
def test_stacked_kernels_match_per_axis(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rho = states.random_state((2, 3), seed=11)
    axes = oracle.fibonacci_sphere_axes(23, seed=4, jitter=0.5)
    kernels = (
        partial(oracle._dephasing_distances, rho),
        partial(oracle._trace_impacts, rho),
        lambda a: _polished_impact_powers(rho, a, 12),
    )
    for kernel in kernels:
        stacked = oracle._chunked(kernel, axes)
        single = np.array([kernel(axes[i : i + 1])[0] for i in range(len(axes))])
        assert np.array_equal(stacked, single)


def test_stacked_cq_distances_match_per_row(rng):
    rho = states.random_state((2, 2), seed=rng)
    axes = oracle.fibonacci_sphere_axes(9, seed=2, jitter=0.5)
    # weights outside [0, 1] and Bloch vectors longer than 1 exercise the clamps
    rests = np.column_stack([rng.uniform(-0.2, 1.2, 9), rng.uniform(-0.8, 0.8, (9, 6))])
    pp = oracle._qubit_projectors(axes)[0]
    stacked = oracle._cq_distances(rho.mat, pp, oracle._cq_blocks(rests))
    for i in range(9):
        single = oracle._cq_distances(rho.mat, pp[i], oracle._cq_blocks(rests[i]))
        assert stacked[i] == single


def test_searches_do_not_depend_on_chunking(monkeypatch):
    rho = states.random_state((2, 3), seed=12)
    qutrit = states.random_state((3, 2), seed=13)
    two_qubit = states.random_state((2, 2), seed=14)
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.7]))
    runs = []
    for chunk in (1, 7, 64, 128):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        p_min = oracle.p_min_search(rho, samples=50, seed=3)
        p_max = oracle.p_max_search(rho, samples=20, seed=3, grid_points=12)
        runs.append(
            (
                p_min.value,
                *p_min.axis,
                p_max.value,
                *p_max.axis,
                oracle.trace_p_min_probe(rho, samples=50, seed=3),
                *oracle.impact_power_grid(qutrit, ham, grid_points=300),
                # 8 lockstep starts stack up to 112 rows a tick
                oracle.discord_cq_search(two_qubit, samples=8, seed=3),
            )
        )
    assert runs[0] == runs[1] == runs[2] == runs[3]


_QUBIT_Z = dynamics.LocalHamiltonian.from_bloch_axis([0.0, 0.0, 1.0], 1.0)


@pytest.mark.parametrize(
    "name, search",
    [
        pytest.param("n", lambda rho: oracle.fibonacci_sphere_axes(0), id="fibonacci-n=0"),
        pytest.param("samples", lambda rho: oracle.p_min_search(rho, samples=0), id="p_min-samples=0"),
        pytest.param("samples", lambda rho: oracle.p_min_search(rho, samples=1.5), id="p_min-samples=1.5"),
        pytest.param("samples", lambda rho: oracle.p_max_search(rho, samples=0), id="p_max-samples=0"),
        pytest.param("grid_points", lambda rho: oracle.p_max_search(rho, grid_points=0), id="p_max-grid=0"),
        pytest.param("grid_points", lambda rho: oracle.p_max_search(rho, grid_points=-3), id="p_max-grid=-3"),
        pytest.param("samples", lambda rho: oracle.trace_p_min_probe(rho, samples=0), id="trace-samples=0"),
        pytest.param("samples", lambda rho: oracle.trace_p_min_probe(rho, samples=True), id="trace-samples=True"),
        pytest.param(
            "grid_points", lambda rho: oracle.impact_power_grid(rho, _QUBIT_Z, grid_points=0), id="grid-grid=0"
        ),
        pytest.param(
            "grid_points", lambda rho: oracle.impact_power_grid(rho, _QUBIT_Z, grid_points=-3), id="grid-grid=-3"
        ),
        pytest.param("samples", lambda rho: oracle.discord_cq_search(rho, samples=0), id="cq-samples=0"),
        pytest.param("samples", lambda rho: oracle.discord_cq_search(rho, samples=-4), id="cq-samples=-4"),
        pytest.param("samples", lambda rho: oracle.discord_cq_search(rho, samples="2"), id="cq-samples='2'"),
        pytest.param(
            "starts",
            lambda rho: correlations.measurement_min_discord(states.random_state((3, 2), seed=1), starts=0),
            id="discord-starts=0",
        ),
        pytest.param(
            "starts",
            lambda rho: correlations.measurement_min_discord(states.random_state((3, 2), seed=1), starts=-3),
            id="discord-starts=-3",
        ),
    ],
)
def test_search_counts_must_be_whole_numbers_of_at_least_one(name, search):
    # each once raised a bare ZeroDivisionError or numpy error, or returned a
    # plausible-looking number from one start
    with pytest.raises(OutOfRange, match=rf"^{name}: expected a whole number >= 1"):
        search(states.random_state((2, 2), seed=0))
