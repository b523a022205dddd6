import math
from functools import partial

import numpy as np
import pytest

from impactpower import correlations, dynamics, oracle, states
from impactpower.errors import DegenerateHamiltonian, DimensionMismatch

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
    for start in oracle.fibonacci_sphere_axes(6, seed=1, jitter=0.5):
        expected = _sequential_refine_axis(_sphere_bowl, start, minimize=minimize)
        found = oracle._refine_axis(_sphere_bowl, start, float(_sphere_bowl(start)), minimize=minimize)
        assert found[0] == expected[0]
        assert np.array_equal(found[1], expected[1])
        assert not np.array_equal(found[1], start)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_stacked_kernels_match_per_axis(monkeypatch, chunk):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rho = states.random_state((2, 3), seed=11)
    axes = oracle.fibonacci_sphere_axes(23, seed=4, jitter=0.5)
    kernels = (
        partial(oracle._dephasing_distances, rho),
        partial(oracle._trace_impacts, rho),
        lambda a: oracle._qubit_impact_powers(rho, a, 12),
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
    ham = dynamics.LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.7]))
    runs = []
    for chunk in (1, 7, 64):
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
            )
        )
    assert runs[0] == runs[1] == runs[2]
