"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines).
Every ensemble is seeded, so the suite is reproducible run to run.
"""

import functools
import math
import time

import numpy as np

from impactpower import correlations, dynamics, linalg, oracle, states


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _random_axis(rng):
    axis = rng.standard_normal(3)
    return axis / np.linalg.norm(axis)


def _random_qubit_hamiltonian(rng):
    return dynamics.LocalHamiltonian.from_bloch_axis(_random_axis(rng), float(rng.uniform(0.5, 3.0)))


@functools.lru_cache(maxsize=1)
def _discordant_states():
    """100 seeded full-rank two-qubit states with discord > 1e-3 (criteria 8, 9)."""
    found = []
    for i in range(100):
        rng = np.random.default_rng([85, i])
        while True:
            rho = states.random_state((2, 2), seed=rng)
            if correlations.geometric_discord(rho)[0] > 1e-3:
                found.append(rho)
                break
    return tuple(found)


def test_criterion_01_werner_family():
    start = time.perf_counter()
    worst_purity = worst_discord = worst_saturation = 0.0
    for x in np.linspace(-1.0, 1.0, 101):
        rho = states.werner(float(x))
        worst_purity = max(worst_purity, abs(rho.purity - (x * x - x + 1.0) / 3.0))
        discord = correlations.geometric_discord(rho)[0]
        worst_discord = max(worst_discord, abs(discord - (2.0 * x - 1.0) ** 2 / 18.0))
        check = correlations.purity_bound_check(rho)
        worst_saturation = max(worst_saturation, abs(check.lhs - check.rhs))
    elapsed = time.perf_counter() - start
    ok = worst_purity <= 1e-10 and worst_discord <= 1e-10 and worst_saturation <= 1e-9 and elapsed < 1.0
    _report(
        1,
        "werner purity/discord/saturation",
        ok,
        f"purity err {worst_purity:.2e}, discord err {worst_discord:.2e}, "
        f"saturation err {worst_saturation:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_theorem1_equivalence():
    start = time.perf_counter()
    worst_axis = worst_cq = 0.0
    for i in range(200):
        rng = np.random.default_rng([2, i])
        dims = (2, 2) if i < 100 else (2, 3)
        rho = states.random_state(dims, seed=rng)
        p_min = correlations.p_extrema(rho)[0]
        axis_value = oracle.p_min_search(rho, samples=1000, seed=rng).value
        worst_axis = max(worst_axis, abs(p_min - axis_value))
        if dims == (2, 2):
            cq_value = oracle.discord_cq_search(rho, samples=8, seed=rng)
            worst_cq = max(worst_cq, abs(p_min - 2.0 * cq_value))
    elapsed = time.perf_counter() - start
    ok = worst_axis <= 1e-8 and worst_cq <= 1e-6 and elapsed < 60.0
    _report(
        2,
        "p_min equals both oracle routes",
        ok,
        f"axis oracle err {worst_axis:.2e}, CQ oracle err {worst_cq:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_theorem2_identity():
    worst_identity = 0.0
    for i in range(200):
        rng = np.random.default_rng([3, i])
        rho = states.random_state((2, 2 + i % 3), seed=rng)
        mm = correlations.m_matrix(rho)
        purity = rho.purity
        for _ in range(50):
            axis = _random_axis(rng)
            ham = dynamics.LocalHamiltonian.from_bloch_axis(axis, float(rng.uniform(0.5, 3.0)))
            quad = purity - float(axis @ mm.m @ axis)
            worst_identity = max(worst_identity, abs(quad - dynamics.impact_power(rho, ham)))

    worst_pmax = 0.0
    for d_b in (2, 3, 4):
        rho = states.random_state((2, d_b), seed=[3, 1000 + d_b])
        p_max = correlations.p_extrema(rho)[1]
        found = oracle.p_max_search(rho, samples=10_000, seed=[3, d_b], grid_points=12).value
        worst_pmax = max(worst_pmax, abs(p_max - found))

    ok = worst_identity <= 1e-10 and worst_pmax <= 1e-6
    _report(
        3,
        "quadratic form and axis-sampled p_max",
        ok,
        f"identity err {worst_identity:.2e}, p_max err {worst_pmax:.2e}",
    )


def test_criterion_04_impact_time_profile():
    worst_profile = 0.0
    worst_argmax = -math.inf
    grid_points = 512
    for i in range(500):
        rng = np.random.default_rng([4, i])
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        ham = _random_qubit_hamiltonian(rng)
        gap = float(ham.energies[1] - ham.energies[0])
        coeff = dynamics.impact_coefficients(rho, ham)
        t = float(rng.uniform(0.0, 4.0 * math.pi / gap))
        closed = coeff.a - coeff.b[1, 0] * math.cos(gap * t)
        worst_profile = max(worst_profile, abs(dynamics.impact(rho, ham, t) - closed))
        if coeff.b[1, 0] > 1e-12:
            period = 2.0 * math.pi / gap
            step = period / grid_points
            ts = np.arange(1, grid_points + 1) * step
            values = dynamics.impact(rho, ham, ts)
            t_best = float(ts[int(np.argmax(values))])
            worst_argmax = max(worst_argmax, abs(t_best - math.pi / gap) - step)
    ok = worst_profile <= 1e-10 and worst_argmax <= 0.0
    _report(
        4,
        "profile matches a - b cos and peaks at pi/dE",
        ok,
        f"profile err {worst_profile:.2e}, argmax slack {worst_argmax:.2e}",
    )


def test_criterion_05_order_relation():
    violations = 0
    worst = -math.inf
    for i in range(1000):
        rng = np.random.default_rng([5, i])
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        ham = _random_qubit_hamiltonian(rng)
        gap = 2.0 * correlations.geometric_discord(rho)[0] - dynamics.impact_power(rho, ham)
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    ok = violations == 0
    _report(5, "impact power dominates twice the discord", ok, f"violations {violations}, worst excess {worst:.2e}")


def test_criterion_06_general_dim_bound():
    start = time.perf_counter()
    violations = 0
    worst = -math.inf
    for i in range(100):
        rng = np.random.default_rng([6, i])
        rho = states.random_state((3, 2), seed=rng)
        while True:
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ham = dynamics.LocalHamiltonian.from_matrix((z + z.conj().T) / 2.0)
            if ham.fully_nondegenerate:
                break
        result = correlations.general_dim_bound_check(rho, ham, starts=8, seed=rng)
        excess = result.bound - result.p
        worst = max(worst, excess)
        if excess > 1e-6:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    _report(
        6,
        "qutrit impact power above 4D/6",
        ok,
        f"violations {violations}, worst excess {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_two_qubit_purity_bound():
    violations = 0
    worst = -math.inf
    for i in range(10_000):
        rho = states.random_state((2, 2), seed=[7, i])
        check = correlations.purity_bound_check(rho)
        excess = check.lhs - check.rhs
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    ok = violations == 0
    _report(7, "purity bound over 10^4 random states", ok, f"violations {violations}, worst excess {worst:.2e}")


def test_criterion_08_classical_quantum_faithfulness():
    worst_discord = worst_power = 0.0
    for i in range(100):
        rng = np.random.default_rng([8, i])
        spec = states.random_cq_spec((2, 2), seed=rng)
        omega = states.classical_quantum(spec)
        worst_discord = max(worst_discord, correlations.geometric_discord(omega)[0])
        projectors = tuple(np.outer(c, c.conj()) for c in spec.basis.T)
        ham = dynamics.LocalHamiltonian(np.array([1.0, 2.0]), projectors)
        worst_power = max(worst_power, dynamics.impact_power(omega, ham))

    min_gap = math.inf
    for rho in _discordant_states():
        min_gap = min(min_gap, correlations.p_extrema(rho)[0])

    ok = worst_discord <= 1e-9 and worst_power <= 1e-10 and min_gap > 5e-4
    _report(
        8,
        "classical-quantum faithfulness",
        ok,
        f"CQ discord {worst_discord:.2e}, CQ impact power {worst_power:.2e}, "
        f"min discordant p_min {min_gap:.2e}",
    )


def test_criterion_09_trace_norm_gap():
    violations = 0
    worst = -math.inf
    for i in range(1000):
        rng = np.random.default_rng([9, i])
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        ham = _random_qubit_hamiltonian(rng)
        t = float(rng.uniform(0.0, 8.0))
        deficit = dynamics.impact(rho, ham, t) - dynamics.trace_impact(rho, ham, t)
        worst = max(worst, deficit)
        if deficit > 1e-12:
            violations += 1

    min_probe = math.inf
    for i, rho in enumerate(_discordant_states()):
        probe = oracle.trace_p_min_probe(rho, samples=1000, seed=[9, 500 + i])
        min_probe = min(min_probe, probe)

    ok = violations == 0 and min_probe > 1e-4
    _report(
        9,
        "trace impact dominates and keeps a gap",
        ok,
        f"violations {violations}, worst deficit {worst:.2e}, min trace gap {min_probe:.2e}",
    )


def test_criterion_10_pure_state_endpoints():
    bell = states.from_pure(states.phi_plus(2), (2, 2))
    p_min, p_max = correlations.p_extrema(bell)
    discord = correlations.geometric_discord(bell)[0]
    bell_err = max(abs(p_min - 1.0), abs(p_max - 1.0), abs(discord - 0.5))

    worst_product_min = 0.0
    worst_product_max = 0.0
    for i in range(10):
        rng = np.random.default_rng([10, i])
        ket_a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ket_b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = np.kron(ket_a / np.linalg.norm(ket_a), ket_b / np.linalg.norm(ket_b))
        rho = states.from_pure(vec, (2, 2))
        p_min, p_max = correlations.p_extrema(rho)
        worst_product_min = max(worst_product_min, p_min)
        worst_product_max = max(worst_product_max, abs(p_max - 1.0))

    ok = bell_err <= 1e-10 and worst_product_min <= 1e-10 and worst_product_max <= 1e-10
    _report(
        10,
        "pure-state endpoints",
        ok,
        f"bell err {bell_err:.2e}, product p_min {worst_product_min:.2e}, "
        f"product p_max err {worst_product_max:.2e}",
    )
