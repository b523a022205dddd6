"""Verification batteries behind ``impactpower verify``.

``CHECKS`` is one table with a row per check: its suite, name, id, item
count, tolerance and item function.  Each check draws a seeded ensemble,
evaluates a closed form against its independent counterpart (or an
inequality against its bound), and reports the worst error with
``replay_seed = [seed, check id, index]``.  Items run one after another, and
item i of a check gets the generator ``default_rng([seed, check id, i])``
from the one function that both the run and ``replay(replay_seed, budget)``
call, so the replay seed is the worst item's stream by construction: replay
recomputes that item alone, and a seed always gives the same summary.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Callable, NamedTuple

import numpy as np

from . import correlations, dynamics, oracle, states
from .errors import ImpactPowerError

#: ensemble sizes per budget; "full" matches the acceptance-criteria sizes
SIZES = {
    "quick": {
        "axis_oracle_states": 100,
        "cq_oracle_states": 50,
        "cq_specs": 50,
        "identity_states": 100,
        "identity_axes": 20,
        "pmax_states": 1,
        "pmax_axes": 1000,
        "profile_triples": 100,
        "argmax_states": 50,
        "order_pairs": 200,
        "bound_states": 1000,
        "general_states": 20,
        "trace_triples": 200,
        "trace_states": 20,
        "trace_axes": 300,
    },
    "full": {
        "axis_oracle_states": 200,
        "cq_oracle_states": 100,
        "cq_specs": 100,
        "identity_states": 200,
        "identity_axes": 50,
        "pmax_states": 3,
        "pmax_axes": 10000,
        "profile_triples": 500,
        "argmax_states": 500,
        "order_pairs": 1000,
        "bound_states": 10000,
        "general_states": 100,
        "trace_triples": 1000,
        "trace_states": 100,
        "trace_axes": 1000,
    },
}

_AXIS_SAMPLES = 1000
_CQ_STARTS = 8
_DISCORDANT_STATES = 100
_PRODUCT_STATES = 10
_ARGMAX_GRID = 512
_WERNER_X = np.linspace(-1.0, 1.0, 101)


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    axis = rng.standard_normal(3)
    return axis / np.linalg.norm(axis)


def _random_qubit_hamiltonian(rng: np.random.Generator) -> dynamics.LocalHamiltonian:
    return dynamics.LocalHamiltonian.from_bloch_axis(
        _random_axis(rng), float(rng.uniform(0.5, 3.0))
    )


def _discordant_state(rng: np.random.Generator) -> states.DensityMatrix:
    for _ in range(1000):
        rho = states.random_state((2, 2), seed=rng)
        if correlations.geometric_discord(rho)[0] > 1e-3:
            return rho
    raise ImpactPowerError("failed to sample a discordant state in 1000 draws")


def _random_product_pure(rng: np.random.Generator) -> states.DensityMatrix:
    ket_a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ket_b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec = np.kron(ket_a / np.linalg.norm(ket_a), ket_b / np.linalg.norm(ket_b))
    return states.from_pure(vec, (2, 2))


# Item functions take (the item's generator, its index, the budget's sizes)
# and return the item's error; a check passes if no error exceeds its tolerance.

# --- theorem 1: gap equals twice the geometric discord ----------------------


def _axis_oracle(rng: np.random.Generator, i: int, sizes: dict) -> float:
    dims = (2, 2) if i % 2 == 0 else (2, 3)
    rho = states.random_state(dims, seed=rng)
    closed = correlations.p_extrema(rho)[0]
    found = oracle.p_min_search(rho, samples=_AXIS_SAMPLES, seed=rng).value
    return abs(closed - found)


def _cq_oracle(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2), rank=(i % 4) + 1, seed=rng)
    closed = correlations.p_extrema(rho)[0]
    found = oracle.discord_cq_search(rho, samples=_CQ_STARTS, seed=rng)
    return abs(closed - 2.0 * found)


def _cq_zero_discord(rng: np.random.Generator, i: int, sizes: dict) -> float:
    spec = states.random_cq_spec((2, 2 + i % 2), seed=rng)
    return correlations.geometric_discord(states.classical_quantum(spec))[0]


def _cq_zero_impact(rng: np.random.Generator, i: int, sizes: dict) -> float:
    spec = states.random_cq_spec((2, 2 + i % 2), seed=rng)
    omega = states.classical_quantum(spec)
    projectors = tuple(np.outer(col, col.conj()) for col in spec.basis.T)
    h = dynamics.LocalHamiltonian(np.arange(1.0, len(projectors) + 1.0), projectors)
    return dynamics.impact_power(omega, h)


def _discordant_gap(rng: np.random.Generator, i: int, sizes: dict) -> float:
    return 5e-4 - correlations.p_extrema(_discordant_state(rng))[0]


# --- theorem 2: M-matrix quadratic form -------------------------------------


def _m_identity(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 3), seed=rng)
    mm = correlations.m_matrix(rho)
    purity = rho.purity
    worst = 0.0
    for _ in range(sizes["identity_axes"]):
        axis = _random_axis(rng)
        h = dynamics.LocalHamiltonian.from_bloch_axis(axis, float(rng.uniform(0.5, 3.0)))
        quad = purity - float(axis @ mm.m @ axis)
        worst = max(worst, abs(quad - dynamics.impact_power(rho, h)))
    return worst


def _pmax_oracle(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 3), seed=rng)
    closed = correlations.p_extrema(rho)[1]
    found = oracle.p_max_search(rho, samples=sizes["pmax_axes"], seed=rng, grid_points=12).value
    return abs(closed - found)


def _profile(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 2), seed=rng)
    h = _random_qubit_hamiltonian(rng)
    gap = float(h.energies[1] - h.energies[0])
    t = float(rng.uniform(0.0, 4.0 * math.pi / gap))
    coeff = dynamics.impact_coefficients(rho, h)
    closed = coeff.a - coeff.b[1, 0] * math.cos(gap * t)
    return abs(dynamics.impact(rho, h, t) - closed)


def _argmax(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 2), seed=rng)
    h = _random_qubit_hamiltonian(rng)
    if dynamics.impact_power(rho, h) < 1e-12:
        return -1.0  # flat profile, no maximizer to locate
    gap = float(h.energies[1] - h.energies[0])
    step = 2.0 * math.pi / gap / _ARGMAX_GRID
    ts = np.arange(1, _ARGMAX_GRID + 1) * step
    t_best = float(ts[int(np.argmax(dynamics.impact(rho, h, ts)))])
    return abs(t_best - math.pi / gap) - step


def _order_relation(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 2), seed=rng)
    h = _random_qubit_hamiltonian(rng)
    return 2.0 * correlations.geometric_discord(rho)[0] - dynamics.impact_power(rho, h)


# --- theorem 3: two-qubit purity bound --------------------------------------


def _werner_closed_forms(rng: np.random.Generator, i: int, sizes: dict) -> float:
    x = float(_WERNER_X[i])
    rho = states.werner(x)
    purity_err = abs(rho.purity - (x * x - x + 1.0) / 3.0)
    discord_err = abs(correlations.geometric_discord(rho)[0] - (2.0 * x - 1.0) ** 2 / 18.0)
    return max(purity_err, discord_err)


def _werner_saturation(rng: np.random.Generator, i: int, sizes: dict) -> float:
    check = correlations.purity_bound_check(states.werner(float(_WERNER_X[i])))
    return abs(check.lhs - check.rhs)


def _random_bound(rng: np.random.Generator, i: int, sizes: dict) -> float:
    check = correlations.purity_bound_check(states.random_state((2, 2), seed=rng))
    return check.lhs - check.rhs


def _endpoints(rng: np.random.Generator, i: int, sizes: dict) -> float:
    if i == 0:
        bell = states.from_pure(states.phi_plus(2), (2, 2))
        p_min, p_max = correlations.p_extrema(bell)
        discord = correlations.geometric_discord(bell)[0]
        return max(abs(p_min - 1.0), abs(p_max - 1.0), abs(discord - 0.5))
    p_min, p_max = correlations.p_extrema(_random_product_pure(rng))
    return max(p_min, abs(p_max - 1.0))


# --- general local dimension -------------------------------------------------


def _qutrit_bound(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((3, 2), seed=rng)
    while True:
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = dynamics.LocalHamiltonian.from_matrix((z + z.conj().T) / 2.0)
        if h.fully_nondegenerate:
            break
    result = correlations.general_dim_bound_check(rho, h, starts=8, seed=rng)
    return result.bound - result.p


# --- trace-norm variant -------------------------------------------------------


def _trace_dominates(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = states.random_state((2, 2 + i % 2), seed=rng)
    h = _random_qubit_hamiltonian(rng)
    t = float(rng.uniform(0.0, 8.0))
    return dynamics.impact(rho, h, t) - dynamics.trace_impact(rho, h, t)


def _discordant_trace_gap(rng: np.random.Generator, i: int, sizes: dict) -> float:
    rho = _discordant_state(rng)
    return 1e-4 - oracle.trace_p_min_probe(rho, samples=sizes["trace_axes"], seed=rng)


class Check(NamedTuple):
    """One row of the table of checks; ``check_id`` is also its stream id."""

    suite: str
    name: str
    check_id: int
    #: a ``SIZES`` key, or a count that is the same at every budget
    items: str | int
    tol: float
    item: Callable[[np.random.Generator, int, dict], float]


CHECKS = (
    Check("theorem1", "pmin-vs-axis-oracle", 11, "axis_oracle_states", 1e-8, _axis_oracle),
    Check("theorem1", "pmin-vs-cq-set-oracle", 12, "cq_oracle_states", 1e-6, _cq_oracle),
    Check("theorem1", "cq-states-zero-discord", 13, "cq_specs", 1e-9, _cq_zero_discord),
    Check("theorem1", "cq-states-zero-impact-hamiltonian", 14, "cq_specs", 1e-10, _cq_zero_impact),
    Check("theorem1", "discordant-states-positive-gap", 15, _DISCORDANT_STATES, 0.0, _discordant_gap),
    Check("theorem2", "impact-power-quadratic-form", 21, "identity_states", 1e-10, _m_identity),
    Check("theorem2", "pmax-vs-axis-grid-oracle", 22, "pmax_states", 1e-6, _pmax_oracle),
    Check("theorem2", "impact-time-profile", 23, "profile_triples", 1e-10, _profile),
    Check("theorem2", "impact-argmax-at-half-period", 24, "argmax_states", 0.0, _argmax),
    Check("theorem2", "impact-power-dominates-discord", 25, "order_pairs", 1e-10, _order_relation),
    Check("theorem3", "werner-purity-and-discord", 31, _WERNER_X.size, 1e-10, _werner_closed_forms),
    Check("theorem3", "werner-bound-saturation", 32, _WERNER_X.size, 1e-9, _werner_saturation),
    Check("theorem3", "random-states-purity-bound", 33, "bound_states", 1e-9, _random_bound),
    Check("theorem3", "pure-state-endpoints", 34, 1 + _PRODUCT_STATES, 1e-10, _endpoints),
    Check("general-dim", "qutrit-impact-power-bound", 41, "general_states", 1e-6, _qutrit_bound),
    Check("trace-norm", "trace-impact-dominates", 51, "trace_triples", 1e-10, _trace_dominates),
    Check("trace-norm", "discordant-trace-gap", 52, "trace_states", 0.0, _discordant_trace_gap),
)

SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def _sizes(budget: str) -> dict:
    if budget not in SIZES:
        raise ImpactPowerError(f"unknown budget {budget!r}")
    return SIZES[budget]


def _count(check: Check, sizes: dict) -> int:
    return sizes[check.items] if isinstance(check.items, str) else check.items


def _error(check: Check, seed: int, i: int, sizes: dict) -> float:
    # item i's error, from its own stream default_rng([seed, check id, i])
    return check.item(np.random.default_rng([seed, check.check_id, i]), i, sizes)


def _check(check: Check, seed: int, sizes: dict) -> dict:
    n = _count(check, sizes)
    errors = [_error(check, seed, i, sizes) for i in range(n)]
    worst = int(np.argmax(errors))
    worst_error = float(errors[worst])
    return {
        "name": check.name,
        "items": n,
        "tolerance": check.tol,
        "worst_error": worst_error,
        "margin": check.tol - worst_error,
        "worst_index": worst,
        "replay_seed": [seed, check.check_id, worst],
        "passed": bool(worst_error <= check.tol),
    }


def replay(replay_seed: list[int], budget: str = "quick") -> float:
    """The error of one item alone, from the ``replay_seed`` a summary reports.

    Equals the summary's ``worst_error`` at the same budget to the bit.
    Raises ImpactPowerError unless ``replay_seed`` is three whole numbers
    >= 0 that name a check and one of its items at ``budget``.
    """
    sizes = _sizes(budget)
    try:
        seed, check_id, index = words = [operator.index(v) for v in replay_seed]
    except (TypeError, ValueError):
        raise ImpactPowerError(
            f"replay seed must be three whole numbers [seed, check id, index], got {replay_seed!r}"
        ) from None
    for part, value in zip(("seed", "check id", "index"), words):
        if value < 0:
            raise ImpactPowerError(f"replay seed part {part!r} must be >= 0, got {value}")
    check = next((c for c in CHECKS if c.check_id == check_id), None)
    if check is None:
        raise ImpactPowerError(f"no check has id {check_id!r}")
    n = _count(check, sizes)
    if index >= n:
        raise ImpactPowerError(
            f"replay seed index {index} is past the {n} items of {check.name!r} at budget {budget!r}"
        )
    return float(_error(check, seed, index, sizes))


def run_suite(suite: str, seed: int = 0, budget: str = "quick", timings: list | None = None) -> dict:
    """Run one named suite (or "all") and return the machine-readable summary.

    If ``timings`` is a list, one ``{"name", "items", "elapsed_s"}`` record
    per timed check is appended to it; the summary itself holds no timings.
    """
    sizes = _sizes(budget)
    if suite != "all" and suite not in SUITES:
        raise ImpactPowerError(f"unknown suite {suite!r}")
    checks: list[dict] = []
    for check in CHECKS:
        if suite in ("all", check.suite):
            start = time.perf_counter()
            checks.append(_check(check, seed, sizes))
            if timings is not None:
                elapsed = time.perf_counter() - start
                timings.append({"name": check.name, "items": checks[-1]["items"], "elapsed_s": elapsed})
    return {
        "suite": suite,
        "seed": seed,
        "budget": budget,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
