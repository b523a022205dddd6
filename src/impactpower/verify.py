"""Verification batteries behind ``impactpower verify``.

Each check draws a seeded ensemble, evaluates a closed form against its
independent counterpart (or an inequality against its bound), and reports the
worst error together with the index needed to replay it.  Items run one
after another and each is seeded as default_rng([seed, check_id, index]), so
any item can be replayed on its own and a seed always gives the same summary.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import correlations, dynamics, oracle, states
from .errors import ImpactPowerError

SUITES = ("theorem1", "theorem2", "theorem3", "general-dim", "trace-norm")

#: ensemble sizes per budget; "full" matches the acceptance-criteria sizes
SIZES = {
    "quick": {
        "axis_oracle_states": 100,
        "axis_samples": 1000,
        "cq_oracle_states": 50,
        "cq_starts": 8,
        "cq_specs": 50,
        "discordant_states": 100,
        "identity_states": 100,
        "identity_axes": 20,
        "pmax_states": 1,
        "pmax_axes": 1000,
        "profile_triples": 100,
        "argmax_states": 50,
        "order_pairs": 200,
        "bound_states": 1000,
        "product_states": 10,
        "general_states": 20,
        "trace_triples": 200,
        "trace_states": 20,
        "trace_axes": 300,
    },
    "full": {
        "axis_oracle_states": 200,
        "axis_samples": 1000,
        "cq_oracle_states": 100,
        "cq_starts": 8,
        "cq_specs": 100,
        "discordant_states": 100,
        "identity_states": 200,
        "identity_axes": 50,
        "pmax_states": 3,
        "pmax_axes": 10000,
        "profile_triples": 500,
        "argmax_states": 500,
        "order_pairs": 1000,
        "bound_states": 10000,
        "product_states": 10,
        "general_states": 100,
        "trace_triples": 1000,
        "trace_states": 100,
        "trace_axes": 1000,
    },
}

_ARGMAX_GRID = 512
#: key under which a check carries its wall time until run_suite moves it out
#: of the summary, which must not vary from run to run
_ELAPSED = "elapsed_s"


def _check(name: str, check_id: int, seed: int, n: int, tol: float, fn) -> dict:
    start = time.perf_counter()
    errors = [fn(i) for i in range(n)]
    elapsed = time.perf_counter() - start
    worst = int(np.argmax(errors))
    worst_error = float(errors[worst])
    return {
        "name": name,
        "items": n,
        "tolerance": tol,
        "worst_error": worst_error,
        "margin": tol - worst_error,
        "worst_index": worst,
        "replay_seed": [seed, check_id, worst],
        "passed": bool(worst_error <= tol),
        _ELAPSED: elapsed,
    }


def _rng(seed: int, check_id: int, index: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, check_id, index, *extra])


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    axis = rng.standard_normal(3)
    return axis / np.linalg.norm(axis)


def _random_qubit_hamiltonian(rng: np.random.Generator) -> dynamics.LocalHamiltonian:
    return dynamics.LocalHamiltonian.from_bloch_axis(
        _random_axis(rng), float(rng.uniform(0.5, 3.0))
    )


def _discordant_state(rng: np.random.Generator, threshold: float = 1e-3) -> states.DensityMatrix:
    for _ in range(1000):
        rho = states.random_state((2, 2), seed=rng)
        if correlations.geometric_discord(rho)[0] > threshold:
            return rho
    raise ImpactPowerError("failed to sample a discordant state in 1000 draws")


def _random_product_pure(rng: np.random.Generator, d_b: int = 2) -> states.DensityMatrix:
    ket_a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ket_b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
    vec = np.kron(ket_a / np.linalg.norm(ket_a), ket_b / np.linalg.norm(ket_b))
    return states.from_pure(vec, (2, d_b))


# --- theorem 1: gap equals twice the geometric discord ----------------------


def _suite_theorem1(seed: int, sizes: dict) -> list[dict]:
    def axis_oracle(i: int) -> float:
        rng = _rng(seed, 11, i)
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        rho = states.random_state(dims, seed=rng)
        closed = correlations.p_extrema(rho)[0]
        found = oracle.p_min_search(rho, samples=sizes["axis_samples"], seed=rng).value
        return abs(closed - found)

    def cq_oracle(i: int) -> float:
        rng = _rng(seed, 12, i)
        rho = states.random_state((2, 2), rank=(i % 4) + 1, seed=rng)
        closed = correlations.p_extrema(rho)[0]
        found = oracle.discord_cq_search(rho, samples=sizes["cq_starts"], seed=rng)
        return abs(closed - 2.0 * found)

    def cq_zero_discord(i: int) -> float:
        rng = _rng(seed, 13, i)
        spec = states.random_cq_spec((2, 2 + i % 2), seed=rng)
        return correlations.geometric_discord(states.classical_quantum(spec))[0]

    def cq_zero_impact(i: int) -> float:
        rng = _rng(seed, 13, i)
        spec = states.random_cq_spec((2, 2 + i % 2), seed=rng)
        omega = states.classical_quantum(spec)
        projectors = tuple(
            np.outer(col, col.conj()) for col in spec.basis.T
        )
        h = dynamics.LocalHamiltonian(np.arange(1.0, len(projectors) + 1.0), projectors)
        return dynamics.impact_power(omega, h)

    def discordant_gap(i: int) -> float:
        rho = _discordant_state(_rng(seed, 15, i))
        return 5e-4 - correlations.p_extrema(rho)[0]

    return [
        _check("pmin-vs-axis-oracle", 11, seed, sizes["axis_oracle_states"], 1e-8, axis_oracle),
        _check("pmin-vs-cq-set-oracle", 12, seed, sizes["cq_oracle_states"], 1e-6, cq_oracle),
        _check("cq-states-zero-discord", 13, seed, sizes["cq_specs"], 1e-9, cq_zero_discord),
        _check("cq-states-zero-impact-hamiltonian", 14, seed, sizes["cq_specs"], 1e-10, cq_zero_impact),
        _check("discordant-states-positive-gap", 15, seed, sizes["discordant_states"], 0.0, discordant_gap),
    ]


# --- theorem 2: M-matrix quadratic form -------------------------------------


def _suite_theorem2(seed: int, sizes: dict) -> list[dict]:
    def m_identity(i: int) -> float:
        rng = _rng(seed, 21, i)
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

    def pmax_oracle(i: int) -> float:
        rng = _rng(seed, 22, i)
        rho = states.random_state((2, 2 + i % 3), seed=rng)
        closed = correlations.p_extrema(rho)[1]
        found = oracle.p_max_search(
            rho, samples=sizes["pmax_axes"], seed=rng, grid_points=12
        ).value
        return abs(closed - found)

    def profile(i: int) -> float:
        rng = _rng(seed, 23, i)
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        h = _random_qubit_hamiltonian(rng)
        gap = float(h.energies[1] - h.energies[0])
        t = float(rng.uniform(0.0, 4.0 * math.pi / gap))
        coeff = dynamics.impact_coefficients(rho, h)
        closed = coeff.a - coeff.b[1, 0] * math.cos(gap * t)
        return abs(dynamics.impact(rho, h, t) - closed)

    def argmax(i: int) -> float:
        rng = _rng(seed, 24, i)
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        h = _random_qubit_hamiltonian(rng)
        if dynamics.impact_power(rho, h) < 1e-12:
            return -1.0  # flat profile, no maximizer to locate
        gap = float(h.energies[1] - h.energies[0])
        period = 2.0 * math.pi / gap
        step = period / _ARGMAX_GRID
        ts = np.arange(1, _ARGMAX_GRID + 1) * step
        t_best = float(ts[int(np.argmax(dynamics.impact(rho, h, ts)))])
        return abs(t_best - math.pi / gap) - step

    def order_relation(i: int) -> float:
        rng = _rng(seed, 25, i)
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        h = _random_qubit_hamiltonian(rng)
        discord = correlations.geometric_discord(rho)[0]
        return 2.0 * discord - dynamics.impact_power(rho, h)

    return [
        _check("impact-power-quadratic-form", 21, seed, sizes["identity_states"], 1e-10, m_identity),
        _check("pmax-vs-axis-grid-oracle", 22, seed, sizes["pmax_states"], 1e-6, pmax_oracle),
        _check("impact-time-profile", 23, seed, sizes["profile_triples"], 1e-10, profile),
        _check("impact-argmax-at-half-period", 24, seed, sizes["argmax_states"], 0.0, argmax),
        _check("impact-power-dominates-discord", 25, seed, sizes["order_pairs"], 1e-10, order_relation),
    ]


# --- theorem 3: two-qubit purity bound --------------------------------------


def _suite_theorem3(seed: int, sizes: dict) -> list[dict]:
    grid = np.linspace(-1.0, 1.0, 101)

    def werner_closed_forms(i: int) -> float:
        x = float(grid[i])
        rho = states.werner(x)
        purity_err = abs(rho.purity - (x * x - x + 1.0) / 3.0)
        discord_err = abs(
            correlations.geometric_discord(rho)[0] - (2.0 * x - 1.0) ** 2 / 18.0
        )
        return max(purity_err, discord_err)

    def werner_saturation(i: int) -> float:
        check = correlations.purity_bound_check(states.werner(float(grid[i])))
        return abs(check.lhs - check.rhs)

    def random_bound(i: int) -> float:
        rho = states.random_state((2, 2), seed=_rng(seed, 33, i))
        check = correlations.purity_bound_check(rho)
        return check.lhs - check.rhs

    def endpoints(i: int) -> float:
        if i == 0:
            bell = states.from_pure(states.phi_plus(2), (2, 2))
            p_min, p_max = correlations.p_extrema(bell)
            discord = correlations.geometric_discord(bell)[0]
            return max(abs(p_min - 1.0), abs(p_max - 1.0), abs(discord - 0.5))
        rho = _random_product_pure(_rng(seed, 34, i))
        p_min, p_max = correlations.p_extrema(rho)
        return max(p_min, abs(p_max - 1.0))

    return [
        _check("werner-purity-and-discord", 31, seed, grid.size, 1e-10, werner_closed_forms),
        _check("werner-bound-saturation", 32, seed, grid.size, 1e-9, werner_saturation),
        _check("random-states-purity-bound", 33, seed, sizes["bound_states"], 1e-9, random_bound),
        _check("pure-state-endpoints", 34, seed, 1 + sizes["product_states"], 1e-10, endpoints),
    ]


# --- general local dimension -------------------------------------------------


def _suite_general_dim(seed: int, sizes: dict) -> list[dict]:
    def qutrit_bound(i: int) -> float:
        rng = _rng(seed, 41, i)
        rho = states.random_state((3, 2), seed=rng)
        while True:
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = dynamics.LocalHamiltonian.from_matrix((z + z.conj().T) / 2.0)
            if h.fully_nondegenerate:
                break
        result = correlations.general_dim_bound_check(rho, h, starts=8, seed=rng)
        return result.bound - result.p

    return [
        _check("qutrit-impact-power-bound", 41, seed, sizes["general_states"], 1e-6, qutrit_bound),
    ]


# --- trace-norm variant -------------------------------------------------------


def _suite_trace_norm(seed: int, sizes: dict) -> list[dict]:
    def dominates(i: int) -> float:
        rng = _rng(seed, 51, i)
        rho = states.random_state((2, 2 + i % 2), seed=rng)
        h = _random_qubit_hamiltonian(rng)
        t = float(rng.uniform(0.0, 8.0))
        return dynamics.impact(rho, h, t) - dynamics.trace_impact(rho, h, t)

    def discordant_trace_gap(i: int) -> float:
        rng = _rng(seed, 52, i)
        rho = _discordant_state(rng)
        probe = oracle.trace_p_min_probe(rho, samples=sizes["trace_axes"], seed=rng)
        return 1e-4 - probe

    return [
        _check("trace-impact-dominates", 51, seed, sizes["trace_triples"], 1e-10, dominates),
        _check("discordant-trace-gap", 52, seed, sizes["trace_states"], 0.0, discordant_trace_gap),
    ]


_SUITE_RUNNERS = {
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "theorem3": _suite_theorem3,
    "general-dim": _suite_general_dim,
    "trace-norm": _suite_trace_norm,
}


def _injected_state_check(path: str) -> dict:
    try:
        states.load_state(path)
    except ImpactPowerError as exc:
        return {"name": "injected-state-validation", "passed": False, "detail": str(exc)}
    except Exception as exc:  # malformed file counts as a failure too
        return {"name": "injected-state-validation", "passed": False, "detail": f"unreadable: {exc}"}
    return {"name": "injected-state-validation", "passed": True, "detail": "state file valid"}


def run_suite(
    suite: str,
    seed: int = 0,
    budget: str = "quick",
    inject_state: str | None = None,
    timings: list | None = None,
) -> dict:
    """Run one named suite (or "all") and return the machine-readable summary.

    If ``timings`` is a list, one ``{"name", "items", "elapsed_s"}`` record
    per timed check is appended to it; the summary itself holds no timings.
    """
    if budget not in SIZES:
        raise ImpactPowerError(f"unknown budget {budget!r}")
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if name not in _SUITE_RUNNERS:
            raise ImpactPowerError(f"unknown suite {suite!r}")
    sizes = SIZES[budget]
    checks: list[dict] = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](seed, sizes))
    for check in checks:
        elapsed = check.pop(_ELAPSED)
        if timings is not None:
            timings.append({"name": check["name"], "items": check["items"], "elapsed_s": elapsed})
    if inject_state is not None:
        checks.append(_injected_state_check(inject_state))
    return {
        "suite": suite,
        "seed": seed,
        "budget": budget,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
