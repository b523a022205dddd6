"""The three benchmark workloads: seeded inputs, timed requests, output checks.

A workload builds all of its inputs from the benchmark seed when it is
constructed; that is the set-up ``setup_s`` times.  It then hands out its
pool: a fixed list of requests that the runner sends pass after pass.  A
request is one closed-loop unit of work through the public API: the caller
waits for its result before sending the next.  Outputs are checked outside
the timed region; a check returns one message per failed item.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from impactpower import cli, correlations, dynamics, oracle, states


@dataclass(frozen=True)
class Request:
    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


class Workload:
    """What the runner needs from a workload; constructing one is its set-up."""

    name: str
    #: highest percentile with at least 10 of the pool's requests beyond it, or
    #: the median for a smaller pool; fixed so that commits compare one percentile
    TAIL_PERCENTILE = 75.0

    def requests(self, serial: bool = False) -> list[Request]:
        """The request pool; ``serial`` asks for a single-threaded variant."""
        raise NotImplementedError

    def digest(self, outputs: list) -> str | None:
        """sha256 of the first pass's outputs where their bytes are pinned, else None."""
        return None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``impactpower`` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_clis(argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    return [run_cli(argv) for argv in argvs]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# --- scan-random --------------------------------------------------------------


def _scan_row_problem(row: str, i: int, dims: tuple[int, int], rank: int, scan_seed: int) -> str | None:
    cells = row.split(",")
    if len(cells) != 7 or cells[0] != str(i):
        return "malformed row"
    try:
        purity, p_min, p_max, discord, bound_rhs, gap = (float(c) for c in cells[1:])
    except ValueError:
        return "unparsable cell"
    if not _finite(purity, p_min, p_max, discord):
        return "non-finite value"
    if not 0.0 <= p_min <= p_max <= purity + 1e-10:
        return f"order 0 <= p_min <= p_max <= purity violated ({p_min}, {p_max}, {purity})"
    if not math.isclose(discord, p_min / 2.0, rel_tol=1e-11, abs_tol=1e-15):
        return f"discord {discord} != p_min/2"
    if dims != (2, 2):
        return None if math.isnan(bound_rhs) and math.isnan(gap) else "bound columns not nan"
    if not _finite(bound_rhs, gap) or gap < -1e-9:
        return f"purity bound gap {gap} below -1e-9"
    rho = states.random_state(dims, rank=rank, seed=[scan_seed, i])
    k_form = 2.0 * correlations.k_matrix_discord(rho)
    if abs(p_min - k_form) > 1e-10:
        return f"p_min {p_min} differs from 2*k_matrix_discord {k_form}"
    return None


def check_scan_csv(text: str, dims: tuple[int, int], rank: int, scan_seed: int, rows: int) -> list[str]:
    """Problems in one ``scan random`` CSV, one per failed row."""
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != cli.CSV_HEADER or len(lines) != rows + 2:
        return [f"{dims}: bad CSV header, line ending or row count"] * rows
    problems = []
    for i, row in enumerate(lines[1:-1]):
        problem = _scan_row_problem(row, i, dims, rank, scan_seed)
        if problem:
            problems.append(f"{dims} seed {scan_seed} row {i}: {problem}")
    return problems


class ScanRandom(Workload):
    """``scan random`` through ``cli.main``: one request is a 2x2 call and a 2x4 rank-2 call."""

    name = "scan-random"
    ROWS = 40
    POOL = 40
    HALVES = (((2, 2), 4), ((2, 4), 2))
    #: sha256 of the first request's two CSVs, pinned per seed; CSV bytes must not change
    PINNED_SHA256 = {0: "e87b0a6c792f2969bd62fe02aaef2e8f5a3a49ddddb65b5afc6adb26bdd5b4f2"}

    def __init__(self, seed: int, workdir: Path, threads: int) -> None:
        self.seed, self.threads = seed, threads

    def scan_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def argv(self, dims: tuple[int, int], rank: int, scan_seed: int, threads: int) -> list[str]:
        argv = ["scan", "random", "--samples", str(self.ROWS), "--dims", f"{dims[0]}x{dims[1]}"]
        if rank != dims[0] * dims[1]:
            argv += ["--rank", str(rank)]
        return argv + ["--seed", str(scan_seed), "--threads", str(threads)]

    def requests(self, serial: bool = False) -> list[Request]:
        threads = 1 if serial else self.threads
        pool = []
        for scan_seed in map(self.scan_seed, range(self.POOL)):
            argvs = [self.argv(dims, rank, scan_seed, threads) for dims, rank in self.HALVES]
            pool.append(Request("scan", 2 * self.ROWS, partial(run_clis, argvs), partial(self.check, scan_seed)))
        return pool

    def check(self, scan_seed: int, output) -> list[str]:
        problems = []
        for (dims, rank), (code, text, err) in zip(self.HALVES, output):
            if code != 0:
                problems += [f"{dims}: exit {code}: {err.strip()}"] * self.ROWS
            else:
                problems += check_scan_csv(text, dims, rank, scan_seed, self.ROWS)
        return problems

    def digest(self, outputs: list) -> str:
        return hashlib.sha256("".join(text for _, text, _ in outputs[0]).encode()).hexdigest()


# --- oracle-crosscheck --------------------------------------------------------

#: (oracle, dims, tolerance) in round-robin order; tolerances are verify's
ORACLE_KINDS = (
    ("p_min_search", (2, 2), 1e-8),
    ("p_min_search", (2, 3), 1e-8),
    ("discord_cq_search", (2, 2), 1e-6),
    ("trace_p_min_probe", (2, 2), 1e-4),
    ("p_max_search", (2, 2), 1e-6),
)


def _discordant_state(rng: np.random.Generator) -> states.DensityMatrix:
    for _ in range(1000):
        rho = states.random_state((2, 2), seed=rng)
        if correlations.geometric_discord(rho)[0] > 1e-3:
            return rho
    raise RuntimeError("no discordant state in 1000 draws")


def compare_oracle(kind: str, rho: states.DensityMatrix, seed: list[int]) -> tuple[float, float]:
    """(closed form, oracle value) with ``verify --budget quick`` parameters.

    For ``trace_p_min_probe`` there is no closed form; the pair is
    (required lower bound, probe value).
    """
    if kind == "p_min_search":
        return correlations.p_extrema(rho)[0], oracle.p_min_search(rho, samples=1000, seed=seed).value
    if kind == "discord_cq_search":
        return correlations.p_extrema(rho)[0], 2.0 * oracle.discord_cq_search(rho, samples=8, seed=seed)
    if kind == "trace_p_min_probe":
        return 1e-4, oracle.trace_p_min_probe(rho, samples=300, seed=seed)
    return (
        correlations.p_extrema(rho)[1],
        oracle.p_max_search(rho, samples=100, seed=seed, grid_points=12).value,
    )


def check_oracle(kind: str, tol: float, output: tuple[float, float]) -> list[str]:
    closed, found = output
    if not _finite(closed, found):
        return [f"{kind}: non-finite result {output}"]
    if kind == "trace_p_min_probe":
        return [] if found > tol else [f"{kind}: trace gap {found} not above {tol}"]
    err = abs(closed - found)
    return [] if err <= tol else [f"{kind}: |closed - oracle| = {err:.3e} > {tol:.0e}"]


class OracleCrosscheck(Workload):
    """Closed forms against their brute-force oracles; one request is one round-robin battery."""

    name = "oracle-crosscheck"
    TAIL_PERCENTILE = 50.0
    #: about one 35 s run's worth: the oracles' cost varies from state to state with a
    #: heavy tail, so a run should see many distinct states rather than repeat a few
    BATTERIES = 28

    def __init__(self, seed: int, workdir: Path, threads: int) -> None:
        self.seed = seed
        self.pool = [
            [self._state(j, k) for j in range(len(ORACLE_KINDS))] for k in range(self.BATTERIES)
        ]

    def _state(self, j: int, k: int) -> states.DensityMatrix:
        kind, dims, _ = ORACLE_KINDS[j]
        rng = np.random.default_rng([self.seed, j, k])
        if kind == "trace_p_min_probe":
            return _discordant_state(rng)
        rank = k % 4 + 1 if kind == "discord_cq_search" else None
        return states.random_state(dims, rank=rank, seed=rng)

    def requests(self, serial: bool = False) -> list[Request]:
        return [Request("oracle battery", len(ORACLE_KINDS), partial(self.run, k), self.check)
                for k in range(self.BATTERIES)]

    def run(self, k: int) -> list[tuple[float, float]]:
        return [
            compare_oracle(kind, rho, [self.seed, j, k, 1])
            for j, ((kind, _, _), rho) in enumerate(zip(ORACLE_KINDS, self.pool[k]))
        ]

    def check(self, output: list[tuple[float, float]]) -> list[str]:
        return [p for (kind, _, tol), pair in zip(ORACLE_KINDS, output) for p in check_oracle(kind, tol, pair)]


# --- compute-qutrit -----------------------------------------------------------


def check_compute(data: dict) -> list[str]:
    """Problems in one parsed ``compute`` report with a 3-level Hamiltonian."""
    problems = []
    report = data["report"]
    if report["method"] != "numeric":
        problems.append(f"method {report['method']!r}, expected 'numeric'")
    if not (_finite(report["discord"]) and report["discord"] >= 0.0):
        problems.append(f"discord {report['discord']} not finite and >= 0")
    power = data["impact_power"]
    if not (_finite(power["value"], power["upper_bound"]) and power["value"] <= power["upper_bound"] + 1e-12):
        problems.append(f"impact power {power['value']} above its bound {power['upper_bound']}")
    profile = data.get("impact_profile", [])
    if len(profile) != 33:
        problems.append(f"profile has {len(profile)} points, expected 33")
    for point in profile:
        if not (_finite(point["impact"], point["trace_impact"]) and point["trace_impact"] >= point["impact"] - 1e-12):
            problems.append(f"trace impact below impact at t = {point['t']}")
            break
    return problems


def _check_compute_output(output: tuple[int, str, str]) -> list[str]:
    code, text, err = output
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    try:
        return check_compute(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


class ComputeQutrit(Workload):
    """``compute state.json --hamiltonian ham.json`` on 3x2 states, one call per request."""

    name = "compute-qutrit"
    POOL = 40

    def __init__(self, seed: int, workdir: Path, threads: int) -> None:
        self.files = []
        for j in range(self.POOL):
            rng = np.random.default_rng([seed, 41, j])
            rho = states.random_state((3, 2), seed=rng)
            while True:
                z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                ham = dynamics.LocalHamiltonian.from_matrix((z + z.conj().T) / 2.0)
                if ham.fully_nondegenerate:
                    break
            state_path, ham_path = workdir / f"state{j}.json", workdir / f"ham{j}.json"
            states.save_state(rho, state_path)
            dynamics.save_hamiltonian(ham, ham_path)
            self.files.append((str(state_path), str(ham_path)))

    def requests(self, serial: bool = False) -> list[Request]:
        return [
            Request("compute", 1,
                    partial(run_cli, ["compute", state_path, "--hamiltonian", ham_path, "--seed", str(j)]),
                    _check_compute_output)
            for j, (state_path, ham_path) in enumerate(self.files)
        ]


WORKLOADS = {w.name: w for w in (ScanRandom, OracleCrosscheck, ComputeQutrit)}
