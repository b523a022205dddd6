#!/usr/bin/env python3
"""impactpower benchmark: seeded closed-loop workloads, one process per run.

    python3 bench/run.py --workload scan-random --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Inputs come only from ``--seed``.  The timed phase sends the
workload's fixed pool of requests pass after pass for ``--seconds``.  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from the span recorder with
``--trace 1``.  The line before it is the run stamp.  Metric and workload
reference: ``bench/README.md``.
"""

import time

T_START = time.perf_counter()

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy loads: the CLI's pool is then the only source of threads
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
#: requests from the head of the pool in one traced pass: a pass then takes seconds,
#: so a traced run makes several and can require their counts to repeat
TRACE_REQUESTS = 4
WORKLOAD_NAMES = ("scan-random", "oracle-crosscheck", "compute-qutrit")
EIG = ("linalg.hermitian_eigendecompose", "linalg.hermitian_eigenvalues")
ORACLE_SEARCHES = ("p_min_search", "discord_cq_search", "p_max_search", "trace_p_min_probe")


def import_library():
    """Import impactpower from this checkout's ``src/``, nowhere else."""
    package = SRC / "impactpower"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no impactpower sources at {package}")
    sys.path.insert(0, str(SRC))
    import impactpower

    if Path(impactpower.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: impactpower imported from {impactpower.__file__}, not {package}")
    return impactpower


def nproc() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def median(values) -> float:
    return float(np.median(values))


# --- run stamp ------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_state() -> tuple[str | None, bool | None]:
    """(HEAD sha, dirty flag), or (None, None) outside a git checkout of ROOT."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return _git("rev-parse", "HEAD"), None if status is None else bool(status)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "impactpower").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(args, counts: dict, extra: dict) -> dict:
    sha, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(),
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
        "items": counts,
        **extra,
    }


# --- running requests -------------------------------------------------------------


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add(self, request, output, reference=None, variant: str = "") -> None:
        """Check one request's output, or with a checked reference, require it to equal that."""
        self.attempted += request.items
        if isinstance(output, Exception):
            problems = [f"{request.kind}: raised {output!r}"] * request.items
        elif reference is not None:
            problems = [] if repr(output) == repr(reference) else [f"{request.kind}: output differs {variant}"]
        else:
            try:
                problems = request.check(output)
            except Exception as exc:  # an output the check cannot read fails
                problems = [f"{request.kind}: check raised {exc!r}"] * request.items
        self.fail(problems[: request.items])

    def fail(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.messages.extend(problems[: max(0, 10 - len(self.messages))])


def call(request):
    try:
        return request.run()
    except Exception as exc:  # a raising item is a failed item; keep measuring
        return exc


def run_pass(requests, deadline: float = float("inf")) -> tuple[list, list[float]]:
    """Run requests in order, at least one, until the deadline: (outputs, latencies)."""
    outputs, latencies = [], []
    for request in requests:
        if outputs and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        outputs.append(call(request))
        latencies.append(time.perf_counter() - t0)
    return outputs, latencies


def check_pass(tally, requests, outputs, reference=None, variant: str = "") -> None:
    for i, (request, output) in enumerate(zip(requests, outputs)):
        tally.add(request, output, None if reference is None else reference[i], variant)


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """A percentile of the latencies: (value, samples beyond it)."""
    value = float(np.percentile(latencies, percentile))
    return value, sum(x > value for x in latencies)


# --- untraced run: end-to-end metrics ----------------------------------------------------


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: import impactpower, build the inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def untraced_run(args, workload) -> tuple[dict, Tally, dict]:
    setup = measure_setup(args)
    requests = workload.requests()
    call(requests[0])  # warm-up, not counted
    tally = Tally()
    latencies = [[] for _ in requests]
    items, wall, cpu = 0, 0.0, 0.0
    extra: dict = {}
    passes, deadline = 0, time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outputs, lat = run_pass(requests, deadline)
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        for samples, latency in zip(latencies, lat):
            samples.append(latency)
        items += sum(r.items for r in requests[: len(outputs)])
        if passes == 0:
            check_pass(tally, requests, outputs)
            extra.update(check_digest(args, workload, outputs, tally))
            reference = outputs
        else:
            check_pass(tally, requests, outputs, reference, "between passes")
        passes += 1
    # Means, not medians, over the run: the host's speed switches between a fast and a
    # slow state over seconds, and a median of single samples jumps between the two.
    # A latency sample is one request's mean latency over its passes.
    pool_items = sum(r.items for r in requests)
    means = [float(np.mean(samples)) for samples in latencies if samples]
    tail_value, beyond = tail(means, workload.TAIL_PERCENTILE)
    extra.update(passes=passes, pool_requests=len(requests), tail_percentile=workload.TAIL_PERCENTILE,
                 tail_samples=len(means), tail_beyond=beyond, setup_samples_s=setup)
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall * pool_items / items, "s"),
        "items_per_s": (items / wall, "1/s"),
        "cpu_s": (cpu * pool_items / items, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "item_p50_ms": (1e3 * median(means), "ms"),
        "item_tail_ms": (1e3 * tail_value, "ms"),
    }
    return metrics, tally, extra


def check_digest(args, workload, outputs, tally) -> dict:
    digest = workload.digest(outputs)
    if digest is None:
        return {}
    pinned = workload.PINNED_SHA256.get(args.seed)
    if pinned is not None and digest != pinned:
        tally.fail([f"CSV sha256 {digest} != pinned {pinned}"])
    return {"csv_sha256": digest, "csv_sha256_pinned": pinned}


# --- traced run: per-layer metrics --------------------------------------------------------


def layer_metrics(s: spans.SpanSummary) -> dict:
    """Per-layer metrics of one traced pass, from its span summary."""
    m = {
        "linalg.eig.calls": (s.calls(*EIG), "count"),
        "linalg.eig.self_s": (s.self_s(*EIG), "s"),
        "linalg.eig.us_per_call": (1e6 * s.per_call_s(*EIG), "us"),
        "linalg.tensor.calls": (s.calls("linalg.tensor"), "count"),
        "linalg.tensor.self_s": (s.self_s("linalg.tensor"), "s"),
        "states.random_state.calls": (s.calls("states.random_state"), "count"),
        "states.random_state.self_s": (s.self_s("states.random_state"), "s"),
        "states.load_state.us_per_call": (1e6 * s.per_call_s("states.load_state"), "us"),
        "correlations.p_extrema.calls": (s.calls("correlations.p_extrema"), "count"),
        "correlations.p_extrema.us_per_call": (1e6 * s.per_call_s("correlations.p_extrema"), "us"),
        "correlations.measurement_min_discord.ms_per_call": (
            1e3 * s.per_call_s("correlations.measurement_min_discord"), "ms"),
        "correlations.measurement_min_discord.self_s": (
            s.self_s("correlations.measurement_min_discord"), "s"),
        "dynamics.impact.calls": (s.calls("dynamics.impact"), "count"),
        "dynamics.trace_impact.calls": (s.calls("dynamics.trace_impact"), "count"),
        "dynamics.trace_impact.us_per_call": (1e6 * s.per_call_s("dynamics.trace_impact"), "us"),
        "dynamics.impact_power_result.ms_per_call": (
            1e3 * s.per_call_s("dynamics.impact_power_result"), "ms"),
        "dynamics.load_hamiltonian.us_per_call": (1e6 * s.per_call_s("dynamics.load_hamiltonian"), "us"),
    }
    for fn in ORACLE_SEARCHES:
        m[f"oracle.{fn}.ms_per_call"] = (1e3 * s.per_call_s(f"oracle.{fn}"), "ms")
    m["oracle.impact_power_grid.calls"] = (s.calls("oracle.impact_power_grid"), "count")
    for fn in ORACLE_SEARCHES:
        m[f"oracle.{fn}.linalg_calls"] = (s.linalg_calls_per_call(f"oracle.{fn}"), "count")
    computes = s.calls("cli.cmd_compute")
    m["cli.compute.self_ms"] = (1e3 * s.layer_self_s("cli") / computes if computes else 0.0, "ms")
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (s.layer_self_s(layer), "s")
    m["trace.harness_self_s"] = (s.layer_self_s("harness"), "s")
    return m


def traced_pass(recorder, modules, requests):
    """Run requests with every layer function wrapped: (outputs, wall, summary)."""
    outputs = []
    lo = len(recorder)
    recorder.install(modules)
    try:
        wall0 = time.perf_counter()
        with recorder.span("harness.pass"):
            for i, request in enumerate(requests):
                recorder.item_id = i
                with recorder.span("harness.item"):
                    outputs.append(call(request))
        wall = time.perf_counter() - wall0
    finally:
        recorder.uninstall()
    return outputs, wall, recorder.summary(lo, len(recorder))


def traced_run(args, workload, library) -> tuple[dict, Tally, dict]:
    modules = {layer: getattr(library, layer) for layer in spans.LAYERS}
    recorder = spans.Recorder()
    tally = Tally()
    extra: dict = {}
    passes: list[dict] = []
    untraced_walls, traced_walls, cpu_per_wall = [], [], []
    scan = workload.name == "scan-random"  # cli.scan.cpu_per_wall needs a threaded pass
    requests = workload.requests(serial=True)[:TRACE_REQUESTS]
    call(requests[0])  # warm-up, not counted
    started = time.perf_counter()
    # the pool, repeated: counts must repeat exactly between passes
    while not passes or time.perf_counter() - started < args.seconds:
        wall0 = time.perf_counter()
        plain, _ = run_pass(requests)
        untraced_walls.append(time.perf_counter() - wall0)
        traced, wall, summary = traced_pass(recorder, modules, requests)
        traced_walls.append(wall)
        m = layer_metrics(summary)
        accounted = sum(m[f"{layer}.self_s"][0] for layer in spans.LAYERS)
        m["trace.wall_s"] = (wall, "s")
        m["trace.accounted_ratio"] = ((accounted + m["trace.harness_self_s"][0]) / wall, "ratio")
        passes.append(m)
        if len(passes) == 1:
            check_pass(tally, requests, plain)
            extra.update(check_digest(args, workload, plain, tally))
            reference = plain
        else:
            check_pass(tally, requests, plain, reference, "between passes")
        check_pass(tally, requests, traced, reference, "with tracing on")
        if scan:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            threaded, _ = run_pass(workload.requests()[:TRACE_REQUESTS])
            cpu_per_wall.append((time.process_time() - cpu0) / (time.perf_counter() - wall0))
            check_pass(tally, requests, threaded, reference, "between thread counts")

    metrics = {}
    for name, (_, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "count":
            if len(set(values)) != 1:
                tally.fail([f"count {name} differs between passes: {values}"])
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (median(values), unit)
    for ratio in (p["trace.accounted_ratio"][0] for p in passes):
        if abs(ratio - 1.0) > 0.05:
            tally.fail([f"span self times account for {ratio:.3f} of a traced pass's wall time"])
    metrics["trace.overhead_ratio"] = (median(traced_walls) / median(untraced_walls) - 1.0, "ratio")
    metrics["cli.scan.cpu_per_wall"] = (median(cpu_per_wall) if cpu_per_wall else 0.0, "ratio")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.npz"
    recorder.save(spans_path)
    extra.update(passes=len(passes), spans=len(recorder),
                 spans_file=str(spans_path.relative_to(ROOT)))
    return metrics, tally, extra


# --- entry point ----------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    library = import_library()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, nproc())
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        if args.trace:
            metrics, tally, extra = traced_run(args, workload, library)
        else:
            metrics, tally, extra = untraced_run(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    counts = {"attempted": tally.attempted, "failed": tally.failed}
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print("stamp " + json.dumps(stamp(args, counts, extra)))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
