"""Command-line frontend: single-state reports, family scans, verification.

Exit codes: 0 success, 1 failed verification check, 2 invalid input
(malformed file, violated state invariant, bad parameters).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import correlations, dynamics, linalg, states, verify
from .errors import ImpactPowerError

CSV_HEADER = "family_param_or_seed,purity,p_min,p_max,discord,bound_rhs,gap_to_bound"


def _seed(text: str) -> int:
    """An integer >= 0; argparse applies this type to --seed and to its default string."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer (from --seed or IMPACTPOWER_SEED), got {text!r}"
        )
    return int(text)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


# --- compute ----------------------------------------------------------------


#: what reading an input file can raise, besides an ImpactPowerError on its contents;
#: ValueError covers json's JSONDecodeError and its limit on the digits of an integer
_READ_ERRORS = (OSError, UnicodeDecodeError, RecursionError, ValueError)


def cmd_compute(args: argparse.Namespace) -> int:
    time_samples = linalg._count(args.time_samples, "--time-samples", low=0)
    try:
        rho = states.load_state(args.state_file)
    except ImpactPowerError as exc:
        return _fail(f"invalid state file {args.state_file!r}: {exc}")
    except _READ_ERRORS as exc:
        return _fail(f"cannot parse state file {args.state_file!r}: {exc}")

    rep = correlations.report(rho, seed=args.seed)
    out = {
        "state": {"dims": list(rho.dims), "purity": rho.purity},
        "report": dataclasses.asdict(rep),
    }

    if args.hamiltonian is not None:
        try:
            try:
                ham = dynamics.load_hamiltonian(args.hamiltonian)
            except _READ_ERRORS as exc:
                return _fail(f"cannot parse hamiltonian file {args.hamiltonian!r}: {exc}")
            res = dynamics.impact_power_result(rho, ham)
            profile = _impact_profile(rho, ham, time_samples)
        except ImpactPowerError as exc:
            return _fail(f"invalid hamiltonian file {args.hamiltonian!r}: {exc}")
        out["hamiltonian"] = {
            "dA": ham.d_a,
            "energies": [float(e) for e in ham.energies],
            "trivial": ham.trivial,
            "fully_nondegenerate": ham.fully_nondegenerate,
        }
        out["impact_power"] = dataclasses.asdict(res)
        if profile:
            out["impact_profile"] = profile

    _print_json(out)
    return 0


def _impact_profile(
    rho: states.DensityMatrix, ham: dynamics.LocalHamiltonian, samples: int
) -> list[dict]:
    """Impact and trace impact at samples + 1 times over one slowest period."""
    if ham.trivial or samples <= 0:
        return []
    ts = np.arange(samples + 1) * ham.period / samples
    columns = (ts, dynamics.impact(rho, ham, ts), dynamics.trace_impact(rho, ham, ts))
    return [
        {"t": t, "impact": i, "trace_impact": x}
        for t, i, x in zip(*(c.tolist() for c in columns))
    ]


# --- scan ---------------------------------------------------------------------


#: rows per batch of a random scan; bounds the stacks held at once
_SCAN_CHUNK = 256


def _scan_rows(labels: list[str], mats: np.ndarray, d_b: int) -> list[str]:
    """CSV rows for a stack of validated qubit-A states, one per label."""
    purity, p_min, p_max = correlations.p_extrema_stack(mats, d_b)
    if d_b == 2:
        bound_rhs = correlations.purity_bound_rhs(purity)
    else:
        bound_rhs = np.full_like(purity, math.nan)
    columns = (purity, p_min, p_max, p_min / 2.0, bound_rhs, bound_rhs - p_min)
    return [
        ",".join([label] + [_fmt(v) for v in values])
        for label, *values in zip(labels, *(c.tolist() for c in columns))
    ]


def cmd_scan(args: argparse.Namespace) -> int:
    rows: list[str]
    if args.family in ("werner", "isotropic"):
        lo, hi = (-1.0, 1.0) if args.family == "werner" else (0.0, 1.0)
        params = np.linspace(lo, hi, linalg._count(args.grid, "--grid", low=2)).tolist()
        make = states.werner if args.family == "werner" else states.isotropic
        mats = np.stack([make(p).mat for p in params])
        rows = _scan_rows([_fmt(p) for p in params], mats, 2)
    else:  # random
        try:
            d_a, d_b = (int(v) for v in args.dims.lower().split("x"))
        except ValueError:
            return _fail(f"cannot parse --dims {args.dims!r}, expected like 2x2")
        if d_a != 2:
            return _fail("random scans need d_A = 2 (closed forms apply to qubit A)")
        if d_b < 1:
            return _fail(f"--dims {args.dims!r} needs d_B >= 1")
        samples = linalg._count(args.samples, "--samples")
        dim = d_a * d_b
        rank = linalg._count(args.rank, "--rank", low=0) or dim  # full rank for 0
        if rank > dim:
            return _fail(f"--rank {rank} outside [1, {dim}]")
        rows = []
        for start in range(0, samples, _SCAN_CHUNK):
            items = range(start, min(start + _SCAN_CHUNK, samples))
            mats = states.random_states((d_a, d_b), rank, states._row_generators([args.seed], items))
            rows += _scan_rows([str(i) for i in items], mats, d_b)

    text = "\n".join([CSV_HEADER] + rows) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write CSV file {args.out!r}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    timings: list[dict] = []
    summary = verify.run_suite(args.suite, seed=args.seed, budget=args.budget, timings=timings)
    if args.timings:
        try:
            with open(args.timings, "w", encoding="utf-8") as fh:
                json.dump({"checks": timings}, fh, indent=2)
        except OSError as exc:
            return _fail(f"cannot write timings file {args.timings!r}: {exc}")
    _print_json(summary)
    if summary["all_passed"]:
        return 0
    for check in summary["checks"]:
        if not check["passed"]:
            where = f"worst item {check['worst_index']}, replay seed {check['replay_seed']}"
            sys.stderr.write(f"FAILED {check['name']} ({where})\n")
    return 1


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """The top-level parser; it reads IMPACTPOWER_SEED afresh at every parse.

    The parser is built once per process, so the environment variable becomes
    the string default of each ``--seed`` just before parsing, where argparse
    converts it with ``_seed`` as it would a default given at build time.
    """

    seed_actions: list[argparse.Action]

    def parse_known_args(self, args=None, namespace=None):
        default = os.environ.get("IMPACTPOWER_SEED") or "0"
        for action in self.seed_actions:
            action.default = default
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    parser = _Parser(
        prog="impactpower",
        description="Impact of local unitary evolutions and the quantum "
        "correlations it reveals.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )

    compute = sub.add_parser(
        "compute",
        help="correlation report for one state, optionally with a Hamiltonian",
    )
    compute.add_argument("state_file", help="state JSON file")
    compute.add_argument(
        "--hamiltonian",
        help="Hamiltonian JSON file; adds impact power and a time profile",
    )
    compute.add_argument(
        "--time-samples",
        type=int,
        default=32,
        help="points in the impact-vs-time profile (0 disables; default 32)",
    )
    compute_seed = compute.add_argument("--seed", type=_seed)

    scan = sub.add_parser("scan", help="family scan emitted as CSV")
    scan.add_argument("family", choices=["werner", "isotropic", "random"])
    scan.add_argument("--grid", type=int, default=101, help="grid points for werner/isotropic")
    scan.add_argument("--samples", type=int, default=1000, help="sample count for random")
    scan.add_argument("--dims", default="2x2", help="dims for random, like 2x2 or 2x3")
    scan.add_argument("--rank", type=int, default=0, help="rank for random (default full)")
    scan_seed = scan.add_argument("--seed", type=_seed)
    scan.add_argument("--threads", type=int, default=1, help="ignored: work runs serially")
    scan.add_argument("--out", help="write CSV here instead of stdout")

    ver = sub.add_parser("verify", help="run the verification batteries")
    ver.add_argument(
        "--suite",
        default="all",
        choices=["all", *verify.SUITES],
    )
    verify_seed = ver.add_argument("--seed", type=_seed)
    ver.add_argument("--budget", default="quick", choices=["quick", "full"])
    ver.add_argument(
        "--timings",
        help="write each check's name, item count and elapsed_s to this JSON file",
    )

    parser.seed_actions = [compute_seed, scan_seed, verify_seed]
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, not bound into the cached parser, so that a
    # wrapper installed on this module (the span tracer of bench/) sees it
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ImpactPowerError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
