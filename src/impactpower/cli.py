"""Command-line frontend: single-state reports, family scans, verification.

Exit codes: 0 success, 1 failed verification check, 2 invalid input
(malformed file, violated state invariant, bad parameters).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import correlations, dynamics, states, verify
from .errors import ImpactPowerError

CSV_HEADER = "family_param_or_seed,purity,p_min,p_max,discord,bound_rhs,gap_to_bound"


def _default_seed() -> int:
    raw = os.environ.get("IMPACTPOWER_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return 0


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


# --- compute ----------------------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    try:
        rho = states.load_state(args.state_file)
    except ImpactPowerError as exc:
        return _fail(f"invalid state file {args.state_file!r}: {exc}")
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot parse state file {args.state_file!r}: {exc}")

    rep = correlations.report(rho, seed=args.seed)
    out = {
        "state": {"dims": list(rho.dims), "purity": rho.purity},
        "report": rep.to_dict(),
    }

    if args.hamiltonian is not None:
        try:
            ham = dynamics.load_hamiltonian(args.hamiltonian)
            res = dynamics.impact_power_result(rho, ham)
            profile = _impact_profile(rho, ham, args.time_samples)
        except ImpactPowerError as exc:
            return _fail(f"invalid hamiltonian file {args.hamiltonian!r}: {exc}")
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(f"cannot parse hamiltonian file {args.hamiltonian!r}: {exc}")
        out["hamiltonian"] = {
            "dA": ham.d_a,
            "energies": [float(e) for e in ham.energies],
            "trivial": ham.trivial,
            "fully_nondegenerate": ham.fully_nondegenerate,
        }
        out["impact_power"] = {
            "value": res.value,
            "t_max": res.t_max,
            "exact": res.exact,
            "upper_bound": res.upper_bound,
        }
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
    levels, _ = ham.distinct_levels()
    span = 2.0 * math.pi / float(np.min(np.diff(levels)))
    profile = []
    for j in range(samples + 1):
        t = j * span / samples
        profile.append(
            {
                "t": t,
                "impact": dynamics.impact(rho, ham, t),
                "trace_impact": dynamics.trace_impact(rho, ham, t),
            }
        )
    return profile


# --- scan ---------------------------------------------------------------------


def _scan_row(param: str, rho: states.DensityMatrix) -> str:
    rep = correlations.report(rho)
    bound_rhs = math.nan if rep.bound_rhs is None else rep.bound_rhs
    values = (rep.purity, rep.p_min, rep.p_max, rep.discord, bound_rhs, bound_rhs - rep.p_min)
    cells = [param] + [_fmt(v) for v in values]
    return ",".join(cells)


def cmd_scan(args: argparse.Namespace) -> int:
    rows: list[str]
    if args.family in ("werner", "isotropic"):
        if args.grid < 2:
            return _fail("--grid must be at least 2")
        lo, hi = (-1.0, 1.0) if args.family == "werner" else (0.0, 1.0)
        params = np.linspace(lo, hi, args.grid)
        make = states.werner if args.family == "werner" else states.isotropic
        rows = [_scan_row(_fmt(float(p)), make(float(p))) for p in params]
    else:  # random
        try:
            d_a, d_b = (int(v) for v in args.dims.lower().split("x"))
        except ValueError:
            return _fail(f"cannot parse --dims {args.dims!r}, expected like 2x2")
        if d_a != 2:
            return _fail("random scans need d_A = 2 (closed forms apply to qubit A)")
        if args.samples < 1:
            return _fail("--samples must be positive")
        rank = args.rank if args.rank else d_a * d_b
        if not 1 <= rank <= d_a * d_b:
            return _fail(f"--rank must lie in [1, {d_a * d_b}]")

        def one(i: int) -> str:
            rho = states.random_state((d_a, d_b), rank=rank, seed=[args.seed, i])
            return _scan_row(str(i), rho)

        rows = verify.map_indexed(one, args.samples, args.threads)

    text = "\n".join([CSV_HEADER] + rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    timings: list[dict] = []
    try:
        summary = verify.run_suite(
            args.suite,
            seed=args.seed,
            budget=args.budget,
            threads=args.threads,
            inject_state=args.inject_state,
            timings=timings,
        )
    except ImpactPowerError as exc:
        return _fail(str(exc))
    if args.timings:
        try:
            with open(args.timings, "w", encoding="utf-8") as fh:
                json.dump({"checks": timings}, fh, indent=2)
        except OSError as exc:
            return _fail(f"cannot write timings file {args.timings!r}: {exc}")
    _print_json(summary)
    if summary["all_passed"]:
        return 0
    failed = [c for c in summary["checks"] if not c["passed"]]
    for check in failed:
        where = (
            f" (worst item {check['worst_index']}, replay seed {check['replay_seed']})"
            if "worst_index" in check
            else f": {check.get('detail', '')}"
        )
        sys.stderr.write(f"FAILED {check['name']}{where}\n")
    return 1


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactpower",
        description="Impact of local unitary evolutions and the quantum "
        "correlations it reveals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    compute.add_argument("--seed", type=int, default=_default_seed())
    compute.set_defaults(func=cmd_compute)

    scan = sub.add_parser("scan", help="family scan emitted as CSV")
    scan.add_argument("family", choices=["werner", "isotropic", "random"])
    scan.add_argument("--grid", type=int, default=101, help="grid points for werner/isotropic")
    scan.add_argument("--samples", type=int, default=1000, help="sample count for random")
    scan.add_argument("--dims", default="2x2", help="dims for random, like 2x2 or 2x3")
    scan.add_argument("--rank", type=int, default=0, help="rank for random (default full)")
    scan.add_argument("--seed", type=int, default=_default_seed())
    scan.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    scan.add_argument("--out", help="write CSV here instead of stdout")
    scan.set_defaults(func=cmd_scan)

    ver = sub.add_parser("verify", help="run the verification batteries")
    ver.add_argument(
        "--suite",
        default="all",
        choices=["all", *verify.SUITES],
    )
    ver.add_argument("--seed", type=int, default=_default_seed())
    ver.add_argument("--budget", default="quick", choices=["quick", "full"])
    ver.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")
    ver.add_argument(
        "--timings",
        help="write each check's name, item count and elapsed_s to this JSON file",
    )
    ver.add_argument("--inject-state", help=argparse.SUPPRESS)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
