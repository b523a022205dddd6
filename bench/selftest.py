#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Passes (exit 0) when

1. a one-second untraced and a one-second traced run of every workload in
   ``BENCHMARK.json`` exit 0, report no failed item, and print exactly the
   listed end-to-end (untraced) or per-layer (traced) metrics with their
   units; and
2. each output check counts a deliberately corrupted output as failed while
   the genuine output passes: a CSV row with p_min > p_max, an oracle value
   off by 1e-5, and a profile point with trace_impact < impact.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def short_runs(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: {result['failed']} of {result['attempted']} items failed")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{what}: metrics differ from BENCHMARK.json {kind}: "
                                f"{sorted(set(printed.items()) ^ set(expected.items()))}")
    return problems


def corrupted_outputs() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    problems = []

    def expect(what: str, genuine: list[str], corrupted: list[str]) -> None:
        if genuine:
            problems.append(f"{what}: genuine output failed its check: {genuine}")
        if len(corrupted) != 1:
            problems.append(f"{what}: corrupted output gave {len(corrupted)} failures, expected 1")

    request = workloads.ScanRandom(0, None, 1).requests(serial=True)[0]
    output = request.run()
    code, text, err = output[0]
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[2], cells[3] = cells[3], cells[2]  # p_min <-> p_max
    lines[1] = ",".join(cells)
    expect("scan p_min > p_max", request.check(output),
           request.check([(code, "\n".join(lines), err), output[1]]))

    kind, dims, tol = workloads.ORACLE_KINDS[0]
    rho = workloads.states.random_state(dims, seed=1)
    closed, found = workloads.compare_oracle(kind, rho, [0])
    expect("oracle value off by 1e-5", workloads.check_oracle(kind, tol, (closed, found)),
           workloads.check_oracle(kind, tol, (closed, found + 1e-5)))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
        request = workloads.ComputeQutrit(0, Path(workdir), 1).requests()[0]
        output = request.run()
        data = json.loads(output[1])
        point = data["impact_profile"][16]
        point["trace_impact"] = point["impact"] - 1e-6
        expect("profile trace_impact < impact", request.check(output), workloads.check_compute(data))
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = corrupted_outputs() + short_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
