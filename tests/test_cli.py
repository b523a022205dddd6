import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from impactpower import cli, correlations, states


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    states.save_state(states.werner(0.3), path)
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    states.save_state(states.from_pure(states.phi_plus(2), (2, 2)), path)
    return str(path)


@pytest.fixture
def z_hamiltonian_file(tmp_path):
    path = tmp_path / "hz.json"
    path.write_text(json.dumps({"dA": 2, "bloch_axis": [0, 0, 1], "gap": 1.0}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_werner_report(capsys, werner_file):
    code, out, _ = run(capsys, ["compute", werner_file])
    assert code == 0
    data = json.loads(out)
    assert data["report"]["saturates_bound"] is True
    assert abs(data["report"]["p_min"] - (2 * 0.3 - 1) ** 2 / 9.0) <= 1e-9


def test_compute_malformed_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, ["compute", str(bad)])
    assert code == 2
    assert "parse" in err


def test_compute_invalid_state_names_invariant(capsys, tmp_path):
    bad = tmp_path / "trace.json"
    mat = np.eye(4) * 0.275
    bad.write_text(
        json.dumps({"dims": [2, 2], "matrix": [[float(v.real), 0.0] for v in mat.ravel()]})
    )
    code, _, err = run(capsys, ["compute", str(bad)])
    assert code == 2
    assert "trace" in err


def test_compute_rejects_non_finite_inputs(capsys, tmp_path, werner_file):
    mat = np.eye(4) / 4
    mat[0, 0] = np.nan
    nan_state = tmp_path / "nan_state.json"
    nan_state.write_text(
        json.dumps({"dims": [2, 2], "matrix": [[float(v), 0.0] for v in mat.ravel()]})
    )
    code, out, err = run(capsys, ["compute", str(nan_state)])
    assert (code, out) == (2, "")
    assert "finiteness" in err and "Traceback" not in err

    nan_energy = tmp_path / "nan_energy.json"
    nan_energy.write_text(
        json.dumps(
            {
                "dA": 2,
                "energies": [0.0, float("nan")],
                "projectors": [
                    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                ],
            }
        )
    )
    code, out, err = run(capsys, ["compute", werner_file, "--hamiltonian", str(nan_energy)])
    assert (code, out) == (2, "")
    assert "non-finite" in err and "Traceback" not in err


def test_compute_bell_with_hamiltonian(capsys, bell_file, z_hamiltonian_file):
    code, out, _ = run(
        capsys,
        ["compute", bell_file, "--hamiltonian", z_hamiltonian_file, "--time-samples", "8"],
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["impact_power"]["value"] - 1.0) <= 1e-10
    assert data["impact_power"]["exact"] is True
    profile = data["impact_profile"]
    assert len(profile) == 9
    assert all(row["trace_impact"] >= row["impact"] - 1e-10 for row in profile)


def test_scan_werner_saturation(capsys):
    code, out, _ = run(capsys, ["scan", "werner", "--grid", "11"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 12
    for line in lines[1:]:
        gap = float(line.split(",")[-1])
        assert abs(gap) <= 1e-9


def test_scan_random_respects_bound(capsys):
    code, out, _ = run(
        capsys, ["scan", "random", "--samples", "50", "--dims", "2x2", "--seed", "3", "--threads", "1"]
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        p_min, bound = float(cells[2]), float(cells[5])
        assert p_min <= bound + 1e-9


def test_scan_isotropic_reports_gap(capsys):
    code, out, _ = run(capsys, ["scan", "isotropic", "--grid", "11"])
    assert code == 0
    assert len(out.strip().split("\n")) == 12


def test_scan_deterministic_and_thread_independent(capsys, tmp_path):
    argv = ["scan", "random", "--samples", "30", "--dims", "2x3", "--seed", "7"]
    code, first, _ = run(capsys, argv + ["--threads", "1"])
    assert code == 0
    code, second, _ = run(capsys, argv + ["--threads", "4"])
    assert code == 0
    assert first == second


def _reference_row(param, rho):
    # one row as the per-item scan built it: one state, one report
    rep = correlations.report(rho)
    bound_rhs = math.nan if rep.bound_rhs is None else rep.bound_rhs
    values = (rep.purity, rep.p_min, rep.p_max, rep.discord, bound_rhs, bound_rhs - rep.p_min)
    return ",".join([param] + [cli._fmt(v) for v in values])


def _reference_csv(rows):
    return "\n".join([cli.CSV_HEADER] + rows) + "\n"


@pytest.mark.parametrize("dims,rank", [((2, 2), 4), ((2, 2), 2), ((2, 3), 1), ((2, 4), 2)])
def test_scan_random_matches_per_item_reference(capsys, monkeypatch, dims, rank):
    samples, seed = 30, 11
    expected = _reference_csv(
        [
            _reference_row(str(i), states.random_state(dims, rank=rank, seed=[seed, i]))
            for i in range(samples)
        ]
    )
    argv = ["scan", "random", "--samples", str(samples), "--dims", f"{dims[0]}x{dims[1]}"]
    argv += ["--rank", str(rank), "--seed", str(seed)]
    for chunk in (1, 7, cli._SCAN_CHUNK):
        monkeypatch.setattr(cli, "_SCAN_CHUNK", chunk)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == expected, chunk


@pytest.mark.parametrize("family,make,lo", [("werner", states.werner, -1.0), ("isotropic", states.isotropic, 0.0)])
def test_scan_families_match_per_item_reference(capsys, family, make, lo):
    params = np.linspace(lo, 1.0, 21).tolist()
    expected = _reference_csv([_reference_row(cli._fmt(p), make(p)) for p in params])
    code, out, _ = run(capsys, ["scan", family, "--grid", "21"])
    assert code == 0
    assert out == expected


def test_threads_option_is_accepted_and_starts_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    scan = ["scan", "random", "--samples", str(2 * cli._SCAN_CHUNK + 1), "--seed", "2"]
    check = ["verify", "--suite", "theorem3", "--budget", "quick", "--seed", "5"]
    expected = [run(capsys, argv) for argv in (scan, check)]
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for argv, (code, out, _) in zip((scan, check), expected):
        assert code == 0
        assert run(capsys, argv + ["--threads", "4"]) == (0, out, "")


def test_python_dash_m_runs_the_cli():
    package_root = Path(cli.__file__).resolve().parents[1]
    paths = [str(package_root), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "impactpower", "scan", "werner", "--grid", "3"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == cli.CSV_HEADER


def test_scan_writes_file_with_lf_endings(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, ["scan", "werner", "--grid", "5", "--out", str(out_file)])
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().startswith(cli.CSV_HEADER)


def test_scan_rejects_bad_dims(capsys):
    code, _, err = run(capsys, ["scan", "random", "--dims", "3x2"])
    assert code == 2
    assert "d_A = 2" in err


def test_scan_rejects_unknown_family():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["scan", "ghz"])
    assert excinfo.value.code == 2


def test_verify_theorem3_quick_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "theorem3", "--budget", "quick", "--seed", "42"])
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "werner-purity-and-discord",
        "werner-bound-saturation",
        "random-states-purity-bound",
        "pure-state-endpoints",
    }


def test_verify_summary_is_reproducible(capsys):
    argv = ["verify", "--suite", "theorem3", "--budget", "quick", "--seed", "42", "--threads", "2"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_timings_go_to_a_side_file(capsys, tmp_path):
    argv = ["verify", "--suite", "theorem3", "--budget", "quick", "--seed", "42"]
    timings = tmp_path / "timings.json"
    code, plain, _ = run(capsys, argv)
    assert code == 0
    code, timed, _ = run(capsys, argv + ["--timings", str(timings)])
    assert code == 0
    assert timed == plain
    records = json.loads(timings.read_text())["checks"]
    summary = json.loads(plain)["checks"]
    assert [(r["name"], r["items"]) for r in records] == [(c["name"], c["items"]) for c in summary]
    assert all(r["elapsed_s"] >= 0.0 for r in records)
    code, _, err = run(capsys, argv + ["--timings", str(tmp_path / "missing" / "t.json")])
    assert code == 2
    assert "timings" in err


def test_verify_injected_corruption_fails(capsys, tmp_path):
    bad = tmp_path / "corrupt.json"
    mat = np.eye(4) * 0.275
    bad.write_text(
        json.dumps({"dims": [2, 2], "matrix": [[float(v.real), 0.0] for v in mat.ravel()]})
    )
    code, out, err = run(
        capsys,
        ["verify", "--suite", "theorem3", "--budget", "quick", "--inject-state", str(bad)],
    )
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False
    injected = [c for c in data["checks"] if c["name"] == "injected-state-validation"][0]
    assert "trace" in injected["detail"]
    assert "injected-state-validation" in err


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("IMPACTPOWER_SEED", "9")
    args = cli.build_parser().parse_args(["verify"])
    assert args.seed == 9
    monkeypatch.delenv("IMPACTPOWER_SEED")
    args = cli.build_parser().parse_args(["verify"])
    assert args.seed == 0
