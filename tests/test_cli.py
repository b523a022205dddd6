import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impactpower import cli, correlations, dynamics, states
from impactpower.errors import InvalidDensityMatrix, InvalidHamiltonian


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


def test_compute_finishes_for_a_tiny_level_gap(capsys, tmp_path):
    state, ham = tmp_path / "s.json", tmp_path / "h.json"
    states.save_state(states.random_state((3, 2), seed=0), state)
    levels = np.diag([0.0, 1.0, 1.0 + 1e-7])
    dynamics.save_hamiltonian(dynamics.LocalHamiltonian.from_matrix(levels), ham)
    code, out, _ = run(capsys, ["compute", str(state), "--hamiltonian", str(ham)])
    assert code == 0
    power = json.loads(out)["impact_power"]
    assert math.isfinite(power["value"]) and 0.0 < power["value"] <= power["upper_bound"]


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
    for dims in ("2x0", "2x-1"):
        code, out, err = run(capsys, ["scan", "random", "--dims", dims])
        assert (code, out) == (2, "")
        assert "--dims" in err and "d_B >= 1" in err and "--rank" not in err


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


@pytest.mark.parametrize("argv", [
    ["scan", "random", "--samples", "2"],
    ["verify", "--suite", "theorem3"],
    ["compute", "state.json"],
])
@pytest.mark.parametrize("seed", ["-1", "abc", "1.5", ""])
def test_bad_seed_option_exits_2_naming_the_option(capsys, argv, seed):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--seed", seed])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert "--seed" in err and "non-negative integer" in err and "Traceback" not in err


@pytest.mark.parametrize("raw", ["abc", "-1", "2.5"])
def test_bad_seed_environment_value_exits_2_naming_it(capsys, monkeypatch, raw):
    monkeypatch.setenv("IMPACTPOWER_SEED", raw)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["scan", "werner", "--grid", "3"])
    assert excinfo.value.code == 2
    assert "IMPACTPOWER_SEED" in capsys.readouterr().err
    # an explicit --seed wins over the environment
    assert cli.build_parser().parse_args(["scan", "werner", "--seed", "4"]).seed == 4


def test_empty_seed_environment_value_means_0(monkeypatch):
    monkeypatch.setenv("IMPACTPOWER_SEED", "")
    assert cli.build_parser().parse_args(["compute", "state.json"]).seed == 0


def test_ten_calls_build_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(10):
        assert run(capsys, ["scan", "werner", "--grid", "3"])[0] == 0
    assert cli.build_parser() is cli.build_parser()
    # the top-level parser and one parser per subcommand, each built once
    assert built.count("impactpower") == 1 and len(built) == 4


def test_seed_environment_is_read_at_every_call(capsys, monkeypatch):
    argv = ["scan", "random", "--samples", "3"]
    from_env = {}
    for seed in ("3", "5"):
        monkeypatch.setenv("IMPACTPOWER_SEED", seed)
        from_env[seed] = run(capsys, argv)
    monkeypatch.delenv("IMPACTPOWER_SEED")
    for seed in ("3", "5"):
        assert from_env[seed] == run(capsys, argv + ["--seed", seed])
    assert from_env["3"][1] != from_env["5"][1]


def test_bad_seed_environment_value_after_a_good_call_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("IMPACTPOWER_SEED", "3")
    assert run(capsys, ["scan", "werner", "--grid", "3"])[0] == 0
    monkeypatch.setenv("IMPACTPOWER_SEED", "x3")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["scan", "werner", "--grid", "3"])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert "IMPACTPOWER_SEED" in err and "'x3'" in err


#: stdout, stderr and exit code of each command line, as the CLI gave them when it
#: still built a new parser for every call; 80 columns, IMPACTPOWER_SEED unset
_FROZEN_TEXT = json.loads((Path(__file__).parent / "data" / "cli_text.json").read_text())


@pytest.mark.parametrize("case", _FROZEN_TEXT, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_usage_and_errors_match_frozen_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("IMPACTPOWER_SEED", raising=False)
    for _ in range(2):  # the second call reuses the parser of the first
        try:
            code = cli.main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


_MIXED_PAIRS = [[0.25 if k % 5 == 0 else 0.0, 0.0] for k in range(16)]
_BAD_DIMS = {"2.7": 2.7, "inf": float("inf")}


@pytest.mark.parametrize("d_a", sorted(_BAD_DIMS))
def test_json_dimensions_must_be_whole_numbers(capsys, tmp_path, werner_file, d_a):
    value = _BAD_DIMS[d_a]
    with pytest.raises(InvalidDensityMatrix, match="whole number"):
        states.state_from_dict({"dims": [value, 2], "matrix": _MIXED_PAIRS})
    with pytest.raises(InvalidHamiltonian, match="whole number"):
        dynamics.hamiltonian_from_dict({"dA": value, "bloch_axis": [0, 0, 1], "gap": 1.0})
    raw = "1e400" if value == float("inf") else repr(value)
    state = tmp_path / "state.json"
    state.write_text(f'{{"dims": [{raw}, 2], "matrix": {json.dumps(_MIXED_PAIRS)}}}')
    ham = tmp_path / "ham.json"
    ham.write_text(f'{{"dA": {raw}, "bloch_axis": [0, 0, 1], "gap": 1.0}}')
    for argv in (["compute", str(state)], ["compute", werner_file, "--hamiltonian", str(ham)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "whole number" in err and "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NUMBER = st.integers(-2, 5) | st.floats()
_PAIRS = st.lists(st.lists(_NUMBER, min_size=2, max_size=2) | _JSON, max_size=16)
_STATE_LIKE = st.fixed_dictionaries(
    {}, optional={"dims": st.lists(_NUMBER | _JSON, max_size=3), "matrix": _PAIRS | _JSON}
)
_HAMILTONIAN_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "dA": _NUMBER | _JSON,
        "energies": st.lists(_NUMBER, max_size=3) | _JSON,
        "projectors": st.lists(_PAIRS, max_size=3) | _JSON,
        "bloch_axis": st.lists(_NUMBER, max_size=4) | _JSON,
        "gap": _NUMBER | _JSON,
    },
)


@settings(max_examples=100, deadline=None)
@given(
    which=st.sampled_from(["state", "hamiltonian"]),
    text=(_JSON | _STATE_LIKE | _HAMILTONIAN_LIKE).map(json.dumps) | st.text(max_size=8),
)
@example(which="state", text='{"dims": [2.7, 2], "matrix": %s}' % json.dumps(_MIXED_PAIRS))
@example(which="state", text='{"dims": [1e400, 2], "matrix": []}')
@example(which="hamiltonian", text='{"dA": 2.7, "bloch_axis": [0, 0, 1], "gap": 1.0}')
@example(which="hamiltonian", text='{"dA": 1e400, "energies": [0, 1], "projectors": []}')
def test_compute_on_arbitrary_json_exits_0_or_2(tmp_path_factory, which, text):
    work = tmp_path_factory.mktemp("fuzz")
    state, ham = work / "state.json", work / "ham.json"
    states.save_state(states.werner(0.3), state)
    (state if which == "state" else ham).write_text(text)
    argv = ["compute", str(state), "--time-samples", "4"]
    if which == "hamiltonian":
        argv += ["--hamiltonian", str(ham)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) in (0, 2)
