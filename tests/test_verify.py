import pytest

from impactpower import verify
from impactpower.errors import ImpactPowerError


@pytest.fixture
def few_items(monkeypatch):
    """Every budget cut down to at most 4 items (or axes) per check."""
    for budget, sizes in verify.SIZES.items():
        monkeypatch.setitem(verify.SIZES, budget, {key: min(n, 4) for key, n in sizes.items()})


@pytest.mark.parametrize("seed", [0, 1])
def test_every_replay_seed_replays_its_worst_item(few_items, seed):
    summary = verify.run_suite("all", seed=seed, budget="quick")
    assert [c["name"] for c in summary["checks"]] == [c.name for c in verify.CHECKS]
    for check in summary["checks"]:
        replay_seed = check["replay_seed"]
        assert replay_seed[0] == seed and replay_seed[2] == check["worst_index"]
        assert verify.replay(replay_seed, "quick") == check["worst_error"], check["name"]


def test_check_ids_and_names_are_unique():
    for field in ("check_id", "name"):
        values = [getattr(c, field) for c in verify.CHECKS]
        assert len(set(values)) == len(values), field


def test_a_suite_runs_its_rows_in_table_order(few_items):
    assert verify.SUITES == ("theorem1", "theorem2", "theorem3", "general-dim", "trace-norm")
    summary = verify.run_suite("theorem3", budget="full")
    assert [c["name"] for c in summary["checks"]] == [
        c.name for c in verify.CHECKS if c.suite == "theorem3"
    ]
    with pytest.raises(ImpactPowerError, match="unknown suite"):
        verify.run_suite("theorem4")


def test_replay_rejects_an_unknown_check_id():
    with pytest.raises(ImpactPowerError, match="no check has id 99"):
        verify.replay([0, 99, 0])


@pytest.mark.parametrize(
    "replay_seed, part",
    [
        ([0, 33, 1_000_000], "past the 1000 items"),
        ([0, 31, 500], "past the 101 items"),
        ([0, 31], "three whole numbers"),
        ([0, 31, 1, 0], "three whole numbers"),
        ([0, 31, 1.0], "three whole numbers"),
        ("031", "three whole numbers"),
        ([0, 31, -1], "'index' must be >= 0"),
        ([-1, 31, 0], "'seed' must be >= 0"),
    ],
)
def test_replay_rejects_a_seed_that_names_no_item(replay_seed, part):
    with pytest.raises(ImpactPowerError, match=part):
        verify.replay(replay_seed, "quick")


def test_every_summary_row_has_the_same_keys(few_items):
    keys = {"name", "items", "tolerance", "worst_error", "margin"}
    keys |= {"worst_index", "replay_seed", "passed"}
    for check in verify.run_suite("all")["checks"]:
        assert set(check) == keys, check["name"]
