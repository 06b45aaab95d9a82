"""bench_pairs.py's verdict is choosing-metrics §8, no more generous."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def mod():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.00]


def test_clear_win_is_a_gain(mod):
    v = mod.verdict(PARENT, [p - 0.2 for p in PARENT], "lower")
    assert (v["won"], v["lost"], v["pairs"]) == (10, 0, 10)
    assert v["gap"] == pytest.approx(0.2) and v["gap"] > v["parent_iqr"]
    assert v["gain"] is True


def test_ten_of_ten_inside_the_parents_iqr_is_not_a_gain(mod):
    v = mod.verdict(PARENT, [p - 0.01 for p in PARENT], "lower")
    assert v["won"] == 10 and 0 < v["gap"] < v["parent_iqr"]
    assert v["gain"] is False


def test_eight_of_ten_is_not_a_gain(mod):
    change = [p - 0.2 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    v = mod.verdict(PARENT, change, "lower")
    assert (v["won"], v["lost"]) == (8, 2) and v["gap"] > v["parent_iqr"]
    assert v["gain"] is False


def test_ties_count_for_neither_side(mod):
    change = [p - 0.2 for p in PARENT[:8]] + PARENT[8:]
    v = mod.verdict(PARENT, change, "lower")
    assert (v["won"], v["lost"]) == (8, 0)
    assert v["gain"] is False  # 8 of the 10 pairs run, not 8 of 8 decided


def test_higher_is_better_flips_the_comparison(mod):
    v = mod.verdict(PARENT, [p + 0.2 for p in PARENT], "higher")
    assert v["won"] == 10 and v["gain"] is True
    assert mod.verdict(PARENT, [p + 0.2 for p in PARENT], "lower")["gain"] is False


def test_seed_ranges(mod):
    assert mod.parse_seeds("101-104,110") == [101, 102, 103, 104, 110]
