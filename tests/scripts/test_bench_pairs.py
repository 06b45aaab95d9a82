"""bench_pairs.py's verdict is choosing-metrics §8, no more generous, and its
``--record`` rows share one schema."""

import importlib.util
import json
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


RUN_OUTPUT = (
    "analytic-optimize seed=611 trace=0: checks 6/6 ok, result_err 0.0018, "
    "result_digest f3115a45b2c0d9e1\n"
    "  pass_s        1.07 s\n"
    '{"correct": true, "attempted": 6, "failed": 0, "metrics": {}}\n'
)


def test_digest_is_read_from_the_line_above_the_contract(mod):
    assert mod.parse_digest(RUN_OUTPUT) == "f3115a45b2c0d9e1"
    assert mod.parse_digest('{"correct": true}\n') == ""


def test_digest_words(mod):
    assert mod.digest_word("f3115a45", "f3115a45") == "digest equal"
    assert mod.digest_word("f3115a45", "a4764ad1") == "DIGEST DIFFERS"
    assert mod.digest_word("", "") == "DIGEST DIFFERS"  # nothing read, nothing shown


def test_pairs_report_digests_per_pair_and_in_the_summary(mod, monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_s", "better": "lower"}]}')
    change = tmp_path / "change"

    def fake_run(checkout, workload, seed, seconds):
        differs = checkout == change and seed == 3
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": 1.0}},
                "result_digest": "bb" if differs else "aa"}

    monkeypatch.setattr(mod, "run_once", fake_run)
    assert mod.main([str(tmp_path), str(change), "--workload", "w",
                     "--seeds", "1-3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit("  ", 1)[-1] for line in out[:3]] == [
        "digest equal", "digest equal", "DIGEST DIFFERS"]
    assert out[-1].strip() == "digests equal on 2/3 pairs"


ROW_TYPES = {
    "pr": int, "commit": (str, type(None)), "parent_commit": (str, type(None)),
    "workload": str, "metric": str, "parent": dict, "change": dict,
    "pairs": int, "won": int, "lost": int, "gain": bool, "failed_runs": int,
    "seeds": str, "seconds": float, "cores": int, "cpu_model": (str, type(None)),
    "digests_equal": int, "source": str,
}


def check_row(row):
    assert set(row) == set(ROW_TYPES), sorted(set(row) ^ set(ROW_TYPES))
    for key, kind in ROW_TYPES.items():
        assert isinstance(row[key], kind), (key, row[key])
    for side in ("parent", "change"):
        assert set(row[side]) == {"median", "q1", "q3"}
        assert row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
    assert row["won"] + row["lost"] <= row["pairs"]
    assert 0 <= row["digests_equal"] <= row["pairs"]
    assert row["source"] in ("bench_pairs.py", "CHANGES.md")


def test_the_committed_record_has_one_schema(mod):
    """Shape only: shared runners are noisy, so no value is gated."""
    rows = json.loads(mod.TRAJECTORY.read_text())
    assert isinstance(rows, list) and rows
    for row in rows:
        check_row(row)
    assert len({(r["pr"], r["workload"], r["metric"]) for r in rows}) == len(rows)


def test_record_appends_one_row_per_claim(mod, monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_s", "better": "lower"},'
        ' {"name": "peak_rss_mb", "better": "lower"}]}')
    change = tmp_path / "change"
    record = tmp_path / "trajectory.json"
    record.write_text('[{"pr": 1}]\n')

    def fake_run(checkout, workload, seed, seconds):
        rss = 90.0 if checkout == change else 100.0 + seed
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": 1.0}, "peak_rss_mb": {"value": rss}},
                "result_digest": "aa"}

    monkeypatch.setattr(mod, "run_once", fake_run)
    monkeypatch.setattr(mod, "TRAJECTORY", record)
    assert mod.main([str(tmp_path), str(change), "--workload", "w", "--seeds", "1-10",
                     "--record", "41", "--claim", "peak_rss_mb"]) == 0
    rows = json.loads(record.read_text())
    assert rows[0] == {"pr": 1} and len(rows) == 2
    check_row(rows[1])
    assert rows[1]["metric"] == "peak_rss_mb" and rows[1]["seeds"] == "1-10"
    assert (rows[1]["won"], rows[1]["gain"], rows[1]["digests_equal"]) == (10, True, 10)
    assert rows[1]["commit"] is None  # not a git checkout


@pytest.mark.parametrize("extra", [["--record", "41"], ["--claim", "pass_s"],
                                   ["--record", "41", "--claim", "nonsense"]])
def test_record_needs_a_known_claim(mod, tmp_path, extra):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "pass_s", "better": "lower"}]}')
    with pytest.raises(SystemExit) as exc:
        mod.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seeds", "1",
                  *extra])
    assert exc.value.code == 2
