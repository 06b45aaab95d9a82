"""Pinned span structure of every ``repro profile`` target.

The tree digest hashes only the ``(id, parent, name)`` triples of the
recorded spans, and a phase's call count is a pure function of the
workload, so both are machine-independent. They pin the recorder's
structure: a change to the recording layer that moves, drops or adds a
span or a phase entry changes one of them. Seed 0, preset sizes, as
``repro profile <target> --out PREFIX`` runs them.
"""

import json

import pytest

from repro.cli import main

PINS = {
    ("enumeration",): (
        "852763c8482b9fc1517d5e5ca7dc751c9503f8d97fbdf9f5063e7fcc65b1617a",
        {"enum.branch": 2, "enum.flush": 2},
    ),
    ("montecarlo",): (
        "4502eed4dd65bfedf9b39185495b8ae549905f4e680d1abe455b26ae5fb090f0",
        {"mc.label": 79, "mc.sample": 79},
    ),
    ("votes",): (
        "35022995b8636f0e55a8240fa2970e48e8520d9ed369a8e2620a74b2734a43c0",
        {"optimizer.exhaustive": 7, "votesearch.label": 1,
         "votesearch.score": 7, "votesearch.sweep": 7},
    ),
    ("serve", "--accesses", "5000"): (
        "15c5f539f4c542194afa585831cc2698db962e293b1b6832bc5b044ccdd9f058",
        {"optimizer.exhaustive": 14, "serve.admit": 5000,
         "serve.attempt": 4211, "serve.control": 15, "serve.fault": 12,
         "serve.watchdog": 6},
    ),
    ("simulate", "--workers", "1"): (
        "e095a85a93854250240a7b35b19de45a4e8d9afd107c0c70db9981f29b61a61b",
        {},
    ),
    ("simulate", "--workers", "4"): (
        "e095a85a93854250240a7b35b19de45a4e8d9afd107c0c70db9981f29b61a61b",
        {},
    ),
}


@pytest.mark.parametrize("argv", sorted(PINS), ids=" ".join)
def test_profile_structure_is_pinned(argv, capsys, tmp_path):
    digest, phases = PINS[argv]
    prefix = tmp_path / "pinned"
    assert main(["profile", *argv, "--out", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert f"tree digest  : {digest}" in out
    trace = json.loads((tmp_path / "pinned.trace.json").read_text())
    calls = {entry["name"]: entry["count"]
             for entry in trace["otherData"].get("phases", [])}
    assert calls == phases
