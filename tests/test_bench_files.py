"""The checked-in benchmark files: every BENCH_*.json (tools/bench.py) and
PAIRS_*.json (tools/pairs.py) at the top of the repository parses and
reports finite medians, every BENCH file has its other half, and a PAIRS
file measured the same source as the BENCH files of its label. No timing
is taken here."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
PAIRS_FILES = sorted(ROOT.glob("PAIRS_*.json"))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _digest_if_any(data: dict) -> None:
    # Files written before tools/bench.py recorded src_digest have none.
    if "src_digest" in data:
        assert re.fullmatch("[0-9a-f]{64}", data["src_digest"])


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_a_bench_file_reports_finite_medians(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{data['label']}.json"
    assert data["workloads"]
    for workload, entry in data["workloads"].items():
        assert entry["median"], workload
        for metric, value in entry["median"].items():
            assert _finite(value), (workload, metric)
    _digest_if_any(data)


@pytest.mark.parametrize("path", PAIRS_FILES, ids=[p.name for p in PAIRS_FILES])
def test_a_pairs_file_reports_finite_medians(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert len(data["pairs"]) == 10
    for side in ("parent", "change"):
        assert _finite(data[side]["median"]), side
        assert all(_finite(q) for q in data[side]["quartiles"]), side
        _digest_if_any(data[side])
    assert data["verdict"] in ("holds", "does not hold")


def test_every_bench_file_has_its_other_half():
    names = {path.name for path in BENCH_FILES}
    assert names
    for name in names:
        label, half = name.removesuffix(".json").rsplit("-", 1)
        assert half in ("before", "after"), name
        assert f"{label}-{'after' if half == 'before' else 'before'}.json" in names, name


@pytest.mark.parametrize("path", PAIRS_FILES, ids=[p.name for p in PAIRS_FILES])
def test_a_pairs_file_measured_the_source_of_its_bench_files(path):
    # PAIRS_<label>.json against BENCH_<label>-before.json and -after.json.
    data = json.loads(path.read_text(encoding="utf-8"))
    label = path.name.removeprefix("PAIRS_").removesuffix(".json")
    for side, half in (("parent", "before"), ("change", "after")):
        bench = json.loads((ROOT / f"BENCH_{label}-{half}.json").read_text(encoding="utf-8"))
        assert bench["src_digest"] == data[side]["src_digest"], side
