"""The checked-in benchmark files: every BENCH_*.json (tools/bench.py) and
PAIRS_*.json (tools/pairs.py) at the top of the repository parses and
reports finite medians, every BENCH file has its other half, a PAIRS
file measured the same source as the BENCH files of its label, and every
recorded src_digest is the digest of the source in git history that the
file says it measured. No timing is taken here."""

import functools
import importlib.util
import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
PAIRS_FILES = sorted(ROOT.glob("PAIRS_*.json"))

_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


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


# Each recorded digest, as (file, side): side None for a BENCH file, parent
# or change for a PAIRS file. Files written before tools/bench.py recorded
# src_digest have none.
DIGESTS = [(path, None) for path in BENCH_FILES if "src_digest" in json.loads(path.read_text(encoding="utf-8"))] + [
    (path, side) for path in PAIRS_FILES for side in ("parent", "change")
]


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


@functools.cache
def _digest_at(rev: str) -> str:
    # tools/bench.py's digest of src/sentinel/**/*.py at rev, read from git's
    # objects with no checkout.
    names = _git("ls-tree", "-r", "--name-only", rev, "--", "src/sentinel").decode().splitlines()
    return bench.digest((name, _git("show", f"{rev}:{name}")) for name in names if name.endswith(".py"))


@pytest.mark.parametrize("path, side", DIGESTS, ids=[f"{p.name}{':' + s if s else ''}" for p, s in DIGESTS])
def test_a_recorded_digest_is_the_source_of_the_commit_it_measured(path, side):
    # A -before file and a PAIRS file's parent side measured the commit that
    # their commit field names, as git describe wrote it. An -after file and
    # a PAIRS file's change side measured the source of the last commit that
    # touched the file, or of the working tree while the file is uncommitted.
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if not (ROOT / ".git").exists():
        pytest.skip(f"no .git in {ROOT.name}: the history is not at hand")
    data = json.loads(path.read_text(encoding="utf-8"))
    entry = data[side] if side else data
    rel = path.relative_to(ROOT).as_posix()
    if side == "parent" or path.name.endswith("-before.json"):
        commit = re.fullmatch(r"(?:.*-g)?([0-9a-f]{4,40})", entry["commit"])
        assert commit, entry["commit"]
        expected = _digest_at(commit[1])
    elif _git("status", "--porcelain", "--", rel):
        expected = bench.src_digest(ROOT)
    else:
        expected = _digest_at(_git("log", "-1", "--format=%H", "--", rel).decode().strip())
    assert entry["src_digest"] == expected
