"""The benchmark's tracer wraps sentinel module attributes by name
(perfbench/tracing.py). These tests fail when a wrapped name is renamed,
deleted or no longer called on the traced path. The last ones check that
tools/bench.py fails on a wrong run, flags a spread wider than its bound and
names the source it measured, and that tools/pairs.py alternates its pairs,
applies the gain rule, fails on a wrong run, writes its report and plays a
git revision from an unpacked copy."""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from sentinel import cli, config, dynamics, enforcement, experiment, world
from sentinel.config import apply_overrides, default_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = SimpleNamespace(
    cli=cli, config=config, dynamics=dynamics, enforcement=enforcement, experiment=experiment, world=world
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_episode_counts_every_layer_and_restores_the_modules(tracing, monkeypatch):
    # A one-run serial batch: run_batch validates the config, run_episode plays it.
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    cfg = apply_overrides(default_config(), num_eas=2, time_limit_steps=60)
    before = {name: dict(vars(module)) for name, module in vars(MODULES).items()}

    with tracing.Tracer() as tracer:
        tracing.install_counts(tracer, MODULES)
        tracing.install_spans(tracer, MODULES, "deep")
        # Blind stretches advance the world without step(); k is the 4th argument.
        tracer.count(experiment, "play_blind", "stretches", steps=lambda args, _: args[3])
        [record] = experiment.run_batch(cfg, 1, 7)

    assert record.steps == 60
    for name in (
        "world.distance",
        "dynamics.nearest_enemy",
        "config.validate",
        "experiment.run_episode",
        "dynamics.step",
        "enforcement.observe",
        "enforcement.observe.observations",
    ):
        assert tracer.counts[name] > 0, name
    assert tracer.counts["dynamics.step"] + tracer.counts["stretches.steps"] == 60
    assert tracer.counts["stretches"] >= 1
    for name in (
        "experiment.run_episode",
        "dynamics.step",
        "dynamics.spawn_enemies",
        "dynamics.compliant_policy",
        "dynamics.malicious_policy",
        "dynamics.enemy_policy",
        "dynamics.resolve_interceptions",
        "dynamics.breach_occurred",
        "enforcement.run_enforcement_phase",
        "enforcement.observe",
        "enforcement.update_suspicion",
        "enforcement.ea_policy",
        "enforcement.attempt_reformation",
    ):
        assert len(tracer.durations[name]) > 0, name

    for name, module in vars(MODULES).items():
        assert vars(module).keys() == before[name].keys(), name
        changed = [attr for attr, value in vars(module).items() if value is not before[name][attr]]
        assert changed == [], name


@pytest.fixture
def bench(monkeypatch, tmp_path):
    # tools/bench.py with run_once faked: a run is wrong where wrong[(workload, seed)] says so.
    path = PERFBENCH.parent / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.wrong = {}

    def run_once(checkout, workload, seed, seconds):
        correct, failed = module.wrong.get((workload, seed), (True, 0))
        metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "sim_steps_per_s", "step_us_p50", "peak_rss_mb")}
        return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    return module


def test_bench_exits_0_when_every_run_is_correct(bench, tmp_path, capsys):
    assert bench.main(["ok", "--checkout", str(PERFBENCH.parent)]) == 0
    assert "wrong run" not in capsys.readouterr().err
    assert (tmp_path / "BENCH_ok.json").exists()


def test_bench_writes_the_file_then_exits_1_naming_each_wrong_run(bench, tmp_path, capsys):
    bench.wrong = {("cli-frames", 3): (False, 0), ("episodes-0ea", 4070): (True, 2)}
    assert bench.main(["bad", "--checkout", str(PERFBENCH.parent)]) == 1
    wrong = [line for line in capsys.readouterr().err.splitlines() if "wrong run" in line]
    assert wrong == [
        "bench: wrong run, episodes-0ea seed 4070: correct=True, failed=2",
        "bench: wrong run, cli-frames seed 3: correct=False, failed=0",
    ]
    assert (tmp_path / "BENCH_bad.json").exists()


def test_bench_flags_each_spread_wider_than_its_bound_and_keeps_the_exit_status(bench, monkeypatch, capsys):
    # wall_s on cli-frames spreads 0.2 .. 0.3 s around a median of 0.25 s,
    # 40 % against a bound of 25 %; every other metric stays within bounds.
    def run_once(checkout, workload, seed, seconds):
        wall = {2: 0.2, 3: 0.25, 4: 0.25, 4070: 0.3}[seed] if workload == "cli-frames" else 0.25
        metrics = {m: {"value": 1.0} for m in ("setup_s", "sim_steps_per_s", "step_us_p50", "peak_rss_mb")}
        metrics["wall_s"] = {"value": wall}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["spread", "--checkout", str(PERFBENCH.parent)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "cli-frames wall_s: spread 40.0% (bound 25%), WIDER than its bound: retake this file" in out
    assert "episodes-2ea wall_s: spread 0.0% (bound 25%)" in out
    assert [line for line in out if "WIDER" in line] == [
        "cli-frames wall_s: spread 40.0% (bound 25%), WIDER than its bound: retake this file"
    ]
    assert len([line for line in out if ": spread " in line]) == 4 * 5


def test_bench_records_an_unknown_commit_for_a_tree_without_git(bench, tmp_path, monkeypatch):
    # A copy of the tree made without .git: only BENCHMARK.json is read.
    checkout = tmp_path / "copy"
    checkout.mkdir()
    (checkout / "BENCHMARK.json").write_bytes((PERFBENCH.parent / "BENCHMARK.json").read_bytes())
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-git"))
    assert bench.main(["copy", "--checkout", str(checkout)]) == 0
    assert json.loads((tmp_path / "BENCH_copy.json").read_text())["commit"] == "unknown"


def test_bench_records_a_digest_of_the_measured_source(bench, tmp_path):
    # The digest covers src/sentinel/**/*.py by path and content, committed
    # or not, and nothing else.
    checkout = tmp_path / "copy"
    (checkout / "src" / "sentinel" / "sub" / "__pycache__").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_bytes((PERFBENCH.parent / "BENCHMARK.json").read_bytes())
    (checkout / "src" / "sentinel" / "a.py").write_text("A = 1\n")
    (checkout / "src" / "sentinel" / "sub" / "b.py").write_text("B = 2\n")

    def digest():
        assert bench.main(["copy", "--checkout", str(checkout)]) == 0
        return json.loads((tmp_path / "BENCH_copy.json").read_text())["src_digest"]

    first = digest()
    assert len(first) == 64 and first == bench.src_digest(checkout)
    (checkout / "src" / "sentinel" / "sub" / "__pycache__" / "b.cpython-311.pyc").write_bytes(b"x")
    (checkout / "src" / "sentinel" / "notes.txt").write_text("not source\n")
    assert digest() == first
    (checkout / "src" / "sentinel" / "sub" / "b.py").write_text("B = 3\n")
    assert digest() != first
    (checkout / "src" / "sentinel" / "sub" / "b.py").write_text("B = 2\n")
    (checkout / "src" / "sentinel" / "sub" / "b.py").rename(checkout / "src" / "sentinel" / "b.py")
    assert digest() != first


@pytest.fixture
def pairs(monkeypatch):
    # tools/pairs.py with run_once faked: runs[(side, seed)] gives step_us_p50
    # and calls lists the (side, seed) runs in order; wrong as for bench.
    tools = PERFBENCH.parent / "tools"
    monkeypatch.syspath_prepend(str(tools))
    spec = importlib.util.spec_from_file_location("pairs", tools / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.runs, module.calls, module.wrong = {}, [], {}

    def run_once(checkout, workload, seed, seconds):
        side = checkout.name
        module.calls.append((side, seed))
        correct, failed = module.wrong.get((side, seed), (True, 0))
        metrics = {"step_us_p50": {"value": module.runs[(side, seed)]}}
        return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(module, "run_once", run_once)
    return module


def pair_dirs(tmp_path):
    # Two checkouts named after their side; the parent's BENCHMARK.json is read.
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text((PERFBENCH.parent / "BENCHMARK.json").read_text())
    return [str(parent), str(change), "--workload", "episodes-2ea", "--metric", "step_us_p50"]


def test_pairs_alternate_sides_over_the_fixed_seeds_and_report_a_gain(pairs, tmp_path, capsys):
    for i, seed in enumerate(pairs.SEEDS):
        pairs.runs[("parent", seed)] = 15.0 + 0.1 * (i % 3)
        pairs.runs[("change", seed)] = 14.0 if i else 15.5
    assert pairs.main(pair_dirs(tmp_path)) == 0
    assert pairs.SEEDS == (5, 6, 7, 8, 9, 10, 11, 12, 13, 4070)
    assert [seed for _, seed in pairs.calls[::2]] == list(pairs.SEEDS)
    assert [side for side, _ in pairs.calls[::2]] == ["parent", "change"] * 5
    out = capsys.readouterr().out
    assert "pairs won: change 9, parent 1, ties 0" in out
    assert "gain rule holds: change won 9 of 10 (needs 9)" in out


def test_pairs_deny_a_gain_inside_the_parents_spread_or_with_too_few_wins(pairs, tmp_path, capsys):
    # The change wins every pair but by less than the parent's IQR, then
    # beats the median by far but wins only 8 of 10.
    for i, seed in enumerate(pairs.SEEDS):
        pairs.runs[("parent", seed)] = 15.0 + i
        pairs.runs[("change", seed)] = 14.9 + i
    args = pair_dirs(tmp_path)
    assert pairs.main(args) == 0
    assert "gain rule does not hold: change won 10 of 10" in capsys.readouterr().out
    for i, seed in enumerate(pairs.SEEDS):
        pairs.runs[("parent", seed)] = 15.0
        pairs.runs[("change", seed)] = 16.0 if i < 2 else 10.0
    assert pairs.main(args) == 0
    assert "gain rule does not hold: change won 8 of 10 (needs 9)" in capsys.readouterr().out


def test_pairs_exit_1_naming_each_wrong_run(pairs, tmp_path, capsys):
    for seed in pairs.SEEDS:
        pairs.runs[("parent", seed)] = pairs.runs[("change", seed)] = 15.0
    pairs.wrong = {("change", 7): (False, 0), ("parent", 4070): (True, 3)}
    assert pairs.main(pair_dirs(tmp_path)) == 1
    captured = capsys.readouterr()
    assert "pairs won: change 0, parent 0, ties 10" in captured.out
    wrong = [line for line in captured.err.splitlines() if "wrong run" in line]
    assert wrong == [
        "pairs: wrong run, change seed 7: correct=False, failed=0",
        "pairs: wrong run, parent seed 4070: correct=True, failed=3",
    ]


def test_pairs_take_no_pair_count_or_run_length(pairs, tmp_path, capsys):
    # Ten pairs at the benchmark's own run length are the only comparison the
    # gain rule allows, so neither can be set.
    args = pair_dirs(tmp_path)
    for option in (["--pairs", "2"], ["--seconds", "1"]):
        with pytest.raises(SystemExit) as exc:
            pairs.main(args + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert pairs.calls == []


def test_pairs_write_their_report_with_out(pairs, tmp_path, capsys):
    for i, seed in enumerate(pairs.SEEDS):
        pairs.runs[("parent", seed)] = 15.0 + 0.1 * (i % 3)
        pairs.runs[("change", seed)] = 14.0 if i else 15.5
    args = pair_dirs(tmp_path)
    (tmp_path / "change" / "src" / "sentinel").mkdir(parents=True)
    (tmp_path / "change" / "src" / "sentinel" / "a.py").write_text("A = 1\n")
    out = tmp_path / "PAIRS_test.json"
    assert pairs.main(args + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [pair["seed"] for pair in report["pairs"]] == list(pairs.SEEDS)
    assert report["pairs"][0] == {"seed": 5, "first": "parent", "parent": 15.0, "change": 15.5, "winner": "parent"}
    assert report["pairs"][1]["first"] == "change"
    assert report["parent"]["median"] == 15.1
    assert report["change"]["median"] == 14.0
    assert report["parent"]["quartiles"] == pytest.approx([15.0, 15.175])
    assert report["wins"] == {"parent": 1, "change": 9, "ties": 0}
    assert report["verdict"] == "holds"
    assert (report["workload"], report["metric"], report["better"]) == ("episodes-2ea", "step_us_p50", "lower")
    for side in ("parent", "change"):
        assert report[side]["src_digest"] == pairs.src_digest(tmp_path / side)
    assert report["parent"]["src_digest"] != report["change"]["src_digest"]
    assert str(out) in capsys.readouterr().out


def test_pairs_play_a_git_revision_from_one_unpacked_copy_and_remove_it(pairs, tmp_path, monkeypatch, capsys):
    # A repository of one commit whose working tree has moved on since: the
    # parent side, given as HEAD, plays the committed source from one
    # temporary copy, which is gone afterwards, and the report names the
    # revision beside its commit and digest.
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    (repo / "src" / "sentinel").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((PERFBENCH.parent / "BENCHMARK.json").read_text())
    (repo / "src" / "sentinel" / "a.py").write_text("A = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + args, cwd=repo, check=True)
    (repo / "src" / "sentinel" / "a.py").write_text("A = 2\n")
    monkeypatch.setattr(sys.modules["bench"], "REPO", repo)
    copies = []

    def run_once(checkout, workload, seed, seconds):
        if checkout != repo:
            copies.append(checkout)
            assert (checkout / "src" / "sentinel" / "a.py").read_text() == "A = 1\n"
        metrics = {"step_us_p50": {"value": 15.0 if checkout == repo else 16.0}}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    out = tmp_path / "PAIRS_rev.json"
    args = ["HEAD", str(repo), "--workload", "episodes-2ea", "--metric", "step_us_p50", "--out", str(out)]
    assert pairs.main(args) == 0
    assert len(copies) == 10 and len(set(copies)) == 1 and not copies[0].exists()
    report = json.loads(out.read_text())
    head = subprocess.run(["git", "describe", "--always", "HEAD"], cwd=repo, capture_output=True, text=True)
    assert report["parent"]["revision"] == "HEAD" and report["parent"]["commit"] == head.stdout.strip()
    assert report["parent"]["src_digest"] == sys.modules["bench"].digest([("src/sentinel/a.py", b"A = 1\n")])
    assert report["change"]["revision"] is None
    assert report["change"]["src_digest"] == pairs.src_digest(repo)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["no-such-revision"] + args[1:])
    assert "no-such-revision is neither a directory nor a git revision" in str(exc.value.code)
