"""The benchmark's tracer wraps sentinel module attributes by name
(perfbench/tracing.py). These tests fail when a wrapped name is renamed,
deleted or no longer called on the traced path. The last ones check that
tools/bench.py fails on a wrong run."""

import importlib
import importlib.util
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


def test_traced_episode_counts_every_layer_and_restores_the_modules(tracing):
    cfg = apply_overrides(default_config(), num_eas=2, time_limit_steps=60)
    before = {name: dict(vars(module)) for name, module in vars(MODULES).items()}

    with tracing.Tracer() as tracer:
        tracing.install_counts(tracer, MODULES)
        tracing.install_spans(tracer, MODULES, "deep")
        record, _ = experiment.run_episode(cfg, 1, 7)

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
    assert tracer.counts["dynamics.step"] == 60
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
