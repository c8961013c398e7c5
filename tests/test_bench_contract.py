"""The benchmark's tracer wraps sentinel module attributes by name
(perfbench/tracing.py). These tests fail when a wrapped name is renamed,
deleted or no longer called on the traced path."""

import importlib
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
