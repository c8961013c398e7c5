"""Batch protocol: seed mixing, episode records, files, and parallel parity."""

import copy
import dataclasses
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import cli, dynamics, experiment
from sentinel.config import ConfigError, apply_overrides, default_config, validate
from sentinel.experiment import (
    CSV_HEADER,
    RecordError,
    RunRecord,
    check_record,
    format_record,
    mix_seed,
    parse_record_line,
    read_records,
    run_batch,
    run_episode,
    write_records,
    _worker_count,
)
from sentinel.fixtures import FIXTURE_NAMES, fixture_path
from sentinel.world import REFORMED, WorldState

from test_shortcuts import OPENING, OPENINGS, forced_off, unforced


# --- seed mixing ---------------------------------------------------------------


def test_mix_seed_matches_the_splitmix64_test_vector():
    # First output of a splitmix64 stream seeded with zero.
    assert mix_seed(0, 1) == 0xE220A8397B1DCDAF


def test_mix_seed_is_deterministic_and_64_bit():
    rng = random.Random(1)
    for _ in range(200):
        base = rng.randrange(0, 1 << 64)
        run = rng.randint(1, 10_000)
        value = mix_seed(base, run)
        assert value == mix_seed(base, run)
        assert 0 <= value < 1 << 64


def test_mix_seed_separates_neighboring_runs_and_bases():
    seen = {mix_seed(7, i) for i in range(1, 1001)}
    assert len(seen) == 1000
    assert mix_seed(7, 1) != mix_seed(8, 1)


# --- single episodes ------------------------------------------------------------


def test_unsupervised_episodes_fail_without_reformations():
    cfg = default_config()
    for seed in (1, 2, 3):
        record, world = run_episode(cfg, seed, seed)
        assert record.result == "fail"
        assert record.reformed == 0
        assert record.ea == 0
        assert record.healthy == 5
        assert record.malicious == 1
        assert world.outcome is not None


def test_successful_episode_reports_the_full_time_budget():
    cfg = apply_overrides(default_config(), num_malicious=0)
    record, world = run_episode(cfg, 1, 1)
    assert record.result == "success"
    assert record.steps == 1200
    assert record.time_s == 120.00
    assert world.step == 1200


def test_run_episode_is_deterministic():
    cfg = apply_overrides(default_config(), num_eas=1)
    a, world_a = run_episode(cfg, 4, 1234)
    b, world_b = run_episode(cfg, 4, 1234)
    assert a == b
    assert world_a == world_b


def test_reformed_count_comes_from_the_final_world():
    cfg = apply_overrides(default_config(), num_eas=2)
    for seed in range(1, 12):
        record, world = run_episode(cfg, seed, seed)
        assert record.reformed == sum(1 for d in world.drones if d.role is REFORMED)
        assert record.reformed <= record.malicious


# --- the opening ------------------------------------------------------------------


def test_episodes_started_from_the_opening_play_as_episodes_stepped_from_step_0():
    # Forced off by an experiment.opening that is an unstepped initial_world,
    # every episode steps from step 0. At the defaults the opening runs
    # through the blind window, 19 steps past the last one before the first
    # spawn.
    base = unforced()
    ends = [(end, step, played[1]) for (_, _, end), step, played in zip(base.table, base.openings, base.played)]
    assert [step for end, step, _ in ends if end is not None] == [end for _, end in OPENINGS]
    for end, _, (record, world) in ends:
        if end == 10:
            assert (record.result, record.steps, world.events) == ("success", 10, [])
        if end == 25:  # the episode ends inside the window, holding the enemy of step 15
            assert (record.result, record.steps, [e.spawned_at for e in world.enemies]) == ("success", 25, [15])
    forced_off(OPENING)


def test_drones_are_clamped_during_the_off_centre_opening():
    # The differential test covers the clamp only if the opening makes it.
    table, clamped = unforced().table, unforced().clamped
    off_centre = [c for (cfg, _, end), c in zip(table, clamped) if end == 14 and cfg.center == (20.0, 60.0)]
    assert len(off_centre) == 6 and all(off_centre)


def test_an_episode_shares_no_mutable_object_with_the_opening():
    cfg = apply_overrides(default_config(), num_eas=2)
    first = run_episode(cfg, 1, mix_seed(4, 1))
    start = experiment.opening(cfg)
    kept = copy.deepcopy(start)
    second = run_episode(cfg, 2, mix_seed(4, 2))
    again = run_episode(cfg, 1, mix_seed(4, 1))
    assert again == first
    assert experiment.opening(cfg) is start and start == kept
    for _, world in (first, second, again):
        for name in ("drones", "enemies", "eas", "events"):
            assert getattr(world, name) is not getattr(start, name), name
        for d, o in zip(world.drones, start.drones, strict=True):
            assert d is not o
        for ea, o in zip(world.eas, start.eas, strict=True):
            assert ea is not o and ea.suspicion is not o.suspicion


@settings(max_examples=150, deadline=None)
@given(
    limit=st.integers(1, 40),
    first_past_limit=st.integers(-41, 5),
    period=st.integers(1, 60),
    eas=st.integers(0, 2),
)
def test_the_opening_ends_with_the_blind_window_or_at_the_time_limit(limit, first_past_limit, period, eas):
    # At the default geometry the window is 19 moves at 0, 1 and 2 agents:
    # (60 - 40 - margins) / (1 + 1/64), for spawns 60 units from the centre
    # and a sight bound of 40.
    first = max(0, limit + first_past_limit)
    cfg = validate(
        apply_overrides(
            default_config(), time_limit_steps=limit, first_spawn_step=first, enemy_spawn_period=period, num_eas=eas
        )
    )
    # The first spawn as step() would play it, stepping from 1 on.
    probe, rng = WorldState(step=0, drones=[], enemies=[], eas=[]), random.Random(0)
    while not probe.enemies:
        probe.step += 1
        dynamics.spawn_enemies(probe, cfg, rng)
    first_spawn = probe.step
    assert first_spawn == (first or period)
    assert cfg.blind_window == 19
    start = experiment.opening(cfg)
    assert start.enemies == [] and start.events == [] and start.next_enemy_id == 0
    assert start.step == min(first_spawn - 1 + 19, limit)
    assert start.outcome == ("success" if first_spawn - 1 + 19 >= limit else None)


# --- batches ---------------------------------------------------------------------


def test_run_batch_orders_records_by_run_index():
    cfg = default_config()
    records = run_batch(cfg, 4, 99)
    assert [r.run for r in records] == [1, 2, 3, 4]
    assert all(r.ea == 0 for r in records)


def test_run_batch_matches_individual_episodes():
    cfg = default_config()
    records = run_batch(cfg, 4, 7)
    for i, rec in enumerate(records, start=1):
        assert rec == run_episode(cfg, i, mix_seed(7, i))[0]


def test_run_batch_single_run():
    records = run_batch(default_config(), 1, 5)
    assert len(records) == 1
    assert records[0].run == 1


def test_run_batch_rejects_empty_batches():
    with pytest.raises(ValueError):
        run_batch(default_config(), 0, 5)


def test_a_config_is_validated_once_per_batch_not_per_episode(monkeypatch, tmp_path, capsys):
    # run_batch and the CLI validate a config where it comes in; run_episode
    # plays the config it is given.
    calls = []

    def counting(real):
        def validate(cfg):
            calls.append(cfg)
            return real(cfg)

        return validate

    for module in (experiment, cli):
        monkeypatch.setattr(module, "validate", counting(module.validate))
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)

    run_batch(apply_overrides(default_config(), time_limit_steps=20), 5, 3)
    assert len(calls) == 1

    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("time_limit_steps = 20\n")
    batch = ["--eas", "1", "--seed", "3", "--config", str(cfg_file)]
    for runs in ("1", "5"):
        calls.clear()
        assert cli.main(["simulate", *batch, "--runs", runs, "--out", str(tmp_path / "r.csv")]) == 0
        assert len(calls) == 2, runs  # once in the CLI, once in run_batch
    calls.clear()
    assert cli.main(["render", *batch, "--run", "5", "--out", str(tmp_path / "w.ppm")]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_parallel_batches_match_serial_output(monkeypatch):
    cfg = default_config()
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = run_batch(cfg, 4, 11)
    monkeypatch.setenv("SENTINEL_THREADS", "2")
    parallel = run_batch(cfg, 4, 11)
    assert parallel == serial


@pytest.mark.parametrize("runs, threads", [(37, "2"), (37, "3"), (4, "4")], ids=["2of37", "3of37", "4of4"])
def test_striped_batches_match_serial_output(monkeypatch, runs, threads):
    # Worker k plays runs k+1, k+1+workers, ...; the caller plays stripe 0.
    # 37 runs leave stripes of unequal length; 4 of 4 is one run a stripe.
    # Both limits end inside the opening's blind window, after the first
    # spawn at step 15.
    for limit in (20, 25):
        cfg = apply_overrides(default_config(), time_limit_steps=limit)
        monkeypatch.delenv("SENTINEL_THREADS", raising=False)
        serial = run_batch(cfg, runs, 5)
        monkeypatch.setenv("SENTINEL_THREADS", threads)
        parallel = run_batch(cfg, runs, 5)
        assert [r.run for r in parallel] == list(range(1, runs + 1))
        assert parallel == serial
        assert_no_child_left()


HAS_AFFINITY = hasattr(os, "sched_getaffinity")
needs_affinity = pytest.mark.skipif(not HAS_AFFINITY, reason="no CPU affinity mask on this platform")


@pytest.fixture(autouse=True)
def callers_mask_is_kept():
    # A striped batch pins its caller while it plays stripe 0; every test
    # here, error and interrupt included, must leave the mask it found.
    mask = os.sched_getaffinity(0) if HAS_AFFINITY else None
    yield
    assert (os.sched_getaffinity(0) if HAS_AFFINITY else None) == mask


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_on(bad_runs, error=ValueError):
    """An episode that raises on the runs in bad_runs."""

    def episode(cfg, run_index, seed):
        if run_index in bad_runs:
            raise error(f"run {run_index} broke")
        return experiment._episode_record(cfg, run_index, seed)

    return episode


def batch_error(episode, threads):
    with pytest.MonkeyPatch.context() as mp:
        if threads is None:
            mp.delenv("SENTINEL_THREADS", raising=False)
        else:
            mp.setenv("SENTINEL_THREADS", threads)
        with pytest.raises(Exception) as err:
            run_batch(apply_overrides(default_config(), time_limit_steps=20), 7, 5, episode)
    return type(err.value), str(err.value)


@pytest.mark.parametrize(
    "bad_runs",
    [{4}, {5}, {4, 5}, {5, 6}, {2, 7}],
    ids=["child", "caller", "child-first", "caller-first", "child-then-caller"],
)
def test_a_striped_batch_raises_the_error_of_the_lowest_failing_run(bad_runs):
    # On 2 workers the caller plays runs 1, 3, 5, 7 and a child 2, 4, 6.
    episode = failing_on(bad_runs)
    serial = batch_error(episode, None)
    assert serial == (ValueError, f"run {min(bad_runs)} broke")
    assert batch_error(episode, "2") == serial
    assert batch_error(episode, "3") == serial
    assert_no_child_left()


def test_a_child_error_that_does_not_pickle_comes_back_as_a_runtime_error():
    # A ConfigError does not survive a pickle round trip: its constructor
    # takes the violations, not the message.
    def broken(message):
        return ConfigError([("Broken", message)])

    episode = failing_on({2}, broken)
    assert batch_error(episode, None) == (ConfigError, "Broken: run 2 broke")
    assert batch_error(episode, "2") == (RuntimeError, "ConfigError: Broken: run 2 broke")
    assert_no_child_left()


def test_a_child_that_exits_without_reporting_is_a_child_process_error(monkeypatch):
    # On 2 workers a child plays runs 2, 4 and 6; it dies on run 4.
    parent = os.getpid()

    def episode(cfg, run_index, seed):
        if run_index == 4 and os.getpid() != parent:
            os._exit(3)
        return experiment._episode_record(cfg, run_index, seed)

    monkeypatch.setenv("SENTINEL_THREADS", "2")
    cfg = apply_overrides(default_config(), time_limit_steps=20)
    with pytest.raises(ChildProcessError, match=r"stripe 1 \(runs 2, 4, \.\.\.\) exited with status 3"):
        run_batch(cfg, 6, 5, episode)
    assert_no_child_left()


def test_an_interrupt_in_the_callers_stripe_kills_and_reaps_every_child(monkeypatch):
    # On 3 workers the caller plays runs 1, 4, 7, ... Each child would take
    # 10 s over its 20 slow runs; the caller kills them instead of waiting.
    parent = os.getpid()

    def episode(cfg, run_index, seed):
        if os.getpid() != parent:
            time.sleep(0.5)
        elif run_index == 4:
            raise KeyboardInterrupt
        return experiment._episode_record(cfg, run_index, seed)

    monkeypatch.setenv("SENTINEL_THREADS", "3")
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_batch(apply_overrides(default_config(), time_limit_steps=20), 60, 5, episode)
    assert time.perf_counter() - start < 5
    assert_no_child_left()


def test_without_fork_a_pooled_batch_plays_serially(monkeypatch):
    cfg = apply_overrides(default_config(), time_limit_steps=20)
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = run_batch(cfg, 5, 3)
    monkeypatch.setenv("SENTINEL_THREADS", "2")
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    pids = []

    def episode(cfg, run_index, seed):
        pids.append(os.getpid())
        return experiment._episode_record(cfg, run_index, seed)

    assert run_batch(cfg, 5, 3, episode) == serial
    assert pids == [parent] * 5


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    assert _worker_count(30) == 1
    monkeypatch.setenv("SENTINEL_THREADS", "4")
    assert _worker_count(30) == 4
    assert _worker_count(2) == 2  # never more workers than runs
    monkeypatch.setenv("SENTINEL_THREADS", "0")
    assert _worker_count(30) >= 1
    monkeypatch.setenv("SENTINEL_THREADS", "junk")
    with pytest.raises(ValueError, match="SENTINEL_THREADS"):
        _worker_count(30)
    monkeypatch.setenv("SENTINEL_THREADS", "-3")
    with pytest.raises(ValueError, match="SENTINEL_THREADS"):
        _worker_count(30)


def test_zero_threads_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # Under taskset -c 0 on a 2-CPU machine, 0 means 1 worker, not 2.
    monkeypatch.setenv("SENTINEL_THREADS", "0")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for mask in ({0}, {3}, {0, 2, 5}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: set(mask), raising=False)
        assert _worker_count(30) == len(mask)
    assert _worker_count(2) == 2
    # Without an affinity mask (macOS), the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(30) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(30) == 1


def mask_of_each_run(cfg, run_index, seed):
    """An episode that also returns the CPUs its process may run on."""
    return experiment._episode_record(cfg, run_index, seed), sorted(os.sched_getaffinity(0))


@needs_affinity
@pytest.mark.parametrize("threads", [2, 3, 4])
def test_each_stripe_is_pinned_to_one_of_the_callers_cpus(monkeypatch, threads):
    # With a stripe for every CPU of the caller's mask, stripe k runs on
    # cpus[k % len(cpus)], whatever the number of CPUs; with fewer stripes
    # than CPUs, nothing is pinned. callers_mask_is_kept checks that the
    # caller gets its mask back.
    cfg = apply_overrides(default_config(), time_limit_steps=20)
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = run_batch(cfg, 9, 5)
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setenv("SENTINEL_THREADS", str(threads))
    runs = run_batch(cfg, 9, 5, mask_of_each_run)
    assert [record for record, _ in runs] == serial
    for run, (_, pinned) in enumerate(runs, start=1):
        assert pinned == (cpus if threads < len(cpus) else [cpus[(run - 1) % threads % len(cpus)]]), run
    assert_no_child_left()


def must_not_pin(pid, cpus):
    raise AssertionError("a stripe was pinned")


@needs_affinity
def test_a_batch_with_fewer_stripes_than_cpus_is_left_to_the_scheduler(monkeypatch):
    # Batches run side by side on a larger machine would otherwise all pin
    # to its first CPUs. A child that tried to pin here would exit without
    # reporting, which raises ChildProcessError.
    cfg = apply_overrides(default_config(), time_limit_steps=20)
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = run_batch(cfg, 7, 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "sched_setaffinity", must_not_pin)
    monkeypatch.setenv("SENTINEL_THREADS", "3")
    assert run_batch(cfg, 7, 5) == serial
    assert_no_child_left()


@needs_affinity
def test_a_serial_batch_is_not_pinned(monkeypatch):
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    mask = sorted(os.sched_getaffinity(0))
    runs = run_batch(apply_overrides(default_config(), time_limit_steps=20), 3, 5, mask_of_each_run)
    assert [pinned for _, pinned in runs] == [mask] * 3


def refused(pid, cpus):
    raise OSError(22, "Invalid argument")


@needs_affinity
@pytest.mark.parametrize("setaffinity", [refused, None], ids=["refused", "missing"])
def test_a_batch_that_cannot_pin_plays_unpinned(monkeypatch, setaffinity):
    # Pinning is a hint: a refused mask, or a platform without
    # sched_setaffinity, plays the same records unpinned.
    cfg = apply_overrides(default_config(), time_limit_steps=20)
    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = run_batch(cfg, 7, 5)
    mask = sorted(os.sched_getaffinity(0))
    if setaffinity is None:
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    monkeypatch.setenv("SENTINEL_THREADS", "3")
    runs = run_batch(cfg, 7, 5, mask_of_each_run)
    assert [record for record, _ in runs] == serial
    assert [pinned for _, pinned in runs] == [mask] * 7
    assert_no_child_left()


# --- record format ----------------------------------------------------------------


def test_format_record_pins_the_appendix_row_encoding():
    rec = RunRecord(run=23, ea=1, result="success", steps=1200, time_s=109.36, healthy=5, malicious=1, reformed=1)
    assert format_record(rec) == "23,1,success,1200,109.36,5,1,1"
    assert parse_record_line("23,1,success,1200,109.36,5,1,1", 2) == rec


def test_time_column_always_shows_two_decimals():
    rec = RunRecord(run=1, ea=0, result="fail", steps=100, time_s=10.0, healthy=5, malicious=1, reformed=0)
    assert format_record(rec).split(",")[4] == "10.00"


def test_round_trip_identity_on_generated_records(tmp_path):
    cfg = apply_overrides(default_config(), num_eas=1)
    records = run_batch(cfg, 5, 21)
    path = tmp_path / "records.csv"
    write_records(records, path)
    assert read_records(path) == records
    text = path.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert "\r" not in text


def test_write_refuses_an_empty_table(tmp_path):
    with pytest.raises(RecordError, match="^refusing to write an empty record table$"):
        write_records([], tmp_path / "records.csv")


def test_read_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("run,ea,steps\n1,0,116\n")
    with pytest.raises(RecordError, match=f"^expected header {CSV_HEADER!r}, found 'run,ea,steps'$"):
        read_records(path)


def test_read_reports_parse_errors_with_line_numbers(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV_HEADER + "\n1,0,fail,116,11.60,5,1,0\n2,0,fail,banana,1.00,5,1,0\n")
    with pytest.raises(RecordError, match="^line 3: invalid literal for int"):
        read_records(path)


def test_read_reports_wrong_field_counts(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV_HEADER + "\n1,0,fail,116\n")
    with pytest.raises(RecordError, match="^line 2: expected 8 fields, got 4$"):
        read_records(path)


def test_read_flags_invariant_violations_with_line_numbers(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV_HEADER + "\n1,0,fail,116,11.60,5,1,2\n")
    with pytest.raises(RecordError, match="^line 2: run 1: reformed 2 > malicious 1$"):
        read_records(path)


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(CSV_HEADER + "\n1,0,fail,116,11.60,5,1,0\n\n2,0,fail,71,7.10,5,1,0\n")
    assert [r.run for r in read_records(path)] == [1, 2]


def test_check_record_validates_result_against_the_step_budget():
    rec = RunRecord(run=1, ea=0, result="success", steps=900, time_s=90.0, healthy=5, malicious=1, reformed=0)
    with pytest.raises(RecordError, match="^run 1: result 'success' inconsistent with steps 900 of 1200$"):
        check_record(rec, time_limit_steps=1200)
    check_record(rec)  # structural checks alone cannot see the budget
    # A breach or the failsafe may end a run on its last allowed step.
    check_record(dataclasses.replace(rec, result="fail", steps=1200, time_s=120.0), time_limit_steps=1200)
    for result in ("fail", "success"):
        with pytest.raises(RecordError, match=f"^run 1: result '{result}' inconsistent with steps 1201 of 1200$"):
            check_record(dataclasses.replace(rec, result=result, steps=1201, time_s=120.1), time_limit_steps=1200)


def test_check_record_validates_simulated_time():
    rec = RunRecord(run=1, ea=0, result="fail", steps=116, time_s=10.19, healthy=5, malicious=1, reformed=0)
    with pytest.raises(RecordError, match=r"^run 1: time_s 10\.19 != steps/fps 11\.6$"):
        check_record(rec, fps=10)
    check_record(rec)  # structural checks alone cannot see the frame rate


def test_check_record_rejects_unknown_results():
    rec = RunRecord(run=1, ea=0, result="draw", steps=116, time_s=11.6, healthy=5, malicious=1, reformed=0)
    with pytest.raises(RecordError, match="^run 1: result 'draw'$"):
        check_record(rec)


# --- fixtures ----------------------------------------------------------------------


def test_fixture_files_parse_cleanly_without_the_time_check():
    assert FIXTURE_NAMES == ("no_ea", "one_ea", "two_ea")
    for name, expected_ea in zip(FIXTURE_NAMES, (0, 1, 2)):
        records = read_records(fixture_path(name))
        for rec in records:
            check_record(rec, time_limit_steps=1200, total_drones=6)
        assert len(records) == 30
        assert [r.run for r in records] == list(range(1, 31))
        assert all(r.ea == expected_ea for r in records)
        assert all(r.malicious == 1 and r.healthy == 5 for r in records)


def test_fixture_paths_reject_unknown_names():
    with pytest.raises(KeyError):
        fixture_path("three_ea")


def test_randomized_records_survive_the_round_trip(tmp_path):
    rng = random.Random(77)
    records = []
    for i in range(1, 101):
        steps = rng.randint(0, 1200)
        result = "success" if steps == 1200 else "fail"
        malicious = rng.randint(0, 3)
        records.append(
            RunRecord(
                run=i,
                ea=rng.randint(0, 4),
                result=result,
                steps=steps,
                time_s=round(steps / 10, 2),
                healthy=rng.randint(0, 6),
                malicious=malicious,
                reformed=rng.randint(0, malicious),
            )
        )
    path = tmp_path / "records.csv"
    write_records(records, path)
    assert read_records(path) == records
