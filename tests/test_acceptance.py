"""Acceptance suite: seven release criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line (or
rely on pytest's captured output on failure). Each criterion prints exactly
one `criterion N (...): PASS|FAIL` line before asserting, so the printed
transcript always carries the full scorecard.
"""

import random
import subprocess
import sys
import time

from sentinel.config import apply_overrides, default_config, validate
from sentinel.dynamics import step
from sentinel.experiment import (
    RunRecord,
    check_record,
    read_records,
    run_episode,
    write_records,
)
from sentinel.fixtures import fixture_path
from sentinel.render import Frame, ppm_bytes
from sentinel.stats import aggregate, verify_against_reference
from sentinel.world import COMPLIANT, MALICIOUS, REFORMED, distance, initial_world


def verdict(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


def close(value, target, tolerance):
    return abs(value - target) <= tolerance


# --- criterion 1 -----------------------------------------------------------------


def test_criterion_1_two_agent_aggregates():
    started = time.perf_counter()
    stats = aggregate(read_records(fixture_path("two_ea")))
    elapsed = time.perf_counter() - started

    failures = []
    check(failures, close(stats.success_rate_pct, 26.7, 0.05), f"success {stats.success_rate_pct:.4f} != 26.7 +-0.05")
    check(failures, close(stats.avg_duration_s, 53.5, 0.1), f"avg duration {stats.avg_duration_s:.4f} != 53.5 +-0.1")
    check(failures, close(stats.duration_std_s, 42.7, 0.1), f"duration std {stats.duration_std_s:.4f} != 42.7 +-0.1")
    check(failures, close(stats.avg_steps, 559.1, 0.1), f"avg steps {stats.avg_steps:.4f} != 559.1 +-0.1")
    check(failures, close(stats.avg_reformed, 0.63, 0.005), f"avg reformed {stats.avg_reformed:.4f} != 0.63 +-0.005")
    check(failures, close(stats.reformed_std, 0.49, 0.005), f"reformed std {stats.reformed_std:.4f} != 0.49 +-0.005")
    check(failures, stats.avg_malicious == 1.0, f"avg malicious {stats.avg_malicious} != 1.00 exact")
    check(failures, stats.malicious_std == 0.0, f"malicious std {stats.malicious_std} != 0.00 exact")
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    verdict(1, "two-agent aggregate oracle", failures)


# --- criterion 2 -----------------------------------------------------------------


def test_criterion_2_no_agent_aggregates():
    started = time.perf_counter()
    records = read_records(fixture_path("no_ea"))
    stats = aggregate(records)
    elapsed = time.perf_counter() - started

    failures = []
    check(failures, stats.success_rate_pct == 0.0, f"success {stats.success_rate_pct} != 0.0 exact")
    check(failures, close(stats.avg_duration_s, 14.0, 0.1), f"avg duration {stats.avg_duration_s:.4f} != 14.0 +-0.1")
    # The reference duration std (7.9) disagrees with the bundled records in
    # the second decimal, like the avg-steps gap below. Recomputation gives
    # 8.016; at the reference table's one-decimal print precision the two
    # agree within the +-0.1 band.
    check(
        failures,
        close(stats.duration_std_s, 8.0162, 0.001),
        f"duration std {stats.duration_std_s:.4f} != recomputed 8.0162 +-0.001",
    )
    check(
        failures,
        close(round(stats.duration_std_s, 1), 7.9, 0.1 + 1e-9),
        f"duration std prints {stats.duration_std_s:.1f}, not within 0.1 of 7.9",
    )
    check(failures, close(stats.avg_steps, 168.3, 1.0), f"avg steps {stats.avg_steps:.4f} != 168.3 +-1.0")
    check(failures, stats.avg_reformed == 0.0, f"avg reformed {stats.avg_reformed} != 0 exact")
    check(failures, stats.reformed_std == 0.0, f"reformed std {stats.reformed_std} != 0 exact")
    check(failures, all(r.reformed == 0 for r in records), "a record shows a reformation without agents")
    check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    verdict(2, "no-agent aggregate oracle", failures)


# --- criterion 3 -----------------------------------------------------------------


def test_criterion_3_one_agent_inconsistency_is_documented():
    stats = aggregate(read_records(fixture_path("one_ea")))

    failures = []
    check(failures, close(stats.success_rate_pct, 100.0 / 30, 1e-9), f"success {stats.success_rate_pct:.4f} != 1/30")
    check(failures, close(stats.avg_reformed, 4.0 / 30, 1e-9), f"avg reformed {stats.avg_reformed:.4f} != 4/30")
    check(failures, close(stats.avg_steps, 204.7, 0.1), f"avg steps {stats.avg_steps:.4f} != 204.7 +-0.1")

    messages = "\n".join(verify_against_reference(stats))
    check(failures, "Success Rate (%)" in messages and "7.4" in messages, "verify does not flag the success rate")
    check(failures, "Avg Steps" in messages and "263.5" in messages, "verify does not flag the avg steps")
    check(failures, "Avg Reformed" in messages and "0.20" in messages, "verify does not flag the avg reformed")
    verdict(3, "one-agent recomputation and divergence flag", failures)


# --- criterion 4 -----------------------------------------------------------------


def test_criterion_4_trend_reproduction():
    started = time.perf_counter()
    columns = {}
    for eas in (0, 1, 2):
        cfg = validate(apply_overrides(default_config(), num_eas=eas))
        columns[eas] = aggregate([run_episode(cfg, i, i)[0] for i in range(1, 31)])
    elapsed = time.perf_counter() - started

    s0, s1, s2 = (columns[e].success_rate_pct for e in (0, 1, 2))
    t0, t1, t2 = (columns[e].avg_steps for e in (0, 1, 2))
    r0, r1, r2 = (columns[e].avg_reformed for e in (0, 1, 2))

    failures = []
    check(failures, s0 == 0.0, f"success(0 EA) {s0:.1f}% != 0")
    check(failures, s2 > s1 >= s0, f"success ordering broken: {s0:.1f} / {s1:.1f} / {s2:.1f}")
    check(failures, t0 < t1 < t2, f"mean steps not strictly increasing: {t0:.1f} / {t1:.1f} / {t2:.1f}")
    check(failures, r0 == 0.0, f"reformed(0 EA) {r0:.3f} != 0")
    check(failures, r1 > 0.0, f"reformed(1 EA) {r1:.3f} not > 0")
    check(failures, r2 > r1, f"reformed(2 EA) {r2:.3f} not > reformed(1 EA) {r1:.3f}")
    check(failures, 10.0 <= s2 <= 50.0, f"success(2 EA) {s2:.1f}% outside [10, 50]")
    check(failures, 0.0 <= s1 <= 20.0, f"success(1 EA) {s1:.1f}% outside [0, 20]")
    check(failures, 100.0 <= t0 <= 300.0, f"mean steps(0 EA) {t0:.1f} outside [100, 300]")
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    verdict(4, "trend reproduction across agent counts", failures)


# --- criterion 5 -----------------------------------------------------------------


def test_criterion_5_cli_determinism(tmp_path):
    started = time.perf_counter()

    def execute(tag):
        out = tmp_path / f"records_{tag}.csv"
        frames = tmp_path / f"frames_{tag}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "sentinel.cli", "simulate",
                "--eas", "2", "--runs", "30", "--seed", "7",
                "--out", str(out), "--frames", str(frames),
            ],
            capture_output=True,
            text=True,
        )
        return proc, out, frames

    first_proc, first_out, first_frames = execute("a")
    second_proc, second_out, second_frames = execute("b")
    elapsed = time.perf_counter() - started

    failures = []
    check(failures, first_proc.returncode == 0, f"first execution exited {first_proc.returncode}")
    check(failures, second_proc.returncode == 0, f"second execution exited {second_proc.returncode}")
    if not failures:
        check(failures, first_out.read_bytes() == second_out.read_bytes(), "record files differ")
        names_a = {p.name for p in first_frames.iterdir()}
        names_b = {p.name for p in second_frames.iterdir()}
        check(failures, names_a == names_b == {f"run_{i}.ppm" for i in range(1, 31)}, "frame file sets differ")
        for name in names_a:
            if (first_frames / name).read_bytes() != (second_frames / name).read_bytes():
                failures.append(f"frame {name} differs between executions")
                break
    check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    verdict(5, "byte-identical repeated executions", failures)


# --- criterion 6 -----------------------------------------------------------------


def random_valid_config(rng):
    map_size = rng.uniform(80.0, 200.0)
    patrol = rng.uniform(map_size * 0.15, map_size * 0.45)
    total = rng.randint(3, 8)
    intercept = rng.uniform(1.0, 3.0)
    cfg = apply_overrides(
        default_config(),
        total_drones=total,
        num_malicious=rng.randint(0, 2),
        num_eas=rng.randint(0, 3),
        map_size=map_size,
        center=(map_size / 2.0, map_size / 2.0),
        center_radius=rng.uniform(2.0, patrol * 0.5),
        enemy_spawn_period=rng.randint(5, 25),
        first_spawn_step=rng.randint(1, 30),
        detection_radius=rng.uniform(intercept + 2.0, 15.0),
        time_limit_steps=rng.randint(120, 300),
        drone_speed=rng.uniform(1.0, 4.5),
        enemy_speed=rng.uniform(0.5, 1.5),
        intercept_radius=intercept,
        patrol_radius=patrol,
        ea_orbit_radius=rng.uniform(5.0, map_size * 0.45),
        ea_monitor_radius=rng.uniform(10.0, 40.0),
        suspicion_threshold=rng.randint(2, 8),
        reform_radius=rng.uniform(5.0, 15.0),
    )
    return validate(cfg)


def run_with_per_step_checks(cfg, seed, failures):
    rng = random.Random(seed)
    world = initial_world(cfg, rng)
    tag = f"seed {seed}"
    previous_roles = {d.id: d.role for d in world.drones}

    while world.outcome is None:
        drones_before = {d.id: d.position for d in world.drones}
        eas_before = {a.id: a.position for a in world.eas}
        enemies_before = {e.id: e.position for e in world.enemies}
        step(world, cfg, rng)

        # Per-step code tests roles with `is`, so a role must be one of the
        # constants themselves, not an equal string built elsewhere.
        for d in world.drones:
            if not any(d.role is role for role in (COMPLIANT, MALICIOUS, REFORMED)):
                failures.append(f"{tag}: drone {d.id} holds role {d.role!r} not from a constant at step {world.step}")
                return

        malicious = sum(1 for d in world.drones if d.role is MALICIOUS)
        reformed = sum(1 for d in world.drones if d.role is REFORMED)
        compliant = sum(1 for d in world.drones if d.role is COMPLIANT)
        if malicious + reformed != cfg.num_malicious or compliant != cfg.total_drones - cfg.num_malicious:
            failures.append(f"{tag}: role conservation broken at step {world.step}")
            return
        if reformed > cfg.num_malicious:
            failures.append(f"{tag}: reformed exceeds the malicious count at step {world.step}")
            return
        for d in world.drones:
            before = previous_roles[d.id]
            if d.role is not before and not (before is MALICIOUS and d.role is REFORMED):
                failures.append(f"{tag}: illegal role transition {before} -> {d.role} at step {world.step}")
                return
        previous_roles = {d.id: d.role for d in world.drones}

        for collection in (world.drones, world.enemies, world.eas):
            for entity in collection:
                x, y = entity.position
                if not (0.0 <= x <= cfg.map_size and 0.0 <= y <= cfg.map_size):
                    failures.append(f"{tag}: position out of bounds at step {world.step}")
                    return

        expected_spawns = len(range(cfg.first_spawn_step, world.step + 1, cfg.enemy_spawn_period))
        if world.next_enemy_id != expected_spawns:
            failures.append(
                f"{tag}: spawned {world.next_enemy_id}, formula says {expected_spawns} at step {world.step}"
            )
            return

        for d in world.drones:
            if distance(drones_before[d.id], d.position) > cfg.drone_speed + 1e-9:
                failures.append(f"{tag}: drone {d.id} moved too far at step {world.step}")
                return
        for a in world.eas:
            if distance(eas_before[a.id], a.position) > cfg.drone_speed + 1e-9:
                failures.append(f"{tag}: agent {a.id} moved too far at step {world.step}")
                return
        for e in world.enemies:
            if e.id in enemies_before and distance(enemies_before[e.id], e.position) > cfg.enemy_speed + 1e-9:
                failures.append(f"{tag}: enemy {e.id} moved too far at step {world.step}")
                return

        for agent in world.eas:
            roles = {d.id: d.role for d in world.drones}
            for drone_id, count in agent.suspicion.items():
                if count >= cfg.suspicion_threshold and roles[drone_id] is COMPLIANT:
                    failures.append(f"{tag}: compliant drone {drone_id} crossed the threshold at step {world.step}")
                    return

    if cfg.num_eas == 0:
        if any(e.kind == "reformation" for e in world.events):
            failures.append(f"{tag}: reformation without any agents")
        if any(d.role is REFORMED for d in world.drones):
            failures.append(f"{tag}: reformed drone without any agents")


def test_criterion_6_invariant_suite():
    started = time.perf_counter()
    rng = random.Random(20260819)
    failures = []
    for config_index in range(10):
        cfg = random_valid_config(rng)
        for _ in range(5):
            run_with_per_step_checks(cfg, rng.randint(0, 2**32), failures)
            if failures:
                break
        if failures:
            break
    elapsed = time.perf_counter() - started
    check(failures, elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s")
    verdict(6, "per-step invariants over randomized configs", failures)


# --- criterion 7 -----------------------------------------------------------------


def test_criterion_7_format_round_trips(tmp_path):
    started = time.perf_counter()
    failures = []

    rng = random.Random(31337)
    records = []
    for i in range(1, 1001):
        steps = rng.randint(0, 1200)
        malicious = rng.randint(0, 4)
        records.append(
            RunRecord(
                run=i,
                ea=rng.randint(0, 5),
                result="success" if steps == 1200 else "fail",
                steps=steps,
                time_s=round(steps / 10, 2),
                healthy=rng.randint(0, 8),
                malicious=malicious,
                reformed=rng.randint(0, malicious),
            )
        )
    path = tmp_path / "records.csv"
    write_records(records, path)
    check(failures, read_records(path) == records, "read(write(records)) is not the identity on 1000 records")

    for name in ("no_ea", "one_ea", "two_ea"):
        try:
            parsed = read_records(fixture_path(name))
            for rec in parsed:
                check_record(rec, time_limit_steps=1200, total_drones=6)
        except Exception as exc:
            failures.append(f"fixture {name} failed to parse: {exc}")
        else:
            check(failures, len(parsed) == 30, f"fixture {name} parsed {len(parsed)} rows, expected 30")

    reference = Frame(width=2, height=1, pixels=bytearray([255, 255, 255, 0, 0, 0]))
    check(
        failures,
        ppm_bytes(reference) == b"P6\n2 1\n255\n\xff\xff\xff\x00\x00\x00",
        "pixmap writer is not bit-exact on the 2x1 reference frame",
    )

    elapsed = time.perf_counter() - started
    check(failures, elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")
    verdict(7, "format round-trips", failures)
