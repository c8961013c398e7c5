"""Enforcement agents: observation, suspicion, pursuit, reformation, failsafe."""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel import dynamics, enforcement
from sentinel.config import SPEED_FLOOR_ULPS, apply_overrides, default_config, validate
from sentinel.dynamics import compliant_policy, step
from sentinel.enforcement import (
    PURSUIT_ANGLE_TOLERANCE_DEG,
    attempt_reformation,
    ea_policy,
    failsafe_due,
    observe,
    run_enforcement_phase,
    update_suspicion,
)
from sentinel.experiment import mix_seed, run_episode
from sentinel.world import (
    COMPLIANT,
    MALICIOUS,
    REFORMED,
    Drone,
    Enemy,
    EnforcementAgentState,
    WorldState,
    clamp_to_map,
    distance,
    initial_world,
    nearest_enemy,
    threat_seen,
)
from test_acceptance import random_valid_config


def make_world(drones=(), enemies=(), eas=(), step_index=1):
    return WorldState(
        step=step_index,
        drones=list(drones),
        enemies=list(enemies),
        eas=list(eas),
        next_enemy_id=max((e.id for e in enemies), default=-1) + 1,
    )


def drone_at(drone_id, x, y, role=COMPLIANT):
    return Drone(id=drone_id, position=(x, y), role=role)


def move_after_scan(world, cfg, moves=None):
    """Do to every drone what step() does before enforcement: scan for its
    threat under cfg from where it stands, as every policy does, remember
    that position, then move it by moves[drone id] (default: stay put).
    Returns the world."""
    moves = moves or {}
    for d in world.drones:
        d.threat = nearest_enemy(d.position, world.enemies, cfg.detection_radius)
        d.prev_position = d.position
        (x, y), (dx, dy) = d.position, moves.get(d.id, (0.0, 0.0))
        d.position = (x + dx, y + dy)
    return world


def ea_at(ea_id, x, y, **kwargs):
    return EnforcementAgentState(id=ea_id, position=(x, y), **kwargs)


# --- observation ---------------------------------------------------------------


def test_drones_outside_monitor_radius_are_unobserved():
    cfg = apply_overrides(default_config(), ea_monitor_radius=20.0)
    ea = ea_at(0, 60.0, 60.0)
    world = move_after_scan(make_world(drones=[drone_at(0, 85.0, 60.0)], eas=[ea]), cfg)
    assert observe(ea, world, cfg) == {}


def test_observation_without_nearby_enemy_is_clean():
    # A clean drone the agent holds no count for gets no verdict at all.
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0)
    world = make_world(
        drones=[drone_at(0, 70.0, 60.0)],
        enemies=[Enemy(0, (0.0, 0.0), 0)],
        eas=[ea],
    )
    move_after_scan(world, cfg)
    assert observe(ea, world, cfg) == {}


def test_a_drone_in_range_without_threat_or_count_is_not_even_measured(monkeypatch):
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0)
    world = move_after_scan(make_world(drones=[drone_at(0, 65.0, 60.0)], eas=[ea]), cfg)
    assert world.drones[0].threat is None
    assert distance(ea.position, world.drones[0].position) <= cfg.ea_monitor_radius
    measured = []
    monkeypatch.setattr(enforcement, "distance", lambda a, b: measured.append(b) or distance(a, b))
    assert observe(ea, world, cfg) == {}
    assert measured == []


def test_a_suspected_drone_without_threat_is_judged_clean_and_forgotten():
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0, suspicion={0: 3, 1: 2})
    world = move_after_scan(make_world(drones=[drone_at(0, 65.0, 60.0)], eas=[ea]), cfg)
    verdicts = observe(ea, world, cfg)
    assert verdicts == {0: False}
    update_suspicion(ea, verdicts, world, cfg)
    assert ea.suspicion == {1: 2}


def test_patrolling_near_a_threat_is_a_violation_signature():
    # A drone that sweeps its patrol with an enemy six units off: a violation
    # up to a detection radius of exactly that distance.
    def observed(cfg):
        d = drone_at(3, 60.0, 60.0, role=MALICIOUS)
        world = make_world(
            drones=[d],
            enemies=[Enemy(0, (66.0, 60.0), 0)],
            eas=[ea_at(0, 62.0, 62.0)],
        )
        move_after_scan(world, cfg, {3: (0.0, cfg.drone_speed)})
        return observe(world.eas[0], world, cfg)

    cfg = default_config()
    assert observed(cfg) == {3: True}
    assert observed(apply_overrides(cfg, detection_radius=6.0)) == {3: True}
    assert observed(apply_overrides(cfg, detection_radius=5.99)) == {}


def test_moving_onto_the_enemy_counts_as_pursuit():
    # From the same vantage, 8 units off the enemy, standing still violates
    # and moving onto the enemy is clean.
    cfg = default_config()
    enemies = [Enemy(0, (68.0, 60.0), 0)]
    still = make_world(drones=[drone_at(1, 60.0, 60.0)], enemies=enemies, eas=[ea_at(0, 60.0, 60.0)])
    move_after_scan(still, cfg)
    assert observe(still.eas[0], still, cfg) == {1: True}
    world = make_world(drones=[drone_at(1, 60.0, 60.0)], enemies=enemies, eas=[ea_at(0, 60.0, 60.0)])
    move_after_scan(world, cfg, {1: (3.6, 0.0)})
    assert observe(world.eas[0], world, cfg) == {1: False}


def test_pursuit_cone_boundary_is_inclusive_at_the_tolerance():
    cfg = default_config()
    enemy = Enemy(0, (68.0, 60.0), 0)
    for degrees, expected in ((PURSUIT_ANGLE_TOLERANCE_DEG, True), (PURSUIT_ANGLE_TOLERANCE_DEG + 1.0, False)):
        rad = math.radians(degrees)
        move = (2.0 * math.cos(rad), 2.0 * math.sin(rad))
        world = make_world(drones=[drone_at(0, 60.0, 60.0)], enemies=[enemy], eas=[ea_at(0, 60.0, 60.0)])
        move_after_scan(world, cfg, {0: move})
        assert observe(world.eas[0], world, cfg) == {0: not expected}


def test_standing_still_is_never_pursuit():
    cfg = default_config()
    d = drone_at(0, 60.0, 60.0)
    world = make_world(drones=[d], enemies=[Enemy(0, (65.0, 60.0), 0)], eas=[ea_at(0, 60.0, 60.0)])
    move_after_scan(world, cfg, {0: (0.0, 0.0)})
    assert observe(world.eas[0], world, cfg) == {0: True}


def test_observation_judges_from_the_premove_vantage():
    # The drone moved three units away from the threat this step. Its new
    # position is out of detection range, but the move decision was made in
    # range (10 units, the detection radius), so it is still a violation.
    cfg = default_config()
    d = drone_at(0, 60.0, 60.0)
    world = make_world(drones=[d], enemies=[Enemy(0, (50.0, 60.0), 0)], eas=[ea_at(0, 60.0, 60.0)])
    move_after_scan(world, cfg, {0: (3.0, 0.0)})
    assert d.position == (63.0, 60.0)
    assert observe(world.eas[0], world, cfg) == {0: True}


def test_drones_beyond_detection_radius_are_clean_randomized():
    cfg = default_config()
    rng = random.Random(81)
    ea = ea_at(0, 60.0, 60.0)
    beyond = 0
    for _ in range(200):
        move = (rng.uniform(-3.6, 3.6), rng.uniform(-3.6, 3.6))
        enemy = Enemy(0, (rng.uniform(0, 120), rng.uniform(0, 120)), 0)
        world = make_world(drones=[drone_at(0, 60.0, 60.0)], enemies=[enemy], eas=[ea])
        move_after_scan(world, cfg, {0: move})
        if distance((60.0, 60.0), enemy.position) > cfg.detection_radius:
            assert observe(ea, world, cfg) == {}
            beyond += 1
    assert beyond > 0


def test_each_drone_scans_once_per_step_and_observers_reuse_the_scan(monkeypatch):
    cfg = apply_overrides(default_config(), num_eas=2, time_limit_steps=60)
    calls = {"dynamics": 0, "enforcement": 0}

    def count_calls(module, name):
        original = module.nearest_enemy

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, "nearest_enemy", wrapper)

    count_calls(dynamics, "dynamics")
    count_calls(enforcement, "enforcement")

    rng = random.Random(7)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        step(world, cfg, rng)
    assert world.step == 60
    assert calls == {"dynamics": 60 * cfg.total_drones, "enforcement": 0}


def test_fresh_spawns_inside_monitor_radius_log_entry_points():
    cfg = default_config()
    ea = ea_at(0, 115.0, 60.0)
    world = make_world(
        enemies=[Enemy(0, (115.0, 65.0), 15), Enemy(1, (115.0, 55.0), 10)],
        eas=[ea],
        step_index=15,
    )
    observe(ea, world, cfg)
    entry = [e for e in world.events if e.kind == "entry_point"]
    assert len(entry) == 1
    assert entry[0].data == {"ea": 0, "enemy": 0}


def test_a_quiet_step_still_logs_a_fresh_spawn_in_monitor_range():
    # No drone saw a threat and the agent suspects no drone, but an enemy
    # spawned this step, listed before an older one: the agent still observes.
    cfg = default_config()
    ea = ea_at(0, 115.0, 60.0)
    world = make_world(
        drones=[drone_at(0, 60.0, 90.0)],
        enemies=[Enemy(1, (115.0, 65.0), 15), Enemy(0, (0.0, 10.0), 10)],
        eas=[ea],
        step_index=15,
    )
    move_after_scan(world, cfg)
    assert not threat_seen(world)
    assert run_enforcement_phase(world, cfg, threat_seen(world)) is False
    assert [(e.kind, e.data) for e in world.events] == [("entry_point", {"ea": 0, "enemy": 1})]


def test_a_suspected_drone_without_threat_loses_its_count_on_a_quiet_step():
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0, suspicion={0: 3})
    world = move_after_scan(make_world(drones=[drone_at(0, 65.0, 60.0)], eas=[ea], step_index=7), cfg)
    assert not threat_seen(world)
    assert run_enforcement_phase(world, cfg, threat_seen(world)) is False
    assert ea.suspicion == {}


# --- suspicion ----------------------------------------------------------------


def violating_world(ea, drone, cfg):
    # enemy parked right next to the drone, drone idle
    x, y = drone.position
    enemy = Enemy(0, (x + 4.0, y), 0)
    return move_after_scan(make_world(drones=[drone], enemies=[enemy], eas=[ea]), cfg)


def test_threshold_crossing_flips_the_agent_into_pursuit():
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0)
    d = drone_at(2, 65.0, 60.0, role=MALICIOUS)
    world = violating_world(ea, d, cfg)
    for i in range(cfg.suspicion_threshold):
        world.step = i + 1
        update_suspicion(ea, observe(ea, world, cfg), world, cfg)
    assert ea.suspicion[2] == cfg.suspicion_threshold
    assert ea.pursue_target is not None
    assert ea.pursue_target == 2
    assert ea.pursue_since == cfg.suspicion_threshold
    raised = [e for e in world.events if e.kind == "suspicion_raised"]
    assert len(raised) == 1
    assert raised[0].data["drone"] == 2


def test_one_clean_observation_resets_the_count():
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0)
    d = drone_at(2, 65.0, 60.0)
    world = violating_world(ea, d, cfg)
    for i in range(cfg.suspicion_threshold - 1):
        world.step = i + 1
        update_suspicion(ea, observe(ea, world, cfg), world, cfg)
    assert ea.suspicion[2] == cfg.suspicion_threshold - 1
    # now the drone lunges straight at the threat
    move_after_scan(world, cfg, {2: (2.0, 0.0)})
    world.step += 1
    update_suspicion(ea, observe(ea, world, cfg), world, cfg)
    assert 2 not in ea.suspicion
    assert ea.pursue_target is None


def feinting_steps(cfg, pattern):
    """Play the watched steps of a malicious drone 5 from an agent, beside a
    threat 4 farther on, one per entry of pattern: "violate" stands still,
    "feint" steps straight at the threat, inside the pursuit cone, and
    "quiet" stands still with the threat out of its sight. Yields the agent
    after each step."""
    ea = ea_at(0, 60.0, 60.0)
    world = make_world(drones=[drone_at(2, 65.0, 60.0, role=MALICIOUS)], eas=[ea], step_index=0)
    for kind in pattern:
        world.drones[0].position = (65.0, 60.0)
        world.enemies = [Enemy(0, (69.0 if kind != "quiet" else 80.0, 60.0), 0)]
        move_after_scan(world, cfg, {2: (1.0, 0.0) if kind == "feint" else (0.0, 0.0)})
        assert (world.drones[0].threat is not None) == (kind != "quiet")
        world.step += 1
        update_suspicion(ea, observe(ea, world, cfg), world, cfg)
        yield ea, world


@pytest.mark.parametrize("threshold", [1, 2, 5])
def test_a_drone_that_feints_pursuit_once_in_every_p_watched_steps_is_accused_only_for_p_above_the_threshold(
    threshold,
):
    # The blind spot of the rule that one clean verdict deletes the count: a
    # malicious drone that violates p - 1 times and then moves inside the
    # cone, over and over, never reaches the threshold for p <= threshold.
    # For p > threshold it is accused at its threshold-th violation.
    cfg = apply_overrides(default_config(), suspicion_threshold=threshold)
    for p in range(1, threshold + 4):
        pattern = (["violate"] * (p - 1) + ["feint"]) * (4 * threshold)
        for i, (ea, world) in enumerate(feinting_steps(cfg, pattern), start=1):
            raised = [(e.step, e.data["count"]) for e in world.events if e.kind == "suspicion_raised"]
            if p > threshold and i >= threshold:
                assert raised == [(threshold, threshold)], (p, i)
                assert ea.pursue_target == 2
                continue
            assert (raised, ea.pursue_target) == ([], None), (p, i)
            assert ea.suspicion == ({2: i % p} if i % p else {}), (p, i)


def test_a_watched_step_in_which_the_suspect_saw_no_threat_deletes_its_count():
    # A drone that violates threshold - 1 times, then stands still with no
    # threat in sight while the agent watches, starts from none: the quiet
    # step resets the count as a feint does, and the drone is never accused.
    cfg = default_config()
    t = cfg.suspicion_threshold
    pattern = (["violate"] * (t - 1) + ["quiet"]) * 5
    counts = [dict(ea.suspicion) for ea, _ in feinting_steps(cfg, pattern)]
    assert counts == ([{2: i} for i in range(1, t)] + [{}]) * 5
    *_, (ea, world) = feinting_steps(cfg, pattern)
    assert ea.pursue_target is None and world.events == []


def test_unobserved_drones_keep_their_suspicion():
    cfg = apply_overrides(default_config(), ea_monitor_radius=20.0)
    ea = ea_at(0, 60.0, 60.0, suspicion={5: 3})
    far_drone = drone_at(5, 110.0, 60.0)
    world = move_after_scan(make_world(drones=[far_drone], eas=[ea]), cfg)
    update_suspicion(ea, observe(ea, world, cfg), world, cfg)
    assert ea.suspicion[5] == 3


def test_simultaneous_threshold_crossings_pick_the_lowest_id():
    cfg = apply_overrides(default_config(), suspicion_threshold=1)
    ea = ea_at(0, 60.0, 60.0)
    a = drone_at(4, 64.0, 60.0)
    b = drone_at(1, 56.0, 60.0)
    world = make_world(
        drones=[a, b],
        enemies=[Enemy(0, (60.0, 63.0), 0)],
        eas=[ea],
    )
    move_after_scan(world, cfg)
    update_suspicion(ea, observe(ea, world, cfg), world, cfg)
    assert ea.pursue_target is not None
    assert ea.pursue_target == 1


def test_compliant_behavior_never_accumulates_suspicion():
    # Two agents watching an all-compliant fleet for 200 steps: no count is
    # ever held, pursuit never engages.
    cfg = apply_overrides(default_config(), num_malicious=0, num_eas=2, time_limit_steps=200)
    rng = random.Random(12)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        step(world, cfg, rng)
        for agent in world.eas:
            assert agent.pursue_target is None
            assert agent.suspicion == {}
    assert world.outcome == "success"


# --- movement ---------------------------------------------------------------


def test_patrol_orbit_keeps_its_radius():
    cfg = default_config()
    center = cx, cy = cfg.center
    ea = ea_at(0, cx + cfg.ea_orbit_radius, cy)
    world = make_world(eas=[ea])
    for _ in range(100):
        ea.position = ea_policy(ea, world, cfg)
        assert abs(distance(ea.position, center) - cfg.ea_orbit_radius) < 1e-6


def test_displaced_agent_returns_to_its_orbit():
    cfg = default_config()
    center = cfg.center
    ea = ea_at(0, 100.0, 100.0)
    world = make_world(eas=[ea])
    for _ in range(40):
        ea.position = ea_policy(ea, world, cfg)
    assert abs(distance(ea.position, center) - cfg.ea_orbit_radius) < 1e-6


def test_a_moved_agent_measures_its_angle_instead_of_reusing_the_carry():
    cfg = default_config()
    cx, cy = cfg.center
    ea = ea_at(0, cx + cfg.ea_orbit_radius, cy)
    world = make_world(eas=[ea])
    ea.position = ea_policy(ea, world, cfg)
    assert ea.arc is not None and ea.arc[0] == ea.position
    on_orbit = (cx + cfg.ea_orbit_radius * math.cos(2.0), cy + cfg.ea_orbit_radius * math.sin(2.0))
    for moved in (on_orbit, (100.0, 100.0)):
        ea.position = moved
        fresh = ea_at(0, *moved)
        assert ea_policy(ea, world, cfg) == ea_policy(fresh, make_world(eas=[fresh]), cfg)
        assert ea.arc == fresh.arc


def test_pursuit_runs_straight_at_the_suspect():
    cfg = default_config()
    ea = ea_at(0, 60.0, 20.0, pursue_target=3)
    suspect = drone_at(3, 60.0, 90.0, role=MALICIOUS)
    world = make_world(drones=[suspect], eas=[ea])
    x, y = ea_policy(ea, world, cfg)
    assert x == pytest.approx(60.0, abs=1e-12)
    assert y == pytest.approx(20.0 + cfg.drone_speed, abs=1e-12)


def test_pursuit_parks_once_within_reform_range():
    cfg = default_config()
    ea = ea_at(0, 60.0, 60.0, pursue_target=3)
    suspect = drone_at(3, 60.0, 69.0, role=MALICIOUS)
    world = make_world(drones=[suspect], eas=[ea])
    assert ea_policy(ea, world, cfg) == (60.0, 60.0)


# --- reformation ----------------------------------------------------------------


def pursuit_scene(gap, role=MALICIOUS):
    cfg = default_config()
    suspect = drone_at(2, 60.0 + gap, 60.0, role=role)
    ea = ea_at(0, 60.0, 60.0, pursue_target=2, pursue_since=1, suspicion={2: 5})
    world = make_world(drones=[suspect], eas=[ea], step_index=9)
    return cfg, world, ea, suspect


def test_reformation_inside_reform_radius():
    cfg, world, ea, suspect = pursuit_scene(9.0)
    attempt_reformation(ea, world, cfg)
    assert suspect.role is REFORMED
    assert ea.pursue_target is None
    assert 2 not in ea.suspicion
    events = [e for e in world.events if e.kind == "reformation"]
    assert len(events) == 1
    assert events[0].data == {"ea": 0, "drone": 2}


def test_no_reformation_out_of_reach():
    cfg, world, ea, suspect = pursuit_scene(11.0)
    attempt_reformation(ea, world, cfg)
    assert suspect.role is MALICIOUS
    assert ea.pursue_target == 2
    assert world.events == []


def test_racing_agents_yield_exactly_one_reformation():
    cfg = default_config()
    suspect = drone_at(2, 60.0, 60.0, role=MALICIOUS)
    first = ea_at(0, 55.0, 60.0, pursue_target=2, pursue_since=1, suspicion={2: 5})
    second = ea_at(1, 65.0, 60.0, pursue_target=2, pursue_since=1, suspicion={2: 6})
    world = make_world(drones=[suspect], eas=[first, second], step_index=9)
    attempt_reformation(first, world, cfg)
    attempt_reformation(second, world, cfg)
    assert suspect.role is REFORMED
    assert sum(1 for e in world.events if e.kind == "reformation") == 1
    for agent in (first, second):
        assert agent.pursue_target is None
        assert 2 not in agent.suspicion


def test_catching_a_compliant_suspect_stands_down_without_event():
    cfg, world, ea, suspect = pursuit_scene(9.0, role=COMPLIANT)
    attempt_reformation(ea, world, cfg)
    assert suspect.role is COMPLIANT
    assert ea.pursue_target is None
    assert 2 not in ea.suspicion
    assert world.events == []


def test_a_compliant_suspect_stands_down_only_the_agent_that_caught_it():
    # Only a reformation clears every agent: a second agent chasing the same
    # drone keeps its pursuit, its start and its count.
    cfg, world, ea, suspect = pursuit_scene(9.0, role=COMPLIANT)
    other = ea_at(1, 80.0, 60.0, pursue_target=2, pursue_since=4, suspicion={2: 7})
    world.eas.append(other)
    attempt_reformation(ea, world, cfg)
    assert (ea.pursue_target, ea.pursue_since, ea.suspicion) == (None, None, {})
    assert (other.pursue_target, other.pursue_since, other.suspicion) == (2, 4, {2: 7})
    assert world.events == []


def test_reformed_drone_runs_the_compliant_policy_afterwards():
    # Replay an episode that contains a reformation and recompute the
    # reformed drone's positions independently from each pre-step snapshot.
    cfg = apply_overrides(default_config(), num_eas=2)
    reforming_seed = None
    for s in range(1, 31):
        rng = random.Random(s)
        world = initial_world(cfg, rng)
        while world.outcome is None:
            step(world, cfg, rng)
        if any(e.kind == "reformation" for e in world.events):
            reforming_seed = s
            break
    assert reforming_seed is not None

    rng = random.Random(reforming_seed)
    world = initial_world(cfg, rng)
    checked = 0
    while world.outcome is None:
        before = copy.deepcopy(world)
        step(world, cfg, rng)
        for probe, actual in zip(before.drones, world.drones):
            if probe.role is REFORMED:
                assert actual.position == clamp_to_map(compliant_policy(probe, before, cfg), cfg)
                checked += 1
    assert checked > 0


# --- failsafe ------------------------------------------------------------------


def test_fresh_agent_has_no_suspicion_and_no_failsafe():
    cfg = apply_overrides(default_config(), num_eas=1, failsafe_enabled=True)
    world = initial_world(cfg, random.Random(3))
    ea = world.eas[0]
    assert ea.suspicion == {}
    assert failsafe_due(ea, world, cfg) is False
    assert not any(d.role is REFORMED for d in world.drones)


def test_failsafe_stays_silent_when_disabled():
    cfg = default_config()
    ea = ea_at(0, 0.0, 0.0, pursue_target=1, pursue_since=0)
    drone = drone_at(1, 90.0, 60.0, role=MALICIOUS)
    world = make_world(drones=[drone], eas=[ea], step_index=1000)
    assert failsafe_due(ea, world, cfg) is False


def test_failsafe_window_is_four_thresholds_exclusive():
    cfg = apply_overrides(default_config(), failsafe_enabled=True)
    window = 4 * cfg.suspicion_threshold
    ea = ea_at(0, 0.0, 0.0, pursue_target=1, pursue_since=10)
    drone = drone_at(1, 90.0, 60.0, role=MALICIOUS)
    world = make_world(drones=[drone], eas=[ea], step_index=10 + window)
    assert failsafe_due(ea, world, cfg) is False
    world.step += 1
    assert failsafe_due(ea, world, cfg) is True


def test_failsafe_terminates_the_episode_through_step():
    cfg = apply_overrides(
        default_config(),
        num_eas=1,
        failsafe_enabled=True,
        suspicion_threshold=1,
        first_spawn_step=5000,
    )
    rng = random.Random(2)
    world = initial_world(cfg, rng)
    ea = world.eas[0]
    ea.position = (0.0, 0.0)
    ea.pursue_target = next(d.id for d in world.drones if d.role is MALICIOUS)
    ea.pursue_since = 0
    while world.outcome is None:
        step(world, cfg, rng)
    assert world.outcome == "fail"
    assert world.step == 4 * cfg.suspicion_threshold + 1
    assert any(e.kind == "failsafe" for e in world.events)


def steps_with_roles(cfg, seed):
    """Play one episode, yielding after each step the world, the drone roles
    at the start of that step, and the events the step logged."""
    rng = random.Random(seed)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        roles = {d.id: d.role for d in world.drones}
        logged = len(world.events)
        step(world, cfg, rng)
        yield world, roles, world.events[logged:]


def test_pursue_targets_are_always_malicious_in_integrated_runs():
    # The detector's invariant: an agent accuses, and so pursues, only a drone
    # that was malicious when the step began. Checked over default two-agent
    # runs and criterion-6 configs.
    two_agents = apply_overrides(default_config(), num_eas=2)
    cases = [(apply_overrides(two_agents, time_limit_steps=400), 19)]
    cases += [(two_agents, mix_seed(1, i)) for i in range(1, 61)]
    rng = random.Random(20260819)
    for _ in range(60):
        cfg = random_valid_config(rng)
        cases += [(cfg, rng.randint(0, 2**32)) for _ in range(3)]
    accusations = 0
    for cfg, seed in cases:
        for world, roles, logged in steps_with_roles(cfg, seed):
            for e in logged:
                if e.kind == "suspicion_raised":
                    accusations += 1
                    assert roles[e.data["drone"]] is MALICIOUS, (cfg, seed, e)
            now = {d.id: d.role for d in world.drones}
            for agent in world.eas:
                if agent.pursue_target is not None:
                    assert now[agent.pursue_target] is MALICIOUS
                # The suspicion map holds only positive counts of the world's drones.
                assert all(drone_id in now and count >= 1 for drone_id, count in agent.suspicion.items())
    assert accusations >= 20


@st.composite
def accepted_configs(draw):
    """A criterion-6 config with at least one agent, each speed either as
    drawn there or at 1 to 2 times the speed floor."""
    cfg = random_valid_config(random.Random(draw(st.integers(0, 2**32))))
    floor = SPEED_FLOOR_ULPS * math.ulp(cfg.map_size)
    speeds = {}
    for name in ("drone_speed", "enemy_speed"):
        factor = draw(st.none() | st.floats(1.0, 2.0))
        if factor is not None:
            speeds[name] = factor * floor
    return validate(apply_overrides(cfg, num_eas=draw(st.integers(1, 3)), **speeds))


@settings(max_examples=100)
@given(accepted_configs(), st.integers(0, 2**32))
def test_no_accepted_config_accuses_a_drone_that_was_not_malicious(cfg, seed):
    # The detector's invariant over accepted configs down to the speed
    # floor, where a step moves a coordinate by about 1,000 ulps.
    for _, roles, logged in steps_with_roles(cfg, seed):
        for e in logged:
            if e.kind == "suspicion_raised":
                assert roles[e.data["drone"]] is MALICIOUS, e


def _judged(world, cfg, roles):
    """What observe, update_suspicion and ea_policy make of world, run for
    every agent in id order, on copies of its drones given these roles and
    of its agents, the threats and enemies shared: each agent's verdicts,
    suspicion map, pursuit, target and orbit point, and the events logged."""
    drones = [dataclasses.replace(d, role=role) for d, role in zip(world.drones, roles)]
    eas = [dataclasses.replace(ea, suspicion=dict(ea.suspicion)) for ea in world.eas]
    scene = WorldState(step=world.step, drones=drones, enemies=world.enemies, eas=eas)
    judged = []
    for ea in eas:
        verdicts = observe(ea, scene, cfg)
        update_suspicion(ea, verdicts, scene, cfg)
        target = ea_policy(ea, scene, cfg)
        judged.append((verdicts, ea.suspicion, ea.pursue_target, ea.pursue_since, target, ea.arc))
    return judged, scene.events


def test_agents_judge_behaviour_not_roles(monkeypatch):
    # At every enforcement phase of 16 default two-agent runs and of 16 runs
    # of criterion-6 configs with agents, the drones' roles shuffled among
    # them, positions, prev_position and threats kept: the same verdicts,
    # suspicion maps, pursuits, moves and events. Only attempt_reformation
    # reads a role.
    cases = [(apply_overrides(default_config(), num_eas=2), mix_seed(1, i)) for i in range(1, 17)]
    rng = random.Random(20261021)
    while len(cases) < 32:
        cfg = random_valid_config(rng)
        if cfg.num_eas and cfg.num_malicious:
            cases.append((cfg, rng.randint(0, 2**32)))
    real = enforcement.run_enforcement_phase
    phases = {"shuffled": 0, "violations": 0, "accusations": 0}

    def checked(world, cfg, threat):
        roles = [d.role for d in world.drones]
        shuffled = roles[:]
        rng.shuffle(shuffled)
        judged, events = _judged(world, cfg, roles)
        assert _judged(world, cfg, shuffled) == (judged, events), (cfg, world.step, roles, shuffled)
        phases["shuffled"] += shuffled != roles
        phases["violations"] += any(True in verdicts.values() for verdicts, *_ in judged)
        phases["accusations"] += any(e.kind == "suspicion_raised" for e in events)
        return real(world, cfg, threat)

    monkeypatch.setattr(enforcement, "run_enforcement_phase", checked)
    for cfg, seed in cases:
        played = random.Random(seed)
        world = initial_world(cfg, played)
        while world.outcome is None:
            step(world, cfg, played)
    assert phases["shuffled"] >= 5000 and phases["violations"] >= 50 and phases["accusations"] >= 5, phases


def test_an_agent_stands_down_from_a_drone_that_was_not_malicious():
    # No accepted config accuses a compliant drone (the property above), so
    # the pursuit is built by hand: an agent chases compliant drone 0 from
    # just outside reform range. In one step the drone patrols on, the agent
    # closes in, and on reaching it stands down instead of reforming it.
    cfg = validate(apply_overrides(default_config(), num_eas=1, first_spawn_step=5000))
    suspect = drone_at(0, 90.0, 60.0)
    ea = ea_at(0, 100.5, 60.0, pursue_target=0, pursue_since=15, suspicion={0: 5})
    world = make_world(drones=[suspect, drone_at(3, 30.0, 60.0, role=MALICIOUS)], eas=[ea], step_index=20)
    assert distance(ea.position, suspect.position) > cfg.reform_radius
    step(world, cfg, random.Random(0))
    assert distance(ea.position, suspect.position) <= cfg.reform_radius
    assert (ea.pursue_target, ea.pursue_since, ea.suspicion) == (None, None, {})
    assert not any(e.kind == "reformation" for e in world.events)
    assert [d.role for d in world.drones] == [COMPLIANT, MALICIOUS]


# --- twin runs -----------------------------------------------------------------

WORLD_EVENTS = ("spawn", "interception", "breach")


def world_events(world, before):
    return [e for e in world.events if e.kind in WORLD_EVENTS and e.step < before]


def test_agents_change_nothing_in_the_world_before_they_reform_or_abort():
    # Agents draw no randomness and act on the world only by a reformation
    # or the failsafe. So until the first step with either, run i with N
    # agents spawns, intercepts and breaches as run i with none does.
    defaults = default_config()
    configs = [defaults, apply_overrides(defaults, failsafe_enabled=True)]
    rng = random.Random(20261018)
    configs += [random_valid_config(rng) for _ in range(4)]
    acted = diverged = 0
    for cfg in configs:
        for run in range(1, 4):
            seed = mix_seed(1, run)
            _, twin = run_episode(apply_overrides(cfg, num_eas=0), run, seed)
            for n in (1, 2):
                _, world = run_episode(apply_overrides(cfg, num_eas=n), run, seed)
                acts = [e.step for e in world.events if e.kind in ("reformation", "failsafe")]
                first = min(acts, default=math.inf)
                assert world_events(world, first) == world_events(twin, first), (cfg, run, n)
                acted += bool(acts)
                diverged += world_events(world, math.inf) != world_events(twin, math.inf)
    # Agents acted in some pairs, and the worlds parted after they did.
    assert acted >= 5 and diverged >= 5


def first_suspicion_step(cfg, run):
    _, world = run_episode(cfg, run, mix_seed(1, run))
    return next((e.step for e in world.events if e.kind == "suspicion_raised"), None)


def test_a_higher_threshold_raises_suspicion_strictly_later_or_never():
    # Counts grow by one per violating step whatever the threshold, and the
    # worlds at t and t + 1 stay the same until t fires. So t + 1 fires
    # strictly after t, and never where t never fires.
    two_agents = apply_overrides(default_config(), num_eas=2)
    later = only_lower = neither = 0
    for run in range(1, 13):
        steps = [first_suspicion_step(apply_overrides(two_agents, suspicion_threshold=t), run) for t in range(2, 8)]
        for lower, higher in zip(steps, steps[1:]):
            if lower is None:
                assert higher is None, run
                neither += 1
            elif higher is None:
                only_lower += 1
            else:
                assert higher > lower, run
                later += 1
    assert later >= 10 and only_lower >= 1 and neither >= 1
