"""Per-step behavior: spawning, policies, interception, and the step order."""

import copy
import dataclasses
import math
import random
import time

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from sentinel import dynamics, enforcement
from sentinel.config import SPEED_FLOOR_ULPS, ConfigError, SimConfig, apply_overrides, default_config, validate
from sentinel.dynamics import (
    SteppingTerminatedEpisode,
    _fold_into_sector,
    _perimeter_point,
    compliant_policy,
    enemy_policy,
    malicious_policy,
    nearest_enemy,
    resolve_interceptions,
    spawn_enemies,
    step,
)
from sentinel.experiment import mix_seed, run_episode
from sentinel.world import (
    COMPLIANT,
    MALICIOUS,
    ON_CIRCLE_EPS,
    REFORMED,
    Drone,
    Enemy,
    EnforcementAgentState,
    WorldState,
    clamp_to_map,
    distance,
    initial_world,
    move_toward,
    threat_seen,
)

from test_acceptance import random_valid_config


def bare_world(*drones, enemies=(), step_index=0):
    return WorldState(
        step=step_index,
        drones=list(drones),
        enemies=list(enemies),
        eas=[],
        next_enemy_id=max((e.id for e in enemies), default=-1) + 1,
    )


def compliant(drone_id, x, y):
    return Drone(id=drone_id, position=(x, y), role=COMPLIANT)


# --- spawning ---------------------------------------------------------------


def test_spawn_fires_on_schedule_steps_only():
    cfg = default_config()
    rng = random.Random(0)
    world = bare_world(step_index=15)
    spawn_enemies(world, cfg, rng)
    assert len(world.enemies) == 1
    assert world.enemies[0].spawned_at == 15
    assert [e.kind for e in world.events] == ["spawn"]

    world = bare_world(step_index=16)
    spawn_enemies(world, cfg, rng)
    assert world.enemies == []
    assert world.events == []


def test_spawn_count_over_a_full_episode_matches_brute_force():
    cfg = default_config()
    rng = random.Random(3)
    world = bare_world()
    for t in range(1, cfg.time_limit_steps + 1):
        world.step = t
        spawn_enemies(world, cfg, rng)
    expected = sum(
        1
        for k in range(1, cfg.time_limit_steps + 1)
        if k >= cfg.first_spawn_step and (k - cfg.first_spawn_step) % cfg.enemy_spawn_period == 0
    )
    assert expected == 80
    assert len(world.enemies) == 80


def test_spawn_schedule_honors_custom_first_step_and_period():
    cfg = apply_overrides(default_config(), first_spawn_step=7, enemy_spawn_period=4)
    rng = random.Random(5)
    world = bare_world()
    fired = []
    for t in range(0, 20):
        world.step = t
        before = len(world.enemies)
        spawn_enemies(world, cfg, rng)
        if len(world.enemies) > before:
            fired.append(t)
    assert fired == [7, 11, 15, 19]


def test_spawn_positions_sit_on_the_map_boundary():
    cfg = default_config()
    rng = random.Random(99)
    world = bare_world(step_index=15)
    for _ in range(300):
        spawn_enemies(world, cfg, rng)
    m = cfg.map_size
    for e in world.enemies:
        x, y = e.position
        assert 0.0 <= x <= m and 0.0 <= y <= m
        assert x in (0.0, m) or y in (0.0, m)


def test_spawned_enemy_ids_are_unique_and_monotone():
    cfg = default_config()
    rng = random.Random(2)
    world = bare_world(step_index=15)
    for _ in range(50):
        spawn_enemies(world, cfg, rng)
    ids = [e.id for e in world.enemies]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


# --- policies ----------------------------------------------------------------


def test_enemy_policy_heads_straight_for_the_center():
    cfg = default_config()
    assert enemy_policy(Enemy(0, (120.0, 60.0), 0), cfg) == (119.0, 60.0)
    assert enemy_policy(Enemy(0, (60.0, 0.0), 0), cfg) == (60.0, 1.0)
    assert enemy_policy(Enemy(0, (60.0, 60.0), 0), cfg) == (60.0, 60.0)


def test_enemy_policy_stops_on_the_center():
    # Closer than enemy_speed, the enemy stops on the center, as move_toward does.
    cfg = default_config()
    assert enemy_policy(Enemy(0, (60.5, 60.0), 0), cfg) == (60.0, 60.0)


def test_enemy_policy_speed_is_exact_off_axis():
    cfg = default_config()
    rng = random.Random(17)
    for _ in range(100):
        e = Enemy(0, (rng.uniform(0, 120), rng.uniform(0, 120)), 0)
        if distance(e.position, cfg.center) <= cfg.enemy_speed:
            continue
        assert distance(enemy_policy(e, cfg), e.position) == pytest.approx(cfg.enemy_speed, abs=1e-12)


def test_nearest_enemy_prefers_distance_then_lowest_id():
    pos = (60.0, 60.0)
    far = Enemy(1, (69.0, 60.0), 0)
    near = Enemy(5, (68.0, 60.0), 0)
    assert nearest_enemy(pos, [far, near]).id == 5
    tied_a = Enemy(7, (50.0, 60.0), 0)
    tied_b = Enemy(3, (70.0, 60.0), 0)
    assert nearest_enemy(pos, [tied_a, tied_b]).id == 3
    assert nearest_enemy(pos, []) is None


def test_a_bounded_scan_is_the_nearest_of_all_dropped_beyond_the_bound():
    # Enemies share positions, or mirror each other about the scanner, so
    # distances tie exactly; the bound is often exactly one of the gaps.
    rng = random.Random(20261018)
    bounded = 0
    for _ in range(2000):
        p = (rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0))
        enemies = []
        for _ in range(rng.randint(0, 6)):
            dx, dy = rng.choice([(0.0, 0.0), (3.0, 4.0), (rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))])
            for sx, sy in rng.sample([(1, 1), (-1, 1), (1, -1), (-1, -1)], rng.randint(1, 2)):
                enemies.append(Enemy(rng.randrange(1000), (p[0] + sx * dx, p[1] + sy * dy), 0))
        rng.shuffle(enemies)
        gaps = [distance(p, e.position) for e in enemies]
        within = rng.choice([math.inf, 0.0, rng.uniform(0.0, 30.0)] + gaps)
        nearest = min(enemies, key=lambda e: (distance(p, e.position), e.id), default=None)
        if nearest is not None and distance(p, nearest.position) > within:
            nearest = None
        bounded += nearest is not None and distance(p, nearest.position) == within
        assert nearest_enemy(p, enemies, within) is nearest
    assert bounded > 100


def test_compliant_policy_pursues_the_nearest_detected_enemy():
    cfg = default_config()
    d = compliant(0, 60.0, 60.0)
    world = bare_world(d, enemies=[Enemy(2, (68.0, 60.0), 0), Enemy(1, (69.0, 60.0), 0)])
    x, y = p = compliant_policy(d, world, cfg)
    assert x > 60.0 and y == 60.0
    assert distance(p, d.position) <= cfg.drone_speed + 1e-9


def test_compliant_policy_breaks_distance_ties_by_lowest_id():
    cfg = default_config()
    d = compliant(0, 60.0, 60.0)
    world = bare_world(d, enemies=[Enemy(7, (52.0, 60.0), 0), Enemy(3, (68.0, 60.0), 0)])
    assert compliant_policy(d, world, cfg)[0] > 60.0  # toward enemy 3 at x=68, not enemy 7 at x=52


def test_compliant_policy_ignores_enemies_beyond_detection_radius():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(4))
    d = world.drones[0]
    world.enemies.append(Enemy(0, (0.0, 0.0), 0))
    patrol = malicious_policy(copy.deepcopy(d), world, cfg)
    assert compliant_policy(d, world, cfg) == patrol


def test_patrol_keeps_the_drone_on_its_circle():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    center = cfg.center
    d = world.drones[2]
    for _ in range(100):
        d.position = compliant_policy(d, world, cfg)
        assert abs(distance(d.position, center) - cfg.patrol_radius) < 1e-6


def test_patrol_stays_inside_the_own_sector():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    cx, cy = cfg.center
    half = math.pi / cfg.total_drones
    d = world.drones[1]
    sector_center = 2.0 * math.pi * d.id / cfg.total_drones
    for _ in range(200):
        d.position = compliant_policy(d, world, cfg)
        x, y = d.position
        angle = math.atan2(y - cy, x - cx)
        offset = math.atan2(math.sin(angle - sector_center), math.cos(angle - sector_center))
        assert abs(offset) <= half + 1e-9


def test_patrol_reverses_direction_instead_of_leaving_the_sector():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    d = world.drones[0]
    directions = set()
    for _ in range(200):
        directions.add(d.patrol_dir)
        d.position = compliant_policy(d, world, cfg)
    assert directions == {1, -1}


def test_sector_fold_drops_whole_periods_without_changing_the_direction():
    half = math.pi / 6

    def bounce(offset, direction):
        while abs(offset) > half:
            offset = (2.0 if offset > 0 else -2.0) * half - offset
            direction = -direction
        return offset, direction

    # Offsets that land exactly on a sector boundary are left out: there the
    # rounding of either method decides whether one more bounce happens.
    for offset in (3.1 * half, -3.7 * half, 9.5 * half, -22.25 * half, 41.3 * half):
        folded, direction = _fold_into_sector(offset, half, 1)
        expected, expected_direction = bounce(offset, 1)
        assert direction == expected_direction
        assert abs(folded - expected) < 1e-9


@pytest.mark.parametrize(
    ("offset", "direction", "folded", "folded_direction"),
    [
        (1.7292555766606434, -1, 0.33299217506517986, -1),
        (-1.7117893656900698, -1, -0.3155259640946062, -1),
        (1.7098836736578162, 1, 0.31362027206235266, 1),
    ],
)
def test_sector_fold_between_three_and_five_half_widths_is_pinned_bit_for_bit(
    offset, direction, folded, folded_direction
):
    # Nine drones. Here dropping whole periods with fmod first and a plain
    # reflection loop round to different last bits, so these pins tell the
    # two apart; the values come from the fmod shortcut above 3 half-widths.
    half = math.pi / 9

    def bounce(offset, direction):
        while abs(offset) > half:
            offset = (2.0 if offset > 0 else -2.0) * half - offset
            direction = -direction
        return offset, direction

    assert 3.0 * half < abs(offset) < 5.0 * half
    assert _fold_into_sector(offset, half, direction) == (folded, folded_direction)
    assert bounce(offset, direction) != (folded, folded_direction)


def test_patrol_at_a_huge_finite_speed_stays_in_the_sector():
    cfg = apply_overrides(default_config(), num_malicious=0, drone_speed=1e9)
    world = initial_world(cfg, random.Random(8))
    cx, cy = cfg.center
    d = world.drones[1]
    sector_center = 2.0 * math.pi * d.id / cfg.total_drones
    for _ in range(3):
        d.position = compliant_policy(d, world, cfg)
        x, y = d.position
        offset = math.atan2(y - cy, x - cx) - sector_center
        assert abs(math.atan2(math.sin(offset), math.cos(offset))) <= math.pi / cfg.total_drones + 1e-9


def test_displaced_drone_returns_to_its_arc():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    center = cfg.center
    d = world.drones[3]
    d.position = (10.0, 10.0)
    for _ in range(40):
        d.position = compliant_policy(d, world, cfg)
    assert abs(distance(d.position, center) - cfg.patrol_radius) < 1e-6


def test_a_moved_drone_measures_its_angle_instead_of_reusing_the_carry():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    d = world.drones[2]
    d.position = compliant_policy(d, world, cfg)
    assert d.arc is not None and d.arc[0] == d.position
    cx, cy = cfg.center
    elsewhere = 2.0 * math.pi * d.id / cfg.total_drones - 0.5 * math.pi / cfg.total_drones
    on_arc = (cx + cfg.patrol_radius * math.cos(elsewhere), cy + cfg.patrol_radius * math.sin(elsewhere))
    for moved in (on_arc, (10.0, 10.0)):
        d.position = moved
        fresh = Drone(id=d.id, position=moved, role=d.role, patrol_dir=d.patrol_dir)
        assert compliant_policy(d, world, cfg) == compliant_policy(fresh, world, cfg)
        assert d.arc == fresh.arc


@pytest.mark.parametrize("num_eas", [0, 2])
def test_carried_angles_match_the_measured_ones(num_eas):
    # A walker standing on its carried point skips measuring its angle, so
    # the carry must agree with the measurement it replaces: on the circle
    # within ON_CIRCLE_EPS, inside the sector, and at the same angle.
    cfg = apply_overrides(default_config(), num_eas=num_eas)
    cx, cy = cfg.center
    half = math.pi / cfg.total_drones
    carried = 0
    for seed in range(1, 11):
        rng = random.Random(seed)
        world = initial_world(cfg, rng)
        while world.outcome is None:
            step(world, cfg, rng)
            walkers = [(d, cfg.patrol_radius, 2.0 * math.pi * d.id / cfg.total_drones, half) for d in world.drones]
            walkers += [(ea, cfg.ea_orbit_radius, 0.0, math.pi) for ea in world.eas]
            for walker, radius, zero, bound in walkers:
                if walker.arc is None or walker.arc[0] != walker.position:
                    continue
                carried += 1
                x, y = walker.position
                offset = math.atan2(y - cy, x - cx) - zero
                assert abs(math.hypot(x - cx, y - cy) - radius) <= ON_CIRCLE_EPS
                assert abs(math.atan2(math.sin(offset), math.cos(offset))) <= bound + 1e-12
                gap = walker.arc[1] - offset
                assert abs(math.atan2(math.sin(gap), math.cos(gap))) <= 1e-12
    assert carried > 5000


def test_malicious_policy_never_pursues():
    cfg = default_config()
    d = Drone(id=0, position=(60.0, 60.0), role=MALICIOUS)
    world = bare_world(d, enemies=[Enemy(0, (63.0, 60.0), 0)])
    # a patrol step, not a straight line onto the threat 3 units away
    assert distance(malicious_policy(d, world, cfg), (63.0, 60.0)) > 1e-6


def test_malicious_policy_matches_compliant_patrol_when_no_threats():
    cfg = default_config()
    world = initial_world(apply_overrides(cfg, num_malicious=0), random.Random(8))
    a = world.drones[4]
    b = copy.deepcopy(a)
    pa = compliant_policy(a, world, cfg)
    b.role = MALICIOUS
    pb = malicious_policy(b, bare_world(b), cfg)
    assert pa == pb


# --- interception --------------------------------------------------------------


def test_interception_removes_enemies_in_range_of_compliant_drones():
    cfg = default_config()
    d = compliant(0, 60.0, 60.0)
    world = bare_world(d, enemies=[Enemy(0, (61.9, 60.0), 0)])
    resolve_interceptions(world, cfg)
    assert world.enemies == []
    assert [e.kind for e in world.events] == ["interception"]
    assert world.events[0].data == {"enemy": 0, "drone": 0}


def test_malicious_drones_never_intercept():
    cfg = default_config()
    d = Drone(id=0, position=(60.0, 60.0), role=MALICIOUS)
    world = bare_world(d, enemies=[Enemy(0, (60.5, 60.0), 0)])
    resolve_interceptions(world, cfg)
    assert len(world.enemies) == 1
    assert world.events == []


def test_reformed_drones_do_intercept():
    cfg = default_config()
    d = Drone(id=0, position=(60.0, 60.0), role=REFORMED)
    world = bare_world(d, enemies=[Enemy(0, (60.5, 60.0), 0)])
    resolve_interceptions(world, cfg)
    assert world.enemies == []
    assert [e.kind for e in world.events] == ["interception"]


def test_two_drones_near_one_enemy_remove_it_once():
    cfg = default_config()
    a = compliant(0, 59.0, 60.0)
    b = compliant(1, 61.5, 60.0)
    world = bare_world(a, b, enemies=[Enemy(0, (60.5, 60.0), 0)])
    resolve_interceptions(world, cfg)
    assert world.enemies == []
    assert [e.kind for e in world.events] == ["interception"]
    # credit goes to the closer drone
    assert world.events[0].data["drone"] == 1


def test_interception_boundary_is_inclusive():
    cfg = default_config()
    d = compliant(0, 60.0, 60.0)
    world = bare_world(d, enemies=[Enemy(0, (62.0, 60.0), 0)])
    resolve_interceptions(world, cfg)
    assert world.enemies == []
    world2 = bare_world(compliant(0, 60.0, 60.0), enemies=[Enemy(0, (62.0000001, 60.0), 0)])
    resolve_interceptions(world2, cfg)
    assert len(world2.enemies) == 1


def test_with_no_slack_a_drone_that_saw_no_threat_still_intercepts():
    # detection_radius - intercept_radius - drone_speed - enemy_speed < 0: an
    # enemy 5.7 away is out of detection range, but the drone's patrol and the
    # enemy's approach bring them within 2 of each other in one step.
    cfg = validate(apply_overrides(default_config(), num_malicious=0, detection_radius=4.0, first_spawn_step=5000))
    world = initial_world(cfg, random.Random(1))
    world.step = 4
    world.enemies.append(Enemy(0, (91.5, 65.5), 0))
    world.next_enemy_id = 1
    step(world, cfg, random.Random(0))
    assert not threat_seen(world)
    assert [(e.kind, e.data) for e in world.events] == [("interception", {"enemy": 0, "drone": 0})]


def test_a_drone_clamped_onto_the_map_on_its_first_step_intercepts_an_enemy_it_did_not_see():
    # Off-centre, drone 3 starts at x = -10, outside the map, 10.9 from the
    # enemy. Its first patrol move is clamped to the west wall, a jump of
    # nearly 10, which lands it within intercept range although the slack is
    # positive and no drone saw a threat.
    cfg = validate(apply_overrides(default_config(), num_malicious=0, center=(20.0, 60.0), first_spawn_step=5000))
    world = initial_world(cfg, random.Random(1))
    assert world.drones[3].position[0] < 0.0
    world.enemies.append(Enemy(0, (0.5, 57.0), 0))
    world.next_enemy_id = 1
    step(world, cfg, random.Random(0))
    assert not threat_seen(world)
    assert [(e.kind, e.data) for e in world.events] == [("interception", {"enemy": 0, "drone": 3})]


def _events_and_record(cfg, run):
    record, world = run_episode(cfg, run, mix_seed(1, run))
    return record, [(e.step, e.kind, e.data) for e in world.events]


def test_quiet_steps_play_the_same_episodes_as_steps_that_skip_nothing(monkeypatch):
    # Each episode is played with the quiet-step skips, then with them forced
    # off by a dynamics.threat_seen that always reports a threat. It feeds
    # both skips, so interception and every agent's observation then run on
    # every step.
    rng = random.Random(20261018)
    configs = []
    for i in range(9):
        cfg = random_valid_config(rng)
        configs.append(validate(apply_overrides(cfg, num_eas=i % 3, failsafe_enabled=i % 2 == 1)))
    for n in (0, 1, 2):
        configs.append(validate(apply_overrides(default_config(), num_eas=n)))
        edge = apply_overrides(default_config(), num_eas=n, center=(20.0, 60.0), ea_monitor_radius=40.0)
        configs.append(validate(apply_overrides(edge, first_spawn_step=1, failsafe_enabled=n == 1)))
        # Drones that see barely past their kill range catch enemies they never saw.
        blind = apply_overrides(default_config(), num_eas=n, detection_radius=2.5, suspicion_threshold=2)
        configs.append(validate(apply_overrides(blind, failsafe_enabled=n == 2)))
    margin = [
        c.detection_radius - c.intercept_radius - c.drone_speed - c.enemy_speed > ON_CIRCLE_EPS + 1e-9 * c.map_size
        for c in configs
    ]
    assert set(margin) == {True, False}
    assert {c.num_eas for c in configs} == {0, 1, 2}
    assert {c.failsafe_enabled for c in configs} == {True, False}

    calls = {(mode, name): 0 for mode in ("quiet", "forced") for name in ("resolve", "observe")}
    resolve, observe = dynamics.resolve_interceptions, enforcement.observe
    for cfg in configs:
        for run in range(1, 9):
            played = {}
            for mode in ("quiet", "forced"):
                with monkeypatch.context() as m:
                    if mode == "forced":
                        m.setattr(dynamics, "threat_seen", lambda world: True)

                    def counted_resolve(world, cfg, mode=mode):
                        calls[mode, "resolve"] += 1
                        resolve(world, cfg)

                    def counted_observe(ea, world, cfg, mode=mode):
                        calls[mode, "observe"] += 1
                        return observe(ea, world, cfg)

                    m.setattr(dynamics, "resolve_interceptions", counted_resolve)
                    m.setattr(enforcement, "observe", counted_observe)
                    played[mode] = _events_and_record(cfg, run)
            assert played["quiet"] == played["forced"], (cfg, run)
    # The skips did happen.
    for name in ("resolve", "observe"):
        assert calls["quiet", name] < calls["forced", name] / 2, calls


# --- step orchestration ----------------------------------------------------------


def test_step_reaches_success_at_the_time_limit():
    cfg = apply_overrides(default_config(), first_spawn_step=5000)
    world = initial_world(cfg, random.Random(3))
    world.step = 1199
    step(world, cfg, random.Random(0))
    assert world.step == 1200
    assert world.outcome == "success"


def test_step_fails_when_an_enemy_breaches():
    cfg = apply_overrides(default_config(), first_spawn_step=5000)
    world = initial_world(cfg, random.Random(3))
    world.enemies.append(Enemy(0, (60.0, 65.9), 0))
    world.next_enemy_id = 1
    step(world, cfg, random.Random(0))
    assert world.outcome == "fail"
    assert any(e.kind == "breach" for e in world.events)


def test_stepping_a_terminated_episode_raises():
    cfg = apply_overrides(default_config(), first_spawn_step=5000)
    world = initial_world(cfg, random.Random(3))
    world.step = 1199
    step(world, cfg, random.Random(0))
    with pytest.raises(SteppingTerminatedEpisode):
        step(world, cfg, random.Random(0))


@pytest.mark.parametrize("num_eas", [0, 1, 2])
def test_each_drone_moves_where_its_policy_sends_it_from_the_pre_move_world(num_eas):
    # step() moves each drone right after its policy chooses, which is the
    # same as choosing all moves first only while no policy reads another
    # drone. So every move must equal the policy run on a copy of the world
    # taken before the step, after the spawn, with no drone moved yet.
    cfg = apply_overrides(default_config(), num_eas=num_eas)
    steps = 0
    for run in range(1, 4):
        rng = random.Random(mix_seed(1, run))
        world = initial_world(cfg, rng)
        while world.outcome is None:
            before = copy.deepcopy(dataclasses.replace(world, events=[]))
            spawn_rng = random.Random()
            spawn_rng.setstate(rng.getstate())
            before.step += 1
            spawn_enemies(before, cfg, spawn_rng)
            step(world, cfg, rng)
            steps += 1
            for moved, drone in zip(world.drones, before.drones):
                policy = malicious_policy if drone.role is MALICIOUS else compliant_policy
                start = drone.position
                assert moved.position == clamp_to_map(policy(drone, before, cfg), cfg), (run, world.step, drone.id)
                assert moved.prev_position == start
    assert steps > 300


def test_an_agent_sent_to_an_orbit_point_beyond_a_wall_stops_on_the_wall():
    # The orbit around (10, 60) reaches x = -5. An agent off its orbit just
    # inside the west wall heads for the orbit point at its own bearing,
    # (-5, 60); a drone_speed step takes it to x = -2.6, which the wall clamps.
    cfg = validate(apply_overrides(default_config(), num_eas=1, center=(10.0, 60.0), first_spawn_step=5000))
    world = bare_world(step_index=10)
    world.eas.append(EnforcementAgentState(id=0, position=(1.0, 60.0)))
    step(world, cfg, random.Random(0))
    assert world.eas[0].position == (0.0, 60.0)


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-300, max_value=1e300),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)] * 2),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(0, 64),
    st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
)
def test_an_enemy_moves_as_move_toward_the_centre_and_stays_on_the_map(map_size, at, spawn_at, doublings, mantissa):
    # Any map that validate accepts, scaled from the defaults, with the centre
    # anywhere strictly inside, a spawn anywhere on the perimeter and an
    # enemy_speed from the floor to millions of map widths. step() does not
    # clamp an enemy's move, so none may leave the map.
    fields = {name: getattr(default_config(), name) * (map_size / 120.0) for name in FLOAT_FIELDS}
    fields.update(
        map_size=map_size,
        center=(at[0] * map_size, at[1] * map_size),
        enemy_speed=SPEED_FLOOR_ULPS * math.ulp(map_size) * 2.0**doublings * mantissa,
    )
    try:
        cfg = validate(apply_overrides(default_config(), **fields))
    except ConfigError:
        reject()
    p = _perimeter_point(spawn_at * 4.0 * map_size, cfg)
    for _ in range(20):
        q = enemy_policy(Enemy(0, p, 0), cfg)
        assert q == move_toward(p, cfg.center, cfg.enemy_speed), (p, cfg)
        assert 0.0 <= q[0] <= map_size and 0.0 <= q[1] <= map_size, (p, q, cfg)
        p = q


def test_only_a_target_off_the_map_is_clamped(monkeypatch):
    # Drones and agents test the map inline and call clamp_to_map only for a
    # target off it; enemies never leave the map. At the defaults no target
    # is off it; on the golden edge0 config a drone starts beyond the west
    # wall.
    clamped = []

    def counted(p, cfg):
        clamped.append(p)
        return clamp_to_map(p, cfg)

    monkeypatch.setattr(dynamics, "clamp_to_map", counted)
    monkeypatch.setattr(enforcement, "clamp_to_map", counted)
    for n in (0, 2):
        cfg = apply_overrides(default_config(), num_eas=n)
        for run in (1, 2, 3):
            run_episode(cfg, run, mix_seed(1, run))
    assert clamped == []
    edge0 = apply_overrides(default_config(), center=(20.0, 60.0), ea_monitor_radius=40.0)
    run_episode(edge0, 1, mix_seed(1, 1))
    assert clamped
    assert all(clamp_to_map(p, edge0) != p for p in clamped)


def test_step_increments_the_counter_exactly_once():
    cfg = default_config()
    world = initial_world(cfg, random.Random(3))
    rng = random.Random(1)
    for expected in range(1, 31):
        if world.outcome is not None:
            break
        step(world, cfg, rng)
        assert world.step == expected


def test_step_is_deterministic_for_equal_state():
    cfg = apply_overrides(default_config(), num_eas=1)
    world_a = initial_world(cfg, random.Random(77))
    world_b = initial_world(cfg, random.Random(77))
    rng_a, rng_b = random.Random(5), random.Random(5)
    for _ in range(60):
        if world_a.outcome is not None:
            break
        step(world_a, cfg, rng_a)
        step(world_b, cfg, rng_b)
    assert world_a == world_b


def test_per_step_displacement_respects_configured_speeds():
    cfg = apply_overrides(default_config(), num_eas=2)
    rng = random.Random(31)
    world = initial_world(cfg, rng)
    for _ in range(120):
        if world.outcome is not None:
            break
        drones_before = [d.position for d in world.drones]
        eas_before = [a.position for a in world.eas]
        enemies_before = {e.id: e.position for e in world.enemies}
        step(world, cfg, rng)
        for before, d in zip(drones_before, world.drones):
            assert distance(before, d.position) <= cfg.drone_speed + 1e-9
        for before, a in zip(eas_before, world.eas):
            assert distance(before, a.position) <= cfg.drone_speed + 1e-9
        for e in world.enemies:
            if e.id in enemies_before:
                assert distance(enemies_before[e.id], e.position) <= cfg.enemy_speed + 1e-9


def test_enemy_count_matches_the_spawn_ledger():
    cfg = apply_overrides(default_config(), num_eas=1)
    rng = random.Random(23)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        step(world, cfg, rng)
        spawned = sum(1 for e in world.events if e.kind == "spawn")
        intercepted = sum(1 for e in world.events if e.kind == "interception")
        assert len(world.enemies) == spawned - intercepted


def test_event_steps_are_non_decreasing():
    cfg = apply_overrides(default_config(), num_eas=2)
    rng = random.Random(6)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        step(world, cfg, rng)
    steps = [e.step for e in world.events]
    assert steps == sorted(steps)


def test_positions_stay_inside_the_map_for_random_configs():
    rng = random.Random(404)
    for _ in range(5):
        cfg = apply_overrides(
            default_config(),
            num_eas=rng.randint(0, 2),
            drone_speed=rng.uniform(1.0, 5.0),
            patrol_radius=rng.uniform(10.0, 55.0),
            time_limit_steps=150,
        )
        episode_rng = random.Random(rng.randint(0, 10**9))
        world = initial_world(cfg, episode_rng)
        while world.outcome is None:
            step(world, cfg, episode_rng)
            for x, y in [entity.position for entity in world.drones + world.enemies + world.eas]:
                assert 0.0 <= x <= cfg.map_size
                assert 0.0 <= y <= cfg.map_size


def test_no_live_enemy_outlives_its_travel_time(monkeypatch):
    # An enemy walks straight at the centre, enemy_speed per step, and a
    # breach ends the episode. So an enemy that has made as many moves as
    # ceil((spawn distance to the centre - center_radius) / enemy_speed) is
    # in the zone, and a live one has made fewer; one move of slack absorbs
    # rounding. An enemy stops on the centre, so this holds at any speed: in
    # the all-malicious config an enemy moves five zone radii per step. The
    # crawl config is the worst accepted case, where every enemy lives to the
    # time limit and a step's work grows with the steps played.
    spawned_from = {}
    spawn = dynamics.spawn_enemies

    def recording_spawn(world, cfg, rng):
        before = world.next_enemy_id
        spawn(world, cfg, rng)
        if world.next_enemy_id > before:
            spawned_from[world.enemies[-1].id] = world.enemies[-1].position

    monkeypatch.setattr(dynamics, "spawn_enemies", recording_spawn)
    rng = random.Random(20261018)
    configs = [random_valid_config(rng) for _ in range(6)]
    crawl = dict(enemy_speed=1e-10, enemy_spawn_period=1, first_spawn_step=0, time_limit_steps=150)
    configs.append(validate(apply_overrides(default_config(), num_eas=2, **crawl)))
    runs = [(cfg, (rng.randint(0, 2**32), rng.randint(0, 2**32))) for cfg in configs]
    fast = dict(num_malicious=6, enemy_speed=25.0, time_limit_steps=400)
    runs.append((validate(apply_overrides(default_config(), **fast)), range(20)))
    for cfg, seeds in runs:
        for seed in seeds:
            episode_rng = random.Random(seed)
            world = initial_world(cfg, episode_rng)
            while world.outcome is None:
                step(world, cfg, episode_rng)
                for e in world.enemies:
                    travel = math.ceil((distance(spawned_from[e.id], cfg.center) - cfg.center_radius) / cfg.enemy_speed)
                    assert world.step - e.spawned_at + 1 <= travel, (cfg, seed, world.step, e)
            if cfg.enemy_speed == 1e-10:
                assert world.outcome == "success" and len(world.enemies) == cfg.time_limit_steps


@pytest.mark.parametrize("num_eas", [0, 1, 2])
def test_every_point_is_a_plain_tuple_of_two_floats(num_eas):
    # Positions are built on every step, so a class-built point would cost
    # time; the world holds nothing but (float, float) tuples.
    cfg = apply_overrides(default_config(), num_eas=num_eas)
    for seed in (1, 2):
        rng = random.Random(seed)
        world = initial_world(cfg, rng)
        while world.outcome is None:
            step(world, cfg, rng)
            walkers = world.drones + world.eas
            points = [entity.position for entity in walkers + world.enemies]
            points += [d.prev_position for d in world.drones]
            points += [w.arc[0] for w in walkers if w.arc is not None]
            for p in points:
                assert type(p) is tuple and len(p) == 2, (world.step, p)
                assert type(p[0]) is float and type(p[1]) is float, (world.step, p)


# --- every accepted config runs ----------------------------------------------

FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type is float]


@settings(max_examples=200)
@given(
    st.dictionaries(st.sampled_from(FLOAT_FIELDS), st.floats(min_value=5e-324, max_value=1.7e308), max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**32),
)
def test_every_accepted_config_steps_to_the_end(overrides, num_eas, seed):
    # Any positive finite value, from the smallest subnormal to near the
    # largest float, for up to four fields at once.
    cfg = apply_overrides(default_config(), num_eas=num_eas, time_limit_steps=40, **overrides)
    try:
        validate(cfg)
    except ConfigError:
        reject()
    rng = random.Random(seed)
    world = initial_world(cfg, rng)
    started = time.perf_counter()
    while world.outcome is None:
        step(world, cfg, rng)
        entities = world.drones + world.enemies + world.eas
        assert all(math.isfinite(c) for e in entities for c in e.position), overrides
    assert time.perf_counter() - started < 5.0
