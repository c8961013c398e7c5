"""Per-step behavior: spawning, policies, interception, and the step order."""

import copy
import dataclasses
import math
import random
import time

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sentinel import dynamics, enforcement, experiment
from sentinel.config import (
    ON_CIRCLE_EPS,
    SPEED_FLOOR_ULPS,
    TAU,
    ConfigError,
    SimConfig,
    apply_overrides,
    default_config,
    validate,
)
from sentinel.dynamics import (
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
from test_shortcuts import CLAMP, QUIET, SHORTCUTS, STRETCH, forced, forced_off, play, unforced


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


def _nearest_as_two_tests(position, enemies, within):
    # nearest_enemy's earlier test, which takes two comparisons to reject a
    # candidate farther than the best so far.
    best, best_gap = None, within
    for e in enemies:
        gap = distance(position, e.position)
        if gap < best_gap or (gap == best_gap and (best is None or e.id < best.id)):
            best, best_gap = e, gap
    return best


def _credit_as_two_tests(drones, enemy, radius):
    # resolve_interceptions' earlier test, with the same two comparisons.
    best = None
    for d in drones:
        gap = distance(d.position, enemy.position)
        if gap <= radius and (best is None or gap < best_gap or (gap == best_gap and d.id < best.id)):
            best, best_gap = d, gap
    return best


# Gaps that tie, sit on the bound, or are not numbers at all.
GAPS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0, math.inf, math.nan]), st.floats(0.0, 20.0))


@settings(max_examples=400)
@given(st.lists(GAPS, max_size=7), GAPS, st.randoms(use_true_random=False))
def test_one_comparison_rejects_a_far_candidate_as_two_did(gaps, bound, rand):
    # Each candidate stands its gap away from the origin along x, so the
    # scan measures exactly that gap; ids are shuffled so ties need them.
    ids = list(range(len(gaps)))
    rand.shuffle(ids)
    enemies = [Enemy(i, (gap, 0.0), 0) for i, gap in zip(ids, gaps)]
    assert nearest_enemy((0.0, 0.0), enemies, bound) is _nearest_as_two_tests((0.0, 0.0), enemies, bound)

    drones = [compliant(i, gap, 0.0) for i, gap in zip(ids, gaps)]
    target = Enemy(0, (0.0, 0.0), 0)
    world = bare_world(*drones, enemies=[target])
    resolve_interceptions(world, apply_overrides(default_config(), intercept_radius=bound))
    expected = _credit_as_two_tests(drones, target, bound)
    credited = [e.data["drone"] for e in world.events]
    assert credited == ([] if expected is None else [expected.id])


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


def test_quiet_steps_play_the_same_episodes_as_steps_that_skip_nothing():
    # Forced off by a dynamics.threat_seen that always reports a threat: it
    # feeds both skips, so interception and every agent's observation then
    # run on every step.
    configs = [cfg for cfg, _, _ in unforced().table]
    slack = [c.detection_radius - c.intercept_radius - c.drone_speed - c.enemy_speed for c in configs]
    assert {s > ON_CIRCLE_EPS + 1e-9 * c.map_size for s, c in zip(slack, configs)} == {True, False}
    assert {0, 1, 2} <= {c.num_eas for c in configs}
    assert {c.failsafe_enabled for c in configs} == {True, False}
    calls = forced_off(QUIET)
    # The skips did happen.
    for name in ("resolve_interceptions", "observe"):
        assert unforced().calls[name] < calls[name] / 2, calls


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
    with pytest.raises(RuntimeError, match="^episode ended with success at step 1200$"):
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


def _scan_reach(cfg):
    # How far from the centre a drone on its circle may see an enemy, with
    # the rounding margin, summed in the order __post_init__ sums it.
    return cfg.patrol_radius + cfg.detection_radius + ON_CIRCLE_EPS + 1e-9 * cfg.map_size


def _sight_bound(cfg):
    # The scan reach, and with agents how far an agent on its orbit may log
    # an enemy's entry point, if farther.
    if cfg.num_eas:
        return max(_scan_reach(cfg), cfg.ea_orbit_radius + cfg.ea_monitor_radius)
    return _scan_reach(cfg)


def _nearest_boundary_point(cfg):
    (cx, cy), m = cfg.center, cfg.map_size
    return min([(cx, (0.0, cy)), (cy, (cx, 0.0)), (m - cx, (m, cy)), (m - cy, (cx, m))])


@settings(max_examples=300)
@given(
    st.floats(min_value=-300.0, max_value=300.0),
    st.integers(0, 3),
    st.floats(min_value=-2.0, max_value=3000.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 50),
    st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
    st.integers(0, 2),
)
def test_no_enemy_comes_within_sight_during_the_blind_window(exponent, edge, moves, along, doublings, mantissa, num_eas):
    # Maps from 1e-300 to 1e300, scaled from the defaults, with enemy_speed
    # from its floor upward. The centre's nearest edge lies about `moves`
    # enemy moves beyond the sight bound, so that the window is short enough
    # to walk, and the centre lies anywhere along that edge. An enemy
    # spawned at the nearest boundary point and moved through the window is
    # still beyond the bound; where the nearest edge is no farther than the
    # bound, the window is empty.
    m = 10.0**exponent
    fields = {name: getattr(default_config(), name) * (m / 120.0) for name in FLOAT_FIELDS}
    fields.update(map_size=m, enemy_speed=SPEED_FLOOR_ULPS * math.ulp(m) * 2.0**doublings * mantissa)
    base = apply_overrides(default_config(), num_eas=num_eas, **fields)
    near = _sight_bound(base) + moves * base.enemy_speed
    if not 0.0 < 2.0 * near < m:
        center = (m / 2, m / 2)  # no nearer to any edge, so no longer a window
    else:
        other = min(max(near + along * (m - 2.0 * near), near), m - near)
        center = [(near, other), (other, near), (m - near, other), (other, m - near)][edge]
    cfg = validate(apply_overrides(base, center=center))
    window = cfg.blind_window
    nearest, point = _nearest_boundary_point(cfg)
    if not cfg.circles_inside or nearest <= _sight_bound(cfg):
        assert window == 0, cfg
        return
    enemy = Enemy(0, point, 1)
    for _ in range(window):
        enemy.position = enemy_policy(enemy, cfg)
    assert distance(enemy.position, cfg.center) > _scan_reach(cfg), (window, cfg)
    # Nor can a drone or an agent see it from its circle point nearest the
    # enemy, built as _sweep and ea_policy build theirs.
    (x, y), (cx, cy) = enemy.position, cfg.center
    angle = math.atan2(y - cy, x - cx)
    sights = [(cfg.patrol_radius, cfg.detection_radius)]
    if num_eas:
        sights.append((cfg.ea_orbit_radius, cfg.ea_monitor_radius))
    for radius, sight in sights:
        point = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
        assert distance(point, enemy.position) > sight, (radius, window, cfg)


@settings(max_examples=300)
@given(
    st.floats(min_value=-300.0, max_value=300.0),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)] * 2),
    st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
    st.integers(0, 2),
)
# A 100 map centred at (40, 50) with no agent: the orbit, of radius 45,
# crosses the west wall, which lies 40 away, beyond the sight bound of 33.3.
@example(2.0, (0.4, 0.5), 0.5, 0.9, 0)
def test_the_blind_window_is_empty_unless_both_circles_are_inside_and_the_nearest_edge_is_beyond_sight(
    exponent, at, patrol, orbit, num_eas
):
    # The centre anywhere on the map, and a patrol circle and an orbit each
    # up to the map's half width: where a circle reaches a wall, even the
    # orbit of no agent, or the nearest edge is no farther than the sight
    # bound, no move is blind.
    m = 10.0**exponent
    fields = {name: getattr(default_config(), name) * (m / 120.0) for name in FLOAT_FIELDS}
    fields.update(
        map_size=m, center=(at[0] * m, at[1] * m), patrol_radius=patrol * m / 2.0, ea_orbit_radius=orbit * m / 2.0
    )
    try:
        cfg = validate(apply_overrides(default_config(), num_eas=num_eas, **fields))
    except ConfigError:
        reject()
    nearest = _nearest_boundary_point(cfg)[0]
    window = cfg.blind_window
    if not cfg.circles_inside or nearest <= _sight_bound(cfg):
        assert window == 0, cfg
    else:
        assert window == math.floor((nearest - _sight_bound(cfg)) / (cfg.enemy_speed * (1 + 1 / 64))), cfg


def test_skipping_the_clamp_inside_the_circles_plays_the_same_episodes():
    # Forced off, every target goes through clamp_to_map, and no move is
    # blind: each opening ends before the first spawn.
    assert {cfg.circles_inside for cfg, _, _ in unforced().table} == {True, False}
    forced_off(CLAMP)
    for cfg, _, _ in unforced().table:
        opening = experiment.opening(forced(cfg, **SHORTCUTS[CLAMP][1]))
        assert opening.step == min(cfg.first_spawn - 1, cfg.time_limit_steps), cfg


def _due_east_at(p, gap):
    # The point due east of p whose distance from p is gap, exactly.
    x = p[0] + gap
    for _ in range(8):
        d = distance(p, (x, p[1]))
        if d == gap:
            return (x, p[1])
        x = math.nextafter(x, -math.inf if d > gap else math.inf)
    raise AssertionError((p, gap))


ON_ARC_ROLES = [COMPLIANT, MALICIOUS, REFORMED, COMPLIANT, MALICIOUS, COMPLIANT]


def _on_arc_enemies(world, cfg, case, near):
    # The enemies of each case, relative to drone `near`.
    p = world.drones[near].position
    if case == "at detection_radius":
        return [Enemy(0, _due_east_at(p, cfg.detection_radius), 0)]
    if case == "just beyond detection_radius":
        x, y = _due_east_at(p, cfg.detection_radius)
        enemy = Enemy(0, (math.nextafter(x, math.inf), y), 0)
        assert distance(p, enemy.position) > cfg.detection_radius
        return [enemy]
    if case == "beyond sight_bound":
        (cx, cy), r = cfg.center, cfg.sight_bound + 1e-6
        enemies = [Enemy(i, (cx + r * math.cos(a), cy + r * math.sin(a)), 0) for i, a in enumerate(cfg.sector_centers)]
        assert all(distance(e.position, cfg.center) > cfg.sight_bound for e in enemies)
        return enemies
    return []


ON_ARC_CASES = ["at detection_radius", "just beyond detection_radius", "no enemy", "beyond sight_bound"]


@pytest.mark.parametrize("near", [0, 1, 2])
@pytest.mark.parametrize("case", ON_ARC_CASES)
def test_a_drone_on_its_arc_point_moves_as_its_policy_moves_it(monkeypatch, case, near):
    # Hand-built worlds at 0 agents: every drone on the arc point it was
    # sent to, compliant, malicious and reformed, with an enemy exactly at
    # detection_radius from drone `near` (a compliant, a malicious or a
    # reformed one), just beyond it, none, or one beyond sight_bound at each
    # drone's bearing. step() plays each drone as its policy plays it on a
    # copy of the world before the step, and scans once per drone.
    cfg = validate(apply_overrides(default_config(), first_spawn_step=5000))
    world = initial_world(cfg, random.Random(1))
    step(world, cfg, random.Random(0))
    for d, role in zip(world.drones, ON_ARC_ROLES):
        d.role = role
        assert d.arc[0] == d.position
    world.enemies = _on_arc_enemies(world, cfg, case, near)
    world.next_enemy_id = len(world.enemies)
    expected = copy.deepcopy(world)
    for d in expected.drones:
        policy = malicious_policy if d.role is MALICIOUS else compliant_policy
        d.prev_position, d.position = d.position, policy(d, expected, cfg)
    scans = []
    monkeypatch.setattr(dynamics, "nearest_enemy", lambda *args: scans.append(args[0]) or nearest_enemy(*args))
    step(world, cfg, random.Random(0))
    assert scans == [d.prev_position for d in world.drones]

    def moved(d):
        return d.position, d.prev_position, d.threat and d.threat.id, d.arc, d.patrol_dir

    assert [moved(d) for d in world.drones] == [moved(d) for d in expected.drones]
    seen = [d.id for d in world.drones if d.threat is not None]
    assert seen == ([near] if case == "at detection_radius" else [])
    chased = [d.id for d in world.drones if d.arc[0] != d.position]
    assert chased == ([near] if case == "at detection_radius" and ON_ARC_ROLES[near] is not MALICIOUS else [])


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-3, max_value=1e300),
    st.tuples(*[st.floats(min_value=0.01, max_value=0.99)] * 2),
    st.floats(min_value=0.1, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.02, max_value=2.0),
    st.integers(0, 5),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([1, -1]),
    st.one_of(st.just(0.0), st.floats(min_value=-1e-3, max_value=1e-3)),
    st.integers(0, 2**20),
)
def test_the_sight_bound_never_hides_a_threat(map_size, at, patrol, detection, drone_id, offset, way, turn, past):
    # A drone on an arc point, built as the patrol builds it, and an enemy
    # just past cfg.sight_bound from the centre, at about the drone's
    # bearing: the drone's scan finds nothing, at any map scale. With no
    # agent the bound is the drones' reach, the least it can be.
    fields = {name: getattr(default_config(), name) * (map_size / 120.0) for name in FLOAT_FIELDS}
    fields.update(
        map_size=map_size,
        center=(at[0] * map_size, at[1] * map_size),
        patrol_radius=patrol * map_size / 2.0,
        detection_radius=detection * map_size,
    )
    try:
        cfg = validate(apply_overrides(default_config(), **fields))
    except ConfigError:
        reject()
    sent = (0.0, 0.0)
    drone = Drone(id=drone_id, position=sent, role=COMPLIANT, patrol_dir=way, arc=(sent, offset * cfg.half_sector))
    x, y = pos = dynamics._sector_patrol_move(drone, cfg)
    assert drone.arc[0] == pos
    assert cfg.sight_bound == _scan_reach(cfg)
    (cx, cy), reach = cfg.center, cfg.sight_bound
    bearing = math.atan2(y - cy, x - cx) + turn
    for k in range(past, past + 1000):
        rho = reach + k * math.ulp(reach)
        enemy = (cx + rho * math.cos(bearing), cy + rho * math.sin(bearing))
        if distance(enemy, cfg.center) > reach:
            break
    else:
        reject()
    assert nearest_enemy(pos, [Enemy(0, enemy, 0)], cfg.detection_radius) is None, (pos, enemy, cfg)


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-3, max_value=1e300),
    st.tuples(*[st.floats(min_value=0.01, max_value=0.99)] * 2),
    st.floats(min_value=0.1, max_value=1.0, exclude_max=True),
    st.one_of(st.integers(1, 12), st.just(1000)),
    st.integers(0, 2**20),
    st.sampled_from([1, -1]),
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.just(None)),
    st.sampled_from([1, -1]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_the_sweep_matches_the_mixed_int_float_arithmetic_bit_for_bit(map_size, at, patrol, n, k, way, u, edge, f):
    # The sweep adds or subtracts patrol_step by direction and reads the
    # sector centre from the config. The reference below multiplies by
    # patrol_dir and divides TAU by the drone count instead; the two agree
    # bit for bit. The offset lies across the sector (u) or within one step
    # of a bound, where the fold runs.
    fields = {name: getattr(default_config(), name) * (map_size / 120.0) for name in FLOAT_FIELDS}
    fields.update(
        map_size=map_size,
        center=(at[0] * map_size, at[1] * map_size),
        patrol_radius=patrol * map_size / 2.0,
    )
    try:
        cfg = validate(apply_overrides(default_config(), total_drones=n, num_malicious=0, **fields))
    except ConfigError:
        reject()
    half, step_angle = cfg.half_sector, cfg.patrol_step
    offset = u * half if u is not None else edge * max(half - f * step_angle, -half)
    drone = Drone(id=k % n, position=(0.0, 0.0), role=COMPLIANT, patrol_dir=way)
    target = dynamics._sweep(drone, offset, cfg)

    moved, direction = offset + way * step_angle, way
    if moved > half or moved < -half:
        moved, direction = _fold_into_sector(moved, half, way)
    angle = TAU * drone.id / n + moved
    (cx, cy), r = cfg.center, cfg.patrol_radius
    expected = (cx + r * math.cos(angle), cy + r * math.sin(angle))

    def bits(point, offset):
        return [v.hex() for v in (*point, offset)]

    assert bits(target, drone.arc[1]) == bits(expected, moved)
    assert drone.arc[0] is target
    assert drone.patrol_dir == direction


def test_the_clamp_is_called_only_when_a_circle_leaves_the_map(monkeypatch):
    # With cfg.circles_inside, as at the defaults, drones and agents never
    # call clamp_to_map; enemies never leave the map. On the golden edge0
    # config a drone starts beyond the west wall: every move calls it, and
    # some calls move the target.
    calls, clamped = [], []

    def counted(p, cfg):
        q = clamp_to_map(p, cfg)
        calls.append(p)
        if q != p:
            clamped.append(p)
        return q

    monkeypatch.setattr(dynamics, "clamp_to_map", counted)
    monkeypatch.setattr(enforcement, "clamp_to_map", counted)
    for n in (0, 2):
        cfg = apply_overrides(default_config(), num_eas=n)
        for run in (1, 2, 3):
            run_episode(cfg, run, mix_seed(1, run))
    assert calls == []
    edge0 = apply_overrides(default_config(), center=(20.0, 60.0), ea_monitor_radius=40.0)
    run_episode(edge0, 1, mix_seed(1, 1))
    assert 0 < len(clamped) < len(calls)


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


# --- blind stretches ---------------------------------------------------------------


def _blind_world(cfg, at=100, enemies=()):
    # One step from the start puts every drone and agent on the point it was
    # sent to; the world is then moved to step `at`, holding `enemies`.
    world = initial_world(cfg, random.Random(1))
    step(world, cfg, random.Random(0))
    world.step, world.enemies, world.next_enemy_id = at, list(enemies), len(enemies)
    return world


def _stepped_and_played(world, cfg, k):
    # The world after k calls of step() and after play_blind(k), from copies.
    stepped, played = copy.deepcopy(world), copy.deepcopy(world)
    rng = random.Random(5)
    for _ in range(k):
        step(stepped, cfg, rng)
    dynamics.play_blind(played, cfg, random.Random(5), k)
    return stepped, played


BLIND = dict(num_eas=2, first_spawn_step=5000)


def _check_stretch(world, cfg, k):
    # blind_steps counts k steps, and play_blind(k) plays them as k calls of
    # step(), in which no drone sees a threat; returns the world played.
    assert dynamics.blind_steps(world, cfg) == k
    stepped, played = _stepped_and_played(world, cfg, k)
    assert stepped == played
    assert [d.threat for d in stepped.drones] == [None] * cfg.total_drones
    return played


@pytest.mark.parametrize("k", [1, 7])
def test_an_enemy_whose_slack_covers_k_moves_allows_k_blind_steps(k):
    # k blind steps, and as drones scan before enemies move, the step whose
    # move takes the enemy across the bound too: a slack of k moves and a
    # bit allows k + 1 steps, one of exactly k moves k.
    cfg = validate(apply_overrides(default_config(), **BLIND))
    move = cfg.enemy_speed * (1 + 1 / 64)
    (cx, cy), bound = cfg.center, _sight_bound(cfg)
    for slack in (k + 0.01, k + 0.5, k + 0.99):
        gap = bound + slack * move
        _check_stretch(_blind_world(cfg, enemies=[Enemy(0, (cx + gap * 0.6, cy - gap * 0.8), 90)]), cfg, k + 1)
    world = _blind_world(cfg, enemies=[Enemy(0, (cx + (bound + k * move), cy), 90)])
    assert distance(world.enemies[0].position, cfg.center) - bound == k * move
    _check_stretch(world, cfg, k)


def test_an_enemy_on_the_bound_allows_no_blind_step_and_one_a_few_ulps_beyond_it_one():
    cfg = validate(apply_overrides(default_config(), **BLIND))
    (cx, cy), bound = cfg.center, _sight_bound(cfg)
    world = _blind_world(cfg, enemies=[Enemy(0, (cx + bound, cy), 90)])
    assert distance(world.enemies[0].position, cfg.center) == bound
    assert dynamics.blind_steps(world, cfg) == 0
    world.enemies[0].position = (cx + bound - 0.5, cy)
    assert dynamics.blind_steps(world, cfg) == 0
    x = cx + bound
    for _ in range(3):
        x = math.nextafter(x, math.inf)
    world.enemies[0].position = (x, cy)
    assert 0.0 < distance((x, cy), cfg.center) - bound < 1e-13
    _check_stretch(world, cfg, 1)


def _on_bearing(cfg, p, r):
    # The point r from the centre in the direction of p.
    (cx, cy), (x, y), was = cfg.center, p, distance(p, cfg.center)
    return (cx + (x - cx) * r / was, cy + (y - cy) * r / was)


def _displaced(world, cfg, r):
    # Drone 4 moved along its bearing to r from the centre, as a pursuit may
    # leave it: off its arc.
    d = world.drones[4]
    d.position = _on_bearing(cfg, d.position, r)
    return d


@pytest.mark.parametrize(
    "r, at, slack, k, back",
    [
        # A hair off its arc, with no enemy: the stretch runs to the time limit.
        (30.0 + 1e-6, 100, None, 1100, True),
        # From inside its circle, which widens nothing.
        (20.0, 100, 7.5, 8, True),
        # From 10 outside it, which widens the bound by 10.
        (40.0, 100, 5.5, 6, True),
        # From 20 outside: the stretch ends with the drone still on its way.
        (50.0, 100, 2.5, 3, False),
        # The time limit ends the stretch, and the episode, during a return.
        (45.0, 1198, None, 2, False),
    ],
)
def test_a_drone_on_its_way_back_to_its_arc_is_played_in_the_stretch(r, at, slack, k, back):
    # An enemy on the drone's bearing, `slack` moves beyond the bound the
    # drone widens to.
    cfg = validate(apply_overrides(default_config(), **BLIND))
    world = _blind_world(cfg, at=at)
    d = _displaced(world, cfg, r)
    if slack is not None:
        bound = _sight_bound(cfg) + max(0.0, distance(d.position, cfg.center) - cfg.patrol_radius)
        world.enemies = [Enemy(0, _on_bearing(cfg, d.position, bound + slack * cfg.enemy_move), at - 10)]
    played = _check_stretch(world, cfg, k)
    assert (played.drones[4].arc is not None and played.drones[4].arc[0] == played.drones[4].position) == back
    assert played.outcome == ("success" if at + k == cfg.time_limit_steps else None)


def test_the_crossing_step_of_an_enemy_at_the_intercept_skip_limit_ends_far_from_a_breach():
    # The fastest enemy for which step() still skips interception, and a
    # zone just inside the patrol circle: the move across the bound ends
    # beyond patrol_radius + detection_radius - enemy_speed.
    fast = 10.0 - 2.0 - 3.6 - 2 * _MARGIN
    cfg = validate(apply_overrides(default_config(), center_radius=29.999, enemy_speed=fast, **BLIND))
    assert cfg.intercept_skip and not apply_overrides(cfg, enemy_speed=fast + 2 * _MARGIN).intercept_skip
    (cx, cy), bound = cfg.center, _sight_bound(cfg)
    for slack, k in [(0.5, 1), (3.5, 4)]:
        world = _blind_world(cfg, enemies=[Enemy(0, (cx, cy - (bound + slack * cfg.enemy_move)), 90)])
        played = _check_stretch(world, cfg, k)
        assert played.outcome is None
        gap = distance(played.enemies[0].position, cfg.center)
        assert cfg.patrol_radius + cfg.detection_radius - fast < gap < bound


def test_an_enemy_spawned_in_a_stretch_makes_at_most_blind_moves_moves():
    cfg = validate(apply_overrides(default_config(), num_eas=2, first_spawn_step=103, enemy_spawn_period=4))
    world = _blind_world(cfg)
    window = cfg.blind_window
    assert window == 19
    k = dynamics.blind_steps(world, cfg)
    assert k == 2 + window
    stepped, played = _stepped_and_played(world, cfg, k)
    assert stepped == played
    assert [(e.kind, e.step) for e in played.events] == [("spawn", s) for s in range(103, 100 + k + 1, 4)]


@pytest.mark.parametrize("r, moves, k", [(35.0, 5, 16), (50.0, 20, 2)])
def test_a_returning_drone_shortens_the_window_of_an_enemy_spawned_in_the_stretch(r, moves, k):
    # A drone r from the centre widens the bound by r - patrol_radius: the
    # window of 19 moves loses that many moves, rounded up, down to none.
    cfg = validate(apply_overrides(default_config(), num_eas=2, first_spawn_step=103, enemy_spawn_period=4))
    world = _blind_world(cfg)
    d = _displaced(world, cfg, r)
    assert math.ceil((distance(d.position, cfg.center) - cfg.patrol_radius) / cfg.enemy_move) == moves
    played = _check_stretch(world, cfg, k)
    assert [(e.kind, e.step) for e in played.events] == [("spawn", s) for s in range(103, 100 + k + 1, 4)]


@pytest.mark.parametrize("first", [15, 1])
@pytest.mark.parametrize("num_eas", [0, 1, 2])
def test_a_stretch_from_step_0_runs_through_the_opening_without_agents(num_eas, first):
    # initial_world's drones stand on their circles with no arc point yet
    # and are played as returning drones; its agents have no orbit point
    # yet, so with agents step 0 starts no stretch. With the circles inside
    # no drone starts beyond a wall, the one case for which step() resolves
    # interceptions at step 1, which a spawn at step 1 puts in the stretch.
    cfg = validate(apply_overrides(default_config(), num_eas=num_eas, first_spawn_step=first))
    world = initial_world(cfg, random.Random(1))
    assert cfg.circles_inside and [d.arc for d in world.drones] == [None] * cfg.total_drones
    if num_eas:
        assert dynamics.blind_steps(world, cfg) == 0
        return
    opening = experiment.opening(cfg)
    assert opening.step == first - 1 + cfg.blind_window == first + 18
    played = _check_stretch(world, cfg, opening.step)

    def placed(d):
        return d.position, d.prev_position, d.arc, d.patrol_dir

    assert [placed(d) for d in played.drones] == [placed(d) for d in opening.drones]
    assert [(e.kind, e.step) for e in played.events] == [("spawn", s) for s in range(first, opening.step + 1, 15)]


def test_an_infinite_sight_bound_has_no_window_to_shorten():
    # Radii whose sum overflows: validate accepts them, sight_bound reads
    # inf and no window lies beyond it. The steps before the first spawn
    # are still blind, and a drone off its arc point (all of them at step
    # 0) takes nothing from the empty window.
    m = 4e307
    floor = SPEED_FLOOR_ULPS * math.ulp(m)
    fields = dict(map_size=m, center=(m / 2, m / 2), patrol_radius=m / 4, ea_orbit_radius=m / 8)
    fields.update(detection_radius=1.7e308, drone_speed=2 * floor, enemy_speed=floor, time_limit_steps=40)
    cfg = validate(apply_overrides(default_config(), **fields))
    assert (cfg.sight_bound, cfg.circles_inside, cfg.intercept_skip, cfg.blind_window) == (math.inf, True, True, 0)
    _check_stretch(initial_world(cfg, random.Random(1)), cfg, cfg.first_spawn - 1)
    assert play(cfg, 1, mix_seed(9, 1)) == play(cfg, 1, mix_seed(9, 1), *SHORTCUTS)


def test_a_stretch_that_reaches_the_time_limit_ends_the_episode_with_success():
    cfg = validate(apply_overrides(default_config(), **BLIND))
    world = _blind_world(cfg, at=cfg.time_limit_steps - 30)
    assert dynamics.blind_steps(world, cfg) == 30
    stepped, played = _stepped_and_played(world, cfg, 30)
    assert (played.step, played.outcome) == (cfg.time_limit_steps, "success")
    assert stepped == played


def _suspicious(world, cfg):
    world.eas[1].suspicion[3] = 1


def _pursuing(world, cfg):
    world.eas[0].pursue_target, world.eas[0].pursue_since = 2, world.step


def _off_the_arc(world, cfg):
    # Five outside its circle, drone 4 sees 5 farther than the sight bound:
    # an enemy 3 beyond that bound, on its bearing, is 8 from it. (A drone
    # off its arc with no enemy in its reach is played in the stretch.)
    d = _displaced(world, cfg, cfg.patrol_radius + 5.0)
    world.enemies = [Enemy(0, _on_bearing(cfg, d.position, _sight_bound(cfg) + 3.0), 90)]


@pytest.mark.parametrize(
    "overrides, change",
    [
        ({}, _suspicious),
        ({}, _pursuing),
        ({}, _off_the_arc),
        # Detection barely past the kill range: step() cannot skip interception.
        (dict(detection_radius=2.5), None),
        # The patrol circle crosses the west wall.
        (dict(center=(20.0, 60.0)), None),
    ],
)
def test_no_step_is_blind_with_an_agent_at_work_a_drone_off_its_arc_or_no_margin(overrides, change):
    base = validate(apply_overrides(default_config(), **BLIND))
    assert dynamics.blind_steps(_blind_world(base), base) == base.time_limit_steps - 100
    cfg = validate(apply_overrides(base, **overrides))
    world = _blind_world(cfg)
    if change is not None:
        change(world, cfg)
    assert dynamics.blind_steps(world, cfg) == 0


def test_blind_stretches_play_the_same_episodes_as_steps_one_by_one():
    # Forced off by a blind_steps that finds no blind step, every step goes
    # through step(); the stretches take fewer calls.
    calls = forced_off(STRETCH)
    assert unforced().calls["step"] < calls["step"], calls


_MARGIN = ON_CIRCLE_EPS + 1e-9 * 120.0


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([(60.0, 60.0), (40.0, 75.0), (85.0, 50.0), (20.0, 60.0)]),
    st.sampled_from([1, 2, 15, 30]),
    st.integers(0, 40),
    st.sampled_from([1.5, 3.6, 6.0]),
    st.sampled_from([10.0, 15.0, 20.0]),
    st.sampled_from([0.1, 0.3, 1.0, 2.5, None]),
    st.integers(1, 600),
    st.sampled_from([None, None, None, -1e-12, 0.0, 1e-9]),
    st.booleans(),
    st.integers(1, 1000),
)
# The defaults at 2 agents, cut at step 60 inside run 1's stretch of steps 46 to 64,
# which starts with drone 2 on its way back to its arc.
@example(2, 1, (60.0, 60.0), 15, 15, 3.6, 10.0, 1.0, 60, None, False, 1)
def test_blind_stretches_play_drawn_configs_as_steps_one_by_one(
    num_eas, num_malicious, center, period, first, drone_speed, detection, enemy_speed, limit, at_margin, failsafe, run
):
    # Centred and off-centre maps, one with a circle across a wall, spawns
    # up to every step, slow and fast drones that chase up to 20 past their
    # circle, slow enemies for long stretches and enemies as fast as
    # step()'s interception skip allows (None), time limits that may end
    # inside a stretch, and detection radii at that skip's margin: the same
    # records, events and final worlds with stretches and with every step
    # through step(), and with every shortcut of the table switched off.
    if enemy_speed is None:
        enemy_speed = detection - 2.0 - drone_speed - 2 * _MARGIN
    fields = dict(
        num_eas=num_eas,
        num_malicious=num_malicious,
        center=center,
        enemy_spawn_period=period,
        first_spawn_step=first,
        drone_speed=drone_speed,
        detection_radius=detection,
        enemy_speed=enemy_speed,
        time_limit_steps=limit,
        failsafe_enabled=failsafe,
    )
    if at_margin is not None:
        fields["detection_radius"] = 2.0 + drone_speed + enemy_speed + _MARGIN + at_margin
    cfg = validate(apply_overrides(default_config(), **fields))
    played = play(cfg, run, mix_seed(9, run))
    for shortcuts in [(STRETCH,), tuple(SHORTCUTS)]:
        assert play(cfg, run, mix_seed(9, run), *shortcuts) == played, (shortcuts, cfg)


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
        if cfg.circles_inside:
            # No clamp ran, and none was needed.
            assert all(0.0 <= c <= cfg.map_size for e in entities for c in e.position), overrides
    assert time.perf_counter() - started < 5.0
