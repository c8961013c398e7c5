"""World construction, geometry helpers, and breach detection."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel.config import apply_overrides, default_config
from sentinel.world import (
    COMPLIANT,
    MALICIOUS,
    Enemy,
    breach_occurred,
    clamp_to_map,
    distance,
    initial_world,
    move_toward,
)


def test_distance_identity_and_triangle():
    assert distance((60, 60), (60, 60)) == 0
    assert distance((0, 0), (3, 4)) == 5
    assert distance((0, 60), (60, 60)) == 60


def test_distance_is_symmetric():
    rng = random.Random(7)
    for _ in range(100):
        a = (rng.uniform(0, 120), rng.uniform(0, 120))
        b = (rng.uniform(0, 120), rng.uniform(0, 120))
        assert distance(a, b) == distance(b, a)
        assert (distance(a, b) == 0) == (a == b)


def test_clamp_saturates_at_the_walls():
    cfg = default_config()
    assert clamp_to_map((-3.0, 50.0), cfg) == (0.0, 50.0)
    assert clamp_to_map((125.0, 130.0), cfg) == (120.0, 120.0)
    assert clamp_to_map((60.0, 60.0), cfg) == (60.0, 60.0)


def test_clamp_matches_the_saturation_formula_bit_for_bit():
    # The plain saturation, down to the sign of zero; on the map, the
    # identity, which lets movers clamp every target off the centre.
    cfg = default_config()
    m = cfg.map_size

    def saturated(p):
        x, y = p
        return (min(max(x, 0.0), m), min(max(y, 0.0), m))

    def bits(v):
        return (v, math.copysign(1.0, v))

    edges = [0.0, -0.0, m, 1e308, -1e308]
    for edge in (0.0, m):
        edges += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    rng = random.Random(5)
    values = edges + [rng.uniform(-2.0 * m, 3.0 * m) for _ in range(500)]
    for x in values:
        for y in edges + [rng.choice(values)]:
            p = (x, y)
            got, want = clamp_to_map(p, cfg), saturated(p)
            assert list(map(bits, got)) == list(map(bits, want)), (x, y)
    on_map = [0.0, -0.0, m, math.nextafter(0.0, m), math.nextafter(m, 0.0)]
    on_map += [rng.uniform(0.0, m) for _ in range(500)]
    for x in on_map:
        for y in on_map[:5] + [rng.choice(on_map)]:
            p = (x, y)
            assert list(map(bits, clamp_to_map(p, cfg))) == list(map(bits, p)), (x, y)


def test_move_toward_never_overshoots():
    assert move_toward((0, 0), (10, 0), 4.0) == (4.0, 0.0)
    assert move_toward((0, 0), (1, 0), 4.0) == (1.0, 0.0)
    assert move_toward((5, 5), (5, 5), 4.0) == (5.0, 5.0)
    rng = random.Random(11)
    for _ in range(200):
        p = (rng.uniform(0, 120), rng.uniform(0, 120))
        t = (rng.uniform(0, 120), rng.uniform(0, 120))
        speed = rng.uniform(0.1, 5.0)
        moved = move_toward(p, t, speed)
        assert distance(p, moved) <= speed + 1e-9
        assert distance(moved, t) <= distance(p, t) + 1e-9


# Where a coordinate sits on a map of side m: on a wall, one ulp inside it,
# or a fraction of the way across.
SPOTS = st.one_of(st.sampled_from(["wall", "ulp", "ulp_far", "wall_far"]), st.floats(0.0, 1.0))


def _place(spot, m):
    named = {"wall": 0.0, "ulp": math.nextafter(0.0, m), "ulp_far": math.nextafter(m, 0.0), "wall_far": m}
    return named[spot] if isinstance(spot, str) else spot * m


@settings(max_examples=500)
@given(st.floats(min_value=1e-300, max_value=1e300), st.lists(SPOTS, min_size=4, max_size=4), st.data())
def test_a_move_between_two_points_on_the_map_stays_on_it(m, spots, data):
    # dynamics.step skips the clamp where every target is a circle point
    # or such a move. Each coordinate lands between the start's and the
    # target's, for a step of any size short of the gap, one ulp short of it
    # included.
    x0, y0, x1, y1 = (_place(spot, m) for spot in spots)
    p, target = (x0, y0), (x1, y1)
    gap = distance(p, target)
    fraction = data.draw(st.floats(min_value=0.0, max_value=1.0))
    scale = data.draw(st.floats(min_value=5e-324, max_value=1.0))
    for max_step in (gap * fraction, math.nextafter(gap, 0.0), m * scale):
        x, y = move_toward(p, target, max_step)
        assert min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1), (p, target, max_step)
        assert 0.0 <= x <= m and 0.0 <= y <= m


def test_initial_world_places_drones_evenly_on_the_patrol_circle():
    cfg = default_config()
    world = initial_world(cfg, random.Random(5))
    assert len(world.drones) == cfg.total_drones
    center = cx, cy = cfg.center
    for i, d in enumerate(world.drones):
        assert d.id == i
        assert abs(distance(d.position, center) - cfg.patrol_radius) < 1e-9
        angle = 2.0 * math.pi * i / cfg.total_drones
        expected = (
            cx + cfg.patrol_radius * math.cos(angle),
            cy + cfg.patrol_radius * math.sin(angle),
        )
        assert distance(d.position, expected) < 1e-9


def test_initial_world_draws_exactly_one_malicious_drone():
    cfg = default_config()
    for seed in range(30):
        world = initial_world(cfg, random.Random(seed))
        roles = [d.role for d in world.drones]
        assert roles.count(MALICIOUS) == 1
        assert roles.count(COMPLIANT) == 5


def test_initial_world_spreads_eas_on_their_orbit():
    cfg = apply_overrides(default_config(), num_eas=2)
    world = initial_world(cfg, random.Random(5))
    assert len(world.eas) == 2
    center = cfg.center
    for ea in world.eas:
        assert abs(distance(ea.position, center) - cfg.ea_orbit_radius) < 1e-9
        assert ea.pursue_target is None
        assert ea.suspicion == {}
    # two agents start on opposite sides of the circle
    assert abs(distance(world.eas[0].position, world.eas[1].position) - 2 * cfg.ea_orbit_radius) < 1e-9


def test_initial_world_with_zero_eas_has_empty_ea_list():
    world = initial_world(default_config(), random.Random(9))
    assert world.eas == []
    assert world.enemies == []
    assert world.step == 0
    assert world.outcome is None


def test_initial_world_is_deterministic_per_seed():
    cfg = apply_overrides(default_config(), num_eas=2)
    a = initial_world(cfg, random.Random(42))
    b = initial_world(cfg, random.Random(42))
    assert a == b
    c = initial_world(cfg, random.Random(43))
    roles_differ_somewhere = any(
        initial_world(cfg, random.Random(s)) != initial_world(cfg, random.Random(42)) for s in range(43, 60)
    )
    assert c.step == 0
    assert roles_differ_somewhere


def test_malicious_draw_is_uniform_enough_across_seeds():
    # Every drone index should get picked as the defector for some seed.
    cfg = default_config()
    picked = set()
    for seed in range(200):
        world = initial_world(cfg, random.Random(seed))
        picked.add(next(d.id for d in world.drones if d.role is MALICIOUS))
    assert picked == set(range(cfg.total_drones))


def test_breach_true_only_inside_center_radius():
    cfg = default_config()
    world = initial_world(cfg, random.Random(1))
    assert not breach_occurred(world, cfg)
    world.enemies.append(Enemy(id=0, position=(60.0, 60.0), spawned_at=0))
    assert breach_occurred(world, cfg)
    world.enemies[0].position = (60.0, 66.0)
    assert not breach_occurred(world, cfg)
    world.enemies[0].position = (60.0, 65.0)
    assert breach_occurred(world, cfg)
