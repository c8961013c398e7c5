"""Rasterizer: colors, draw order, map geometry, the portable-pixmap encoding."""

import math
import random
import sys
import tracemalloc

import pytest

from sentinel.config import apply_overrides, default_config
from sentinel.render import (
    EA_ORANGE,
    ENEMY_BLACK,
    ENTITY_RADIUS_PX,
    Frame,
    ROLE_COLORS,
    SCALE,
    WHITE,
    ZONE_GRAY,
    _fill_disc,
    frame_side,
    ppm_bytes,
    render_frame,
    round_half_up,
    write_image,
)
from sentinel.world import (
    COMPLIANT,
    MALICIOUS,
    REFORMED,
    Drone,
    Enemy,
    EnforcementAgentState,
    WorldState,
    initial_world,
)


def empty_world():
    return WorldState(step=0, drones=[], enemies=[], eas=[])


def pixel(frame, x, y):
    base = (y * frame.width + x) * 3
    return tuple(frame.pixels[base : base + 3])


def color_counts(frame):
    counts = {}
    for i in range(0, len(frame.pixels), 3):
        c = tuple(frame.pixels[i : i + 3])
        counts[c] = counts.get(c, 0) + 1
    return counts


def disc_cardinality(radius):
    span = int(radius) + 1
    return sum(
        1
        for dy in range(-span, span + 1)
        for dx in range(-span, span + 1)
        if dx * dx + dy * dy <= radius * radius
    )


def fill_disc_per_pixel(frame, cx, cy, radius, color):
    """Reference for _fill_disc: test every pixel of the frame on its own."""
    for py in range(frame.height):
        for px in range(frame.width):
            if (px - cx) ** 2 + (py - cy) ** 2 <= radius * radius:
                base = (py * frame.width + px) * 3
                frame.pixels[base : base + 3] = bytes(color)


def test_disc_fill_matches_the_per_pixel_reference_randomized():
    rng = random.Random(7)
    # Zero, fractional, the entity and default zone radii, one ulp either side
    # of an integer, and a zone radius whose square overflows to inf.
    radii = [0.0, 0.5, 1.5, 2.7, ENTITY_RADIUS_PX, 20.0, 4e300]
    radii += [math.nextafter(float(k), toward) for k in (1, 2, 3, 20) for toward in (0.0, math.inf)]
    for _ in range(2000):
        width, height = rng.randint(1, 30), rng.randint(1, 30)
        radius = rng.choice(radii + [rng.uniform(0.0, 25.0)])
        reach = min(math.ceil(radius), 40)
        # Centres inside, on and just past every edge, and beyond the disc's reach.
        cx, cy = (
            rng.choice([-reach - 1, -reach, -1, 0, rng.randrange(side), side - 1, side, side + reach, side + reach + 1])
            for side in (width, height)
        )
        color = tuple(rng.randrange(256) for _ in range(3))
        background = bytes(rng.randrange(256) for _ in range(width * height * 3))
        fast = Frame(width, height, bytearray(background))
        slow = Frame(width, height, bytearray(background))
        _fill_disc(fast, cx, cy, radius, color)
        fill_disc_per_pixel(slow, cx, cy, radius, color)
        assert fast.pixels == slow.pixels, (width, height, cx, cy, radius)


def test_round_half_up_behavior():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(3.0) == 3


def test_ppm_encoding_of_the_two_pixel_reference_frame():
    frame = Frame(width=2, height=1, pixels=bytearray([255, 255, 255, 0, 0, 0]))
    assert ppm_bytes(frame) == b"P6\n2 1\n255\n\xff\xff\xff\x00\x00\x00"


def test_default_scale_yields_480_square_frames():
    frame = render_frame(empty_world(), default_config())
    assert frame.width == 480
    assert frame.height == 480
    assert len(frame.pixels) == 480 * 480 * 3


def test_a_200_unit_map_draws_an_800_pixel_frame():
    cfg = apply_overrides(default_config(), map_size=200.0, center=(100.0, 100.0))
    world = empty_world()
    world.drones.append(Drone(id=0, position=(160.0, 100.0), role=COMPLIANT))
    frame = render_frame(world, cfg)
    assert (frame.width, frame.height) == (800, 800)
    assert pixel(frame, 400, 400) == ZONE_GRAY
    assert pixel(frame, 640, 400) == ROLE_COLORS[COMPLIANT]


def test_rendering_builds_the_canvas_bytes_once():
    cfg = default_config()
    world = initial_world(cfg, random.Random(1))
    tracemalloc.start()
    try:
        frame = render_frame(world, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frame.pixels) == 691_200
    # Building the white bytes twice, as a bytes object and then its copy,
    # would peak at twice the frame.
    assert peak < 1.5 * len(frame.pixels)


def test_frame_side_accepts_the_largest_indexable_canvas_only():
    # The largest side whose RGB canvas fits an index, found without allocating it.
    side = math.isqrt(sys.maxsize // 3)
    assert frame_side(apply_overrides(default_config(), map_size=side / SCALE)) == side
    with pytest.raises(ValueError, match=f"cannot draw a {side + 1}x{side + 1} frame: too large"):
        frame_side(apply_overrides(default_config(), map_size=(side + 1) / SCALE))


def test_empty_world_shows_only_background_and_zone():
    cfg = default_config()
    frame = render_frame(empty_world(), cfg)
    counts = color_counts(frame)
    assert set(counts) == {WHITE, ZONE_GRAY}
    assert counts[ZONE_GRAY] == disc_cardinality(cfg.center_radius * 4)
    assert pixel(frame, 240, 240) == ZONE_GRAY


def test_one_reformed_drone_paints_exactly_one_blue_disc():
    world = empty_world()
    world.drones.append(Drone(id=0, position=(30.0, 30.0), role=REFORMED))
    frame = render_frame(world, default_config())
    counts = color_counts(frame)
    blue = ROLE_COLORS[REFORMED]
    assert counts[blue] == disc_cardinality(ENTITY_RADIUS_PX)
    assert pixel(frame, 120, 120) == blue


def test_each_entity_kind_has_its_own_color():
    world = empty_world()
    world.drones.append(Drone(id=0, position=(20.0, 20.0), role=COMPLIANT))
    world.drones.append(Drone(id=1, position=(40.0, 20.0), role=MALICIOUS))
    world.enemies.append(Enemy(id=0, position=(20.0, 40.0), spawned_at=0))
    world.eas.append(EnforcementAgentState(id=0, position=(40.0, 40.0)))
    frame = render_frame(world, default_config())
    assert pixel(frame, 80, 80) == ROLE_COLORS[COMPLIANT]
    assert pixel(frame, 160, 80) == ROLE_COLORS[MALICIOUS]
    assert pixel(frame, 80, 160) == ENEMY_BLACK
    assert pixel(frame, 160, 160) == EA_ORANGE


def test_draw_order_puts_agents_above_drones_above_zone():
    cfg = default_config()
    world = empty_world()
    world.drones.append(Drone(id=0, position=(60.0, 60.0), role=COMPLIANT))
    frame = render_frame(world, cfg)
    assert pixel(frame, 240, 240) == ROLE_COLORS[COMPLIANT]
    world.eas.append(EnforcementAgentState(id=0, position=(60.0, 60.0)))
    frame = render_frame(world, cfg)
    assert pixel(frame, 240, 240) == EA_ORANGE


def test_entities_at_the_border_render_without_errors():
    world = empty_world()
    world.enemies.append(Enemy(id=0, position=(0.0, 0.0), spawned_at=0))
    world.enemies.append(Enemy(id=1, position=(120.0, 120.0), spawned_at=0))
    frame = render_frame(world, default_config())
    assert pixel(frame, 0, 0) == ENEMY_BLACK
    assert pixel(frame, 479, 479) == ENEMY_BLACK


def test_rendering_is_deterministic():
    cfg = apply_overrides(default_config(), num_eas=2)
    world = initial_world(cfg, random.Random(9))
    a = render_frame(world, cfg)
    b = render_frame(world, cfg)
    assert ppm_bytes(a) == ppm_bytes(b)


def test_write_image_round_trips_the_bytes(tmp_path):
    cfg = default_config()
    frame = render_frame(initial_world(cfg, random.Random(4)), cfg)
    path = tmp_path / "frame.ppm"
    write_image(frame, path)
    assert path.read_bytes() == ppm_bytes(frame)


def test_write_image_surfaces_io_errors_with_the_path(tmp_path):
    frame = Frame(width=1, height=1, pixels=bytearray([0, 0, 0]))
    missing = tmp_path / "no_such_dir" / "frame.ppm"
    with pytest.raises(OSError) as err:
        write_image(frame, missing)
    assert "no_such_dir" in str(err.value)

