"""Dependency-free rasterizer: world snapshots to binary portable pixmaps,
and the snapshot text format that the render CLI reads."""

import math
import sys
from dataclasses import dataclass

from .config import SimConfig, apply_overrides, default_config
from .world import Drone, DroneRole, Enemy, EnforcementAgentState, Outcome, Point2, WorldState

WHITE = (255, 255, 255)
ZONE_GRAY = (200, 200, 200)
ENEMY_BLACK = (0, 0, 0)
EA_ORANGE = (255, 140, 0)
ROLE_COLORS = {
    DroneRole.COMPLIANT: (0, 170, 0),
    DroneRole.MALICIOUS: (220, 0, 0),
    DroneRole.REFORMED: (0, 0, 220),
}

ENTITY_RADIUS_PX = 2
SCALE = 4  # pixels per map unit


@dataclass
class Frame:
    width: int
    height: int
    pixels: bytearray  # row-major RGB, 3 bytes per pixel


def round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def _fill_disc(frame: Frame, cx: int, cy: int, radius: float, color: tuple[int, int, int]) -> None:
    """Paint the pixels with dx*dx + dy*dy <= radius*radius, clipped to the
    frame, as one run of bytes per row."""
    span = int(math.ceil(radius))
    # dx*dx + dy*dy is an integer, so the floor of the square admits the same
    # pixels; the cap, which no pixel of the span box exceeds, keeps a square
    # that overflowed to inf from breaking the floor.
    limit = math.floor(min(radius * radius, 2 * span * span))
    run, width = bytes(color), frame.width
    for py in range(max(0, cy - span), min(frame.height, cy + span + 1)):
        room = limit - (py - cy) ** 2
        if room >= 0:
            half = math.isqrt(room)
            x0, x1 = max(0, cx - half), min(width, cx + half + 1)
            if x0 < x1:  # an empty run's stop could index from the end
                frame.pixels[(py * width + x0) * 3 : (py * width + x1) * 3] = run * (x1 - x0)


def _px(v: float) -> int:
    return round_half_up(v * SCALE)


def frame_side(cfg: SimConfig) -> int:
    """Pixel side of cfg's square frame; a ValueError, allocating nothing, if too large."""
    side = _px(cfg.map_size)
    if 3 * side * side > sys.maxsize:
        raise ValueError(f"cannot draw a {side}x{side} frame: too large")
    return side


def render_frame(world: WorldState, cfg: SimConfig) -> Frame:
    """Rasterize the world: white ground, gray protected zone, then enemies,
    drones, and enforcement agents as small discs, in that draw order.

    World x maps to pixel column, world y to pixel row; coordinates are
    rounded half up after scaling by SCALE.
    """
    side = frame_side(cfg)
    try:
        frame = Frame(width=side, height=side, pixels=bytearray(WHITE) * (side * side))
    except MemoryError:
        raise ValueError(f"cannot draw a {side}x{side} frame: too large") from None
    cx, cy = cfg.center
    _fill_disc(frame, _px(cx), _px(cy), cfg.center_radius * SCALE, ZONE_GRAY)
    for e in world.enemies:
        x, y = e.position
        _fill_disc(frame, _px(x), _px(y), ENTITY_RADIUS_PX, ENEMY_BLACK)
    for d in world.drones:
        x, y = d.position
        _fill_disc(frame, _px(x), _px(y), ENTITY_RADIUS_PX, ROLE_COLORS[d.role])
    for ea in world.eas:
        x, y = ea.position
        _fill_disc(frame, _px(x), _px(y), ENTITY_RADIUS_PX, EA_ORANGE)
    return frame


def _ppm_header(frame: Frame) -> bytes:
    return f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")


def ppm_bytes(frame: Frame) -> bytes:
    """Binary portable pixmap encoding: P6 header, then raw RGB rows."""
    return _ppm_header(frame) + bytes(frame.pixels)


def write_image(frame: Frame, dest) -> None:
    """Write the frame as a P6 file; I/O failures surface with the path."""
    with open(dest, "wb") as fh:
        fh.write(_ppm_header(frame))
        fh.write(frame.pixels)


# --- debug snapshots ---------------------------------------------------------
# Line-oriented text, one entity per line. A debugging aid and the input of
# the render CLI, not a stability contract. The map line carries the
# geometry that rendering needs; a snapshot without it is read as the
# default map. The last token of an ea line is the pursued drone id, or "-"
# while the agent patrols.


def write_snapshot(world: WorldState, cfg: SimConfig) -> str:
    cx, cy = cfg.center
    lines = [f"map {cfg.map_size!r} {cx!r} {cy!r} {cfg.center_radius!r}", f"step {world.step}"]
    if world.outcome is not None:
        lines.append(f"outcome {world.outcome.value}")
    for d in world.drones:
        lines.append(f"drone {d.id} {d.position[0]!r} {d.position[1]!r} {d.role.value}")
    for e in world.enemies:
        lines.append(f"enemy {e.id} {e.position[0]!r} {e.position[1]!r} -")
    for ea in world.eas:
        target = "-" if ea.pursue_target is None else ea.pursue_target
        lines.append(f"ea {ea.id} {ea.position[0]!r} {ea.position[1]!r} {target}")
    return "\n".join(lines) + "\n"


class SnapshotError(ValueError):
    pass


def _point(x: str, y: str) -> Point2:
    # Rendering scales every coordinate to a pixel, so both must be finite.
    p = (float(x), float(y))
    if not all(math.isfinite(v) and math.isfinite(v * SCALE) for v in p):
        raise ValueError(f"coordinates {x} {y} must be finite, also at {SCALE} pixels per unit")
    return p


def read_snapshot(text: str) -> tuple[WorldState, SimConfig]:
    """Rebuild the renderable part of a world from snapshot text, with the
    default config carrying the snapshot's map geometry.

    Only what rendering reads is checked: map values and entity
    coordinates that stay finite once scaled to pixels, the center strictly
    inside the map, and a positive center radius.
    """
    world = WorldState(step=0, drones=[], enemies=[], eas=[])
    cfg = default_config()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            head = parts[0]
            if head == "map":
                size, x, y, radius = values = tuple(map(float, parts[1:]))
                in_pixels = all(math.isfinite(v * SCALE) for v in values)
                if not (in_pixels and 0 < x < size and 0 < y < size and radius > 0):
                    raise ValueError("map values must be finite in pixels, the center strictly inside, the radius positive")
                cfg = apply_overrides(cfg, map_size=size, center=(x, y), center_radius=radius)
            elif head == "step":
                world.step = int(parts[1])
            elif head == "outcome":
                world.outcome = Outcome(parts[1])
            elif head == "drone":
                _, ident, x, y, role = parts
                world.drones.append(Drone(id=int(ident), position=_point(x, y), role=DroneRole(role)))
            elif head == "enemy":
                _, ident, x, y, _mark = parts
                world.enemies.append(Enemy(id=int(ident), position=_point(x, y), spawned_at=0))
                world.next_enemy_id = max(world.next_enemy_id, int(ident) + 1)
            elif head == "ea":
                _, ident, x, y, target = parts
                pursued = None if target == "-" else int(target)
                world.eas.append(EnforcementAgentState(int(ident), _point(x, y), pursue_target=pursued))
            else:
                raise ValueError(f"unknown entity kind {head!r}")
        except (ValueError, IndexError) as exc:
            raise SnapshotError(f"line {line_no}: {exc}") from None
    return world, cfg
