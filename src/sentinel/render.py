"""Dependency-free rasterizer: a world's state to a binary portable pixmap."""

import math
import sys
from dataclasses import dataclass

from .config import SimConfig
from .world import COMPLIANT, MALICIOUS, REFORMED, WorldState

WHITE = (255, 255, 255)
ZONE_GRAY = (200, 200, 200)
ENEMY_BLACK = (0, 0, 0)
EA_ORANGE = (255, 140, 0)
ROLE_COLORS = {
    COMPLIANT: (0, 170, 0),
    MALICIOUS: (220, 0, 0),
    REFORMED: (0, 0, 220),
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
