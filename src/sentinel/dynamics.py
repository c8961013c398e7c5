"""Per-step behavior: spawning, drone and enemy policies, interception.

step() applies one tick in a fixed sub-step order so that episodes are pure
functions of (config, seed): spawn, drone motion, enforcement, enemy motion,
interception, termination checks. All sub-steps of a call are stamped with
the step index the call advances the world to. A policy returns the position
its entity moves to. A drone's or an agent's is clamped to the map; an
enemy's needs no clamp, since it stops on the centre.
"""

import math
import random

from . import enforcement
from .config import SimConfig
from .world import (
    MALICIOUS,
    ON_CIRCLE_EPS,
    Drone,
    Enemy,
    Event,
    Point2,
    WorldState,
    breach_occurred,
    circle_step,
    clamp_to_map,
    distance,
    move_toward,
    nearest_enemy,
    threat_seen,
)


class SteppingTerminatedEpisode(RuntimeError):
    """Raised when step() is called on a world whose outcome is already set."""


def _wrap_angle(a: float) -> float:
    """Fold an angle into [-pi, pi)."""
    return math.atan2(math.sin(a), math.cos(a))


def _fold_into_sector(offset: float, half_width: float, direction: int) -> tuple[float, int]:
    # Reflect the angular offset back into [-half_width, half_width],
    # flipping the sweep direction once per bounce. A whole period of
    # 4 * half_width bounces twice, so dropping whole periods first keeps the
    # direction and bounds the loop for any finite offset.
    if abs(offset) > 3.0 * half_width:
        offset = math.fmod(offset, 4.0 * half_width)
    while offset > half_width or offset < -half_width:
        if offset > half_width:
            offset = 2.0 * half_width - offset
        else:
            offset = -2.0 * half_width - offset
        direction = -direction
    return offset, direction


def _sector_patrol_move(drone: Drone, cfg: SimConfig) -> Point2:
    """Target position for one patrol step along the drone's own sector arc.

    Off the arc (after a pursuit) the drone heads straight back to the
    nearest point of its arc; on it, it sweeps at drone_speed, reversing at
    the sector boundaries. Updates drone.patrol_dir and drone.arc as it goes.
    """
    radius = cfg.patrol_radius
    half = math.pi / cfg.total_drones
    sector_center = 2.0 * math.pi * drone.id / cfg.total_drones

    if drone.arc is not None and drone.arc[0] == drone.position:
        offset, on_arc = drone.arc[1], True
    else:
        r = distance(drone.position, cfg.center)
        if r == 0.0:
            offset = 0.0
        else:
            (x, y), (cx, cy) = drone.position, cfg.center
            offset = _wrap_angle(math.atan2(y - cy, x - cx) - sector_center)
        on_arc = abs(r - radius) <= ON_CIRCLE_EPS and abs(offset) <= half + 1e-12

    if not on_arc:
        drone.arc = None
        return circle_step(drone.position, sector_center + min(max(offset, -half), half), radius, cfg)
    offset += drone.patrol_dir * (cfg.drone_speed / radius)
    if offset > half or offset < -half:
        offset, drone.patrol_dir = _fold_into_sector(offset, half, drone.patrol_dir)
    cx, cy = cfg.center
    angle = sector_center + offset
    target = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    drone.arc = (target, offset)
    return target


def compliant_policy(drone: Drone, world: WorldState, cfg: SimConfig) -> Point2:
    """Next position of a cooperating drone: toward the nearest detected
    threat, otherwise along the own sector. Stores the threat as
    drone.threat, as every policy does."""
    enemy = drone.threat = nearest_enemy(drone.position, world.enemies, cfg.detection_radius)
    if enemy is not None:
        return move_toward(drone.position, enemy.position, cfg.drone_speed)
    return _sector_patrol_move(drone, cfg)


def malicious_policy(drone: Drone, world: WorldState, cfg: SimConfig) -> Point2:
    """Next position of a defecting drone: it sees the threat like any
    drone, but patrols as usual and never pursues."""
    drone.threat = nearest_enemy(drone.position, world.enemies, cfg.detection_radius)
    return _sector_patrol_move(drone, cfg)


def enemy_policy(enemy: Enemy, cfg: SimConfig) -> Point2:
    """Next position: enemy_speed straight toward the protected center,
    stopping on it; bit for bit move_toward(p, cfg.center, cfg.enemy_speed)
    without the call."""
    p = enemy.position
    gap = distance(p, cfg.center)
    if gap <= cfg.enemy_speed:
        return cfg.center
    (x, y), (cx, cy) = p, cfg.center
    f = cfg.enemy_speed / gap
    return (x + (cx - x) * f, y + (cy - y) * f)


def _perimeter_point(u: float, cfg: SimConfig) -> Point2:
    """Map u in [0, 4*map_size) onto the boundary, walking it edge by edge."""
    m = cfg.map_size
    side, along = divmod(u, m)
    side = int(side) % 4
    if side == 0:
        return (along, 0.0)
    if side == 1:
        return (m, along)
    if side == 2:
        return (m - along, m)
    return (0.0, m - along)


def spawn_enemies(world: WorldState, cfg: SimConfig, rng: random.Random) -> None:
    """Append one enemy on the boundary when the current step is a spawn step."""
    due = world.step >= cfg.first_spawn_step and (world.step - cfg.first_spawn_step) % cfg.enemy_spawn_period == 0
    if not due:
        return
    pos = _perimeter_point(rng.uniform(0.0, 4.0 * cfg.map_size), cfg)
    enemy = Enemy(id=world.next_enemy_id, position=pos, spawned_at=world.step)
    world.next_enemy_id += 1
    world.enemies.append(enemy)
    world.events.append(Event(step=world.step, kind="spawn", data={"enemy": enemy.id}))


def resolve_interceptions(world: WorldState, cfg: SimConfig) -> None:
    """Remove every enemy within intercept range of a non-malicious drone.

    Each removed enemy is logged as exactly one interception event, credited
    to the nearest qualifying drone (lowest id on ties).
    """
    if not world.enemies:
        return
    interceptors = [d for d in world.drones if d.role is not MALICIOUS]
    survivors = []
    for enemy in world.enemies:
        best = None
        for d in interceptors:
            gap = distance(d.position, enemy.position)
            if gap <= cfg.intercept_radius and (best is None or gap < best_gap or (gap == best_gap and d.id < best.id)):
                best, best_gap = d, gap
        if best is None:
            survivors.append(enemy)
        else:
            world.events.append(
                Event(step=world.step, kind="interception", data={"enemy": enemy.id, "drone": best.id})
            )
    world.enemies = survivors


def step(world: WorldState, cfg: SimConfig, rng: random.Random) -> None:
    """Advance the world one tick; world.outcome is set once the episode
    ends. Raises SteppingTerminatedEpisode if it already has an outcome."""
    if world.outcome is not None:
        raise SteppingTerminatedEpisode(f"episode ended with {world.outcome} at step {world.step}")

    world.step += 1

    # 1) spawning
    spawn_enemies(world, cfg, rng)

    # 2) drone motion; each drone keeps the threat it saw and the position it
    #    moved from. No policy reads another drone, so each moves as soon as
    #    it has chosen, and every choice is still made from the pre-move world.
    #    Here, as for agents, a target is clamped only when it is off the
    #    map: the inline test is the one clamp_to_map starts with, and it
    #    saves a call per move.
    m = cfg.map_size
    for d in world.drones:
        x, y = target = malicious_policy(d, world, cfg) if d.role is MALICIOUS else compliant_policy(d, world, cfg)
        d.prev_position = d.position
        d.position = target if 0.0 <= x <= m and 0.0 <= y <= m else clamp_to_map(target, cfg)

    # Only the drone policies write drone.threat: one read serves the step.
    threat = threat_seen(world)

    # 3) enforcement agents observe, judge, move, and possibly reform
    if enforcement.run_enforcement_phase(world, cfg, threat):
        world.outcome = "fail"
        return

    # 4) enemy motion: from a point on the map straight toward a centre that
    #    validate keeps strictly inside it, never past it, so no clamp.
    for e in world.enemies:
        e.position = enemy_policy(e, cfg)

    # 5) interception, skipped when it cannot catch anything. A drone that
    #    saw no threat had every enemy farther than detection_radius from
    #    where it stood; it then moved at most drone_speed (ON_CIRCLE_EPS more
    #    if it counted as on its arc while that far off it) and each enemy at
    #    most enemy_speed. A clamp only shortens a move that starts on the
    #    map, as every move does after the first step: initial_world may place
    #    a drone beyond a wall. So after the first step, with no threat seen
    #    and the slack above that tolerance plus a rounding margin, no enemy
    #    is within intercept_radius of any drone.
    if (
        threat
        or cfg.detection_radius - cfg.intercept_radius - cfg.drone_speed - cfg.enemy_speed
        <= ON_CIRCLE_EPS + 1e-9 * cfg.map_size
        or world.step == 1
    ):
        resolve_interceptions(world, cfg)

    # 6) termination: breach beats the time limit when both hold
    if breach_occurred(world, cfg):
        world.outcome = "fail"
        world.events.append(Event(step=world.step, kind="breach", data={}))
    elif world.step >= cfg.time_limit_steps:
        world.outcome = "success"
