"""Enforcement agents: observe drones, accumulate suspicion, pursue, reform.

An agent cannot read a drone's role. It infers intent from proximity: a drone
that sits near a detectable threat and keeps not moving toward it is accused
after suspicion_threshold consecutive violations, chased, and reformed on
contact. One clean observation deletes the count, which debounces drones that
are merely mid-turn.
"""

import math

from .config import ON_CIRCLE_EPS, TAU, SimConfig
from .world import (
    MALICIOUS,
    REFORMED,
    EnforcementAgentState,
    Event,
    Point2,
    WorldState,
    circle_step,
    clamp_to_map,
    distance,
    move_toward,
    nearest_enemy,  # noqa: F401  perfbench/tracing.py wraps this name; nothing here calls it
)

# A displacement counts as pursuit when it points at the nearest in-range
# threat within this cone.
PURSUIT_ANGLE_TOLERANCE_DEG = 15.0
_PURSUIT_MIN_COS = math.cos(math.radians(PURSUIT_ANGLE_TOLERANCE_DEG)) - 1e-12

# With the failsafe on, a pursuit that lasts more than this many suspicion
# thresholds ends the episode.
FAILSAFE_THRESHOLDS = 4


def _moved_toward(origin: Point2, end: Point2, target: Point2) -> bool:
    (ox, oy), (ex, ey), (gx, gy) = origin, end, target
    dx, dy = ex - ox, ey - oy
    tx, ty = gx - ox, gy - oy
    d_norm = math.hypot(dx, dy)
    t_norm = math.hypot(tx, ty)
    if d_norm == 0.0 or t_norm == 0.0:
        return False
    cos_angle = (dx * tx + dy * ty) / (d_norm * t_norm)
    return cos_angle >= _PURSUIT_MIN_COS


def observe(ea: EnforcementAgentState, world: WorldState, cfg: SimConfig) -> dict[int, bool]:
    """A verdict, by drone id, for every drone within monitor range of the
    agent that saw a threat this step or that the agent already suspects:
    True when the drone violates, i.e. it saw a threat this step and its
    move does not pursue it.

    A drone with no threat and no count gets no verdict, since a clean one
    would change nothing in the agent's map, and it is skipped before its
    distance is measured. The agent reads the scan the drone acted on
    (drone.threat, taken from drone.prev_position when it chose its move)
    and judges the move from prev_position to position against the pursuit
    cone. Fresh spawns inside monitor range are logged as entry-point
    events.
    """
    for e in world.enemies:
        if e.spawned_at == world.step and distance(ea.position, e.position) <= cfg.ea_monitor_radius:
            world.events.append(Event(step=world.step, kind="entry_point", data={"ea": ea.id, "enemy": e.id}))

    verdicts = {}
    suspicion = ea.suspicion
    for drone in world.drones:
        threat = drone.threat
        if threat is None and drone.id not in suspicion:
            continue
        if distance(ea.position, drone.position) > cfg.ea_monitor_radius:
            continue
        verdicts[drone.id] = threat is not None and not _moved_toward(
            drone.prev_position, drone.position, threat.position
        )
    return verdicts


def update_suspicion(ea: EnforcementAgentState, verdicts: dict[int, bool], world: WorldState, cfg: SimConfig) -> None:
    """Fold one round of verdicts into the agent's suspicion map.

    The map holds only positive counts: a violation adds one, a clean
    verdict deletes the drone's entry, and unobserved drones keep their
    counts. Crossing suspicion_threshold flips the agent into pursuit of the
    lowest-id offender and logs a suspicion-raised event.
    """
    suspicion = ea.suspicion
    for drone_id, violating in verdicts.items():
        if violating:
            suspicion[drone_id] = suspicion.get(drone_id, 0) + 1
        else:
            suspicion.pop(drone_id, None)

    target, threshold = None, cfg.suspicion_threshold
    for drone_id, count in suspicion.items():
        if count >= threshold and (target is None or drone_id < target):
            target = drone_id
    if target is not None and ea.pursue_target != target:
        ea.pursue_target = target
        ea.pursue_since = world.step
        world.events.append(
            Event(
                step=world.step,
                kind="suspicion_raised",
                data={"ea": ea.id, "drone": target, "count": suspicion[target]},
            )
        )


def _drone_by_id(world: WorldState, drone_id: int):
    return next(d for d in world.drones if d.id == drone_id)


def ea_policy(ea: EnforcementAgentState, world: WorldState, cfg: SimConfig) -> Point2:
    """Next position of the agent: along its orbit, or a straight chase
    that parks once the suspect is within reform range."""
    if ea.pursue_target is None:
        # Return to the orbit circle if displaced, else advance
        # counter-clockwise along it. Standing on the point it was last sent
        # to, the agent carries that point's angle; fmod keeps the carried
        # angle bounded.
        radius = cfg.ea_orbit_radius
        arc = ea.arc
        if arc is not None and arc[0] == ea.position:
            angle, on_orbit = arc[1], True
        else:
            (x, y), (cx, cy) = ea.position, cfg.center
            r = distance(ea.position, cfg.center)
            angle = 0.0 if r == 0.0 else math.atan2(y - cy, x - cx)
            on_orbit = abs(r - radius) <= ON_CIRCLE_EPS
        if not on_orbit:
            ea.arc = None
            return circle_step(ea.position, angle, radius, cfg)
        angle = math.fmod(angle + cfg.orbit_step, TAU)
        cx, cy = cfg.center
        target = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
        ea.arc = (target, angle)
        return target
    suspect = _drone_by_id(world, ea.pursue_target)
    if distance(ea.position, suspect.position) <= cfg.reform_radius:
        return ea.position
    return move_toward(ea.position, suspect.position, cfg.drone_speed)


def attempt_reformation(ea: EnforcementAgentState, world: WorldState, cfg: SimConfig) -> None:
    """Reform the pursued suspect if it is within reach.

    Reformation is terminal and idempotent: the drone is cleared from every
    agent's suspicion map and every agent chasing it goes back to patrol, so
    two agents arriving the same step yield exactly one reformation event.
    """
    if ea.pursue_target is None:
        return
    suspect = _drone_by_id(world, ea.pursue_target)
    if distance(ea.position, suspect.position) > cfg.reform_radius:
        return

    if suspect.role is MALICIOUS:
        suspect.role = REFORMED
        world.events.append(Event(step=world.step, kind="reformation", data={"ea": ea.id, "drone": suspect.id}))
        standing_down = world.eas
    else:
        # Raced by another agent, or a suspect that was never malicious:
        # this agent alone stands down and demands fresh evidence.
        standing_down = (ea,)
    for agent in standing_down:
        agent.suspicion.pop(suspect.id, None)
        if agent.pursue_target == suspect.id:
            agent.pursue_target = None
            agent.pursue_since = None


def failsafe_due(ea: EnforcementAgentState, world: WorldState, cfg: SimConfig) -> bool:
    """True when the failsafe is on and the agent's pursuit has lasted more
    than FAILSAFE_THRESHOLDS suspicion thresholds."""
    return (
        cfg.failsafe_enabled
        and ea.pursue_since is not None
        and world.step - ea.pursue_since > FAILSAFE_THRESHOLDS * cfg.suspicion_threshold
    )


def run_enforcement_phase(world: WorldState, cfg: SimConfig, threat: bool) -> bool:
    """One tick of every agent, in id order: observe, judge, move, reform.

    ``threat`` says whether some drone saw a threat this step, as
    world.threat_seen(world) reads it after drone motion. Returns True when
    the failsafe demands termination.
    """
    if not world.eas:
        return False
    # On a quiet step no drone saw a threat and no enemy spawned. observe
    # then gives an agent that suspects no drone no verdict and logs no entry
    # point, and update_suspicion changes nothing, so that agent skips both.
    step = world.step
    quiet = not threat
    if quiet:
        for e in world.enemies:
            if e.spawned_at == step:
                quiet = False
                break
    # As in dynamics.step: with cfg.circles_inside no target is off the map.
    inside = cfg.circles_inside
    failsafe_fired = False
    for ea in world.eas:
        if ea.suspicion or not quiet:
            update_suspicion(ea, observe(ea, world, cfg), world, cfg)
        target = ea_policy(ea, world, cfg)
        ea.position = target if inside else clamp_to_map(target, cfg)
        attempt_reformation(ea, world, cfg)
        if ea.pursue_since is not None and failsafe_due(ea, world, cfg):
            world.events.append(Event(step=world.step, kind="failsafe", data={"ea": ea.id, "drone": ea.pursue_target}))
            failsafe_fired = True
    return failsafe_fired
