"""Per-step behavior: spawning, drone and enemy policies, interception.

step() applies one tick in a fixed sub-step order so that episodes are pure
functions of (config, seed): spawn, drone motion, enforcement, enemy motion,
interception, termination checks. All sub-steps of a call are stamped with
the step index the call advances the world to. A policy returns the position
its entity moves to. Each step skips work that cannot change a byte, and
each skip is argued where it is made: the clamp and the inline play of a
drone on its arc point in step()'s drone loop, quiet steps at its
interception skip, and blind stretches at blind_steps: among them a drone's
return to its arc, the step in which an enemy crosses into sight and the
opening every episode shares. Each drone scans once in every step() call.
"""

import math
import random

from . import enforcement
from .config import ON_CIRCLE_EPS, TAU, SimConfig
from .world import (
    MALICIOUS,
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


def _sweep(drone: Drone, offset: float, cfg: SimConfig) -> Point2:
    """The arc point one patrol step on from sector offset ``offset``, where
    the drone stands: the offset moves by patrol_step in patrol_dir (+1 or
    -1, so a subtraction is bit for bit the step times -1), reversing at the
    sector boundaries. Updates drone.patrol_dir and drone.arc."""
    half = cfg.half_sector
    if drone.patrol_dir > 0:
        offset += cfg.patrol_step
    else:
        offset -= cfg.patrol_step
    if offset > half or offset < -half:
        offset, drone.patrol_dir = _fold_into_sector(offset, half, drone.patrol_dir)
    (cx, cy), radius = cfg.center, cfg.patrol_radius
    angle = cfg.sector_centers[drone.id] + offset
    target = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    drone.arc = (target, offset)
    return target


def _sector_patrol_move(drone: Drone, cfg: SimConfig) -> Point2:
    """Target position for one patrol step along the drone's own sector arc.

    Off the arc (after a pursuit) the drone heads straight back to the
    nearest point of its arc; on it, it sweeps (_sweep). Updates
    drone.patrol_dir and drone.arc as it goes.
    """
    arc = drone.arc
    if arc is not None and arc[0] == drone.position:
        return _sweep(drone, arc[1], cfg)
    half, sector_center = cfg.half_sector, cfg.sector_centers[drone.id]
    r = distance(drone.position, cfg.center)
    if r == 0.0:
        offset = 0.0
    else:
        (x, y), (cx, cy) = drone.position, cfg.center
        a = math.atan2(y - cy, x - cx) - sector_center
        offset = math.atan2(math.sin(a), math.cos(a))  # folded into [-pi, pi)
    if abs(r - cfg.patrol_radius) <= ON_CIRCLE_EPS and abs(offset) <= half + 1e-12:
        return _sweep(drone, offset, cfg)
    drone.arc = None
    return circle_step(drone.position, sector_center + min(max(offset, -half), half), cfg.patrol_radius, cfg)


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


def _next_spawn(s: int, cfg: SimConfig) -> int:
    """The first spawn step after step s."""
    first, period = cfg.first_spawn, cfg.enemy_spawn_period
    return first if s < first else s + period - (s - first) % period


def blind_steps(world: WorldState, cfg: SimConfig) -> int:
    """How many of the next steps are blind, for play_blind to play at once.

    A step is blind when no drone sees an enemy, no agent sees a fresh spawn
    and no enemy breaches. With every agent idle (no suspicion, no pursuit)
    on its orbit point, no agent then logs an entry point or changes a
    count, and with cfg.intercept_skip, step()'s interception skip, none is
    intercepted. Such a step draws from the rng only to spawn, logs only
    spawns, moves each drone as _sector_patrol_move does and orbits each
    agent, whatever the roles.

    With cfg.circles_inside, no drone or agent sees an enemy that lies, when
    the drones scan, farther from the centre than one bound. For drones and
    agents on their circles that bound is cfg.sight_bound (triangle
    inequality), up to rounding. A drone off its arc point, at a distance r
    from the centre, widens it by r - patrol_radius if that is positive:
    seeing nothing, it heads for a point of its circle, so by convexity it
    stays within max(r, patrol_radius) of the centre, up to a few ulps a
    step, and on the map, as step() argues for every move. Widening
    sight_bound rather than the drones' own reach is sound, as sight_bound
    is never below that reach: patrol_radius + detection_radius and its
    margin.

    A stretch may start at step 0, where initial_world's drones stand on
    their circles with no arc point yet and are played as returning drones.
    Its agents have no orbit point yet, so at step 0 a world with agents has
    no stretch. step() resolves interceptions at step 1 only for a drone
    that initial_world placed beyond a wall, which cfg.circles_inside rules
    out.

    So the count is capped by the time limit, by each live enemy and, for an
    enemy spawned in the stretch, by cfg.blind_window. Drones scan before
    enemies move, so an enemy beyond the bound is unseen in the step whose
    move takes it across: a slack d - bound > 0 allows ceil(slack /
    cfg.enemy_move) steps. No such move breaches: it ends farther than
    patrol_radius + detection_radius - enemy_speed from the centre, where
    cfg.intercept_skip makes detection_radius > enemy_speed and validate
    makes center_radius < patrol_radius. cfg.blind_window counts the moves
    an enemy makes from the boundary, no nearer the centre than its nearest
    edge, before it can come within sight_bound; a widened bound shortens it
    by ceil(widening / enemy_move), as floor(a - b) >= floor(a) - ceil(b).
    Every step from the first spawn through that window is blind, so every
    episode reaches the same drones and agents there: experiment's opening.

    cfg.enemy_move is enemy_speed * (1 + 1/64): a move closes at most
    enemy_speed and its rounding, which validate's speed floor keeps below
    1/256 of it. So at the j-th step of a stretch an enemy still lies at
    least (j - 1) * 3/256 * enemy_speed beyond the bound, 12 ulp(map_size) a
    move at the speed floor, above the rounding of circle points, distances
    and a returning drone's moves: a circle point lies at most 1 ulp beyond
    its circle (20,000 points at maps from 1e-300 to 1e300). At the first
    step of a stretch no enemy has moved, and each lies beyond the bound. A drone at a
    distance r from the centre then lies farther than detection_radius from
    each enemy by the triangle inequality, as the bound is at least r +
    detection_radius: sight_bound for a drone on its circle, whose margin
    covers the rounding of its circle point and of the scan, and the
    widened bound for a drone off its arc point.
    """
    # An enemy in sight is the likeliest refusal, so it is looked for first.
    s, center, bound = world.step, cfg.center, cfg.sight_bound
    near = math.inf
    for e in world.enemies:
        gap = distance(e.position, center)
        if not gap > bound:  # also a nan bound
            return 0
        if gap < near:
            near = gap
    if not cfg.circles_inside or not cfg.intercept_skip:
        return 0
    for ea in world.eas:
        if ea.suspicion or ea.pursue_target is not None or ea.arc is None or ea.arc[0] != ea.position:
            return 0
    wide = bound
    for d in world.drones:
        if d.arc is None or d.arc[0] != d.position:
            wide = max(wide, distance(d.position, center) - cfg.patrol_radius + bound)
    # A window lies beyond a finite bound only: an infinite one, a sum of
    # radii that overflows, has none, and inf - inf would read nan.
    move = cfg.enemy_move
    window = max(cfg.blind_window - math.ceil((wide - bound) / move), 0) if cfg.blind_window else 0
    k = min(cfg.time_limit_steps - s, _next_spawn(s, cfg) - 1 - s + window)
    if world.enemies:
        k = min(k, math.ceil((near - wide) / move))
    return max(k, 0)


def catch_up(world: WorldState, cfg: SimConfig, rng: random.Random, end: int) -> None:
    """Spawn and move the enemies of the blind steps world.step + 1 to end,
    as step() would, and set world.step to end: spawns drawn in order leave
    the rng and the events as step() would, and as an enemy's move reads
    only its own position, each makes all its moves in one go."""
    start, period = world.step, cfg.enemy_spawn_period
    for s in range(_next_spawn(start, cfg), end + 1, period):
        world.step = s
        spawn_enemies(world, cfg, rng)
    world.step = end
    for e in world.enemies:
        for _ in range(end - max(start, e.spawned_at - 1)):
            e.position = enemy_policy(e, cfg)


def play_blind(world: WorldState, cfg: SimConfig, rng: random.Random, k: int) -> None:
    """Advance the world k blind steps (blind_steps) as k calls of step()
    would: a drone off its arc steps through _sector_patrol_move until it
    stands on its arc point, and from there carries its offset and direction
    through the sweeps left (_sweep); each agent carries its angle through k
    orbit steps (ea_policy)."""
    half, stride, sectors = cfg.half_sector, cfg.patrol_step, cfg.sector_centers
    (cx, cy), radius = cfg.center, cfg.patrol_radius
    for d in world.drones:
        d.threat, left = None, k
        while left and (d.arc is None or d.arc[0] != d.position):
            d.prev_position, d.position = d.position, _sector_patrol_move(d, cfg)
            left -= 1
        if not left:
            continue
        offset, direction = d.arc[1], d.patrol_dir
        for _ in range(left):
            last = offset
            if direction > 0:
                offset += stride
            else:
                offset -= stride
            if offset > half or offset < -half:
                offset, direction = _fold_into_sector(offset, half, direction)
        a, b = sectors[d.id] + last, sectors[d.id] + offset
        d.prev_position = (cx + radius * math.cos(a), cy + radius * math.sin(a)) if left > 1 else d.position
        d.position = (cx + radius * math.cos(b), cy + radius * math.sin(b))
        d.arc, d.patrol_dir = (d.position, offset), direction
    orbit, stride = cfg.ea_orbit_radius, cfg.orbit_step
    for ea in world.eas:
        angle = ea.arc[1]
        for _ in range(k):
            angle = math.fmod(angle + stride, TAU)
        ea.position = (cx + orbit * math.cos(angle), cy + orbit * math.sin(angle))
        ea.arc = (ea.position, angle)
    catch_up(world, cfg, rng, world.step + k)
    if world.step >= cfg.time_limit_steps:
        world.outcome = "success"


def spawn_enemies(world: WorldState, cfg: SimConfig, rng: random.Random) -> None:
    """Append one enemy on the boundary when the current step is a spawn
    step: every enemy_spawn_period steps from cfg.first_spawn on."""
    s, first = world.step, cfg.first_spawn
    if s < first or (s - first) % cfg.enemy_spawn_period:
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
        best, best_gap = None, cfg.intercept_radius
        for d in interceptors:
            gap = distance(d.position, enemy.position)
            if gap <= best_gap and (gap < best_gap or best is None or d.id < best.id):
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
    ends. Raises RuntimeError if it already has an outcome."""
    if world.outcome is not None:
        raise RuntimeError(f"episode ended with {world.outcome} at step {world.step}")

    world.step += 1

    # 1) spawning
    spawn_enemies(world, cfg, rng)

    # 2) drone motion; each drone keeps the threat it saw and the position it
    #    moved from. No policy reads another drone, so each moves as soon as
    #    it has chosen, and every choice is still made from the pre-move world.
    #    The clamp skip: with cfg.circles_inside no target is off the map, so
    #    none is clamped; otherwise every target goes through clamp_to_map,
    #    which returns a point on the map bit for bit. Every drone and agent
    #    starts on its circle (initial_world), and every target is the
    #    mover's own position, a circle point, or a move_toward between two
    #    points on the map, which stays on it. Agents skip the clamp alike in
    #    enforcement.
    inside, detection, enemies = cfg.circles_inside, cfg.detection_radius, world.enemies
    for d in world.drones:
        arc = d.arc
        # On its arc: a drone standing on the arc point it was sent to is
        # played here, bit for bit as its policy would play it. Either policy
        # scans once and stores what it saw as d.threat; a compliant drone
        # that saw a threat takes compliant_policy's move_toward step to it,
        # and every other drone sweeps on from its arc point, as
        # _sector_patrol_move does for a drone standing there. So the
        # policies play only drones off their arc: at step 1, after a
        # pursuit, and on maps where the clamp moves a drone.
        if arc is not None and arc[0] == d.position:
            seen = d.threat = nearest_enemy(d.position, enemies, detection)
            if seen is None or d.role is MALICIOUS:
                target = _sweep(d, arc[1], cfg)
            else:
                target = move_toward(d.position, seen.position, cfg.drone_speed)
        elif d.role is MALICIOUS:
            target = malicious_policy(d, world, cfg)
        else:
            target = compliant_policy(d, world, cfg)
        d.prev_position = d.position
        d.position = target if inside else clamp_to_map(target, cfg)

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
    #    if it counted as on its arc while that much off it) and each enemy at
    #    most enemy_speed. A clamp only shortens a move that starts on the
    #    map, as every move does after the first step: initial_world may place
    #    a drone beyond a wall. So after the first step, with no threat seen
    #    and the slack above that tolerance plus a rounding margin, no enemy
    #    is within intercept_radius of any drone.
    #    cfg.intercept_skip is that slack test; blind_steps reads it too.
    if threat or not cfg.intercept_skip or world.step == 1:
        resolve_interceptions(world, cfg)

    # 6) termination: breach beats the time limit when both hold
    if breach_occurred(world, cfg):
        world.outcome = "fail"
        world.events.append(Event(step=world.step, kind="breach", data={}))
    elif world.step >= cfg.time_limit_steps:
        world.outcome = "success"
