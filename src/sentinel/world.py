"""World state: drones, adversaries, enforcement agents, and flat 2D geometry."""

import math
import random
from dataclasses import dataclass, field

from .config import SimConfig

# A position on the map: a plain (x, y) tuple of floats, not a class, since a
# step builds about ten and a NamedTuple's __new__ costs ten times a tuple.
Point2 = tuple[float, float]


# Tolerance for "sitting exactly on a patrol circle". Circle walking
# recomputes positions from the circle equation, so drift stays below this.
ON_CIRCLE_EPS = 1e-9


# Euclidean distance between two (x, y) pairs, such as a position and
# cfg.center; bit for bit the same as math.hypot(ax - bx, ay - by).
distance = math.dist


def nearest_enemy(position: Point2, enemies: list["Enemy"], within: float = math.inf) -> "Enemy | None":
    """Closest live enemy no farther than ``within``, or None; ties broken
    by lowest enemy id. The same as the nearest of all enemies, dropped when
    it is farther than ``within``."""
    best, best_gap = None, within
    for e in enemies:
        gap = distance(position, e.position)
        if gap < best_gap or (gap == best_gap and (best is None or e.id < best.id)):
            best, best_gap = e, gap
    return best


def threat_seen(world: "WorldState") -> bool:
    """True iff some drone saw a threat this step: every drone policy stores
    its scan in drone.threat before the drone moves."""
    for d in world.drones:
        if d.threat is not None:
            return True
    return False


def clamp_to_map(p: Point2, cfg: SimConfig) -> Point2:
    # Positions saturate at the walls, they never wrap. A point already on
    # the map comes back as is, the same value the saturation would build.
    m = cfg.map_size
    x, y = p
    if 0.0 <= x <= m and 0.0 <= y <= m:
        return p
    return (min(max(x, 0.0), m), min(max(y, 0.0), m))


def move_toward(p: Point2, target: Point2, max_step: float) -> Point2:
    """Step from p toward target, at most max_step, never overshooting."""
    gap = distance(p, target)
    if gap <= max_step or gap == 0.0:
        return target
    f = max_step / gap
    (x, y), (tx, ty) = p, target
    return (x + (tx - x) * f, y + (ty - y) * f)


def circle_step(position: Point2, angle: float, radius: float, cfg: SimConfig) -> Point2:
    """One drone_speed step from ``position`` toward the point at ``angle``
    on the circle of ``radius`` around the center."""
    cx, cy = cfg.center
    return move_toward(position, (cx + radius * math.cos(angle), cy + radius * math.sin(angle)), cfg.drone_speed)


# Drone roles. A role is only ever assigned one of these, so code tests it with `is`.
COMPLIANT, MALICIOUS, REFORMED = "compliant", "malicious", "reformed"


@dataclass
class Drone:
    """A patrol drone. Its id is also its sector index; patrol_dir is +1
    counter-clockwise, -1 clockwise.

    prev_position is where the drone stood before its last move, and threat
    the nearest enemy within detection range of that position when the
    drone chose the move, or None. Every policy makes that scan, so a drone
    that ignores the threat can be judged against what it saw; an enemy
    exactly detection_radius away is still a threat. Both are None until
    the first step.

    arc is the point of its arc the drone was last sent to and that point's
    sector offset; while it stands there, the patrol carries the offset.
    """

    id: int
    position: Point2
    role: str
    patrol_dir: int = 1
    prev_position: Point2 | None = None
    threat: "Enemy | None" = None
    arc: tuple[Point2, float] | None = None


@dataclass
class Enemy:
    id: int
    position: Point2
    spawned_at: int


@dataclass
class EnforcementAgentState:
    """A supervisory agent. suspicion maps drone id to consecutive
    violations and holds only positive counts: a clean verdict deletes the
    drone's entry, and a missing entry reads as zero. The agent pursues
    exactly when pursue_target is set. arc is the orbit point it was last
    sent to with that point's angle, as for a Drone."""

    id: int
    position: Point2
    suspicion: dict[int, int] = field(default_factory=dict)
    pursue_target: int | None = None
    pursue_since: int | None = None
    arc: tuple[Point2, float] | None = None


@dataclass
class Event:
    step: int
    kind: str
    data: dict[str, int] = field(default_factory=dict)


@dataclass
class WorldState:
    step: int
    drones: list[Drone]
    enemies: list[Enemy]
    eas: list[EnforcementAgentState]
    events: list[Event] = field(default_factory=list)
    outcome: str | None = None  # "success" or "fail" once the episode ends
    next_enemy_id: int = 0


def initial_world(cfg: SimConfig, rng: random.Random) -> WorldState:
    """Deterministic symmetric start: drones and enforcement agents evenly
    spaced on their circles, roles drawn from ``rng``, the generator that
    keeps driving the episode afterwards. The role draw is the only
    randomness consumed here.
    """
    cx, cy = cfg.center
    n = cfg.total_drones
    malicious = set(rng.sample(range(n), cfg.num_malicious))
    drones = []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        pos = (cx + cfg.patrol_radius * math.cos(angle), cy + cfg.patrol_radius * math.sin(angle))
        drones.append(Drone(id=i, position=pos, role=MALICIOUS if i in malicious else COMPLIANT))
    eas = []
    for j in range(cfg.num_eas):
        angle = 2.0 * math.pi * j / cfg.num_eas
        pos = (cx + cfg.ea_orbit_radius * math.cos(angle), cy + cfg.ea_orbit_radius * math.sin(angle))
        eas.append(EnforcementAgentState(id=j, position=pos))
    return WorldState(step=0, drones=drones, enemies=[], eas=eas)


def breach_occurred(world: WorldState, cfg: SimConfig) -> bool:
    """True iff any live enemy is inside the protected zone."""
    center, radius = cfg.center, cfg.center_radius
    for e in world.enemies:
        if distance(e.position, center) <= radius:
            return True
    return False
