"""Simulation parameters, validation, and flat-file loading.

Every tunable of the simulation lives here as an ordinary config field so
that recalibration is a data change, never a code change. Distances are in
map units, durations in steps unless a field name says otherwise.
"""

import dataclasses
import math
from dataclasses import dataclass


# The slowest accepted drone_speed or enemy_speed, in units of the float
# spacing of map_size (math.ulp), the spacing of the largest coordinate on
# the map. Below about one ulp (1.4e-14 on the default 120 map) a step toward
# a threat can round to no move at all, and agents accuse compliant drones.
# The floor, 1.5e-11 on that map, leaves a margin of about 1,000 over that
# onset, and a step of 1,024 ulps points within about 1/1,000 rad of its aim.
SPEED_FLOOR_ULPS = 1024

# The most drones validate accepts. A drone with its position takes about 280
# bytes, so a million drones hold about 280 MB, and past sys.maxsize
# random.sample cannot even draw their roles: initial_world would run out of
# memory or raise long before it built the world.
MAX_TOTAL_DRONES = 1_000_000


def _quotient(a, b):
    """a / b, or nan where the division raises: a zero divisor, or an int
    too large for a float."""
    try:
        return a / b
    except ArithmeticError:
        return math.nan


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


class ConfigError(ValueError):
    """A configuration rejected by validation or file parsing.

    ``violations`` holds one short name per broken invariant, for example
    ``CenterRadiusExceedsPatrolRadius``. The exception message carries the
    human-readable details.
    """

    def __init__(self, violations):
        self.violations = [name for name, _ in violations]
        super().__init__("; ".join(f"{name}: {detail}" for name, detail in violations))


@dataclass(frozen=True)
class SimConfig:
    """Immutable bundle of every simulation knob.

    total_drones:        patrol drones placed on the patrol circle
    num_malicious:       drones that silently refuse to intercept
    num_eas:             supervisory enforcement agents
    map_size:            side length of the square map
    center:              protected zone center
    center_radius:       breach distance around the center
    enemy_spawn_period:  steps between adversary spawns
    first_spawn_step:    step of the first spawn
    detection_radius:    drone threat-detection range
    time_limit_steps:    episode length bound
    fps:                 steps per simulated second
    drone_speed:         drone and enforcement agent speed per step
    enemy_speed:         adversary speed per step
    intercept_radius:    kill range of a non-malicious drone
    patrol_radius:       radius of the drone patrol circle
    ea_orbit_radius:     radius of the enforcement agent patrol circle
    ea_monitor_radius:   enforcement agent observation range
    suspicion_threshold: consecutive violations before pursuit
    reform_radius:       reformation range of an enforcement agent
    failsafe_enabled:    terminate runs with an uncatchable suspect

    Derived once per config, for the per-step code to read like fields:

    half_sector:         pi / total_drones, half a drone sector's angle
    patrol_step:         drone_speed / patrol_radius, the angle of one step
                         along the patrol circle
    orbit_step:          drone_speed / ea_orbit_radius, the same along the
                         agents' orbit
    circles_inside:      both circles, widened by a rounding margin, lie
                         strictly inside the map
    """

    total_drones: int = 6
    num_malicious: int = 1
    num_eas: int = 0
    map_size: float = 120.0
    center: tuple[float, float] = (60.0, 60.0)
    center_radius: float = 5.0
    enemy_spawn_period: int = 15
    first_spawn_step: int = 15
    detection_radius: float = 10.0
    time_limit_steps: int = 1200
    fps: int = 10
    drone_speed: float = 3.6
    enemy_speed: float = 1.0
    intercept_radius: float = 2.0
    patrol_radius: float = 30.0
    ea_orbit_radius: float = 15.0
    ea_monitor_radius: float = 25.0
    suspicion_threshold: int = 5
    reform_radius: float = 10.0
    failsafe_enabled: bool = False

    def __post_init__(self):
        # Plain attributes, not fields: fields(), ==, hash and repr see only
        # the knobs, replace() runs this again and a pickle carries them.
        # Configs are built before they are validated, so this never
        # raises: what cannot be computed reads nan, or not inside.
        set_attr = object.__setattr__
        set_attr(self, "half_sector", _quotient(math.pi, self.total_drones))
        set_attr(self, "patrol_step", _quotient(self.drone_speed, self.patrol_radius))
        set_attr(self, "orbit_step", _quotient(self.drone_speed, self.ea_orbit_radius))
        try:
            m, (cx, cy) = self.map_size, self.center
            margin = 1e-9 * m
            radii = (abs(self.patrol_radius), abs(self.ea_orbit_radius))
            inside = all(margin < c - r and c + r < m - margin for r in radii for c in (cx, cy))
        except ArithmeticError:
            inside = False
        set_attr(self, "circles_inside", inside)


def default_config() -> SimConfig:
    """The calibrated baseline configuration."""
    return SimConfig()


def validate(cfg: SimConfig) -> SimConfig:
    """Return ``cfg`` unchanged, or raise ConfigError naming every violation."""
    # A float-typed field holding an int too large for a float would make
    # the checks below overflow, so it is refused on its own.
    cx, cy = cfg.center
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    values.update(center_x=cx, center_y=cy)
    unfit = [name for name, kind in _KEY_TYPES.items() if kind is float and not _fits_float(values[name])]
    if unfit:
        raise ConfigError([("NonFiniteValue", f"{name} is too large for a float") for name in unfit])

    bad: list[tuple[str, str]] = []
    speed_floor = SPEED_FLOOR_ULPS * math.ulp(cfg.map_size)

    def check(ok: bool, name: str, detail: str) -> None:
        # detail is a str.format template over values, filled in only when broken.
        if not ok:
            extra = {
                "half_map": cfg.map_size / 2,
                "speed_floor": speed_floor,
                "floor_ulps": SPEED_FLOOR_ULPS,
                "max_drones": MAX_TOTAL_DRONES,
            }
            bad.append((name, detail.format(**extra, **values)))

    floats = {k: v for k, v in values.items() if isinstance(v, float)}
    if all(map(math.isfinite, floats.values())):
        # What the dynamics derive from finite fields must be finite too: the
        # spawn perimeter and the angular steps along the patrol and orbit.
        floats["4*map_size"] = 4.0 * cfg.map_size
        if cfg.patrol_radius > 0:
            floats["drone_speed/patrol_radius"] = cfg.patrol_step
        if cfg.ea_orbit_radius > 0:
            floats["drone_speed/ea_orbit_radius"] = cfg.orbit_step
    bad += [("NonFiniteValue", f"{name}={value}") for name, value in floats.items() if not math.isfinite(value)]
    check(cfg.total_drones > 0, "TotalDronesNotPositive", "total_drones={total_drones}")
    check(
        cfg.total_drones <= MAX_TOTAL_DRONES,
        "TotalDronesExceedsMax",
        "total_drones={total_drones} > {max_drones}",
    )
    check(cfg.num_malicious >= 0, "MaliciousCountNegative", "num_malicious={num_malicious}")
    check(
        cfg.num_malicious <= cfg.total_drones,
        "MaliciousExceedsTotalDrones",
        "num_malicious={num_malicious} > total_drones={total_drones}",
    )
    check(cfg.num_eas >= 0, "EnforcementCountNegative", "num_eas={num_eas}")
    check(
        cfg.num_eas <= cfg.total_drones,
        "EnforcementExceedsTotalDrones",
        "num_eas={num_eas} > total_drones={total_drones}",
    )
    check(cfg.map_size > 0, "MapSizeNotPositive", "map_size={map_size}")
    check(cfg.center_radius > 0, "CenterRadiusNotPositive", "center_radius={center_radius}")
    check(
        cfg.center_radius < cfg.patrol_radius,
        "CenterRadiusExceedsPatrolRadius",
        "center_radius={center_radius} not < patrol_radius={patrol_radius}",
    )
    check(
        cfg.patrol_radius < cfg.map_size / 2,
        "PatrolRadiusExceedsHalfMap",
        "patrol_radius={patrol_radius} not < map_size/2={half_map}",
    )
    check(
        cfg.ea_orbit_radius < cfg.map_size / 2,
        "OrbitRadiusExceedsHalfMap",
        "ea_orbit_radius={ea_orbit_radius} not < map_size/2={half_map}",
    )
    check(cfg.intercept_radius > 0, "InterceptRadiusNotPositive", "intercept_radius={intercept_radius}")
    check(
        cfg.detection_radius > cfg.intercept_radius,
        "DetectionRadiusNotAboveInterceptRadius",
        "detection_radius={detection_radius} not > intercept_radius={intercept_radius}",
    )
    check(cfg.time_limit_steps > 0, "TimeLimitNotPositive", "time_limit_steps={time_limit_steps}")
    check(cfg.enemy_spawn_period > 0, "SpawnPeriodNotPositive", "enemy_spawn_period={enemy_spawn_period}")
    check(cfg.first_spawn_step >= 0, "FirstSpawnNegative", "first_spawn_step={first_spawn_step}")
    check(
        0 < cx < cfg.map_size and 0 < cy < cfg.map_size,
        "CenterOutsideMap",
        "center=({center_x}, {center_y}) not strictly inside a {map_size} map",
    )
    check(cfg.fps > 0, "FpsNotPositive", "fps={fps}")
    check(cfg.drone_speed > 0, "DroneSpeedNotPositive", "drone_speed={drone_speed}")
    check(cfg.enemy_speed > 0, "EnemySpeedNotPositive", "enemy_speed={enemy_speed}")
    check(
        cfg.drone_speed >= speed_floor,
        "DroneSpeedBelowFloor",
        "drone_speed={drone_speed} < {speed_floor} ({floor_ulps} ulps of map_size={map_size})",
    )
    check(
        cfg.enemy_speed >= speed_floor,
        "EnemySpeedBelowFloor",
        "enemy_speed={enemy_speed} < {speed_floor} ({floor_ulps} ulps of map_size={map_size})",
    )
    check(cfg.patrol_radius > 0, "PatrolRadiusNotPositive", "patrol_radius={patrol_radius}")
    check(cfg.ea_orbit_radius > 0, "OrbitRadiusNotPositive", "ea_orbit_radius={ea_orbit_radius}")
    check(cfg.ea_monitor_radius > 0, "MonitorRadiusNotPositive", "ea_monitor_radius={ea_monitor_radius}")
    check(
        cfg.suspicion_threshold >= 1,
        "SuspicionThresholdNotPositive",
        "suspicion_threshold={suspicion_threshold}",
    )
    check(cfg.reform_radius > 0, "ReformRadiusNotPositive", "reform_radius={reform_radius}")

    if bad:
        raise ConfigError(bad)
    return cfg


def apply_overrides(cfg: SimConfig, **overrides) -> SimConfig:
    """A copy of ``cfg`` with the given fields replaced. Not validated."""
    return dataclasses.replace(cfg, **overrides)


# Value type of every key the file loader accepts: the SimConfig fields,
# with center flattened to two keys.
_KEY_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig) if f.name != "center"}
_KEY_TYPES.update(center_x=float, center_y=float)

_TRUE_WORDS = {"true", "yes", "on", "1"}
_FALSE_WORDS = {"false", "no", "off", "0"}


def _parse_value(key: str, raw: str, line_no: int):
    kind = _KEY_TYPES[key]
    if kind is not bool:
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError([("BadValue", f"line {line_no}: {key}={raw!r}")]) from None
    word = raw.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ConfigError([("BadValue", f"line {line_no}: {key}={raw!r} is not a boolean")])


def read_config(path) -> SimConfig:
    """Load overrides from a flat key=value file on top of the default config.

    Blank lines and lines starting with '#' are skipped. Unknown keys and
    keys given twice are errors. The result is not validated.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    fields: dict = {}
    key_lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError([("BadLine", f"line {line_no}: expected key=value, got {stripped!r}")])
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError([("UnknownConfigKey", f"line {line_no}: {key!r}")])
        if key in key_lines:
            raise ConfigError([("DuplicateConfigKey", f"line {line_no}: {key!r} already set on line {key_lines[key]}")])
        key_lines[key] = line_no
        fields[key] = _parse_value(key, raw, line_no)
    base = default_config()
    cx, cy = base.center
    center = (fields.pop("center_x", cx), fields.pop("center_y", cy))
    return dataclasses.replace(base, center=center, **fields)


def load_config(path) -> SimConfig:
    """read_config(path), validated."""
    return validate(read_config(path))
