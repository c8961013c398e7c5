"""Config construction, validation, overrides, and the key=value loader."""

import dataclasses
import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel.config import (
    MAX_TOTAL_DRONES,
    SPEED_FLOOR_ULPS,
    TAU,
    ConfigError,
    SimConfig,
    apply_overrides,
    default_config,
    load_config,
    read_config,
    validate,
)
from sentinel.experiment import run_batch
from test_acceptance import random_valid_config
from test_dynamics import _sight_bound


def test_defaults_validate():
    cfg = default_config()
    assert validate(cfg) is cfg


def test_default_values_pin_the_reference_setup():
    cfg = default_config()
    assert cfg.total_drones == 6
    assert cfg.num_malicious == 1
    assert cfg.map_size == 120.0
    assert cfg.center == (60.0, 60.0)
    assert cfg.center_radius == 5.0
    assert cfg.enemy_spawn_period == 15
    assert cfg.detection_radius == 10.0
    assert cfg.time_limit_steps == 1200
    assert cfg.fps == 10


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.total_drones = 7


def test_center_radius_must_stay_inside_patrol_circle():
    cfg = apply_overrides(default_config(), center_radius=50.0, patrol_radius=40.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "CenterRadiusExceedsPatrolRadius" in err.value.violations


def test_validation_names_every_violation_at_once():
    cfg = apply_overrides(default_config(), total_drones=0, map_size=-1.0, fps=0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    names = err.value.violations
    assert "TotalDronesNotPositive" in names
    assert "MapSizeNotPositive" in names
    assert "FpsNotPositive" in names


def test_a_config_breaking_every_rule_pins_the_whole_message():
    cfg = apply_overrides(
        default_config(),
        total_drones=-5,
        num_malicious=-1,
        num_eas=-1,
        map_size=-10.0,
        center=(-1.0, math.nan),
        center_radius=-1.0,
        patrol_radius=-2.0,
        ea_orbit_radius=-3.0,
        intercept_radius=-1.0,
        detection_radius=-2.0,
        time_limit_steps=0,
        enemy_spawn_period=0,
        first_spawn_step=-1,
        fps=0,
        drone_speed=-math.inf,
        enemy_speed=-1.0,
        ea_monitor_radius=-1.0,
        suspicion_threshold=0,
        reform_radius=-1.0,
    )
    expected = [
        ("NonFiniteValue", "drone_speed=-inf"),
        ("NonFiniteValue", "center_y=nan"),
        ("TotalDronesNotPositive", "total_drones=-5"),
        ("MaliciousCountNegative", "num_malicious=-1"),
        ("MaliciousExceedsTotalDrones", "num_malicious=-1 > total_drones=-5"),
        ("EnforcementCountNegative", "num_eas=-1"),
        ("EnforcementExceedsTotalDrones", "num_eas=-1 > total_drones=-5"),
        ("MapSizeNotPositive", "map_size=-10.0"),
        ("CenterRadiusNotPositive", "center_radius=-1.0"),
        ("CenterRadiusExceedsPatrolRadius", "center_radius=-1.0 not < patrol_radius=-2.0"),
        ("PatrolRadiusExceedsHalfMap", "patrol_radius=-2.0 not < map_size/2=-5.0"),
        ("OrbitRadiusExceedsHalfMap", "ea_orbit_radius=-3.0 not < map_size/2=-5.0"),
        ("InterceptRadiusNotPositive", "intercept_radius=-1.0"),
        ("DetectionRadiusNotAboveInterceptRadius", "detection_radius=-2.0 not > intercept_radius=-1.0"),
        ("TimeLimitNotPositive", "time_limit_steps=0"),
        ("SpawnPeriodNotPositive", "enemy_spawn_period=0"),
        ("FirstSpawnNegative", "first_spawn_step=-1"),
        ("CenterOutsideMap", "center=(-1.0, nan) not strictly inside a -10.0 map"),
        ("FpsNotPositive", "fps=0"),
        ("DroneSpeedNotPositive", "drone_speed=-inf"),
        ("EnemySpeedNotPositive", "enemy_speed=-1.0"),
        ("DroneSpeedBelowFloor", "drone_speed=-inf < 1.8189894035458565e-12 (1024 ulps of map_size=-10.0)"),
        ("EnemySpeedBelowFloor", "enemy_speed=-1.0 < 1.8189894035458565e-12 (1024 ulps of map_size=-10.0)"),
        ("PatrolRadiusNotPositive", "patrol_radius=-2.0"),
        ("OrbitRadiusNotPositive", "ea_orbit_radius=-3.0"),
        ("MonitorRadiusNotPositive", "ea_monitor_radius=-1.0"),
        ("SuspicionThresholdNotPositive", "suspicion_threshold=0"),
        ("ReformRadiusNotPositive", "reform_radius=-1.0"),
    ]
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert err.value.violations == [name for name, _ in expected]
    assert str(err.value) == "; ".join(f"{name}: {detail}" for name, detail in expected)


def test_malicious_count_bounded_by_drone_count():
    cfg = apply_overrides(default_config(), num_malicious=7)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "MaliciousExceedsTotalDrones" in err.value.violations


def test_drone_count_bounded_by_what_a_world_can_hold():
    assert validate(apply_overrides(default_config(), total_drones=MAX_TOTAL_DRONES)).total_drones == MAX_TOTAL_DRONES
    for count in (MAX_TOTAL_DRONES + 1, 10**20, 10**400):
        with pytest.raises(ConfigError) as err:
            validate(apply_overrides(default_config(), total_drones=count))
        assert err.value.violations == ["TotalDronesExceedsMax"]


def test_patrol_circle_must_fit_in_the_map():
    cfg = apply_overrides(default_config(), patrol_radius=60.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "PatrolRadiusExceedsHalfMap" in err.value.violations


def test_orbit_circle_must_fit_in_the_map():
    cfg = apply_overrides(default_config(), ea_orbit_radius=70.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "OrbitRadiusExceedsHalfMap" in err.value.violations


def test_every_non_finite_float_is_rejected_by_name():
    base = default_config()
    overrides = [
        {f.name: value}
        for f in dataclasses.fields(base)
        if isinstance(getattr(base, f.name), float)
        for value in (math.inf, -math.inf, math.nan)
    ]
    overrides += [{"center": (math.nan, 60.0)}, {"center": (60.0, math.inf)}]
    for override in overrides:
        with pytest.raises(ConfigError) as err:
            validate(apply_overrides(base, **override))
        assert "NonFiniteValue" in err.value.violations, override


FLOAT_KEYS = [f.name for f in dataclasses.fields(SimConfig) if f.type is float] + ["center_x", "center_y"]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_an_int_too_large_for_a_float_is_rejected_by_name(key):
    # Built in Python, a float field can hold an int that float() overflows
    # on; validate names it instead of raising OverflowError from a check.
    base = default_config()
    if key in ("center_x", "center_y"):
        cx, cy = base.center
        override = {"center": (10**400, cy) if key == "center_x" else (cx, 10**400)}
    else:
        override = {key: 10**400}
    with pytest.raises(ConfigError) as err:
        validate(apply_overrides(base, **override))
    assert err.value.violations == ["NonFiniteValue"]
    assert str(err.value) == f"NonFiniteValue: {key} is too large for a float"


INT_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type is int]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_an_int_field_of_thousands_of_digits_fails_cleanly(field, sign):
    # str() refuses an int of more than 4,300 digits, so a message names
    # such a value by its size; validate returns the config or raises
    # ConfigError, never anything else.
    value = sign * 10**5000
    try:
        validate(apply_overrides(default_config(), **{field: value}))
    except ConfigError as err:
        assert len(str(err)) < 1000, field
        if f"{field}=" in str(err):
            assert f"{field}={'-' if sign < 0 else ''}<16610-bit int>" in str(err)
    else:
        # Only a lower bound holds these back.
        assert sign > 0 and field not in ("total_drones", "num_malicious", "num_eas"), field


def test_a_huge_int_is_named_by_its_size_and_a_small_one_as_before():
    with pytest.raises(ConfigError) as err:
        validate(apply_overrides(default_config(), num_malicious=10**5000))
    assert str(err.value) == "MaliciousExceedsTotalDrones: num_malicious=<16610-bit int> > total_drones=6"
    with pytest.raises(ConfigError) as err:
        validate(apply_overrides(default_config(), num_malicious=2**999))
    assert str(err.value) == f"MaliciousExceedsTotalDrones: num_malicious={2**999} > total_drones=6"


@pytest.mark.parametrize("field", INT_FIELDS)
def test_a_float_or_bool_in_an_int_field_is_refused_by_name(field):
    # Built in Python, an int field can hold a float or a bool: a batch at
    # total_drones=6.0 died with a TypeError, and one at num_eas=True wrote
    # records that read_records refuses.
    base = default_config()
    for value in (float(getattr(base, field)), 7.5, True):
        with pytest.raises(ConfigError) as err:
            validate(apply_overrides(base, **{field: value}))
        assert "NotAnInteger" in err.value.violations, value
        assert f"NotAnInteger: {field}={value!r} is not an int" in str(err.value)
    with pytest.raises(ConfigError) as err:
        run_batch(apply_overrides(base, **{field: float(getattr(base, field))}), 1, 1)
    assert err.value.violations == ["NotAnInteger"]


NUMBER_KEYS = INT_FIELDS + FLOAT_KEYS


@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_a_value_that_is_not_a_number_is_refused_by_name(key):
    # Built in Python, a numeric field can hold a str: SimConfig(total_drones="6")
    # raised TypeError while it derived its geometry, before validate could
    # name the field. Building now never raises, and validate refuses it.
    base = default_config()
    for value in ("6", "120", None):
        if key in ("center_x", "center_y"):
            cx, cy = base.center
            override = {"center": (value, cy) if key == "center_x" else (cx, value)}
        else:
            override = {key: value}
        cfg = apply_overrides(base, **override)
        with pytest.raises(ConfigError) as err:
            validate(cfg)
        assert err.value.violations == ["NotANumber"], value
        assert str(err.value) == f"NotANumber: {key}={value!r} is not a number"
    with pytest.raises(ConfigError) as err:
        run_batch(cfg, 1, 1)
    assert err.value.violations == ["NotANumber"]


def test_a_failsafe_that_is_not_a_bool_is_refused_by_name():
    # failsafe_enabled="no" was accepted, and the episode read it as true.
    base = default_config()
    for value in ("no", "", 2, 0, 1.0, None):
        with pytest.raises(ConfigError) as err:
            validate(apply_overrides(base, failsafe_enabled=value))
        assert err.value.violations == ["NotABool"], value
        assert str(err.value) == f"NotABool: failsafe_enabled={value!r} is not a bool"
    for value in (True, False):
        assert validate(apply_overrides(base, failsafe_enabled=value)).failsafe_enabled is value


@pytest.mark.parametrize(
    "overrides, derived, also",
    [
        # On a map this large no default speed resolves a move either.
        ({"map_size": 4.5e307}, "4*map_size=inf", ["DroneSpeedBelowFloor", "EnemySpeedBelowFloor"]),
        ({"patrol_radius": 1.1e-308, "center_radius": 2.2e-313}, "drone_speed/patrol_radius=inf", []),
        ({"ea_orbit_radius": 5e-324, "num_eas": 1}, "drone_speed/ea_orbit_radius=inf", []),
    ],
    ids=["spawn_perimeter", "patrol_step", "orbit_step"],
)
def test_finite_fields_whose_derived_value_overflows_are_rejected(overrides, derived, also):
    with pytest.raises(ConfigError) as err:
        validate(apply_overrides(default_config(), **overrides))
    assert err.value.violations == ["NonFiniteValue", *also]
    assert derived in str(err.value)


@pytest.mark.parametrize("field, name", [("drone_speed", "DroneSpeedBelowFloor"), ("enemy_speed", "EnemySpeedBelowFloor")])
def test_a_speed_below_the_floor_is_rejected_and_one_at_it_accepted(field, name):
    for map_size in (50.0, 120.0, 1000.0):
        floor = SPEED_FLOOR_ULPS * math.ulp(map_size)
        base = apply_overrides(
            default_config(),
            map_size=map_size,
            center=(map_size / 2, map_size / 2),
            patrol_radius=map_size / 4,
            ea_orbit_radius=map_size / 8,
        )
        assert validate(apply_overrides(base, **{field: floor})).map_size == map_size
        for slow in (math.nextafter(floor, 0.0), 1e-14, 5e-324):
            with pytest.raises(ConfigError) as err:
                validate(apply_overrides(base, **{field: slow}))
            assert err.value.violations == [name]


def test_load_config_rejects_an_infinite_speed(tmp_path):
    path = tmp_path / "inf.cfg"
    path.write_text("drone_speed = inf\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == ["NonFiniteValue"]
    assert "drone_speed=inf" in str(err.value)


def test_detection_radius_must_exceed_intercept_radius():
    cfg = apply_overrides(default_config(), detection_radius=2.0, intercept_radius=2.0)
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "DetectionRadiusNotAboveInterceptRadius" in err.value.violations


def test_center_must_lie_inside_the_map():
    cfg = apply_overrides(default_config(), center=(130.0, 60.0))
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert "CenterOutsideMap" in err.value.violations


# --- derived geometry ----------------------------------------------------------

DERIVED = (
    "half_sector",
    "patrol_step",
    "orbit_step",
    "circles_inside",
    "sector_centers",
    "first_spawn",
    "sight_bound",
    "enemy_move",
    "blind_window",
    "intercept_skip",
)


def _reach(patrol_radius, detection_radius, map_size=120.0):
    # Summed in the order __post_init__ sums them; 1e-9 is ON_CIRCLE_EPS.
    return patrol_radius + detection_radius + 1e-9 + 1e-9 * map_size


def _centers(n):
    return tuple(TAU * i / n for i in range(n))


def _derived(cfg, names=DERIVED):
    return tuple(getattr(cfg, name) for name in names)


# The derived attributes that are floats, nan where they cannot be computed.
DERIVED_FLOATS = ("half_sector", "patrol_step", "orbit_step", "sight_bound", "enemy_move")


def test_derived_geometry_is_computed_once_per_config_outside_the_fields():
    cfg = default_config()
    # With no agent the sight bound is the drones' reach; the nearest edge
    # lies 60 - 40 away, 19 moves of 1 + 1/64; 10 - 2 - 3.6 - 1 > 1.2e-7.
    stretch = (_reach(30.0, 10.0), 1.015625, 19, True)
    assert _derived(cfg) == (math.pi / 6, 3.6 / 30.0, 3.6 / 15.0, True, _centers(6), 15, *stretch)
    assert not set(DERIVED) & {f.name for f in dataclasses.fields(cfg)}
    # They are every attribute a config holds beyond its fields.
    assert set(vars(cfg)) == set(DERIVED) | {f.name for f in dataclasses.fields(cfg)}
    assert not any(f"{name}=" in repr(cfg) for name in DERIVED)  # first_spawn_step= is a field
    # == and hash read the fields alone.
    skewed = dataclasses.replace(cfg)
    object.__setattr__(skewed, "circles_inside", False)
    assert skewed == cfg and hash(skewed) == hash(cfg)
    # replace() recomputes, from the new fields.
    moved = apply_overrides(
        skewed, total_drones=4, drone_speed=2.0, center=(20.0, 60.0), detection_radius=12.0, first_spawn_step=0
    )
    stretch = (_reach(30.0, 12.0), 1.015625, 0, True)  # no window: the circles reach the west wall
    geometry = (math.pi / 4, 2.0 / 30.0, 2.0 / 15.0, False, _centers(4), 15)
    assert _derived(moved) == (*geometry, *stretch)
    # With agents the orbit plus the monitor radius, 15 + 40, counts too, and
    # an interception margin of about 0 leaves no interception skip.
    agents = apply_overrides(cfg, num_eas=2, ea_monitor_radius=40.0, intercept_radius=5.4)
    assert (agents.sight_bound, agents.blind_window, agents.intercept_skip) == (55.0, 4, False)
    # With first_spawn_step 0 the first spawn comes one period after step 0.
    assert apply_overrides(moved, enemy_spawn_period=7).first_spawn == 7
    assert dataclasses.replace(skewed).circles_inside is True
    # A pickle, as a worker process receives its config, carries them.
    for sent in (cfg, moved):
        assert _derived(pickle.loads(pickle.dumps(sent))) == _derived(sent)
    # Each sector centre is bit for bit TAU * id / total_drones.
    for n in (1, 2, 3, 6, 7, 1000, True):
        centers = apply_overrides(cfg, total_drones=n).sector_centers
        assert [c.hex() for c in centers] == [(TAU * i / n).hex() for i in range(n)], n
    # A count that is not an int from 1 to MAX_TOTAL_DRONES builds without
    # raising, with no centres.
    for n in (0, -1, 6.0, MAX_TOTAL_DRONES + 1, 10**400):
        assert SimConfig(total_drones=n).sector_centers == (), n


def test_read_config_derives_the_geometry_of_the_file(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("center_x = 20\ntotal_drones = 3\npatrol_radius = 25\n")
    cfg = read_config(path)
    stretch = (_reach(25.0, 10.0), 1.015625, 0, True)
    assert _derived(cfg) == (math.pi / 3, 3.6 / 25.0, 3.6 / 15.0, False, _centers(3), 15, *stretch)


@pytest.mark.parametrize(
    "overrides, inside",
    [
        ({"patrol_radius": 59.9}, True),
        ({"center": (30.1, 60.0)}, True),
        ({"center": (30.0, 60.0)}, False),  # the patrol circle touches the west wall
        ({"center": (60.0, 90.0)}, False),  # and here the north wall
        ({"center": (29.9, 60.0)}, False),
        ({"center": (30.0 + 1e-8, 60.0)}, False),  # within the rounding margin
        ({"ea_orbit_radius": 70.0}, False),  # agents or not, both circles count
    ],
)
def test_the_circles_are_inside_only_clear_of_every_wall(overrides, inside):
    assert apply_overrides(default_config(), **overrides).circles_inside is inside


def test_building_a_config_never_raises():
    # Configs are built before they are validated, so anything goes in:
    # a quotient or sum that cannot be taken reads nan, and a map or circle
    # that is not finite, or not a number, leaves the circles not inside.
    for field in ("total_drones", "map_size", "drone_speed", "patrol_radius", "ea_orbit_radius", "center"):
        for value in ("6", None):
            override = (value, 60.0) if field == "center" else value
            cfg = apply_overrides(default_config(), **{field: override})
            assert all(isinstance(v, float) for v in _derived(cfg, DERIVED_FLOATS)), (field, value)
            if field in ("map_size", "center") or field.endswith("radius"):
                assert cfg.circles_inside is False, (field, value)
        for value in (0, -1, -1.5, math.nan, math.inf, -math.inf, 10**400):
            override = (value, 60.0) if field == "center" else value
            cfg = apply_overrides(default_config(), **{field: override})
            assert all(isinstance(v, float) for v in _derived(cfg, DERIVED_FLOATS)), (field, value)
            if field in ("map_size", "center") or (field.endswith("radius") and not -1e300 < value < 1e300):
                assert cfg.circles_inside is False, (field, value)


# Each field the stretch constants read: a map with the centre anywhere on
# it, circles and sights up to a half, a sixth or a twentieth of its width
# and speeds up to a tenth of that, then up to three fields given a value
# that validate refuses.
_RADII = ("detection_radius", "intercept_radius", "patrol_radius", "ea_orbit_radius", "ea_monitor_radius")
_REFUSED = st.sampled_from([math.nan, 0, 0.0, -1.0, math.inf, -math.inf, 10**400, "6", None])


@st.composite
def _stretch_fields(draw):
    m = draw(st.floats(1e-3, 1e6))
    part = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    fields = {"num_eas": draw(st.integers(0, 3)), "map_size": m, "center": (draw(part) * m, draw(part) * m)}
    reach = m / draw(st.sampled_from([2.0, 6.0, 20.0]))
    fields.update({name: draw(part) * reach for name in _RADII})
    fields.update({name: draw(part) * reach / 10.0 for name in ("drone_speed", "enemy_speed")})
    refused = st.one_of(_REFUSED, st.tuples(_REFUSED, st.just(1.0)), st.sampled_from([True, 10**400]))
    for name, value in draw(st.lists(st.tuples(st.sampled_from(sorted(fields)), refused), max_size=3)):
        fields[name] = value
    return fields


def _reference(compute, fallback):
    # compute(), or fallback where it raises, as a value that cannot be
    # computed reads.
    try:
        return compute()
    except (ArithmeticError, TypeError, ValueError):
        return fallback


def _same(a, b):
    return a == b or (a != a and b != b)  # nan reads nan


@settings(max_examples=300)
@given(_stretch_fields())
def test_the_stretch_constants_equal_the_dynamics_references_for_any_fields(fields):
    # Built from anything, validate's refusals included, a config never
    # raises, and each stretch constant is the value the dynamics tests
    # compute as their reference (_sight_bound, the blind-window formula),
    # or where that cannot be computed nan, 0 or False.
    cfg = SimConfig(**fields)
    sight = _reference(lambda: _sight_bound(cfg), math.nan)
    move = _reference(lambda: cfg.enemy_speed * (1 + 1 / 64), math.nan)

    def window():
        (cx, cy), m = cfg.center, cfg.map_size
        nearest = min(cx, cy, m - cx, m - cy)
        if not cfg.circles_inside or nearest <= _sight_bound(cfg):
            return 0
        return math.floor((nearest - _sight_bound(cfg)) / (cfg.enemy_speed * (1 + 1 / 64)))

    def skip():
        margin = cfg.detection_radius - cfg.intercept_radius - cfg.drone_speed - cfg.enemy_speed
        return margin > 1e-9 + 1e-9 * cfg.map_size  # ON_CIRCLE_EPS and a rounding margin

    assert _same(cfg.sight_bound, sight), (cfg, sight)
    assert _same(cfg.enemy_move, move), (cfg, move)
    assert cfg.blind_window == _reference(window, 0), cfg
    assert cfg.intercept_skip is _reference(skip, False), cfg


@pytest.mark.parametrize("center", [(1.0, 2.0, 3.0), (1.0,), None])
def test_a_center_that_is_not_a_pair_builds_and_is_refused_on_its_own(center):
    # Unpacking such a center raised ValueError while the geometry was
    # derived, and validate raised TypeError on None. Building now reads it
    # as not inside, and validate refuses it alone, with the other rules
    # broken too.
    cfg = apply_overrides(default_config(), center=center)
    assert cfg.circles_inside is False
    with pytest.raises(ConfigError) as err:
        validate(apply_overrides(cfg, total_drones=0, fps="10"))
    assert err.value.violations == ["CenterNotAPair"]
    assert str(err.value) == f"CenterNotAPair: center is a {type(center).__name__}, not an (x, y) pair"


def test_apply_overrides_returns_a_changed_copy():
    base = default_config()
    changed = apply_overrides(base, num_eas=2)
    assert changed.num_eas == 2
    assert base.num_eas == 0
    assert changed.total_drones == base.total_drones


def test_load_config_layers_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "num_eas = 2\n"
        "drone_speed=2.5\n"
        "failsafe_enabled = yes\n"
        "center_x = 50\n"
        "center_y = 55\n"
    )
    cfg = load_config(path)
    assert cfg.num_eas == 2
    assert cfg.drone_speed == 2.5
    assert cfg.failsafe_enabled is True
    assert cfg.center == (50.0, 55.0)
    # untouched fields keep their defaults
    assert cfg.total_drones == default_config().total_drones


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dronespeed=2\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "UnknownConfigKey" in err.value.violations
    assert "line 1" in str(err.value)


def test_load_config_rejects_bad_values_with_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_eas=2\nfps=not-a-number\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "BadValue" in err.value.violations
    assert "line 2" in str(err.value)


def test_load_config_rejects_a_key_given_twice_citing_both_lines(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("drone_speed = 3.6\n# faster\ndrone_speed = 99\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == ["DuplicateConfigKey"]
    assert str(err.value) == "DuplicateConfigKey: line 3: 'drone_speed' already set on line 1"


def test_load_config_counts_center_x_and_center_y_as_separate_keys(tmp_path):
    path = tmp_path / "center.cfg"
    path.write_text("center_x = 50\ncenter_y = 55\n")
    assert load_config(path).center == (50.0, 55.0)
    path.write_text("center_x = 50\ncenter_y = 55\ncenter_y = 56\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == ["DuplicateConfigKey"]
    assert "line 3: 'center_y' already set on line 2" in str(err.value)


def test_load_config_rejects_lines_without_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "BadLine" in err.value.violations


def test_load_config_validates_the_merged_result(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("patrol_radius=80\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "PatrolRadiusExceedsHalfMap" in err.value.violations


def test_randomized_valid_overrides_pass_validation():
    # Sampled configs inside the documented constraints must always validate.
    rng = random.Random(1234)
    for _ in range(50):
        map_size = rng.uniform(60.0, 240.0)
        patrol = rng.uniform(map_size * 0.1, map_size * 0.49)
        intercept = rng.uniform(0.5, 3.0)
        total = rng.randint(1, 10)
        cfg = SimConfig(
            total_drones=total,
            num_malicious=rng.randint(0, total),
            num_eas=rng.randint(0, total),
            map_size=map_size,
            center=(map_size / 2.0, map_size / 2.0),
            center_radius=rng.uniform(0.5, patrol * 0.9),
            enemy_spawn_period=rng.randint(1, 40),
            first_spawn_step=rng.randint(0, 40),
            detection_radius=rng.uniform(intercept + 0.5, 20.0),
            time_limit_steps=rng.randint(10, 400),
            fps=rng.randint(1, 60),
            drone_speed=rng.uniform(0.5, 5.0),
            enemy_speed=rng.uniform(0.2, 2.0),
            intercept_radius=intercept,
            patrol_radius=patrol,
            ea_orbit_radius=rng.uniform(1.0, map_size / 2.0),
            ea_monitor_radius=rng.uniform(5.0, 40.0),
            suspicion_threshold=rng.randint(1, 10),
            reform_radius=rng.uniform(1.0, 15.0),
        )
        assert validate(cfg) is cfg


# --- property tests of the file loader ----------------------------------------------

# The shared profile of conftest.py, with this file's example count.
PROPERTY_SETTINGS = settings(max_examples=150)

KEYS = [f.name for f in dataclasses.fields(SimConfig)] + ["center_x", "center_y"]
# Codepoints up to U+07FF: ASCII, Latin, Greek, Cyrillic and the Arabic-Indic
# digits that int() and float() accept; no surrogates, so every line encodes.
TEXT = st.text(st.characters(max_codepoint=0x7FF, exclude_categories=()), max_size=20)
VALUES = st.one_of(
    TEXT,
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["yes", "No", "ON", "off", "1", "0", "", "1e999", "-0", "0x10", "1_000"]),
)
LINES = st.one_of(
    TEXT,
    st.builds("{} = {}".format, st.one_of(st.sampled_from(KEYS), TEXT), VALUES),
)


@PROPERTY_SETTINGS
@given(st.lists(LINES, max_size=6))
def test_load_config_returns_a_config_or_raises_config_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert validate(cfg) is cfg


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32), st.booleans())
def test_every_field_written_as_its_repr_loads_back(tmp_path_factory, seed, failsafe):
    cfg = apply_overrides(random_valid_config(random.Random(seed)), failsafe_enabled=failsafe)
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    values["center_x"], values["center_y"] = values.pop("center")
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()), encoding="utf-8")
    assert load_config(path) == cfg


# --- property over every field --------------------------------------------------

HUGE = 10**5000
# Each type's extremes: ints of thousands of digits, bools and the drone
# limit; floats with both zeros, subnormals, the largest finite, inf and
# nan; and ints in float fields, as a config built in Python may hold.
INTS = st.one_of(
    st.integers(-HUGE, HUGE),
    st.booleans(),
    st.sampled_from([0, 1, -1, MAX_TOTAL_DRONES, MAX_TOTAL_DRONES + 1, 2**63, HUGE, -HUGE]),
)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.integers(-HUGE, HUGE),
)


# Values of no numeric type, which a config built in Python may hold too.
STRANGE = st.sampled_from(["6", "no", "", None])


def _extremes(kind):
    if kind is bool:
        return st.one_of(st.booleans(), st.sampled_from([0, 2, 1.0]), STRANGE)
    if kind is int:
        return INTS
    if kind is float:
        return FLOATS
    return st.tuples(FLOATS, FLOATS)  # center


# Each field keeps its default or takes an extreme, so that single broken
# rules are drawn as well as configs that break many.
EVERY_FIELD = st.fixed_dictionaries(
    {
        f.name: st.one_of(st.just(getattr(default_config(), f.name)), _extremes(f.type))
        for f in dataclasses.fields(SimConfig)
    }
)


@PROPERTY_SETTINGS
@given(EVERY_FIELD)
def test_validate_returns_the_config_or_raises_config_error_in_bounded_time(fields):
    # Building never raises, and validate names what is wrong instead of
    # failing on it. The slowest config to build holds MAX_TOTAL_DRONES
    # sector centres, about 0.15 s on a 2-vCPU VM.
    start = time.perf_counter()
    cfg = SimConfig(**fields)
    try:
        assert validate(cfg) is cfg
    except ConfigError:
        pass
    assert time.perf_counter() - start < 2.0


NUMBER_FIELDS = [f.name for f in dataclasses.fields(SimConfig) if f.type in (int, float)]


@PROPERTY_SETTINGS
@given(EVERY_FIELD, st.sampled_from(NUMBER_FIELDS), STRANGE)
def test_a_value_that_is_not_a_number_is_refused_among_the_extremes(fields, name, value):
    # One numeric field holds no number, whatever the others hold: building
    # never raises, and validate refuses that field alone by name, since
    # every other check would compare it.
    cfg = SimConfig(**{**fields, name: value})
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert err.value.violations == ["NotANumber"]
    assert str(err.value) == f"NotANumber: {name}={value!r} is not a number"
