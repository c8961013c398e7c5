"""Config construction, validation, overrides, and the key=value loader."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinel.config import (
    MAX_TOTAL_DRONES,
    SPEED_FLOOR_ULPS,
    ConfigError,
    SimConfig,
    apply_overrides,
    default_config,
    load_config,
    read_config,
    validate,
)
from test_acceptance import random_valid_config


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

DERIVED = ("half_sector", "patrol_step", "orbit_step", "circles_inside")


def _derived(cfg):
    return tuple(getattr(cfg, name) for name in DERIVED)


def test_derived_geometry_is_computed_once_per_config_outside_the_fields():
    cfg = default_config()
    assert _derived(cfg) == (math.pi / 6, 3.6 / 30.0, 3.6 / 15.0, True)
    assert not set(DERIVED) & {f.name for f in dataclasses.fields(cfg)}
    assert not any(name in repr(cfg) for name in DERIVED)
    # == and hash read the fields alone.
    skewed = dataclasses.replace(cfg)
    object.__setattr__(skewed, "circles_inside", False)
    assert skewed == cfg and hash(skewed) == hash(cfg)
    # replace() recomputes, from the new fields.
    moved = apply_overrides(skewed, total_drones=4, drone_speed=2.0, center=(20.0, 60.0))
    assert _derived(moved) == (math.pi / 4, 2.0 / 30.0, 2.0 / 15.0, False)
    assert dataclasses.replace(skewed).circles_inside is True
    # A pickle, as a worker process receives its config, carries them.
    for sent in (cfg, moved):
        assert _derived(pickle.loads(pickle.dumps(sent))) == _derived(sent)


def test_read_config_derives_the_geometry_of_the_file(tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text("center_x = 20\ntotal_drones = 3\npatrol_radius = 25\n")
    cfg = read_config(path)
    assert _derived(cfg) == (math.pi / 3, 3.6 / 25.0, 3.6 / 15.0, False)


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
    # a quotient that cannot be taken reads nan, and a map or circle that
    # is not finite leaves the circles not inside.
    for field in ("total_drones", "map_size", "drone_speed", "patrol_radius", "ea_orbit_radius", "center"):
        for value in (0, -1, -1.5, math.nan, math.inf, -math.inf, 10**400):
            override = (value, 60.0) if field == "center" else value
            cfg = apply_overrides(default_config(), **{field: override})
            assert all(isinstance(v, float) for v in _derived(cfg)[:3]), (field, value)
            if field in ("map_size", "center") or (field.endswith("radius") and not -1e300 < value < 1e300):
                assert cfg.circles_inside is False, (field, value)


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
