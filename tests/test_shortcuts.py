"""Every shortcut that can be switched off from outside src, switched off: the
same records, events and final worlds, with each lever alone and all together.
Each lever alone is tested with its module's tests, through forced_off."""

import collections
import copy
import functools
import random

import pytest

from sentinel import dynamics, enforcement, experiment
from sentinel.config import apply_overrides, default_config, validate
from sentinel.experiment import mix_seed, run_episode
from sentinel.world import distance, initial_world

from test_acceptance import random_valid_config

# Each shortcut, keyed by where its argument is stated, with the lever that
# switches it off: (module, attribute, value) patched for the episode, or with
# None for module attributes of its config. A config lever sets, beside its
# own attribute, each value that SimConfig.__post_init__ derives from it,
# which it would not otherwise reach: the clamp-skip lever empties the blind
# window (cfg.blind_window).
SHORTCUTS = {
    "quiet steps (dynamics.step, enforcement.run_enforcement_phase)": (dynamics, "threat_seen", lambda world: True),
    "clamp skip (dynamics.step)": (None, dict(circles_inside=False, blind_window=0)),
    "opening (experiment.run_episode)": (experiment, "opening", lambda cfg: initial_world(cfg, random.Random(0))),
    "blind stretches (dynamics.blind_steps)": (experiment, "blind_steps", lambda world, cfg: 0),
}
QUIET, CLAMP, OPENING, STRETCH = SHORTCUTS

# The calls that quiet steps and blind stretches save, counted in the
# unforced play and with that shortcut forced off. Beside them the unforced
# play counts, as ALIVE, the blind stretches with an enemy alive in them, as
# RETURNING those that start with a drone off its arc, and as CROSSING those
# whose last step begins with an enemy less than one enemy_move beyond the
# sight bound: the step whose move may take it across.
ALIVE = "stretches with an enemy alive"
RETURNING = "stretches that start with a drone off its arc"
CROSSING = "stretches that end with a crossing step"
SAVED = {
    QUIET: [(dynamics, "resolve_interceptions"), (enforcement, "observe")],
    STRETCH: [(experiment, "step")],
}

# Configs whose opening has an edge, with the step it ends on: off-centre
# maps, whose drones are clamped in it; a first spawn at enemy_spawn_period
# and at step 1; a whole episode; and at 0-2 agents, episodes that end in the
# blind window, a window longer than the episode, a spawn on every step of
# it, and no window (an enemy that crosses the slack in one move).
OPENINGS = (
    [(dict(num_eas=n, center=(20.0, 60.0), ea_monitor_radius=40.0), 14) for n in range(3)]
    + [(dict(num_eas=2, first_spawn_step=0), 33), (dict(num_eas=2, first_spawn_step=1), 19)]
    + [(dict(num_eas=2, time_limit_steps=10), 10)]
    + [
        (dict(case, num_eas=n), end)
        for case, end in [
            (dict(time_limit_steps=20), 20),
            (dict(time_limit_steps=25), 25),
            (dict(enemy_speed=0.05, time_limit_steps=400), 400),
            (dict(first_spawn_step=1, enemy_spawn_period=1), 19),
            (dict(enemy_speed=25.0), 14),
            (dict(center=(20.0, 60.0)), 14),
        ]
        for n in range(3)
    ]
)


def table():
    """(config, runs, the step its opening ends on or None) for 55 configs."""
    base = default_config()
    # Runs 1-8: criterion-6 draws at 0-2 agents, failsafe on and off; at 0-2
    # agents the defaults, an off-centre map with a spawn at step 1, and drones
    # that see barely past their kill range, catching enemies they never saw.
    rng = random.Random(20261018)
    quiet = [apply_overrides(random_valid_config(rng), num_eas=i % 3, failsafe_enabled=i % 2 == 1) for i in range(9)]
    for n in (0, 1, 2):
        quiet.append(apply_overrides(base, num_eas=n))
        edge = apply_overrides(base, num_eas=n, center=(20.0, 60.0), ea_monitor_radius=40.0)
        quiet.append(apply_overrides(edge, first_spawn_step=1, failsafe_enabled=n == 1))
        blind = apply_overrides(base, num_eas=n, detection_radius=2.5, suspicion_threshold=2)
        quiet.append(apply_overrides(blind, failsafe_enabled=n == 2))
    # Runs 1-2: drawn as the criterion-6 test draws them, the defaults again,
    # and the openings.
    rng, drawn = random.Random(20260819), []
    for _ in range(10):
        drawn.append(random_valid_config(rng))
        for _ in range(5):
            rng.randint(0, 2**32)
    drawn += [apply_overrides(base, num_eas=n) for n in (0, 1, 2)]
    return (
        [(validate(cfg), range(1, 9), None) for cfg in quiet]
        + [(validate(cfg), (1, 2), None) for cfg in drawn]
        + [(validate(apply_overrides(base, **o)), (1, 2), end) for o, end in OPENINGS]
    )


def _count(m, calls, functions):
    for module, name in functions:

        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        m.setattr(module, name, counted)


def _crossing(world, cfg, k):
    for e in world.enemies:
        e = copy.copy(e)
        for _ in range(k - 1):
            e.position = dynamics.enemy_policy(e, cfg)
        if distance(e.position, cfg.center) - cfg.sight_bound < cfg.enemy_move:
            return True
    return False


def _count_stretches(m, calls):
    # An enemy is alive in a stretch that starts with one or reaches a spawn.
    def counted(world, cfg, real=experiment.blind_steps):
        k = real(world, cfg)
        if k > 0:
            calls[ALIVE] += world.enemies != [] or world.step + k >= dynamics._next_spawn(world.step, cfg)
            calls[RETURNING] += any(d.arc is None or d.arc[0] != d.position for d in world.drones)
            calls[CROSSING] += _crossing(world, cfg, k)
        return k

    m.setattr(experiment, "blind_steps", counted)


def forced(cfg, **attrs):
    """A config object of its own, with these attributes set."""
    cfg = copy.copy(cfg)
    for name, value in attrs.items():
        object.__setattr__(cfg, name, value)
    return cfg


def play(cfg, run, seed, *shortcuts):
    """The (record, final world) of one episode of cfg, played with these
    shortcuts switched off. Each play gets a config object of its own, so it
    builds its own opening and every count covers the same steps."""
    attrs = {}
    with pytest.MonkeyPatch.context() as m:
        for module, *lever in (SHORTCUTS[shortcut] for shortcut in shortcuts):
            if module is None:
                attrs.update(lever[0])
            else:
                m.setattr(module, *lever)
        return run_episode(forced(cfg, **attrs), run, seed)


Unforced = collections.namedtuple("Unforced", "table openings clamped played calls")


@functools.cache
def unforced():
    """The table played with every shortcut on: for each config the step its
    opening ends on, whether building the opening clamped a drone, and the
    (record, final world) of each run; and the calls counted in the plays.
    Off the centre every drone move calls clamp_to_map; only a call that
    moves the target counts as a clamp."""
    rows = table()
    calls, openings, clamped, played = collections.Counter(), [], [], []
    with pytest.MonkeyPatch.context() as m:
        _count(m, calls, [f for saved in SAVED.values() for f in saved])
        _count_stretches(m, calls)

        def clamp(p, cfg, real=dynamics.clamp_to_map):
            q = real(p, cfg)
            calls["clamp_to_map"] += q != p
            return q

        m.setattr(dynamics, "clamp_to_map", clamp)
        for cfg, runs, _ in rows:
            clamps = calls["clamp_to_map"]
            openings.append(experiment.opening(cfg).step)
            clamped.append(calls["clamp_to_map"] > clamps)
            played.append({run: play(cfg, run, mix_seed(1, run)) for run in runs})
    return Unforced(rows, openings, clamped, played, calls)


def forced_off(*shortcuts):
    """Plays the table with these shortcuts switched off, asserts that every
    play equals the unforced one, and returns the calls that they save,
    counted in the forced plays."""
    base = unforced()
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as m:
        _count(m, calls, [f for shortcut in shortcuts for f in SAVED.get(shortcut, ())])
        for (cfg, runs, _), played in zip(base.table, base.played):
            for run in runs:
                assert play(cfg, run, mix_seed(1, run), *shortcuts) == played[run], (shortcuts, cfg, run)
    return calls


def test_every_shortcut_forced_off_plays_the_same_episodes():
    assert len(unforced().table) == 55
    forced_off(*SHORTCUTS)


def test_the_table_plays_stretches_that_start_off_the_arc_and_stretches_that_end_with_a_crossing_step():
    # Both widen what blind_steps counts as blind, and the plays above show
    # them equal to the plays with every shortcut off, as they do stretches
    # with an enemy alive.
    calls = unforced().calls
    assert calls[ALIVE] > 0 and calls[RETURNING] > 0 and calls[CROSSING] > 0, calls
