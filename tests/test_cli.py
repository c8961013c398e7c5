"""Command line behavior: flags, exit codes, and the three subcommands."""

import os
import subprocess
import sys

import pytest

from sentinel import cli, experiment
from sentinel.cli import main
from sentinel.experiment import check_record, read_records
from sentinel.fixtures import fixture_path


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["simulate", "--eas", "0", "--runs", "1", "--seed", "1", "--what"]) == 2
    capsys.readouterr()


def test_negative_ea_count_is_a_usage_error(capsys):
    assert main(["simulate", "--eas", "-1", "--runs", "1", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "non-negative" in err


def test_zero_runs_is_a_usage_error(capsys):
    assert main(["simulate", "--eas", "0", "--runs", "0", "--seed", "1"]) == 2
    capsys.readouterr()


def test_simulate_writes_a_parsable_record_file(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(["simulate", "--eas", "0", "--runs", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    records = read_records(out)
    for rec in records:
        check_record(rec, time_limit_steps=1200, fps=10, total_drones=6)
    assert len(records) == 3
    assert all(r.result == "fail" for r in records)
    stdout = capsys.readouterr().out
    assert "3 records" in stdout


def test_simulate_frames_directory_gets_one_image_per_run(tmp_path, capsys):
    out = tmp_path / "records.csv"
    frames = tmp_path / "frames"
    code = main(
        ["simulate", "--eas", "0", "--runs", "2", "--seed", "5", "--out", str(out), "--frames", str(frames)]
    )
    assert code == 0
    files = sorted(p.name for p in frames.iterdir())
    assert files == ["run_1.ppm", "run_2.ppm"]
    for p in frames.iterdir():
        assert p.read_bytes().startswith(b"P6\n480 480\n255\n")
    capsys.readouterr()


def test_simulate_frames_do_not_change_the_records(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    framed = tmp_path / "framed.csv"
    main(["simulate", "--eas", "0", "--runs", "2", "--seed", "9", "--out", str(plain)])
    main(
        ["simulate", "--eas", "0", "--runs", "2", "--seed", "9", "--out", str(framed), "--frames", str(tmp_path / "f")]
    )
    assert plain.read_bytes() == framed.read_bytes()
    capsys.readouterr()


def test_threaded_frames_match_serial_frames(tmp_path, monkeypatch, capsys):
    def simulate(label):
        out, frames = tmp_path / f"{label}.csv", tmp_path / label
        args = ["simulate", "--eas", "1", "--runs", "2", "--seed", "11", "--out", str(out), "--frames", str(frames)]
        assert main(args) == 0
        return out.read_bytes(), [(frames / f"run_{i}.ppm").read_bytes() for i in (1, 2)]

    monkeypatch.delenv("SENTINEL_THREADS", raising=False)
    serial = simulate("serial")
    monkeypatch.setenv("SENTINEL_THREADS", "2")
    assert simulate("threaded") == serial
    capsys.readouterr()


def test_simulate_layers_config_file_under_the_flags(tmp_path, capsys):
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("time_limit_steps=50\nnum_eas=2\n")
    out = tmp_path / "records.csv"
    code = main(
        ["simulate", "--eas", "0", "--runs", "2", "--seed", "3", "--config", str(cfg_file), "--out", str(out)]
    )
    assert code == 0
    records = read_records(out)
    # the config shortened the episode; the explicit flag won over num_eas
    assert all(r.steps == 50 and r.result == "success" for r in records)
    assert all(r.ea == 0 for r in records)
    capsys.readouterr()


def test_breach_on_the_last_allowed_step_is_a_fail_record(tmp_path, capsys):
    # Run 1 of base seed 1 breaches on step 389, so a 389-step budget ends
    # it by a breach on its last step, which beats the time limit.
    cfg_file = tmp_path / "limit.cfg"
    cfg_file.write_text("time_limit_steps=389\n")
    out = tmp_path / "records.csv"
    code = main(
        ["simulate", "--eas", "0", "--runs", "1", "--seed", "1", "--config", str(cfg_file), "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err
    assert out.read_text().splitlines()[1] == "1,0,fail,389,38.90,5,1,0"
    capsys.readouterr()


def test_simulate_with_invalid_config_file_is_a_runtime_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("patrol_radius=500\n")
    code = main(["simulate", "--eas", "0", "--runs", "1", "--seed", "1", "--config", str(cfg_file)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_with_a_config_key_given_twice_is_a_runtime_error(tmp_path, capsys):
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("drone_speed = 3.6\ndrone_speed = 99\n")
    code = main(["simulate", "--eas", "0", "--runs", "1", "--seed", "1", "--config", str(cfg_file)])
    assert code == 1
    assert "DuplicateConfigKey: line 2: 'drone_speed' already set on line 1" in capsys.readouterr().err


# The flags of each command that plays run 1 of base seed 1, before --eas.
BATCH_COMMANDS = {
    "simulate": ["simulate", "--runs", "1", "--seed", "1"],
    "render": ["render", "--run", "1", "--seed", "1"],
}


@pytest.mark.parametrize("command", BATCH_COMMANDS)
def test_the_eas_flag_replaces_a_num_eas_line_that_is_invalid_alone(tmp_path, capsys, command):
    # 9 agents for 6 drones is refused, but --eas replaces the line before
    # the config is validated.
    cfg_file = tmp_path / "nine.cfg"
    cfg_file.write_text("num_eas = 9\ntime_limit_steps = 30\n")
    out = tmp_path / "out"
    code = main(BATCH_COMMANDS[command] + ["--eas", "0", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    if command == "simulate":
        assert [(r.ea, r.steps) for r in read_records(out)] == [(0, 30)]
    else:
        assert out.read_bytes().startswith(b"P6\n480 480\n255\n")
    capsys.readouterr()


@pytest.mark.parametrize("command", BATCH_COMMANDS)
def test_a_config_still_invalid_after_the_flags_is_a_runtime_error(tmp_path, capsys, command):
    cfg_file = tmp_path / "three.cfg"
    cfg_file.write_text("total_drones = 3\nnum_eas = 2\n")
    out = tmp_path / "out"
    code = main(BATCH_COMMANDS[command] + ["--eas", "4", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: EnforcementExceedsTotalDrones: num_eas=4 > total_drones=3\n"
    assert not out.exists()


def test_aggregate_prints_csv_and_table(capsys):
    code = main(["aggregate", "--in", str(fixture_path("two_ea"))])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("label,ea,n_runs,")
    assert ",2,30,26.7,53.5,42.7,559.1,0.63,0.49,1.00,0.00" in out
    assert "Success Rate (%)" in out
    assert "Runs" in out


def test_aggregate_handles_multiple_inputs(capsys):
    code = main(
        [
            "aggregate",
            "--in", str(fixture_path("no_ea")),
            "--in", str(fixture_path("one_ea")),
            "--in", str(fixture_path("two_ea")),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.count(",") == 10 and not line.startswith("label")]
    assert len(rows) == 3


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines", "plain"])
def test_aggregate_quotes_a_label_that_would_split_its_csv_row(tmp_path, capsys, name):
    # The label is the input path; csv.reader must read it back as one field.
    import csv
    import io

    directory = tmp_path / name
    directory.mkdir()
    path = directory / "ea.csv"
    path.write_bytes(fixture_path("two_ea").read_bytes())
    assert main(["aggregate", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    header, row = list(csv.reader(io.StringIO(out.split("\n\n", 1)[0])))
    assert len(header) == len(row) == 11
    assert row[0] == str(path)
    assert row[1:4] == ["2", "30", "26.7"]


def test_aggregate_verify_confirms_the_two_agent_column(capsys):
    code = main(["aggregate", "--in", str(fixture_path("two_ea")), "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches the reference summary" in out


def test_aggregate_verify_flags_the_one_agent_column(capsys):
    code = main(["aggregate", "--in", str(fixture_path("one_ea")), "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "DIVERGES from the reference summary" in out
    assert "Success Rate (%)" in out
    assert "Avg Steps" in out


def test_aggregate_missing_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["aggregate", "--in", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        (["1,0,fail,10,nan,5,1,0"], "error: line 2: run 1: time_s nan not finite\n"),
        (["1,0,fail,10,nan,5,1,0", "2,0,fail,10,inf,5,1,0"], "error: line 2: run 1: time_s nan not finite\n"),
        (["1,0,fail,10,1.00,5,1,0", "2,0,fail,10,inf,5,1,0"], "error: line 3: run 2: time_s inf not finite\n"),
    ],
    ids=["nan", "nan-then-inf", "inf-after-a-good-row"],
)
def test_aggregate_refuses_a_time_that_is_not_finite(tmp_path, capsys, rows, message):
    # Such a row once passed the record checks: one made the duration columns
    # read nan, two made statistics.stdev raise.
    records = tmp_path / "records.csv"
    records.write_text("\n".join(["run,ea,result,steps,time_s,healthy,malicious,reformed", *rows]) + "\n")
    assert main(["aggregate", "--in", str(records)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def render(tmp_path, config_text=None, *flags):
    """main(["render", ...]) for run 1 of base seed 7 at two agents, with
    config_text as the --config file; returns (exit code, image path)."""
    argv = ["render", "--eas", "2", "--seed", "7", "--run", "1", *flags]
    if config_text is not None:
        cfg_file = tmp_path / "render.cfg"
        cfg_file.write_text(config_text)
        argv += ["--config", str(cfg_file)]
    out = tmp_path / "frame.ppm"
    return main(argv + ["--out", str(out)]), out


def test_render_draws_the_final_world_of_a_run(tmp_path, capsys):
    code, out = render(tmp_path)
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n480 480\n255\n")
    assert "480x480" in capsys.readouterr().out


def test_render_draws_a_non_default_map_whole(tmp_path, capsys):
    code, out = render(tmp_path, "map_size = 200\ncenter_x = 100\ncenter_y = 100\n")
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n800 800\n255\n")
    assert "800x800" in capsys.readouterr().out


def test_render_draws_a_small_map(tmp_path, capsys):
    config = "map_size = 50\ncenter_x = 25\ncenter_y = 25\npatrol_radius = 20\nea_orbit_radius = 10\n"
    code, out = render(tmp_path, config)
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n200 200\n255\n")
    assert "200x200" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, violation",
    [
        ("map_size = -1", "MapSizeNotPositive: map_size=-1.0"),
        ("map_size = nan", "NonFiniteValue: map_size=nan"),
        ("map_size = 1e308", "NonFiniteValue: 4*map_size=inf"),
        ("center_radius = 1e308", "CenterRadiusExceedsPatrolRadius: center_radius=1e+308"),
    ],
    ids=["-1", "nan", "1e308", "radius-1e308"],
)
def test_render_rejects_an_impossible_map(tmp_path, capsys, config, violation):
    # 1e308 is finite, but its spawn perimeter is not.
    code, out = render(tmp_path, config + "\n")
    assert code == 1
    assert violation in capsys.readouterr().err
    assert not out.exists()


def test_render_of_a_frame_too_large_to_draw_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # 4e9 x 4e9 pixels overflow the canvas length, found before the run is played.
    def no_run(*args):
        raise AssertionError("run_episode was called")

    monkeypatch.setattr(cli, "run_episode", no_run)
    code, out = render(tmp_path, "map_size = 1000000000.0\n")
    assert code == 1
    assert capsys.readouterr().err == "error: cannot draw a 4000000000x4000000000 frame: too large\n"
    assert not out.exists()


def test_render_of_a_world_file_is_a_usage_error(tmp_path, capsys):
    code, out = render(tmp_path, None, "--world", str(tmp_path / "world.txt"))
    assert code == 2
    assert "unrecognized arguments: --world" in capsys.readouterr().err
    assert not out.exists()


def test_render_replays_the_frame_that_simulate_wrote_for_the_run(tmp_path, capsys):
    # Run 3 has its own mixed seed, so a render that replayed it under the
    # base seed or another run's seed would draw a different world.
    frames = tmp_path / "frames"
    batch = ["--eas", "1", "--seed", "5"]
    assert main(["simulate", *batch, "--runs", "3", "--out", str(tmp_path / "r.csv"), "--frames", str(frames)]) == 0
    out = tmp_path / "run3.ppm"
    assert main(["render", *batch, "--run", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == (frames / "run_3.ppm").read_bytes()
    assert out.read_bytes() != (frames / "run_2.ppm").read_bytes()
    capsys.readouterr()


def test_simulate_frames_too_large_to_draw_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # The frame size is checked before the batch starts, so not one run is played.
    def no_batch(*args):
        raise AssertionError("run_batch was called")

    monkeypatch.setattr(cli, "run_batch", no_batch)
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("map_size = 1000000000.0\n")
    out, frames = tmp_path / "records.csv", tmp_path / "frames"
    argv = ["simulate", "--eas", "1", "--runs", "400", "--seed", "1", "--config", str(cfg_file)]
    assert main(argv + ["--out", str(out), "--frames", str(frames)]) == 1
    assert capsys.readouterr().err == "error: cannot draw a 4000000000x4000000000 frame: too large\n"
    assert not out.exists()
    assert not frames.exists()


def simulate_in_subprocess(tmp_path, config_text):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config_text)
    return subprocess.run(
        [sys.executable, "-m", "sentinel.cli", "simulate", "--eas", "1", "--runs", "2", "--seed", "1"]
        + ["--config", str(cfg_file), "--out", str(tmp_path / "records.csv")],
        capture_output=True,
        text=True,
        timeout=20,
    )


def test_infinite_speed_config_exits_1_instead_of_hanging(tmp_path):
    proc = simulate_in_subprocess(tmp_path, "drone_speed = inf\n")
    assert proc.returncode == 1
    assert "NonFiniteValue" in proc.stderr


def test_huge_finite_speed_config_finishes(tmp_path):
    proc = simulate_in_subprocess(tmp_path, "drone_speed = 1e9\ntime_limit_steps = 60\n")
    assert proc.returncode == 0, proc.stderr
    records = read_records(tmp_path / "records.csv")
    for rec in records:
        check_record(rec, time_limit_steps=60)
    assert len(records) == 2


def test_map_too_large_to_walk_its_perimeter_is_a_runtime_error(tmp_path, capsys):
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text("map_size = 4.5e307\n")
    out = tmp_path / "records.csv"
    code = main(["simulate", "--eas", "1", "--runs", "1", "--seed", "1", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    assert "NonFiniteValue: 4*map_size=inf" in capsys.readouterr().err
    assert not out.exists()


def test_more_drones_than_a_world_can_hold_is_a_runtime_error(tmp_path, capsys):
    # 10**20 drones used to pass validation, and initial_world then died in
    # random.sample with an OverflowError traceback.
    cfg_file = tmp_path / "swarm.cfg"
    cfg_file.write_text("total_drones = 100000000000000000000\n")
    out = tmp_path / "records.csv"
    code = main(["simulate", "--eas", "0", "--runs", "1", "--seed", "1", "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: TotalDronesExceedsMax: total_drones=100000000000000000000 > 1000000\n"
    assert not out.exists()


def test_orbit_radius_beyond_half_map_is_a_runtime_error(tmp_path, capsys):
    cfg_file = tmp_path / "orbit.cfg"
    cfg_file.write_text("ea_orbit_radius = 70\n")
    code = main(["simulate", "--eas", "1", "--runs", "1", "--seed", "1", "--config", str(cfg_file)])
    assert code == 1
    assert "OrbitRadiusExceedsHalfMap" in capsys.readouterr().err


@pytest.mark.parametrize("frames", [False, True], ids=["records", "frames"])
def test_bad_thread_count_is_a_runtime_error(tmp_path, monkeypatch, capsys, frames):
    # The worker count is parsed before any pool is created.
    monkeypatch.setenv("SENTINEL_THREADS", "abc")
    out = tmp_path / "records.csv"
    extra = ["--frames", str(tmp_path / "frames")] if frames else []
    code = main(["simulate", "--eas", "0", "--runs", "2", "--seed", "1", "--out", str(out)] + extra)
    assert code == 1
    assert "error: SENTINEL_THREADS" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "frames").exists()


def test_importing_the_cli_leaves_the_process_pool_unloaded(tmp_path):
    # A pooled batch forks its workers directly: neither start-up nor a
    # pooled simulate pays for loading a process pool, and a serial one,
    # played as one stripe with no fork, does not load pickle either.
    pool = "('concurrent.futures', 'multiprocessing')"
    code = f"import sys, sentinel, sentinel.cli; print(any(m in sys.modules for m in {pool}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.stdout == "False\n", proc.stderr

    out = tmp_path / "records.csv"
    argv = ["simulate", "--eas", "1", "--runs", "4", "--seed", "1", "--out", str(out)]
    for threads, unloaded in (("2", pool), ("1", "('pickle',)")):
        code = (
            "import sys; from sentinel.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(any(m in sys.modules for m in {unloaded}))\n"
        )
        env = dict(os.environ, SENTINEL_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.stdout.splitlines()[-1] == "False", (threads, proc.stderr)
        assert len(read_records(out)) == 4


def test_a_worker_that_exits_without_reporting_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # On 2 workers a child plays runs 2 and 4; it dies on run 4.
    parent = os.getpid()
    real = experiment.run_episode

    def run_episode(cfg, run_index, seed):
        if run_index == 4 and os.getpid() != parent:
            os._exit(3)
        return real(cfg, run_index, seed)

    monkeypatch.setattr(experiment, "run_episode", run_episode)
    monkeypatch.setenv("SENTINEL_THREADS", "2")
    out = tmp_path / "records.csv"
    code = main(["simulate", "--eas", "0", "--runs", "5", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the worker playing stripe 1 (runs 2, 4, ...) exited with status 3"), err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_module_entry_point_runs_as_a_subprocess(tmp_path):
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "sentinel.cli", "simulate", "--eas", "0", "--runs", "1", "--seed", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
