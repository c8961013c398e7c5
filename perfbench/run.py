"""sentinel-sim benchmark: one workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload episodes-2ea --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each exists):

    episodes-2ea  default scenario, 2 agents, run_episode in-process
    episodes-0ea  the same loop with 0 agents: enforcement bypassed
    cli-sweep     `sentinel simulate` over many short-horizon episodes with
                  SENTINEL_THREADS=2, then `sentinel aggregate --verify`
    cli-frames    `sentinel simulate --frames` on the default scenario

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
wrapper installed. ``--trace 1`` is a separate run that wraps module
attributes of sentinel (tracing.py) and reports the per-layer metrics, the
tracing overhead and a span file. Both check every output: records, event
streams and frames must equal an in-process reference and, on the seeds in
pins.json, the pinned SHA-256 digests. Host times are scaled to a reference
CPU speed (speed.py). The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from speed import Speed
from tracing import EPISODE_OVERHEAD, Tracer, install_counts, install_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

WORKLOADS = ("episodes-2ea", "episodes-0ea", "cli-sweep", "cli-frames")
DEFAULT_SEED = 1
HELD_OUT_SEED = 4070  # kept out of tuning; for confirming a claimed gain
WORKERS = 2  # SENTINEL_THREADS for every threaded call; an invalid value would silently mean 1
SETUP_FIRST = 5  # set-up samples before the first pass; one more follows each pass
# CPU time of `python3 -c pass` with this checkout's PYTHONPATH, on the
# reference box in its fast state.
BARE_START_S = 0.046
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.025  # in-process work between two kernel samples
SAMPLE_GAP_S = 0.05  # kernel samples while a CLI child runs
CLI_TIMEOUT_S = 120  # a CLI call still running then is killed and fails
# The short-horizon sweep stops before the first possible breach: the
# nearest spawn point is 60 units out, so no enemy reaches the zone before
# step first_spawn_step + 55 = 70.
SHORT_HORIZON_STEPS = 20

# Work per pass. "tiny" only serves selfcheck.py, in-process, and is never pinned.
SIZES = {
    "full": {"episode_steps": 20_000, "sweep_runs": 2_000, "frames_steps": 15_000},
    "tiny": {"episode_steps": 300, "sweep_runs": 12, "frames_steps": 300},
}

MODULES = ("config", "world", "dynamics", "enforcement", "experiment", "stats", "render", "cli")


def load_sentinel() -> SimpleNamespace:
    """Import sentinel from this checkout's src/, never from site-packages."""
    package = SRC / "sentinel"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no sentinel package at {package}; run from a sentinel-sim checkout")
    sys.path.insert(0, str(SRC))
    m = SimpleNamespace(**{name: importlib.import_module(f"sentinel.{name}") for name in MODULES})
    m.fixtures = importlib.import_module("sentinel.fixtures")
    if Path(m.config.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported sentinel from {m.config.__file__}, not {package}")
    return m


# --- bookkeeping ---------------------------------------------------------------


class Checks:
    """Operations attempted and the ones that failed: an episode that
    raised, a CLI exit other than 0, or an output that differs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Context:
    m: SimpleNamespace
    workload: str
    seed: int
    seconds: float
    size: str
    workdir: Path
    speed: Speed = field(default_factory=Speed)
    checks: Checks = field(default_factory=Checks)
    digests: dict = field(default_factory=dict)
    setup_times: list = field(default_factory=list)

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]

    @property
    def trace_file(self) -> Path:
        return OUT / f"trace-{self.workload}-seed{self.seed}.csv"

    def rel(self, path: Path) -> str:
        # CLI arguments are relative to the root so that printed labels,
        # and with them the pinned digests, do not depend on the checkout.
        return str(path.relative_to(ROOT))

    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(SRC), SENTINEL_THREADS=str(WORKERS), TMPDIR=str(self.workdir))


@dataclass
class Pass:
    """Episodes played in-process, with host times scaled to the reference
    speed; ``wall`` is their sum."""

    records: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    worlds: list = field(default_factory=list)
    next_run: int = 1

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def steps(self) -> int:
        return sum(r.steps for r in self.records)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux. Children counts every waited-for
    # descendant: setup interpreters, CLI processes and pool workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextlib.contextmanager
def sentinel_threads(n: int):
    saved = os.environ.get("SENTINEL_THREADS")
    os.environ["SENTINEL_THREADS"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("SENTINEL_THREADS", None)
        else:
            os.environ["SENTINEL_THREADS"] = saved


def setup_sample(ctx: Context, code: str) -> None:
    """One sample of a fresh interpreter that imports sentinel, validates
    the workload config and exits, kept in ``ctx.setup_times``.

    The sample is the child's CPU time: on the reference box, a shared VM,
    the wall time of a 100 ms child gains 50 ms stalls at random. Start-up does not follow the
    calibration loop's speed either (it moved 1.4x where the loop moved
    1.8x), so the sample is scaled by a bare ``python3 -c pass`` started
    just before it on the same CPU, to read as if that took BARE_START_S.
    """

    def child_cpu_s(source: str) -> float:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", source], env=ctx.env(), cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime

    with ctx.speed.pinned():
        ctx.setup_times.append(BARE_START_S / child_cpu_s("pass") * child_cpu_s(code))


def setup_code(num_eas: int, config_file: str | None = None) -> str:
    load = f"load_config({config_file!r})" if config_file else "default_config()"
    return (
        "import sentinel, sentinel.cli\n"
        "from sentinel.config import apply_overrides, default_config, load_config, validate\n"
        f"validate(apply_overrides({load}, num_eas={num_eas}))\n"
    )


# --- episodes and output checks --------------------------------------------------


def play(ctx: Context, cfg, run: int):
    """One episode through experiment.run_episode, timed from outside.

    Looked up at call time so that a traced run sees its wrapper. Returns
    (record, world, raw seconds), or None when the episode raised.
    """
    m = ctx.m
    start = time.perf_counter()
    try:
        record, world = m.experiment.run_episode(cfg, run, m.experiment.mix_seed(ctx.seed, run))
    except Exception as exc:  # a raising episode is a failed operation, not a crash
        ctx.checks.record(False, f"run {run} raised {exc!r}")
        return None
    took = time.perf_counter() - start
    ctx.checks.record(True, "")
    return record, world, took


def episode_pass(ctx: Context, cfg, first: int, budget: int, keep_worlds: bool = False) -> Pass:
    """Episodes first, first+1, ... until the pass holds ``budget`` steps.

    A step budget, not an episode count, keeps the work of a pass nearly the
    same for every seed although episode lengths vary widely. Call it pinned:
    the kernel is sampled every CALIBRATE_EVERY_S of work, and each episode
    is scaled by the mean of the samples either side of it.
    """
    result = Pass(next_run=first)
    raw: list[float] = []
    last = ctx.speed.kernel_time()

    def calibrate():
        nonlocal last
        now = ctx.speed.kernel_time()
        f = Speed.factor([last, now])
        result.seconds.extend(s * f for s in raw)
        raw.clear()
        last = now

    steps = 0
    while steps < budget:
        played = play(ctx, cfg, result.next_run)
        result.next_run += 1
        if played is None:
            break
        record, world, took = played
        result.records.append(record)
        raw.append(took)
        if keep_worlds:
            result.worlds.append(world)
        steps += record.steps
        if sum(raw) >= CALIBRATE_EVERY_S:
            calibrate()
    if raw:
        calibrate()
    return result


def records_bytes(ctx: Context, records: list, name: str) -> bytes:
    path = ctx.workdir / name
    ctx.m.experiment.write_records(records, path)
    return path.read_bytes()


def events_bytes(worlds: list) -> bytes:
    return json.dumps(
        [[[e.step, e.kind, e.data] for e in w.events] for w in worlds], sort_keys=True, separators=(",", ":")
    ).encode()


def frames_digest(frames) -> tuple[str, int]:
    """Digest and total size of a stream of frames, one frame held at a time."""
    h = hashlib.sha256()
    size = 0
    for frame in frames:
        h.update(frame)
        size += len(frame)
    return h.hexdigest(), size


def check_pins(ctx: Context) -> bool:
    """Compare the run's digests with pins.json; False when not pinned."""
    if ctx.size != "full" or not PINS.is_file():
        return False
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(ctx.workload, {}).get(str(ctx.seed))
    if pinned is None:
        return False
    for key in sorted(set(pinned) | set(ctx.digests)):
        ctx.checks.record(
            pinned.get(key) == ctx.digests.get(key),
            f"{key} digest {ctx.digests.get(key)} differs from pinned {pinned.get(key)}",
        )
    return True


def check_same(ctx: Context, got: bytes, expected: bytes, what: str) -> bool:
    return ctx.checks.record(got == expected, f"{what}: sha256 {sha256(got)} != reference {sha256(expected)}")


def check_rerun(ctx: Context, first: Pass, again: Pass, what: str) -> None:
    ctx.checks.record(again.records == first.records, f"{what}: records differ from the first pass")


def ref_gap_pct(m, records: list, num_eas: int) -> float:
    ref = m.stats.REFERENCE_AGGREGATES.get(num_eas)
    if ref is None:
        return 0.0
    return abs(m.stats.aggregate(records).success_rate_pct - ref.success_rate_pct)


def run_cli(ctx: Context, args: list[str]) -> tuple[float, str]:
    """One `sentinel` subprocess; returns (scaled seconds, stdout).

    While the child runs, the kernel is sampled on each CPU in turn, so the
    scale follows the CPUs' speed through the whole call.
    """
    speed = ctx.speed
    samples = speed.on_each_cpu()
    stdout_file, stderr_file = ctx.workdir / "cli.stdout", ctx.workdir / "cli.stderr"
    with open(stdout_file, "w") as out, open(stderr_file, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "sentinel.cli", *args], env=ctx.env(), cwd=ROOT, stdout=out, stderr=err
        )
        while True:
            try:
                proc.wait(timeout=SAMPLE_GAP_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - start > CLI_TIMEOUT_S:
                    proc.kill()
                    proc.wait()
                    break
                samples.append(speed.on(speed.cpus[len(samples) % len(speed.cpus)]))
        took = time.perf_counter() - start
    samples += speed.on_each_cpu()
    ctx.checks.record(
        proc.returncode == 0,
        f"sentinel {' '.join(args)} exited {proc.returncode}: {stderr_file.read_text().strip()}",
    )
    return took * Speed.factor(samples), stdout_file.read_text()


def main_in_process(ctx: Context, args: list[str]) -> tuple[float, str]:
    """cli.main in this process; returns (raw seconds, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = ctx.m.cli.main(args)
    took = time.perf_counter() - start
    ctx.checks.record(code == 0, f"cli.main({args}) returned {code}")
    return took, out.getvalue()


def startup_s(ctx: Context, repeats: int = 5) -> float:
    """CLI start-up: a short serial call, `aggregate` over one fixture, as a
    subprocess less the same call in-process; the median of ``repeats``."""
    fixture = ctx.m.fixtures.fixture_path(ctx.m.fixtures.FIXTURE_NAMES[0])
    args = ["aggregate", "--in", ctx.rel(fixture)]
    f = ctx.speed.run_factor()
    return median(run_cli(ctx, args)[0] - main_in_process(ctx, args)[0] * f for _ in range(repeats))


def until(ctx: Context, start: float, rounds: list, minimum: int) -> bool:
    return len(rounds) < minimum or time.perf_counter() - start < ctx.seconds


# --- per-layer metrics --------------------------------------------------------------

# Timed in the "phases" pass, where their own callees are not wrapped.
PHASES_US = (
    "dynamics.spawn_enemies",
    "dynamics.compliant_policy",
    "dynamics.malicious_policy",
    "dynamics.enemy_policy",
    "dynamics.resolve_interceptions",
    "dynamics.breach_occurred",
    "enforcement.run_enforcement_phase",
)
# Timed in the "deep" pass, inside run_enforcement_phase.
DEEP_US = (
    "enforcement.observe",
    "enforcement.update_suspicion",
    "enforcement.ea_policy",
    "enforcement.attempt_reformation",
)

NOT_CALLED = (
    "experiment.run_batch.s",
    "experiment.parallel_efficiency",
    "experiment.write_records.ms",
    "experiment.read_records.ms",
    "stats.aggregate.ms",
    "stats.verify_against_reference.ms",
    "render.render_frame.ms_p50",
    "render.write_image.ms_p50",
    "render.bytes_per_frame",
    "cli.startup_s",
    "cli.simulate.s",
    "cli.aggregate.s",
)


def new_span_tracers() -> dict[str, Tracer]:
    """One tracer per span level that the per-layer times come from."""
    return {"step": Tracer(), "phases": Tracer(), "deep": Tracer(keep_spans=True)}


def span_passes(ctx: Context, tracers: dict[str, Tracer], body) -> dict:
    """``body`` once under each tracer's span level; returns its results by
    level. Only the first deep pass keeps spans for the trace file."""
    results = {}
    for level, tracer in tracers.items():
        with tracer:
            install_spans(tracer, ctx.m, level)
            results[level] = body()
        tracer.keep_spans = False
    return results


def median_self_ns(whole: Tracer, parts: Tracer, name: str) -> float:
    """Median self time of span ``name``: its duration in ``whole``, where
    its children are not wrapped, less its child spans in ``parts`` on the
    same call. Both passes make the same calls in the same order."""
    return median(w - c for w, c in zip(whole.durations.get(name, ()), parts.child_ns.get(name, ())))


def layer_metrics(counts: Tracer, tracers: dict[str, Tracer], scale: float, extra: dict) -> dict:
    """Per-layer metrics from an exact-count pass and the span passes.

    Span times are multiplied by ``scale``. ``extra`` supplies what the
    workload timed itself; a layer the workload never calls reads 0.
    """
    c = counts.counts
    step, phases, deep = tracers["step"], tracers["phases"], tracers["deep"]
    steps = c["dynamics.step"] or 1
    episodes = c["experiment.run_episode"] or 1
    pursuits = c["experiment.run_episode.pursuits"]
    us = scale / 1e3
    values = {
        "dynamics.step.us_p50": step.median_ns("dynamics.step") * us,
        "dynamics.step.self_us": median_self_ns(step, phases, "dynamics.step") * us,
        "world.distance.calls_per_step": c["world.distance"] / steps,
        "dynamics.nearest_enemy.calls_per_step": c["dynamics.nearest_enemy"] / steps,
        "dynamics.live_enemies_mean": c["dynamics.step.enemies"] / steps,
        "enforcement.observations_per_step": c["enforcement.observe.observations"] / steps,
        "enforcement.reformations_per_pursuit": (
            c["experiment.run_episode.reformations"] / pursuits if pursuits else 0.0
        ),
        "config.validate.calls_per_episode": c["config.validate"] / episodes,
        # Each is called once per episode, directly by run_episode.
        "experiment.episode_overhead_us": sum(step.median_ns(f"experiment.{a}") for a in EPISODE_OVERHEAD) * us,
    }
    for name in PHASES_US:
        values[f"{name}.us_p50"] = phases.median_ns(name) * us
    for name in DEEP_US:
        values[f"{name}.us_p50"] = deep.median_ns(name) * us
    values.update(dict.fromkeys(NOT_CALLED, 0.0))
    values.update(extra)
    return values


def episode_timing(seconds: list[float]) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {
        "experiment.run_episode.ms_p50": median(ms),
        "experiment.run_episode.ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else median(ms),
    }


def counted(ctx: Context, body) -> Tracer:
    """Run ``body`` under exact-count wrappers and return the tracer."""
    with Tracer() as tracer:
        install_counts(tracer, ctx.m)
        body()
    return tracer


def finish_trace(ctx: Context, counts: Tracer, deep: Tracer) -> None:
    deep.counts.update(counts.counts)
    deep.write(ctx.trace_file)


# --- workloads: default-scenario episodes in-process ----------------------------------


def episodes_workload(ctx: Context, num_eas: int, trace: bool) -> dict:
    m = ctx.m
    cfg = m.config.apply_overrides(m.config.default_config(), num_eas=num_eas)
    budget = ctx.sizes["episode_steps"]
    code = setup_code(num_eas)
    for _ in range(0 if trace else SETUP_FIRST):
        setup_sample(ctx, code)
    play(ctx, cfg, 1)  # warm-up

    start = time.perf_counter()
    first = episode_pass(ctx, cfg, 1, budget, keep_worlds=True)
    ctx.digests["records"] = sha256(records_bytes(ctx, first.records, "records.csv"))
    ctx.digests["events"] = sha256(events_bytes(first.worlds))
    first.worlds.clear()

    if not trace:
        passes = [first]
        while until(ctx, start, passes, MIN_PASSES):
            passes.append(episode_pass(ctx, cfg, passes[-1].next_run, budget))
            setup_sample(ctx, code)
        per_step_us = [s / r.steps * 1e6 for p in passes for r, s in zip(p.records, p.seconds)]
        return {
            "setup_s": median(ctx.setup_times),
            "wall_s": median(p.wall for p in passes),
            "sim_steps_per_s": median(p.steps / p.wall for p in passes),
            "step_us_p50": median(per_step_us),
            "peak_rss_mb": peak_rss_mb(),
        }

    counts = counted(ctx, lambda: check_rerun(ctx, first, episode_pass(ctx, cfg, 1, budget), "count pass"))
    tracers = new_span_tracers()
    plain, traced = [first], []
    while until(ctx, start, traced, 1):
        plain.append(episode_pass(ctx, cfg, 1, budget))
        check_rerun(ctx, first, plain[-1], "rerun")
        passes = span_passes(ctx, tracers, lambda: episode_pass(ctx, cfg, 1, budget))
        for level, again in passes.items():
            check_rerun(ctx, first, again, f"{level} pass")
        traced.append(passes["deep"])
    finish_trace(ctx, counts, tracers["deep"])
    extra = episode_timing([s for p in plain for s in p.seconds])
    extra.update(
        {
            "experiment.episodes_per_s": median(len(p.records) / p.wall for p in plain),
            "trace.overhead_s": median(p.wall for p in traced) - median(p.wall for p in plain),
            "stats.ref_gap_success_pct": ref_gap_pct(m, first.records, num_eas),
        }
    )
    return layer_metrics(counts, tracers, ctx.speed.run_factor(), extra)


# --- workloads: the CLI ------------------------------------------------------------------


def sweep_workload(ctx: Context, trace: bool) -> dict:
    m = ctx.m
    config_file = ctx.workdir / "short_horizon.cfg"
    config_file.write_text(f"time_limit_steps = {SHORT_HORIZON_STEPS}\n", encoding="utf-8")
    cfg = m.config.validate(m.config.apply_overrides(m.config.load_config(config_file), num_eas=1))
    runs = ctx.sizes["sweep_runs"]
    out = ctx.workdir / "records.csv"
    simulate = ["simulate", "--eas", "1", "--runs", str(runs), "--seed", str(ctx.seed)]
    simulate += ["--config", ctx.rel(config_file), "--out", ctx.rel(out)]
    aggregate = ["aggregate", "--in", ctx.rel(out)]
    for name in m.fixtures.FIXTURE_NAMES:
        aggregate += ["--in", ctx.rel(m.fixtures.fixture_path(name))]
    aggregate.append("--verify")
    code = setup_code(1, ctx.rel(config_file))
    for _ in range(0 if trace else SETUP_FIRST):
        setup_sample(ctx, code)
    start = time.perf_counter()

    # Reference: the same inputs serially in-process, one episode at a time
    # as serial run_batch plays them, to time each; the traced run also
    # calls serial run_batch itself. Every record reads the same whatever
    # the seed, since every episode survives the short horizon.
    with ctx.speed.pinned():
        timed = episode_pass(ctx, cfg, 1, runs * SHORT_HORIZON_STEPS)
        if trace:
            with sentinel_threads(1):
                batch_start = time.perf_counter()
                batch = m.experiment.run_batch(cfg, runs, ctx.seed)
                serial_batch_s = time.perf_counter() - batch_start
    expected = records_bytes(ctx, timed.records, "reference.csv")
    for r in timed.records:
        ctx.checks.record(
            r.result == "success" and r.steps == SHORT_HORIZON_STEPS, f"run {r.run}: short horizon breached"
        )
    ctx.digests["records"] = sha256(expected)
    if trace:
        check_same(ctx, records_bytes(ctx, batch, "batch.csv"), expected, "serial run_batch records")

    def sweep_pass(invoke) -> tuple[float, float]:
        sim_s, _ = invoke(simulate)
        check_same(ctx, out.read_bytes() if out.exists() else b"", expected, "simulate records")
        agg_s, report = invoke(aggregate)
        ctx.digests.setdefault("aggregate", sha256(report.encode()))
        ctx.checks.record(
            sha256(report.encode()) == ctx.digests["aggregate"], "aggregate --verify report differs between runs"
        )
        out.unlink(missing_ok=True)
        return sim_s, agg_s

    if not trace:
        walls = []
        while until(ctx, start, walls, MIN_PASSES):
            walls.append(sweep_pass(lambda args: run_cli(ctx, args)))
            setup_sample(ctx, code)
        return {
            "setup_s": median(ctx.setup_times),
            "wall_s": median(s + a for s, a in walls),
            "sim_steps_per_s": median(runs * SHORT_HORIZON_STEPS / s for s, _ in walls),
            "step_us_p50": median(s / r.steps * 1e6 for r, s in zip(timed.records, timed.seconds)),
            "peak_rss_mb": peak_rss_mb(),
        }

    # In-process cli.main: serial under exact counts, threaded under
    # batch-level spans, serial under each span level. Pool workers are out
    # of reach, so dispatch cost shows as serial versus threaded run_batch.
    def serial_main():
        with sentinel_threads(1):
            sweep_pass(lambda args: main_in_process(ctx, args))

    def threaded_main():
        with sentinel_threads(WORKERS):
            return sweep_pass(lambda args: main_in_process(ctx, args))

    counts = counted(ctx, serial_main)
    shallow, tracers = Tracer(), new_span_tracers()
    subprocess_walls, shallow_walls = [], []
    while until(ctx, start, shallow_walls, 1):
        subprocess_walls.append(sweep_pass(lambda args: run_cli(ctx, args)))
        with shallow:
            install_spans(shallow, m, "batch")
            shallow.count(m.experiment, "_worker_count", "experiment.workers", used=lambda _, workers: workers)
            shallow_walls.append(threaded_main())
        span_passes(ctx, tracers, serial_main)
    finish_trace(ctx, counts, tracers["deep"])
    calls, used = shallow.counts["experiment.workers"], shallow.counts["experiment.workers.used"]
    ctx.checks.record(
        calls > 0 and used == WORKERS * calls,
        f"threaded run_batch ran {used} workers over {calls} calls, not {WORKERS} each",
    )

    f = ctx.speed.run_factor()
    threaded_batch_s = shallow.median_ns("experiment.run_batch") / 1e9
    per_call_ms = f / 1e6 / len(shallow_walls)
    extra = episode_timing(timed.seconds)
    extra.update(
        {
            "experiment.episodes_per_s": median(runs / s for s, _ in subprocess_walls),
            "experiment.run_batch.s": threaded_batch_s * f,
            "experiment.parallel_efficiency": serial_batch_s / (WORKERS * threaded_batch_s),
            "experiment.write_records.ms": shallow.median_ns("experiment.write_records") * f / 1e6,
            "experiment.read_records.ms": shallow.total_ns("experiment.read_records") * per_call_ms,
            "stats.aggregate.ms": shallow.total_ns("stats.aggregate") * per_call_ms,
            "stats.verify_against_reference.ms": shallow.total_ns("stats.verify_against_reference") * per_call_ms,
            "cli.startup_s": startup_s(ctx),
            "cli.simulate.s": median(s for s, _ in shallow_walls) * f,
            "cli.aggregate.s": median(a for _, a in shallow_walls) * f,
            "trace.overhead_s": (tracers["deep"].median_ns("experiment.run_batch") / 1e9 - serial_batch_s) * f,
            # Not applicable: every episode survives the short horizon, so
            # the success rate says nothing about the model.
            "stats.ref_gap_success_pct": 0.0,
        }
    )
    return layer_metrics(counts, tracers, f, extra)


def frames_workload(ctx: Context, trace: bool) -> dict:
    m = ctx.m
    cfg = m.config.apply_overrides(m.config.default_config(), num_eas=1)
    code = setup_code(1)
    for _ in range(0 if trace else SETUP_FIRST):
        setup_sample(ctx, code)
    start = time.perf_counter()

    # The reference fixes the batch: the seed's first episodes holding the
    # step budget, each rendered in-process.
    with ctx.speed.pinned():
        play(ctx, cfg, 1)  # warm-up
        reference = episode_pass(ctx, cfg, 1, ctx.sizes["frames_steps"], keep_worlds=True)
    runs = len(reference.records)
    expected = records_bytes(ctx, reference.records, "reference.csv")
    expected_frames, frames_size = frames_digest(
        m.render.ppm_bytes(m.render.render_frame(w, cfg)) for w in reference.worlds
    )
    ctx.digests["records"] = sha256(expected)
    ctx.digests["frames"] = expected_frames
    reference.worlds.clear()
    out = ctx.workdir / "records.csv"
    frames = ctx.workdir / "frames"
    simulate = ["simulate", "--eas", "1", "--runs", str(runs), "--seed", str(ctx.seed)]
    simulate += ["--out", ctx.rel(out), "--frames", ctx.rel(frames)]

    def frames_pass(invoke) -> float:
        took, _ = invoke(simulate)
        check_same(ctx, out.read_bytes() if out.exists() else b"", expected, "simulate records")
        paths = (frames / f"run_{i}.ppm" for i in range(1, runs + 1))
        written = frames_digest(path.read_bytes() if path.exists() else b"" for path in paths)
        ctx.checks.record(written == (expected_frames, frames_size), "frames differ from the reference")
        out.unlink(missing_ok=True)
        shutil.rmtree(frames, ignore_errors=True)
        return took

    if not trace:
        walls = []
        while until(ctx, start, walls, MIN_PASSES):
            walls.append(frames_pass(lambda args: run_cli(ctx, args)))
            setup_sample(ctx, code)
        return {
            "setup_s": median(ctx.setup_times),
            "wall_s": median(walls),
            "sim_steps_per_s": median(reference.steps / w for w in walls),
            "step_us_p50": median(s / r.steps * 1e6 for r, s in zip(reference.records, reference.seconds)),
            "peak_rss_mb": peak_rss_mb(),
        }

    def in_process() -> float:
        return frames_pass(lambda args: main_in_process(ctx, args))

    counts = counted(ctx, in_process)
    shallow, tracers = Tracer(), new_span_tracers()
    subprocess_walls, shallow_walls, deep_walls = [], [], []
    while until(ctx, start, shallow_walls, 1):
        subprocess_walls.append(frames_pass(lambda args: run_cli(ctx, args)))
        with shallow:
            install_spans(shallow, m, "batch")
            shallow_walls.append(in_process())
        deep_walls.append(span_passes(ctx, tracers, in_process)["deep"])
    finish_trace(ctx, counts, tracers["deep"])

    f = ctx.speed.run_factor()
    extra = episode_timing(reference.seconds)
    extra.update(
        {
            "experiment.episodes_per_s": median(runs / w for w in subprocess_walls),
            "experiment.write_records.ms": shallow.median_ns("experiment.write_records") * f / 1e6,
            "render.render_frame.ms_p50": shallow.median_ns("render.render_frame") * f / 1e6,
            "render.write_image.ms_p50": shallow.median_ns("render.write_image") * f / 1e6,
            "render.bytes_per_frame": frames_size / runs,
            "cli.simulate.s": median(shallow_walls) * f,
            "cli.startup_s": startup_s(ctx),
            "trace.overhead_s": (median(deep_walls) - median(shallow_walls)) * f,
            "stats.ref_gap_success_pct": ref_gap_pct(m, reference.records, 1),
        }
    )
    return layer_metrics(counts, tracers, f, extra)


# --- entry point -------------------------------------------------------------------------


def run_workload(ctx: Context, trace: bool) -> dict:
    if ctx.workload == "episodes-2ea":
        with ctx.speed.pinned():
            return episodes_workload(ctx, 2, trace)
    if ctx.workload == "episodes-0ea":
        with ctx.speed.pinned():
            return episodes_workload(ctx, 0, trace)
    if ctx.workload == "cli-sweep":
        return sweep_workload(ctx, trace)
    return frames_workload(ctx, trace)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, Context]:
    """Run one workload in this process; returns its metric values and the
    context holding digests and checks."""
    m = load_sentinel()
    os.chdir(ROOT)
    # One directory per workload, whatever the seed: the aggregate report
    # prints its input paths, and its pinned digest must not depend on them.
    workdir = OUT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(m=m, workload=workload, seed=seed, seconds=seconds, size=size, workdir=workdir)
    return run_workload(ctx, trace), ctx


def report(spec: dict, values: dict, ctx: Context, trace: bool) -> tuple[dict, dict]:
    """The info line and the result line of a run, after the pin check."""
    pinned = check_pins(ctx)
    if trace:
        values = dict(values, failed_op_ratio=len(ctx.checks.failures) / max(ctx.checks.attempted, 1))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    info = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "kernel_ms_median": median(ctx.speed.samples) * 1e3,
        "pinned": pinned,
        "digests": ctx.digests,
        "failures": ctx.checks.failures[:10],
    }
    result = {
        "correct": not ctx.checks.failures,
        "attempted": ctx.checks.attempted,
        "failed": len(ctx.checks.failures),
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }
    return {"info": info}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        sys.exit(f"perfbench: {spec_file} not found")
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    values, ctx = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report(spec, values, ctx, bool(args.trace)):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
