"""Batch harness: seeded episodes, per-run records, and their CSV format.

A batch derives one 64-bit seed per run from (base_seed, run_index) with the
splitmix64 finalizer, so records depend only on those two integers and the
config, never on scheduling. SENTINEL_THREADS sets how many processes play
a batch (unset or 1 plays it in-process, 0 picks the CPU count; anything but
a non-negative integer is a ValueError). With N of them, process k plays the
stripe of runs k+1, k+1+N, ...: the caller plays stripe 0 and N - 1 children
forked from it play the others. Without os.fork a batch plays serially.
"""

import math
import os
import random
from dataclasses import dataclass, fields

from .config import SimConfig, validate
from .dynamics import step
from .world import REFORMED, WorldState, initial_world

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class RecordError(ValueError):
    pass


class RecordSchemaError(RecordError):
    """The file's header line is not the record schema."""


class RecordParseError(RecordError):
    """A data line that does not parse; carries its 1-based line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class RecordInvariantError(RecordError):
    pass


@dataclass(frozen=True)
class RunRecord:
    """One episode, as a row of the results table.

    healthy and malicious are the initial role counts; reformed counts
    drones converted by the end of the run. time_s is simulated duration,
    steps divided by the configured steps-per-second.
    """

    run: int
    ea: int
    result: str
    steps: int
    time_s: float
    healthy: int
    malicious: int
    reformed: int


# The record CSV columns are the RunRecord fields, in order; floats print
# with 2 decimals.
_FIELDS = fields(RunRecord)
_FIELD_SPECS = [(f.name, ".2f" if f.type is float else "") for f in _FIELDS]
CSV_HEADER = ",".join(f.name for f in _FIELDS)


def check_record(
    rec: RunRecord,
    *,
    time_limit_steps: int | None = None,
    fps: int | None = None,
    total_drones: int | None = None,
) -> None:
    """Raise RecordInvariantError on a malformed record.

    Structural invariants, such as a finite, non-negative time_s, are always
    enforced. The config-dependent ones run only when the matching
    expectation is supplied, because a record does not carry its config.
    """
    bad = []
    if rec.run < 1:
        bad.append(f"run {rec.run} is not 1-based")
    if rec.ea < 0:
        bad.append(f"ea {rec.ea} negative")
    if rec.result not in ("success", "fail"):
        bad.append(f"result {rec.result!r}")
    if rec.steps < 0:
        bad.append(f"steps {rec.steps} negative")
    if not math.isfinite(rec.time_s):
        bad.append(f"time_s {rec.time_s} not finite")
    elif rec.time_s < 0:
        bad.append(f"time_s {rec.time_s} negative")
    if min(rec.healthy, rec.malicious, rec.reformed) < 0:
        bad.append("negative role count")
    if rec.reformed > rec.malicious:
        bad.append(f"reformed {rec.reformed} > malicious {rec.malicious}")
    # A run ends by the time limit (success) or earlier by a breach or the
    # failsafe (fail); either of those may also land on the last step.
    if time_limit_steps is not None:
        if rec.steps > time_limit_steps or (rec.result == "success" and rec.steps != time_limit_steps):
            bad.append(f"result {rec.result!r} inconsistent with steps {rec.steps} of {time_limit_steps}")
    if fps is not None:
        expected = round(rec.steps / fps, 2)
        if abs(rec.time_s - expected) > 1e-9:
            bad.append(f"time_s {rec.time_s} != steps/fps {expected}")
    if total_drones is not None and rec.healthy + rec.malicious != total_drones:
        bad.append(f"healthy {rec.healthy} + malicious {rec.malicious} != {total_drones}")
    if bad:
        raise RecordInvariantError(f"run {rec.run}: " + "; ".join(bad))


def mix_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: splitmix64 finalizer of base_seed + run_index * gamma."""
    z = (base_seed + run_index * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def run_episode(cfg: SimConfig, run_index: int, seed: int) -> tuple[RunRecord, WorldState]:
    """Play one episode to termination and summarize it as a record. cfg is
    played as given and must already be valid: run_batch and load_config
    validate, this function does not."""
    rng = random.Random(seed)
    world = initial_world(cfg, rng)
    while world.outcome is None:
        step(world, cfg, rng)
    record = RunRecord(
        run=run_index,
        ea=cfg.num_eas,
        result=world.outcome,
        steps=world.step,
        time_s=round(world.step / cfg.fps, 2),
        healthy=cfg.total_drones - cfg.num_malicious,
        malicious=cfg.num_malicious,
        reformed=sum(1 for d in world.drones if d.role is REFORMED),
    )
    check_record(record, time_limit_steps=cfg.time_limit_steps, fps=cfg.fps, total_drones=cfg.total_drones)
    return record, world


def _episode_record(cfg: SimConfig, run_index: int, seed: int) -> RunRecord:
    return run_episode(cfg, run_index, seed)[0]


def _worker_count(num_runs: int) -> int:
    raw = os.environ.get("SENTINEL_THREADS")
    if raw is None:
        return 1
    try:
        requested = int(raw)
        if requested < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"SENTINEL_THREADS must be a non-negative integer, got {raw!r}") from None
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, num_runs))


def _play_stripe(episode, cfg: SimConfig, runs, base_seed: int):
    """Play runs in order until one raises: (records, None), or (records of
    the runs before it, (run_index, exception))."""
    records = []
    for run in runs:
        try:
            records.append(episode(cfg, run, mix_seed(base_seed, run)))
        except Exception as exc:
            return records, (run, exc)
    return records, None


def _portable(exc: Exception) -> Exception:
    """exc if a pickle round trip keeps its type and message, else a
    RuntimeError that carries both."""
    import pickle

    try:
        copy = pickle.loads(pickle.dumps(exc))
        if type(copy) is type(exc) and str(copy) == str(exc):
            return exc
    except Exception:
        pass
    return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_stripes(episode, cfg: SimConfig, runs: range, base_seed: int, workers: int):
    """Every stripe of the batch as _play_stripe returns it, stripe k holding
    runs k+1, k+1+workers, ...: the caller plays stripe 0 while one forked
    child per other stripe plays it and sends it back as one pickle over a
    pipe. A child that exits without reporting raises ChildProcessError."""
    # Imported here: only a pooled batch pays for loading pickle.
    import pickle

    children = {}  # pid -> (read end of its pipe, stripe), until reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child: no exception unwinds into the caller's frames,
                # and os._exit flushes none of the parent's buffers.
                status = 1
                try:
                    os.close(r)
                    records, failure = _play_stripe(episode, cfg, runs[k::workers], base_seed)
                    if failure is not None:
                        failure = (failure[0], _portable(failure[1]))
                    with open(w, "wb") as pipe:
                        pickle.dump((records, failure), pipe)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = (open(r, "rb"), k)
            os.close(w)
        stripes = [_play_stripe(episode, cfg, runs[0::workers], base_seed)]
        for pid, (pipe, k) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0 or not data:
                raise ChildProcessError(
                    f"the worker playing stripe {k} (runs {k + 1}, {k + 1 + workers}, ...) "
                    f"exited with status {status} before reporting"
                )
            stripes.append(pickle.loads(data))
        return stripes
    finally:
        # Children are left here only when the caller failed: an interrupt
        # in its own stripe, or a child that did not report.
        if children:
            import signal

            for pid, (pipe, _) in children.items():
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)


def run_batch(cfg: SimConfig, num_runs: int, base_seed: int, episode=_episode_record) -> list[RunRecord]:
    """Records for runs 1..num_runs, in run order regardless of scheduling.

    Each run is ``episode(cfg, run_index, seed)``, which returns its record.
    With more than one worker and os.fork, the batch is split into stripes
    played by that many processes, the caller's included, so the return
    value must pickle. The children are forked, so a caller that runs
    threads of its own should play serially: a lock another thread holds
    at the fork stays held in the child. An episode that raises stops the
    batch with the exception of the lowest failing run, as serial play
    does; one that does not survive a pickle round trip comes back as a
    RuntimeError naming its type and message.
    """
    validate(cfg)
    if num_runs < 1:
        raise ValueError(f"num_runs must be >= 1, got {num_runs}")
    runs = range(1, num_runs + 1)
    workers = _worker_count(num_runs)
    if workers == 1 or not hasattr(os, "fork"):
        workers = 1
        stripes = [_play_stripe(episode, cfg, runs, base_seed)]
    else:
        stripes = _run_stripes(episode, cfg, runs, base_seed, workers)
    failures = [failure for _, failure in stripes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    records = [None] * num_runs
    for k, (stripe, _) in enumerate(stripes):
        records[k::workers] = stripe
    return records


def format_record(rec: RunRecord) -> str:
    return ",".join(format(getattr(rec, name), spec) for name, spec in _FIELD_SPECS)


def write_records(records: list[RunRecord], dest) -> None:
    """Write the records table; newline line endings, 2-decimal time_s."""
    if not records:
        raise RecordError("refusing to write an empty record table")
    for rec in records:
        check_record(rec)
    lines = [CSV_HEADER] + [format_record(r) for r in records]
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_record_line(line: str, line_number: int) -> RunRecord:
    parts = line.split(",")
    if len(parts) != len(_FIELDS):
        raise RecordParseError(line_number, f"expected {len(_FIELDS)} fields, got {len(parts)}")
    try:
        return RunRecord(*(f.type(raw) for f, raw in zip(_FIELDS, parts)))
    except ValueError as exc:
        raise RecordParseError(line_number, str(exc)) from None


def read_records(source) -> list[RunRecord]:
    """Parse a records file; errors carry 1-based line numbers.

    Only the structural invariants of check_record are enforced, because the
    file does not carry its config.
    """
    with open(source, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise RecordSchemaError(f"expected header {CSV_HEADER!r}, found {found!r}")
    records = []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = parse_record_line(line, line_number)
        try:
            check_record(rec)
        except RecordInvariantError as exc:
            raise RecordParseError(line_number, str(exc)) from None
        records.append(rec)
    return records
