"""Outside-in tracing of sentinel: wrap module attributes, never edit sources.

A wrapper replaces a function under the name its callers look up at call
time, so ``experiment.step`` covers the loop in ``run_episode`` and
``dynamics.spawn_enemies`` covers the call inside ``step``. Functions that
other modules import by name (``distance``, ``nearest_enemy``, ``validate``,
the ``cli`` imports) are wrapped in every importing module, under one metric
name.

Two kinds of wrapper exist. A span wrapper records (name, start, end,
parent, episode) and folds the duration into per-name samples; a count
wrapper only increments a counter, so exact counts can be taken in a pass
whose timings are not used.

A span wrapper costs its caller time outside the span it records, so a
span with wrapped children reads long. Span levels (install_spans) let a
pass wrap a function without wrapping what it calls: self time is a span's
duration in a pass where its children are not wrapped, less its child
spans in a pass where they are.
"""

import statistics
import time
from array import array
from collections import Counter

# Spans kept for the trace file; later spans still feed the samples.
SPAN_LIMIT = 100_000
# What run_episode does besides stepping, as the module globals it calls.
EPISODE_OVERHEAD = ("validate", "initial_world", "check_record")


class Tracer:
    """Wrappers installed by span() and count() are removed on exit."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.spans_dropped = 0
        self.durations: dict[str, array] = {}
        self.child_ns: dict[str, array] = {}  # time in child spans, per call
        self.counts: Counter = Counter()
        self.episode = 0
        self._stack: list[list] = []  # [span id, name, child ns] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, wrapper_for) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))

    def span(self, module, attr: str, name: str, episode_arg: int | None = None, within: str | None = None) -> None:
        """Time every call of ``module.attr`` as span ``name``.

        With ``episode_arg``, that positional argument becomes the episode
        id of this span and of every span opened inside it. With
        ``within``, only calls made directly inside span ``within`` count.
        """
        durations = self.durations.setdefault(name, array("d"))
        child_ns = self.child_ns.setdefault(name, array("d"))
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                if within is not None and (not stack or stack[-1][1] != within):
                    return fn(*args, **kwargs)
                if episode_arg is not None:
                    self.episode = args[episode_arg]
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else -1
                frame = [span_id, name, 0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    took = end - start
                    if stack:
                        stack[-1][2] += took
                    durations.append(took)
                    child_ns.append(frame[2])
                    if self.keep_spans:
                        if len(self.spans) < SPAN_LIMIT:
                            self.spans.append((name, start, end, parent, self.episode, span_id))
                        else:
                            self.spans_dropped += 1

            return wrapper

        self._patch(module, attr, wrapper_for)

    def count(self, module, attr: str, name: str, **measures) -> None:
        """Count calls of ``module.attr`` as ``name``; each keyword
        ``key=fn`` also adds ``fn(args, result)`` to ``name.key``."""
        counts = self.counts

        def wrapper_for(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                for key, measure in measures.items():
                    counts[f"{name}.{key}"] += measure(args, result)
                return result

            return wrapper

        self._patch(module, attr, wrapper_for)

    # --- reading the samples -------------------------------------------------

    def median_ns(self, name: str) -> float:
        samples = self.durations.get(name)
        return statistics.median(samples) if samples else 0.0

    def total_ns(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def write(self, path) -> None:
        """Spans as CSV, then counts as ``#count`` lines."""
        lines = ["span_id,name,start_ns,end_ns,parent,episode"]
        for name, start, end, parent, episode, span_id in self.spans:
            lines.append(f"{span_id},{name},{start},{end},{parent},{episode}")
        lines.append(f"#count,spans_dropped,{self.spans_dropped}")
        for name, value in sorted(self.counts.items()):
            lines.append(f"#count,{name},{value}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


LEVELS = ("batch", "step", "phases", "deep")


def install_spans(tracer: Tracer, m, level: str) -> None:
    """Span wrappers up to ``level``, each level adding to the one before:

    batch   run_episode and the batch-level calls that cli makes
    step    experiment.step, and the validate, initial_world and
            check_record calls that run_episode makes
    phases  the module globals of dynamics that step() resolves at call
            time, and enforcement.run_enforcement_phase
    deep    the enforcement functions that run_enforcement_phase calls

    ``m`` holds the sentinel modules as attributes.
    """
    depth = LEVELS.index(level)
    tracer.span(m.experiment, "run_episode", "experiment.run_episode", episode_arg=1)
    tracer.span(m.cli, "run_episode", "experiment.run_episode", episode_arg=1)
    for attr, name in (
        ("run_batch", "experiment.run_batch"),
        ("write_records", "experiment.write_records"),
        ("read_records", "experiment.read_records"),
        ("aggregate", "stats.aggregate"),
        ("verify_against_reference", "stats.verify_against_reference"),
        ("render_frame", "render.render_frame"),
        ("write_image", "render.write_image"),
    ):
        tracer.span(m.cli, attr, name)
    if depth < 1:
        return
    tracer.span(m.experiment, "step", "dynamics.step")
    for attr in EPISODE_OVERHEAD:
        tracer.span(m.experiment, attr, f"experiment.{attr}", within="experiment.run_episode")
    if depth < 2:
        return
    for attr in (
        "spawn_enemies",
        "compliant_policy",
        "malicious_policy",
        "enemy_policy",
        "resolve_interceptions",
        "breach_occurred",
    ):
        tracer.span(m.dynamics, attr, f"dynamics.{attr}")
    tracer.span(m.enforcement, "run_enforcement_phase", "enforcement.run_enforcement_phase")
    if depth < 3:
        return
    for attr in ("observe", "update_suspicion", "ea_policy", "attempt_reformation"):
        tracer.span(m.enforcement, attr, f"enforcement.{attr}")


def _events(kind):
    return lambda _, result: sum(1 for e in result[1].events if e.kind == kind)


def install_counts(tracer: Tracer, m) -> None:
    """Count wrappers for the exact per-step and per-episode counts."""
    for mod in (m.world, m.dynamics, m.enforcement):
        tracer.count(mod, "distance", "world.distance")
    for mod in (m.dynamics, m.enforcement):
        tracer.count(mod, "nearest_enemy", "dynamics.nearest_enemy")
    for mod in (m.config, m.experiment, m.cli):
        tracer.count(mod, "validate", "config.validate")
    for mod in (m.experiment, m.cli):
        tracer.count(
            mod,
            "run_episode",
            "experiment.run_episode",
            pursuits=_events("suspicion_raised"),
            reformations=_events("reformation"),
        )
    # Live enemies are read after the step: the working set of the next one.
    tracer.count(m.experiment, "step", "dynamics.step", enemies=lambda args, _: len(args[0].enemies))
    tracer.count(m.enforcement, "observe", "enforcement.observe", observations=lambda _, result: len(result))
