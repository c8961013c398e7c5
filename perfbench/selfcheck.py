"""Quick self-check of the benchmark, sized tiny (about a minute):

    python3 perfbench/selfcheck.py

1. Every workload, untraced and traced, run in this process at the tiny
   size, gives a correct result line that holds every metric of
   BENCHMARK.json, with its unit, as a finite number.
2. The output check fails when the CLI writes a corrupted record, and when
   a digest differs from pins.json.
3. The traced cli-sweep run fails when its threaded run_batch would run
   serially.

Exits 0 when every check holds; prints each failure otherwise.
"""

import json
import math
import sys

import run

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def check_metrics(spec: dict) -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            values, ctx = run.measure(workload, 3, seconds=0.0, trace=trace, size="tiny")
            _, result = run.report(spec, values, ctx, trace)
            label = f"{workload} --trace {int(trace)}"
            expect(
                sorted(result) == ["attempted", "correct", "failed", "metrics"]
                and result["correct"]
                and result["failed"] == 0
                and result["attempted"] >= 1,
                f"{label}: correct result line" + (f" {ctx.checks.failures[:3]}" if ctx.checks.failures else ""),
            )
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: metric.get("unit") for name, metric in result["metrics"].items()}
            expect(got == wanted, f"{label}: every metric with its unit")
            values = [metric.get("value") for metric in result["metrics"].values()]
            expect(
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                f"{label}: every value a finite number",
            )


def check_corruption() -> None:
    # A CLI that flips one digit of the last record it writes.
    m = run.load_sentinel()
    write_records = m.cli.write_records

    def corrupting_write(records, dest):
        write_records(records, dest)
        with open(dest, "rb+") as fh:
            data = bytearray(fh.read())
            at = data.rindex(b",") + 1
            data[at] = ord("1") if data[at] != ord("1") else ord("2")
            fh.seek(0)
            fh.write(data)

    m.cli.write_records = corrupting_write
    try:
        _, ctx = run.measure("cli-sweep", 3, seconds=0.0, trace=True, size="tiny")
    finally:
        m.cli.write_records = write_records
    expect(
        any(f.startswith("simulate records") for f in ctx.checks.failures),
        "a corrupted record fails the output check",
    )

    _, ctx = run.measure("episodes-0ea", 3, seconds=0.0, trace=False, size="tiny")
    ctx.size, ctx.seed = "full", run.DEFAULT_SEED
    ctx.digests["records"] = "0" * 64
    before = len(ctx.checks.failures)
    expect(
        run.check_pins(ctx) and len(ctx.checks.failures) > before,
        "a digest that differs from pins.json fails the output check",
    )


def check_threaded() -> None:
    # A run_batch that ignores SENTINEL_THREADS and always runs serially.
    m = run.load_sentinel()
    worker_count = m.experiment._worker_count
    m.experiment._worker_count = lambda num_runs: 1
    try:
        _, ctx = run.measure("cli-sweep", 3, seconds=0.0, trace=True, size="tiny")
    finally:
        m.experiment._worker_count = worker_count
    expect(
        any(f.startswith("threaded run_batch") for f in ctx.checks.failures),
        "a serial threaded pass fails the traced run",
    )


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption()
    check_threaded()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
