"""Command line front end: simulate batches, aggregate record files, render
snapshots. Exit codes: 0 success, 2 usage error, 1 runtime failure."""

import argparse
import sys
from functools import partial
from pathlib import Path

from .config import ConfigError, apply_overrides, default_config, load_config, validate
from .experiment import RecordError, read_records, run_batch, run_episode, write_records
from .render import SnapshotError, frame_side, read_snapshot, render_frame, write_image
from .stats import (
    SUMMARY_CSV_HEADER,
    StatsError,
    aggregate,
    format_summary_table,
    summary_csv_row,
    verify_against_reference,
)


def _nonneg_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentinel", description="Patrol-drone defense simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded batch of episodes")
    sim.add_argument("--eas", type=_nonneg_int, required=True, help="enforcement agents per episode")
    sim.add_argument("--runs", type=_positive_int, required=True, help="number of episodes")
    sim.add_argument("--seed", type=int, required=True, help="base seed of the batch")
    sim.add_argument("--config", help="key=value config file layered under the flags")
    sim.add_argument("--out", default="records.csv", help="records file to write (default records.csv)")
    sim.add_argument("--frames", help="directory for final-state images, one per run")
    sim.add_argument("--failsafe", action="store_true", help="terminate runs with an uncatchable suspect")

    agg = sub.add_parser("aggregate", help="summarize record files")
    agg.add_argument("--in", dest="inputs", action="append", required=True, metavar="FILE", help="records file")
    agg.add_argument("--verify", action="store_true", help="compare against the bundled reference summaries")

    ren = sub.add_parser("render", help="rasterize a world snapshot")
    ren.add_argument("--world", required=True, help="snapshot file")
    ren.add_argument("--out", required=True, help="image file to write")
    return parser


def _framed_episode(frames_dir: Path, cfg, run_index: int, seed: int):
    """One run of a --frames batch: play it, write its final frame as
    run_<index>.ppm, and return its record. The directory is made here, once
    the batch has started, so a batch that fails to start leaves none."""
    record, world = run_episode(cfg, run_index, seed)
    frames_dir.mkdir(parents=True, exist_ok=True)
    write_image(render_frame(world, cfg), frames_dir / f"run_{run_index}.ppm")
    return record


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    cfg = apply_overrides(cfg, num_eas=args.eas, failsafe_enabled=args.failsafe or cfg.failsafe_enabled)
    validate(cfg)

    if args.frames:
        frame_side(cfg)  # a frame too large to draw fails before the batch runs
        records = run_batch(cfg, args.runs, args.seed, partial(_framed_episode, Path(args.frames)))
    else:
        records = run_batch(cfg, args.runs, args.seed)

    write_records(records, args.out)
    successes = sum(1 for r in records if r.result == "success")
    print(f"wrote {len(records)} records to {args.out} ({successes} successes)")
    if args.frames:
        print(f"wrote {len(records)} frames to {args.frames}")
    return 0


def _cmd_aggregate(args) -> int:
    columns = []
    for path in args.inputs:
        records = read_records(path)
        columns.append((path, aggregate(records)))
    print(SUMMARY_CSV_HEADER)
    for label, stats in columns:
        print(summary_csv_row(label, stats))
    print()
    print(format_summary_table(columns))
    if args.verify:
        print()
        for label, stats in columns:
            divergences = verify_against_reference(stats)
            if not divergences:
                print(f"verify {label}: matches the reference summary")
            else:
                print(f"verify {label}: DIVERGES from the reference summary")
                for message in divergences:
                    print(f"  {message}")
    return 0


def _cmd_render(args) -> int:
    world, cfg = read_snapshot(Path(args.world).read_text(encoding="utf-8"))
    frame = render_frame(world, cfg)
    write_image(frame, args.out)
    print(f"wrote {frame.width}x{frame.height} image to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "aggregate":
            return _cmd_aggregate(args)
        return _cmd_render(args)
    except (ConfigError, RecordError, StatsError, SnapshotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
