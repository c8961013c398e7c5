"""Command line front end: simulate batches, aggregate record files, render
the final world of one run of a batch by replaying it. Exit codes: 0
success, 2 usage error, 1 runtime failure."""

import argparse
import os
import sys
from functools import partial

from .config import SimConfig, apply_overrides, default_config, read_config, validate
from .experiment import mix_seed, read_records, run_batch, run_episode, write_records
from .render import frame_side, render_frame, write_image
from .stats import SUMMARY_CSV_HEADER, aggregate, format_summary_table, summary_csv_row, verify_against_reference


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

    # The batch a run belongs to: simulate plays it, render replays one run of it.
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--eas", type=_nonneg_int, required=True, help="enforcement agents per episode")
    batch.add_argument("--seed", type=int, required=True, help="base seed of the batch")
    batch.add_argument("--config", help="key=value config file layered under the flags")
    batch.add_argument("--failsafe", action="store_true", help="terminate runs with an uncatchable suspect")

    sim = sub.add_parser("simulate", parents=[batch], help="run a seeded batch of episodes")
    sim.add_argument("--runs", type=_positive_int, required=True, help="number of episodes")
    sim.add_argument("--out", default="records.csv", help="records file to write (default records.csv)")
    sim.add_argument("--frames", help="directory for final-state images, one per run")

    agg = sub.add_parser("aggregate", help="summarize record files")
    agg.add_argument("--in", dest="inputs", action="append", required=True, metavar="FILE", help="records file")
    agg.add_argument("--verify", action="store_true", help="compare against the bundled reference summaries")

    ren = sub.add_parser("render", parents=[batch], help="draw the final world of one run of a batch")
    ren.add_argument("--run", type=_positive_int, required=True, help="run index within the batch, from 1")
    ren.add_argument("--out", required=True, help="image file to write")
    return parser


def _batch_config(args) -> SimConfig:
    """The --config file over the defaults, then --eas and --failsafe, then
    one validation: a flag wins over the file's line for the same field."""
    cfg = read_config(args.config) if args.config else default_config()
    return validate(apply_overrides(cfg, num_eas=args.eas, failsafe_enabled=args.failsafe or cfg.failsafe_enabled))


def _framed_episode(frames_dir: str, cfg, run_index: int, seed: int):
    """One run of a --frames batch: play it, write its final frame as
    run_<index>.ppm, and return its record. The directory is made here, once
    the batch has started, so a batch that fails to start leaves none."""
    record, world = run_episode(cfg, run_index, seed)
    os.makedirs(frames_dir, exist_ok=True)
    write_image(render_frame(world, cfg), os.path.join(frames_dir, f"run_{run_index}.ppm"))
    return record


def _cmd_simulate(args) -> int:
    cfg = _batch_config(args)
    if args.frames:
        frame_side(cfg)  # a frame too large to draw fails before the batch runs
        records = run_batch(cfg, args.runs, args.seed, partial(_framed_episode, args.frames))
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
    """Replay run --run of the batch, as simulate plays it, and draw its final world."""
    cfg = _batch_config(args)
    frame_side(cfg)  # a frame too large to draw fails before the run is played
    _, world = run_episode(cfg, args.run, mix_seed(args.seed, args.run))
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
