"""Compare one metric of two checkouts over alternating pairs of runs.

    python3 tools/pairs.py PARENT CHANGE --workload W --metric M [--out FILE]

Runs ``perfbench/run.py --trace 0`` (through tools/bench.py's ``run_once``)
of the checkouts PARENT and CHANGE on one workload, ten pairs: one per seed
of 5..13 and the held-out 4070, alternating which side runs first. Each run
lasts the parent's BENCHMARK.json ``run_seconds``. Prints every pair, each
side's median and quartiles, the pairs each side won (ties count for
neither), and whether the gain rule holds: the change wins at least 9 of the
10 pairs, and its median beats the parent's by more than the parent's
interquartile range. The metric's direction comes from the parent's
BENCHMARK.json. PARENT and CHANGE are each a directory or a git revision,
which is unpacked once for all its runs as ``tools/bench.py --checkout``
unpacks it. With ``--out``, also writes the report as JSON to FILE (by
convention ``PAIRS_<LABEL>.json``): every pair, each side's median,
quartiles, ``commit``, ``revision`` and ``src_digest`` as tools/bench.py
records them, the wins and the verdict. Exits 1 after the report, naming
each run that was not correct or had failed operations.
"""

import argparse
import contextlib
import json
import statistics
import sys
from pathlib import Path

from bench import checkout_of, commit_of, run_once, src_digest

SEEDS = (5, 6, 7, 8, 9, 10, 11, 12, 13, 4070)
NEED = 9  # pairs of the ten the change must win


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a directory or a git revision")
    parser.add_argument("change", help="a directory or a git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--out", type=Path, help="also write the report as JSON to this file")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        sides = {side: stack.enter_context(checkout_of(getattr(args, side))) for side in ("parent", "change")}
        return _pairs(parser, args, sides)


def _pairs(parser, args, sides) -> int:
    # sides maps parent and change to (directory, revision or None).
    checkouts = {side: path for side, (path, _) in sides.items()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    metric = next((m for m in spec["end_to_end"] if m["name"] == args.metric), None)
    if metric is None:
        parser.error(f"unknown end-to-end metric {args.metric!r}")
    seconds = spec["run_seconds"]
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (a - b) < 0: a is better

    direction = f"{metric['unit']}, {metric['better']} is better"
    print(f"{args.workload} {args.metric} ({direction}), {len(SEEDS)} pairs of {seconds:g} s")
    wins = {"parent": 0, "change": 0}
    wrong = []
    pairs = []
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, seconds)
            pair[side] = result["metrics"][args.metric]["value"]
            if not result["correct"] or result["failed"]:
                wrong.append(f"{side} seed {seed}: correct={result['correct']}, failed={result['failed']}")
        gap = sign * (pair["change"] - pair["parent"])
        winner = "change" if gap < 0 else "parent" if gap > 0 else "tie"
        if winner != "tie":
            wins[winner] += 1
        pairs.append({"seed": seed, "first": order[0], **pair, "winner": winner})
        print(f"seed {seed} ({order[0]} first): parent {pair['parent']:g}, change {pair['change']:g}, {winner}")

    values = {side: [pair[side] for pair in pairs] for side in checkouts}
    quartiles = {side: statistics.quantiles(values[side], n=4, method="inclusive") for side in checkouts}
    (p_low, p_med, p_high), (c_low, c_med, c_high) = quartiles["parent"], quartiles["change"]
    iqr = p_high - p_low
    print(f"parent: median {p_med:g}, quartiles {p_low:g} .. {p_high:g} (IQR {iqr:g})")
    print(f"change: median {c_med:g}, quartiles {c_low:g} .. {c_high:g}")
    print(f"pairs won: change {wins['change']}, parent {wins['parent']}, ties {len(SEEDS) - sum(wins.values())}")
    gain = sign * (p_med - c_med)
    holds = wins["change"] >= NEED and gain > iqr
    verdict = "holds" if holds else "does not hold"
    print(
        f"gain rule {verdict}: change won {wins['change']} of {len(SEEDS)} (needs {NEED}), "
        f"median gain {gain:g} against parent IQR {iqr:g}"
    )
    if args.out:
        sides = {
            side: {
                "median": quartiles[side][1],
                "quartiles": [quartiles[side][0], quartiles[side][2]],
                "commit": commit_of(path, revision),
                "revision": revision,
                "src_digest": src_digest(path),
            }
            for side, (path, revision) in sides.items()
        }
        report = {
            "workload": args.workload,
            "metric": args.metric,
            "unit": metric["unit"],
            "better": metric["better"],
            "run_seconds": seconds,
            "pairs": pairs,
            **sides,
            "parent_iqr": iqr,
            "wins": {**wins, "ties": len(SEEDS) - sum(wins.values())},
            "needs": NEED,
            "median_gain": gain,
            "verdict": verdict,
            "wrong": wrong,
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(args.out)
    for line in wrong:
        print(f"pairs: wrong run, {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
