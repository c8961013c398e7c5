"""Benchmark every workload on a fixed seed set and write the medians.

    python3 tools/bench.py LABEL [--checkout DIR_OR_REV]

Runs ``perfbench/run.py --trace 0`` of the checkout DIR (default: the one
this script is in), or of a git revision REV of this script's repository
unpacked with ``git archive`` into a temporary directory that is removed
afterwards, for every workload in its BENCHMARK.json, on seeds 2, 3,
4 and the held-out 4070, one run at a time, each for the benchmark's
``run_seconds``. Writes ``BENCH_<LABEL>.json`` to the current directory:
per workload, the median of each end-to-end metric over the seeds, every
seed's values, and the total attempted and failed operations. Prints each
end-to-end metric's spread over the seeds, (max - min) / median, and flags
one wider than its BENCHMARK.json bound: such a file was likely taken in a
slow spell of the host and should be retaken, not cited. Exits 1, after
writing the file, naming every workload and seed whose run was not correct
or had failed operations. To compare two commits, run it on each. The
file's ``commit`` is ``git describe`` of the checkout or the revision, or
``unknown`` for a tree without git, its ``revision`` the revision as given
(null for a directory), and its ``src_digest`` names the source that was
measured, whether or not it was committed (see ``digest``).
"""

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SEEDS = (2, 3, 4, 4070)
REPO = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def commit_of(checkout: Path, revision: str | None = None) -> str:
    """``git describe`` of checkout, or of revision in REPO, or ``unknown``
    for a tree without git."""
    where, what = (REPO, [revision]) if revision else (checkout, ["--dirty"])
    try:
        return subprocess.run(
            ["git", "describe", "--always", *what], cwd=where, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):  # no git, or a tree without its .git
        return "unknown"


def digest(files) -> str:
    """SHA-256 over (path, bytes) pairs, in sorted order of their paths: each
    path, a NUL, the size of its bytes, a NUL and the bytes."""
    sha = hashlib.sha256()
    for path, data in sorted(files):
        sha.update(f"{path}\0{len(data)}\0".encode() + data)
    return sha.hexdigest()


def src_digest(checkout: Path) -> str:
    """The digest of the files src/sentinel/**/*.py of checkout, each path
    relative to checkout."""
    paths = (checkout / "src" / "sentinel").glob("**/*.py")
    return digest((p.relative_to(checkout).as_posix(), p.read_bytes()) for p in paths)


@contextlib.contextmanager
def checkout_of(where: str):
    """(directory, revision) for a checkout given as a directory, with
    revision None, or as a git revision of REPO, unpacked with git archive
    into a temporary directory that is removed on exit."""
    if Path(where).is_dir():
        yield Path(where).resolve(), None
        return
    archive = subprocess.run(["git", "archive", where], cwd=REPO, capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"bench: {where} is neither a directory nor a git revision\n{archive.stderr.decode()}")
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp), where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--checkout", default=str(REPO), help="a directory or a git revision")
    args = parser.parse_args(argv)
    with checkout_of(args.checkout) as (checkout, revision):
        return _bench(args.label, checkout, revision)


def _bench(label: str, checkout: Path, revision: str | None) -> int:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]

    results = {w: {} for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result = run_once(checkout, workload, seed, spec["run_seconds"])
            results[workload][seed] = result
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)

    summary = {}
    for workload, by_seed in results.items():
        values = {str(s): {m: r["metrics"][m]["value"] for m in metrics} for s, r in by_seed.items()}
        summary[workload] = {
            "median": {m: statistics.median(v[m] for v in values.values()) for m in metrics},
            "by_seed": values,
            "correct": all(r["correct"] for r in by_seed.values()),
            "attempted": sum(r["attempted"] for r in by_seed.values()),
            "failed": sum(r["failed"] for r in by_seed.values()),
        }
    out = {
        "label": label,
        "commit": commit_of(checkout, revision),
        "revision": revision,
        "src_digest": src_digest(checkout),
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "workloads": summary,
    }
    dest = Path(f"BENCH_{label}.json")
    dest.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for workload, entry in summary.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [v[name] for v in entry["by_seed"].values()]
            spread = (max(values) - min(values)) / entry["median"][name]
            flag = ", WIDER than its bound: retake this file" if spread > bound else ""
            print(f"{workload} {name}: spread {spread:.1%} (bound {bound:.0%}){flag}")
    print(dest)
    wrong = [
        f"{workload} seed {seed}: correct={r['correct']}, failed={r['failed']}"
        for workload, by_seed in results.items()
        for seed, r in by_seed.items()
        if not r["correct"] or r["failed"]
    ]
    for line in wrong:
        print(f"bench: wrong run, {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
