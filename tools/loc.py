"""Count the lines of Python files by kind: code, docstring, comment, blank.

    python3 tools/loc.py [PATH ...]

Each PATH is a .py file or a directory whose *.py files are counted, not
recursively; the default is the src/sentinel of this checkout. Prints one
row per file and a total. A line of only whitespace is blank; otherwise a
line that holds any code is code, a line of a docstring (a string that
stands alone as a statement) is docstring, and the rest are comments. So
the four counts of a file sum to its wc -l.
"""

import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count_lines(path) -> dict[str, int]:
    """The number of lines of each kind in the file at path."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in (tokenize.NL, tokenize.COMMENT)]
        fh.seek(0)
        lines = fh.read().split(b"\n")[:-1]  # wc -l counts newlines
    kind_of = {}  # line number -> "code" or "docstring"
    for i, t in enumerate(tokens):
        if t.type in _LAYOUT:
            continue
        alone = t.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
        kind = "docstring" if alone and tokens[i + 1].type == tokenize.NEWLINE else "code"
        for line in range(t.start[0], t.end[0] + 1):
            if kind_of.get(line) != "code":
                kind_of[line] = kind
    counts = dict.fromkeys(KINDS, 0)
    for number, text in enumerate(lines, start=1):
        counts["blank" if not text.strip() else kind_of.get(number, "comment")] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path(__file__).resolve().parent.parent / "src" / "sentinel"]
    files = [f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS) + "  file")
    for f in files:
        counts = count_lines(f)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{sum(counts.values()):>6} " + " ".join(f"{counts[k]:>9}" for k in KINDS) + f"  {f}")
    print(f"{sum(total.values()):>6} " + " ".join(f"{total[k]:>9}" for k in KINDS) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
