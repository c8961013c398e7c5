"""Design rules of the package's imports: the runtime uses the standard
library and itself only, its modules import each other without a cycle,
and the CLI starts without modules that only some commands need. Also two
source rules: no code tests identity against a literal, and no module
imports a name it never reads; and tools/loc.py, which counts source lines
by kind, and the package's budget of code lines."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sentinel

PACKAGE_DIR = Path(sentinel.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _imports(node, at_module_level=True):
    """Every import statement under node, each with whether it runs when the
    module is imported, i.e. outside any function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, at_module_level
        inside_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _imports(child, at_module_level and not inside_function)


def _package_targets(node):
    """The package modules an import statement loads; none for the rest."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [parts[1] if len(parts) > 1 else "__init__" for parts in names if parts[0] == "sentinel"]
    if node.level == 0 and (node.module or "").split(".")[0] != "sentinel":
        return []
    module = node.module or ""
    if node.level == 0:
        module = module.partition(".")[2]
    if module:
        return [module.split(".")[0]]
    return [alias.name if alias.name in TREES else "__init__" for alias in node.names]


def _module_level_targets(tree):
    return {target for node, at_top in _imports(tree) if at_top for target in _package_targets(node)}


def test_the_runtime_imports_only_the_standard_library_and_itself():
    allowed, outside = set(sys.stdlib_module_names) | {"sentinel"}, []
    for name, tree in TREES.items():
        for node, _ in _imports(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            else:
                roots = [] if node.level else [node.module.split(".")[0]]
            outside += [f"{name}: {root}" for root in roots if root not in allowed]
    assert outside == []


def _find_cycle(graph):
    """One import cycle of graph as a list of module names that starts and
    ends with the same name, or None."""
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return None
        path.append(name)
        for target in sorted(graph.get(name, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    return next((cycle for cycle in map(visit, sorted(graph)) if cycle), None)


def test_module_level_imports_form_no_cycle():
    graph = {name: _module_level_targets(tree) for name, tree in TREES.items()}
    assert {"config", "world", "enforcement"} <= graph["dynamics"]  # relative imports are seen
    assert _find_cycle(graph) is None


def test_the_checks_see_a_cycle_and_skip_function_level_imports():
    tree = ast.parse("from . import world\nfrom .config import SimConfig\n\ndef f():\n    from . import render\n")
    assert _module_level_targets(tree) == {"world", "config"}
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_importing_the_cli_loads_neither_statistics_nor_pathlib():
    # Every CLI process pays for what importing sentinel.cli loads. Only
    # aggregation uses statistics, and open and os do the file work, so
    # neither module is loaded at start-up. -S keeps site hooks, which may
    # import pathlib themselves, out of the fresh interpreter.
    probe = "import sys, sentinel.cli; print(sorted({'statistics', 'pathlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    argv = [sys.executable, "-S", "-c", probe]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _is_literal(node):
    """A constant other than the singletons None, True, False and Ellipsis."""
    return isinstance(node, ast.Constant) and not any(node.value is v for v in (None, True, False, ...))


def _identity_tests_of_literals(tree):
    """Line of every `is` or `is not` with a literal operand."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and (_is_literal(left) or _is_literal(right)):
                    lines.append(node.lineno)
    return lines


def test_no_code_tests_identity_against_a_literal():
    # Roles are tested with `is` against the world constants. `is` against a
    # literal is a SyntaxWarning, which pyproject.toml makes an error, but
    # pytest's assertion rewriting moves the operands of a test's bare assert
    # into temporaries first, so there it never fires. This reads the source.
    sources = sorted(PACKAGE_DIR.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _identity_tests_of_literals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_literal_check_sees_into_a_bare_assert():
    source = (
        'assert suspect.role is "reformed"\n'
        "assert suspect.role is REFORMED\n"
        "assert world.outcome is None and ok is True\n"
        "assert 0 is not count < 3\n"
    )
    assert _identity_tests_of_literals(ast.parse(source)) == [1, 4]


def _unused_imports(source):
    """Line and name of every name that a module-level import of source binds
    and the module never reads, unless the line is marked ``# noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node, at_top in _imports(tree):
        if not at_top or isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    # An __init__.py imports names to re-export them, so it is not read.
    sources = sorted(PACKAGE_DIR.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{entry}"
        for path in sources
        if path.name != "__init__.py"
        for entry in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_unused_import_check_reads_names_not_text():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import random as rng\n"
        "from .world import (\n"
        "    distance,\n"
        "    nearest_enemy,  # noqa: F401  kept for a wrapper\n"
        "    move_toward,\n"
        ")\n"
        "\n"
        "def f(move_toward):\n"
        "    import sys\n"
        "    return os.path.join(distance, 'math')\n"
    )
    assert _unused_imports(source) == ["2: math", "4: rng", "8: move_toward"]


def test_the_line_kinds_of_each_source_file_sum_to_its_line_count(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "tools"))
    from loc import count_lines

    for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        assert sum(count_lines(path).values()) == path.read_bytes().count(b"\n"), path
    sample = tmp_path / "sample.py"
    sample.write_text('"""Doc\n\nstring."""\n\n# note\nx = """not\n\ndoc"""  # trailing\n')
    assert count_lines(sample) == {"code": 2, "docstring": 2, "comment": 1, "blank": 3}


# The most lines of code, as tools/loc.py counts them, that src/sentinel may
# hold. A change that needs more raises it and says why in CHANGES.md.
CODE_LINE_BUDGET = 1209


def test_the_package_stays_within_its_code_line_budget(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "tools"))
    from loc import count_lines

    code = sum(count_lines(path)["code"] for path in sorted(PACKAGE_DIR.glob("*.py")))
    assert code <= CODE_LINE_BUDGET, f"{code} lines of code in src/sentinel, over the budget of {CODE_LINE_BUDGET}"
