"""Each command loads only the modules it runs, and the package defines only what its own code uses.

Every case runs one command through `cli.main` in a fresh interpreter (`-S`,
so that no site hook loads modules of its own) and lists `sys.modules` after
it returns; the last imports the package root alone, which loads none of them.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sourcescope

from conftest import GOLDEN_CORPUS, GOLDEN_GOLD

SRC = Path(sourcescope.__file__).resolve().parents[1]

# HTTP/TLS, which only the remote labeler uses, and the process pool, which only --parallel > 1 uses
UNUSED_BY_SERIAL_RUNS = ("http.client", "ssl", "urllib.request", "multiprocessing", "concurrent.futures")

_RUN_AND_LIST = """
import json, sys
sys.path.insert(0, sys.argv[1])
from sourcescope import cli
code = cli.main(sys.argv[2:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""

COMMANDS = {
    "ingest": ["ingest", "--corpus", str(GOLDEN_CORPUS)],
    "extract": ["extract", "--corpus", str(GOLDEN_CORPUS)],
    "evaluate": ["evaluate", "--corpus", str(GOLDEN_CORPUS), "--gold", str(GOLDEN_GOLD)],
    "sample": ["sample", "--corpus", str(GOLDEN_CORPUS), "--keywords", "twitter,facebook", "-n", "4"],
    "analyze-keyword": ["analyze", "--corpus", str(GOLDEN_CORPUS), "--labeler", "keyword"],
}


def loaded_modules(args: list, tmp_path) -> set:
    """The modules loaded once `cli.main(args)` has returned 0, with --out under tmp_path where it applies."""
    out = [] if args[0] == "ingest" else ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_AND_LIST, str(SRC), *args, *out],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0, proc.stderr
    return set(result["modules"])


def _loaded_of(modules: set, names) -> list:
    return sorted(m for m in modules for name in names if m == name or m.startswith(name + "."))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_serial_run_loads_no_http_tls_or_process_pool(tmp_path, command):
    assert _loaded_of(loaded_modules(COMMANDS[command], tmp_path), UNUSED_BY_SERIAL_RUNS) == []


def test_extract_loads_neither_analytics_nor_evaluator(tmp_path):
    modules = loaded_modules(COMMANDS["extract"], tmp_path)
    assert _loaded_of(modules, ("sourcescope.analytics", "sourcescope.evaluator")) == []
    assert "sourcescope.extractor" in modules  # the listing is of a run that extracted


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_loads_dataclasses_and_only_scoring_and_reports_load_decimal(tmp_path, command):
    # every record is a named tuple or a plain class; only evaluate's and analyze's reports round numbers
    rounds = command in ("evaluate", "analyze-keyword")
    unused = ("dataclasses", "inspect", "ast", "dis") + (() if rounds else ("decimal",))
    assert _loaded_of(loaded_modules(COMMANDS[command], tmp_path), unused) == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="--parallel is capped at the usable CPUs")
def test_parallel_run_loads_the_process_pool(tmp_path):
    # the check above sees a lazily loaded module once a command runs the code that loads it
    modules = loaded_modules([*COMMANDS["extract"], "--parallel", "2"], tmp_path)
    assert "concurrent.futures.process" in modules


def test_package_root_loads_no_module_of_its_own(tmp_path):
    # the library's names import from their own modules; the package root binds only __version__
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import json, sys; sys.path.insert(0, sys.argv[1]); import sourcescope; "
         "print(json.dumps(sorted(sys.modules)))", str(SRC)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert _loaded_of(set(json.loads(proc.stdout)), ("sourcescope",)) == ["sourcescope"]


def _named(node) -> Counter:
    """The names the code under node refers to: as a Name, an Attribute or an imported name (strings do not count)."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute)
        else sub.name.rpartition(".")[2]
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def unnamed_definitions(package: Path) -> list:
    """The public top-level functions and classes of package's modules that no code outside their own body names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    everywhere = sum((_named(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and everywhere[node.name] == _named(node)[node.name]]


def test_every_public_function_and_class_is_used_by_the_package():
    # a library surface that only tests call is a second path to keep in step with the commands' own
    assert unnamed_definitions(SRC / "sourcescope") == []
