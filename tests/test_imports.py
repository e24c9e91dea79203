"""Each command loads only the modules it runs.

Every case runs one command through `cli.main` in a fresh interpreter (`-S`,
so that no site hook loads modules of its own) and lists `sys.modules` after
it returns; the last imports the package root alone, which loads none of them.
"""

import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("command", ["ingest", "extract", "sample"])
def test_serial_run_without_scoring_or_reports_loads_no_dataclasses_or_decimal(tmp_path, command):
    # the per-record types are named tuples; only evaluate's and analyze's reports are dataclasses and round numbers
    assert _loaded_of(loaded_modules(COMMANDS[command], tmp_path), ("dataclasses", "inspect", "decimal")) == []


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
