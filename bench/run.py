"""Benchmark of the sourcescope CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It byte-compiles `src/`, generates
the workload's corpus from the seed, then runs the real CLI
(`python3 -m sourcescope.cli`, with `src/` on PYTHONPATH) one invocation at a
time until S seconds have passed, checking every invocation's output files
against what the generator planted.

With --trace 0 each round is one run on a one-article corpus from the same
generator (set-up) and one run on the full corpus. It reports the
end-to-end metrics named in BENCHMARK.json, each the median over the run.
With --trace 1 each round is one untraced and one traced run on the full
corpus (see tracing.py). It reports the per-layer metrics, each the median
over the traced runs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Progress and the corpus profile go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import corpus_gen
from tracing import layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
PATTERNS_TSV = SRC / "sourcescope" / "data" / "patterns_default.tsv"
CLI = ["-m", "sourcescope.cli"]
MIN_ROUNDS = 3
DEADLINE_S = 170  # every invocation is killed after this many seconds from the start


@dataclass(frozen=True)
class Workload:
    command: str
    flags: tuple
    articles: int
    generate: Callable  # (seed, n, needle words) -> PlannedCorpus
    check: Callable  # (out dir, PlannedCorpus) -> list of problems
    gold: bool = False


WORKLOADS = {
    # serial extraction of long newswire bodies with few citations
    "extract-mainstream": Workload(
        "extract", (), 4000, corpus_gen.mainstream_corpus, checks.check_extract),
    # keyword labeling, accumulation and reports after a 2-worker extraction
    "analyze-keyword": Workload(
        "analyze", ("--labeler", "keyword", "--parallel", "2"), 1500,
        corpus_gen.mixed_corpus, checks.check_analyze),
    # short citation-dense bodies with embedded-tweet residue, scored against gold
    "evaluate-embedded": Workload(
        "evaluate", (), 4000, corpus_gen.embedded_corpus, checks.check_evaluate, gold=True),
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    ok: bool  # exited with code 0
    problems: list


class Bench:
    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def corpus(self, planted, name: str) -> list:
        """Write a planted corpus; returns its CLI arguments."""
        corpus_path = self.work / f"{name}.jsonl"
        gold_path = self.work / f"{name}.gold.jsonl" if self.workload.gold else None
        planted.write(corpus_path, gold_path, self.work / f"{name}.planted.json")
        args = [self.workload.command, "--corpus", str(corpus_path), *self.workload.flags]
        return args + (["--gold", str(gold_path)] if gold_path else [])

    def invoke(self, program: list, cli_args: list, planted) -> Invocation:
        """Run one CLI process to its end and check its output files.

        Peak RSS comes from wait4 on this child alone: the largest resident
        set of the child and of the pool workers it waited for.
        """
        self.count += 1
        out = self.work / f"out{self.count}"
        log_path = self.work / "cli.log"
        argv = [sys.executable, *program, *cli_args, "--out", str(out)]
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        problems = []
        if ok:
            problems = self.workload.check(out, planted)
        else:
            print(f"exit {proc.returncode}: {' '.join(argv)}\n{log_path.read_text()[-2000:]}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return Invocation(wall, usage.ru_maxrss / 1024, ok, problems)


def _median(values: list) -> float:
    """The median of a run's figures.

    The host's speed varies from one invocation to the next, and the least
    figure of a run hangs on its single luckiest invocation; the median is
    the steadier of the two from run to run (see README.md, "Noise").
    """
    return statistics.median(values) if values else 0.0


def run(args, workload: Workload, work: Path) -> dict:
    start = time.monotonic()
    bench = Bench(workload, work, start + DEADLINE_S)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, env=bench.env)

    needles = corpus_gen.prescreen_words(PATTERNS_TSV)
    planted = workload.generate(args.seed, workload.articles, needles)
    full_args = bench.corpus(planted, "corpus")
    print(f"corpus: {json.dumps(planted.profile())}", file=sys.stderr)
    # Each round opens with the one-article set-up run (--trace 0) or with an
    # untraced run of the full corpus (--trace 1).
    if args.trace:
        lead, lead_args = planted, full_args
    else:
        lead = workload.generate(args.seed, 1, needles)
        lead_args = bench.corpus(lead, "setup")

    lead_runs, main_runs, layers = [], [], []
    measure_start = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - measure_start < args.seconds:
        lead_runs.append(bench.invoke(CLI, lead_args, lead))
        if args.trace:
            spans = work / f"spans{rounds}"
            spans.mkdir()
            measured = bench.invoke([str(BENCH / "tracing.py"), "--spans-dir", str(spans), "--"],
                                    full_args, planted)
            if measured.ok:
                layers.append(layer_metrics(spans))
            shutil.rmtree(spans)
        else:
            measured = bench.invoke(CLI, full_args, planted)
        main_runs.append(measured)
        rounds += 1

    every = lead_runs + main_runs
    problems = [p for r in every for p in r.problems]
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    ok_main = [r for r in main_runs if r.ok]
    ok_lead = [r for r in lead_runs if r.ok]
    if args.trace:
        names = layer_metrics(work / "no-spans")  # every name, valued 0
        values = {name: _median([m[name] for m in layers]) for name in names}
        values["trace.overhead_s"] = (_median([r.wall_s for r in ok_main])
                                      - _median([r.wall_s for r in ok_lead]))
        defs = "per_layer"
    else:
        wall = _median([r.wall_s for r in ok_main])
        setup = _median([r.wall_s for r in ok_lead])
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "articles_per_s": workload.articles / (wall - setup) if wall > setup else 0.0,
            "peak_rss_mb": _median([r.peak_rss_mb for r in ok_main]),
        }
        defs = "end_to_end"
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)[defs]
    print(f"{rounds} rounds in {time.monotonic() - measure_start:.1f} s; walls "
          f"{[round(r.wall_s, 3) for r in main_runs]}, {[round(r.wall_s, 3) for r in lead_runs]}",
          file=sys.stderr)
    return {
        "correct": not problems and bool(ok_main),
        "attempted": len(every),
        "failed": sum(1 for r in every if not r.ok),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="sourcescope CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sourcescope" / "cli.py").is_file():
        print(f"error: no sourcescope sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        result = run(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
