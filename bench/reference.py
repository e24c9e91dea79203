"""Reference figures at the paper's corpus size, for bench/README.md.

    python3 bench/reference.py [--articles 59356] [--seed 1]

Run from the root of a checkout. It generates the extract-mainstream and
analyze-keyword corpora at the given size and runs each command once,
checking the outputs as run.py does: extract with 1 and with 2 workers
(their ratio is a measured number, not a gate) and the analyze-keyword
command. Prints one JSON object. This is not part of the benchmark runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import corpus_gen
from run import PATTERNS_TSV, ROOT, WORKLOADS, Bench


def main() -> int:
    parser = argparse.ArgumentParser(description="sourcescope reference figures")
    parser.add_argument("--articles", type=int, default=59356)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    needles = corpus_gen.prescreen_words(PATTERNS_TSV)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_work"))
    report: dict = {"articles": args.articles, "seed": args.seed}
    try:
        for name, runs in (("extract-mainstream", ((), ("--parallel", "2"))),
                           ("analyze-keyword", ((),))):
            workload = WORKLOADS[name]
            bench = Bench(workload, work, time.monotonic() + 3600)
            planted = workload.generate(args.seed, args.articles, needles)
            cli_args = bench.corpus(planted, name)
            report[name] = {"corpus": planted.profile()}
            for extra in runs:
                result = bench.invoke(["-m", "sourcescope.cli"], cli_args + list(extra), planted)
                label = " ".join(workload.flags + extra) or "serial"
                report[name][label] = {
                    "wall_s": round(result.wall_s, 2),
                    "peak_rss_mb": round(result.peak_rss_mb, 1),
                    "correct": result.ok and not result.problems,
                }
                print(f"{name} {label}: {report[name][label]}", file=sys.stderr)
        extract = report["extract-mainstream"]
        report["extract_2_over_1_workers"] = round(
            extract["--parallel 2"]["wall_s"] / extract["serial"]["wall_s"], 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
