"""Traced run of the sourcescope CLI, and per-layer metrics from its spans.

    python3 bench/tracing.py --spans-dir DIR -- extract --corpus c.jsonl --out out/

imports the package, replaces every public function of the layer modules
at every name it is bound to (so `segment` is traced when `cli` calls it
as well as when `extractor` does), then calls `sourcescope.cli.main` with
the remaining arguments. Each call records a span: id, parent id, name,
start, end and a size (hits, sentences or mentions, for the functions
listed in SIZES). Spans stay in memory and are written to DIR/<pid>.json
when the process ends. Pool workers that fork from the traced process
drop the spans they inherit and write their own file when they exit.
The program itself is not changed.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import multiprocessing.util
import os
import statistics
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

LAYER_MODULES = ("corpus", "segmenter", "patterns", "extractor", "evaluator", "analytics", "cli")

# what a span counts as its size, by function
SIZES = {
    "segmenter.segment": len,
    "patterns.match_patterns": len,
    "patterns.find_embedding_span": lambda result: int(result is not None),
    "extractor.extract_mentions": lambda result: len(result.mentions),
    "analytics.label_topic": lambda result: int(result is not None),
}

# per-layer time metrics: the summed self time of these functions
SELF_TIME = {
    "corpus.ingest_s": ("corpus.ingest",),
    "patterns.load_s": ("patterns.default_patterns", "patterns.load_patterns"),
    "segmenter.segment_s": ("segmenter.segment", "segmenter.sentences"),
    "patterns.quote_spans_s": ("patterns.extract_quote_spans",),
    "patterns.match_s": ("patterns.match_patterns",),
    "patterns.embedding_s": ("patterns.find_embedding_span", "patterns.detect_embedding"),
    "patterns.quote_signs_s": ("patterns.contains_quote_signs",),
    "extractor.classify_s": ("extractor.classify_sentence",),
    "extractor.extract_mentions_s": ("extractor.extract_mentions",),
    "extractor.extract_corpus_s": ("extractor.extract_corpus",),
    "extractor.write_mentions_s": ("extractor.write_mentions", "extractor.mention_to_record"),
    "analytics.label_s": ("analytics.label_topic",),
    "analytics.accumulate_s": ("analytics.accumulate",),
    "analytics.report_s": ("analytics.media_report", "analytics.trend_report", "analytics.ratio_report",
                           "analytics.topic_report", "analytics.summary_object"),
    "analytics.write_s": ("analytics.write_media_csv", "analytics.write_ratio_csv",
                          "analytics.write_topic_csvs", "analytics.write_trend_tsv",
                          "analytics.write_summary_json"),
    "evaluator.load_gold_s": ("evaluator.load_gold",),
    "evaluator.compare_s": ("evaluator.compare", "evaluator.metrics", "evaluator.f1_transposition_note"),
    "evaluator.write_s": ("evaluator.write_report_csv",),
}
CALLS = {
    "segmenter.segment_calls": "segmenter.segment",
    "patterns.quote_spans_calls": "patterns.extract_quote_spans",
    "patterns.match_calls": "patterns.match_patterns",
    "patterns.embedding_calls": "patterns.find_embedding_span",
    "patterns.quote_signs_calls": "patterns.contains_quote_signs",
    "analytics.label_calls": "analytics.label_topic",
}
HIT_RATIOS = {  # calls with a non-empty result / calls
    "patterns.match_hit_ratio": "patterns.match_patterns",
    "patterns.embedding_hit_ratio": "patterns.find_embedding_span",
}
TOTALS = {  # summed sizes
    "segmenter.sentences": "segmenter.segment",
    "extractor.mentions": "extractor.extract_mentions",
}


class Tracer:
    """Spans of one process, kept in memory until the process ends."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.spans: list = []
        self.stack: list = []
        self.ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self.stack, self.ids
        size = SIZES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, size(result) if done and size else 0))

        return traced

    def install(self) -> None:
        """Replace each public function of the layer modules at every name bound to it."""
        modules = [importlib.import_module(f"sourcescope.{name}") for name in LAYER_MODULES]
        originals: dict = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for module in [importlib.import_module("sourcescope"), *modules]:
            for attr, obj in list(vars(module).items()):
                original, traced = originals.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, traced)

    def in_forked_child(self) -> None:
        self.spans.clear()
        self.stack.clear()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = self.spans_dir / f"{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh, separators=(",", ":"))


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans_dir: Path) -> dict:
    """Per-layer metrics from every span file of one traced run.

    A span's self time is its duration minus its direct children's; spans of
    pool workers are summed with the parent's, so a worker-side time is busy
    time over all workers.
    """
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    sizes: Counter = Counter()
    hits: Counter = Counter()
    article_ms: list = []
    for path in sorted(spans_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        child_time: dict = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, _, name, start, end, size in spans:
            self_time[name] += end - start - child_time[span_id]
            calls[name] += 1
            sizes[name] += size
            hits[name] += size > 0
            if name == "extractor.extract_mentions":
                article_ms.append(1000 * (end - start))

    metrics = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIME.items()}
    metrics["cli.self_s"] = sum(t for name, t in self_time.items() if name.startswith("cli."))
    metrics.update({metric: calls[name] for metric, name in CALLS.items()})
    metrics.update({metric: hits[name] / calls[name] if calls[name] else 0.0
                    for metric, name in HIT_RATIOS.items()})
    metrics.update({metric: sizes[name] for metric, name in TOTALS.items()})
    article_ms.sort()
    metrics["extractor.article_ms.p50"] = statistics.median(article_ms) if article_ms else 0.0
    metrics["extractor.article_ms.p99"] = _percentile(article_ms, 0.99)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-dir", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.spans_dir)
    tracer.install()
    multiprocessing.util.register_after_fork(tracer, Tracer.in_forked_child)
    cli = importlib.import_module("sourcescope.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
