"""Command-line entry point: ingest -> extract -> evaluate/analyze -> report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from sourcescope import analytics, evaluator, extractor
from sourcescope.corpus import Corpus, IngestError, ingest, serialize, stratified_sample
from sourcescope.patterns import PatternFileError, PatternSet, default_patterns, load_patterns

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_LABELER = 3

TOKEN_ENV_VAR = "SOURCESCOPE_LABELER_TOKEN"


@dataclass(frozen=True)
class RunConfig:
    corpus_path: str
    patterns_path: Optional[str]
    out_dir: str
    parallelism: int
    seed: int
    fail_fast: bool
    labeler_mode: str  # preset | keyword | remote
    labeler_url: Optional[str]

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        if args.parallel < 1:
            raise ValueError("--parallel must be >= 1")
        return cls(
            corpus_path=args.corpus,
            patterns_path=args.patterns,
            out_dir=args.out,
            parallelism=args.parallel,
            seed=args.seed,
            fail_fast=args.fail_fast,
            labeler_mode=args.labeler,
            labeler_url=args.labeler_url,
        )


def _load_patterns(config: RunConfig) -> PatternSet:
    if config.patterns_path:
        return load_patterns(config.patterns_path)
    return default_patterns()


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _labeler(config: RunConfig):
    if config.labeler_mode == "keyword":
        return analytics.KeywordTopicLabeler()
    if config.labeler_mode == "remote":
        if not config.labeler_url:
            raise ValueError("--labeler remote requires --labeler-url")
        token = os.environ.get(TOKEN_ENV_VAR)
        return analytics.RemoteTopicLabeler(config.labeler_url, token=token)
    return None


def cmd_ingest(config: RunConfig) -> int:
    corpus = ingest(config.corpus_path, fail_fast=config.fail_fast)
    report = corpus.ingest_report
    print(f"{report.accepted} accepted, {len(report.rejected)} rejected")
    for line_number, reason in report.rejected:
        print(f"  rejected line {line_number}: {reason}")
    if report.unknown_key_warnings:
        print(f"  {report.unknown_key_warnings} unknown-key warnings")
    return EXIT_OK


def _escape_cell(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ")


def _writing_sentences(corpus: Corpus, results, fh):
    """Pass the results through, writing each article's sentences.tsv rows on the way."""
    for article, result in zip(corpus.articles, results):
        for index, (start, end) in enumerate(result.sentences):
            fh.write(f"{article.id}\t{index}\t{_escape_cell(article.body[start:end])}\n")
        yield result


def cmd_extract(config: RunConfig) -> int:
    corpus = ingest(config.corpus_path, fail_fast=config.fail_fast)
    pattern_set = _load_patterns(config)
    out = _out_dir(config)
    results = extractor.iter_extract(corpus, pattern_set, workers=config.parallelism)

    with open(out / "sentences.tsv", "w", encoding="utf-8") as fh:
        mention_count = extractor.write_mentions(
            _writing_sentences(corpus, results, fh), out / "mentions.jsonl"
        )
    print(f"{len(corpus)} articles processed, {mention_count} mentions")
    print(f"pattern set version: {pattern_set.version}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig, gold_path: str) -> int:
    corpus = ingest(config.corpus_path, fail_fast=config.fail_fast)
    pattern_set = _load_patterns(config)
    out = _out_dir(config)
    results = extractor.iter_extract(corpus, pattern_set, workers=config.parallelism)
    predicted = [m for r in results for m in r.mentions]
    gold = evaluator.load_gold(gold_path)

    counts = evaluator.compare(predicted, gold)
    report = evaluator.metrics(counts)
    note = evaluator.f1_transposition_note(report)
    evaluator.write_report_csv(report, out / "evaluation.csv", note=note)

    for kind in evaluator.KIND_ORDER:
        row = report.per_kind[kind]
        print(
            f"{evaluator.KIND_LABELS[kind]}: P={row.precision:.2f} R={row.recall:.2f} F1={row.f1:.2f}"
        )
    print(f"Macro-average: P={report.macro.precision:.2f} R={report.macro.recall:.2f} F1={report.macro.f1:.2f}")
    print(f"Micro-average: P={report.micro.precision:.2f} R={report.micro.recall:.2f} F1={report.micro.f1:.2f}")
    if note:
        print(note)
    return EXIT_OK


def cmd_analyze(config: RunConfig, top_k: int) -> int:
    corpus = ingest(config.corpus_path, fail_fast=config.fail_fast)
    pattern_set = _load_patterns(config)
    out = _out_dir(config)

    labeler = _labeler(config)
    topics = None
    if labeler is not None:
        topics = {a.id: analytics.label_topic(a, labeler) for a in corpus.articles}

    results = extractor.iter_extract(corpus, pattern_set, workers=config.parallelism)
    acc = analytics.accumulate(results, corpus, topics=topics)
    media = analytics.media_report(acc)
    trend = analytics.trend_report(acc)
    ratio = analytics.ratio_report(acc)
    topic = analytics.topic_report(acc, top_k)

    analytics.write_media_csv(media, out / "media.csv")
    analytics.write_ratio_csv(ratio, out / "ratio.csv")
    analytics.write_topic_csvs(topic, out / "topics_top.csv", out / "topic_kinds.csv")
    analytics.write_trend_tsv(trend, out / "trend.tsv")
    analytics.write_summary_json(
        analytics.summary_object(media, trend, ratio, topic), out / "summary.json"
    )
    overall = media.overall
    print(
        f"{overall.total_articles} articles, {overall.articles_with_mention} with a source "
        f"({overall.articles_with_mention_pct:.2f}%), {overall.total_sources} sources"
    )
    return EXIT_OK


def cmd_sample(config: RunConfig, keywords: list[str], n: int) -> int:
    corpus = ingest(config.corpus_path, fail_fast=config.fail_fast)
    out = _out_dir(config)
    sample = stratified_sample(corpus, keywords, n, config.seed)
    serialize(sample, out / "sample.jsonl")
    print(f"{len(sample)} articles sampled")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sourcescope",
        description="Detect, evaluate, and analyze social-media source citations in news articles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", required=True, help="line-delimited corpus file")
        p.add_argument("--patterns", default=None, help="pattern TSV (default: bundled set)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--parallel", type=int, default=1, help="worker processes")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--fail-fast", action="store_true", help="stop at the first bad record")
        p.add_argument("--labeler", choices=("preset", "keyword", "remote"), default="preset")
        p.add_argument("--labeler-url", default=None, help="remote topic labeler endpoint")

    for name in ("ingest", "extract", "evaluate", "analyze", "sample"):
        p = sub.add_parser(name)
        add_shared(p)
        if name == "evaluate":
            p.add_argument("--gold", required=True, help="gold annotation file")
        if name == "analyze":
            p.add_argument("--top-k", type=int, default=5, help="topics per media type")
        if name == "sample":
            p.add_argument("--keywords", required=True, help="comma-separated stratum keywords")
            p.add_argument("-n", "--sample-size", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "extract":
            return cmd_extract(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.gold)
        if args.command == "analyze":
            return cmd_analyze(config, args.top_k)
        if args.command == "sample":
            keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
            return cmd_sample(config, keywords, args.sample_size)
        raise AssertionError(f"unhandled command {args.command}")
    except analytics.LabelerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LABELER
    except (IngestError, PatternFileError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
