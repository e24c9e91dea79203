"""Command-line entry point: ingest -> extract -> evaluate/analyze -> report."""

from __future__ import annotations

import argparse
import gc
import os
import re
import signal
import sys
import tempfile
from contextlib import closing, contextmanager
from functools import reduce
from pathlib import Path
from urllib.parse import urlsplit

from sourcescope import extractor
from sourcescope._fmt import escape_cell, fmt2
from sourcescope.corpus import Article, CorpusReader, Rejection, chosen_articles, serialize, stratified_sample
from sourcescope.patterns import PatternSet, default_patterns, load_patterns

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_LABELER = 3

TOKEN_ENV_VAR = "SOURCESCOPE_LABELER_TOKEN"


@contextmanager
def _out_dir(path):
    """Make `path` if missing and yield a private staging directory inside it. The staged files move
    into `path` together when the block completes; the directory goes in any case, with what is left."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    # SIGTERM and SIGINT wait while the directory is made and while it is published and removed, so that
    # their unwinding neither leaves it behind nor moves only some of its files
    stop_signals = {signal.SIGTERM, signal.SIGINT}
    signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
    try:
        # an error in removing the directory must not replace the run's own
        with tempfile.TemporaryDirectory(prefix=".", suffix=".tmp", dir=out, ignore_cleanup_errors=True) as staging:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, stop_signals)
            try:
                yield Path(staging)
            finally:  # also when the run fails, so that the removal is not cut short
                signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
            for staged in Path(staging).iterdir():
                os.replace(staged, out / staged.name)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, stop_signals)


def _labeler(args: argparse.Namespace):
    from sourcescope import analytics
    if args.labeler == "remote" and not args.labeler_url:
        raise ValueError("--labeler remote requires --labeler-url")
    if args.labeler != "remote" and args.labeler_url:
        raise ValueError("--labeler-url requires --labeler remote")
    if args.labeler == "keyword":
        return analytics.KeywordTopicLabeler()
    if args.labeler == "remote":
        return analytics.RemoteTopicLabeler(args.labeler_url, token=os.environ.get(TOKEN_ENV_VAR))
    return None


def cmd_ingest(args: argparse.Namespace) -> int:
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        rejected = [record for record in reader if isinstance(record, Rejection)]
    print(f"{reader.accepted} accepted, {len(rejected)} rejected")
    for line_number, reason in rejected:
        print(f"  rejected line {line_number}: {reason}")
    if reader.unknown_key_warnings:
        print(f"  {reader.unknown_key_warnings} unknown-key warnings")
    return EXIT_OK


def _articles(reader: CorpusReader):
    """The accepted articles of the corpus as they are read; rejected lines are dropped."""
    return (record for record in reader if isinstance(record, Article))


def _workers(args: argparse.Namespace) -> int:
    """The worker processes to extract with: --parallel, capped at one per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(args.parallel, cpus)


@contextmanager
def _extraction(args: argparse.Namespace, chunk, *context):
    """Yield (reader, pattern set, staging directory, outputs of chunk(articles, pattern set, *context) over the
    accepted articles, from extractor.map_chunks); closing the outputs stops the work still pending."""
    pattern_set = load_patterns(args.patterns) if args.patterns else default_patterns()
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader, _out_dir(args.out) as out:
        articles = _articles(reader)
        with closing(extractor.map_chunks(chunk, articles, (pattern_set, *context), _workers(args))) as outputs:
            yield reader, pattern_set, out, outputs


def _extract_rows(articles, pattern_set: PatternSet):
    """The chunk function of extract: each article's result and its sentences.tsv rows, cut where the body is."""
    for article in articles:
        result = extractor.extract_mentions(article, pattern_set, sentences=True)
        cells = (article.body[start:end] for start, end in result.sentences)
        # a printable cell holds no tab and no line boundary, so escape_cell would return it as it is
        rows = [f"{article.id}\t{i}\t{c if c.isprintable() else escape_cell(c)}\n" for i, c in enumerate(cells)]
        yield result, "".join(rows)


def cmd_extract(args: argparse.Namespace) -> int:
    with _extraction(args, _extract_rows) as (reader, pattern_set, out, outputs):
        with open(out / "sentences.tsv", "w", encoding="utf-8") as fh:
            results = (result for result, rows in outputs if fh.write(rows) >= 0)  # writes the rows on the way
            mention_count = extractor.write_mentions(results, out / "mentions.jsonl")
    print(f"{reader.accepted} articles processed, {mention_count} mentions")
    print(f"pattern set version: {pattern_set.version}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from sourcescope import evaluator
    gold = evaluator._gold_map(args.gold)  # compare's own map, no GoldAnnotation list
    with _extraction(args, extractor.extract_chunk) as (_, _, out, results):
        counts = evaluator.compare((m for result in results for m in result.mentions), gold)
        report = evaluator.metrics(counts)
        note = evaluator.f1_transposition_note(report)
        evaluator.write_report_csv(report, out / "evaluation.csv", note=note)

    for label, row in evaluator.report_rows(report):
        print(f"{label}: P={fmt2(row.precision)} R={fmt2(row.recall)} F1={fmt2(row.f1)}")
    if note:
        print(note)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    from sourcescope import analytics
    labeler = _labeler(args)
    # each chunk comes back as one accumulator; a labeler failure stops the run at once
    with _extraction(args, analytics.accumulate_chunk, labeler) as (_, _, out, accs):
        try:
            acc = reduce(analytics.StatsAccumulator.merge, accs, analytics.StatsAccumulator())
        except analytics.LabelerError as exc:  # nothing is staged yet, so --out stays as it was
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_LABELER
        media = analytics.media_report(acc)
        trend = analytics.trend_report(acc)
        ratio = analytics.ratio_report(acc)
        topic = analytics.topic_report(acc, args.top_k)
        analytics.write_media_csv(media, out / "media.csv")
        analytics.write_ratio_csv(ratio, out / "ratio.csv")
        analytics.write_topic_csvs(topic, out / "topics_top.csv", out / "topic_kinds.csv")
        analytics.write_trend_tsv(trend, out / "trend.tsv")
        analytics.write_summary_json(analytics.summary_object(media, trend, ratio, topic), out / "summary.json")
    overall = media.overall
    print(
        f"{overall.total_articles} articles, {overall.articles_with_mention} with a source "
        f"({fmt2(overall.articles_with_mention_pct)}%), {overall.total_sources} sources"
    )
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        chosen = stratified_sample(_articles(reader), keywords, args.sample_size, args.seed)
    with _out_dir(args.out) as out, CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        serialize(chosen_articles(_articles(reader), chosen), out / "sample.jsonl")
    print(f"{len(chosen)} articles sampled")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so it exits like any other validation failure."""

    def error(self, message):
        raise ValueError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


def _http_url(text: str) -> str:
    try:
        parts = urlsplit(text)
        valid = parts.scheme in ("http", "https") and bool(parts.hostname)
        parts.port  # raises ValueError for a port that is not a number from 0 to 65535
    except ValueError:  # that, or an unclosed "[" around the host
        valid = False
    # http.client sends the URL unquoted, and refuses a space, control or non-ASCII character in it
    if not valid or not re.fullmatch("[!-~]+", text):
        raise argparse.ArgumentTypeError(f"must be an http or https URL, not {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sourcescope",
        description="Detect, evaluate, and analyze social-media source citations in news articles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, extracts=False):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--corpus", required=True, help="line-delimited corpus file")
        p.add_argument("--fail-fast", action="store_true", help="stop at the first bad record")
        if extracts:
            p.add_argument("--out", default="out", help="output directory")
            p.add_argument("--patterns", default=None, help="pattern TSV (default: bundled set)")
            p.add_argument("--parallel", type=_positive_int, default=1, help="worker processes")
        return p

    command("ingest", cmd_ingest)
    command("extract", cmd_extract, extracts=True)
    evaluate = command("evaluate", cmd_evaluate, extracts=True)
    evaluate.add_argument("--gold", required=True, help="gold annotation file")
    analyze = command("analyze", cmd_analyze, extracts=True)
    analyze.add_argument("--labeler", choices=("preset", "keyword", "remote"), default="preset")
    analyze.add_argument("--labeler-url", type=_http_url, default=None, help="remote topic labeler endpoint")
    analyze.add_argument("--top-k", type=_positive_int, default=5, help="topics per media type")
    sample = command("sample", cmd_sample)
    sample.add_argument("--out", default="out", help="output directory")
    sample.add_argument("--keywords", required=True, help="comma-separated stratum keywords")
    sample.add_argument("-n", "--sample-size", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0, help="sampling seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ValueError as exc:  # bad records, patterns, gold lines and usage; JSON errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


class _Terminated(BaseException):
    """SIGTERM, raised where the process is, so that no `except Exception` stops it."""


def _raise_terminated(signum, frame):
    raise _Terminated


def entry() -> None:
    """Run main(); on SIGTERM or SIGINT (Ctrl-C), unwind first (the staging directory goes,
    the pool shuts down), then die of that signal as the default handler would have. The import-time
    heap is frozen first: collections, the one at exit too, skip it, and forked workers share its pages."""
    gc.freeze()
    signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        raise SystemExit(main())
    except _Terminated:
        signum = signal.SIGTERM
    except KeyboardInterrupt:
        signum = signal.SIGINT
    # leaving the except block released the traceback, and with it every frame
    # of the run, so a suspended extraction generator has shut its pool down
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


if __name__ == "__main__":
    entry()
