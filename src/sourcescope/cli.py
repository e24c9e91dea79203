"""Command-line entry point: ingest -> extract -> evaluate/analyze -> report."""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import closing
from pathlib import Path
from urllib.parse import urlsplit

from sourcescope import analytics, evaluator, extractor
from sourcescope._fmt import atomic_open
from sourcescope.corpus import Article, CorpusReader, Rejection, chosen_articles, serialize, stratified_sample
from sourcescope.patterns import PatternSet, default_patterns, load_patterns

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_LABELER = 3

TOKEN_ENV_VAR = "SOURCESCOPE_LABELER_TOKEN"


def _load_patterns(path) -> PatternSet:
    return load_patterns(path) if path else default_patterns()


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _labeler(args: argparse.Namespace):
    if args.labeler == "keyword":
        return analytics.KeywordTopicLabeler()
    if args.labeler == "remote":
        if not args.labeler_url:
            raise ValueError("--labeler remote requires --labeler-url")
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


def _escape_cell(text: str) -> str:
    # every str.splitlines line boundary, and tabs, become spaces
    return " ".join(text.replace("\t", " ").splitlines())


def _writing_sentences(pairs, fh):
    """Pass the results through, writing each article's sentences.tsv rows on the way."""
    for article, result in pairs:
        for index, (start, end) in enumerate(result.sentences):
            fh.write(f"{article.id}\t{index}\t{_escape_cell(article.body[start:end])}\n")
        yield result


def cmd_extract(args: argparse.Namespace) -> int:
    pattern_set = _load_patterns(args.patterns)
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        out = _out_dir(args.out)
        with closing(extractor.iter_extract(_articles(reader), pattern_set, workers=args.parallel)) as pairs, \
                atomic_open(out / "sentences.tsv") as fh:
            mention_count = extractor.write_mentions(_writing_sentences(pairs, fh), out / "mentions.jsonl")
    print(f"{reader.accepted} articles processed, {mention_count} mentions")
    print(f"pattern set version: {pattern_set.version}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    gold = evaluator.load_gold(args.gold)
    pattern_set = _load_patterns(args.patterns)
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        out = _out_dir(args.out)
        with closing(extractor.iter_extract(_articles(reader), pattern_set, workers=args.parallel)) as pairs:
            predicted = [m for _, result in pairs for m in result.mentions]

    counts = evaluator.compare(predicted, gold)
    report = evaluator.metrics(counts)
    note = evaluator.f1_transposition_note(report)
    evaluator.write_report_csv(report, out / "evaluation.csv", note=note)

    for label, row in evaluator.report_rows(report):
        print(f"{label}: P={row.precision:.2f} R={row.recall:.2f} F1={row.f1:.2f}")
    if note:
        print(note)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    labeler = _labeler(args)
    pattern_set = _load_patterns(args.patterns)
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        out = _out_dir(args.out)
        # a labeler failure stops the extraction at once: closing it cancels the pending work
        with closing(extractor.iter_extract(_articles(reader), pattern_set, workers=args.parallel)) as pairs:
            acc = analytics.accumulate(pairs, labeler)
    media = analytics.media_report(acc)
    trend = analytics.trend_report(acc)
    ratio = analytics.ratio_report(acc)
    topic = analytics.topic_report(acc, args.top_k)

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


def cmd_sample(args: argparse.Namespace) -> int:
    keywords = [kw.strip() for kw in args.keywords.split(",") if kw.strip()]
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
        chosen = stratified_sample(_articles(reader), keywords, args.sample_size, args.seed)
    out = _out_dir(args.out)
    with CorpusReader(args.corpus, fail_fast=args.fail_fast) as reader:
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
    parts = urlsplit(text)
    if parts.scheme not in ("http", "https") or not parts.netloc:
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
    except analytics.LabelerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LABELER
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
    """Run main(); on SIGTERM, unwind first (temporary files go, the pool shuts
    down), then die of SIGTERM as the default handler would have."""
    signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        raise SystemExit(main())
    except _Terminated:
        pass
    # leaving the except block released the traceback, and with it every frame
    # of the run, so a suspended extraction generator has shut its pool down
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


if __name__ == "__main__":
    entry()
