"""Output checks: each compares a command's files with what the generator
planted, and with two properties of the method (Facebook is never an
Embedding; a (sentence, platform) pair carries at most one mention).

Every check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from corpus_gen import EMBEDDING, FACEBOOK, MAINSTREAM, UNRELIABLE, PlannedCorpus

PLATFORMS = ("facebook", "twitter")
KINDS = ("quotation", "paraphrase", "embedding")
MEDIA = (MAINSTREAM, UNRELIABLE)
TOP_K = 5  # the analyze command's default --top-k


def _round_pct(numerator: int, denominator: int) -> float:
    """100 * n / d rounded half-up to two decimals; 0 when d is 0."""
    if denominator == 0:
        return 0.0
    value = Decimal(repr(100.0 * numerator / denominator))
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def check_extract(out: Path, planted: PlannedCorpus) -> list:
    problems = []
    keys = []
    with open(out / "mentions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            m = json.loads(line)
            keys.append((m["article_id"], m["sentence_index"], m["platform"], m["kind"]))
    pairs = [k[:3] for k in keys]
    if len(set(pairs)) != len(pairs):
        problems.append("a (sentence, platform) pair has more than one mention")
    if any(p == FACEBOOK and k == EMBEDDING for _, _, p, k in keys):
        problems.append("a Facebook mention is an Embedding")
    expected = planted.citation_keys()
    if set(keys) != expected:
        missing, extra = expected - set(keys), set(keys) - expected
        problems.append(f"mentions differ from the plan: {len(missing)} missing {sorted(missing)[:3]}, "
                        f"{len(extra)} unexpected {sorted(extra)[:3]}")
    with open(out / "sentences.tsv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != sum(a.sentences for a in planted.articles):
        problems.append(f"sentences.tsv has {rows} rows, planted {sum(a.sentences for a in planted.articles)}")
    return problems


def _expected_media(articles: list) -> dict:
    """The summary.json media object that the planted articles imply."""
    kinds = {(p, k): 0 for p in PLATFORMS for k in KINDS}
    platform_articles = {p: 0 for p in PLATFORMS}
    for a in articles:
        for _, platform, kind in a.citations:
            kinds[(platform, kind)] += 1
        for platform in {platform for _, platform, _ in a.citations}:
            platform_articles[platform] += 1
    cited = sum(1 for a in articles if a.citations)
    total_sources = sum(kinds.values())
    platforms = {}
    for p in PLATFORMS:
        total = sum(kinds[(p, k)] for k in KINDS)
        platforms[p] = {
            "articles": platform_articles[p],
            "kinds": {k: kinds[(p, k)] for k in KINDS},
            "kind_pct": {k: _round_pct(kinds[(p, k)], total) for k in KINDS},
            "total": total,
            "share_pct": _round_pct(total, total_sources),
        }
    return {
        "total_articles": len(articles),
        "articles_with_mention": cited,
        "articles_with_mention_pct": _round_pct(cited, len(articles)),
        "platforms": platforms,
        "total_sources": total_sources,
    }


def _expected_trend(articles: list) -> list:
    cells: dict = {}
    for a in articles:
        for media in (a.media, "all"):
            count, cited = cells.get((a.year, media), (0, 0))
            cells[(a.year, media)] = (count + 1, cited + bool(a.citations))
    return [
        {"year": year, "media_type": media, "article_count": count,
         "articles_with_mention": cited, "percentage": _round_pct(cited, count)}
        for (year, media), (count, cited) in sorted(cells.items())
    ]


def _expected_top_topics(articles: list) -> list:
    rows = []
    for media in MEDIA:
        counts: dict = {}
        for a in articles:
            if a.media == media:
                count, cited = counts.get(a.topic, (0, 0))
                counts[a.topic] = (count + 1, cited + bool(a.citations))
        ranked = sorted(counts.items(), key=lambda item: (-item[1][0], item[0]))[:TOP_K]
        rows += [
            {"media_type": media, "topic": topic, "article_count": count,
             "articles_with_mention": cited, "percentage": _round_pct(cited, count)}
            for topic, (count, cited) in ranked
        ]
    return rows


def check_analyze(out: Path, planted: PlannedCorpus) -> list:
    problems = []
    with open(out / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    groups = {media: [a for a in planted.articles if a.media == media] for media in MEDIA}
    rows = [(f"media.{media}", summary["media"][media], groups[media]) for media in MEDIA]
    rows.append(("overall", summary["overall"], planted.articles))
    for label, got, articles in rows:
        if got["platforms"][FACEBOOK]["kinds"][EMBEDDING] != 0:
            problems.append(f"{label}: a Facebook mention is an Embedding")
        expected = _expected_media(articles)
        for key, value in expected.items():
            if got[key] != value:
                problems.append(f"{label}.{key}: got {got[key]}, planted {value}")
    for media in MEDIA:
        quotes = sum(a.direct_quotes for a in groups[media])
        sources = sum(len(a.citations) for a in groups[media])
        ratio = summary["ratio"][media]
        if (ratio["direct_quote_total"], ratio["sm_source_total"]) != (quotes, sources):
            problems.append(f"ratio.{media}: got {ratio['direct_quote_total']} quotes and "
                            f"{ratio['sm_source_total']} sources, planted {quotes} and {sources}")
    if summary["trend"] != _expected_trend(planted.articles):
        problems.append("trend rows differ from the plan")
    if summary["topics"]["top"] != _expected_top_topics(planted.articles):
        problems.append(f"top topics differ from the plan: {summary['topics']['top'][:2]}")
    return problems


def check_evaluate(out: Path, planted: PlannedCorpus) -> list:
    """Every row of evaluation.csv must read 100.00.

    The gold file is the plan, which has no Facebook Embedding and one key per
    (sentence, platform). Precision 100 means every prediction is a gold key,
    and the evaluator refuses two predictions for one (sentence, platform), so
    both properties hold for the predictions too.
    """
    problems = []
    with open(out / "evaluation.csv", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    expected_rows = ["Quotation", "Paraphrase", "Embedding", "Macro-average", "Micro-average"]
    if [line.split(",")[0] for line in lines[1:]] != expected_rows:
        problems.append(f"evaluation.csv rows: {lines[1:]}")
    for line in lines[1:]:
        if line.split(",")[1:] != ["100.00"] * 3:
            problems.append(f"evaluation.csv row is not 100.00: {line}")
    if any(p == FACEBOOK and k == EMBEDDING for _, _, p, k in planted.citation_keys()):
        problems.append("the plan holds a Facebook Embedding")
    return problems
