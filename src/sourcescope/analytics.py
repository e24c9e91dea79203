"""Corpus-level usage statistics: media breakdowns, trends, quote ratios, topics."""

from __future__ import annotations

import json
import time
from collections import Counter
from enum import Enum
from importlib import resources
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Protocol

from sourcescope._fmt import fmt2, pct, round2, write_lines
from sourcescope.corpus import Article, MediaType
from sourcescope.extractor import KIND_ORDER, ExtractionResult, extract_mentions
from sourcescope.patterns import PatternSet, Platform, _word_set

# accumulator keys are plain value tuples: (media_type, year, topic-or-None),
# extended by (platform, kind) in mentions and by (platform,) in
# platform_articles. Only accumulate and _grouped know the positions.
_FIELDS = {"media": 0, "year": 1, "topic": 2, "platform": 3, "kind": 4}


class StatsAccumulator:
    """Mergeable integer counters keyed by (media_type, year, topic).

    mentions adds (platform, kind) to the key; platform_articles adds
    (platform,). Merge is commutative and associative.
    """

    COUNTERS = ("article_count", "articles_with_mention", "direct_quotes", "platform_articles", "mentions")

    def __init__(self):
        for name in self.COUNTERS:
            setattr(self, name, Counter())

    def __eq__(self, other):
        return type(other) is StatsAccumulator and vars(self) == vars(other)  # the five counters

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        merged = StatsAccumulator()
        for name in self.COUNTERS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


def accumulate(
    pairs: Iterable[tuple[Article, ExtractionResult]], labeler: Optional[TopicLabeler] = None
) -> StatsAccumulator:
    """Fold each article, paired with its extraction result, into counters.

    Each article is labeled once, by label_topic, as its pair arrives; an
    empty topic counts as unlabeled. An article with any mention increments
    articles_with_mention exactly once. Every article is counted, so
    accumulators over disjoint corpus shards merge into the accumulator of
    their union: analyze folds each chunk of the corpus where it is
    extracted (accumulate_chunk) and merges the chunks' accumulators.
    """
    acc = StatsAccumulator()
    for article, result in pairs:
        key = (article.media_type.value, article.published_at.year, label_topic(article, labeler) or None)
        acc.article_count[key] += 1
        acc.direct_quotes[key] += result.direct_quote_count
        if result.mentions:
            acc.articles_with_mention[key] += 1
        platforms = set()
        for mention in result.mentions:
            acc.mentions[key + (mention.platform.value, mention.kind.value)] += 1
            platforms.add(mention.platform.value)
        for platform in platforms:
            acc.platform_articles[key + (platform,)] += 1
    return acc


def accumulate_chunk(
    articles: Iterable[Article], pattern_set: PatternSet, labeler: Optional[TopicLabeler] = None
) -> tuple[StatsAccumulator]:
    """The chunk function of analyze for extractor.map_chunks: the one accumulator of the
    articles, each extracted without its sentence spans, labeled and counted where it runs."""
    return (accumulate(((article, extract_mentions(article, pattern_set)) for article in articles), labeler),)


def _grouped(counter: Counter, *by: str, media: Optional[str] = None) -> Counter:
    """Sum the counts of one media type, or of every article for None, grouped by the `by` fields.

    Fields are named as in _FIELDS. A group is keyed by its one `by` value,
    by the tuple of them for several, or by () for none (the total).
    """
    group_of = itemgetter(*(_FIELDS[name] for name in by)) if by else (lambda key: ())
    at = _FIELDS["media"]
    groups: dict = {}  # a plain dict sums faster than a Counter
    for key, count in counter.items():
        if media is None or key[at] == media:
            group = group_of(key)
            groups[group] = groups.get(group, 0) + count
    return Counter(groups)


# --- media report (usage by media type and platform) ---


class PlatformStats(NamedTuple):
    articles: int
    kinds: dict  # Kind -> count
    kind_pct: dict  # Kind -> percent of this platform's sources
    total: int
    share_pct: float  # percent of the media row's total sources


class MediaRow(NamedTuple):
    media_type: str
    total_articles: int
    articles_with_mention: int
    articles_with_mention_pct: float
    platforms: dict  # platform value -> PlatformStats
    total_sources: int
    sources_per_article: float  # sources per article that has at least one


class MediaReport(NamedTuple):
    rows: dict  # media value -> MediaRow
    overall: MediaRow


def _media_row(acc: StatsAccumulator, media: Optional[str]) -> MediaRow:
    """The row of one media type, or of the whole corpus for None."""
    total_articles = _grouped(acc.article_count, media=media)[()]
    with_mention = _grouped(acc.articles_with_mention, media=media)[()]
    mentions = _grouped(acc.mentions, "platform", "kind", media=media)
    platform_articles = _grouped(acc.platform_articles, "platform", media=media)

    kinds = {p.value: {kind: mentions[p.value, kind.value] for kind in KIND_ORDER} for p in Platform}
    totals = {p: sum(counts.values()) for p, counts in kinds.items()}
    total_sources = sum(totals.values())
    return MediaRow(
        media_type="all" if media is None else media,
        total_articles=total_articles,
        articles_with_mention=with_mention,
        articles_with_mention_pct=pct(with_mention, total_articles),
        platforms={
            p: PlatformStats(
                articles=platform_articles[p],
                kinds=counts,
                kind_pct={kind: pct(count, totals[p]) for kind, count in counts.items()},
                total=totals[p],
                share_pct=pct(totals[p], total_sources),
            )
            for p, counts in kinds.items()
        },
        total_sources=total_sources,
        sources_per_article=(total_sources / with_mention) if with_mention else 0.0,
    )


def media_report(acc: StatsAccumulator) -> MediaReport:
    rows = {mt.value: _media_row(acc, mt.value) for mt in MediaType}
    return MediaReport(rows=rows, overall=_media_row(acc, None))


# --- yearly trend ---


class TrendRow(NamedTuple):
    year: int
    media_type: str  # media value or "all"
    article_count: int
    articles_with_mention: int
    percentage: float


class TrendReport(NamedTuple):
    rows: tuple  # overall rows, one per year, ascending
    by_media: tuple  # per-media rows plus the overall rows, (year, media) order


def trend_report(acc: StatsAccumulator) -> TrendReport:
    def rows_for(media: Optional[str]) -> list[TrendRow]:
        articles = _grouped(acc.article_count, "year", media=media)
        with_mention = _grouped(acc.articles_with_mention, "year", media=media)
        label = "all" if media is None else media
        return [
            TrendRow(year, label, count, with_mention[year], pct(with_mention[year], count))
            for year, count in sorted(articles.items())
            if count
        ]

    overall = rows_for(None)
    by_media = overall + [row for mt in MediaType for row in rows_for(mt.value)]
    by_media.sort(key=lambda r: (r.year, r.media_type))
    return TrendReport(rows=tuple(overall), by_media=tuple(by_media))


# --- direct quotes vs social-media sources ---


class RatioRow(NamedTuple):
    media_type: str
    direct_quote_total: int
    avg_quotes_per_article: float
    sm_source_total: int
    ratio: Optional[float]  # direct quotes per one social-media source
    ratio_label: str  # "1:<ratio>" or "undefined"


class RatioReport(NamedTuple):
    rows: dict  # media value -> RatioRow


def ratio_report(acc: StatsAccumulator) -> RatioReport:
    quotes = _grouped(acc.direct_quotes, "media")
    articles = _grouped(acc.article_count, "media")
    sources = _grouped(acc.mentions, "media")
    rows: dict = {}
    for mt in MediaType:
        media = mt.value
        ratio = (quotes[media] / sources[media]) if sources[media] else None
        rows[media] = RatioRow(
            media_type=media,
            direct_quote_total=quotes[media],
            avg_quotes_per_article=(quotes[media] / articles[media]) if articles[media] else 0.0,
            sm_source_total=sources[media],
            ratio=ratio,
            ratio_label=f"1:{fmt2(ratio)}" if ratio is not None else "undefined",
        )
    return RatioReport(rows=rows)


# --- topic tables ---


class TopicRow(NamedTuple):
    media_type: str
    topic: str
    article_count: int
    articles_with_mention: int
    percentage: float


class TopicKindRow(NamedTuple):
    topic: str
    media_type: str
    articles_with_mention: int
    kinds: dict  # Kind -> count
    kind_pct: dict  # Kind -> percent of this media/topic's sources


class TopicReport(NamedTuple):
    top_rows: tuple  # of TopicRow, per media, rank order
    kind_rows: tuple  # of TopicKindRow, for each topic of top_rows in sorted order


def topic_report(acc: StatsAccumulator, k: int) -> TopicReport:
    if k < 1:
        raise ValueError("k must be >= 1")
    articles = _grouped(acc.article_count, "media", "topic")
    with_mention = _grouped(acc.articles_with_mention, "media", "topic")
    mentions = _grouped(acc.mentions, "media", "topic", "kind")

    top_rows: list[TopicRow] = []
    for mt in MediaType:
        labeled = [
            (topic, count) for (media, topic), count in articles.items()
            if media == mt.value and topic is not None
        ]
        for topic, count in sorted(labeled, key=lambda item: (-item[1], item[0]))[:k]:
            awm = with_mention[mt.value, topic]
            top_rows.append(TopicRow(mt.value, topic, count, awm, pct(awm, count)))

    kind_rows: list[TopicKindRow] = []
    for topic in sorted({row.topic for row in top_rows}):
        for mt in MediaType:
            kinds = {kind: mentions[mt.value, topic, kind.value] for kind in KIND_ORDER}
            total = sum(kinds.values())
            kind_rows.append(
                TopicKindRow(
                    topic=topic,
                    media_type=mt.value,
                    articles_with_mention=with_mention[mt.value, topic],
                    kinds=kinds,
                    kind_pct={kind: pct(count, total) for kind, count in kinds.items()},
                )
            )
    return TopicReport(top_rows=tuple(top_rows), kind_rows=tuple(kind_rows))


# --- topic labeling ---


class TopicLabeler(Protocol):
    def label(self, text: str) -> Optional[str]: ...


class LabelerError(RuntimeError):
    """Remote labeler failure, with the number of attempts it made."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message, attempts)  # both, so that the error unpickles
        self.attempts = attempts

    def __str__(self) -> str:
        return f"{self.args[0]} (after {self.attempts} attempt{'' if self.attempts == 1 else 's'})"


def _topic_keywords() -> dict:
    """topic -> keywords, from the bundled topic_keywords.tsv."""
    text = resources.files("sourcescope").joinpath("data/topic_keywords.tsv").read_text(encoding="utf-8")
    rows = (line.split("\t") for line in text.splitlines() if not line.startswith("#"))
    return {topic: tuple(keywords.split()) for topic, keywords in rows}


TOPIC_KEYWORDS = _topic_keywords()

_KEYWORD_TOPIC = {kw.encode(): topic for topic, kws in TOPIC_KEYWORDS.items() for kw in kws}


def _keyword_hits(text: str) -> set:
    """The keywords, as bytes, that equal a maximal \\w run of fold_case(text): where re.IGNORECASE matches them."""
    return _word_set(text) & _KEYWORD_TOPIC.keys()


class KeywordTopicLabeler:
    """Offline fallback: most distinct keyword hits wins, ties lexicographic.

    The hits come from a byte scan of the text (_keyword_hits), exact against the \\w runs of fold_case(text).
    """

    def label(self, text: str) -> Optional[str]:
        counts = Counter(_KEYWORD_TOPIC[kw] for kw in _keyword_hits(text))
        return max(sorted(counts), key=counts.__getitem__, default=None)


ATTEMPTS = 3
TIMEOUT_S = 10.0  # per attempt
# pause before the second attempt; each later pause doubles, up to the cap
BACKOFF_FIRST_S = 0.5
BACKOFF_MAX_S = 4.0


class RemoteTopicLabeler:
    """HTTP client: POST the article text, the response body is the label."""

    def __init__(self, url: str, token: Optional[str] = None):
        self.url = url
        self.token = token

    def label(self, text: str) -> Optional[str]:
        import http.client  # HTTP and TLS load at the first request, not with the package
        import urllib.error
        import urllib.request
        headers = {"Content-Type": "text/plain; charset=utf-8"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error = ""
        attempt = 0
        for attempt in range(1, ATTEMPTS + 1):
            if attempt > 1:
                time.sleep(min(BACKOFF_FIRST_S * 2 ** (attempt - 2), BACKOFF_MAX_S))
            request = urllib.request.Request(
                self.url, data=text.encode("utf-8"), headers=headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                    body = response.read().decode("utf-8").strip()
                    return body or None
            except UnicodeDecodeError as exc:  # the same answer would not decode on a retry
                raise LabelerError(
                    f"remote labeler at {self.url} answered with invalid UTF-8 at byte offset {exc.start}", attempt
                ) from None
            except OSError as exc:  # URLError is one
                last_error = str(exc)
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # it holds the server's response open
                    if exc.code < 500:
                        break  # the server refused the request; sending it again will not help
            except http.client.HTTPException as exc:  # a malformed answer; repr keeps the server's text on one line
                last_error = repr(exc)
        raise LabelerError(f"remote labeler at {self.url} failed: {last_error}", attempt)


def label_topic(article: Article, labeler: Optional[TopicLabeler] = None) -> Optional[str]:
    """The article's preset topic, else the labeler's verdict, else None."""
    if article.topic:
        return article.topic
    if labeler is None:
        return None
    return labeler.label(article.headline + "\n" + article.body)


# --- report writers ---


def _media_cells(row: MediaRow) -> list[tuple[str, str]]:
    """One media.csv row as (column, cell) pairs, in column order."""
    cells = [
        ("media_type", row.media_type),
        ("total_articles", str(row.total_articles)),
        ("articles_with_mention", str(row.articles_with_mention)),
        ("articles_with_mention_pct", fmt2(row.articles_with_mention_pct)),
    ]
    for p, stats in row.platforms.items():
        cells.append((f"{p}_articles", str(stats.articles)))
        for kind in KIND_ORDER:
            cells.append((f"{p}_{kind.value}", str(stats.kinds[kind])))
            cells.append((f"{p}_{kind.value}_pct", fmt2(stats.kind_pct[kind])))
        cells.append((f"{p}_total", str(stats.total)))
        cells.append((f"{p}_share_pct", fmt2(stats.share_pct)))
    cells.append(("total_sources", str(row.total_sources)))
    cells.append(("sources_per_article", fmt2(row.sources_per_article)))
    return cells


def write_media_csv(report: MediaReport, path) -> None:
    rows = [_media_cells(row) for row in [*report.rows.values(), report.overall]]
    header = ",".join(column for column, _ in rows[0])
    write_lines(path, [header] + [",".join(cell for _, cell in cells) for cells in rows])


def write_ratio_csv(report: RatioReport, path) -> None:
    rows = (
        f"{row.media_type},{row.direct_quote_total},{fmt2(row.avg_quotes_per_article)},"
        f"{row.sm_source_total},{row.ratio_label}"
        for row in report.rows.values()
    )
    write_lines(path, ["media_type,direct_quote_total,avg_quotes_per_article,sm_source_total,ratio", *rows])


def _quoted(text: str) -> str:
    """A CSV cell that holds `text` whatever its commas and double quotes."""
    return '"' + text.replace('"', '""') + '"'


def write_topic_csvs(report: TopicReport, top_path, kinds_path) -> None:
    top_rows = (
        f"{row.media_type},{_quoted(row.topic)},{row.article_count},"
        f"{row.articles_with_mention},{fmt2(row.percentage)}"
        for row in report.top_rows
    )
    write_lines(top_path, ["media_type,topic,article_count,articles_with_mention,percentage", *top_rows])
    kind_columns = [column for kind in KIND_ORDER for column in (kind.value, f"{kind.value}_pct")]
    kind_lines = [",".join(["topic", "media_type", "articles_with_mention", *kind_columns])]
    for row in report.kind_rows:
        counts = [cell for kind in KIND_ORDER for cell in (str(row.kinds[kind]), fmt2(row.kind_pct[kind]))]
        kind_lines.append(",".join([_quoted(row.topic), row.media_type, str(row.articles_with_mention), *counts]))
    write_lines(kinds_path, kind_lines)


def write_trend_tsv(report: TrendReport, path) -> None:
    write_lines(path, (f"{row.year}\t{row.media_type}\t{fmt2(row.percentage)}" for row in report.by_media))


def _plain(value):
    """A report value as JSON data: record fields and dict entries become
    objects (enum keys by value), floats are rounded half-up to 2 decimals."""
    if hasattr(value, "_asdict"):
        return {name: _plain(item) for name, item in value._asdict().items()}
    if isinstance(value, dict):
        return {(k.value if isinstance(k, Enum) else k): _plain(v) for k, v in value.items()}
    if isinstance(value, float):
        return round2(value)
    return value


def summary_object(
    media: MediaReport, trend: TrendReport, ratio: RatioReport, topics: TopicReport
) -> dict:
    """Machine-readable roll-up of all report tables, raw counts included."""

    def keyed_row(row) -> dict:  # its media type is already the key
        obj = _plain(row)
        del obj["media_type"]
        return obj

    def ratio_obj(row: RatioRow) -> dict:
        obj = keyed_row(row)
        obj["ratio"] = obj.pop("ratio_label")
        return obj

    return {
        "media": {name: keyed_row(row) for name, row in media.rows.items()},
        "overall": keyed_row(media.overall),
        "trend": [_plain(row) for row in trend.by_media],
        "ratio": {name: ratio_obj(row) for name, row in ratio.rows.items()},
        "topics": {
            "top": [_plain(row) for row in topics.top_rows],
            "kinds": [_plain(row) for row in topics.kind_rows],
        },
    }


def write_summary_json(summary: dict, path) -> None:
    write_lines(path, [json.dumps(summary, ensure_ascii=False, indent=2, sort_keys=True)])
