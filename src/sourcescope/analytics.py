"""Corpus-level usage statistics: media breakdowns, trends, quote ratios, topics."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from sourcescope._fmt import fmt2, pct, round2
from sourcescope.corpus import Article, Corpus, MediaType
from sourcescope.extractor import KIND_ORDER, ExtractionResult, Kind
from sourcescope.patterns import Platform

# accumulator keys are plain value tuples: (media_type, year, topic-or-None)


@dataclass
class StatsAccumulator:
    """Mergeable integer counters keyed by (media_type, year, topic).

    mentions adds (platform, kind) to the key; platform_articles adds
    (platform,). Merge is commutative and associative.
    """

    article_count: Counter = field(default_factory=Counter)
    articles_with_mention: Counter = field(default_factory=Counter)
    direct_quotes: Counter = field(default_factory=Counter)
    platform_articles: Counter = field(default_factory=Counter)
    mentions: Counter = field(default_factory=Counter)

    def merge(self, other: "StatsAccumulator") -> "StatsAccumulator":
        return StatsAccumulator(
            article_count=self.article_count + other.article_count,
            articles_with_mention=self.articles_with_mention + other.articles_with_mention,
            direct_quotes=self.direct_quotes + other.direct_quotes,
            platform_articles=self.platform_articles + other.platform_articles,
            mentions=self.mentions + other.mentions,
        )

    def validate(self) -> None:
        for key, count in self.articles_with_mention.items():
            if count > self.article_count[key]:
                raise ValueError(f"articles_with_mention > article_count for {key}")


def accumulate(
    results: Iterable[ExtractionResult],
    corpus: Corpus,
    topics: Optional[dict] = None,
) -> StatsAccumulator:
    """Fold extraction results into counters.

    An article with any mention increments articles_with_mention exactly
    once. `topics` optionally overrides per-article topic labels. Every
    article of the corpus is counted, so accumulators over disjoint corpus
    shards merge into the accumulator of their union.
    """
    index = corpus.by_id()

    def key_of(article: Article) -> tuple:
        topic = topics.get(article.id, article.topic) if topics else article.topic
        return (article.media_type.value, article.published_at.year, topic)

    acc = StatsAccumulator()
    for article in corpus.articles:
        acc.article_count[key_of(article)] += 1

    for result in results:
        article = index.get(result.article_id)
        if article is None:
            raise ValueError(f"unknown article id {result.article_id!r}")
        key = key_of(article)
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


def _sum_where(counter: Counter, media: Optional[str] = None, extra: tuple = ()) -> int:
    total = 0
    for key, count in counter.items():
        if media is not None and key[0] != media:
            continue
        if extra and key[3:] != extra:
            continue
        total += count
    return total


# --- media report (usage by media type and platform) ---


@dataclass(frozen=True)
class PlatformStats:
    articles: int
    kinds: dict  # Kind -> count
    kind_pct: dict  # Kind -> percent of this platform's sources
    total: int
    share_pct: float  # percent of the media row's total sources


@dataclass(frozen=True)
class MediaRow:
    media_type: str
    total_articles: int
    articles_with_mention: int
    articles_with_mention_pct: float
    platforms: dict  # platform value -> PlatformStats
    total_sources: int
    sources_per_article: float  # sources per article that has at least one


@dataclass(frozen=True)
class MediaReport:
    rows: dict  # media value -> MediaRow
    overall: MediaRow


def _media_row(acc: StatsAccumulator, media: Optional[str], label: str) -> MediaRow:
    total_articles = _sum_where(acc.article_count, media)
    with_mention = _sum_where(acc.articles_with_mention, media)

    platforms: dict = {}
    total_sources = 0
    for platform in Platform:
        kinds = {
            kind: _sum_where(acc.mentions, media, (platform.value, kind.value))
            for kind in KIND_ORDER
        }
        platform_total = sum(kinds.values())
        total_sources += platform_total
        platforms[platform.value] = (kinds, platform_total)

    rows: dict = {}
    for platform in Platform:
        kinds, platform_total = platforms[platform.value]
        rows[platform.value] = PlatformStats(
            articles=_sum_where(acc.platform_articles, media, (platform.value,)),
            kinds=kinds,
            kind_pct={kind: pct(count, platform_total) for kind, count in kinds.items()},
            total=platform_total,
            share_pct=pct(platform_total, total_sources),
        )

    return MediaRow(
        media_type=label,
        total_articles=total_articles,
        articles_with_mention=with_mention,
        articles_with_mention_pct=pct(with_mention, total_articles),
        platforms=rows,
        total_sources=total_sources,
        sources_per_article=(total_sources / with_mention) if with_mention else 0.0,
    )


def media_report(acc: StatsAccumulator) -> MediaReport:
    rows = {mt.value: _media_row(acc, mt.value, mt.value) for mt in MediaType}
    return MediaReport(rows=rows, overall=_media_row(acc, None, "all"))


# --- yearly trend ---


@dataclass(frozen=True)
class TrendRow:
    year: int
    media_type: str  # media value or "all"
    article_count: int
    articles_with_mention: int
    percentage: float


@dataclass(frozen=True)
class TrendReport:
    rows: tuple  # overall rows, one per year, ascending
    by_media: tuple  # per-media rows plus the overall rows, (year, media) order


def trend_report(acc: StatsAccumulator) -> TrendReport:
    def rows_for(media: Optional[str], label: str) -> dict:
        per_year: dict[int, TrendRow] = {}
        years = sorted(
            {key[1] for key in acc.article_count if media is None or key[0] == media}
        )
        for year in years:
            count = sum(c for k, c in acc.article_count.items() if k[1] == year and (media is None or k[0] == media))
            if count == 0:
                continue
            awm = sum(c for k, c in acc.articles_with_mention.items() if k[1] == year and (media is None or k[0] == media))
            per_year[year] = TrendRow(year, label, count, awm, pct(awm, count))
        return per_year

    overall = rows_for(None, "all")
    combined: list[TrendRow] = []
    for media in [mt.value for mt in MediaType] + ["all"]:
        rows = overall if media == "all" else rows_for(media, media)
        combined.extend(rows[year] for year in sorted(rows))
    combined.sort(key=lambda r: (r.year, r.media_type))
    return TrendReport(rows=tuple(overall[y] for y in sorted(overall)), by_media=tuple(combined))


# --- direct quotes vs social-media sources ---


@dataclass(frozen=True)
class RatioRow:
    media_type: str
    direct_quote_total: int
    avg_quotes_per_article: float
    sm_source_total: int
    ratio: Optional[float]  # direct quotes per one social-media source
    ratio_label: str  # "1:<ratio>" or "undefined"


@dataclass(frozen=True)
class RatioReport:
    rows: dict  # media value -> RatioRow


def ratio_report(acc: StatsAccumulator) -> RatioReport:
    rows: dict = {}
    for mt in MediaType:
        quotes = _sum_where(acc.direct_quotes, mt.value)
        articles = _sum_where(acc.article_count, mt.value)
        sources = _sum_where(acc.mentions, mt.value)
        ratio = (quotes / sources) if sources else None
        rows[mt.value] = RatioRow(
            media_type=mt.value,
            direct_quote_total=quotes,
            avg_quotes_per_article=(quotes / articles) if articles else 0.0,
            sm_source_total=sources,
            ratio=ratio,
            ratio_label=f"1:{fmt2(ratio)}" if ratio is not None else "undefined",
        )
    return RatioReport(rows=rows)


# --- topic tables ---


@dataclass(frozen=True)
class TopicRow:
    media_type: str
    topic: str
    article_count: int
    articles_with_mention: int
    percentage: float


@dataclass(frozen=True)
class TopicKindRow:
    topic: str
    media_type: str
    articles_with_mention: int
    kinds: dict  # Kind -> count
    kind_pct: dict  # Kind -> percent of this media/topic's sources


@dataclass(frozen=True)
class TopicReport:
    top_rows: tuple  # of TopicRow, per media, rank order
    union_topics: tuple  # topics covered by the kind table
    kind_rows: tuple  # of TopicKindRow


def topic_report(acc: StatsAccumulator, k: int) -> TopicReport:
    if k < 1:
        raise ValueError("k must be >= 1")

    def topic_counts(counter: Counter, media: str) -> Counter:
        out: Counter = Counter()
        for key, count in counter.items():
            if key[0] == media and key[2] is not None:
                out[key[2]] += count
        return out

    top_rows: list[TopicRow] = []
    union: set[str] = set()
    for mt in MediaType:
        articles = topic_counts(acc.article_count, mt.value)
        with_mention = topic_counts(acc.articles_with_mention, mt.value)
        ranked = sorted(articles.items(), key=lambda item: (-item[1], item[0]))[:k]
        for topic, count in ranked:
            union.add(topic)
            awm = with_mention.get(topic, 0)
            top_rows.append(TopicRow(mt.value, topic, count, awm, pct(awm, count)))

    kind_rows: list[TopicKindRow] = []
    for topic in sorted(union):
        for mt in MediaType:
            kinds = {kind: 0 for kind in KIND_ORDER}
            for key, count in acc.mentions.items():
                if key[0] == mt.value and key[2] == topic:
                    kinds[Kind(key[4])] += count
            total = sum(kinds.values())
            awm = sum(
                c for key, c in acc.articles_with_mention.items()
                if key[0] == mt.value and key[2] == topic
            )
            kind_rows.append(
                TopicKindRow(
                    topic=topic,
                    media_type=mt.value,
                    articles_with_mention=awm,
                    kinds=kinds,
                    kind_pct={kind: pct(count, total) for kind, count in kinds.items()},
                )
            )

    return TopicReport(
        top_rows=tuple(top_rows), union_topics=tuple(sorted(union)), kind_rows=tuple(kind_rows)
    )


# --- topic labeling ---


class TopicLabeler(Protocol):
    def label(self, text: str) -> Optional[str]: ...


class LabelerError(RuntimeError):
    """Remote labeler failure after the configured number of attempts."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


# offline fallback over the seven analyzed topics
TOPIC_KEYWORDS = {
    "Arts & Entertainment": (
        "actor", "actress", "album", "celebrity", "concert", "film", "hollywood",
        "movie", "music", "premiere", "singer",
    ),
    "Health": (
        "cancer", "diet", "disease", "doctor", "flu", "hospital", "medical",
        "patient", "vaccine", "virus",
    ),
    "Law & Government": (
        "attorney", "court", "judge", "lawsuit", "legislation", "regulation",
        "ruling", "verdict",
    ),
    "People & Society": (
        "charity", "church", "community", "culture", "religion", "tradition",
        "volunteer", "wedding",
    ),
    "Politics": (
        "ballot", "campaign", "congress", "democrat", "election", "governor",
        "president", "republican", "senate", "senator", "vote",
    ),
    "Sensitive Subjects": (
        "assault", "murder", "racism", "shooting", "suicide", "terror",
        "violence",
    ),
    "Sports": (
        "championship", "coach", "league", "playoff", "quarterback", "season",
        "team", "touchdown", "tournament",
    ),
}

_KEYWORD_RE = {
    topic: tuple(re.compile(r"(?<!\w)" + re.escape(kw) + r"(?!\w)", re.IGNORECASE) for kw in kws)
    for topic, kws in TOPIC_KEYWORDS.items()
}


class KeywordTopicLabeler:
    """Offline fallback: most distinct keyword hits wins, ties lexicographic."""

    def label(self, text: str) -> Optional[str]:
        best_topic = None
        best_hits = 0
        for topic in sorted(_KEYWORD_RE):
            hits = sum(1 for rx in _KEYWORD_RE[topic] if rx.search(text))
            if hits > best_hits:
                best_topic, best_hits = topic, hits
        return best_topic


class RemoteTopicLabeler:
    """HTTP client: POST the article text, the response body is the label."""

    def __init__(self, url: str, token: Optional[str] = None, retries: int = 3, timeout: float = 10.0):
        self.url = url
        self.token = token
        self.retries = retries
        self.timeout = timeout

    def label(self, text: str) -> Optional[str]:
        headers = {"Content-Type": "text/plain; charset=utf-8"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Optional[Exception] = None
        attempt = 0
        for attempt in range(1, self.retries + 1):
            request = urllib.request.Request(
                self.url, data=text.encode("utf-8"), headers=headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = response.read().decode("utf-8").strip()
                    return body or None
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
                if isinstance(exc, urllib.error.HTTPError) and exc.code < 500:
                    break  # the server refused the request; sending it again will not help
        raise LabelerError(f"remote labeler at {self.url} failed: {last_error}", attempt)


def label_topic(article: Article, labeler: Optional[TopicLabeler] = None) -> Optional[str]:
    """The article's preset topic, else the labeler's verdict, else None."""
    if article.topic:
        return article.topic
    if labeler is None:
        return None
    return labeler.label(article.headline + "\n" + article.body)


# --- report writers ---


def write_media_csv(report: MediaReport, path) -> None:
    columns = [
        "media_type", "total_articles", "articles_with_mention", "articles_with_mention_pct",
    ]
    for platform in Platform:
        p = platform.value
        columns += [
            f"{p}_articles",
            f"{p}_quotation", f"{p}_quotation_pct",
            f"{p}_paraphrase", f"{p}_paraphrase_pct",
            f"{p}_embedding", f"{p}_embedding_pct",
            f"{p}_total", f"{p}_share_pct",
        ]
    columns += ["total_sources", "sources_per_article"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in list(report.rows.values()) + [report.overall]:
            cells = [
                row.media_type,
                str(row.total_articles),
                str(row.articles_with_mention),
                fmt2(row.articles_with_mention_pct),
            ]
            for platform in Platform:
                stats = row.platforms[platform.value]
                cells.append(str(stats.articles))
                for kind in KIND_ORDER:
                    cells.append(str(stats.kinds[kind]))
                    cells.append(fmt2(stats.kind_pct[kind]))
                cells.append(str(stats.total))
                cells.append(fmt2(stats.share_pct))
            cells.append(str(row.total_sources))
            cells.append(fmt2(row.sources_per_article))
            fh.write(",".join(cells) + "\n")


def write_ratio_csv(report: RatioReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("media_type,direct_quote_total,avg_quotes_per_article,sm_source_total,ratio\n")
        for row in report.rows.values():
            fh.write(
                f"{row.media_type},{row.direct_quote_total},{fmt2(row.avg_quotes_per_article)},"
                f"{row.sm_source_total},{row.ratio_label}\n"
            )


def write_topic_csvs(report: TopicReport, top_path, kinds_path) -> None:
    with open(top_path, "w", encoding="utf-8") as fh:
        fh.write("media_type,topic,article_count,articles_with_mention,percentage\n")
        for row in report.top_rows:
            fh.write(
                f"{row.media_type},\"{row.topic}\",{row.article_count},"
                f"{row.articles_with_mention},{fmt2(row.percentage)}\n"
            )
    with open(kinds_path, "w", encoding="utf-8") as fh:
        fh.write(
            "topic,media_type,articles_with_mention,"
            "quotation,quotation_pct,paraphrase,paraphrase_pct,embedding,embedding_pct\n"
        )
        for row in report.kind_rows:
            cells = [f"\"{row.topic}\"", row.media_type, str(row.articles_with_mention)]
            for kind in KIND_ORDER:
                cells.append(str(row.kinds[kind]))
                cells.append(fmt2(row.kind_pct[kind]))
            fh.write(",".join(cells) + "\n")


def write_trend_tsv(report: TrendReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in report.by_media:
            fh.write(f"{row.year}\t{row.media_type}\t{fmt2(row.percentage)}\n")


def summary_object(
    media: MediaReport, trend: TrendReport, ratio: RatioReport, topics: TopicReport
) -> dict:
    """Machine-readable roll-up of all report tables, raw counts included."""

    def platform_obj(stats: PlatformStats) -> dict:
        return {
            "articles": stats.articles,
            "kinds": {kind.value: stats.kinds[kind] for kind in KIND_ORDER},
            "kind_pct": {kind.value: round2(stats.kind_pct[kind]) for kind in KIND_ORDER},
            "total": stats.total,
            "share_pct": round2(stats.share_pct),
        }

    def media_obj(row: MediaRow) -> dict:
        return {
            "total_articles": row.total_articles,
            "articles_with_mention": row.articles_with_mention,
            "articles_with_mention_pct": round2(row.articles_with_mention_pct),
            "platforms": {p: platform_obj(stats) for p, stats in row.platforms.items()},
            "total_sources": row.total_sources,
            "sources_per_article": round2(row.sources_per_article),
        }

    return {
        "media": {name: media_obj(row) for name, row in media.rows.items()},
        "overall": media_obj(media.overall),
        "trend": [
            {
                "year": row.year,
                "media_type": row.media_type,
                "article_count": row.article_count,
                "articles_with_mention": row.articles_with_mention,
                "percentage": round2(row.percentage),
            }
            for row in trend.by_media
        ],
        "ratio": {
            name: {
                "direct_quote_total": row.direct_quote_total,
                "avg_quotes_per_article": round2(row.avg_quotes_per_article),
                "sm_source_total": row.sm_source_total,
                "ratio": row.ratio_label,
            }
            for name, row in ratio.rows.items()
        },
        "topics": {
            "top": [
                {
                    "media_type": row.media_type,
                    "topic": row.topic,
                    "article_count": row.article_count,
                    "articles_with_mention": row.articles_with_mention,
                    "percentage": round2(row.percentage),
                }
                for row in topics.top_rows
            ],
            "kinds": [
                {
                    "topic": row.topic,
                    "media_type": row.media_type,
                    "articles_with_mention": row.articles_with_mention,
                    "kinds": {kind.value: row.kinds[kind] for kind in KIND_ORDER},
                    "kind_pct": {kind.value: round2(row.kind_pct[kind]) for kind in KIND_ORDER},
                }
                for row in topics.kind_rows
            ],
        },
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
