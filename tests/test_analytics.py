import http.server
import pickle
import random
import re
import threading
import time
from collections import Counter
from datetime import date

import pytest

from conftest import random_corpus

from sourcescope._fmt import fmt2, round2
from sourcescope.analytics import (
    TOPIC_KEYWORDS,
    KeywordTopicLabeler,
    LabelerError,
    MediaReport,
    MediaRow,
    PlatformStats,
    RatioReport,
    RatioRow,
    RemoteTopicLabeler,
    StatsAccumulator,
    TopicKindRow,
    TopicReport,
    TopicRow,
    TrendReport,
    TrendRow,
    accumulate,
    label_topic,
    media_report,
    ratio_report,
    summary_object,
    topic_report,
    trend_report,
    write_trend_tsv,
)
from sourcescope.corpus import Article, MediaType
from sourcescope.extractor import ExtractionResult, Kind, SourceMention, extract_corpus
from sourcescope.patterns import Platform, default_patterns

M, U = MediaType.MAINSTREAM.value, MediaType.UNRELIABLE.value
Q, P, E = Kind.QUOTATION.value, Kind.PARAPHRASE.value, Kind.EMBEDDING.value
TW, FB = Platform.TWITTER.value, Platform.FACEBOOK.value


def article(i, media=MediaType.MAINSTREAM, year=2015, topic=None, body=""):
    return Article(
        id=f"a{i}",
        outlet="o",
        media_type=media,
        published_at=date(year, 6, 1),
        headline="h",
        body=body,
        topic=topic,
    )


def result(article_id, mentions=(), quotes=0):
    return ExtractionResult(article_id, tuple(mentions), sentences=((0, 1),), direct_quote_count=quotes)


def twitter_mention(article_id, sent, kind):
    return SourceMention(article_id, sent, Platform.TWITTER, kind, None if kind == Kind.EMBEDDING else "p", 0, 1)


class CountingLabeler:
    """Labels every text with one topic and keeps the texts it was asked about."""

    def __init__(self, topic):
        self.topic = topic
        self.texts = []

    def label(self, text):
        self.texts.append(text)
        return self.topic


class TestAccumulate:
    def test_no_results_all_zero(self):
        acc = accumulate([])
        assert not acc.articles_with_mention and not acc.mentions

    def test_article_level_dedup(self):
        mentions = [twitter_mention("a1", i, Kind.EMBEDDING) for i in range(3)]
        acc = accumulate([(article(1), result("a1", mentions))])
        key = (M, 2015, None)
        assert acc.mentions[key + (TW, E)] == 3
        assert acc.articles_with_mention[key] == 1
        assert acc.platform_articles[key + (TW,)] == 1

    def test_partial_streams_merge_equals_single_pass(self):
        pairs = [
            (article(i), result(f"a{i}", [twitter_mention(f"a{i}", 0, Kind.PARAPHRASE)], quotes=i))
            for i in range(6)
        ]
        single = accumulate(pairs)
        first = accumulate(pairs[:3])
        second = accumulate(pairs[3:])
        assert first.merge(second) == single

    def test_topics_override(self):
        acc = accumulate([(article(1), result("a1"))], CountingLabeler("Sports"))
        assert acc.article_count[(M, 2015, "Sports")] == 1

    def test_labeler_called_once_per_article_without_a_topic(self):
        topics = (None, "Health", None, "")
        articles = tuple(article(i, topic=topic, body=f"b{i}") for i, topic in enumerate(topics))
        labeler = CountingLabeler("Sports")
        acc = accumulate([(a, result(a.id)) for a in articles], labeler)
        assert labeler.texts == ["h\nb0", "h\nb2", "h\nb3"]
        assert acc.article_count == Counter({(M, 2015, "Sports"): 3, (M, 2015, "Health"): 1})


class TestMergeProperties:
    def random_acc(self, rng):
        acc = StatsAccumulator()
        for _ in range(rng.randint(0, 20)):
            key = (rng.choice([M, U]), rng.randint(2013, 2017), rng.choice([None, "Politics"]))
            acc.article_count[key] += rng.randint(1, 5)
            acc.articles_with_mention[key] += rng.randint(0, 1)
            acc.direct_quotes[key] += rng.randint(0, 9)
            acc.mentions[key + (rng.choice([TW, FB]), rng.choice([Q, P, E]))] += rng.randint(1, 4)
        return acc

    def test_commutative_and_associative(self):
        rng = random.Random(99)
        for _ in range(25):
            a, b, c = (self.random_acc(rng) for _ in range(3))
            assert a.merge(b) == b.merge(a)
            assert a.merge(b.merge(c)) == a.merge(b).merge(c)


def paper_media_accumulator():
    """Accumulator holding the published media-breakdown raw counts."""
    acc = StatsAccumulator()
    key_m, key_u = (M, 2015, None), (U, 2015, None)
    acc.article_count[key_m] = 29656
    acc.article_count[key_u] = 29700
    acc.articles_with_mention[key_m] = 1982
    acc.articles_with_mention[key_u] = 3448
    for key, tw_counts, fb_counts, tw_articles, fb_articles in (
        (key_m, (1065, 866, 1843), (228, 205), 1654, 377),
        (key_u, (1137, 1130, 9814), (178, 177), 3170, 324),
    ):
        for kind, count in zip((Q, P, E), tw_counts):
            acc.mentions[key + (TW, kind)] = count
        for kind, count in zip((Q, P), fb_counts):
            acc.mentions[key + (FB, kind)] = count
        acc.platform_articles[key + (TW,)] = tw_articles
        acc.platform_articles[key + (FB,)] = fb_articles
    acc.direct_quotes[key_m] = 201924
    acc.direct_quotes[key_u] = 185182
    return acc


class TestMediaReport:
    def test_mainstream_twitter_kind_percentages(self):
        report = media_report(paper_media_accumulator())
        stats = report.rows[M].platforms[TW]
        assert stats.kind_pct[Kind.QUOTATION] == pytest.approx(28.22, abs=0.005)
        assert stats.kind_pct[Kind.PARAPHRASE] == pytest.approx(22.95, abs=0.005)
        assert stats.kind_pct[Kind.EMBEDDING] == pytest.approx(48.83, abs=0.005)
        assert stats.total == 3774

    def test_platform_shares(self):
        report = media_report(paper_media_accumulator())
        row = report.rows[M]
        assert row.platforms[TW].share_pct == pytest.approx(89.71, abs=0.005)
        assert row.platforms[FB].share_pct == pytest.approx(10.29, abs=0.005)
        assert row.platforms[FB].total == 433

    def test_sources_per_article(self):
        report = media_report(paper_media_accumulator())
        assert report.rows[M].sources_per_article == pytest.approx(2.12, abs=0.005)
        assert report.rows[U].sources_per_article == pytest.approx(3.61, abs=0.005)

    def test_overall_share_of_articles(self):
        report = media_report(paper_media_accumulator())
        assert report.overall.total_articles == 59356
        assert report.overall.articles_with_mention == 5430
        assert report.overall.articles_with_mention_pct == pytest.approx(9.15, abs=0.005)
        assert report.overall.total_sources == 16643

    def test_kind_percentages_sum_to_100(self):
        report = media_report(paper_media_accumulator())
        for row in report.rows.values():
            for stats in row.platforms.values():
                if stats.total:
                    assert sum(stats.kind_pct.values()) == pytest.approx(100.0, abs=1e-6)
            assert sum(s.share_pct for s in row.platforms.values()) == pytest.approx(100.0, abs=1e-6)


def trend_accumulator():
    acc = StatsAccumulator()
    data = {2013: (7176, 276), 2014: (10725, 700), 2015: (14585, 1100), 2016: (12694, 1220), 2017: (14176, 2134)}
    for year, (count, awm) in data.items():
        acc.article_count[(M, year, None)] = count
        acc.articles_with_mention[(M, year, None)] = awm
    return acc


class TestTrendReport:
    def test_endpoints(self):
        report = trend_report(trend_accumulator())
        by_year = {row.year: row for row in report.rows}
        assert by_year[2013].percentage == pytest.approx(3.85, abs=0.005)
        assert by_year[2017].percentage == pytest.approx(15.05, abs=0.005)

    def test_years_sorted_and_zero_years_absent(self):
        report = trend_report(trend_accumulator())
        years = [row.year for row in report.rows]
        assert years == sorted(years) == [2013, 2014, 2015, 2016, 2017]

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "trend.tsv"
        write_trend_tsv(trend_report(trend_accumulator()), path)
        lines = [line.split("\t") for line in path.read_text().splitlines()]
        assert all(len(cells) == 3 for cells in lines)
        overall = {int(y): float(p) for y, m, p in lines if m == "all"}
        assert overall[2013] == 3.85 and overall[2017] == 15.05


class TestRatioReport:
    def test_published_ratios(self):
        report = ratio_report(paper_media_accumulator())
        main, unrel = report.rows[M], report.rows[U]
        assert main.avg_quotes_per_article == pytest.approx(6.81, abs=0.005)
        assert main.ratio_label == "1:48.00"
        assert unrel.ratio_label == "1:14.89"
        # printed 6.23 was truncated; half-up rounding gives 6.24, within 0.01
        assert unrel.avg_quotes_per_article == pytest.approx(6.23, abs=0.011)

    def test_zero_source_guard(self):
        acc = StatsAccumulator()
        acc.article_count[(M, 2015, None)] = 10
        acc.direct_quotes[(M, 2015, None)] = 100
        report = ratio_report(acc)
        row = report.rows[M]
        assert row.avg_quotes_per_article == pytest.approx(10.0)
        assert row.ratio is None and row.ratio_label == "undefined"


def paper_topic_accumulator():
    acc = StatsAccumulator()
    top = {
        M: [("Arts & Entertainment", 5943, 491), ("Sensitive Subjects", 3391, 300),
            ("Law & Government", 2793, 112), ("Sports", 2592, 213), ("Politics", 2389, 369)],
        U: [("Politics", 7104, 1711), ("Sensitive Subjects", 3790, 484),
            ("People & Society", 2889, 171), ("Law & Government", 2835, 228), ("Health", 2546, 51)],
    }
    for media, rows in top.items():
        for topic, count, awm in rows:
            acc.article_count[(media, 2015, topic)] = count
            acc.articles_with_mention[(media, 2015, topic)] = awm
    kinds = {
        (M, "Politics"): (377, 238, 175),
        (U, "Politics"): (665, 648, 5495),
        (M, "Sports"): (97, 380, 92),
        (U, "Health"): (21, 26, 66),
    }
    for (media, topic), (q, p, e) in kinds.items():
        acc.mentions[(media, 2015, topic, TW, Q)] = q
        acc.mentions[(media, 2015, topic, TW, P)] = p
        acc.mentions[(media, 2015, topic, TW, E)] = e
    return acc


class TestTopicReport:
    def test_mainstream_politics_percentage(self):
        report = topic_report(paper_topic_accumulator(), 5)
        row = next(r for r in report.top_rows if r.media_type == M and r.topic == "Politics")
        assert row.article_count == 2389
        assert row.percentage == pytest.approx(15.45, abs=0.005)

    def test_unreliable_politics_kind_distribution(self):
        report = topic_report(paper_topic_accumulator(), 5)
        row = next(r for r in report.kind_rows if r.media_type == U and r.topic == "Politics")
        assert row.kind_pct[Kind.QUOTATION] == pytest.approx(9.77, abs=0.005)
        assert row.kind_pct[Kind.PARAPHRASE] == pytest.approx(9.52, abs=0.005)
        assert row.kind_pct[Kind.EMBEDDING] == pytest.approx(80.71, abs=0.005)

    def test_rank_order_and_union(self):
        report = topic_report(paper_topic_accumulator(), 5)
        mainstream = [r.topic for r in report.top_rows if r.media_type == M]
        assert mainstream == [
            "Arts & Entertainment", "Sensitive Subjects", "Law & Government", "Sports", "Politics",
        ]
        assert set(report.union_topics) == {
            "Arts & Entertainment", "Sensitive Subjects", "Law & Government", "Sports",
            "Politics", "People & Society", "Health",
        }

    def test_unlabeled_topics_excluded(self):
        acc = StatsAccumulator()
        acc.article_count[(M, 2015, None)] = 100
        report = topic_report(acc, 5)
        assert report.top_rows == ()

    def test_k_validated(self):
        with pytest.raises(ValueError):
            topic_report(StatsAccumulator(), 0)


class TestPercentagesRecomputable:
    def test_every_percentage_matches_its_counters(self, pattern_set):
        corpus = random_corpus(random.Random(4), 40)
        results = extract_corpus(corpus, pattern_set)
        acc = accumulate(zip(corpus, results))
        report = media_report(acc)
        for row in report.rows.values():
            if row.total_articles:
                assert row.articles_with_mention_pct == pytest.approx(
                    100 * row.articles_with_mention / row.total_articles
                )
        # brute-force article-with-mention count
        by_id = {r.article_id: r for r in results}
        expected = sum(1 for a in corpus.articles if by_id[a.id].mentions)
        assert report.overall.articles_with_mention == expected


class TestLabelers:
    def test_preset_passthrough(self):
        art = article(1, topic="Politics")
        assert label_topic(art, KeywordTopicLabeler()) == "Politics"

    def test_keyword_fallback_politics(self):
        art = article(1, body="The senate election gripped congress this fall.")
        assert label_topic(art, KeywordTopicLabeler()) == "Politics"

    def test_gibberish_absent(self):
        art = article(1, body="zxqv blorp wug mimsy borogove")
        assert label_topic(art, KeywordTopicLabeler()) is None

    def test_no_labeler_absent(self):
        assert label_topic(article(1, body="the senate met")) is None

    def test_remote_labeler_roundtrip(self):
        received = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received["body"] = self.rfile.read(length).decode("utf-8")
                received["auth"] = self.headers.get("Authorization")
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b"Politics\n")

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/label"
            labeler = RemoteTopicLabeler(url, token="sekrit")
            art = article(1, body="the senate met")
            assert label_topic(art, labeler) == "Politics"
            assert "senate" in received["body"]
            assert received["auth"] == "Bearer sekrit"
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "status, retries, attempts, sleeps",
        [(401, 3, 1, []), (503, 3, 3, [0.5, 1.0]), (503, 6, 6, [0.5, 1.0, 2.0, 4.0, 4.0])],
        ids=["401-1", "503-3", "503-6"],
    )
    def test_remote_labeler_retries_only_server_errors(
        self, monkeypatch, status, retries, attempts, sleeps
    ):
        requests, slept = [], []
        monkeypatch.setattr(time, "sleep", slept.append)

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                requests.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.send_response(status)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            labeler = RemoteTopicLabeler(f"http://127.0.0.1:{server.server_port}/label", retries=retries)
            with pytest.raises(LabelerError) as exc:
                labeler.label("text")
        finally:
            server.shutdown()
            server.server_close()
        assert len(requests) == attempts
        assert exc.value.attempts == attempts
        assert str(status) in str(exc.value)
        assert slept == sleeps

    def test_remote_labeler_failure_carries_attempts(self):
        labeler = RemoteTopicLabeler("http://127.0.0.1:1/label", retries=2, timeout=0.2)
        with pytest.raises(LabelerError) as exc:
            labeler.label("text")
        assert exc.value.attempts == 2

    def test_labeler_error_survives_pickling(self):
        error = LabelerError("remote labeler failed", 2)
        copy = pickle.loads(pickle.dumps(error))
        assert str(copy) == str(error) == "remote labeler failed (after 2 attempts)"
        assert copy.attempts == 2


# one regex search per keyword, the direct reading of the labeling rule: the oracle
_ORACLE_KEYWORD_RE = {
    topic: tuple(re.compile(r"(?<!\w)" + re.escape(kw) + r"(?!\w)", re.IGNORECASE) for kw in kws)
    for topic, kws in TOPIC_KEYWORDS.items()
}


def oracle_label(text):
    best_topic, best_hits = None, 0
    for topic in sorted(_ORACLE_KEYWORD_RE):
        hits = sum(1 for rx in _ORACLE_KEYWORD_RE[topic] if rx.search(text))
        if hits > best_hits:
            best_topic, best_hits = topic, hits
    return best_topic


_ALL_KEYWORDS = [kw for kws in TOPIC_KEYWORDS.values() for kw in kws]
# letters that re.IGNORECASE folds onto an ASCII keyword letter but str.lower() does not
# (except the Kelvin sign, which lower() maps to "k")
_CASE_VARIANTS = {"i": "ıİ", "s": "ſ", "k": "\u212a"}
# word characters glue a neighbour onto the keyword; the rest leave it a word
_NEIGHBOURS = ("", " ", ".", ",", "-", "\n", "\u201c", "'", "_", "7", "é")


def random_keyword_text(rng):
    parts = []
    for _ in range(rng.randint(0, 8)):
        keyword = "".join(
            rng.choice(c + c.upper() + _CASE_VARIANTS.get(c, "")) if rng.random() < 0.3 else c
            for c in rng.choice(_ALL_KEYWORDS)
        )
        parts.append(rng.choice(_NEIGHBOURS) + keyword + rng.choice(_NEIGHBOURS))
    return "".join(parts)


class TestKeywordLabeler:
    def test_matches_per_keyword_regex_oracle(self):
        rng = random.Random(2024)
        labeler = KeywordTopicLabeler()
        labels = Counter()
        for _ in range(4000):
            text = random_keyword_text(rng)
            label = labeler.label(text)
            assert label == oracle_label(text), repr(text)
            labels[label, text.isascii()] += 1
        # every topic and no topic came up, from ASCII and from non-ASCII texts
        for topic in list(TOPIC_KEYWORDS) + [None]:
            assert labels[topic, True] and labels[topic, False], topic

    def test_matches_oracle_on_corpus_texts(self):
        corpus = random_corpus(random.Random(8), 200)
        labeler = KeywordTopicLabeler()
        for art in corpus.articles:
            text = art.headline + "\n" + art.body
            assert labeler.label(text) == oracle_label(text)

    @pytest.mark.parametrize(
        "text, topic",
        [
            ("The film went to court.", "Arts & Entertainment"),
            ("The court saw the film.", "Arts & Entertainment"),
            ("virus, Virus and VIRUS; then the election and the vote", "Politics"),
            ("filmé", None),
            ("film_", None),
            ("_film 2film film2", None),
            ("VIRUS", "Health"),
            ("v\u0131rus", "Health"),
            ("V\u0130RUS", "Health"),
            ("\u017fenator", "Politics"),
            ("quarterbac\u212a", "Sports"),
            ("", None),
        ],
        ids=[
            "tie-lexicographic", "tie-lexicographic-reversed", "repeated-keyword-counts-once",
            "letter-after", "underscore-after", "underscore-and-digits", "upper-case",
            "dotless-i", "dotted-capital-i", "long-s", "kelvin-sign", "empty",
        ],
    )
    def test_label(self, text, topic):
        assert KeywordTopicLabeler().label(text) == topic
        assert oracle_label(text) == topic


def random_report_accumulator(rng):
    """Counters over every key field: both media, 2013-2017, topics with None, all platforms and kinds."""
    acc = StatsAccumulator()
    topics = [None, "Politics", "Sports", "Health", "Law & Government", "Arts & Entertainment"]
    for _ in range(rng.randint(0, 60)):
        key = (rng.choice([M, U]), rng.randint(2013, 2017), rng.choice(topics))
        acc.article_count[key] += rng.randint(1, 9)
        acc.articles_with_mention[key] += rng.randint(0, 3)
        acc.direct_quotes[key] += rng.randint(0, 20)
        acc.platform_articles[key + (rng.choice([TW, FB]),)] += rng.randint(0, 3)
        acc.mentions[key + (rng.choice([TW, FB]), rng.choice([Q, P, E]))] += rng.randint(1, 4)
    return acc


def brute_sum(counter, **where):
    """Sum of the counts whose key fields equal `where`, found by scanning every key."""
    at = {"media": 0, "year": 1, "topic": 2, "platform": 3, "kind": 4}
    return sum(c for key, c in counter.items() if all(key[at[f]] == v for f, v in where.items()))


def brute_pct(numerator, denominator):
    return 100.0 * numerator / denominator if denominator else 0.0


class TestReportsMatchBruteForce:
    def expected_media_row(self, acc, media_type, **where):
        with_mention = brute_sum(acc.articles_with_mention, **where)
        total_articles = brute_sum(acc.article_count, **where)
        kinds = {
            p: {kind: brute_sum(acc.mentions, platform=p, kind=kind.value, **where) for kind in Kind}
            for p in (TW, FB)
        }
        total_sources = sum(sum(k.values()) for k in kinds.values())
        platforms = {
            p: PlatformStats(
                articles=brute_sum(acc.platform_articles, platform=p, **where),
                kinds=kinds[p],
                kind_pct={kind: brute_pct(n, sum(kinds[p].values())) for kind, n in kinds[p].items()},
                total=sum(kinds[p].values()),
                share_pct=brute_pct(sum(kinds[p].values()), total_sources),
            )
            for p in (TW, FB)
        }
        return MediaRow(
            media_type=media_type,
            total_articles=total_articles,
            articles_with_mention=with_mention,
            articles_with_mention_pct=brute_pct(with_mention, total_articles),
            platforms=platforms,
            total_sources=total_sources,
            sources_per_article=total_sources / with_mention if with_mention else 0.0,
        )

    def expected_trend(self, acc):
        rows = []
        for media_type in (M, U, "all"):
            where = {} if media_type == "all" else {"media": media_type}
            for year in {key[1] for key in acc.article_count}:
                count = brute_sum(acc.article_count, year=year, **where)
                awm = brute_sum(acc.articles_with_mention, year=year, **where)
                if count:
                    rows.append(TrendRow(year, media_type, count, awm, brute_pct(awm, count)))
        rows.sort(key=lambda r: (r.year, r.media_type))
        return TrendReport(rows=tuple(r for r in rows if r.media_type == "all"), by_media=tuple(rows))

    def expected_topics(self, acc, k):
        top_rows = []
        for media in (M, U):
            topics = {key[2] for key in acc.article_count if key[0] == media and key[2] is not None}
            counts = {t: brute_sum(acc.article_count, media=media, topic=t) for t in topics}
            for topic in sorted(topics, key=lambda t: (-counts[t], t))[:k]:
                awm = brute_sum(acc.articles_with_mention, media=media, topic=topic)
                top_rows.append(TopicRow(media, topic, counts[topic], awm, brute_pct(awm, counts[topic])))
        union = tuple(sorted({row.topic for row in top_rows}))
        kind_rows = []
        for topic in union:
            for media in (M, U):
                kinds = {kind: brute_sum(acc.mentions, media=media, topic=topic, kind=kind.value) for kind in Kind}
                kind_rows.append(
                    TopicKindRow(
                        topic=topic,
                        media_type=media,
                        articles_with_mention=brute_sum(acc.articles_with_mention, media=media, topic=topic),
                        kinds=kinds,
                        kind_pct={kind: brute_pct(n, sum(kinds.values())) for kind, n in kinds.items()},
                    )
                )
        return TopicReport(top_rows=tuple(top_rows), union_topics=union, kind_rows=tuple(kind_rows))

    def expected_ratio(self, acc):
        rows = {}
        for media in (M, U):
            quotes = brute_sum(acc.direct_quotes, media=media)
            articles = brute_sum(acc.article_count, media=media)
            sources = brute_sum(acc.mentions, media=media)
            ratio = quotes / sources if sources else None
            rows[media] = RatioRow(
                media_type=media,
                direct_quote_total=quotes,
                avg_quotes_per_article=quotes / articles if articles else 0.0,
                sm_source_total=sources,
                ratio=ratio,
                ratio_label=f"1:{fmt2(ratio)}" if sources else "undefined",
            )
        return RatioReport(rows=rows)

    def test_every_cell_matches_a_brute_force_sum(self):
        rng = random.Random(2024)
        for _ in range(40):
            acc = random_report_accumulator(rng)
            k = rng.randint(1, 6)
            assert media_report(acc) == MediaReport(
                rows={m: self.expected_media_row(acc, m, media=m) for m in (M, U)},
                overall=self.expected_media_row(acc, "all"),
            )
            assert trend_report(acc) == self.expected_trend(acc)
            assert ratio_report(acc) == self.expected_ratio(acc)
            assert topic_report(acc, k) == self.expected_topics(acc, k)


class TestSummaryObject:
    PLATFORM_KEYS = {"articles", "kinds", "kind_pct", "total", "share_pct"}
    MEDIA_KEYS = {
        "total_articles", "articles_with_mention", "articles_with_mention_pct",
        "platforms", "total_sources", "sources_per_article",
    }
    TREND_KEYS = {"year", "media_type", "article_count", "articles_with_mention", "percentage"}
    RATIO_KEYS = {"direct_quote_total", "avg_quotes_per_article", "sm_source_total", "ratio"}
    TOP_KEYS = {"media_type", "topic", "article_count", "articles_with_mention", "percentage"}
    KIND_ROW_KEYS = {"topic", "media_type", "articles_with_mention", "kinds", "kind_pct"}

    def summary(self, acc):
        media, ratio = media_report(acc), ratio_report(acc)
        return summary_object(media, trend_report(acc), ratio, topic_report(acc, 5)), ratio

    def floats(self, obj):
        if isinstance(obj, dict):
            for value in obj.values():
                yield from self.floats(value)
        elif isinstance(obj, list):
            for value in obj:
                yield from self.floats(value)
        elif isinstance(obj, float):
            yield obj

    @pytest.mark.parametrize(
        "make_acc", [paper_media_accumulator, trend_accumulator, paper_topic_accumulator],
        ids=["media", "trend", "topic"],
    )
    def test_layout(self, make_acc):
        summary, ratio = self.summary(make_acc())
        assert set(summary) == {"media", "overall", "trend", "ratio", "topics"}
        assert set(summary["media"]) == {M, U}
        for row in list(summary["media"].values()) + [summary["overall"]]:
            assert set(row) == self.MEDIA_KEYS
            assert set(row["platforms"]) == {TW, FB}
            for stats in row["platforms"].values():
                assert set(stats) == self.PLATFORM_KEYS
                assert set(stats["kinds"]) == set(stats["kind_pct"]) == {Q, P, E}
        assert all(set(row) == self.TREND_KEYS for row in summary["trend"])
        assert set(summary["ratio"]) == {M, U}
        for name, row in summary["ratio"].items():
            assert set(row) == self.RATIO_KEYS
            assert row["ratio"] == ratio.rows[name].ratio_label
        assert set(summary["topics"]) == {"top", "kinds"}
        assert all(set(row) == self.TOP_KEYS for row in summary["topics"]["top"])
        for row in summary["topics"]["kinds"]:
            assert set(row) == self.KIND_ROW_KEYS
            assert set(row["kinds"]) == set(row["kind_pct"]) == {Q, P, E}
        assert all(x == round2(x) for x in self.floats(summary))

    def test_published_values_rounded(self):
        media, _ = self.summary(paper_media_accumulator())
        assert media["overall"]["articles_with_mention_pct"] == 9.15
        assert media["media"][M]["platforms"][TW]["kind_pct"][E] == 48.83
        assert media["media"][M]["sources_per_article"] == 2.12
        assert media["ratio"][M] == {
            "direct_quote_total": 201924, "avg_quotes_per_article": 6.81,
            "sm_source_total": 4207, "ratio": "1:48.00",
        }
        trend, _ = self.summary(trend_accumulator())
        assert [(r["year"], r["media_type"], r["percentage"]) for r in trend["trend"]][:2] == [
            (2013, "all", 3.85), (2013, M, 3.85),
        ]
        assert trend["ratio"][U]["ratio"] == "undefined"
        topic, _ = self.summary(paper_topic_accumulator())
        politics = next(r for r in topic["topics"]["kinds"] if r["media_type"] == U and r["topic"] == "Politics")
        assert politics["kind_pct"] == {Q: 9.77, P: 9.52, E: 80.71}
        assert politics["kinds"] == {Q: 665, P: 648, E: 5495}

