import http.server
import random
import threading
from datetime import date

import pytest

from conftest import random_corpus

from sourcescope.analytics import (
    KeywordTopicLabeler,
    LabelerError,
    RemoteTopicLabeler,
    StatsAccumulator,
    accumulate,
    label_topic,
    media_report,
    ratio_report,
    topic_report,
    trend_report,
    write_trend_tsv,
)
from sourcescope.corpus import Article, Corpus, MediaType
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


class TestAccumulate:
    def test_no_results_all_zero(self):
        corpus = Corpus(articles=(), source_path="mem")
        acc = accumulate([], corpus)
        assert not acc.articles_with_mention and not acc.mentions

    def test_article_level_dedup(self):
        corpus = Corpus(articles=(article(1),), source_path="mem")
        mentions = [twitter_mention("a1", i, Kind.EMBEDDING) for i in range(3)]
        acc = accumulate([result("a1", mentions)], corpus)
        key = (M, 2015, None)
        assert acc.mentions[key + (TW, E)] == 3
        assert acc.articles_with_mention[key] == 1
        assert acc.platform_articles[key + (TW,)] == 1

    def test_unknown_article_id_errors(self):
        corpus = Corpus(articles=(article(1),), source_path="mem")
        with pytest.raises(ValueError, match="zz"):
            accumulate([result("zz")], corpus)

    def test_partial_streams_merge_equals_single_pass(self):
        articles = tuple(article(i) for i in range(6))
        results = [
            result(f"a{i}", [twitter_mention(f"a{i}", 0, Kind.PARAPHRASE)], quotes=i) for i in range(6)
        ]
        single = accumulate(results, Corpus(articles=articles, source_path="mem"))
        first = accumulate(results[:3], Corpus(articles=articles[:3], source_path="mem"))
        second = accumulate(results[3:], Corpus(articles=articles[3:], source_path="mem"))
        assert first.merge(second) == single

    def test_topics_override(self):
        corpus = Corpus(articles=(article(1),), source_path="mem")
        acc = accumulate([result("a1")], corpus, topics={"a1": "Sports"})
        assert acc.article_count[(M, 2015, "Sports")] == 1


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
        acc = accumulate(results, corpus)
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

    @pytest.mark.parametrize("status, attempts", [(401, 1), (503, 3)])
    def test_remote_labeler_retries_only_server_errors(self, status, attempts):
        requests = []

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
            labeler = RemoteTopicLabeler(f"http://127.0.0.1:{server.server_port}/label", retries=3)
            with pytest.raises(LabelerError) as exc:
                labeler.label("text")
        finally:
            server.shutdown()
            server.server_close()
        assert len(requests) == attempts
        assert exc.value.attempts == attempts
        assert str(status) in str(exc.value)

    def test_remote_labeler_failure_carries_attempts(self):
        labeler = RemoteTopicLabeler("http://127.0.0.1:1/label", retries=2, timeout=0.2)
        with pytest.raises(LabelerError) as exc:
            labeler.label("text")
        assert exc.value.attempts == 2


def test_validate_rejects_impossible_counts():
    acc = StatsAccumulator()
    acc.article_count[(M, 2015, None)] = 1
    acc.articles_with_mention[(M, 2015, None)] = 2
    with pytest.raises(ValueError):
        acc.validate()
