"""Acceptance gate: one test per criterion, each echoing a PASS/FAIL line.

Tolerances are pinned at 0.01 percentage points unless a criterion states
otherwise. The lines collected here are printed in a terminal summary
section after the run (see conftest.pytest_terminal_summary).
"""

import os
import random
import time
from contextlib import contextmanager
from datetime import date

import pytest

import conftest
from conftest import GOLDEN_CORPUS, GOLDEN_GOLD, random_body
from test_analytics import (
    paper_media_accumulator,
    paper_topic_accumulator,
    trend_accumulator,
)
from test_extractor import naive_extract

from sourcescope.analytics import (
    StatsAccumulator,
    media_report,
    ratio_report,
    topic_report,
    trend_report,
    write_trend_tsv,
)
from sourcescope.corpus import Article, Corpus, MediaType, ingest
from sourcescope.evaluator import (
    GoldAnnotation,
    KIND_ORDER,
    compare,
    f1_transposition_note,
    load_gold,
    metrics,
)
from sourcescope.extractor import Kind, extract_corpus, write_mentions
from sourcescope.patterns import Platform, contains_quote_signs, default_patterns
from sourcescope.segmenter import segment

PP = 0.01  # percentage-point tolerance


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        conftest.ACCEPTANCE_LINES.append(f"[FAIL] criterion {number}: {label}")
        print(f"[FAIL] criterion {number}: {label}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"[PASS] criterion {number}: {label}")
    print(f"[PASS] criterion {number}: {label}")


def _reconstruction_counts():
    """Gold 60/63/270, predicted 49/53/270, correct 44/50/270."""
    gold_sizes = {Kind.QUOTATION: 60, Kind.PARAPHRASE: 63, Kind.EMBEDDING: 270}
    pred_sizes = {Kind.QUOTATION: 49, Kind.PARAPHRASE: 53, Kind.EMBEDDING: 270}
    correct = {Kind.QUOTATION: 44, Kind.PARAPHRASE: 50, Kind.EMBEDDING: 270}

    golds, predicted = [], []
    for kind in KIND_ORDER:
        tag = kind.value[0]
        for i in range(gold_sizes[kind]):
            golds.append(GoldAnnotation(f"{tag}-gold-{i}", 0, Platform.TWITTER, kind))
        for i in range(correct[kind]):
            predicted.append(_pred(f"{tag}-gold-{i}", kind))
        for i in range(pred_sizes[kind] - correct[kind]):
            predicted.append(_pred(f"{tag}-extra-{i}", kind))
    return compare(predicted, golds)


def _pred(article_id, kind):
    from sourcescope.extractor import SourceMention

    pattern_id = None if kind == Kind.EMBEDDING else "p"
    return SourceMention(article_id, 0, Platform.TWITTER, kind, pattern_id, 0, 1)


def test_criterion_1_table1_reproduction():
    with criterion(1, "Table 1 evaluator reproduction within 0.01 pp"):
        report = metrics(_reconstruction_counts())
        expected = {
            Kind.QUOTATION: (89.80, 73.33, 80.73),
            Kind.PARAPHRASE: (94.34, 79.37, 86.21),
            Kind.EMBEDDING: (100.00, 100.00, 100.00),
        }
        for kind, (p, r, f1) in expected.items():
            row = report.per_kind[kind]
            assert row.precision == pytest.approx(p, abs=PP)
            assert row.recall == pytest.approx(r, abs=PP)
            assert row.f1 == pytest.approx(f1, abs=PP)
        assert report.macro.precision == pytest.approx(94.71, abs=PP)
        assert report.macro.recall == pytest.approx(84.23, abs=PP)
        assert report.micro.precision == pytest.approx(97.85, abs=PP)
        assert report.micro.recall == pytest.approx(92.62, abs=PP)
        assert report.micro.f1 == pytest.approx(95.16, abs=PP)
        note = f1_transposition_note(report)
        assert note and "transpos" in note.lower()


def test_criterion_2_media_topic_ratio_arithmetic():
    with criterion(2, "media/ratio/topic table arithmetic within 0.01 pp"):
        media = media_report(paper_media_accumulator())
        main = media.rows[MediaType.MAINSTREAM.value]
        unrel = media.rows[MediaType.UNRELIABLE.value]
        tw, fb = Platform.TWITTER.value, Platform.FACEBOOK.value
        assert main.platforms[tw].share_pct == pytest.approx(89.71, abs=PP)
        assert main.platforms[fb].share_pct == pytest.approx(10.29, abs=PP)
        assert media.overall.total_articles == 59356
        assert media.overall.articles_with_mention_pct == pytest.approx(9.15, abs=PP)
        assert main.sources_per_article == pytest.approx(2.12, abs=PP)
        assert unrel.sources_per_article == pytest.approx(3.61, abs=PP)

        ratio = ratio_report(paper_media_accumulator())
        assert ratio.rows[MediaType.MAINSTREAM.value].ratio_label == "1:48.00"
        assert ratio.rows[MediaType.UNRELIABLE.value].ratio_label == "1:14.89"

        topics = topic_report(paper_topic_accumulator(), 5)
        politics_m = next(
            r for r in topics.top_rows
            if r.media_type == MediaType.MAINSTREAM.value and r.topic == "Politics"
        )
        assert politics_m.percentage == pytest.approx(15.45, abs=PP)
        politics_u = next(
            r for r in topics.kind_rows
            if r.media_type == MediaType.UNRELIABLE.value and r.topic == "Politics"
        )
        assert politics_u.kind_pct[Kind.EMBEDDING] == pytest.approx(80.71, abs=PP)


def test_criterion_3_trend_reproduction(tmp_path):
    with criterion(3, "yearly trend endpoints 3.85% and 15.05%"):
        report = trend_report(trend_accumulator())
        by_year = {row.year: row.percentage for row in report.rows}
        assert by_year[2013] == pytest.approx(3.85, abs=PP)
        assert by_year[2017] == pytest.approx(15.05, abs=PP)

        path = tmp_path / "trend.tsv"
        write_trend_tsv(report, path)
        overall = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            year, media, pct = line.split("\t")
            if media == "all":
                overall[int(year)] = float(pct)
        assert overall[2017] > overall[2013]


def test_criterion_4_golden_suite(pattern_set):
    with criterion(4, "hand-annotated golden corpus classified at 100% agreement"):
        corpus = ingest(GOLDEN_CORPUS)
        assert len(corpus) >= 30
        results = extract_corpus(corpus, pattern_set)
        predicted = {
            (m.article_id, m.sentence_index, m.platform, m.kind)
            for r in results
            for m in r.mentions
        }
        gold = {
            (g.article_id, g.sentence_index, g.platform, g.kind)
            for g in load_gold(GOLDEN_GOLD)
        }
        assert predicted == gold
        assert {g[3] for g in gold} == set(Kind)
        assert {g[2] for g in gold} == set(Platform)


def test_criterion_5_property_suites(pattern_set, tmp_path):
    with criterion(5, "invariant and oracle property suites"):
        rng = random.Random(2024)

        # segmentation: spans ordered, trimmed, and covering all non-whitespace
        for _ in range(40):
            body = random_body(rng)
            spans = segment(body)
            covered = set()
            last_end = -1
            for span in spans:
                assert span.start > last_end or last_end == -1
                assert span.start <= span.end
                assert not body[span.start:span.end][:1].isspace()
                covered.update(range(span.start, span.end))
                last_end = span.end
            for i, ch in enumerate(body):
                if not ch.isspace():
                    assert i in covered

        # classifier invariants on a random corpus
        corpus = conftest.random_corpus(rng, 60)
        results = extract_corpus(corpus, pattern_set)
        index = {a.id: a for a in corpus}
        for result in results:
            body = index[result.article_id].body
            spans = {s.index: s for s in segment(body)}
            embedded = set()
            for m in result.mentions:
                if m.kind == Kind.EMBEDDING:
                    assert m.platform == Platform.TWITTER
                    embedded.add(m.sentence_index)
            for m in result.mentions:
                sentence = body[spans[m.sentence_index].start:spans[m.sentence_index].end]
                if m.platform == Platform.TWITTER and m.kind != Kind.EMBEDDING:
                    assert m.sentence_index not in embedded
                if m.kind == Kind.QUOTATION:
                    assert contains_quote_signs(sentence)
                if m.kind == Kind.PARAPHRASE:
                    assert not contains_quote_signs(sentence)

        # accumulator merge is commutative and associative
        def random_acc():
            acc = StatsAccumulator()
            for _ in range(rng.randint(1, 15)):
                key = ("mainstream", rng.randint(2013, 2017), None)
                acc.article_count[key] += rng.randint(1, 4)
                acc.direct_quotes[key] += rng.randint(0, 9)
            return acc

        for _ in range(15):
            a, b, c = random_acc(), random_acc(), random_acc()
            assert a.merge(b) == b.merge(a)
            assert a.merge(b.merge(c)) == a.merge(b).merge(c)

        # 1 vs 8 workers produce byte-identical mention files
        one = tmp_path / "one.jsonl"
        eight = tmp_path / "eight.jsonl"
        write_mentions(extract_corpus(corpus, pattern_set, workers=1), one)
        write_mentions(extract_corpus(corpus, pattern_set, workers=8), eight)
        assert one.read_bytes() == eight.read_bytes()

        # oracle equivalence against the brute-force reference (<= 50 articles)
        small = conftest.random_corpus(random.Random(77), 50)
        for result in extract_corpus(small, pattern_set):
            assert result.mentions == naive_extract(index_of(small, result.article_id), pattern_set)


def index_of(corpus, article_id):
    return {a.id: a for a in corpus}[article_id]


def _throughput_corpus(n_articles):
    rng = random.Random(8)
    bodies = []
    for _ in range(200):
        parts = []
        size = 0
        while size < 1500:
            sentence = (
                rng.choice(conftest._SPECIAL_SENTENCES)
                if rng.random() < 0.1
                else conftest.random_sentence(rng)
            )
            parts.append(sentence)
            size += len(sentence) + 1
        bodies.append(" ".join(parts))
    articles = tuple(
        Article(
            id=f"t{i:05d}",
            outlet="o",
            media_type=MediaType.MAINSTREAM,
            published_at=date(2016, 1, 1),
            headline="h",
            body=bodies[i % len(bodies)],
        )
        for i in range(n_articles)
    )
    return Corpus(articles=articles, source_path="synthetic")


def test_criterion_6_throughput(pattern_set):
    with criterion(6, "59,356-article extract in <= 60 s with parallel parity"):
        corpus = _throughput_corpus(59356)

        start = time.perf_counter()
        serial = extract_corpus(corpus, pattern_set, workers=1)
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"single-threaded extract took {elapsed:.1f}s"

        start = time.perf_counter()
        parallel = extract_corpus(corpus, pattern_set, workers=4)
        parallel_elapsed = time.perf_counter() - start
        assert parallel == serial
        if (os.cpu_count() or 1) >= 4:
            # near-linear scaling; allow generous process-pool overhead
            assert parallel_elapsed <= elapsed / 2
