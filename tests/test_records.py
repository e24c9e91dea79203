"""The record types a run builds: immutable named tuples, and one plain class of counters.

Quote and sentence spans are plain (start, end) pairs, no records. The
per-article, pattern, mention and rejection records come first. Their field order is part of the output contract (a mention's
fields are its mentions.jsonl keys, in order), and pool workers started by
`spawn` or `forkserver` receive them pickled. The report records of evaluate and analyze
follow; analyze's workers send their StatsAccumulator back pickled.
"""

import json
import pickle
from collections import Counter
from copy import deepcopy
from datetime import date

import pytest

from sourcescope import analytics, cli, evaluator
from sourcescope.analytics import StatsAccumulator
from sourcescope.corpus import Article, CorpusReader, MediaType, Rejection
from sourcescope.extractor import ExtractionResult, SourceMention, extract_mentions
from sourcescope.patterns import CitationPattern, default_patterns, extract_quote_spans
from sourcescope.segmenter import segment

from conftest import GOLDEN_CORPUS, GOLDEN_GOLD, extract_all, read_articles

MENTION_KEYS = ("article_id", "sentence_index", "platform", "kind", "pattern_id", "span_start", "span_end")

ARTICLE = Article(
    id="a1",
    outlet="The Alpha Times",
    media_type=MediaType.MAINSTREAM,
    published_at=date(2016, 5, 4),
    headline="Quiet day",
    body='She tweeted that "the plan is ready". Officials said on Facebook that it was not.',
)


def _record(record_type, tmp_path):
    """One record of record_type, as a run builds it."""
    result = extract_mentions(ARTICLE, default_patterns(), sentences=True)
    assert len(result.mentions) == 2  # one of each platform
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("not json\n", encoding="utf-8")
    with CorpusReader(corpus, fail_fast=False) as reader:
        rejections = list(reader)
    records = [ARTICLE, default_patterns().patterns[0], result.mentions[0], result, *rejections]
    return next(record for record in records if type(record) is record_type)


RECORD_TYPES = (Article, CitationPattern, SourceMention, ExtractionResult, Rejection)


def test_mention_fields_are_the_mentions_jsonl_keys_in_order(tmp_path, capsys):
    assert cli.main(["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    lines = (tmp_path / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    assert {tuple(json.loads(line)) for line in lines} == {MENTION_KEYS}
    assert SourceMention._fields == MENTION_KEYS


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_a_record_refuses_attribute_assignment(record_type, tmp_path):
    record = _record(record_type, tmp_path)
    first_field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = "added"


def test_article_optional_fields_default_to_none():
    assert ARTICLE.topic is None and ARTICLE.url is None
    assert ARTICLE._fields[-2:] == ("topic", "url")


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_a_record_survives_a_pickle_round_trip(record_type, tmp_path):
    record = _record(record_type, tmp_path)
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is type(record)


def _spans(form):
    """ARTICLE's quote spans or sentence spans, as extract_mentions gets them."""
    quotes = extract_quote_spans(ARTICLE.body)
    return quotes if form == "quote" else segment(ARTICLE.body, quotes)


@pytest.mark.parametrize("form", ("quote", "sentence"))
def test_a_span_is_a_plain_pair_of_ints(form):
    spans = _spans(form)
    assert spans and type(spans) is list
    for span in spans:
        assert type(span) is tuple and len(span) == 2 and all(type(offset) is int for offset in span)
        assert 0 <= span[0] < span[1] <= len(ARTICLE.body)


def test_the_result_holds_the_segmenter_pairs_as_its_sentences():
    result = extract_mentions(ARTICLE, default_patterns(), sentences=True)
    assert type(result.sentences) is tuple and result.sentences == tuple(_spans("sentence"))
    assert pickle.loads(pickle.dumps(result)).sentences == result.sentences


# --- the report records of evaluate and analyze ---


def _golden_reports() -> tuple:
    """The golden corpus's filled accumulator and its reports, as evaluate and analyze --labeler keyword build them."""
    corpus = read_articles(GOLDEN_CORPUS)
    results = extract_all(corpus, default_patterns())
    counts = evaluator.compare((m for result in results for m in result.mentions), evaluator.load_gold(GOLDEN_GOLD))
    acc = analytics.accumulate(zip(corpus, results), analytics.KeywordTopicLabeler())
    reports = (evaluator.metrics(counts), analytics.media_report(acc), analytics.trend_report(acc),
               analytics.ratio_report(acc), analytics.topic_report(acc, 3))
    return acc, counts, reports


ACC, COUNTS, (EVAL, MEDIA, TREND, RATIO, TOPICS) = _golden_reports()

REPORT_RECORDS = {
    evaluator.ConfusionCounts: COUNTS,
    evaluator.MetricRow: EVAL.macro,
    evaluator.EvalReport: EVAL,
    analytics.PlatformStats: MEDIA.overall.platforms["twitter"],
    analytics.MediaRow: MEDIA.overall,
    analytics.MediaReport: MEDIA,
    analytics.TrendRow: TREND.rows[0],
    analytics.TrendReport: TREND,
    analytics.RatioRow: RATIO.rows["mainstream"],
    analytics.RatioReport: RATIO,
    analytics.TopicRow: TOPICS.top_rows[0],
    analytics.TopicKindRow: TOPICS.kind_rows[0],
    analytics.TopicReport: TOPICS,
}


def test_each_report_record_is_of_its_type():
    assert all(type(record) is record_type for record_type, record in REPORT_RECORDS.items())


@pytest.mark.parametrize("record_type", REPORT_RECORDS, ids=lambda t: t.__name__)
def test_a_report_record_refuses_attribute_assignment(record_type):
    record = REPORT_RECORDS[record_type]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = "added"


@pytest.mark.parametrize("record_type", REPORT_RECORDS, ids=lambda t: t.__name__)
def test_a_report_record_survives_a_pickle_round_trip(record_type):
    record = REPORT_RECORDS[record_type]
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is type(record)


def test_a_filled_accumulator_survives_a_pickle_round_trip():
    assert all(getattr(ACC, name) for name in StatsAccumulator.COUNTERS)
    again = pickle.loads(pickle.dumps(ACC))
    assert again == ACC and type(again) is StatsAccumulator
    assert all(getattr(again, name) == getattr(ACC, name) for name in StatsAccumulator.COUNTERS)
    assert again != StatsAccumulator()


def test_two_fresh_accumulators_share_no_counter():
    a, b = StatsAccumulator(), StatsAccumulator()
    counters = [getattr(acc, name) for acc in (a, b) for name in StatsAccumulator.COUNTERS]
    assert len({id(counter) for counter in counters}) == 10
    assert all(type(counter) is Counter and not counter for counter in counters)
    a.mentions[("mainstream", 2015, None, "twitter", "quotation")] += 1
    assert not b.mentions and a != b


def test_merge_leaves_both_operands_unchanged():
    other = StatsAccumulator()
    other.article_count[("user-generated", 2017, "Sports")] = 2
    other.mentions[("user-generated", 2017, "Sports", "facebook", "paraphrase")] = 1
    before = [deepcopy(vars(acc)) for acc in (ACC, other)]
    merged = ACC.merge(other)
    assert [vars(acc) for acc in (ACC, other)] == before
    assert merged.article_count == ACC.article_count + other.article_count
    assert all(getattr(merged, name) is not getattr(acc, name) for name in StatsAccumulator.COUNTERS
               for acc in (ACC, other))


def test_two_compare_results_share_no_dict():
    first, second = evaluator.compare([], {}), evaluator.compare([], {})
    dicts = [*first, *second]
    assert len({id(counts) for counts in dicts}) == 6
    assert all(type(counts) is dict for counts in dicts)


@pytest.mark.parametrize("record_type", REPORT_RECORDS, ids=lambda t: t.__name__)
def test_plain_has_the_record_fields_as_keys(record_type):
    record = REPORT_RECORDS[record_type]
    assert tuple(analytics._plain(record)) == record._fields


def test_plain_passes_a_plain_tuple_through_unchanged():
    value = (1.005, "twitter", (2.5,))
    assert analytics._plain(value) is value
