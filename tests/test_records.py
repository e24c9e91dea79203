"""The record types a run builds per article, pattern, quote and mention: immutable named tuples.

Their field order is part of the output contract (a mention's fields are its
mentions.jsonl keys, in order), and pool workers started by `spawn` or
`forkserver` receive them pickled.
"""

import json
import pickle
from datetime import date

import pytest

from sourcescope import cli
from sourcescope.corpus import Article, MediaType
from sourcescope.extractor import ExtractionResult, SourceMention, extract_mentions
from sourcescope.patterns import CitationPattern, QuoteSpan, default_patterns, extract_quote_spans

from conftest import GOLDEN_CORPUS

MENTION_KEYS = ("article_id", "sentence_index", "platform", "kind", "pattern_id", "span_start", "span_end")

ARTICLE = Article(
    id="a1",
    outlet="The Alpha Times",
    media_type=MediaType.MAINSTREAM,
    published_at=date(2016, 5, 4),
    headline="Quiet day",
    body='She tweeted that "the plan is ready". Officials said on Facebook that it was not.',
)


def _record(record_type):
    """One record of record_type, as a run builds it."""
    result = extract_mentions(ARTICLE, default_patterns(), sentences=True)
    assert len(result.mentions) == 2  # one of each platform
    records = [ARTICLE, default_patterns().patterns[0], extract_quote_spans(ARTICLE.body)[0], result.mentions[0], result]
    return next(record for record in records if type(record) is record_type)


RECORD_TYPES = (Article, CitationPattern, QuoteSpan, SourceMention, ExtractionResult)


def test_mention_fields_are_the_mentions_jsonl_keys_in_order(tmp_path, capsys):
    assert cli.main(["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    lines = (tmp_path / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    assert {tuple(json.loads(line)) for line in lines} == {MENTION_KEYS}
    assert SourceMention._fields == MENTION_KEYS


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_a_record_refuses_attribute_assignment(record_type):
    record = _record(record_type)
    first_field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = "added"


def test_article_optional_fields_default_to_none():
    assert ARTICLE.topic is None and ARTICLE.url is None
    assert ARTICLE._fields[-2:] == ("topic", "url")


@pytest.mark.parametrize("record_type", RECORD_TYPES, ids=lambda t: t.__name__)
def test_a_record_survives_a_pickle_round_trip(record_type):
    record = _record(record_type)
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is type(record)

