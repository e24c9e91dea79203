import json
import random
from datetime import date, timedelta

import pytest

from sourcescope.corpus import (
    Article,
    Corpus,
    CorpusReader,
    IngestError,
    MediaType,
    Rejection,
    chosen_articles,
    ingest,
    serialize,
    stratified_sample,
)
from sourcescope.analytics import accumulate
from sourcescope.extractor import ExtractionResult, extract_mentions
from sourcescope.patterns import default_patterns, fold_case

from conftest import fuzz_corpus_lines

VALID = {
    "id": "a1",
    "outlet": "Example Times",
    "media_type": "mainstream",
    "published_at": "2015-06-15",
    "headline": "Headline",
    "body": "Body text.",
}


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_records(path):
    """Every record of a corpus file, accepted or rejected, and the reader that counted them."""
    with CorpusReader(path, fail_fast=False) as reader:
        records = list(reader)
    return records, reader


def rejections(path):
    return [r for r in read_records(path)[0] if isinstance(r, Rejection)]


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    corpus = ingest(path)
    assert len(corpus) == 0
    assert read_records(path)[1].accepted == 0


def test_ingest_three_valid_lines_in_order(tmp_path):
    records = [dict(VALID, id=f"a{i}") for i in range(3)]
    path = tmp_path / "c.jsonl"
    write_lines(path, records)
    corpus = ingest(path)
    assert [a.id for a in corpus] == ["a0", "a1", "a2"]
    assert read_records(path)[1].accepted == 3


def test_ingest_rejects_unknown_media_type(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [dict(VALID, media_type="satire")])
    with pytest.raises(IngestError, match="satire"):
        ingest(path)


def test_ingest_rejects_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [VALID, dict(VALID)])
    with pytest.raises(IngestError, match="a1"):
        ingest(path)


def test_ingest_malformed_line_carries_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(VALID) + "\n{not json\n")
    with pytest.raises(IngestError) as exc:
        ingest(path)
    assert exc.value.line_number == 2


def test_ingest_skip_with_report(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [VALID, dict(VALID, id="a2", media_type="satire"), dict(VALID, id="a3")]
    write_lines(path, records)
    corpus = ingest(path, fail_fast=False)
    assert [a.id for a in corpus] == ["a1", "a3"]
    rejected = rejections(path)
    assert len(rejected) == 1
    assert rejected[0][0] == 2


def test_ingest_counts_unknown_keys(tmp_path):
    path = tmp_path / "c.jsonl"
    write_lines(path, [dict(VALID, scraped_by="bot", lang="en")])
    assert read_records(path)[1].unknown_key_warnings == 2


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_lines_each_accepted_or_rejected_once_in_order(tmp_path, seed):
    lines, expected = fuzz_corpus_lines(random.Random(seed), 400)
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    want = [
        (fate, art_id if fate == "accept" else number)
        for number, (fate, art_id) in enumerate(expected, start=1)
        if fate != "blank"
    ]
    with CorpusReader(path, fail_fast=False) as reader:
        records = list(reader)
    got = [
        ("accept", r.id) if isinstance(r, Article) else ("reject", r.line_number) for r in records
    ]
    assert got == want
    assert all(r.reason for r in records if isinstance(r, Rejection))

    corpus = ingest(path, fail_fast=False)
    assert corpus.articles == tuple(r for r in records if isinstance(r, Article))
    assert reader.accepted == len(corpus)

    # with fail_fast, the articles before the first bad line come out, then it raises
    first = next(i for i, (fate, _) in enumerate(want) if fate == "reject")
    first_bad = want[first][1]
    before = [art_id for _, art_id in want[:first]]
    with CorpusReader(path) as reader:
        read = []
        with pytest.raises(IngestError) as exc:
            read.extend(reader)
    assert exc.value.line_number == first_bad
    assert [a.id for a in read] == before
    with pytest.raises(IngestError) as exc:
        ingest(path)
    assert exc.value.line_number == first_bad


def test_reader_opens_the_file_when_constructed(tmp_path):
    with pytest.raises(FileNotFoundError):
        CorpusReader(tmp_path / "missing.jsonl")


@pytest.mark.parametrize("key", ["id", "outlet", "headline", "body", "topic", "url"])
def test_lone_surrogate_is_rejected_naming_its_field(tmp_path, key):
    path = tmp_path / "c.jsonl"
    line = json.dumps(dict(VALID, topic="Politics", url="http://x.example"))
    path.write_text(line.replace(f'"{key}": "', f'"{key}": "\\ud800', 1) + "\n", encoding="utf-8")
    assert rejections(path) == [(1, f"{key} holds a lone surrogate escape")]
    # an escaped surrogate pair is one character, and is accepted
    path.write_text(line.replace(f'"{key}": "', f'"{key}": "\\ud83d\\ude00', 1) + "\n", encoding="utf-8")
    assert getattr(ingest(path).articles[0], key).startswith("\U0001f600")


def test_over_long_number_is_rejected_with_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(VALID) + "\n" + json.dumps(dict(VALID, id="a2"))[:-1] + ', "n": 1' + "0" * 4300 + "}\n")
    corpus = ingest(path, fail_fast=False)
    assert [a.id for a in corpus] == ["a1"]
    assert rejections(path) == [(2, "malformed record: number of more than 4300 digits")]


def test_roundtrip_identity(tmp_path):
    records = [
        dict(VALID, id="a1", topic="Politics", url="http://x.example"),
        dict(VALID, id="a2", media_type="unreliable"),
    ]
    path = tmp_path / "c.jsonl"
    write_lines(path, records)
    corpus = ingest(path)
    out = tmp_path / "out.jsonl"
    serialize(corpus, out)
    again = ingest(out)
    assert again.articles == corpus.articles


def make_article(i, body, media=MediaType.MAINSTREAM, published=date(2015, 6, 15)):
    return Article(
        id=f"a{i}", outlet="o", media_type=media, published_at=published, headline="h", body=body
    )


def year_of(article):
    """The year accumulate files the article under, the year the trend tables count it in."""
    (key,) = accumulate([(article, ExtractionResult(article.id, (), (), 0))]).article_count
    return key[1]


def test_year_of_examples():
    assert year_of(make_article(1, "", published=date(2013, 1, 1))) == 2013
    assert year_of(make_article(2, "", published=date(2017, 12, 31))) == 2017
    assert year_of(make_article(3, "", published=date(2015, 6, 15))) == 2015


def test_year_of_agrees_with_reference_on_random_dates():
    rng = random.Random(42)
    base = date(2000, 1, 1)
    for _ in range(1000):
        d = base + timedelta(days=rng.randint(0, 20000))
        article = make_article(0, "", published=d)
        # reference read: the leading 4 digits of the ISO form
        assert year_of(article) == int(d.isoformat()[:4])


KEYWORDS = ["facebook", "twitter", "post", "tweet"]


def keyword_corpus(counts):
    """counts: keyword -> number of articles containing only that keyword."""
    articles = []
    i = 0
    for kw, n in counts.items():
        for _ in range(n):
            articles.append(make_article(i, f"an article about {kw} and more"))
            i += 1
    for _ in range(20):  # chaff with no keywords
        articles.append(make_article(i, "nothing of interest here"))
        i += 1
    return Corpus(articles=tuple(articles), source_path="mem")


def sample_of(corpus, keywords, n, seed):
    """The articles stratified_sample chooses from an in-memory corpus, checking each chosen id."""
    chosen = stratified_sample(corpus, keywords, n, seed)
    assert [pos for pos, _ in chosen] == sorted({pos for pos, _ in chosen})  # corpus order, no repeats
    assert all(corpus.articles[pos].id == art_id for pos, art_id in chosen)
    return [corpus.articles[pos] for pos, _ in chosen]


def test_sample_no_hits_returns_empty():
    corpus = keyword_corpus({})
    assert len(sample_of(corpus, KEYWORDS, 10, seed=1)) == 0


def test_sample_even_split():
    corpus = keyword_corpus({kw: 150 for kw in KEYWORDS})
    sample = sample_of(corpus, KEYWORDS, 400, seed=7)
    assert len(sample) == 400
    per_kw = {kw: sum(1 for a in sample if kw in a.body) for kw in KEYWORDS}
    assert per_kw == {kw: 100 for kw in KEYWORDS}


def test_sample_deterministic():
    corpus = keyword_corpus({kw: 50 for kw in KEYWORDS})
    s1 = sample_of(corpus, KEYWORDS, 40, seed=123)
    s2 = sample_of(corpus, KEYWORDS, 40, seed=123)
    assert s1 == s2


def test_sample_redistributes_empty_stratum_quota():
    corpus = keyword_corpus({"facebook": 50, "twitter": 50})  # no post/tweet strata
    sample = sample_of(corpus, KEYWORDS, 40, seed=3)
    assert len(sample) == 40
    per_kw = {kw: sum(1 for a in sample if kw in a.body) for kw in ("facebook", "twitter")}
    assert per_kw == {"facebook": 20, "twitter": 20}


def test_sample_size_capped_and_keyword_property():
    rngs = random.Random(9)
    corpus = keyword_corpus({"facebook": 3, "tweet": 2})
    sample = sample_of(corpus, KEYWORDS, 40, seed=rngs.randint(0, 999))
    assert len(sample) <= 40
    for article in sample:
        assert any(kw in article.body.lower() for kw in KEYWORDS)


def test_sample_multi_stratum_article_goes_to_first_keyword():
    articles = (make_article(0, "about twitter and facebook both"),)
    corpus = Corpus(articles=articles, source_path="mem")
    sample = sample_of(corpus, ["facebook", "twitter"], 2, seed=0)
    assert len(sample) == 1


def test_sample_repeated_keyword_is_one_stratum():
    corpus = keyword_corpus({"twitter": 30, "facebook": 30})
    once = sample_of(corpus, ["twitter"], 8, seed=4)
    assert sample_of(corpus, ["twitter", "Twitter", "twitter"], 8, seed=4) == once
    assert len({a.id for a in once}) == len(once) == 8
    # n is checked against the two distinct keywords, not the three given
    stratified_sample(corpus, ["twitter", "Twitter", "facebook"], 2, seed=4)
    with pytest.raises(ValueError, match="distinct keywords"):
        stratified_sample(corpus, ["twitter", "Twitter", "facebook"], 1, seed=4)


def test_sample_folds_case_as_the_extractor_does():
    body = "She took to Twıtter to say so."  # dotless ı
    article = make_article(0, body)
    assert extract_mentions(article, default_patterns()).mentions[0].pattern_id == "tw-049"
    corpus = Corpus(articles=(article, make_article(1, "nothing of interest here")), source_path="mem")
    assert sample_of(corpus, ["twitter"], 1, seed=0) == [article]
    assert sample_of(corpus, ["TWİTTER"], 1, seed=0) == [article]
    # keywords equal once folded are one stratum
    with pytest.raises(ValueError, match="distinct keywords"):
        stratified_sample(corpus, ["twitter", "twıtter", "facebook"], 1, seed=0)


def test_sample_validates_arguments():
    corpus = keyword_corpus({})
    with pytest.raises(ValueError):
        stratified_sample(corpus, [], 10, seed=0)
    with pytest.raises(ValueError):
        stratified_sample(corpus, KEYWORDS, 2, seed=0)


def reference_sample(articles, keywords, n, seed):
    """The sampler as it was when it held every article: the oracle for the one that keeps ids."""
    folded = list(dict.fromkeys(fold_case(kw) for kw in keywords))
    strata = {kw: [] for kw in folded}
    for pos, article in enumerate(articles):
        kw = next((kw for kw in folded if kw in fold_case(article.body)), None)
        if kw is not None:
            strata[kw].append((pos, article))
    take = {kw: 0 for kw in folded}
    remaining = min(n, sum(len(stratum) for stratum in strata.values()))
    while remaining:
        for kw in folded:
            if remaining and take[kw] < len(strata[kw]):
                take[kw] += 1
                remaining -= 1
    rng = random.Random(seed)
    chosen = [item for kw in folded if take[kw] for item in rng.sample(strata[kw], take[kw])]
    return [article for _, article in sorted(chosen, key=lambda item: item[0])]


@pytest.mark.parametrize("seed", range(6))
def test_sample_of_one_pass_draws_what_the_article_holding_sampler_drew(seed):
    rng = random.Random(seed)
    counts = {kw: rng.randint(0, 60) for kw in KEYWORDS}
    corpus = keyword_corpus(counts)
    keywords = rng.sample(KEYWORDS + ["Twitter", "POST"], rng.randint(1, 6))
    n = rng.randint(len({kw.lower() for kw in keywords}), 120)
    passes = []
    chosen = stratified_sample((passes.append(a) or a for a in corpus), keywords, n, seed)
    assert len(passes) == len(corpus)  # one pass over a one-pass iterable
    assert [corpus.articles[pos] for pos, _ in chosen] == reference_sample(corpus, keywords, n, seed)


def test_chosen_articles_finds_the_chosen_on_a_second_pass():
    corpus = keyword_corpus({"twitter": 30, "facebook": 30})
    chosen = stratified_sample(corpus, ["twitter", "facebook"], 10, seed=2)
    read = []
    found = list(chosen_articles((read.append(a) or a for a in corpus), chosen))
    assert found == [corpus.articles[pos] for pos, _ in chosen]
    assert len(read) == chosen[-1][0] + 1  # no further than the last chosen article
    assert list(chosen_articles(corpus, [])) == []


def test_chosen_articles_names_a_chosen_id_that_moved_or_went():
    corpus = keyword_corpus({"twitter": 5})
    with pytest.raises(ValueError, match="'a3'.*corpus changed"):
        list(chosen_articles(corpus, [(1, "a1"), (4, "a3")]))
    with pytest.raises(ValueError, match="'a99'.*corpus changed"):
        list(chosen_articles(corpus, [(1, "a1"), (len(corpus), "a99")]))
