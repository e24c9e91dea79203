import multiprocessing
import random
from datetime import date

import pytest

from conftest import random_corpus, random_sentence

from sourcescope import extractor
from sourcescope.corpus import Article, MediaType
from sourcescope.extractor import (
    MIN_QUOTE_CHARS,
    ExtractionResult,
    Kind,
    SourceMention,
    classify_sentence,
    extract_corpus,
    extract_mentions,
    iter_extract,
    mention_to_record,
)
from sourcescope.patterns import (
    CitationPattern,
    PatternSet,
    Platform,
    contains_quote_signs,
    could_cite,
    extract_quote_spans,
    find_embedding_span,
    match_patterns,
)
from sourcescope.segmenter import segment


def article(body, i=0):
    return Article(
        id=f"t{i}",
        outlet="o",
        media_type=MediaType.MAINSTREAM,
        published_at=date(2016, 1, 1),
        headline="h",
        body=body,
    )


# --- independent reference: brute-force phrase walk from every occurrence of its first word ---


# characters that re.IGNORECASE matches to an ASCII letter and str.lower() does not
# lower to it ('İ'.lower() is two characters; 'ı' and 'ſ' lower to themselves)
_IGNORECASE_FOLDS = {"İ": "i", "ı": "i", "ſ": "s"}


def naive_phrase_hits(sentence, pattern_set):
    # one character per character of the sentence ('İ' is the only one whose lower()
    # is longer), so offsets stay aligned; c matches phrase letter p iff folded c == p
    folded = "".join(_IGNORECASE_FOLDS.get(c, c.lower()) for c in sentence)
    hits = []
    for pat in pattern_set.patterns:
        phrase = pat.phrase
        first_word = phrase.partition(" ")[0]
        start = folded.find(first_word)
        while start >= 0:
            # the first word matched at start; walk the rest of the phrase
            i, j = start + len(first_word), len(first_word)
            ok = True
            while j < len(phrase):
                if phrase[j] == " ":
                    if i >= len(sentence) or not sentence[i].isspace():
                        ok = False
                        break
                    while i < len(sentence) and sentence[i].isspace():
                        i += 1
                    j += 1
                else:
                    if i >= len(sentence) or folded[i] != phrase[j]:
                        ok = False
                        break
                    i += 1
                    j += 1
            before = sentence[start - 1] if start > 0 else ""
            after = sentence[i] if i < len(sentence) else ""
            if (
                ok
                and not (before and (before.isalnum() or before == "_"))
                and not (pat.anchored == "both" and after and (after.isalnum() or after == "_"))
            ):
                hits.append((pat.id, pat.platform, start, i))
            start = folded.find(first_word, start + 1)
    hits.sort(key=lambda h: (h[2], h[3], h[0]))
    return hits


def naive_extract(art, pattern_set):
    mentions = []
    spans = segment(art.body)
    for span in spans:
        sentence = art.body[span.start:span.end]
        first = {}
        for pid, platform, start, end in naive_phrase_hits(sentence, pattern_set):
            first.setdefault(platform, (pid, start, end))
        emb = find_embedding_span(sentence)
        if emb is not None:
            mentions.append(
                SourceMention(art.id, span.index, Platform.TWITTER, Kind.EMBEDDING, None, emb[0], emb[1])
            )
            first.pop(Platform.TWITTER, None)
        for platform, (pid, start, end) in first.items():
            kind = Kind.QUOTATION if contains_quote_signs(sentence) else Kind.PARAPHRASE
            mentions.append(SourceMention(art.id, span.index, platform, kind, pid, start, end))
    mentions.sort(key=lambda m: (m.sentence_index, m.platform.value))
    return tuple(mentions)


def fuzz_sentence(rng, phrases, words, fold):
    """Phrase and stray phrase words in random case, spacing and neighbours.

    With fold, letters may become 'İ'/'ı' (i), 'ſ' (s) or the Kelvin sign (k).
    """
    tokens = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.6:
            chunk = rng.choice(phrases).split()
            if len(chunk) > 1 and rng.random() < 0.2:
                del chunk[rng.randrange(len(chunk))]
        else:
            chunk = [rng.choice(words) for _ in range(rng.randint(1, 3))]
        tokens.extend(chunk)
    out = []
    for k, word in enumerate(tokens):
        if k:
            out.append(rng.choice((" ", " ", "  ", "\n", " \n\t", "\t", "")))
        if rng.random() < 0.15:
            out.append(rng.choice("x_7é.,(\"'-"))
        for c in word:
            if rng.random() < 0.4:
                c = c.upper()
            if fold and rng.random() < 0.2:
                c = {"i": rng.choice("İı"), "s": "ſ", "k": "\u212a"}.get(c.lower(), c)
            out.append(c)
        if rng.random() < 0.15:
            out.append(rng.choice("x_7é.,)\"'-!"))
    return "".join(out)


class TestPhraseOracle:
    @pytest.mark.parametrize(
        "sentence, expected",
        [("İ wrote on Facebook today.", [("fb-002", 2, 19)]), ("She poſted on Facebook.", [("fb-001", 4, 22)])],
    )
    def test_fold_characters(self, pattern_set, sentence, expected):
        hits = [(h.pattern_id, h.start, h.end) for h in match_patterns(sentence, pattern_set)]
        assert hits == expected
        assert [(pid, start, end) for pid, _, start, end in naive_phrase_hits(sentence, pattern_set)] == expected

    def test_matcher_equals_oracle_property(self, pattern_set):
        rng = random.Random(77)
        phrases = [p.phrase for p in pattern_set.patterns]
        words = sorted({w for phrase in phrases for w in phrase.split()})
        hits_by_kind = {"fold": 0, "kelvin": 0, "plain": 0}
        for n in range(20000):
            sentence = fuzz_sentence(rng, phrases, words, fold=n % 2 == 1)
            hits = [(h.pattern_id, h.platform, h.start, h.end) for h in match_patterns(sentence, pattern_set)]
            assert hits == naive_phrase_hits(sentence, pattern_set), sentence
            if any(c in sentence for c in "İıſ"):
                hits_by_kind["fold"] += len(hits)
            elif "\u212a" in sentence:
                hits_by_kind["kelvin"] += len(hits)
            else:
                hits_by_kind["plain"] += len(hits)
        assert all(hits_by_kind.values()), hits_by_kind


class TestClassifySentence:
    def test_quotation(self, pattern_set):
        s = '"What kind of a lawyer would tape a client? So sad!" Trump tweeted.'
        out = classify_sentence(s, pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.QUOTATION)]

    def test_paraphrase(self, pattern_set):
        s = "she tweeted that she was glad to have lost 6 pounds"
        out = classify_sentence(s, pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.PARAPHRASE)]

    def test_embedding(self, pattern_set):
        s = "— Donald J. Trump (@realDonaldTrump) July 25, 2018"
        out = classify_sentence(s, pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.EMBEDDING)]
        assert out[0][3] is None

    def test_embedding_suppresses_twitter_patterns(self, pattern_set):
        s = 'He took to Twitter: "Sad!" — John Doe (@jdoe) March 3, 2016'
        out = classify_sentence(s, pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.EMBEDDING)]

    def test_both_platforms_two_emissions(self, pattern_set):
        s = "He tweeted the news and later posted on Facebook about it."
        out = classify_sentence(s, pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [
            (Platform.FACEBOOK, Kind.PARAPHRASE),
            (Platform.TWITTER, Kind.PARAPHRASE),
        ]


class TestExtractMentions:
    def test_empty_body(self, pattern_set):
        result = extract_mentions(article(""), pattern_set)
        assert result == ExtractionResult("t0", (), (), 0)

    def test_embedding_plus_facebook_quotation(self, pattern_set):
        body = (
            "— Team News (@teamnews) Jan 5, 2014\n\n"
            'The squad wrote on Facebook, "match postponed."'
        )
        result = extract_mentions(article(body), pattern_set)
        got = {(m.sentence_index, m.platform, m.kind) for m in result.mentions}
        assert got == {
            (0, Platform.TWITTER, Kind.EMBEDDING),
            (1, Platform.FACEBOOK, Kind.QUOTATION),
        }

    def test_two_paraphrases_distinct_sentences(self, pattern_set):
        body = "She tweeted on Monday. She tweeted again on Tuesday."
        result = extract_mentions(article(body), pattern_set)
        assert [(m.sentence_index, m.kind) for m in result.mentions] == [
            (0, Kind.PARAPHRASE),
            (1, Kind.PARAPHRASE),
        ]

    def test_direct_quote_count_independent_of_mentions(self, pattern_set):
        body = '"Nothing to see here," the mayor said. "More," she added.'
        result = extract_mentions(article(body), pattern_set)
        assert result.mentions == ()
        assert result.direct_quote_count == 2

    def test_short_quote_spans_filtered(self, pattern_set):
        body = 'He wrote "ab" on the wall and "a longer quote" too.'
        result = extract_mentions(article(body), pattern_set)
        assert result.direct_quote_count == 1


def ungated_extract(art, pattern_set):
    """extract_mentions without the body-level gate: every sentence is classified."""
    quotes = extract_quote_spans(art.body)
    spans = segment(art.body, quotes)
    mentions = tuple(
        SourceMention(art.id, span.index, platform, kind, pattern_id, start, end)
        for span in spans
        for platform, kind, (start, end), pattern_id in classify_sentence(art.body[span.start:span.end], pattern_set)
    )
    direct_quotes = sum(1 for q in quotes if q.end - q.start >= MIN_QUOTE_CHARS)
    return ExtractionResult(art.id, mentions, tuple((s.start, s.end) for s in spans), direct_quotes)


_GATE_MARKERS = (
    "— Ann Lee (@annlee) May 4, 2016",
    "pic.twitter.com/Ab12 drew attention.",
    "See twitter.com/ann/status/123 now.",
    "Call us (@home) today.",
    "PIC.TWITTER.COM/Xy9 was shared.",
)
# near misses and context-dependent lowering: none of these names a platform
_GATE_NEAR_MISSES = (
    "ΟΔΥΣΣΕΥΣ wrote a book.",
    "The Face Book club met.",
    "Tweed jackets sold out.",
    "Ask @ann on the site.",
    "The Twit ter page is down.",
    "\u212aids were at the fair.",
)


def gate_body(rng, phrases, words, extra_phrases):
    pieces = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.45:
            pieces.append(random_sentence(rng))
        elif roll < 0.65:
            pieces.append(fuzz_sentence(rng, phrases, words, fold=rng.random() < 0.5) + ".")
        elif roll < 0.75:
            pieces.append(rng.choice(_GATE_MARKERS))
        elif roll < 0.9:
            pieces.append(rng.choice(_GATE_NEAR_MISSES))
        else:
            pieces.append(fuzz_sentence(rng, extra_phrases, words, fold=True) + "!")
    return rng.choice((" ", "\n\n")).join(pieces)


class TestCouldCiteGate:
    @pytest.mark.parametrize(
        "body, expected",
        [
            ("The council met. Residents waited.", False),
            ("The Face Book club met. \u212aids played.", False),
            ("She posted on FaceBook.", True),
            ("He TWEETED it.", True),
            ("— Ann Lee (@annlee) May 4, 2016", True),
            ("See twitter.com/ann/status/123 now.", True),
            ("She wrote on twıtter.", True),
            ("İt was a quiet ſunday.", False),
        ],
    )
    def test_could_cite(self, pattern_set, body, expected):
        assert could_cite(body, pattern_set) == expected

    @pytest.mark.parametrize(
        "extra, extra_phrases",
        [
            (None, ["took to twitter", "posted on facebook"]),
            # no ASCII word: filed under "", which opens every gate
            (CitationPattern("tw-900", Platform.TWITTER, "твитнула"), ["твитнула", "ТВИТНУЛА вчера"]),
            # no platform word: filed under "status", which 'ſ' can spell
            (CitationPattern("fb-900", Platform.FACEBOOK, "status update"), ["status update", "STATUS Update"]),
        ],
    )
    def test_gated_equals_ungated_property(self, pattern_set, extra, extra_phrases):
        ps = pattern_set if extra is None else PatternSet(pattern_set.patterns + (extra,), version="custom")
        rng = random.Random(808 + len(extra_phrases[0]))
        phrases = [p.phrase for p in pattern_set.patterns]
        words = sorted({w for phrase in phrases for w in phrase.split()})
        seen = {"closed": 0, "cited": 0, "unkeyed": 0, "extra_hits": 0}
        for i in range(3000):
            art = article(gate_body(rng, phrases, words, extra_phrases), i)
            result = extract_mentions(art, ps)
            assert result == ungated_extract(art, ps), art.body
            seen["closed"] += not could_cite(art.body, ps)
            if result.mentions:
                seen["cited"] += 1
                # cited although no ASCII group key or embed marker is in the body
                lowered = art.body.lower()
                seen["unkeyed"] += not any(k and k in lowered for k in list(ps._groups) + ["(@", "twitter.com"])
            seen["extra_hits"] += sum(1 for m in result.mentions if extra and m.pattern_id == extra.id)
        assert seen["cited"] and seen["unkeyed"], seen
        assert extra is None or seen["extra_hits"], seen
        if extra is None or extra.phrase.isascii():
            assert seen["closed"] > 500, seen
        else:
            assert seen["closed"] == 0, seen

    def test_classify_runs_only_in_bodies_that_could_cite(self, pattern_set, monkeypatch):
        calls = []
        real = extractor.classify_sentence
        monkeypatch.setattr(extractor, "classify_sentence", lambda s, ps: calls.append(s) or real(s, ps))
        quiet = extract_mentions(article("The council met. Residents waited! Officials spoke?"), pattern_set)
        assert calls == [] and len(quiet.sentences) == 3
        extract_mentions(article("The council met. She tweeted about it. Residents waited."), pattern_set)
        assert calls == ["The council met.", "She tweeted about it.", "Residents waited."]


class TestExtractCorpus:
    def test_empty_corpus(self, pattern_set):
        corpus = random_corpus(random.Random(0), 0)
        assert extract_corpus(corpus, pattern_set) == []

    def test_corpus_order_preserved_in_parallel(self, pattern_set):
        corpus = random_corpus(random.Random(21), 24)
        serial = extract_corpus(corpus, pattern_set, workers=1)
        parallel = extract_corpus(corpus, pattern_set, workers=3)
        assert [r.article_id for r in serial] == [a.id for a in corpus.articles]
        assert serial == parallel

    def test_no_match_corpus(self, pattern_set):
        corpus = random_corpus(random.Random(1), 0)
        articles = tuple(article("Nothing relevant here at all.", i) for i in range(4))
        corpus = type(corpus)(articles=articles, source_path="mem")
        results = extract_corpus(corpus, pattern_set)
        assert all(r.mentions == () for r in results)

    def test_determinism_byte_for_byte(self, pattern_set, tmp_path):
        from sourcescope.extractor import write_mentions

        corpus = random_corpus(random.Random(33), 30)
        p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        write_mentions(extract_corpus(corpus, pattern_set), p1)
        write_mentions(extract_corpus(corpus, pattern_set), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestIterExtractIsLazy:
    """iter_extract reads its articles only as the window needs them."""

    @staticmethod
    def counting(articles, pulled):
        for article in articles:
            pulled.append(article.id)
            yield article

    def test_serial_reads_one_article_per_result(self, pattern_set):
        corpus = random_corpus(random.Random(8), 30)
        pulled, results = [], []
        for _, result in iter_extract(self.counting(corpus, pulled), pattern_set):
            results.append(result)
            assert len(pulled) == len(results)
        assert results == extract_corpus(corpus, pattern_set)

    def test_workers_read_at_most_the_window_ahead(self, pattern_set, monkeypatch):
        monkeypatch.setattr(extractor, "CHUNK_ARTICLES", 3)
        monkeypatch.setattr(extractor, "CHUNKS_PER_WORKER", 2)
        window = 3 * 2 * 2
        corpus = random_corpus(random.Random(9), 61)
        pulled, results, ahead = [], [], []
        for _, result in iter_extract(self.counting(corpus, pulled), pattern_set, workers=2):
            results.append(result)
            ahead.append(len(pulled) - len(results))
        assert max(ahead) < window
        assert max(ahead) > 1  # the workers did run ahead
        assert results == extract_corpus(corpus, pattern_set)

    def test_closing_after_the_first_result_stops_every_worker(self, pattern_set, monkeypatch):
        monkeypatch.setattr(extractor, "CHUNK_ARTICLES", 3)
        monkeypatch.setattr(extractor, "CHUNKS_PER_WORKER", 2)
        before = set(multiprocessing.active_children())
        corpus = random_corpus(random.Random(10), 200)
        pulled = []
        pairs = iter_extract(self.counting(corpus, pulled), pattern_set, workers=2)
        assert next(pairs) == (corpus.articles[0], extract_mentions(corpus.articles[0], pattern_set))
        workers = set(multiprocessing.active_children()) - before
        assert workers
        pairs.close()
        for worker in workers:
            worker.join(timeout=10)
        assert not [worker for worker in workers if worker.is_alive()]
        assert len(pulled) <= 3 * 2 * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_iter_extract_pairs_each_article_with_its_own_result(pattern_set, monkeypatch, workers):
    monkeypatch.setattr(extractor, "CHUNK_ARTICLES", 7)  # several chunks, the last one short
    corpus = random_corpus(random.Random(11), 50)
    pairs = list(iter_extract(iter(corpus), pattern_set, workers=workers))
    assert [article for article, _ in pairs] == list(corpus.articles)
    assert all(result.article_id == article.id for article, result in pairs)
    assert [result for _, result in pairs] == [extract_mentions(a, pattern_set) for a in corpus]


class TestProperties:
    def test_no_facebook_embedding_ever(self, pattern_set):
        rng = random.Random(50)
        for _ in range(20):
            corpus = random_corpus(rng, 10)
            for result in extract_corpus(corpus, pattern_set):
                for m in result.mentions:
                    assert not (m.platform == Platform.FACEBOOK and m.kind == Kind.EMBEDDING)
                    if m.kind == Kind.EMBEDDING:
                        assert m.pattern_id is None
                    else:
                        assert m.pattern_id is not None

    def test_quotation_iff_quote_signs(self, pattern_set):
        rng = random.Random(51)
        for _ in range(20):
            corpus = random_corpus(rng, 10)
            index = {a.id: a for a in corpus}
            for result in extract_corpus(corpus, pattern_set):
                body = index[result.article_id].body
                spans = segment(body)
                for m in result.mentions:
                    if m.kind == Kind.EMBEDDING:
                        continue
                    sp = spans[m.sentence_index]
                    assert contains_quote_signs(body[sp.start:sp.end]) == (m.kind == Kind.QUOTATION)

    def test_embedding_precedence(self, pattern_set):
        rng = random.Random(52)
        for _ in range(20):
            corpus = random_corpus(rng, 10)
            for result in extract_corpus(corpus, pattern_set):
                seen = {}
                for m in result.mentions:
                    key = (m.sentence_index, m.platform)
                    assert key not in seen  # at most one mention per sentence/platform
                    seen[key] = m.kind

    def test_oracle_equivalence(self, pattern_set):
        rng = random.Random(53)
        corpus = random_corpus(rng, 50)
        results = extract_corpus(corpus, pattern_set)
        index = {a.id: a for a in corpus}
        for result in results:
            assert result.mentions == naive_extract(index[result.article_id], pattern_set)


def test_mention_record_schema(pattern_set):
    result = extract_mentions(article('"Done," she tweeted.'), pattern_set)
    record = mention_to_record(result.mentions[0])
    assert set(record) == {
        "article_id", "sentence_index", "platform", "kind", "pattern_id", "span_start", "span_end",
    }
    assert record["platform"] == "twitter"
    assert record["kind"] == "quotation"
