import multiprocessing
import random
import re
from collections import Counter
from datetime import date

import pytest

from conftest import random_body, random_corpus, random_sentence

from sourcescope import extractor
from sourcescope.corpus import Article, MediaType
from sourcescope.extractor import (
    MIN_QUOTE_CHARS,
    ExtractionResult,
    Kind,
    SourceMention,
    classify_sentence,
    extract_chunk,
    extract_corpus,
    extract_mentions,
    map_chunks,
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
    fold_case,
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
    def fold(text):
        return "".join(_IGNORECASE_FOLDS.get(c, c.lower()) for c in text)

    folded = fold(sentence)
    hits = []
    for pat in pattern_set.patterns:
        phrase = fold(pat.phrase)  # a phrase may hold 'ı' or 'ſ' too
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
        emb = find_embedding_span(sentence, fold_case(sentence))
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
        out = classify_sentence(sentence, fold_case(sentence), pattern_set)
        assert [(pid, start, end) for _, _, (start, end), pid in out] == expected
        assert [(pid, start, end) for pid, _, start, end in naive_phrase_hits(sentence, pattern_set)] == expected

    def test_fold_characters_in_the_phrase(self):
        ps = PatternSet([
            CitationPattern("tw", Platform.TWITTER, "twıt storm"), CitationPattern("fb", Platform.FACEBOOK, "poſted on"),
        ])
        for sentence, expected in [("A Twit storm began.", [("tw", 2, 12)]), ("She POSTED ON it.", [("fb", 4, 13)])]:
            out = classify_sentence(sentence, fold_case(sentence), ps)
            assert [(pid, start, end) for _, _, (start, end), pid in out] == expected
            assert [(pid, start, end) for pid, _, start, end in naive_phrase_hits(sentence, ps)] == expected

    def test_matcher_equals_oracle_property(self, pattern_set):
        rng = random.Random(77)
        phrases = [p.phrase for p in pattern_set.patterns]
        words = sorted({w for phrase in phrases for w in phrase.split()})
        hits_by_kind = {"fold": 0, "kelvin": 0, "plain": 0}
        for n in range(20000):
            sentence = fuzz_sentence(rng, phrases, words, fold=n % 2 == 1)
            mentions = extract_mentions(article(sentence), pattern_set).mentions
            assert mentions == naive_extract(article(sentence), pattern_set), sentence
            hits = [m.pattern_id for m in mentions if m.pattern_id is not None]
            if any(c in sentence for c in "İıſ"):
                hits_by_kind["fold"] += len(hits)
            elif "\u212a" in sentence:
                hits_by_kind["kelvin"] += len(hits)
            else:
                hits_by_kind["plain"] += len(hits)
        assert all(hits_by_kind.values()), hits_by_kind

    def test_matcher_equals_oracle_on_each_prescreen_rule(self):
        """A pattern set with a phrase for each rule of the word-set prescreen and of the regexes on folded text."""
        rules = {
            "left-anchored, last word a prefix": [("took to twit", "left"), ("tweet", "left")],
            "digits and _": [("tweeted 24_7", "both"), ("posted 2 times on facebook", "both")],
            "punctuated words": [("told u.s. facebook users", "both"), ("in a now-deleted facebook post", "both"),
                                 ("tweeted #metoo", "both")],
            "opens with a non-word character": [("#metoo tweet", "both"), ("@twitter said", "left")],
            "non-ASCII": [("publicó en facebook", "both"), ("tuiteó que", "both")],
        }
        pats = [
            CitationPattern(f"{rule}/{n}", Platform.FACEBOOK if "facebook" in phrase else Platform.TWITTER, phrase, anchored)
            for rule, phrases in rules.items()
            for n, (phrase, anchored) in enumerate(phrases)
        ]
        ps = PatternSet(pats, version="rules")
        phrases = [p.phrase for p in pats]
        words = sorted({w for phrase in phrases for w in phrase.split()} | {"twitter", "tweets", "facebook"})
        # an ASCII phrase's first word right after a non-ASCII word character: no hit, on either side
        glued = re.compile(r"[^\W\x00-\x7f](?:" + "|".join(re.escape(p.split()[0]) for p in phrases if p.isascii()) + ")")
        rng = random.Random(2020)
        seen = Counter()
        for n in range(20000):
            sentence = fuzz_sentence(rng, phrases, words, fold=n % 2 == 1)
            mentions = extract_mentions(article(sentence), ps).mentions
            assert mentions == naive_extract(article(sentence), ps), sentence
            seen.update(m.pattern_id.split("/")[0] for m in mentions if m.pattern_id is not None)
            seen["non-ASCII letter right before an ASCII phrase"] += bool(glued.search(fold_case(sentence)))
        assert len(seen) == len(rules) + 1 and min(seen.values()) > 100, seen


class TestClassifySentence:
    def test_quotation(self, pattern_set):
        s = '"What kind of a lawyer would tape a client? So sad!" Trump tweeted.'
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.QUOTATION)]

    def test_paraphrase(self, pattern_set):
        s = "she tweeted that she was glad to have lost 6 pounds"
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.PARAPHRASE)]

    @pytest.mark.parametrize("mark", ["'", "’"])
    def test_lone_possessive_is_a_paraphrase(self, pattern_set, mark):
        s = f"The players{mark} union posted on Facebook that talks had stalled."
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.FACEBOOK, Kind.PARAPHRASE)]

    def test_embedding(self, pattern_set):
        s = "— Donald J. Trump (@realDonaldTrump) July 25, 2018"
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.EMBEDDING)]
        assert out[0][3] is None

    def test_embedding_suppresses_twitter_patterns(self, pattern_set):
        s = 'He took to Twitter: "Sad!" — John Doe (@jdoe) March 3, 2016'
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [(Platform.TWITTER, Kind.EMBEDDING)]

    def test_both_platforms_two_emissions(self, pattern_set):
        s = "He tweeted the news and later posted on Facebook about it."
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert [(p, k) for p, k, _, _ in out] == [
            (Platform.FACEBOOK, Kind.PARAPHRASE),
            (Platform.TWITTER, Kind.PARAPHRASE),
        ]

    def test_sentence_is_folded_once(self, pattern_set, monkeypatch):
        folded = []
        monkeypatch.setattr(extractor, "fold_case", lambda text: folded.append(text) or fold_case(text))
        s = "He posted on Facebook: pic.twitter.com/AbC — Jo (@jo) May 4, 2016"
        body = f"The council met. She tweeted it again. {s}"
        result = extract_mentions(article(body), pattern_set)
        assert folded == [body]  # each sentence is gated and classified on its slice of the body's fold
        out = classify_sentence(s, fold_case(s), pattern_set)
        assert folded == [body]
        fb_id, _, *fb_span = next(hit for hit in naive_phrase_hits(s, pattern_set) if hit[1] is Platform.FACEBOOK)
        assert out == [
            (Platform.FACEBOOK, Kind.PARAPHRASE, tuple(fb_span), fb_id),
            (Platform.TWITTER, Kind.EMBEDDING, find_embedding_span(s, fold_case(s)), None),
        ]
        assert [(m.sentence_index, m.platform, m.kind) for m in result.mentions] == [
            (1, Platform.TWITTER, Kind.PARAPHRASE),
            *((2, platform, kind) for platform, kind, _, _ in out),
        ]


# words whose folding depends on their neighbours (the Greek final sigma) or that fold onto ASCII letters
_FOLD_WORDS = ("ΟΔΥΣΣΕΥΣ.", "ΑΣ", "Σ", "İSTANBUL", "ſt.", "\u212aids", "O'ΣA.", "“ΛΣ”", "ΑΣ'")


def fold_fuzz_body(rng):
    words = random_body(rng).split(" ")
    for _ in range(rng.randint(0, 6)):
        words.insert(rng.randint(0, len(words)), rng.choice(_FOLD_WORDS))
    return "".join(word + rng.choice((" ", " ", "  ", "\n", "\n\n", "\t")) for word in words)


def test_sentence_fold_is_its_slice_of_the_body_fold():
    """fold_case(body)[span] == fold_case(sentence) for every sentence span: a sentence starts and ends next to
    whitespace or an end of the body, which bounds str.lower()'s one context rule, the Greek final sigma."""
    rng = random.Random(4040)
    finals = 0
    for _ in range(3000):
        body = fold_fuzz_body(rng)
        folded = fold_case(body)
        assert len(folded) == len(body)
        for span in segment(body):
            sentence = fold_case(body[span.start:span.end])
            assert folded[span.start:span.end] == sentence, (body, span)
            finals += "ς" in sentence
    assert finals > 100


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

    @pytest.mark.parametrize(
        "body, span",
        [
            ("Photo: pic.Twitter.com/abc123", (7, 29)),
            ("See Twitter.com/ann/status/123 now.", (4, 30)),
            ("PIC.TWITTER.COM/Xy9 was shared.", (0, 19)),
            ("Read twıtter.com/ann/status/1 first.", (5, 29)),  # dotless ı
        ],
    )
    def test_embed_link_in_any_case(self, pattern_set, body, span):
        # neither of these phrases has "twitter" for a group key, which would open the gate of could_cite
        no_twitter_key = PatternSet(
            [CitationPattern("fb-1", Platform.FACEBOOK, "posted on facebook"), CitationPattern("tw-1", Platform.TWITTER, "tweeted")]
        )
        assert find_embedding_span(body, fold_case(body)) == span
        for ps in (pattern_set, no_twitter_key):
            mention = SourceMention("t0", 0, Platform.TWITTER, Kind.EMBEDDING, None, *span)
            assert extract_mentions(article(body), ps).mentions == (mention,)

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
        for sentence in [art.body[span.start:span.end]]
        for platform, kind, (start, end), pattern_id in classify_sentence(sentence, fold_case(sentence), pattern_set)
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
        assert could_cite(fold_case(body), pattern_set) == expected

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
            result = extract_mentions(art, ps, sentences=True)
            assert result == ungated_extract(art, ps), art.body
            seen["closed"] += not could_cite(fold_case(art.body), ps)
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
        monkeypatch.setattr(extractor, "classify_sentence", lambda s, f, ps: calls.append((s, f)) or real(s, f, ps))
        quiet_body = "The council met. Residents waited! Officials spoke?"
        quiet = extract_mentions(article(quiet_body), pattern_set, sentences=True)
        assert calls == [] and len(quiet.sentences) == 3
        # of a body that could cite, only the sentences that could cite on their own text are classified
        body = "The council met. She TWEETED about it. Call (@home) now. Ann ſaw İt. See Twıtter.com today."
        extract_mentions(article(body), pattern_set)
        assert [s for s, _ in calls] == ["She TWEETED about it.", "Call (@home) now.", "See Twıtter.com today."]
        assert [s for s, f in calls if f != fold_case(s)] == []
        assert [s for s, _ in calls if not could_cite(fold_case(s), pattern_set)] == []


class TestWithoutSentences:
    """extract_mentions without sentences: the same mentions and quote count, and no span list."""

    def test_same_mentions_and_quote_count_as_with_sentences(self, pattern_set):
        rng = random.Random(61)
        bodies = [article(random_body(rng), i) for i in range(300)] + list(random_corpus(rng, 100))
        for art in bodies:
            with_spans = extract_mentions(art, pattern_set, sentences=True)
            without = extract_mentions(art, pattern_set)
            assert without.mentions == with_spans.mentions == naive_extract(art, pattern_set)
            assert without.direct_quote_count == with_spans.direct_quote_count
            assert without.sentences == () and with_spans.sentences == tuple(
                (span.start, span.end) for span in segment(art.body)
            )

    def test_body_that_cannot_cite_is_not_segmented(self, pattern_set, monkeypatch):
        segmented = []
        monkeypatch.setattr(extractor, "segment", lambda text, quotes: segmented.append(text) or segment(text, quotes))
        quiet, cited = "The council met. Residents waited.", "The council met. She tweeted about it."
        extract_mentions(article(quiet), pattern_set)
        assert segmented == []
        extract_mentions(article(cited), pattern_set)
        extract_mentions(article(quiet), pattern_set, sentences=True)
        assert segmented == [cited, quiet]


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


class TestMapChunksIsLazy:
    """map_chunks reads its articles only as the window needs them."""

    @staticmethod
    def counting(articles, pulled):
        for article in articles:
            pulled.append(article.id)
            yield article

    def test_serial_reads_one_article_per_result(self, pattern_set):
        corpus = random_corpus(random.Random(8), 30)
        pulled, results = [], []
        for result in map_chunks(extract_chunk, self.counting(corpus, pulled), (pattern_set,)):
            results.append(result)
            assert len(pulled) == len(results)
        assert results == extract_corpus(corpus, pattern_set)

    def test_workers_read_at_most_the_window_ahead(self, pattern_set, monkeypatch):
        monkeypatch.setattr(extractor, "CHUNK_ARTICLES", 3)
        monkeypatch.setattr(extractor, "CHUNKS_PER_WORKER", 2)
        window = 3 * 2 * 2
        corpus = random_corpus(random.Random(9), 61)
        pulled, results, ahead = [], [], []
        for result in map_chunks(extract_chunk, self.counting(corpus, pulled), (pattern_set,), workers=2):
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
        results = map_chunks(extract_chunk, self.counting(corpus, pulled), (pattern_set,), workers=2)
        assert next(results) == extract_mentions(corpus.articles[0], pattern_set)
        workers = set(multiprocessing.active_children()) - before
        assert workers
        results.close()
        for worker in workers:
            worker.join(timeout=10)
        assert not [worker for worker in workers if worker.is_alive()]
        assert len(pulled) <= 3 * 2 * 2


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
    assert list(record) == [
        "article_id", "sentence_index", "platform", "kind", "pattern_id", "span_start", "span_end",
    ]
    assert record["platform"] == "twitter"
    assert record["kind"] == "quotation"
