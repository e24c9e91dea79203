import pickle
import random
import re
import sys
from collections import Counter

import pytest

from conftest import GOLDEN_CORPUS, extract_all, random_body, random_corpus, read_articles

from sourcescope import patterns
from sourcescope.extractor import classify_sentence, extract_mentions
from sourcescope.patterns import (
    _ATTRIBUTION_RE,
    _PAIR_TABLE,
    _PIC_LINK_RE,
    _STATUS_LINK_RE,
    _prescreen_words,
    OPENING_QUOTE_CHARS,
    CitationPattern,
    PatternFileError,
    PatternSet,
    Platform,
    contains_quote_signs,
    default_patterns,
    extract_quote_spans,
    find_embedding_span,
    fold_case,
    load_patterns,
)
from sourcescope.segmenter import segment


def count(pattern_set, platform):
    return sum(1 for p in pattern_set.patterns if p.platform == platform)


def write_tsv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadPatterns:
    def test_minimal_file(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\tshe tweeted", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        assert len(ps.patterns) == 2
        assert count(ps, Platform.TWITTER) == 1

    def test_duplicate_rejected(self, tmp_path):
        path = write_tsv(
            tmp_path / "p.tsv",
            ["twitter\tshe tweeted", "facebook\tposted on facebook", "twitter\tshe  tweeted"],
        )
        with pytest.raises(PatternFileError, match=r"^line 3: duplicate pattern \(twitter, 'she tweeted'\)$"):
            load_patterns(path)
        path = write_tsv(tmp_path / "p.tsv", ["twitter\tshe tweeted", "TWITTER\tShe Tweeted\tleft"])
        with pytest.raises(PatternFileError, match="^line 2: duplicate"):
            load_patterns(path)

    def test_fold_equal_duplicate_rejected(self, tmp_path):
        # 'ı' and 'ſ' match what 'i' and 's' match, so each pair would hit the same text twice
        for first, second in [("twit storm", "twıt storm"), ("she posted", "she poſted")]:
            pats = [CitationPattern("a", Platform.TWITTER, first), CitationPattern("b", Platform.TWITTER, second)]
            with pytest.raises(PatternFileError, match=f"^duplicate pattern \\(twitter, '{second}'\\)$"):
                PatternSet([*pats, CitationPattern("c", Platform.FACEBOOK, "posted on facebook")])
            path = write_tsv(tmp_path / "p.tsv", ["facebook\tposted on facebook", f"twitter\t{first}", f"twitter\t{second}"])
            with pytest.raises(PatternFileError, match="^line 3: duplicate"):
                load_patterns(path)
        # the same phrase on the other platform is no duplicate
        path = write_tsv(tmp_path / "p.tsv", ["facebook\ttwit storm", "twitter\ttwıt storm"])
        assert len(load_patterns(path).patterns) == 2

    @pytest.mark.parametrize(
        "row, reason",
        [("twitter\t   ", "empty phrase"), ("twitter\tshe tweeted\tright", "unknown anchored value 'right'")],
        ids=["empty-phrase", "unknown-anchoring"],
    )
    def test_bad_row_names_line(self, tmp_path, row, reason):
        path = write_tsv(tmp_path / "p.tsv", ["# version: x", "facebook\tposted on facebook", row])
        with pytest.raises(PatternFileError, match=f"^line 3: {reason}$"):
            load_patterns(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["", "twitter\tshe tweeted", "  \t ", "facebook\tposted on facebook", ""])
        assert [p.phrase for p in load_patterns(path).patterns] == ["she tweeted", "posted on facebook"]

    def test_unknown_platform_names_line(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["myspace\tposted on myspace"])
        with pytest.raises(PatternFileError, match="line 1"):
            load_patterns(path)

    def test_invalid_utf8_names_line_and_byte(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"# version: x\r\ntwitter\tshe tw\xffeeted\nfacebook\tposted on facebook\n")
        with pytest.raises(PatternFileError, match=r"^line 2: invalid UTF-8 at byte offset 14$"):
            load_patterns(path)

    def test_crlf_lines_load_as_lf_lines(self, tmp_path):
        lf = write_tsv(tmp_path / "lf.tsv", ["# version: v1", "twitter\tshe tweeted\tleft", "facebook\tposted on facebook"])
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_patterns(crlf).patterns == load_patterns(lf).patterns
        assert load_patterns(crlf).version == "v1"

    def test_empty_file_rejected(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["# only a comment"])
        with pytest.raises(PatternFileError, match="empty"):
            load_patterns(path)

    def test_requires_both_platforms(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\tshe tweeted"])
        with pytest.raises(PatternFileError, match="facebook"):
            load_patterns(path)

    def test_bundled_default_counts(self):
        ps = default_patterns()
        assert count(ps, Platform.TWITTER) >= 78
        assert count(ps, Platform.FACEBOOK) >= 134
        # bundled counts are documented in the version string
        assert str(count(ps, Platform.FACEBOOK)) in ps.version
        assert str(count(ps, Platform.TWITTER)) in ps.version

    def test_phrases_normalized_lowercase(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\t She  TWEETED ", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        phrases = {p.phrase for p in ps.patterns}
        assert "she tweeted" in phrases


def first_hits(sentence, pattern_set):
    """(pattern_id, platform, start, end) of each Quotation or Paraphrase that classify_sentence emits."""
    out = classify_sentence(sentence, fold_case(sentence), pattern_set)
    return [(pid, platform, start, end) for platform, _, (start, end), pid in out if pid is not None]


class TestMatchPatterns:
    def test_trump_tweeted(self, pattern_set):
        s = '"So sad!" Trump tweeted.'
        assert [(platform, s[start:end]) for _, platform, start, end in first_hits(s, pattern_set)] == [
            (Platform.TWITTER, "tweeted")
        ]

    def test_took_to_twitter(self, pattern_set):
        s = "He took to Twitter on Monday."
        assert any(s[start:end].lower() == "took to twitter" for _, _, start, end in first_hits(s, pattern_set))

    def test_post_office_no_hit(self, pattern_set):
        assert first_hits("The post office reopened.", pattern_set) == []

    def test_word_boundary(self, pattern_set):
        # "tweeted" must not match inside "retweeted"; the "retweet" stem does
        found = first_hits("He retweeted it.", pattern_set)
        assert len(found) == 1
        assert "He retweeted it."[found[0][2]:found[0][3]].lower() == "retweet"
        # the "retweet" hit starts first, so check "tweeted" on its own too
        tweeted = PatternSet([CitationPattern("tw", Platform.TWITTER, "tweeted"),
                              CitationPattern("fb", Platform.FACEBOOK, "posted on facebook")])
        assert first_hits("He retweeted it.", tweeted) == []

    def test_left_anchoring_span_is_phrase(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\ttweet\tleft", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        s = "Her tweets went viral."
        found = [h for h in first_hits(s, ps) if h[1] == Platform.TWITTER]
        assert len(found) == 1
        assert s[found[0][2]:found[0][3]].lower() == "tweet"

    def test_case_insensitive_property(self, pattern_set):
        rng = random.Random(5)
        for _ in range(50):
            s = random_body(rng, n_sentences=1)
            assert first_hits(s, pattern_set) == first_hits(s.lower(), pattern_set)

    def test_hit_text_equals_phrase_property(self, pattern_set):
        by_id = {p.id: p for p in pattern_set.patterns}
        rng = random.Random(6)
        for _ in range(100):
            s = random_body(rng, n_sentences=2)
            for pid, _, start, end in first_hits(s, pattern_set):
                normalized = " ".join(s[start:end].lower().split())
                assert normalized == by_id[pid].phrase

    def test_overlapping_hits_the_least_is_emitted(self, tmp_path):
        path = write_tsv(
            tmp_path / "p.tsv",
            ["twitter\ttwitter", "twitter\ttook to twitter", "facebook\tposted on facebook"],
        )
        ps = load_patterns(path)
        s = "She took to Twitter."
        alone = load_patterns(write_tsv(tmp_path / "a.tsv", ["twitter\ttwitter", "facebook\tposted on facebook"]))
        assert first_hits(s, alone) == [("tw-001", Platform.TWITTER, 12, 19)]
        # both Twitter phrases hit; the one emission is the least (start, end, pattern id)
        assert first_hits(s, ps) == [("tw-002", Platform.TWITTER, 4, 19)]

    def test_whitespace_flexible_match(self, pattern_set):
        s = "He took  to\tTwitter yesterday."
        found = first_hits(s, pattern_set)
        assert any(" ".join(s[start:end].lower().split()) == "took to twitter" for _, _, start, end in found)

    @pytest.mark.parametrize(
        "phrase, sentence, expected",
        [
            # no platform word: filed under its longest word, matched across a whitespace run
            ("said in a statement", "He said in  a\nstatement today.", [("tw-001", 3, 23)]),
            # IGNORECASE matches the micro sign to 'μ', which lower() keeps apart
            ("sent 5 μs later", "It sent 5 µs later.", [("tw-001", 3, 18)]),
            ("μήνυμα", "Ένα µήνυμα.", [("tw-001", 4, 10)]),
        ],
    )
    def test_custom_phrase_without_platform_word(self, tmp_path, phrase, sentence, expected):
        ps = load_patterns(write_tsv(tmp_path / "p.tsv", [f"twitter\t{phrase}", "facebook\tposted on facebook"]))
        assert [(pid, start, end) for pid, _, start, end in first_hits(sentence, ps)] == expected


class TestCompileAtFirstRun:
    @staticmethod
    def spy(monkeypatch) -> list:
        """The phrases that _compile_phrase compiles from now on, in call order."""
        compiled = []
        compile_phrase = patterns._compile_phrase

        def spying(phrase, anchored):
            compiled.append(phrase)
            return compile_phrase(phrase, anchored)

        monkeypatch.setattr(patterns, "_compile_phrase", spying)
        return compiled

    def test_loading_the_bundled_set_compiles_no_phrase(self, monkeypatch):
        compiled = self.spy(monkeypatch)
        ps = default_patterns.__wrapped__()  # a fresh load, not the cached set
        assert len(ps.patterns) >= 212 and compiled == []

    def test_extraction_compiles_each_phrase_once_and_only_past_its_prescreen(self, monkeypatch):
        compiled = self.spy(monkeypatch)
        ps = default_patterns.__wrapped__()
        corpus = read_articles(GOLDEN_CORPUS)
        for _ in range(2):  # the second pass compiles nothing
            results = extract_all(corpus, ps)
        assert len(compiled) == len(set(compiled))
        passed = set()  # the phrases whose prescreen some sentence of the corpus passes
        for article in corpus:
            for start, end in segment(article.body, extract_quote_spans(article.body)):
                folded = fold_case(article.body[start:end])
                words = {word.encode() for word in re.findall(r"\w+", folded)}
                for pat in ps.patterns:
                    key, required = _prescreen_words(pat.phrase, pat.anchored)
                    if key in folded and required <= words:
                        passed.add(pat.phrase)
        assert set(compiled) == passed
        hit = {pat.phrase for pat in ps.patterns
               if any(m.pattern_id == pat.id for result in results for m in result.mentions)}
        assert hit and hit <= passed and len(passed) < len(ps.patterns)

    def test_a_set_pickled_before_or_after_use_matches_as_a_fresh_one(self):
        # the spawn and forkserver workers unpickle the set; a regex compiled before the pickle comes along
        rng = random.Random(12)
        phrases = [pat.phrase for pat in default_patterns().patterns]
        sentences = [
            f"{random_body(rng, 1)} {rng.choice([str.upper, str.title, str])(rng.choice(phrases))} "
            f"{random_body(rng, 1)}" if rng.random() < 0.7 else random_body(rng, 2)
            for _ in range(300)
        ]
        articles = [article._replace(body=" ".join(sentences[i::40]))
                    for i, article in enumerate(random_corpus(rng, 40))]
        used = default_patterns.__wrapped__()
        for sentence in sentences[::2]:
            classify_sentence(sentence, fold_case(sentence), used)
        assert any(entry[2] for filed in used._groups.values() for entries in filed.values() for entry in entries)
        before = pickle.loads(pickle.dumps(default_patterns.__wrapped__()))
        after = pickle.loads(pickle.dumps(used))

        def results(ps):
            classified = [classify_sentence(s, fold_case(s), ps) for s in sentences]
            return classified, [extract_mentions(a, ps) for a in articles]

        expected = results(default_patterns.__wrapped__())
        assert any(expected[0]) and results(before) == expected and results(after) == expected


def test_fold_case_is_exact_on_every_code_point():
    """The prescreens look for ASCII words in fold_case(text) and the regexes run on text.

    That finds every hit only if, for each ASCII letter a and code point c,
    re.IGNORECASE matches c to a exactly when fold_case(c) == a; the labeler
    and the offsets also need fold_case to keep one character per character
    and to keep word characters apart from the rest. A Python whose Unicode
    tables add a case fold onto ASCII fails here.
    """
    letter = re.compile("[a-z]", re.IGNORECASE).fullmatch
    word = re.compile(r"\w").match
    folds_onto_ascii = []
    for cp in range(sys.maxunicode + 1):
        if 0xD800 <= cp <= 0xDFFF:  # surrogates
            continue
        c = chr(cp)
        folded = fold_case(c)
        if letter(c):
            assert "a" <= folded <= "z" and re.fullmatch(folded, c, re.IGNORECASE), c
            if not c.isascii():
                folds_onto_ascii.append(c)
        else:
            assert not "a" <= folded <= "z", c
        # fold_case(c) is c.lower() but for 'İ', whose lower() is the only one longer
        assert len(folded) == 1 and (word(folded) is None) == (word(c) is None), c
    assert folds_onto_ascii == ["İ", "ı", "ſ", "\u212a"]


def test_fold_case_keeps_every_other_ascii_character_and_whitespace_apart():
    """An ASCII phrase's regex runs case-sensitively on fold_case(text) in place of re.IGNORECASE on text.

    Beside the letters above, that needs each other ASCII character to stand
    for itself alone: no non-ASCII character folds to it, and re.IGNORECASE
    matches none to it. The \\s separators must also find the same
    characters in both texts.
    """
    text = "".join(chr(cp) for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF)
    folded = fold_case(text)
    assert len(folded) == len(text) and text[:128].isascii() and not text[128].isascii()
    non_letters = [chr(cp) for cp in range(128) if not chr(cp).isalpha()]
    assert not set(folded[128:]) & set(non_letters)
    for c in non_letters:
        assert re.search(re.escape(c), text[128:], re.IGNORECASE) is None, c
    assert [m.start() for m in re.finditer(r"\s", folded)] == [m.start() for m in re.finditer(r"\s", text)]


class TestDetectEmbedding:
    def test_attribution_line(self):
        s = "— Donald J. Trump (@realDonaldTrump) July 25, 2018"
        assert find_embedding_span(s, fold_case(s)) is not None

    def test_pic_link(self):
        s = "see pic.twitter.com/AbC123 here"
        assert find_embedding_span(s, fold_case(s)) is not None

    def test_status_link(self):
        s = "at twitter.com/jack/status/20 today"
        assert find_embedding_span(s, fold_case(s)) is not None

    def test_facebook_never(self):
        s = "She posted a photo on Facebook."
        assert find_embedding_span(s, fold_case(s)) is None

    def test_span_within_sentence_fuzz(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(300):
            sentence = random_body(rng, n_sentences=1)
            span = find_embedding_span(sentence, fold_case(sentence))
            if span is not None:
                hits += 1
                start, end = span
                assert 0 <= start < end <= len(sentence)
        assert hits

    def test_plain_dash_attribution(self):
        s = "- Jane Roe (@jroe) Sept 3, 2015"
        assert find_embedding_span(s, fold_case(s)) is not None

    @pytest.mark.parametrize(
        "sentence, rule",
        [
            ("Photo: pic.Twitter.com/abc123", "pic"),
            ("See Twitter.com/ann/status/123 now.", "status"),
            ("PIC.TWITTER.COM/Xy9 was shared.", "pic"),
            ("Read twıtter.com/ann/status/1 first.", "status"),  # dotless ı
        ],
    )
    def test_link_in_any_case(self, sentence, rule):
        rx = {"pic": _PIC_LINK_RE, "status": _STATUS_LINK_RE}[rule]
        assert find_embedding_span(sentence, fold_case(sentence)) == rx.search(sentence).span()

    def test_prescreen_equals_the_rules_run_unscreened(self):
        """On markers in random case and fold letters, the span is the first match of the three rules."""
        rng = random.Random(31)
        markers = (
            "— Ann Lee (@annlee) May 4, 2016",
            "pic.twitter.com/Ab12",
            "twitter.com/ann/status/123",
            "twitter.com/ann/statuses/9",
            "twitter.com/ann",
            "( @ann) May 4, 2016",
        )
        found = Counter()
        for _ in range(4000):
            marker = "".join(
                {"i": rng.choice("İı"), "s": "ſ"}.get(c.lower(), c) if rng.random() < 0.1 else rng.choice((c, c.upper()))
                for c in rng.choice(markers)
            )
            sentence = rng.choice(("", "Read ", "— ", "see:")) + marker + rng.choice(("", ".", " now."))
            matches = (rx.search(sentence) for rx in (_ATTRIBUTION_RE, _PIC_LINK_RE, _STATUS_LINK_RE))
            expected = next((m.span() for m in matches if m), None)
            assert find_embedding_span(sentence, fold_case(sentence)) == expected, sentence
            found["span" if expected else "none"] += 1
            found["only when folded"] += bool(expected) and "(@" not in sentence and "twitter.com" not in sentence
        assert found["none"] and found["only when folded"] > 1000, found


class TestQuoteSigns:
    def test_straight_double(self):
        assert contains_quote_signs('he said "never"') is True

    def test_paraphrase_no_signs(self):
        assert contains_quote_signs("she tweeted that she was glad to have lost 6 pounds") is False

    def test_lone_apostrophe(self):
        assert contains_quote_signs("don't") is False
        assert contains_quote_signs("don’t worry, it wasn’t over") is False

    def test_paired_straight_singles(self):
        assert contains_quote_signs("he called it 'fake news' again") is True

    def test_curly_doubles(self):
        assert contains_quote_signs("“done” she said") is True

    def test_curly_singles(self):
        assert contains_quote_signs("it was ‘over’ by then") is True

    @pytest.mark.parametrize("mark", ["'", "’"])
    def test_lone_possessive_is_not_a_sign(self, mark):
        assert contains_quote_signs(f"The players{mark} union posted on Facebook that talks had stalled.") is False

    def test_curly_closing_marks_in_a_pair_are_a_sign(self):
        assert contains_quote_signs("they were told to ’stay home’ for now") is True

    def test_guillemets(self):
        assert contains_quote_signs("«non»") is True

    def test_backticks(self):
        assert contains_quote_signs("``quoted'' text") is True

    @pytest.mark.parametrize("mark", sorted({m for pair in _PAIR_TABLE for m in pair} - {"'", "’"}))
    def test_every_non_apostrophe_mark_is_a_sign_alone(self, mark):
        assert contains_quote_signs(f"it was {mark} over") is True


class TestQuoteSpans:
    def test_simple_quote(self):
        text = '"I\'m just going to pay my respects," Trump told Fox News'
        spans = extract_quote_spans(text)
        assert len(spans) == 1
        start, end = spans[0]
        assert text[start:end] == "I'm just going to pay my respects,"

    def test_no_marks(self):
        assert extract_quote_spans("plain text with no marks") == []

    @pytest.mark.parametrize("open_mark, close_mark", _PAIR_TABLE)
    def test_every_table_pair_yields_a_span(self, open_mark, close_mark):
        text = f"He wrote {open_mark}all done{close_mark} today"
        spans = extract_quote_spans(text)
        assert [(text[start - len(open_mark):start], text[start:end], text[end:end + len(close_mark)])
                for start, end in spans] == [(open_mark, "all done", close_mark)]
        assert open_mark[0] in OPENING_QUOTE_CHARS

    def test_two_spans(self):
        text = '"a" and "b"'
        spans = extract_quote_spans(text)
        assert [text[start:end] for start, end in spans] == ["a", "b"]

    def test_trailing_open_yields_no_span(self):
        assert extract_quote_spans('he said "and never finished') == []

    def test_curly_pairing_with_inner_apostrophe(self):
        text = "“It’s fine,” she said, ‘really’"
        spans = extract_quote_spans(text)
        assert [text[start:end] for start, end in spans] == ["It’s fine,", "really"]

    def test_spans_exclude_marks_and_never_overlap(self):
        rng = random.Random(13)
        for _ in range(200):
            text = random_body(rng)
            spans = extract_quote_spans(text)
            for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
                assert a_end <= b_start
            for start, end in spans:
                assert start <= end
                # the delimiting marks sit just outside the span: an open mark of the table, then its close
                assert any(text[:start].endswith(open_mark) and text.startswith(close_mark, end)
                           for open_mark, close_mark in _PAIR_TABLE), (text, start, end)


def test_pattern_set_rejects_unnormalized_phrase():
    with pytest.raises(PatternFileError):
        PatternSet(
            [
                CitationPattern("x", Platform.TWITTER, "She Tweeted"),
                CitationPattern("y", Platform.FACEBOOK, "posted on facebook"),
            ]
        )


# --- quote-span oracle ---

# every mark of the table, with letters, digits and spaces for the apostrophe test's flanks
_ORACLE_MARKS = sorted({m for pair in _PAIR_TABLE for m in pair})
_ORACLE_FLANKS = ["a", "Z", "é", "7", "٣", " ", "\n", ",", "it", "x9"]
_ORACLE_MARK_RE = re.compile("|".join(re.escape(m) for m in sorted(_ORACLE_MARKS, key=len, reverse=True)))


def _oracle_is_apostrophe(text, pos):
    return 0 < pos < len(text) - 1 and text[pos - 1].isalnum() and text[pos + 1].isalnum()


def naive_quote_spans(text):
    """The quote-span scan as first written: a reference for extract_quote_spans, as (start, end, open, close)."""
    pairs = dict(_PAIR_TABLE)
    spans = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _ORACLE_MARK_RE.search(text, pos)
        if m is None:
            break
        mark = m.group()
        open_mark = mark if mark in pairs else None
        if open_mark in ("'",) and _oracle_is_apostrophe(text, m.start()):
            open_mark = None
        if open_mark is None:
            pos = m.end()
            continue

        close_mark = pairs[open_mark]
        content_start = m.end()
        search_from = content_start
        closed_at = -1
        while True:
            k = text.find(close_mark, search_from)
            if k < 0:
                break
            if close_mark in ("'", "’") and _oracle_is_apostrophe(text, k):
                search_from = k + 1
                continue
            closed_at = k
            break
        if closed_at < 0:
            # unbalanced open: keep scanning after it
            pos = content_start
            continue
        spans.append((content_start, closed_at, open_mark, close_mark))
        pos = closed_at + len(close_mark)
    return spans


def quote_oracle_text(rng):
    """A short string of marks and flanks: edges, adjacent runs and unclosed opens all occur."""
    out = []
    for _ in range(rng.randint(0, 12)):
        out.append(rng.choice(_ORACLE_MARKS if rng.random() < 0.45 else _ORACLE_FLANKS))
    return "".join(out)


def test_naive_quote_spans_agrees_with_examples():
    assert naive_quote_spans("it's 'ok'") == [(6, 8, "'", "'")]
    assert naive_quote_spans("“It’s fine,” she said") == [(1, 11, "“", "”")]
    assert naive_quote_spans('a "b') == []
    assert naive_quote_spans("``x''") == [(2, 3, "``", "''")]


def test_quote_spans_equal_naive_oracle():
    rng = random.Random(2718)
    pairs_seen = set()
    for _ in range(50000):
        text = quote_oracle_text(rng)
        expected = naive_quote_spans(text)
        assert extract_quote_spans(text) == [(start, end) for start, end, _, _ in expected], text
        pairs_seen.update((open_mark, close_mark) for _, _, open_mark, close_mark in expected)
    assert pairs_seen == set(_PAIR_TABLE)
