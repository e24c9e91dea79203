import random
import re
import sys

import pytest

from conftest import random_body

from sourcescope.patterns import (
    _PAIR_TABLE,
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
    match_patterns,
)


def write_tsv(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadPatterns:
    def test_minimal_file(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\tshe tweeted", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        assert len(ps.patterns) == 2
        assert ps.count(Platform.TWITTER) == 1

    def test_duplicate_rejected(self, tmp_path):
        path = write_tsv(
            tmp_path / "p.tsv",
            ["twitter\tshe tweeted", "facebook\tposted on facebook", "twitter\tshe  tweeted"],
        )
        with pytest.raises(PatternFileError, match="duplicate"):
            load_patterns(path)

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
        assert ps.count(Platform.TWITTER) >= 78
        assert ps.count(Platform.FACEBOOK) >= 134
        # bundled counts are documented in the version string
        assert str(ps.count(Platform.FACEBOOK)) in ps.version
        assert str(ps.count(Platform.TWITTER)) in ps.version

    def test_phrases_normalized_lowercase(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\t She  TWEETED ", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        phrases = {p.phrase for p in ps.patterns}
        assert "she tweeted" in phrases


class TestMatchPatterns:
    def test_trump_tweeted(self, pattern_set):
        hits = match_patterns('"So sad!" Trump tweeted.', pattern_set)
        assert [(h.platform, '"So sad!" Trump tweeted.'[h.start:h.end]) for h in hits] == [
            (Platform.TWITTER, "tweeted")
        ]

    def test_took_to_twitter(self, pattern_set):
        s = "He took to Twitter on Monday."
        hits = match_patterns(s, pattern_set)
        assert any(s[h.start:h.end].lower() == "took to twitter" for h in hits)

    def test_post_office_no_hit(self, pattern_set):
        assert match_patterns("The post office reopened.", pattern_set) == []

    def test_word_boundary(self, pattern_set):
        # "tweeted" must not match inside "retweeted"; the "retweet" stem does
        hits = match_patterns("He retweeted it.", pattern_set)
        assert len(hits) == 1
        assert "He retweeted it."[hits[0].start:hits[0].end].lower() == "retweet"

    def test_left_anchoring_span_is_phrase(self, tmp_path):
        path = write_tsv(tmp_path / "p.tsv", ["twitter\ttweet\tleft", "facebook\tposted on facebook"])
        ps = load_patterns(path)
        s = "Her tweets went viral."
        hits = [h for h in match_patterns(s, ps) if h.platform == Platform.TWITTER]
        assert len(hits) == 1
        assert s[hits[0].start:hits[0].end].lower() == "tweet"

    def test_case_insensitive_property(self, pattern_set):
        rng = random.Random(5)
        for _ in range(50):
            s = random_body(rng, n_sentences=1)
            a = [(h.pattern_id, h.start, h.end) for h in match_patterns(s, pattern_set)]
            b = [(h.pattern_id, h.start, h.end) for h in match_patterns(s.lower(), pattern_set)]
            assert a == b

    def test_hit_text_equals_phrase_property(self, pattern_set):
        by_id = {p.id: p for p in pattern_set.patterns}
        rng = random.Random(6)
        for _ in range(100):
            s = random_body(rng, n_sentences=2)
            for h in match_patterns(s, pattern_set):
                normalized = " ".join(s[h.start:h.end].lower().split())
                assert normalized == by_id[h.pattern_id].phrase

    def test_overlapping_hits_all_reported(self, tmp_path):
        path = write_tsv(
            tmp_path / "p.tsv",
            ["twitter\ttook to twitter", "twitter\ttwitter", "facebook\tposted on facebook"],
        )
        ps = load_patterns(path)
        hits = match_patterns("She took to Twitter.", ps)
        assert len(hits) == 2
        assert hits[0].start <= hits[1].start

    def test_whitespace_flexible_match(self, pattern_set):
        s = "He took  to\tTwitter yesterday."
        hits = match_patterns(s, pattern_set)
        assert any(" ".join(s[h.start:h.end].lower().split()) == "took to twitter" for h in hits)


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
        assert [(h.pattern_id, h.start, h.end) for h in match_patterns(sentence, ps)] == expected


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


class TestDetectEmbedding:
    def test_attribution_line(self):
        assert find_embedding_span("— Donald J. Trump (@realDonaldTrump) July 25, 2018") is not None

    def test_pic_link(self):
        assert find_embedding_span("see pic.twitter.com/AbC123 here") is not None

    def test_status_link(self):
        assert find_embedding_span("at twitter.com/jack/status/20 today") is not None

    def test_facebook_never(self):
        assert find_embedding_span("She posted a photo on Facebook.") is None

    def test_span_within_sentence_fuzz(self):
        rng = random.Random(11)
        hits = 0
        for _ in range(300):
            sentence = random_body(rng, n_sentences=1)
            span = find_embedding_span(sentence)
            if span is not None:
                hits += 1
                start, end = span
                assert 0 <= start < end <= len(sentence)
        assert hits

    def test_plain_dash_attribution(self):
        assert find_embedding_span("- Jane Roe (@jroe) Sept 3, 2015") is not None


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
        assert text[spans[0].start:spans[0].end] == "I'm just going to pay my respects,"

    def test_no_marks(self):
        assert extract_quote_spans("plain text with no marks") == []

    @pytest.mark.parametrize("open_mark, close_mark", _PAIR_TABLE)
    def test_every_table_pair_yields_a_span(self, open_mark, close_mark):
        text = f"He wrote {open_mark}all done{close_mark} today"
        spans = extract_quote_spans(text)
        assert [(text[s.start:s.end], s.open_mark, s.close_mark) for s in spans] == [
            ("all done", open_mark, close_mark)
        ]
        assert open_mark[0] in OPENING_QUOTE_CHARS

    def test_two_spans(self):
        text = '"a" and "b"'
        spans = extract_quote_spans(text)
        assert [text[s.start:s.end] for s in spans] == ["a", "b"]

    def test_trailing_open_yields_no_span(self):
        assert extract_quote_spans('he said "and never finished') == []

    def test_curly_pairing_with_inner_apostrophe(self):
        text = "“It’s fine,” she said, ‘really’"
        spans = extract_quote_spans(text)
        assert [text[s.start:s.end] for s in spans] == ["It’s fine,", "really"]

    def test_spans_exclude_marks_and_never_overlap(self):
        rng = random.Random(13)
        for _ in range(200):
            text = random_body(rng)
            spans = extract_quote_spans(text)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start
            for s in spans:
                assert s.start <= s.end
                content = text[s.start:s.end]
                assert s.open_mark not in ("",) and s.close_mark
                # the delimiting marks sit just outside the span
                assert text[s.start - len(s.open_mark):s.start] == s.open_mark
                assert text[s.end:s.end + len(s.close_mark)] == s.close_mark
                assert content == content  # span extraction valid


def test_pattern_set_rejects_unnormalized_phrase():
    with pytest.raises(PatternFileError):
        PatternSet(
            [
                CitationPattern("x", Platform.TWITTER, "She Tweeted"),
                CitationPattern("y", Platform.FACEBOOK, "posted on facebook"),
            ]
        )
