import itertools
import random
import re
import string
import sys
from bisect import bisect_right

from conftest import random_body

from sourcescope.patterns import OPENING_QUOTE_CHARS, extract_quote_spans, fold_case
from sourcescope.segmenter import _TERMINATOR_RE, ABBREVIATIONS, segment


def sentences(text):
    return [text[s.start:s.end] for s in segment(text)]


def test_empty_text():
    assert segment("") == []


def test_two_sentences():
    assert sentences("He tweeted. She replied!") == ["He tweeted.", "She replied!"]


def test_abbreviation_does_not_split():
    assert sentences("Mr. Trump posted on Facebook.") == ["Mr. Trump posted on Facebook."]


def test_more_abbreviations():
    text = "The U.S. Senate met at 9 a.m. Dr. Lee spoke."
    # "a.m." is an abbreviation, "Dr." too; no split inside either
    assert sentences(text) == ["The U.S. Senate met at 9 a.m. Dr. Lee spoke."]


def test_single_initial_does_not_split():
    assert sentences("Donald J. Trump arrived.") == ["Donald J. Trump arrived."]


def test_split_requires_uppercase_or_quote():
    assert sentences("visit example.com for more. the end") == ["visit example.com for more. the end"]
    assert sentences('He left. "Stay," she said.') == ["He left.", '"Stay," she said.']


def test_terminator_inside_quotes_does_not_split():
    text = '"So sad!" Trump tweeted.'
    assert sentences(text) == [text]


def test_paragraph_break_always_splits():
    assert sentences("first line\n\nSecond line") == ["first line", "Second line"]
    assert sentences("no terminator here\n\nand none here") == [
        "no terminator here",
        "and none here",
    ]


def _check_invariants(text):
    spans = segment(text)
    for i, span in enumerate(spans):
        assert span.index == i
        assert 0 <= span.start < span.end <= len(text)
        # spans are trimmed
        assert not text[span.start].isspace()
        assert not text[span.end - 1].isspace()
    # strict ordering, no overlap
    for a, b in zip(spans, spans[1:]):
        assert a.end <= b.start
    # coverage: every non-whitespace character in exactly one span
    covered = [False] * len(text)
    for span in spans:
        for i in range(span.start, span.end):
            assert not covered[i]
            covered[i] = True
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert covered[i], f"char {i!r} at {i} not covered"
    return spans


def test_invariants_on_random_bodies():
    rng = random.Random(2024)
    for _ in range(200):
        _check_invariants(random_body(rng))


def test_idempotence_on_extracted_sentences():
    rng = random.Random(77)
    for _ in range(100):
        text = random_body(rng)
        for span in segment(text):
            sentence = text[span.start:span.end]
            again = segment(sentence)
            assert len(again) == 1
            assert (again[0].start, again[0].end) == (0, len(sentence))


def test_pure_function():
    text = "He tweeted. She replied! Mr. Lee wrote on Facebook."
    assert segment(text) == segment(text)


# --- oracle: the earlier segmenter, walking tokens and whitespace char by char ---

_NAIVE_TERMINATOR_RE = re.compile(r"[.!?]+")
_NAIVE_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n")


def _token_ending_at(text, end):
    start = end
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:end]


def naive_segment(text):
    splits = set()
    for m in _NAIVE_PARAGRAPH_RE.finditer(text):
        splits.add(m.start())
    quote_regions = [(q.start, q.end) for q in extract_quote_spans(text)]
    region_starts = [r[0] for r in quote_regions]

    def inside_quote(pos):
        i = bisect_right(region_starts, pos) - 1
        return i >= 0 and pos < quote_regions[i][1]

    for m in _NAIVE_TERMINATOR_RE.finditer(text):
        end = m.end()
        if end >= len(text):
            continue
        if not text[end].isspace():
            continue
        nxt = end
        while nxt < len(text) and text[nxt].isspace():
            nxt += 1
        if nxt < len(text) and not (text[nxt].isupper() or text[nxt] in OPENING_QUOTE_CHARS):
            continue
        if inside_quote(m.start()):
            continue
        if m.group() == ".":
            token = _token_ending_at(text, end)
            if token.lower() in ABBREVIATIONS:
                continue
            if len(token) == 2 and token[0].isupper():
                continue
        splits.add(end)

    spans = []
    prev = 0
    for boundary in sorted(splits) + [len(text)]:
        segment_text = text[prev:boundary]
        left = len(segment_text) - len(segment_text.lstrip())
        right = len(segment_text.rstrip())
        if right > left:
            spans.append((len(spans), prev + left, prev + right))
        prev = boundary
    return spans


_ORACLE_WORDS = (
    "the", "she", "Smith", "Trump", "posted", "Élan", "Ωmega", "ΟΔΥΣΣΕΥΣ", "9", "ab", "abcdefgh",
    "J.", "É.", "x.", "mr.", "Mr.", "MR.", "mRs.", "u.s.", "U.S.", "u.S.", "a.M.", "P.m.", "Etc.",
    "inc.", "GOV.", "co.", "vs.", "xu.s.", "Amr.", "zetc.", "ab.", "Smith.", "abcdef.", "e.g.",
    "İ.", "ſt.", "\u212a.",
)
_ORACLE_TERMINATORS = ("", "", "", ".", ".", "!", "?", "?!.", "...", "!!", ".?")
_ORACLE_SPACES = (
    " ", " ", " ", "  ", "", "\t", "\n", "\n\n", "\n \t\n", "\n\t\n", " \n\t\n ",
    "\x1c", "\x85", "\u2009", "\u3000", "\xa0", "\u2028",
)
_ORACLE_QUOTES = ("``", "''", "\u201c", "\u201d", "\u2018", "\u2019", "\u00ab", "\u00bb", '"', "`", "'")


def oracle_text(rng, spaces=_ORACLE_SPACES):
    out = []
    for k in range(rng.randint(1, 12)):
        if k:
            out.append(rng.choice(spaces))
        if rng.random() < 0.15:
            out.append(rng.choice(_ORACLE_QUOTES))
        out.append(rng.choice(_ORACLE_WORDS))
        out.append(rng.choice(_ORACLE_TERMINATORS))
        if rng.random() < 0.15:
            out.append(rng.choice(_ORACLE_QUOTES))
    if rng.random() < 0.2:
        out.append(rng.choice(spaces))
    return "".join(out)


def test_naive_segment_agrees_with_examples():
    assert naive_segment("He tweeted. She replied!") == [(0, 0, 11), (1, 12, 24)]
    assert naive_segment("J. Smith wrote. The U.S. Senate met.") == [(0, 0, 15), (1, 16, 36)]
    assert naive_segment("He xu.s. Then") == [(0, 0, 8), (1, 9, 13)]


def test_segment_equals_naive_oracle():
    rng = random.Random(4321)
    splits = 0
    for _ in range(50000):
        text = oracle_text(rng)
        expected = naive_segment(text)
        assert [tuple(span) for span in segment(text)] == expected, text
        splits += len(expected) - 1
    assert splits > 50000


# line breaks that are no paragraph break, and spaces around one
_ORACLE_WIDE_SPACES = _ORACLE_SPACES + (
    "\r\n", "\r\n\r\n", " \r\n\n", "\x0b", "\x0c", "\x0c\n\n", "  \n\n", " \t\n\n", "\xa0\n \n\u3000", "\n\n\n",
)


def test_segment_equals_naive_oracle_with_wide_whitespace():
    # a paragraph cut's sentence end is found by stepping back over the whitespace before it
    rng = random.Random(8642)
    splits = 0
    for _ in range(20000):
        text = rng.choice(("", "", "", "\n\n", " \n\t\n", "\r\n ")) + oracle_text(rng, _ORACLE_WIDE_SPACES)
        expected = naive_segment(text)
        assert [tuple(span) for span in segment(text)] == expected, repr(text)
        splits += len(expected) - 1
    assert splits > 20000


# words whose case fold is not str.lower() (İ, ı, ſ) or depends on the neighbours (Σ, final only at a word end)
_FOLD_EDGE_WORDS = ("Σ", "ΑΣ", "ΟΔΥΣΣΕΥΣ", "ΣΑ", "İ", "İt", "ı", "ıs", "ſ", "aſ", "Ann", "the", "ΑΣ'", "'ΣΑ")
_FOLD_EDGE_SEPARATORS = (" ", " ", ". ", "! ", "? ", ".\u3000", "\n\n", "\n \n", ".\n\n", "\t")


def test_one_fold_per_body_slices_into_each_sentence_fold():
    # the premise of extract_mentions folding each body once: a sentence's fold is its slice of the body's fold
    rng = random.Random(25)
    seen = {"final sigma at a sentence end": 0, "special at a sentence start": 0, "special at a sentence end": 0}
    for _ in range(4000):
        pieces = [random_body(rng, 2)] if rng.random() < 0.2 else []
        for _ in range(rng.randint(1, 10)):
            pieces += [rng.choice(_FOLD_EDGE_WORDS), rng.choice(_FOLD_EDGE_SEPARATORS)]
        body = "".join(pieces)
        folded = fold_case(body)
        for span in segment(body):
            sentence = body[span.start:span.end]
            assert folded[span.start:span.end] == fold_case(sentence), repr(body)
            seen["final sigma at a sentence end"] += sentence.rstrip(".!?'").endswith("Σ")
            seen["special at a sentence start"] += sentence.lstrip("'")[0] in "ΣİıſΑ"
            seen["special at a sentence end"] += sentence.rstrip(".!?'")[-1] in "Σİıſ"
    assert min(seen.values()) > 500, seen


_PLUS_TERMINATOR_RE = re.compile(_TERMINATOR_RE.pattern.replace("[.!?][.!?]*", "[.!?]+", 1))
_TERMINATOR_ALPHABET = ".!?" * 3 + " \t\n\x0b\x1c\x85\xa0\u2028\u3000" + "aZ9\xc9\"\u201c'" + "\ud800"


def test_terminator_regex_equals_plus_spelling():
    assert _PLUS_TERMINATOR_RE.pattern != _TERMINATOR_RE.pattern
    rng = random.Random(77)
    for _ in range(20000):
        text = "".join(rng.choice(_TERMINATOR_ALPHABET) for _ in range(rng.randint(0, 24)))
        assert [(m.span(), m.groups()) for m in _TERMINATOR_RE.finditer(text)] == [
            (m.span(), m.groups()) for m in _PLUS_TERMINATOR_RE.finditer(text)
        ], repr(text)


def _kept_run_ends(text):
    """Where segment cuts after a terminator run, quote spans aside: the regex's
    matches that pass segment's tests of a non-ASCII next character or initial."""
    return {m.end() for m in _TERMINATOR_RE.finditer(text)
            if not (m[2] and not m[2].isupper() or m[3] and m[3].isupper())}


def test_terminator_regex_decides_as_the_token_rules():
    # the premise of the regex-side tests: they decide as naive_segment's token rules
    chars = list(map(chr, range(sys.maxunicode + 1)))
    # every case variant of every abbreviation, also with the non-ASCII letters that
    # re.IGNORECASE matches to ASCII ones
    lookalikes = set(re.findall("[a-z]", "".join(chars), re.IGNORECASE)) - set(string.ascii_letters)
    assert lookalikes == {"İ", "ı", "ſ", "\u212a"}
    for abbreviation in ABBREVIATIONS:
        cases = [{c, c.upper(), *(x for x in lookalikes if re.fullmatch(re.escape(c), x, re.IGNORECASE))}
                 for c in abbreviation]
        for variant in map("".join, itertools.product(*cases)):
            for before in ("", " ", "\u3000", "x", "."):
                token = (before + variant).split()[-1]
                kept = len(before + variant) in _kept_run_ends(f"{before}{variant} A")
                assert kept == (token.lower() not in ABBREVIATIONS), before + variant
    # every code point c as a one-letter token, in chunks " c. A": only an upper c can be refused
    kept = _kept_run_ends(" " + ". A ".join(chars) + ". A")
    refused = {
        5 * k + 3 for k in itertools.compress(itertools.count(), map(str.isupper, chars))
        if chars[k] not in ".!?" and len(token := f"{chars[k]}.".split()[-1]) == 2 and token[0].isupper()
    }
    expected = set(range(3, 5 * len(chars), 5)) - refused
    assert kept == expected, sorted(kept ^ expected)[:5]
    # every non-space code point as the next character, in chunks " ab. c"
    nexts = [c for c in chars if not c.isspace()]
    kept = _kept_run_ends(" ab. " + " ab. ".join(nexts))
    accepted = set(itertools.compress(itertools.count(4, 6), map(str.isupper, nexts)))
    accepted |= {6 * nexts.index(quote) + 4 for quote in OPENING_QUOTE_CHARS}
    assert kept == accepted, sorted(kept ^ accepted)[:5]
