"""Citation pattern set: loading, phrase matching, embedding and quote-mark rules."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Optional


class Platform(str, Enum):
    FACEBOOK = "facebook"
    TWITTER = "twitter"


class PatternFileError(ValueError):
    """A pattern file that cannot be loaded."""


@dataclass(frozen=True)
class CitationPattern:
    id: str
    platform: Platform
    phrase: str  # lowercase, single-space separated
    anchored: str = "both"  # "both": word boundary on each side; "left": leading only


@dataclass(frozen=True)
class PatternHit:
    pattern_id: str
    platform: Platform
    start: int
    end: int


@dataclass(frozen=True)
class QuoteSpan:
    start: int  # content offsets, exclusive of the quote marks
    end: int
    open_mark: str
    close_mark: str


def _compile_phrase(phrase: str, anchored: str) -> re.Pattern:
    body = r"\s+".join(re.escape(word) for word in phrase.split())
    left = r"(?<!\w)"
    right = r"(?!\w)" if anchored == "both" else ""
    return re.compile(left + body + right, re.IGNORECASE)


# a phrase is filed under the first of these it contains
_PLATFORM_WORDS = ("facebook", "twitter", "tweet")


def fold_case(text: str) -> str:
    """text lower-cased so that a character re.IGNORECASE matches to an ASCII letter becomes it.

    str.lower() does that for every character but 'İ', 'ı' and 'ſ'. The
    result has one character per character of text, and a character is a
    word character in it iff it is one in text.
    """
    return text.replace("İ", "i").replace("ı", "i").replace("ſ", "s").lower()


def _prescreen_words(phrase: str) -> tuple[str, frozenset[str]]:
    """The phrase's group key and the words a sentence must contain for it to match.

    Only ASCII words are required: re.IGNORECASE can match a non-ASCII
    letter to one that fold_case leaves apart (µ and μ). A phrase without
    a platform word is filed under its longest such word, and under "",
    which every sentence contains, when it has none.
    """
    words = tuple(word for word in phrase.split() if word.isascii())
    key = next((w for w in _PLATFORM_WORDS if w in phrase), None)
    if key is None:
        key = max(words, key=len, default="")
    return key, frozenset(words)


def _check_pattern(pat: CitationPattern, seen: set) -> None:
    """Raise PatternFileError unless a PatternSet can hold pat beside the (platform, phrase) keys in seen; add pat's."""
    if not pat.phrase:
        raise PatternFileError("empty phrase")
    if pat.phrase != " ".join(pat.phrase.split()) or pat.phrase != pat.phrase.lower():
        raise PatternFileError(f"phrase {pat.phrase!r} is not normalized lowercase text")
    if pat.anchored not in ("both", "left"):
        raise PatternFileError(f"unknown anchored value {pat.anchored!r}")
    key = (pat.platform, pat.phrase)
    if key in seen:
        raise PatternFileError(f"duplicate pattern ({pat.platform.value}, {pat.phrase!r})")
    seen.add(key)


class PatternSet:
    """Immutable collection of citation patterns, validated and pre-compiled."""

    def __init__(self, patterns, version: str = "unversioned"):
        pats = tuple(patterns)
        if not pats:
            raise PatternFileError("pattern set is empty")
        seen: set[tuple[Platform, str]] = set()
        for pat in pats:
            _check_pattern(pat, seen)
        for platform in Platform:
            if all(pat.platform != platform for pat in pats):
                raise PatternFileError(f"pattern set has no {platform.value} patterns")

        self.patterns = pats
        self.version = version
        # group key -> (words of all its phrases, [(pattern, its words, regex)])
        self._groups: dict[str, tuple[set[str], list]] = {}
        for pat in pats:
            key, words = _prescreen_words(pat.phrase)
            group_words, entries = self._groups.setdefault(key, (set(), []))
            group_words.update(words)
            entries.append((pat, words, _compile_phrase(pat.phrase, pat.anchored)))


def load_patterns(path) -> PatternSet:
    """Load a UTF-8 TSV pattern file.

    Columns: platform ("facebook"|"twitter"), phrase, optional anchored
    ("both"|"left"). Lines starting with '#' are comments; a comment of the
    form '# version: ...' sets the set's version string.
    """
    patterns: list[CitationPattern] = []
    version = "unversioned"
    counters = {Platform.FACEBOOK: 0, Platform.TWITTER: 0}
    prefix = {Platform.FACEBOOK: "fb", Platform.TWITTER: "tw"}
    seen: set[tuple[Platform, str]] = set()

    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise PatternFileError(f"line {line_number}: invalid UTF-8 at byte offset {exc.start}") from None
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                comment = line.lstrip().lstrip("#").strip()
                if comment.lower().startswith("version:"):
                    version = comment.split(":", 1)[1].strip()
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise PatternFileError(f"line {line_number}: expected 2 or 3 tab-separated fields")
            platform_raw = fields[0].strip().lower()
            try:
                platform = Platform(platform_raw)
            except ValueError:
                raise PatternFileError(f"line {line_number}: unknown platform {platform_raw!r}") from None
            phrase = " ".join(fields[1].strip().lower().split())
            anchored = fields[2].strip().lower() if len(fields) == 3 and fields[2].strip() else "both"
            counters[platform] += 1
            pattern = CitationPattern(f"{prefix[platform]}-{counters[platform]:03d}", platform, phrase, anchored)
            try:
                _check_pattern(pattern, seen)
            except PatternFileError as exc:
                raise PatternFileError(f"line {line_number}: {exc}") from None
            patterns.append(pattern)

    return PatternSet(patterns, version=version)


@lru_cache(maxsize=1)
def default_patterns() -> PatternSet:
    """The bundled default pattern set."""
    with resources.as_file(resources.files("sourcescope").joinpath("data/patterns_default.tsv")) as p:
        return load_patterns(p)


def match_patterns(sentence: str, pattern_set: PatternSet) -> list[PatternHit]:
    """All case-insensitive, word-boundary phrase occurrences, ordered by start.

    Overlapping hits from different patterns are all reported. A phrase's
    regex runs only when each of its prescreen words occurs in the
    case-folded sentence.
    """
    folded = fold_case(sentence)
    hits: list[PatternHit] = []
    for key, (group_words, entries) in pattern_set._groups.items():
        if key not in folded:
            continue
        present = {word for word in group_words if word in folded}
        for pat, words, rx in entries:
            if not words <= present:
                continue
            for m in rx.finditer(sentence):
                hits.append(PatternHit(pat.id, pat.platform, m.start(), m.end()))
    hits.sort(key=lambda h: (h.start, h.end, h.pattern_id))
    return hits


# --- embedded-tweet residue rules ---

_MONTH = (
    r"(?:Jan(?:uary)?|Feb(?:ruary)?|Mar(?:ch)?|Apr(?:il)?|May|Jun(?:e)?|Jul(?:y)?"
    r"|Aug(?:ust)?|Sep(?:t(?:ember)?)?|Oct(?:ober)?|Nov(?:ember)?|Dec(?:ember)?)"
)
# attribution line left behind by an embedded tweet: "— Name (@handle) Month D, YYYY"
_ATTRIBUTION_RE = re.compile(
    r"[\-‐-―−]\s*[^\n(]{1,120}\(@\w{1,20}\)\s+" + _MONTH + r"\.?\s+\d{1,2},?\s+\d{4}",
    re.IGNORECASE,
)
_PIC_LINK_RE = re.compile(r"pic\.twitter\.com/\w+", re.IGNORECASE)
_STATUS_LINK_RE = re.compile(r"twitter\.com/\w+/status(?:es)?/\d+", re.IGNORECASE)

_EMBED_PRESCREEN = ("(@", "twitter.com")


def find_embedding_span(sentence: str) -> Optional[tuple[int, int]]:
    """Offsets of the first embedded-tweet residue in the sentence, if any."""
    if not any(marker in sentence for marker in _EMBED_PRESCREEN):
        return None
    for rx in (_ATTRIBUTION_RE, _PIC_LINK_RE, _STATUS_LINK_RE):
        m = rx.search(sentence)
        if m:
            return (m.start(), m.end())
    return None


def could_cite(text: str, pattern_set: PatternSet) -> bool:
    """False only when no sentence cut from text can yield a phrase hit or an embedding.

    A group key found in a sentence's case-folded text is also found in the
    case-folded text holding it: each key is ASCII, and fold_case maps every
    character that folds to ASCII on its own.
    """
    if any(marker in text for marker in _EMBED_PRESCREEN):
        return True
    folded = fold_case(text)
    return any(key in folded for key in pattern_set._groups)


# --- quote-mark table and scanning ---

# open mark -> close mark; scanned left to right, longest mark first
_PAIR_TABLE = (
    ("``", "''"),
    ("“", "”"),  # curly double
    ("‘", "’"),  # curly single
    ("«", "»"),  # guillemets
    ('"', '"'),
    ("`", "'"),
    ("'", "'"),
)
_OPEN_MARKS = dict(_PAIR_TABLE)
OPENING_QUOTE_CHARS = frozenset(open_mark[0] for open_mark in _OPEN_MARKS)

_MARKS = tuple(dict.fromkeys(mark for pair in _PAIR_TABLE for mark in pair))
_MARK_RE = re.compile("|".join(re.escape(mark) for mark in sorted(_MARKS, key=len, reverse=True)))
# single quotes double as apostrophes; every other mark is a quote sign wherever it stands
_ALWAYS_QUOTE_MARKS = frozenset(_MARKS) - {"'", "’"}


def _is_apostrophe(text: str, pos: int) -> bool:
    """A single-quote mark flanked by letters or digits is an apostrophe."""
    return 0 < pos < len(text) - 1 and text[pos - 1].isalnum() and text[pos + 1].isalnum()


def contains_quote_signs(sentence: str) -> bool:
    """True iff the sentence contains a mark from the quote-mark table.

    The marks ' and ’ double as apostrophes, so they count only in twos,
    and only where not flanked by letters or digits: a lone possessive
    ("the players’ union") is no quote sign.
    """
    single_candidates = 0
    for m in _MARK_RE.finditer(sentence):
        mark = m.group()
        if mark in _ALWAYS_QUOTE_MARKS:
            return True
        if not _is_apostrophe(sentence, m.start()):
            single_candidates += 1
            if single_candidates >= 2:
                return True
    return False


def extract_quote_spans(text: str) -> list[QuoteSpan]:
    """Maximal non-nested quote spans, scanned left to right.

    Spans exclude their delimiting marks. An open mark without a matching
    close yields no span.
    """
    spans: list[QuoteSpan] = []
    pos = 0
    while m := _MARK_RE.search(text, pos):
        open_mark = m.group()
        pos = m.end()
        if open_mark not in _OPEN_MARKS or (open_mark == "'" and _is_apostrophe(text, m.start())):
            continue
        close_mark = _OPEN_MARKS[open_mark]
        k = text.find(close_mark, pos)
        while k >= 0 and close_mark in ("'", "’") and _is_apostrophe(text, k):
            k = text.find(close_mark, k + 1)
        if k >= 0:  # an unbalanced open yields no span; the scan goes on after it
            spans.append(QuoteSpan(pos, k, open_mark, close_mark))
            pos = k + len(close_mark)
    return spans
