"""Citation pattern set: loading, phrase matching, embedding and quote-mark rules."""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Optional


class Platform(str, Enum):
    FACEBOOK = "facebook"
    TWITTER = "twitter"


class PatternFileError(ValueError):
    """A pattern file that cannot be loaded."""


class CitationPattern(NamedTuple):
    id: str
    platform: Platform
    phrase: str  # lowercase, single-space separated
    anchored: str = "both"  # "both": word boundary on each side; "left": leading only


def _compile_phrase(phrase: str, anchored: str) -> re.Pattern:
    # an ASCII phrase runs case-sensitively on fold_case(sentence), opening with its first word so that re skips
    # ahead to it; any other keeps re.IGNORECASE on the sentence, which matches µ to μ (fold_case keeps them apart)
    first, *rest = (re.escape(word) for word in phrase.split())
    tail = "".join(r"\s+" + word for word in rest) + (r"(?!\w)" if anchored == "both" else "")
    if phrase.isascii():
        return re.compile(rf"{first}(?<!\w{first}){tail}")
    return re.compile(rf"(?<!\w){first}{tail}", re.IGNORECASE)


# a phrase is grouped under the first of these it contains
_PLATFORM_WORDS = ("facebook", "twitter", "tweet")
_REQUIRED_WORD_RE = re.compile("[a-z0-9_]+")
_WORD_RE = re.compile(r"\w+")
# ASCII bytes outside [0-9A-Za-z_] to spaces, A-Z to a-z; bytes >= 128, which alone spell non-ASCII characters, stay
_WORD_BYTES = bytes(b if b >= 128 or chr(b).isalnum() or b == 95 else 32 for b in range(256)).lower()


def fold_case(text: str) -> str:
    """text lower-cased so that a character re.IGNORECASE matches to an ASCII letter becomes it.

    str.lower() does that for every character but 'İ', 'ı' and 'ſ', and turns no other
    non-ASCII character into an ASCII one. The result has one character per character
    of text, and a character is a word character, or whitespace, in it iff it is in text.
    """
    return text.replace("İ", "i").replace("ı", "i").replace("ſ", "s").lower()


def _prescreen_words(phrase: str, anchored: str) -> tuple[str, frozenset[bytes]]:
    """The phrase's group key and the words, as bytes, of fold_case(sentence) that a hit needs as whole \\w runs.

    Those are its [a-z0-9_]+ words: the \\s+ separators and the boundary
    tests keep each a whole run, but for the last word of a left-anchored
    phrase, which may end inside a longer one. A phrase without a platform
    word is grouped under its longest ASCII word, and under "", which every
    sentence contains, when it has none.
    """
    words = phrase.split()
    key = next((w for w in _PLATFORM_WORDS if w in phrase), None)
    if key is None:
        key = max((w for w in words if w.isascii()), key=len, default="")
    required = words if anchored == "both" else words[:-1]
    return key, frozenset(w.encode() for w in required if _REQUIRED_WORD_RE.fullmatch(w))


def _check_pattern(pat: CitationPattern, seen: set) -> None:
    """Add pat's (platform, folded phrase) key to seen; raise PatternFileError if a PatternSet cannot hold pat."""
    if not pat.phrase:
        raise PatternFileError("empty phrase")
    if pat.phrase != " ".join(pat.phrase.split()) or pat.phrase != pat.phrase.lower():
        raise PatternFileError(f"phrase {pat.phrase!r} is not normalized lowercase text")
    if pat.anchored not in ("both", "left"):
        raise PatternFileError(f"unknown anchored value {pat.anchored!r}")
    key = (pat.platform, fold_case(pat.phrase))  # 'ı' and 'i' match the same text
    if key in seen:
        raise PatternFileError(f"duplicate pattern ({pat.platform.value}, {pat.phrase!r})")
    seen.add(key)


class PatternSet:
    """Immutable collection of validated citation patterns; each phrase's regex is compiled at its first run."""

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
        # group key -> filing word (longest required word but the key, else b"") -> [[pattern, words, regex, on folded]]
        # the regex slot is None until _candidates first lets the phrase through
        self._groups: dict[str, dict[bytes, list]] = {}
        for pat in pats:
            key, words = _prescreen_words(pat.phrase, pat.anchored)
            filed = max(words, key=lambda w: (w != key.encode(), len(w), w), default=b"")
            entry = [pat, words, None, pat.phrase.isascii()]
            self._groups.setdefault(key, {}).setdefault(filed, []).append(entry)


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


def _word_set(text: str) -> set:
    """The maximal \\w runs of fold_case(text), as UTF-8 bytes, and b"": from one translate and one split of its bytes.

    So a token of ASCII bytes is a whole folded \\w run. The tokens with a non-ASCII character are folded and split
    by \\w+ apart from the rest of the text, which folds them as the whole text would: fold_case maps 'İ' before
    lower(), and lower()'s one context rule, the Greek final sigma, gives a non-ASCII word character either way.
    """
    tokens = {b"", *text.encode("utf-8", "surrogatepass").translate(_WORD_BYTES).split()}
    if not text.isascii():  # the tokens with a non-ASCII character, folded and split in one pass, a space apart
        wide = b" ".join([token for token in tokens if not token.isascii()]).decode("utf-8", "surrogatepass")
        tokens.update(" ".join(_WORD_RE.findall(fold_case(wide))).encode("utf-8", "surrogatepass").split())
    return tokens


def _candidates(sentence: str, folded: str, pattern_set: PatternSet):
    """(pattern, regex, text to run it on) of each phrase passing the prescreen; folded is fold_case(sentence)."""
    tokens: Optional[set] = None
    for key, filed in pattern_set._groups.items():
        if key in folded:
            tokens = _word_set(sentence) if tokens is None else tokens
            for word in filed.keys() & tokens:
                for entry in filed[word]:
                    if entry[1] <= tokens:
                        pat, _, rx, on_folded = entry
                        if rx is None:  # compiled once per process, and only for a phrase some sentence reaches
                            rx = entry[2] = _compile_phrase(pat.phrase, pat.anchored)
                        yield pat, rx, folded if on_folded else sentence


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


def find_embedding_span(sentence: str, folded: str) -> Optional[tuple[int, int]]:
    """Offsets of the first embedded-tweet residue in the sentence, if any; folded is fold_case(sentence)."""
    if "(@" not in folded and "twitter.com" not in folded:  # the link rules ignore case
        return None
    for rx in (_ATTRIBUTION_RE, _PIC_LINK_RE, _STATUS_LINK_RE):
        m = rx.search(sentence)
        if m:
            return (m.start(), m.end())
    return None


def could_cite(folded: str, pattern_set: PatternSet) -> bool:
    """False only when no sentence cut from text can yield a phrase hit or an embedding; folded is fold_case(text).

    A group key, "twitter.com" or "(@" found in a sentence's case-folded text
    is also found in the case-folded text holding it: each is ASCII, and
    fold_case maps every character that folds to ASCII on its own.
    """
    return "(@" in folded or "twitter.com" in folded or any(key in folded for key in pattern_set._groups)


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


def extract_quote_spans(text: str) -> list[tuple[int, int]]:
    """Maximal non-nested quote spans, scanned left to right, as (start, end) offsets of their content.

    Spans exclude their delimiting marks. An open mark without a matching
    close yields no span.
    """
    spans: list[tuple[int, int]] = []
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
            spans.append((pos, k))
            pos = k + len(close_mark)
    return spans
