"""Deterministic sentence segmentation over article bodies.

Rules: split after '.', '!', '?' runs followed by whitespace and an
uppercase letter, an opening quote mark, or end of text; never split after
a known abbreviation or inside a quote span; a paragraph break (blank line)
always splits. Offsets are character offsets in the decoded text.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import NamedTuple, Optional, Sequence

from sourcescope.patterns import OPENING_QUOTE_CHARS, QuoteSpan, extract_quote_spans

ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "st.", "jr.", "sr.", "u.s.",
        "a.m.", "p.m.", "gov.", "sen.", "rep.", "inc.", "co.", "vs.", "etc.",
    }
)

# A terminator run, then whitespace (group 1). The regex makes the token tests:
# its lookbehinds refuse a single '.' ending a whole-token abbreviation (one per
# width; one per abbreviation scans much slower) or an ASCII initial, by case
# classes, as re.IGNORECASE would take 'ſ' and the Kelvin sign. Groups 2 and 3,
# a non-ASCII next character and one-letter token, are left to segment. The run
# is [.!?][.!?]*, as re skips ahead fast only to a pattern opening with one set.
_ABBREVIATIONS_BY_WIDTH = [re.sub("[a-z]", lambda c: f"[{c[0].upper()}{c[0]}]", "|".join(map(re.escape, same)))
                           for _, same in groupby(sorted(ABBREVIATIONS, key=lambda a: (len(a), a)), len)]
_TERMINATOR_RE = re.compile(
    r"[.!?][.!?]*"
    + "".join(rf"(?<!(?<!\S)(?:{alternation}))" for alternation in _ABBREVIATIONS_BY_WIDTH)
    + r"(?<!(?<!\S)[A-Z]\.)"
    + rf"(?=(\s+)(?:[A-Z{re.escape(''.join(sorted(OPENING_QUOTE_CHARS)))}]|\Z|([^\s\x00-\x7f])))"
    + r"(?:(?<=(?<!\S)([^\s\x00-\x7f])\.))?"
)
_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n\s*")  # ends where the next sentence starts


class SentenceSpan(NamedTuple):
    index: int
    start: int  # inclusive
    end: int  # exclusive


def segment(text: str, quotes: Optional[Sequence[QuoteSpan]] = None) -> list[SentenceSpan]:
    """Sentence spans of text; `quotes` is extract_quote_spans(text) when already known."""
    cuts = []  # (end of the sentence before, start of the one after)
    for m in _PARAGRAPH_RE.finditer(text):
        end = m.start()
        while end and text[end - 1].isspace():
            end -= 1
        cuts.append((end, m.end()))
    regions = iter(extract_quote_spans(text) if quotes is None else quotes)  # sorted and disjoint
    region = next(regions, None)
    for m in _TERMINATOR_RE.finditer(text):
        # groups 2 and 3 close after group 1, so lastindex is 1 unless one of them matched
        if m.lastindex > 1 and (m[2] and not m[2].isupper() or m[3] and m[3].isupper()):
            continue
        pos = m.start()
        while region is not None and region.end <= pos:
            region = next(regions, None)
        if region is not None and region.start <= pos:
            continue  # inside a quote span
        cuts.append((m.end(), m.end(1)))
    cuts.sort()
    cuts.append((len(text.rstrip()), len(text)))
    spans: list[SentenceSpan] = []
    start = len(text) - len(text.lstrip())
    for end, after in cuts:
        if end > start:
            spans.append(SentenceSpan(len(spans), start, end))
        start = after
    return spans
