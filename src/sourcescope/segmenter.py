"""Deterministic sentence segmentation over article bodies.

Rules: split after '.', '!', '?' runs followed by whitespace and an
uppercase letter, an opening quote mark, or end of text; never split after
a known abbreviation or inside a quote span; a paragraph break (blank line)
always splits. Offsets are character offsets in the decoded text.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from sourcescope.patterns import OPENING_QUOTE_CHARS, QuoteSpan, extract_quote_spans

ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "st.", "jr.", "sr.", "u.s.",
        "a.m.", "p.m.", "gov.", "sen.", "rep.", "inc.", "co.", "vs.", "etc.",
    }
)

_TERMINATOR_RE = re.compile(r"[.!?]+")
_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n")


@dataclass(frozen=True)
class SentenceSpan:
    index: int
    start: int  # inclusive
    end: int  # exclusive


def _token_ending_at(text: str, end: int) -> str:
    start = end
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start:end]


def segment(text: str, quotes: Optional[Sequence[QuoteSpan]] = None) -> list[SentenceSpan]:
    """Sentence spans of text; `quotes` is extract_quote_spans(text) when already known."""
    splits: set[int] = set()

    for m in _PARAGRAPH_RE.finditer(text):
        splits.add(m.start())

    if quotes is None:
        quotes = extract_quote_spans(text)
    quote_regions = [(q.start, q.end) for q in quotes]
    region_starts = [r[0] for r in quote_regions]

    def inside_quote(pos: int) -> bool:
        i = bisect_right(region_starts, pos) - 1
        return i >= 0 and pos < quote_regions[i][1]

    for m in _TERMINATOR_RE.finditer(text):
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
            # single-letter initials ("Donald J. Trump") never end a sentence
            if len(token) == 2 and token[0].isupper():
                continue
        splits.add(end)

    spans: list[SentenceSpan] = []
    prev = 0
    for boundary in sorted(splits) + [len(text)]:
        segment_text = text[prev:boundary]
        left = len(segment_text) - len(segment_text.lstrip())
        right = len(segment_text.rstrip())
        if right > left:
            spans.append(SentenceSpan(index=len(spans), start=prev + left, end=prev + right))
        prev = boundary
    return spans


def sentences(text: str) -> list[str]:
    return [text[s.start:s.end] for s in segment(text)]
