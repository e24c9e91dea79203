"""Deterministic sentence segmentation over article bodies.

Rules: split after '.', '!', '?' runs followed by whitespace and an
uppercase letter, an opening quote mark, or end of text; never split after
a known abbreviation or inside a quote span; a paragraph break (blank line)
always splits. Offsets are character offsets in the decoded text.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

from sourcescope.patterns import OPENING_QUOTE_CHARS, QuoteSpan, extract_quote_spans

ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "st.", "jr.", "sr.", "u.s.",
        "a.m.", "p.m.", "gov.", "sen.", "rep.", "inc.", "co.", "vs.", "etc.",
    }
)

# a terminator run followed by whitespace; group 2 is the next non-space
# character, or "" at end of text. The run is spelled [.!?][.!?]*, not
# [.!?]+: re skips ahead to a candidate fast only when a pattern opens with
# a single character set, not with a repeat (over newswire bodies the scan
# takes less than half the time).
_TERMINATOR_RE = re.compile(r"([.!?][.!?]*)(?=\s+(\S?))")
_PARAGRAPH_RE = re.compile(r"\n[ \t]*\n")


class SentenceSpan(NamedTuple):
    index: int
    start: int  # inclusive
    end: int  # exclusive


def segment(text: str, quotes: Optional[Sequence[QuoteSpan]] = None) -> list[SentenceSpan]:
    """Sentence spans of text; `quotes` is extract_quote_spans(text) when already known."""
    splits = {m.start() for m in _PARAGRAPH_RE.finditer(text)}

    if quotes is None:
        quotes = extract_quote_spans(text)
    region_starts = [q.start for q in quotes]
    region_ends = [q.end for q in quotes]

    for m in _TERMINATOR_RE.finditer(text):
        nxt = m.group(2)
        if nxt and not (nxt.isupper() or nxt in OPENING_QUOTE_CHARS):
            continue
        i = bisect_right(region_starts, m.start()) - 1
        if i >= 0 and m.start() < region_ends[i]:
            continue  # inside a quote span
        end = m.end()
        if m.group(1) == ".":
            # the whitespace-free token ending here, cut to its last 6 characters:
            # abbreviations have at most 4 and initials 2, so the cut never matters
            token = text[max(0, end - 6):end].split()[-1]
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
            spans.append(SentenceSpan(len(spans), prev + left, prev + right))
        prev = boundary
    return spans
