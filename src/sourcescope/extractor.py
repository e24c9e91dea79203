"""Per-sentence classification cascade producing typed source mentions."""

from __future__ import annotations

import json
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Optional

from sourcescope._fmt import atomic_open
from sourcescope.corpus import Article
from sourcescope.patterns import (
    PatternSet,
    Platform,
    contains_quote_signs,
    could_cite,
    extract_quote_spans,
    find_embedding_span,
    match_patterns,
)
from sourcescope.segmenter import segment

# quote spans shorter than this are stray paired apostrophes, not direct quotes
MIN_QUOTE_CHARS = 3

# With workers, articles go to the pool in chunks of CHUNK_ARTICLES, and at
# most CHUNKS_PER_WORKER chunks per worker are in flight: that window, not
# the corpus, bounds the articles and results alive at once. Smaller chunks
# cost more round trips to the workers; fewer in flight leave them idle.
CHUNK_ARTICLES = 128
CHUNKS_PER_WORKER = 4


class Kind(str, Enum):
    QUOTATION = "quotation"
    PARAPHRASE = "paraphrase"
    EMBEDDING = "embedding"


KIND_ORDER = (Kind.QUOTATION, Kind.PARAPHRASE, Kind.EMBEDDING)


@dataclass(frozen=True)
class SourceMention:
    article_id: str
    sentence_index: int
    platform: Platform
    kind: Kind
    pattern_id: Optional[str]  # absent for Embedding
    span_start: int  # character range of the evidence, within the sentence
    span_end: int


@dataclass(frozen=True)
class ExtractionResult:
    article_id: str
    mentions: tuple  # of SourceMention, sorted by (sentence_index, platform)
    sentences: tuple  # of (start, end) body offsets, in sentence order
    direct_quote_count: int


def classify_sentence(sentence: str, pattern_set: PatternSet) -> list[tuple]:
    """Classify one sentence; at most one emission per platform.

    The embedding test runs first and, when it fires, suppresses Twitter
    pattern hits for the sentence. Each remaining platform with a pattern
    hit is a Quotation when the sentence carries quote signs, else a
    Paraphrase. Returns (platform, kind, (start, end), pattern_id) tuples.
    """
    emissions: list[tuple] = []
    first_hit: dict[Platform, object] = {}
    for hit in match_patterns(sentence, pattern_set):
        first_hit.setdefault(hit.platform, hit)

    embedding_span = find_embedding_span(sentence)
    if embedding_span is not None:
        emissions.append((Platform.TWITTER, Kind.EMBEDDING, embedding_span, None))
        first_hit.pop(Platform.TWITTER, None)

    quoted: Optional[bool] = None
    for platform in (Platform.FACEBOOK, Platform.TWITTER):
        hit = first_hit.get(platform)
        if hit is None:
            continue
        if quoted is None:
            quoted = contains_quote_signs(sentence)
        kind = Kind.QUOTATION if quoted else Kind.PARAPHRASE
        emissions.append((platform, kind, (hit.start, hit.end), hit.pattern_id))

    emissions.sort(key=lambda e: e[0].value)
    return emissions


def extract_mentions(article: Article, pattern_set: PatternSet) -> ExtractionResult:
    """Segment and quote-scan the body once; classify each sentence of a body that could cite."""
    quotes = extract_quote_spans(article.body)
    spans = segment(article.body, quotes)
    mentions: list[SourceMention] = []
    for span in spans if could_cite(article.body, pattern_set) else ():
        sentence = article.body[span.start:span.end]
        for platform, kind, (start, end), pattern_id in classify_sentence(sentence, pattern_set):
            mentions.append(
                SourceMention(
                    article_id=article.id,
                    sentence_index=span.index,
                    platform=platform,
                    kind=kind,
                    pattern_id=pattern_id,
                    span_start=start,
                    span_end=end,
                )
            )
    return ExtractionResult(
        article_id=article.id,
        mentions=tuple(mentions),
        sentences=tuple((span.start, span.end) for span in spans),
        direct_quote_count=sum(1 for q in quotes if q.end - q.start >= MIN_QUOTE_CHARS),
    )


_worker_pattern_set: Optional[PatternSet] = None


def _init_worker(pattern_set: PatternSet) -> None:
    global _worker_pattern_set
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's unwinding handler
    _worker_pattern_set = pattern_set


def _extract_chunk(articles: list) -> list:
    return [extract_mentions(article, _worker_pattern_set) for article in articles]


def iter_extract(
    articles: Iterable[Article], pattern_set: PatternSet, workers: int = 1
) -> Iterator[tuple[Article, ExtractionResult]]:
    """Yield each article paired with its result, in input order regardless of parallelism.

    Articles are read as they are needed: one at a time serially, and with
    workers at most CHUNKS_PER_WORKER * workers chunks ahead, each kept beside
    its future, as workers return only results. Closing the generator cancels
    the chunks not yet started and waits for the running ones.
    """
    if workers <= 1:
        for article in articles:
            yield article, extract_mentions(article, pattern_set)
        return
    source = iter(articles)
    chunks = iter(lambda: list(islice(source, CHUNK_ARTICLES)), [])
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(pattern_set,)
    ) as executor:
        pending: deque = deque()  # of (chunk, future of its results)
        try:
            for chunk in chunks:
                pending.append((chunk, executor.submit(_extract_chunk, chunk)))
                if len(pending) == workers * CHUNKS_PER_WORKER:
                    chunk, future = pending.popleft()
                    yield from zip(chunk, future.result(), strict=True)
            for chunk, future in pending:
                yield from zip(chunk, future.result(), strict=True)
        finally:
            for _, future in pending:
                future.cancel()


def extract_corpus(
    articles: Iterable[Article], pattern_set: PatternSet, workers: int = 1
) -> list[ExtractionResult]:
    """One result per article, in input order regardless of parallelism."""
    return [result for _, result in iter_extract(articles, pattern_set, workers)]


def mention_to_record(mention: SourceMention) -> dict:
    return {
        "article_id": mention.article_id,
        "sentence_index": mention.sentence_index,
        "platform": mention.platform.value,
        "kind": mention.kind.value,
        "pattern_id": mention.pattern_id,
        "span_start": mention.span_start,
        "span_end": mention.span_end,
    }


def write_mentions(results, path) -> int:
    """Write all mentions as line-delimited JSON; returns the mention count."""
    count = 0
    with atomic_open(path) as fh:
        for result in results:
            for mention in result.mentions:
                fh.write(json.dumps(mention_to_record(mention), ensure_ascii=False))
                fh.write("\n")
                count += 1
    return count
