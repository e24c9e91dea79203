"""Per-sentence classification cascade producing typed source mentions."""

from __future__ import annotations

import json
import signal
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Optional

from sourcescope._fmt import write_lines
from sourcescope.corpus import Article
from sourcescope.patterns import (
    PatternSet,
    Platform,
    _embedding_span,
    _match_folded,
    contains_quote_signs,
    could_cite,
    extract_quote_spans,
    fold_case,
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
    Paraphrase. The sentence is case-folded once, for both tests. Returns
    (platform, kind, (start, end), pattern_id) tuples.
    """
    folded = fold_case(sentence)
    first_hit: dict[Platform, object] = {}
    for hit in _match_folded(sentence, folded, pattern_set):
        first_hit.setdefault(hit.platform, hit)
    embedding_span = _embedding_span(sentence, folded)
    emissions: list[tuple] = []
    quoted: Optional[bool] = None
    for platform in (Platform.FACEBOOK, Platform.TWITTER):  # emissions in platform order
        hit = first_hit.get(platform)
        if platform is Platform.TWITTER and embedding_span is not None:
            emissions.append((platform, Kind.EMBEDDING, embedding_span, None))
        elif hit is not None:
            if quoted is None:
                quoted = contains_quote_signs(sentence)
            kind = Kind.QUOTATION if quoted else Kind.PARAPHRASE
            emissions.append((platform, kind, (hit.start, hit.end), hit.pattern_id))
    return emissions


def extract_mentions(article: Article, pattern_set: PatternSet, *, sentences: bool = False) -> ExtractionResult:
    """Quote-scan the body once and classify each sentence of a body that could cite. The body is segmented
    once, and only if it could cite or `sentences` asks for its sentence spans; without that, `sentences` is ()."""
    quotes = extract_quote_spans(article.body)
    cites = could_cite(article.body, pattern_set)
    spans = segment(article.body, quotes) if cites or sentences else ()
    mentions: list[SourceMention] = []
    for span in spans if cites else ():
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
        sentences=tuple((span.start, span.end) for span in spans) if sentences else (),
        direct_quote_count=sum(1 for q in quotes if q.end - q.start >= MIN_QUOTE_CHARS),
    )


_worker_task: tuple = ()  # the (function, context) that a pool worker runs on each chunk


def _init_worker(function, context: tuple) -> None:
    global _worker_task
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's unwinding handler
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the whole group; the parent unwinds the pool
    _worker_task = (function, context)


def _run_chunk(articles: list) -> list:
    function, context = _worker_task
    return list(function(articles, *context))


def map_chunks(function, articles: Iterable[Article], context: tuple = (), workers: int = 1) -> Iterator:
    """Yield the outputs of function(chunk, *context) over the chunks of `articles`, in input order.

    function returns an iterable of outputs. Serially the whole stream is one
    chunk, read as function reads it. With workers, chunks of CHUNK_ARTICLES
    articles go to a pool, at most CHUNKS_PER_WORKER * workers of them in
    flight, and each worker gets function and context once, through the pool
    initializer (only then are concurrent.futures and multiprocessing loaded).
    Closing the generator cancels the chunks not yet started and waits for the
    running ones; a worker that dies raises OSError.
    """
    if workers <= 1:
        yield from function(articles, *context)
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    source = iter(articles)
    chunks = iter(lambda: list(islice(source, CHUNK_ARTICLES)), [])
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(function, context)) as pool:
            pending: deque = deque()  # of futures of the chunks' output lists
            try:
                for chunk in chunks:
                    pending.append(pool.submit(_run_chunk, chunk))
                    if len(pending) == workers * CHUNKS_PER_WORKER:
                        yield from pending.popleft().result()
                while pending:
                    yield from pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
    except BrokenProcessPool as exc:  # a worker died, killed or out of memory
        raise OSError(f"extraction worker died: {exc}") from None


def extract_chunk(articles, pattern_set: PatternSet) -> Iterator[ExtractionResult]:
    """The map_chunks chunk function of evaluate and extract_corpus: each article's result, without sentence spans."""
    return (extract_mentions(article, pattern_set) for article in articles)


def extract_corpus(articles: Iterable[Article], pattern_set: PatternSet, workers: int = 1) -> list[ExtractionResult]:
    """One result per article, in input order regardless of parallelism."""
    return list(map_chunks(extract_chunk, articles, (pattern_set,), workers))


def mention_to_record(mention: SourceMention) -> dict:
    """The mentions.jsonl object of a mention: its fields in declaration order, each enum as its value."""
    values = ((field.name, getattr(mention, field.name)) for field in fields(mention))
    return {name: value.value if isinstance(value, Enum) else value for name, value in values}


def write_mentions(results, path) -> int:
    """Write all mentions as line-delimited JSON; returns the mention count."""
    mentions = (mention for result in results for mention in result.mentions)
    return write_lines(path, (json.dumps(mention_to_record(mention), ensure_ascii=False) for mention in mentions))
