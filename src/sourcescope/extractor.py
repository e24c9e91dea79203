"""Per-sentence classification cascade producing typed source mentions."""

from __future__ import annotations

import json
import signal
import sys
from collections import deque
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from sourcescope._fmt import write_lines
from sourcescope.corpus import Article
from sourcescope.patterns import (
    PatternSet,
    Platform,
    _candidates,
    contains_quote_signs,
    could_cite,
    extract_quote_spans,
    find_embedding_span,
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


class SourceMention(NamedTuple):
    article_id: str
    sentence_index: int
    platform: Platform
    kind: Kind
    pattern_id: Optional[str]  # absent for Embedding
    span_start: int  # character range of the evidence, within the sentence
    span_end: int


class ExtractionResult(NamedTuple):
    article_id: str
    mentions: tuple  # of SourceMention, sorted by (sentence_index, platform)
    sentences: tuple  # of (start, end) body offsets, in sentence order
    direct_quote_count: int


def classify_sentence(sentence: str, folded: str, pattern_set: PatternSet) -> list[tuple]:
    """Classify one sentence, given folded = fold_case(sentence); at most one emission per platform.

    An embedding makes the sentence's Twitter emission an Embedding, in
    place of any Twitter pattern hit. Each other platform with a pattern
    hit is a Quotation when the sentence carries quote signs, else a
    Paraphrase. Returns (platform, kind, (start, end), pattern_id) tuples.
    """
    first_hit: dict = {}  # platform -> the least (start, end, pattern_id), as a regex's leftmost match is its least
    for pat, rx, text in _candidates(sentence, folded, pattern_set):
        m = rx.search(text)
        if m and (hit := (*m.span(), pat.id)) < first_hit.setdefault(pat.platform, hit):  # the first hit sets it
            first_hit[pat.platform] = hit
    embedding_span = find_embedding_span(sentence, folded)
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
            emissions.append((platform, kind, hit[:2], hit[2]))
    return emissions


def extract_mentions(article: Article, pattern_set: PatternSet, *, sentences: bool = False) -> ExtractionResult:
    """Quote-scan and case-fold the body once; segment it if it could cite or `sentences` asks for its sentence
    spans (else `sentences` is ()), and classify each sentence that could cite. A sentence's fold is its slice of
    the body's, for the gate and the cascade: fold_case maps one character to one, and final sigma's context stops
    at the whitespace around a span."""
    quotes = extract_quote_spans(article.body)
    folded = fold_case(article.body)
    cites = could_cite(folded, pattern_set)
    spans = segment(article.body, quotes) if cites or sentences else ()
    mentions: list[SourceMention] = []
    for index, start, end in spans if cites else ():
        sentence, sentence_fold = article.body[start:end], folded[start:end]
        if could_cite(sentence_fold, pattern_set):  # no key or marker, no mention
            for platform, kind, span, pattern_id in classify_sentence(sentence, sentence_fold, pattern_set):
                mentions.append(SourceMention(article.id, index, platform, kind, pattern_id, *span))
    return ExtractionResult(
        article_id=article.id,
        mentions=tuple(mentions),
        sentences=tuple((start, end) for _, start, end in spans) if sentences else (),
        direct_quote_count=sum(1 for q in quotes if q.end - q.start >= MIN_QUOTE_CHARS),
    )


_worker_task: tuple = ()  # the (function, context) that a pool worker runs on each chunk


def _init_worker(function, context: tuple) -> None:
    global _worker_task
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's unwinding handler
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C reaches the whole group; the parent unwinds the pool
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM, signal.SIGINT})  # blocked in the parent at the fork
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
    from multiprocessing import get_context
    source = iter(articles)
    chunks = iter(lambda: list(islice(source, CHUNK_ARTICLES)), [])
    # fork on Linux, its default until Python 3.14 chose forkserver: the workers stay the CLI's own children
    mp_context = get_context("fork" if sys.platform == "linux" else None)
    # SIGTERM and SIGINT wait until the first submit has forked the workers and started the pool's thread:
    # raised in between, their unwinding would find a pool that shutdown() cannot stop
    stop_signals = {signal.SIGTERM, signal.SIGINT}
    signal.pthread_sigmask(signal.SIG_BLOCK, stop_signals)
    try:
        with ProcessPoolExecutor(workers, mp_context, _init_worker, (function, context)) as pool:
            pending: deque = deque()  # of futures of the chunks' output lists
            try:
                for chunk in chunks:
                    pending.append(pool.submit(_run_chunk, chunk))
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, stop_signals)
                    if len(pending) == workers * CHUNKS_PER_WORKER:
                        yield from pending.popleft().result()
                while pending:
                    yield from pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
    except BrokenProcessPool as exc:  # a worker died, killed or out of memory
        raise OSError(f"extraction worker died: {exc}") from None
    finally:  # also when no chunk was submitted
        signal.pthread_sigmask(signal.SIG_UNBLOCK, stop_signals)


def extract_chunk(articles, pattern_set: PatternSet) -> Iterator[ExtractionResult]:
    """The map_chunks chunk function of evaluate and extract_corpus: each article's result, without sentence spans."""
    return (extract_mentions(article, pattern_set) for article in articles)


def extract_corpus(articles: Iterable[Article], pattern_set: PatternSet, workers: int = 1) -> list[ExtractionResult]:
    """One result per article, in input order regardless of parallelism."""
    return list(map_chunks(extract_chunk, articles, (pattern_set,), workers))


def mention_to_record(mention: SourceMention) -> dict:
    """The mentions.jsonl object of a mention: its fields in declaration order, each enum as its value."""
    return {name: value.value if isinstance(value, Enum) else value for name, value in mention._asdict().items()}


def write_mentions(results, path) -> int:
    """Write all mentions as line-delimited JSON; returns the mention count."""
    mentions = (mention for result in results for mention in result.mentions)
    return write_lines(path, (json.dumps(mention_to_record(mention), ensure_ascii=False) for mention in mentions))
