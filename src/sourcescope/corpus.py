"""Article data model, line-delimited corpus ingestion, and sampling utilities."""

from __future__ import annotations

import json
import random
import re
import sys
from datetime import date
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from sourcescope._fmt import escape_cell, write_lines
from sourcescope.patterns import fold_case


class MediaType(str, Enum):
    MAINSTREAM = "mainstream"
    UNRELIABLE = "unreliable"


REQUIRED_KEYS = ("id", "outlet", "media_type", "published_at", "headline", "body")
OPTIONAL_KEYS = ("topic", "url")

_SURROGATE_RE = re.compile("[\ud800-\udfff]")
_ISO_DATE_RE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


class IngestError(ValueError):
    """A corpus record that cannot be accepted, carrying its 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason

    def __reduce__(self):  # pickled as its arguments, as args holds only the message
        return IngestError, (self.line_number, self.reason)


class Article(NamedTuple):
    id: str
    outlet: str
    media_type: MediaType
    published_at: date
    headline: str
    body: str
    topic: Optional[str] = None
    url: Optional[str] = None


class Rejection(NamedTuple):
    """A corpus line that was not accepted, and why."""

    line_number: int
    reason: str


class Corpus:
    def __init__(self, articles: tuple, source_path: str = ""):
        self.articles = articles  # of Article, in input-file order
        self.source_path = source_path

    def __len__(self) -> int:
        return len(self.articles)

    def __iter__(self) -> Iterator[Article]:
        return iter(self.articles)


def _parse_line(raw: bytes, line_number: int) -> Optional[tuple[Article, int]]:
    """Decode, check and build one line's article; returns (article, unknown-key count), or None for a blank line.

    The checks run in a fixed order, and the first that fails names the fault.
    """
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(line_number, f"invalid UTF-8 at byte offset {exc.start}") from None
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(line_number, f"malformed record: {exc.msg}") from None
    except RecursionError:
        raise IngestError(line_number, "malformed record: nested too deeply") from None
    except ValueError:  # int()'s digit limit, the one other error json.loads raises
        raise IngestError(
            line_number, f"malformed record: number of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(obj, dict):
        raise IngestError(line_number, "record is not an object")
    missing = [key for key in REQUIRED_KEYS if key not in obj]
    if missing:
        raise IngestError(line_number, f"missing required keys: {', '.join(missing)}")
    fields = {key: obj.get(key) for key in REQUIRED_KEYS + OPTIONAL_KEYS}

    art_id = fields["id"]
    if not isinstance(art_id, str) or not art_id:
        raise IngestError(line_number, "id must be a non-empty string")
    if escape_cell(art_id) != art_id:  # it would split its sentences.tsv rows
        raise IngestError(line_number, "id must hold no tab or line break")
    try:
        media_type = MediaType(fields["media_type"])
    except ValueError:
        raise IngestError(line_number, f"unknown media_type {fields['media_type']!r}") from None
    # exactly YYYY-MM-DD, as date.fromisoformat alone requires only before Python 3.11; no match is a TypeError
    try:
        published = date.fromisoformat(_ISO_DATE_RE.fullmatch(fields["published_at"])[0])
    except (TypeError, ValueError):
        raise IngestError(line_number, f"invalid published_at {fields['published_at']!r}") from None
    # those three are strings now; so must the others be, but an optional one may be null
    for key, value in fields.items():
        if not isinstance(value, str) and (value is not None or key in REQUIRED_KEYS):
            raise IngestError(line_number, f"{key} must be a string")
    # a lone surrogate in a field that outputs repeat cannot be written as
    # UTF-8; in text that decoded from UTF-8, only a \u escape can make one
    if "\\u" in line:
        for key, value in fields.items():
            if value and _SURROGATE_RE.search(value):
                raise IngestError(line_number, f"{key} holds a lone surrogate escape")
    fields.update(media_type=media_type, published_at=published)
    return Article(**fields), sum(1 for key in obj if key not in fields)


class CorpusReader:
    """The records of a line-delimited corpus file (one JSON object per line), read lazily.

    Iterating yields, in file order, each accepted Article and, without
    fail_fast, a Rejection for each bad line; with fail_fast the first bad
    line raises IngestError. Blank lines are skipped. Only the ids seen so
    far are kept, so a pass holds one record at a time. The file is opened
    by the constructor, so a missing corpus fails before anything else
    happens; close() (or leaving a `with` block) closes it.
    """

    def __init__(self, path, fail_fast: bool = True):
        self.fail_fast = fail_fast
        self.accepted = 0
        self.unknown_key_warnings = 0
        self._fh = open(path, "rb")

    def __enter__(self) -> CorpusReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def __iter__(self) -> Iterator[Union[Article, Rejection]]:
        seen_ids: set[str] = set()
        for line_number, raw in enumerate(self._fh, start=1):
            try:
                parsed = _parse_line(raw, line_number)
                if parsed is None:
                    continue
                article, unknown = parsed
                if article.id in seen_ids:
                    raise IngestError(line_number, f"duplicate article id {article.id!r}")
            except IngestError as exc:
                if self.fail_fast:
                    raise
                yield Rejection(exc.line_number, exc.reason)
                continue
            seen_ids.add(article.id)
            self.accepted += 1
            self.unknown_key_warnings += unknown
            yield article


def ingest(path: str, fail_fast: bool = True) -> Corpus:
    """The accepted articles of a whole corpus file, held in memory; the commands stream it instead.

    With fail_fast (the default) the first bad record raises IngestError; otherwise it is skipped.
    """
    with CorpusReader(path, fail_fast) as reader:
        articles = tuple(record for record in reader if isinstance(record, Article))
    return Corpus(articles=articles, source_path=str(path))


def article_to_record(article: Article) -> dict:
    """The corpus record _parse_line reads back as `article`; an absent optional key is left out."""
    record = {key: getattr(article, key) for key in REQUIRED_KEYS + OPTIONAL_KEYS}
    record.update(media_type=article.media_type.value, published_at=article.published_at.isoformat())
    return {key: value for key, value in record.items() if value is not None}


def serialize(articles: Iterable[Article], path: str) -> None:
    """Write articles, such as a Corpus, one JSON object per line, in the order given."""
    write_lines(path, (json.dumps(article_to_record(article), ensure_ascii=False) for article in articles))


def stratified_sample(
    articles: Iterable[Article], keywords: Sequence[str], n: int, seed: int
) -> list[tuple[int, str]]:
    """The (position, id), in corpus order, of up to n articles drawn evenly across keyword strata.

    A stratum holds the articles whose body contains the keyword, both
    case-folded as the extractor folds them (patterns.fold_case), so keywords
    equal but for case form one stratum; an article in several strata goes to
    the first matching keyword. Empty-stratum quota is redistributed
    round-robin. Deterministic for a given seed; holds only positions and ids.
    """
    folded = list(dict.fromkeys(fold_case(kw) for kw in keywords))
    if not folded:
        raise ValueError("keywords must be non-empty")
    if n < len(folded):
        raise ValueError(f"n ({n}) must be >= number of distinct keywords ({len(folded)})")

    strata: dict[str, list[tuple[int, str]]] = {kw: [] for kw in folded}
    for pos, article in enumerate(articles):
        body = fold_case(article.body)
        for kw in folded:
            if kw in body:
                strata[kw].append((pos, article.id))
                break

    capacity = {kw: len(strata[kw]) for kw in folded}
    take = {kw: 0 for kw in folded}
    remaining = min(n, sum(capacity.values()))
    while remaining:  # it never exceeds the capacity left, so each round takes at least one
        for kw in folded:
            if remaining and take[kw] < capacity[kw]:
                take[kw] += 1
                remaining -= 1

    rng = random.Random(seed)
    chosen: list[tuple[int, str]] = []
    for kw in folded:
        if take[kw]:
            chosen.extend(rng.sample(strata[kw], take[kw]))
    chosen.sort()
    return chosen


def chosen_articles(articles: Iterable[Article], chosen: Sequence[tuple[int, str]]) -> Iterator[Article]:
    """The articles stratified_sample chose, read again by position; ValueError names one that moved."""
    source = enumerate(articles)
    for position, chosen_id in chosen:
        article = next((article for pos, article in source if pos == position), None)
        if article is None or article.id != chosen_id:
            raise ValueError(f"sampled article {chosen_id!r} is no longer in its place: the corpus changed")
        yield article
