import json
import random
from datetime import date
from pathlib import Path

import pytest

from sourcescope.corpus import Article, CorpusReader, MediaType
from sourcescope.extractor import extract_chunk, map_chunks
from sourcescope.patterns import default_patterns

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_CORPUS = DATA_DIR / "golden_corpus.jsonl"
GOLDEN_GOLD = DATA_DIR / "golden_gold.jsonl"

# one "[PASS]/[FAIL] criterion ..." line per acceptance criterion,
# appended by tests/test_acceptance.py and echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pattern_set():
    return default_patterns()


def read_articles(path, fail_fast: bool = True) -> tuple:
    """The accepted articles of a corpus file, in file order."""
    with CorpusReader(path, fail_fast) as reader:
        return tuple(record for record in reader if isinstance(record, Article))


def extract_all(articles, pattern_set, workers: int = 1) -> list:
    """Each article's ExtractionResult, in input order, as evaluate extracts them."""
    return list(map_chunks(extract_chunk, articles, (pattern_set,), workers))


_FILLER = (
    "the report described local events in detail and officials offered further "
    "comment on the situation while residents waited for news from the council"
).split()

_SPECIAL_SENTENCES = (
    "She tweeted that the plan was ready.",
    '"We are done," he posted on Facebook.',
    "— Some Person (@someone) May 4, 2016",
    "He took to Twitter after the game.",
    'The mayor said the weather was "unusually calm" this week.',
    "Don't forget it wasn't over yet.",
    "In a Facebook post, the group warned members.",
    "pic.twitter.com/XyZ987 drew attention.",
    "“Enough,” she wrote on Facebook.",
)


def random_sentence(rng: random.Random) -> str:
    words = [rng.choice(_FILLER) for _ in range(rng.randint(6, 14))]
    words[0] = words[0].capitalize()
    return " ".join(words) + rng.choice([".", ".", ".", "!", "?"])


def random_body(rng: random.Random, n_sentences=None, special_rate=0.25) -> str:
    parts = []
    for _ in range(n_sentences if n_sentences is not None else rng.randint(1, 10)):
        if rng.random() < special_rate:
            parts.append(rng.choice(_SPECIAL_SENTENCES))
        else:
            parts.append(random_sentence(rng))
    sep = "\n\n" if rng.random() < 0.2 else " "
    return sep.join(parts)


def random_corpus(rng: random.Random, n_articles: int) -> tuple:
    articles = []
    for i in range(n_articles):
        articles.append(
            Article(
                id=f"r{i:04d}",
                outlet=rng.choice(["Alpha Times", "Beta Buzz"]),
                media_type=rng.choice(list(MediaType)),
                published_at=date(rng.randint(2013, 2017), rng.randint(1, 12), rng.randint(1, 28)),
                headline=random_sentence(rng),
                body=random_body(rng),
                topic=rng.choice([None, "Politics", "Sports", "Health"]),
            )
        )
    return tuple(articles)


_FUZZ_RECORD = {
    "outlet": "Alpha Times",
    "media_type": "mainstream",
    "published_at": "2016-05-04",
    "headline": "Quiet day",
    "body": "She tweeted that the plan was ready.",
}
# one broken field per entry: (field, replacement JSON text, or None to drop it)
_BROKEN_FIELDS = (
    ("id", None), ("id", '""'), ("id", "7"), ("outlet", None), ("outlet", "null"),
    ("media_type", '"satire"'), ("media_type", "[1]"), ("published_at", '"May 4, 2016"'),
    ("published_at", "20160504"), ("published_at", '"20160504"'), ("published_at", '"2016-W18-3"'),
    ("headline", "{}"), ("body", "1.5"), ("body", None),
    ("topic", "3"), ("url", "[]"),
    ("id", r'"a\ud800"'), ("outlet", r'"\udfff Times"'), ("headline", r'"x\uDBFF"'),
    ("body", r'"a lone \ud800 here"'), ("topic", r'"\ud800"'), ("url", r'"http://\udc00"'),
    ("id", r'"a\tb"'), ("id", r'"a\nb"'), ("id", r'"a\u2028b"'),
)


def _record_line(fields: dict) -> bytes:
    """A corpus line from field name -> JSON text."""
    return ("{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}").encode("utf-8")


def fuzz_corpus_lines(rng: random.Random, n_lines: int) -> tuple:
    """Seeded corpus lines of every kind an outside file can hold.

    Returns (lines, expected): `lines` are byte lines without their "\\n";
    `expected[i]` is ("accept", id), ("reject", None) or ("blank", None),
    the fate of line i + 1 under the corpus rules.
    """
    lines: list = []
    expected: list = []
    accepted_ids: list = []

    def fields(art_id):
        out = {key: json.dumps(value) for key, value in _FUZZ_RECORD.items()}
        out["id"] = json.dumps(art_id)
        if rng.random() < 0.3:
            out["topic"] = json.dumps(rng.choice(["Politics", "Sports", None]))
        return out

    for number in range(1, n_lines + 1):
        art_id = f"f{number}"
        roll = rng.random()
        if roll < 0.35:
            record = fields(art_id)
            extra = rng.choice([
                None,
                ("nested", "[" * 20 + "]" * 20),  # parses: an unknown key
                ("big", "1." + "0" * 5000),  # a float has no digit limit
                ("body", r'"A smile \ud83d\ude00 here."'),  # an escaped pair is one character
                ("note", r'"\ud800"'),  # an unknown key's value is never used
            ])
            if extra:
                record[extra[0]] = extra[1]
            line = _record_line(record) + rng.choice([b"", b"", b"\r", b" \t"])
            fate = ("accept", art_id)
        elif roll < 0.45 and accepted_ids:
            line, fate = _record_line(fields(rng.choice(accepted_ids))), ("reject", None)
        elif roll < 0.65:
            record = fields(art_id)
            key, text = rng.choice(_BROKEN_FIELDS)
            if text is None:
                record.pop(key)
            else:
                record[key] = text
            line, fate = _record_line(record), ("reject", None)
        elif roll < 0.75:
            line, fate = rng.choice([b"", b"   ", b"\t", b"\r", b" \r"]), ("blank", None)
        else:
            line = rng.choice([
                _record_line(fields(art_id)).replace(b"She", b"S\xffe"),  # invalid UTF-8
                _record_line(fields(art_id))[:-1] + b"\xe2\x80",  # truncated multi-byte character
                b"[" * 5000 + b"]" * 5000,  # nested past the parser's recursion limit
                _record_line(dict(fields(art_id), big="1" + "0" * 4300)),  # a 4,301-digit integer
                _record_line(dict(fields(art_id), big="-" + "9" * 6000)),
                b'{"id": "' + art_id.encode() + b'", ',  # truncated record
                b"[1, 2, 3]",
                b"42",
                b"null",
                b"not json at all",
                b'{"id": "x"} {"id": "y"}',
            ])
            fate = ("reject", None)
        if fate[0] == "accept":
            accepted_ids.append(fate[1])
        lines.append(line)
        expected.append(fate)
    return lines, expected
