"""Shared output helpers: percentages, rounding, sentences.tsv cells and whole-file writes.

All printed percentages use round-half-away-from-zero to 2 decimals.
"""

import os
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path


def pct(numerator: float, denominator: float) -> float:
    """100 * numerator / denominator, with 0/0 (and x/0) defined as 0."""
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator


def round2(x: float) -> float:
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def fmt2(x: float) -> str:
    return f"{Decimal(repr(float(x))).quantize(Decimal('0.01'), rounding=ROUND_HALF_UP):.2f}"


def escape_cell(text: str) -> str:
    """text as one sentences.tsv cell: tabs and every str.splitlines line boundary become spaces."""
    return " ".join(text.replace("\t", " ").splitlines())


@contextmanager
def atomic_open(path):
    """Open `path` for writing text that appears there only if the block completes.

    The text goes to `.<name>.tmp` beside `path`, which replaces `path` when
    the block ends and is removed when the block raises.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines) -> int:
    """Write each line, then a newline, as the whole file at `path` (via atomic_open); returns the line count."""
    count = 0
    with atomic_open(path) as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(f"{line}\n")
    return count
