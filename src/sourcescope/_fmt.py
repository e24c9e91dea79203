"""Shared output helpers: percentages, rounding, sentences.tsv cells and whole-file writes.

All printed percentages use round-half-away-from-zero to 2 decimals. Files are written in place;
a CLI run writes them into a staging directory that `cli._out_dir` publishes when the run succeeds.
"""


def pct(numerator: float, denominator: float) -> float:
    """100 * numerator / denominator, with 0/0 (and x/0) defined as 0."""
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator


def round2(x: float) -> float:
    from decimal import ROUND_HALF_UP, Decimal
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def fmt2(x: float) -> str:
    from decimal import ROUND_HALF_UP, Decimal
    return f"{Decimal(repr(float(x))).quantize(Decimal('0.01'), rounding=ROUND_HALF_UP):.2f}"


def escape_cell(text: str) -> str:
    """text as one sentences.tsv cell: tabs and every str.splitlines line boundary become spaces."""
    return " ".join(text.replace("\t", " ").splitlines())


def write_lines(path, lines) -> int:
    """Write each line, then a newline, as the whole file at `path`; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(f"{line}\n")
    return count
