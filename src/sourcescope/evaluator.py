"""Scoring of predicted mentions against gold annotations."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Optional

from sourcescope._fmt import fmt2, pct, write_lines
from sourcescope.extractor import KIND_ORDER, Kind, SourceMention
from sourcescope.patterns import Platform


class ConfusionCounts(NamedTuple):
    tp: dict  # Kind -> int
    fp: dict
    fn: dict


class MetricRow(NamedTuple):
    precision: float  # percent
    recall: float
    f1: float


class EvalReport(NamedTuple):
    per_kind: dict  # Kind -> MetricRow
    macro: MetricRow
    micro: MetricRow


def _gold_row(obj) -> tuple:
    """The ((article, sentence, platform), kind) of one gold object."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    missing = [key for key in ("article_id", "sentence_index", "platform", "kind") if key not in obj]
    if missing:
        raise ValueError(f"missing key {', '.join(missing)}")
    article_id, index = obj["article_id"], obj["sentence_index"]
    if not isinstance(article_id, str):
        raise ValueError(f"article_id must be a string, not {article_id!r}")
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValueError(f"sentence_index must be a non-negative integer, not {index!r}")
    return (article_id, index, Platform(obj["platform"])), Kind(obj["kind"])


def load_gold(path) -> dict:
    """A gold file, one JSON object per line, as the {(article, sentence, platform): kind} map, in file order.

    Blank lines are skipped. A line that is not UTF-8, not a gold object, or
    repeats a key raises ValueError naming its line number.
    """
    annotations: dict = {}
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                key, kind = _gold_row(json.loads(line))
                if key in annotations:
                    raise ValueError(f"duplicate key {key[0]!r}, {key[1]}, {key[2].value}")
                annotations[key] = kind
            except UnicodeDecodeError as exc:
                raise ValueError(f"gold line {line_number}: invalid UTF-8 at byte offset {exc.start}") from None
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"gold line {line_number}: {exc}") from None
    return annotations


def compare(predicted: Iterable[SourceMention], gold_map: dict) -> ConfusionCounts:
    """A prediction is a TP iff gold_map holds the same (article, sentence, platform) with the same kind.

    Unmatched predictions are FPs of their predicted kind; unmatched golds
    are FNs of their gold kind. The predictions are counted as they come, and
    one that repeats a key raises ValueError. gold_map is load_gold's map,
    which compare uses up: it sets each key a prediction takes to None.
    """
    counts = ConfusionCounts(dict.fromkeys(KIND_ORDER, 0), dict.fromkeys(KIND_ORDER, 0), dict.fromkeys(KIND_ORDER, 0))
    for mention in predicted:
        key, kind = (mention.article_id, mention.sentence_index, mention.platform), mention.kind
        gold_kind = gold_map.get(key, False)  # None once a prediction has taken the key
        if gold_kind is None:
            raise ValueError(f"duplicate prediction key {key}")
        gold_map[key] = None
        (counts.tp if gold_kind == kind else counts.fp)[kind] += 1
        if gold_kind and gold_kind != kind:
            counts.fn[gold_kind] += 1
    for gold_kind in filter(None, gold_map.values()):  # the golds that no prediction took
        counts.fn[gold_kind] += 1
    return counts


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def metrics(counts: ConfusionCounts) -> EvalReport:
    """Per-kind and macro/micro precision, recall, F1 as percentages.

    0/0 ratios are 0. Macro F1 is the harmonic mean of macro P and macro R;
    micro metrics pool counts across kinds.
    """
    per_kind: dict = {}
    for kind in KIND_ORDER:
        p = pct(counts.tp[kind], counts.tp[kind] + counts.fp[kind])
        r = pct(counts.tp[kind], counts.tp[kind] + counts.fn[kind])
        per_kind[kind] = MetricRow(p, r, _f1(p, r))

    macro_p = sum(row.precision for row in per_kind.values()) / len(KIND_ORDER)
    macro_r = sum(row.recall for row in per_kind.values()) / len(KIND_ORDER)
    macro = MetricRow(macro_p, macro_r, _f1(macro_p, macro_r))

    tp = sum(counts.tp.values())
    fp = sum(counts.fp.values())
    fn = sum(counts.fn.values())
    micro_p = pct(tp, tp + fp)
    micro_r = pct(tp, tp + fn)
    micro = MetricRow(micro_p, micro_r, _f1(micro_p, micro_r))

    return EvalReport(per_kind=per_kind, macro=macro, micro=micro)


# Previously reported results for this detector family. The Quotation and
# Paraphrase F1 cells are inconsistent with the harmonic mean of their own
# row's P/R and are exactly each other's values (a typesetting transposition).
REPORTED_RESULTS = {
    Kind.QUOTATION: MetricRow(89.80, 73.33, 86.21),
    Kind.PARAPHRASE: MetricRow(94.34, 79.37, 80.73),
    Kind.EMBEDDING: MetricRow(100.0, 100.0, 100.0),
}


def f1_transposition_note(report: EvalReport) -> Optional[str]:
    """A note when the computed F1s match the reported table with Quotation
    and Paraphrase swapped; None otherwise."""
    q = report.per_kind[Kind.QUOTATION]
    p = report.per_kind[Kind.PARAPHRASE]
    rq = REPORTED_RESULTS[Kind.QUOTATION]
    rp = REPORTED_RESULTS[Kind.PARAPHRASE]
    # F1s pair across rows; the reported F1 cells differ by far more than the tolerance, so a match as reported fails
    cells = ((q.precision, rq.precision), (q.recall, rq.recall), (p.precision, rp.precision),
             (p.recall, rp.recall), (q.f1, rp.f1), (p.f1, rq.f1))
    if all(abs(a - b) <= 0.01 + 1e-9 for a, b in cells):  # one unit in the last place of a two-decimal cell
        return (
            "note: recomputed Quotation/Paraphrase F1 values "
            f"({fmt2(q.f1)}, {fmt2(p.f1)}) match the reported table with the "
            "two cells transposed; the reported F1 cells are inconsistent "
            "with their own rows' P/R"
        )
    return None


def report_rows(report: EvalReport) -> list[tuple[str, MetricRow]]:
    """The report's rows in reporting order: Quotation, Paraphrase, Embedding, Macro-average, Micro-average."""
    rows = [(kind.value.capitalize(), report.per_kind[kind]) for kind in KIND_ORDER]
    return rows + [("Macro-average", report.macro), ("Micro-average", report.micro)]


def write_report_csv(report: EvalReport, path, note: Optional[str] = None) -> None:
    """CSV header and one row per report_rows entry, then the note as a comment."""
    rows = [f"{label},{fmt2(row.precision)},{fmt2(row.recall)},{fmt2(row.f1)}" for label, row in report_rows(report)]
    comment = [f"# {note}"] if note else []
    write_lines(path, ["category,precision,recall,f1", *rows, *comment])
