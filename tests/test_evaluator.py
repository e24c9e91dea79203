import itertools
import json
import random

import pytest

from sourcescope.evaluator import (
    ConfusionCounts,
    EvalReport,
    GoldAnnotation,
    KIND_ORDER,
    MetricRow,
    _gold_map,
    compare,
    f1_transposition_note,
    load_gold,
    metrics,
    write_report_csv,
)
from sourcescope.extractor import Kind, SourceMention
from sourcescope.patterns import Platform


def mention(i, kind, platform=Platform.TWITTER, sent=0):
    return SourceMention(f"a{i}", sent, platform, kind, None if kind == Kind.EMBEDDING else "p", 0, 1)


def gold(i, kind, platform=Platform.TWITTER, sent=0):
    return GoldAnnotation(f"a{i}", sent, platform, kind)


def counts_from(tp, fp, fn):
    return ConfusionCounts(
        tp=dict(zip(KIND_ORDER, tp)), fp=dict(zip(KIND_ORDER, fp)), fn=dict(zip(KIND_ORDER, fn))
    )


class TestCompare:
    def test_both_empty(self):
        counts = compare([], [])
        assert all(v == 0 for d in (counts.tp, counts.fp, counts.fn) for v in d.values())

    def test_exact_match(self):
        counts = compare([mention(1, Kind.QUOTATION)], [gold(1, Kind.QUOTATION)])
        assert counts.tp[Kind.QUOTATION] == 1
        assert sum(counts.fp.values()) == 0 and sum(counts.fn.values()) == 0

    def test_kind_mismatch_is_fp_and_fn(self):
        counts = compare([mention(1, Kind.QUOTATION)], [gold(1, Kind.PARAPHRASE)])
        assert counts.fp[Kind.QUOTATION] == 1
        assert counts.fn[Kind.PARAPHRASE] == 1
        assert sum(counts.tp.values()) == 0

    def test_full_kind_grid(self):
        # brute force over predicted-kind x gold-kind confirms the accounting
        for pk, gk in itertools.product(KIND_ORDER, KIND_ORDER):
            counts = compare([mention(1, pk)], [gold(1, gk)])
            if pk == gk:
                assert counts.tp[pk] == 1
                assert sum(counts.fp.values()) + sum(counts.fn.values()) == 0
            else:
                assert counts.fp[pk] == 1 and counts.fn[gk] == 1

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            compare([mention(1, Kind.QUOTATION), mention(1, Kind.PARAPHRASE)], [])
        with pytest.raises(ValueError, match="duplicate"):
            compare([], [gold(1, Kind.QUOTATION), gold(1, Kind.PARAPHRASE)])

    @pytest.mark.parametrize("taken", ["in-gold", "not-in-gold"])
    def test_duplicate_prediction_in_a_stream_rejected(self, taken):
        golds = [gold(1, Kind.QUOTATION)] if taken == "in-gold" else []
        for gold_side in (golds, {(g.article_id, g.sentence_index, g.platform): g.kind for g in golds}):
            with pytest.raises(ValueError, match="duplicate prediction key"):
                compare(iter([mention(1, Kind.QUOTATION), mention(2, Kind.QUOTATION), mention(1, Kind.EMBEDDING)]),
                        gold_side)

    def test_keyed_gold_file_scores_as_its_annotations(self, tmp_path):
        rng = random.Random(25)
        keys = {(f"a{rng.randrange(40)}", rng.randrange(4), rng.choice(list(Platform))) for _ in range(300)}
        golds = [GoldAnnotation(*key, rng.choice(KIND_ORDER)) for key in sorted(keys)[::2]]
        predicted = [SourceMention(*key, rng.choice(KIND_ORDER), None, 0, 1) for key in sorted(keys)[1::3]]
        path = tmp_path / "gold.jsonl"
        path.write_text("".join(json.dumps({"article_id": g.article_id, "sentence_index": g.sentence_index,
                                            "platform": g.platform.value, "kind": g.kind.value}) + "\n"
                                for g in golds), encoding="utf-8")
        keyed = _gold_map(path)
        assert load_gold(path) == golds
        assert keyed == {(g.article_id, g.sentence_index, g.platform): g.kind for g in golds}
        expected = compare(predicted, golds)
        assert min(sum(c.values()) for c in (expected.tp, expected.fp, expected.fn)) > 10
        assert compare(iter(predicted), keyed) == expected

    def test_exact_accounting_property(self):
        predicted = [mention(i, KIND_ORDER[i % 3]) for i in range(30)]
        golds = [gold(i + 15, KIND_ORDER[i % 3]) for i in range(30)]
        counts = compare(predicted, golds)
        assert sum(counts.tp.values()) + sum(counts.fp.values()) == len(predicted)
        assert sum(counts.tp.values()) + sum(counts.fn.values()) == len(golds)


class TestMetrics:
    def test_quotation_row(self):
        counts = counts_from(tp=(44, 0, 0), fp=(5, 0, 0), fn=(16, 0, 0))
        row = metrics(counts).per_kind[Kind.QUOTATION]
        assert row.precision == pytest.approx(89.80, abs=0.005)
        assert row.recall == pytest.approx(73.33, abs=0.005)

    def test_micro_row(self):
        counts = counts_from(tp=(44, 50, 270), fp=(5, 3, 0), fn=(16, 13, 0))
        micro = metrics(counts).micro
        assert micro.precision == pytest.approx(97.85, abs=0.005)
        assert micro.recall == pytest.approx(92.62, abs=0.005)
        assert micro.f1 == pytest.approx(95.16, abs=0.005)

    def test_f1_harmonic_mean_oracle(self):
        def harmonic(p, r):
            return 0.0 if p + r == 0 else 2 * p * r / (p + r)

        counts = counts_from(tp=(44, 50, 270), fp=(5, 3, 0), fn=(16, 13, 0))
        report = metrics(counts)
        q = report.per_kind[Kind.QUOTATION]
        p = report.per_kind[Kind.PARAPHRASE]
        assert q.f1 == pytest.approx(harmonic(q.precision, q.recall))
        assert q.f1 == pytest.approx(80.73, abs=0.005)
        assert p.f1 == pytest.approx(86.21, abs=0.005)

    def test_macro_row(self):
        counts = counts_from(tp=(44, 50, 270), fp=(5, 3, 0), fn=(16, 13, 0))
        macro = metrics(counts).macro
        assert macro.precision == pytest.approx(94.71, abs=0.005)
        assert macro.recall == pytest.approx(84.23, abs=0.005)

    def test_zero_counts_report_zero(self):
        report = metrics(ConfusionCounts())
        for row in report.per_kind.values():
            assert (row.precision, row.recall, row.f1) == (0.0, 0.0, 0.0)
        assert report.micro.f1 == 0.0

    def test_scale_free_property(self):
        base = counts_from(tp=(4, 5, 6), fp=(1, 2, 0), fn=(2, 0, 3))
        for factor in (2, 5, 17):
            scaled = counts_from(
                tp=tuple(base.tp[k] * factor for k in KIND_ORDER),
                fp=tuple(base.fp[k] * factor for k in KIND_ORDER),
                fn=tuple(base.fn[k] * factor for k in KIND_ORDER),
            )
            a, b = metrics(base), metrics(scaled)
            for kind in KIND_ORDER:
                assert a.per_kind[kind] == b.per_kind[kind]

    def test_perfect_prediction_all_100(self):
        counts = counts_from(tp=(3, 4, 5), fp=(0, 0, 0), fn=(0, 0, 0))
        report = metrics(counts)
        for row in list(report.per_kind.values()) + [report.macro, report.micro]:
            assert (row.precision, row.recall, row.f1) == (100.0, 100.0, 100.0)

    def test_metrics_bounded(self):
        counts = counts_from(tp=(1, 0, 7), fp=(3, 2, 0), fn=(0, 5, 1))
        report = metrics(counts)
        for row in list(report.per_kind.values()) + [report.macro, report.micro]:
            for value in (row.precision, row.recall, row.f1):
                assert 0.0 <= value <= 100.0


class TestTranspositionFlag:
    def test_flags_reconstruction(self):
        counts = counts_from(tp=(44, 50, 270), fp=(5, 3, 0), fn=(16, 13, 0))
        note = f1_transposition_note(metrics(counts))
        assert note is not None and "transposed" in note

    def test_silent_on_other_numbers(self):
        counts = counts_from(tp=(3, 4, 5), fp=(0, 0, 0), fn=(0, 0, 0))
        assert f1_transposition_note(metrics(counts)) is None

    @pytest.mark.parametrize(
        "quotation, paraphrase",
        [
            (MetricRow(89.80, 73.33, 80.73), MetricRow(90.00, 79.37, 86.21)),  # Paraphrase P is not the reported one
            (MetricRow(89.80, 73.33, 86.21), MetricRow(94.34, 79.37, 80.73)),  # F1s as reported
            (MetricRow(89.80, 73.33, 80.00), MetricRow(94.34, 79.37, 86.21)),  # Quotation F1 neither reported cell
        ],
        ids=["other-paraphrase-row", "f1s-as-reported", "other-f1"],
    )
    def test_silent_unless_only_the_f1_cells_are_swapped(self, quotation, paraphrase):
        embedding = MetricRow(100.0, 100.0, 100.0)
        per_kind = {Kind.QUOTATION: quotation, Kind.PARAPHRASE: paraphrase, Kind.EMBEDDING: embedding}
        assert f1_transposition_note(EvalReport(per_kind, macro=embedding, micro=embedding)) is None


def test_report_csv_layout(tmp_path):
    counts = counts_from(tp=(44, 50, 270), fp=(5, 3, 0), fn=(16, 13, 0))
    report = metrics(counts)
    path = tmp_path / "report.csv"
    write_report_csv(report, path, note=f1_transposition_note(report))
    lines = path.read_text().splitlines()
    assert lines[0] == "category,precision,recall,f1"
    assert lines[1] == "Quotation,89.80,73.33,80.73"
    assert lines[2] == "Paraphrase,94.34,79.37,86.21"
    assert lines[3] == "Embedding,100.00,100.00,100.00"
    assert lines[4].startswith("Macro-average,94.71,84.23,")
    assert lines[5] == "Micro-average,97.85,92.62,95.16"
    assert lines[6].startswith("# note:")


def test_load_gold_skips_blank_lines(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '\n{"article_id": "a1", "sentence_index": 2, "platform": "twitter", "kind": "embedding"}\n \t\n\n'
    )
    assert load_gold(path) == [GoldAnnotation("a1", 2, Platform.TWITTER, Kind.EMBEDDING)]


def test_load_gold_roundtrip(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '{"article_id": "a1", "sentence_index": 2, "platform": "twitter", "kind": "embedding"}\n'
    )
    golds = load_gold(path)
    assert golds == [GoldAnnotation("a1", 2, Platform.TWITTER, Kind.EMBEDDING)]


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ('"a1"', "JSON object"),
        ('{"article_id": "a1", "platform": "twitter", "kind": "embedding"}', "sentence_index"),
        ('{"article_id": 7, "sentence_index": 2, "platform": "twitter", "kind": "embedding"}', "article_id"),
        ('{"article_id": "a1", "sentence_index": -1, "platform": "twitter", "kind": "embedding"}', "sentence_index"),
        ('{"article_id": "a1", "sentence_index": 2.5, "platform": "twitter", "kind": "embedding"}', "sentence_index"),
        ('{"article_id": "a1", "sentence_index": true, "platform": "twitter", "kind": "embedding"}', "sentence_index"),
        ('{"article_id": "a1", "sentence_index": 2, "platform": "myspace", "kind": "embedding"}', "myspace"),
        ('{"article_id": "a1", "sentence_index": 2, "platform": "twitter", "kind": "rumour"}', "rumour"),
        ('{"article_id": "a1", ', "gold line 2"),
        ('{"article_id": "a0", "sentence_index": 0, "platform": "facebook", "kind": "paraphrase"}', "duplicate"),
        (b"ab\xff\xfe", "gold line 2: invalid UTF-8 at byte offset 2"),
    ],
    ids=[
        "not-an-object", "missing-key", "non-string-id", "negative-index", "float-index",
        "bool-index", "bad-platform", "bad-kind", "bad-json", "duplicate-key", "undecodable",
    ],
)
def test_load_gold_rejects_bad_line(tmp_path, bad_line, reason):
    path = tmp_path / "gold.jsonl"
    good = b'{"article_id": "a0", "sentence_index": 0, "platform": "facebook", "kind": "quotation"}'
    if isinstance(bad_line, str):
        bad_line = bad_line.encode("utf-8")
    path.write_bytes(good + b"\n" + bad_line + b"\n")
    with pytest.raises(ValueError, match="^gold line 2: ") as exc:
        load_gold(path)
    assert reason in str(exc.value)
