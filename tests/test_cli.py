"""End-to-end tests for the command-line interface."""

import argparse
import csv
import errno
import gc
import http.server
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from sourcescope import analytics, cli, corpus, evaluator, extractor, patterns, segmenter
from sourcescope._fmt import escape_cell
from sourcescope.corpus import ingest, serialize
from sourcescope.segmenter import segment

from conftest import GOLDEN_CORPUS, GOLDEN_GOLD, fuzz_corpus_lines, random_corpus


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


GOOD_RECORD = {
    "id": "a1",
    "outlet": "The Alpha Times",
    "media_type": "mainstream",
    "published_at": "2016-05-04",
    "headline": "Quiet day",
    "body": "She tweeted that the plan was ready.",
}


def _alive(pid) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _live_processes() -> dict:
    """pid -> (parent pid, process group) of each process that has not exited."""
    processes = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            state, ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
            if state != "Z":
                processes[int(entry.name)] = (int(ppid), int(pgrp))
    return processes


def _live_children(parent) -> list:
    return [pid for pid, (ppid, _) in _live_processes().items() if ppid == parent]


def _live_in_group(group) -> list:
    """The live processes of a process group, an orphan too (it keeps its group when another process adopts it)."""
    return [pid for pid, (_, pgrp) in _live_processes().items() if pgrp == group]


def _kill_quietly(pid) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _interrupted_run(tmp_path, argv, workers, interrupt, corpus_path=None, launcher=("-m", "sourcescope.cli")):
    """Run the CLI on a 20,000-article corpus (written here unless corpus_path is given), in a process
    group of its own as a shell runs a job, and call interrupt(proc, children) once it has `workers`
    live children and is staging its files. `launcher` is the interpreter's arguments before argv.

    Returns (its exit status, its stderr, the children it had, its --out).
    """
    if corpus_path is None:
        corpus_path = tmp_path / "corpus.jsonl"
        serialize(random_corpus(random.Random(6), 20000), corpus_path)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    children: list = []
    # the with block closes the stderr pipe on every path, a timeout too
    with subprocess.Popen(
        [sys.executable, *launcher, *argv, "--corpus", str(corpus_path), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                children = _live_children(proc.pid)
                if len(children) == workers and out.is_dir() and any(out.glob(".*.tmp")):
                    interrupt(proc, children)
                    break
                time.sleep(0.01)
            _, err = proc.communicate(timeout=30)
        finally:
            for pid in _live_children(proc.pid) + children:
                _kill_quietly(pid)
            proc.kill()
            proc.wait()
    return proc.returncode, err, children, out


def write_one_in_32(path, cited_body, other_body):
    """A 32-article 2016 mainstream corpus whose first article alone has cited_body: 1/32 is 3.125 %."""
    records = [dict(GOOD_RECORD, id=f"a{i:02d}", body=other_body) for i in range(32)]
    records[0]["body"] = cited_body
    write_jsonl(path, records)
    return path


class TestIngest:
    def test_clean_corpus(self, tmp_path, capsys):
        code, out, _ = run(["ingest", "--corpus", str(GOLDEN_CORPUS)], capsys)
        assert code == cli.EXIT_OK
        assert out.startswith("34 accepted, 0 rejected")

    def test_skip_mode_reports_rejects(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        bad = dict(GOOD_RECORD, id="a2", media_type="tabloid")
        write_jsonl(path, [GOOD_RECORD, bad])
        code, out, _ = run(["ingest", "--corpus", str(path)], capsys)
        assert code == cli.EXIT_OK
        assert "1 accepted, 1 rejected" in out
        assert "rejected line 2" in out
        assert "tabloid" in out

    def test_fail_fast_names_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        bad = dict(GOOD_RECORD, id="a2", published_at="May 4, 2016")
        write_jsonl(path, [GOOD_RECORD, bad, dict(GOOD_RECORD, id="a3")])
        code, _, err = run(
            ["ingest", "--corpus", str(path), "--fail-fast"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "line 2" in err

    @pytest.mark.parametrize(
        "bad_line",
        [
            b'{"id": "a2", "body": "\xff"}',
            b"[" * 100000 + b"]" * 100000,
            b'{"id": "a2", "n": 1' + b"0" * 4300 + b"}",
            json.dumps(dict(GOOD_RECORD, id="a2", body="\ud800")).encode("utf-8"),
        ],
        ids=["undecodable", "deeply-nested", "over-long-number", "lone-surrogate"],
    )
    def test_bad_line_is_rejected_not_fatal(self, tmp_path, capsys, bad_line):
        path = tmp_path / "corpus.jsonl"
        good = [json.dumps(dict(GOOD_RECORD, id=i)).encode("utf-8") for i in ("a1", "a3")]
        path.write_bytes(b"\n".join([good[0], bad_line, good[1]]) + b"\n")
        code, out, _ = run(["ingest", "--corpus", str(path)], capsys)
        assert code == cli.EXIT_OK
        assert "2 accepted, 1 rejected" in out
        assert "rejected line 2" in out
        code, _, err = run(["ingest", "--corpus", str(path), "--fail-fast"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert "line 2" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(["ingest", "--corpus", str(tmp_path / "nope.jsonl")], capsys)
        assert code == cli.EXIT_IO
        assert err.startswith("error:")


@pytest.mark.parametrize("workers", [1, 2])
def test_fuzzed_corpus_exit_codes(tmp_path, capsys, workers):
    lines, expected = fuzz_corpus_lines(random.Random(11 + workers), 300)
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    fates = [fate for fate, _ in expected]
    first_bad = fates.index("reject") + 1

    code, out, _ = run(["ingest", "--corpus", str(path)], capsys)
    assert code == cli.EXIT_OK
    assert out.startswith(f"{fates.count('accept')} accepted, {fates.count('reject')} rejected\n")
    code, _, err = run(["ingest", "--corpus", str(path), "--fail-fast"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err.startswith(f"error: line {first_bad}: ")

    extract = ["extract", "--corpus", str(path), "--parallel", str(workers), "--out"]
    code, out, _ = run(extract + [str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_OK
    assert out.startswith(f"{fates.count('accept')} articles processed, ")
    code, _, err = run(extract + [str(tmp_path / "failed"), "--fail-fast"], capsys)
    assert code == cli.EXIT_VALIDATION
    assert err.startswith(f"error: line {first_bad}: ")
    assert list((tmp_path / "failed").iterdir()) == []


class TestExtract:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code, text, _ = run(
                ["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(out)], capsys
            )
            assert code == cli.EXIT_OK
            assert "articles processed" in text
            assert "pattern set version:" in text
        assert (out_a / "mentions.jsonl").read_bytes() == (out_b / "mentions.jsonl").read_bytes()
        assert (out_a / "sentences.tsv").read_bytes() == (out_b / "sentences.tsv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run(["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(serial)], capsys)
        code, _, _ = run(
            [
                "extract",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(parallel),
                "--parallel",
                "3",
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        for name in ("mentions.jsonl", "sentences.tsv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sentences_tsv_matches_two_pass_oracle(self, tmp_path, capsys, workers):
        corpus_path = tmp_path / "corpus.jsonl"
        articles = random_corpus(random.Random(17), 40)
        serialize(articles, corpus_path)
        out = tmp_path / "out"
        code, _, _ = run(
            ["extract", "--corpus", str(corpus_path), "--out", str(out), "--parallel", workers],
            capsys,
        )
        assert code == cli.EXIT_OK
        # reference: segment each body again after extraction, as a separate pass
        expected = []
        for article in articles:
            for span in segment(article.body):
                text = article.body[span.start:span.end].replace("\t", " ").replace("\n", " ")
                expected.append(f"{article.id}\t{span.index}\t{text}\n")
        assert (out / "sentences.tsv").read_bytes() == "".join(expected).encode("utf-8")

    def test_each_body_segmented_and_quote_scanned_once(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        for original in (segmenter.segment, patterns.extract_quote_spans):

            def counted(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            for module in (analytics, cli, corpus, evaluator, extractor, patterns, segmenter):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counted)
        code, _, _ = run(
            ["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path / "out")], capsys
        )
        assert code == cli.EXIT_OK
        articles = len(ingest(GOLDEN_CORPUS))
        assert calls == {"segment": articles, "extract_quote_spans": articles}

    def test_sentences_tsv_has_three_columns(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(out)], capsys)
        lines = (out / "sentences.tsv").read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            assert len(line.split("\t")) == 3

    @pytest.mark.parametrize(
        "body",
        [
            "The mayor wrote on Facebook\r\nthat the plan was ready. Residents waited.",
            "The mayor wrote on Facebook\rthat the plan was ready.",
            "The mayor\x0bwrote\x0con\x1cFacebook\x1dthat\x1ethe\x85plan\u2028was\u2029ready.",
        ],
        ids=["crlf", "cr", "other-line-boundaries"],
    )
    def test_sentences_tsv_line_breaks_stay_in_their_row(self, tmp_path, capsys, body):
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_path, [dict(GOOD_RECORD, body=body)])
        out = tmp_path / "out"
        code, _, _ = run(["extract", "--corpus", str(corpus_path), "--out", str(out)], capsys)
        assert code == cli.EXIT_OK
        lines = (out / "sentences.tsv").read_text(encoding="utf-8").splitlines()
        assert lines
        for index, line in enumerate(lines):
            assert line.split("\t")[:2] == ["a1", str(index)]
            assert len(line.split("\t")) == 3

    def test_sentences_tsv_rows_equal_the_escape_every_cell_writer(self, tmp_path, pattern_set):
        def escaping_every_cell(articles, pattern_set):  # the reference: escape_cell on every cell
            for article in articles:
                result = extractor.extract_mentions(article, pattern_set, sentences=True)
                cells = (escape_cell(article.body[start:end]) for start, end in result.sentences)
                yield result, "".join(f"{article.id}\t{index}\t{cell}\n" for index, cell in enumerate(cells))

        # a tab, every str.splitlines boundary, then spaces and a soft hyphen that are not line boundaries
        odd = ["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
               "\xa0", "\u2009", "\u3000", "\xad"]
        bodies = [f"She tweeted{c}that the plan was ready. The mayor{c}{c}wrote on Facebook.{c}" for c in odd]
        bodies += [c + "".join(odd) + " Done. " + "x".join(odd) for c in odd]
        write_jsonl(tmp_path / "corpus.jsonl", [dict(GOOD_RECORD, id=f"a{i}", body=b) for i, b in enumerate(bodies)])
        articles = ingest(tmp_path / "corpus.jsonl").articles

        def rows(chunk):
            outputs = list(chunk(iter(articles), pattern_set))
            assert len(outputs) == len(articles)
            return "".join(rows for _, rows in outputs)

        expected = rows(escaping_every_cell)
        assert expected.count("\n") > len(articles)
        assert rows(cli._extract_rows) == expected

    def test_a_printable_cell_is_its_own_escape(self):
        # the premise of the writer's shortcut, over every code point but the surrogates
        for code in (*range(0xD800), *range(0xE000, 0x110000)):
            cell = f"a{chr(code)}b"
            assert not cell.isprintable() or escape_cell(cell) == cell, hex(code)

    def test_interrupted_run_leaves_no_output_file(self, tmp_path, capsys, monkeypatch):
        corpus_path = tmp_path / "corpus.jsonl"
        serialize(random_corpus(random.Random(5), 40), corpus_path)
        calls = Counter()
        original = extractor.extract_mentions

        def crashing(article, pattern_set, **kwargs):
            calls["extract_mentions"] += 1
            if calls["extract_mentions"] > 3:
                raise RuntimeError("worker lost")
            return original(article, pattern_set, **kwargs)

        monkeypatch.setattr(extractor, "extract_mentions", crashing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="worker lost"):
            cli.main(["extract", "--corpus", str(corpus_path), "--out", str(out)])
        assert sorted(path.name for path in out.iterdir()) == []

    def test_run_started_during_another_leaves_each_file_whole(self, tmp_path, capsys, monkeypatch):
        corpus_path = tmp_path / "corpus.jsonl"
        serialize(random_corpus(random.Random(7), 40), corpus_path)
        alone = tmp_path / "alone"
        assert cli.main(["extract", "--corpus", str(corpus_path), "--out", str(alone)]) == cli.EXIT_OK
        out = tmp_path / "out"
        argv = ["extract", "--corpus", str(corpus_path), "--out", str(out)]
        calls = Counter()
        original = extractor.extract_mentions

        def starting_a_second_run(article, pattern_set, **kwargs):
            calls["extract_mentions"] += 1
            if calls["extract_mentions"] == 20:  # the first run has written part of each file
                calls["inner exit"] = cli.main(argv)
            return original(article, pattern_set, **kwargs)

        monkeypatch.setattr(extractor, "extract_mentions", starting_a_second_run)
        assert cli.main(argv) == cli.EXIT_OK
        assert calls["inner exit"] == cli.EXIT_OK and calls["extract_mentions"] == 80
        assert sorted(path.name for path in out.iterdir()) == ["mentions.jsonl", "sentences.tsv"]
        for name in ("mentions.jsonl", "sentences.tsv"):
            assert (out / name).read_bytes() == (alone / name).read_bytes()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process parents from /proc")
    def test_sigterm_removes_temporary_files_and_stops_workers(self, tmp_path):
        code, err, workers, out = _interrupted_run(
            tmp_path, ["extract", "--parallel", "2"], 2, lambda proc, workers: proc.send_signal(signal.SIGTERM)
        )
        if code == cli.EXIT_OK:  # finished before the signal could be sent
            assert sorted(path.name for path in out.iterdir()) == ["mentions.jsonl", "sentences.tsv"]
            assert len((out / "sentences.tsv").read_text(encoding="utf-8").splitlines()) > 20000
            return
        assert code == -signal.SIGTERM, err
        assert sorted(path.name for path in out.iterdir()) == []
        assert workers and not [pid for pid in workers if _alive(pid)]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process parents from /proc")
    @pytest.mark.parametrize(
        "argv, workers",
        [(["extract"], 0), (["extract", "--parallel", "2"], 2),
         (["analyze", "--labeler", "keyword", "--parallel", "2"], 2)],
        ids=["extract", "extract-parallel", "analyze-keyword-parallel"],
    )
    def test_ctrl_c_unwinds_and_dies_of_sigint_without_a_traceback(self, tmp_path, argv, workers):
        def ctrl_c(proc, children):
            time.sleep(0.2)  # mid-run, with each worker at work
            os.killpg(proc.pid, signal.SIGINT)  # the terminal sends it to the whole foreground group

        code, err, children, out = _interrupted_run(tmp_path, argv, workers, ctrl_c)
        why = f"code {code}, stderr {err!r}"
        if code == cli.EXIT_OK:  # finished before the signal could be sent
            assert sorted(path.name for path in out.iterdir()), why
            return
        assert err == "", why
        assert code == -signal.SIGINT, why
        assert sorted(path.name for path in out.iterdir()) == [], why
        assert len(children) == workers and not [pid for pid in children if _alive(pid)], why

    def test_worker_killed_mid_run_is_one_error_line(self, tmp_path):
        code, err, workers, out = _interrupted_run(
            tmp_path, ["extract", "--parallel", "2"], 2, lambda proc, workers: os.kill(workers[0], signal.SIGKILL)
        )
        why = f"code {code}, stderr {err!r}"
        if code == cli.EXIT_OK:  # finished before a worker could be killed
            assert sorted(path.name for path in out.iterdir()) == ["mentions.jsonl", "sentences.tsv"], why
            return
        assert code == cli.EXIT_IO, why
        assert len(err.splitlines()) == 1 and err.startswith("error:"), why
        assert sorted(path.name for path in out.iterdir()) == [], why
        assert workers and not [pid for pid in workers if _alive(pid)], why

    @pytest.mark.parametrize(
        "parallel, cpus, expected", [("100000", 1, 1), ("3", 2, 2), ("2", 2, 2), ("1", 2, 1)]
    )
    def test_parallel_is_capped_at_the_usable_cpus(self, tmp_path, capsys, monkeypatch, parallel, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        asked = []
        original = extractor.map_chunks

        def recording(function, articles, context=(), workers=1):  # asks, then maps serially
            asked.append(workers)
            return original(function, articles, context, 1)

        monkeypatch.setattr(extractor, "map_chunks", recording)
        for command in (["extract"], ["evaluate", "--gold", str(GOLDEN_GOLD)], ["analyze"]):
            code, _, _ = run(
                command + ["--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path / "out"), "--parallel", parallel],
                capsys,
            )
            assert code == cli.EXIT_OK
        assert asked == [expected] * 3

    def test_usable_cpus_without_affinity_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._workers(argparse.Namespace(parallel=8)) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._workers(argparse.Namespace(parallel=8)) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_missing_corpus_exits_before_out_is_created(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        code, _, err = run(
            ["extract", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(out), "--parallel", workers],
            capsys,
        )
        assert code == cli.EXIT_IO
        assert err.startswith("error:")
        assert not out.exists()

    def test_invalid_parallel(self, capsys):
        code, _, err = run(
            ["extract", "--corpus", str(GOLDEN_CORPUS), "--parallel", "0"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert "--parallel" in err

    def test_bad_pattern_file(self, tmp_path, capsys):
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text("facebook\n", encoding="utf-8")
        code, _, err = run(
            [
                "extract",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--patterns",
                str(patterns),
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")


class TestEvaluate:
    def test_golden_fixture_is_perfect(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, _ = run(
            [
                "evaluate",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--gold",
                str(GOLDEN_GOLD),
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "Micro-average: P=100.00 R=100.00 F1=100.00" in text
        with open(out / "evaluation.csv", newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        labels = [row[0] for row in rows[1:]]
        assert labels == [
            "Quotation",
            "Paraphrase",
            "Embedding",
            "Macro-average",
            "Micro-average",
        ]

    def test_missing_gold_file(self, tmp_path, capsys, monkeypatch):
        extractions = Counter()
        original = extractor.extract_mentions

        def counted(*args, **kwargs):
            extractions["extract_mentions"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(extractor, "extract_mentions", counted)
        code, _, _ = run(
            [
                "evaluate",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--gold",
                str(tmp_path / "gold.jsonl"),
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == cli.EXIT_IO
        assert extractions["extract_mentions"] == 0

    @pytest.mark.parametrize(
        "bad_line",
        ['{"article_id": "g01", "platform": "twitter", "kind": "quotation"}', "[1, 2]"],
        ids=["missing-key", "not-an-object"],
    )
    def test_malformed_gold_line_is_validation_error(self, tmp_path, capsys, bad_line):
        gold = tmp_path / "gold.jsonl"
        lines = GOLDEN_GOLD.read_text(encoding="utf-8").splitlines()
        lines.insert(2, bad_line)
        gold.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            [
                "evaluate",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--gold",
                str(gold),
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")
        assert "gold line 3" in err


    def test_printed_scores_round_as_the_csv_does(self, tmp_path, capsys):
        corpus_path = write_one_in_32(tmp_path / "corpus.jsonl", GOOD_RECORD["body"], GOOD_RECORD["body"])
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"article_id": "a00", "sentence_index": 0, "platform": "twitter", "kind": "paraphrase"}])
        out = tmp_path / "out"
        code, text, _ = run(
            ["evaluate", "--corpus", str(corpus_path), "--gold", str(gold), "--out", str(out)], capsys
        )
        assert code == cli.EXIT_OK
        assert "Paraphrase: P=3.13 R=100.00 F1=6.06" in text.splitlines()
        assert "Micro-average: P=3.13 R=100.00 F1=6.06" in text.splitlines()
        rows = (out / "evaluation.csv").read_text(encoding="utf-8").splitlines()
        assert "Paraphrase,3.13,100.00,6.06" in rows

    def test_transposition_note_ends_stdout_and_the_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evaluator, "f1_transposition_note", lambda report: "note: cells transposed")
        out = tmp_path / "out"
        code, text, _ = run(
            ["evaluate", "--corpus", str(GOLDEN_CORPUS), "--gold", str(GOLDEN_GOLD), "--out", str(out)], capsys
        )
        assert code == cli.EXIT_OK
        assert text.splitlines()[-1] == "note: cells transposed"
        assert (out / "evaluation.csv").read_text(encoding="utf-8").splitlines()[-1] == "# note: cells transposed"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_predictions_reach_compare_as_a_stream(self, tmp_path, capsys, monkeypatch, workers):
        def evaluate(out):
            argv = ["evaluate", "--corpus", str(GOLDEN_CORPUS), "--gold", str(GOLDEN_GOLD), "--out", str(out)]
            code, text, _ = run([*argv, "--parallel", str(workers)], capsys)
            assert code == cli.EXIT_OK
            return text, (out / "evaluation.csv").read_bytes()

        expected = evaluate(tmp_path / "unwrapped")
        original = evaluator.compare
        streamed = []

        def compare(predicted, gold):
            streamed.append(iter(predicted) is predicted)  # a one-shot iterator, not a list of every mention
            return original(predicted, gold)

        monkeypatch.setattr(evaluator, "compare", compare)
        assert evaluate(tmp_path / "streamed") == expected
        assert streamed == [True]


class TestAnalyze:
    def test_printed_share_rounds_as_the_files_do(self, tmp_path, capsys):
        corpus_path = write_one_in_32(tmp_path / "corpus.jsonl", GOOD_RECORD["body"], "The council met on Monday.")
        out = tmp_path / "out"
        code, text, _ = run(["analyze", "--corpus", str(corpus_path), "--out", str(out)], capsys)
        assert code == cli.EXIT_OK
        assert text.splitlines()[-1] == "32 articles, 1 with a source (3.13%), 1 sources"
        with open(out / "media.csv", newline="", encoding="utf-8") as fh:
            overall = list(csv.DictReader(fh))[-1]
        assert overall["articles_with_mention_pct"] == "3.13"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["overall"]["articles_with_mention_pct"] == 3.13
        assert "2016\tall\t3.13" in (out / "trend.tsv").read_text(encoding="utf-8").splitlines()

    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, _ = run(
            [
                "analyze",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(out),
                "--labeler",
                "keyword",
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "articles" in text
        for name in ("media.csv", "ratio.csv", "topics_top.csv", "topic_kinds.csv", "trend.tsv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        totals = [block["total_articles"] for block in summary["media"].values()]
        assert sum(totals) == 34

    def test_media_csv_well_formed(self, tmp_path, capsys):
        out = tmp_path / "out"
        run(["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(out)], capsys)
        with open(out / "media.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        width = len(rows[0])
        assert all(len(row) == width for row in rows)

    def test_quotes_and_commas_in_topics_read_back_intact(self, tmp_path, capsys):
        topics = ['Law "and" Order', "Sports, College"]
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus_path,
            [dict(GOOD_RECORD, id=f"a{i}", topic=topic) for i, topic in enumerate(topics)],
        )
        out = tmp_path / "out"
        code, _, _ = run(["analyze", "--corpus", str(corpus_path), "--out", str(out)], capsys)
        assert code == cli.EXIT_OK
        for name in ("topics_top.csv", "topic_kinds.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and {row["topic"] for row in rows} == set(topics)
            assert all(None not in row for row in rows)  # no cell beyond the header's columns

    @pytest.mark.parametrize("labeler", ["preset", "keyword"])
    def test_empty_topic_is_unlabeled(self, tmp_path, capsys, labeler):
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus_path,
            [
                dict(GOOD_RECORD, id="a1", topic="Sports"),
                dict(GOOD_RECORD, id="a2", topic="Sports"),
                dict(GOOD_RECORD, id="a3", topic="", body="The senate vote is today."),
                dict(GOOD_RECORD, id="a4", topic=""),
            ],
        )
        out = tmp_path / "out"
        code, _, _ = run(
            ["analyze", "--corpus", str(corpus_path), "--out", str(out), "--labeler", labeler],
            capsys,
        )
        assert code == cli.EXIT_OK
        with open(out / "topics_top.csv", newline="", encoding="utf-8") as fh:
            rows = {row["topic"]: row["article_count"] for row in csv.DictReader(fh)}
        expected = {"Sports": "2", "Politics": "1"} if labeler == "keyword" else {"Sports": "2"}
        assert rows == expected
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["overall"]["total_articles"] == 4

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_remote_labeler_failure_exit_code(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        children = set(multiprocessing.active_children())
        code, _, err = run(
            [
                "analyze",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(out),
                "--labeler",
                "remote",
                "--labeler-url",
                "http://127.0.0.1:1/label",
                "--parallel",
                workers,
            ],
            capsys,
        )
        assert code == cli.EXIT_LABELER
        # one line, however many workers failed, naming the attempts of the first failure
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"(after {analytics.ATTEMPTS} attempts)" in err
        assert list(out.iterdir()) == []
        assert set(multiprocessing.active_children()) <= children  # the pool has shut down

    def test_remote_labels_give_the_same_files_at_any_parallelism(self, tmp_path, capsys):
        requests = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):  # a topic derived from the text
                text = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
                requests.append(text)
                label = f"Topic {len(text.split()) % 7}".encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(label)))
                self.end_headers()
                self.wfile.write(label)

            def log_message(self, *args):
                pass

        corpus_path = tmp_path / "corpus.jsonl"
        articles = random_corpus(random.Random(12), 300)  # three chunks of the pool
        serialize(articles, corpus_path)
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/label"
        runs = {}
        try:
            for workers in ("1", "2"):
                out = tmp_path / f"out{workers}"
                code, stdout, err = run(
                    ["analyze", "--corpus", str(corpus_path), "--out", str(out), "--labeler", "remote",
                     "--labeler-url", url, "--parallel", workers],
                    capsys,
                )
                assert code == cli.EXIT_OK, err
                runs[workers] = stdout, {path.name: path.read_bytes() for path in out.iterdir()}
        finally:
            server.shutdown()
            server.server_close()
        assert runs["1"] == runs["2"]
        assert b"Topic " in runs["1"][1]["topics_top.csv"]
        unlabeled = [a.headline + "\n" + a.body for a in articles if not a.topic]
        assert sorted(requests) == sorted(unlabeled * 2)  # each unlabeled article, once per run

    def test_remote_requires_url(self, tmp_path, capsys):
        code, _, err = run(
            [
                "analyze",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(tmp_path / "out"),
                "--labeler",
                "remote",
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--labeler-url" in err

    @pytest.mark.parametrize("labeler", ["preset", "keyword"])
    def test_url_without_remote_labeler_is_a_usage_error(self, tmp_path, capsys, labeler):
        code, out, err = run(
            [
                "analyze",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(tmp_path / "out"),
                "--labeler",
                labeler,
                "--labeler-url",
                "http://127.0.0.1:1/label",
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--labeler-url" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_labeler_answer_that_is_not_utf8_exits_3_after_one_request(self, tmp_path, capsys):
        requests = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                requests.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b"\xffPolitics")

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/label"
        out = tmp_path / "out"
        try:
            code, stdout, err = run(
                ["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(out), "--labeler", "remote",
                 "--labeler-url", url],
                capsys,
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == cli.EXIT_LABELER
        assert err.startswith("error:") and err.count("\n") == 1
        assert url in err and "UTF-8" in err
        assert len(requests) == 1  # the same answer would not decode on a retry
        assert stdout == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "answer",
        [b"garbage\r\n\r\n", b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\nPolit"],
        ids=["bad-status-line", "cut-off-body"],
    )
    def test_malformed_labeler_answer_is_retried_then_exits_3(self, tmp_path, capsys, monkeypatch, answer):
        requests = []
        monkeypatch.setattr(analytics, "ATTEMPTS", 2)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                requests.append(self.rfile.read(int(self.headers["Content-Length"])))
                self.wfile.write(answer)  # then the connection closes

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}/label"
        out = tmp_path / "out"
        try:
            code, stdout, err = run(
                ["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(out), "--labeler", "remote",
                 "--labeler-url", url],
                capsys,
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == cli.EXIT_LABELER
        assert err.startswith("error:") and err.count("\n") == 1
        assert url in err and "(after 2 attempts)" in err
        assert len(requests) == 2
        assert stdout == ""
        assert list(out.iterdir()) == []

    def test_failed_run_leaves_the_earlier_outputs_as_they_were(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        code, _, _ = run(["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(out)], capsys)
        assert code == cli.EXIT_OK
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}

        def disk_full(summary, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(analytics, "write_summary_json", disk_full)
        code, stdout, err = run(
            ["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(out), "--labeler", "keyword"], capsys
        )
        assert code == cli.EXIT_IO
        assert err.startswith("error:") and err.count("\n") == 1
        assert stdout == ""
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier
        assert not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize(
        "url",
        [
            "notaurl", "ftp://127.0.0.1/label", "file:///etc/hosts", "http:label",
            "http://:80/label", "http://user@/label", "http://127.0.0.1:abc/label",
            "http://127.0.0.1:99999/label", "http://[::1/label", "http://127.0.0.1:1/a label",
            "http://127.0.0.1:1/\tlabel", "http://127.0.0.1:1/étiquette",
        ],
    )
    def test_url_that_is_not_http_is_a_usage_error(self, tmp_path, capsys, url):
        code, out, err = run(
            [
                "analyze",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(tmp_path / "out"),
                "--labeler",
                "remote",
                "--labeler-url",
                url,
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")
        assert "--labeler-url" in err
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestSample:
    def test_sample_round_trips(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, _ = run(
            [
                "sample",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(out),
                "--keywords",
                "twitter,facebook",
                "-n",
                "6",
                "--seed",
                "11",
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "6 articles sampled" in text
        sampled = ingest(out / "sample.jsonl")
        assert len(sampled) == 6

    def test_repeated_keyword_sample_reingests_whole(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, _ = run(
            [
                "sample",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(out),
                "--keywords",
                "twitter,Twitter",
                "-n",
                "4",
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "4 articles sampled" in text
        with corpus.CorpusReader(out / "sample.jsonl", fail_fast=False) as reader:
            records = list(reader)
        assert len(records) == reader.accepted == 4

    def test_sample_is_seed_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(
                [
                    "sample",
                    "--corpus",
                    str(GOLDEN_CORPUS),
                    "--out",
                    str(out),
                    "--keywords",
                    "twitter,facebook",
                    "-n",
                    "4",
                    "--seed",
                    "7",
                ],
                capsys,
            )
            outputs.append((out / "sample.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    def test_oversized_sample_is_capped_at_capacity(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, text, _ = run(
            [
                "sample",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(out),
                "--keywords",
                "twitter",
                "-n",
                "5000",
            ],
            capsys,
        )
        assert code == cli.EXIT_OK
        sampled = ingest(out / "sample.jsonl")
        assert 0 < len(sampled) < 5000
        assert all("twitter" in a.body.lower() for a in sampled.articles)

    @pytest.mark.parametrize(
        "second_pass, expected_id",
        [(lambda records: records[:2] + [dict(GOOD_RECORD, id="new")] + records[2:], "a2"),
         (lambda records: records[:3], "a3")],
        ids=["article-moved", "article-gone"],
    )
    def test_corpus_changed_between_passes_exits_naming_the_article(
        self, tmp_path, capsys, monkeypatch, second_pass, expected_id
    ):
        records = [dict(GOOD_RECORD, id=f"a{i}") for i in range(6)]
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_jsonl(first, records)
        write_jsonl(second, second_pass(records))
        paths = iter([first, second])  # one read per pass, and no third
        monkeypatch.setattr(cli, "CorpusReader", lambda path, fail_fast: corpus.CorpusReader(next(paths), fail_fast))
        out = tmp_path / "out"
        code, text, err = run(
            ["sample", "--corpus", str(first), "--out", str(out), "--keywords", "tweeted", "-n", "6"], capsys
        )
        assert code == cli.EXIT_VALIDATION
        assert f"{expected_id!r}" in err
        assert text == ""
        assert list(out.iterdir()) == []

    def test_fewer_than_keywords_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "sample",
                "--corpus",
                str(GOLDEN_CORPUS),
                "--out",
                str(tmp_path / "out"),
                "--keywords",
                "twitter,facebook,mayor",
                "-n",
                "2",
            ],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")


class TestUsage:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
        flags = {
            name: {a.option_strings[-1] for a in sub._actions if a.dest != "help"}
            for name, sub in commands.choices.items()
        }
        shared = {"--corpus", "--fail-fast"}
        extracting = shared | {"--out", "--patterns", "--parallel"}
        assert flags == {
            "ingest": shared,
            "extract": extracting,
            "evaluate": extracting | {"--gold"},
            "analyze": extracting | {"--labeler", "--labeler-url", "--top-k"},
            "sample": shared | {"--out", "--keywords", "--sample-size", "--seed"},
        }
        assert sum(len(f) for f in flags.values()) == 27

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["ingest", "--out", "x"], "--out"),
            (["extract", "--seed", "3"], "--seed"),
            (["sample", "--keywords", "twitter", "-n", "2", "--parallel", "2"], "--parallel"),
            (["evaluate", "--gold", str(GOLDEN_GOLD), "--labeler", "keyword"], "--labeler"),
            (["analyze", "--seed", "1"], "--seed"),
        ],
        ids=["ingest", "extract", "sample", "evaluate", "analyze"],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv + ["--corpus", str(GOLDEN_CORPUS)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")
        assert flag in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [(["extract", "--parallel", "abc"], "--parallel"), (["analyze", "--top-k", "x"], "--top-k")],
        ids=["parallel", "top-k"],
    )
    def test_flag_value_that_is_not_an_integer(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv + ["--corpus", str(GOLDEN_CORPUS)], capsys)
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:") and flag in err and "positive integer" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_missing_corpus_is_validation_error(self, capsys):
        code, _, err = run(["ingest"], capsys)
        assert code == cli.EXIT_VALIDATION
        assert err.startswith("error:")
        assert "--corpus" in err

    def test_zero_top_k_rejected_before_ingest(self, tmp_path, capsys, monkeypatch):
        calls = Counter()

        def counted(*args, **kwargs):
            calls["reader"] += 1
            return corpus.CorpusReader(*args, **kwargs)

        monkeypatch.setattr(cli, "CorpusReader", counted)
        code, _, err = run(
            ["analyze", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path / "out"), "--top-k", "0"],
            capsys,
        )
        assert code == cli.EXIT_VALIDATION
        assert "--top-k" in err
        assert calls["reader"] == 0
        assert not (tmp_path / "out").exists()


# the function each extracting command writes its last output file with
_LAST_WRITER = {
    "extract": (extractor, "write_mentions"),
    "evaluate": (evaluator, "write_report_csv"),
    "analyze": (analytics, "write_summary_json"),
}


@pytest.mark.parametrize("failure", ["usage", "missing-corpus", "bad-line", "duplicate-id", "disk-full"])
@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("command", ["extract", "evaluate", "analyze"])
def test_failed_run_is_one_error_line_and_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, command, parallel, failure):
    corpus_path = tmp_path / "corpus.jsonl"
    serialize(random_corpus(random.Random(12), 300), corpus_path)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    if failure == "bad-line":  # past the first chunks, so that some are in flight
        lines[200] = "{not json\n"
    elif failure == "duplicate-id":
        lines[200] = lines[10]
    corpus_path.write_text("".join(lines), encoding="utf-8")
    if failure == "missing-corpus":
        corpus_path = tmp_path / "nope.jsonl"
    if failure == "disk-full":
        module, name = _LAST_WRITER[command]
        original = getattr(module, name)

        def disk_full(*args, **kwargs):
            original(*args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device", str(args[-1]))

        monkeypatch.setattr(module, name, disk_full)
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run's file\n", encoding="utf-8")
    argv = [command, "--corpus", str(corpus_path), "--out", str(out), "--parallel", parallel, "--fail-fast"]
    argv += {"evaluate": ["--gold", str(GOLDEN_GOLD)], "analyze": ["--labeler", "keyword"]}.get(command, [])
    argv += ["--no-such-flag"] if failure == "usage" else []

    code, _, err = run(argv, capsys)
    assert code == (cli.EXIT_IO if failure in ("missing-corpus", "disk-full") else cli.EXIT_VALIDATION)
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == {"earlier.txt": b"an earlier run's file\n"}


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    """The 20,000-article corpus of _interrupted_run, written once for the module."""
    path = tmp_path_factory.mktemp("big") / "corpus.jsonl"
    serialize(random_corpus(random.Random(6), 20000), path)
    return path


def _send_sigterm(proc, children):
    proc.send_signal(signal.SIGTERM)


def _press_ctrl_c(proc, children):
    time.sleep(0.2)  # mid-run, with each worker at work
    os.killpg(proc.pid, signal.SIGINT)  # the terminal sends it to the whole foreground group


def _kill_a_worker(proc, children):
    os.kill(children[0], signal.SIGKILL)


_INTERRUPTS = {  # failure -> (interrupt, exit status, stderr is one error line)
    "sigterm": (_send_sigterm, -signal.SIGTERM, False),
    "sigint": (_press_ctrl_c, -signal.SIGINT, False),
    "dead-worker": (_kill_a_worker, cli.EXIT_IO, True),
}
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_FORKSERVER = ("-c", "import multiprocessing; multiprocessing.set_start_method('forkserver'); "
                     "from sourcescope import cli; cli.entry()")  # Python 3.14's default start method on Linux
_RUN_IN_TEST_EXTRACT = {("extract", "sigterm", 2), ("extract", "sigint", 1), ("extract", "sigint", 2),
                        ("analyze", "sigint", 2), ("extract", "dead-worker", 2)}
_CELLS = [  # (command, failure, parallel, launcher) of each interrupted run that no TestExtract test makes
    *[(command, failure, parallel, None) for command in ("extract", "evaluate", "analyze")
      for failure, parallel in (("sigterm", 1), ("sigterm", 2), ("sigint", 1), ("sigint", 2), ("dead-worker", 2))
      if (command, failure, parallel) not in _RUN_IN_TEST_EXTRACT],
    ("extract", "sigterm", 2, "forkserver"),  # the pool keeps to fork, so its workers stay the CLI's children
]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process parents from /proc")
@pytest.mark.parametrize("command, failure, parallel, launcher", _CELLS,
                         ids=["-".join(str(part) for part in cell if part) for cell in _CELLS])
def test_interrupted_run_is_one_error_line_or_none_and_leaves_out_as_it_was(tmp_path, big_corpus, command, failure,
                                                                              parallel, launcher):
    if parallel > _USABLE_CPUS:
        pytest.skip("needs a usable CPU per worker")
    interrupt, status, error_line = _INTERRUPTS[failure]
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run's file\n", encoding="utf-8")
    argv = [command, "--parallel", str(parallel)]
    argv += {"evaluate": ["--gold", str(GOLDEN_GOLD)], "analyze": ["--labeler", "keyword"]}.get(command, [])
    workers = parallel if parallel > 1 else 0
    launcher = _FORKSERVER if launcher else ("-m", "sourcescope.cli")
    code, err, children, out = _interrupted_run(tmp_path, argv, workers, interrupt, big_corpus, launcher)
    why = f"code {code}, stderr {err!r}"
    if code == cli.EXIT_OK:  # finished before it could be interrupted
        assert len(list(out.iterdir())) > 1 and "Traceback" not in err, why
        return
    assert code == status, why
    if error_line:
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, why
    else:
        assert err == "", why
    assert {path.name: path.read_bytes() for path in out.iterdir()} == {"earlier.txt": b"an earlier run's file\n"}
    assert len(children) == workers and not [pid for pid in children if _alive(pid)], why


_SIGTERM_AT = {  # step of a run -> launcher code that makes the CLI send itself SIGTERM there
    # inside the first submit: the workers are forked, the pool's thread that stops them is not yet started
    "pool-start": """
from concurrent.futures.process import ProcessPoolExecutor
launch = ProcessPoolExecutor._launch_processes
def launching(self):
    launch(self)
    os.kill(os.getpid(), signal.SIGTERM)
ProcessPoolExecutor._launch_processes = launching
""",
    # in the parent's after-fork hooks, where an exception is printed and ignored
    "after-fork": "os.register_at_fork(after_in_parent=lambda: os.kill(os.getpid(), signal.SIGTERM))",
    # the staging directory is made, the block that removes it is not yet entered
    "staging-dir": """
import tempfile
mkdtemp = tempfile.mkdtemp
def making(*args, **kwargs):
    path = mkdtemp(*args, **kwargs)
    os.kill(os.getpid(), signal.SIGTERM)
    return path
tempfile.mkdtemp = making
""",
    # the staging directory's removal begins
    "staging-removal": """
import shutil
rmtree = shutil.rmtree
def removing(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGTERM)
    return rmtree(*args, **kwargs)
shutil.rmtree = removing
""",
}


def _run_sigterm_launcher(tmp_path, step, argv):
    """Run the CLI with argv and --out tmp_path/out (which holds an earlier run's file), from a launcher that makes
    it send itself SIGTERM at `step`; assert that it dies of SIGTERM, silently, leaving no process and --out as it
    was."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier run's file\n", encoding="utf-8")
    launcher = f"import os, signal\n{_SIGTERM_AT[step]}\nfrom sourcescope import cli\ncli.entry()\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [*argv, "--out", str(out)]
    with subprocess.Popen([sys.executable, "-c", launcher, *argv], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=60)
        finally:  # the CLI has exited unless it timed out; a worker it left is still in its group
            left = _live_in_group(proc.pid)
            for pid in left:
                _kill_quietly(pid)
            proc.kill()
            proc.wait()
    why = f"code {proc.returncode}, stderr {err!r}, left {left}"
    assert proc.returncode == -signal.SIGTERM and err == "" and not left, why
    assert sorted(path.name for path in out.iterdir()) == ["earlier.txt"], why
    assert (out / "earlier.txt").read_bytes() == b"an earlier run's file\n"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups from /proc")
@pytest.mark.parametrize("step, parallel", [("pool-start", 2), ("after-fork", 2), ("staging-dir", 1)])
def test_sigterm_at_a_start_up_step_waits_until_the_run_can_unwind(tmp_path, step, parallel):
    if parallel > _USABLE_CPUS:
        pytest.skip("needs a usable CPU per worker")
    _run_sigterm_launcher(tmp_path, step, ["extract", "--parallel", str(parallel), "--corpus", str(GOLDEN_CORPUS)])


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups from /proc")
def test_sigterm_while_a_failed_run_removes_its_staging_directory_waits_for_the_removal(tmp_path):
    # --fail-fast stops at the bad last line, after mentions.jsonl and sentences.tsv are staged
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(GOLDEN_CORPUS.read_bytes() + b"{not json\n")
    _run_sigterm_launcher(tmp_path, "staging-removal", ["extract", "--fail-fast", "--corpus", str(corpus_path)])


_FREEZE_PROBE = """
import gc
from sourcescope import cli
def probe(argv=None):
    print(gc.get_freeze_count())
    return 0
cli.main = probe
cli.entry()
"""


def test_entry_freezes_the_import_heap_before_main():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_main_freezes_nothing(tmp_path, capsys, workers):
    # a freeze in main() or map_chunks would keep every in-process test's garbage for the rest of the session
    before = gc.get_freeze_count()
    argv = ["extract", "--corpus", str(GOLDEN_CORPUS), "--out", str(tmp_path / "out"), "--parallel", str(workers)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert gc.get_freeze_count() == before
