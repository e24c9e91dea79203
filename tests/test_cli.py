"""End-to-end tests for the command-line interface."""

import csv
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from sourcescope import analytics, cli, corpus, evaluator, extractor, patterns, segmenter
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


def _live_children(parent) -> list:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
            if int(ppid) == parent and state != "Z":
                children.append(int(entry.name))
    return children


def _kill_quietly(pid) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


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

    def test_interrupted_run_leaves_no_output_file(self, tmp_path, capsys, monkeypatch):
        corpus_path = tmp_path / "corpus.jsonl"
        serialize(random_corpus(random.Random(5), 40), corpus_path)
        calls = Counter()
        original = extractor.extract_mentions

        def crashing(article, pattern_set):
            calls["extract_mentions"] += 1
            if calls["extract_mentions"] > 3:
                raise RuntimeError("worker lost")
            return original(article, pattern_set)

        monkeypatch.setattr(extractor, "extract_mentions", crashing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="worker lost"):
            cli.main(["extract", "--corpus", str(corpus_path), "--out", str(out)])
        assert sorted(path.name for path in out.iterdir()) == []

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process parents from /proc")
    def test_sigterm_removes_temporary_files_and_stops_workers(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        serialize(random_corpus(random.Random(6), 20000), corpus_path)
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sourcescope.cli", "extract", "--corpus", str(corpus_path),
             "--out", str(out), "--parallel", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list = []
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                workers = _live_children(proc.pid)
                if len(workers) == 2 and out.is_dir() and any(out.glob(".*.tmp")):
                    proc.send_signal(signal.SIGTERM)
                    break
                time.sleep(0.01)
            proc.wait(timeout=30)
        finally:
            for pid in _live_children(proc.pid) + workers:
                _kill_quietly(pid)
            proc.kill()
            proc.wait()
        if proc.returncode == cli.EXIT_OK:  # finished before the signal could be sent
            assert sorted(path.name for path in out.iterdir()) == ["mentions.jsonl", "sentences.tsv"]
            assert len((out / "sentences.tsv").read_text(encoding="utf-8").splitlines()) > 20000
            return
        assert proc.returncode == -signal.SIGTERM
        assert sorted(path.name for path in out.iterdir()) == []
        assert workers and not [pid for pid in workers if _alive(pid)]

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


class TestAnalyze:
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
        assert err.startswith("error:")
        assert list(out.iterdir()) == []
        assert set(multiprocessing.active_children()) <= children  # the pool has shut down

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

    @pytest.mark.parametrize("url", ["notaurl", "ftp://127.0.0.1/label", "file:///etc/hosts", "http:label"])
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
