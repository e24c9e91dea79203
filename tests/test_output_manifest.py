"""Every success-path output byte, stdout, stderr and exit code of a fixed run matrix, against the
committed manifest (see output_manifest.py for the matrix and for how to rewrite the manifest)."""

import json

import output_manifest


def test_outputs_match_the_committed_manifest(tmp_path):
    expected = json.loads(output_manifest.MANIFEST.read_text(encoding="utf-8"))
    actual = output_manifest.run_matrix(tmp_path)
    assert len(actual["runs"]) == 40 and all(run["exit"] == 0 for run in actual["runs"].values())
    assert output_manifest.differences(expected, actual) == []


def test_differences_name_each_changed_field_and_missing_run():
    run = {"args": ["extract"], "exit": 0, "stdout": "a", "stderr": "b", "files": {"mentions.jsonl": "c"}}
    expected = {"inputs": {"corpus.jsonl": "d"}, "runs": {"x/extract": run, "x/sample": run}}
    changed = dict(run, exit=1, files={"mentions.jsonl": "e"})
    actual = {"inputs": {"corpus.jsonl": "f"}, "runs": {"x/extract": changed, "y/extract": run}}
    assert output_manifest.differences(expected, actual) == [
        "inputs corpus.jsonl: differs",
        "runs x/extract: differs in exit, files",
        "runs x/sample: missing",
        "runs y/extract: not in the manifest",
    ]
