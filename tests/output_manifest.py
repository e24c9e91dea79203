"""The output-hash manifest: every success-path CLI run of a fixed matrix, hashed.

    python3 tests/output_manifest.py            # compare with tests/data/output_manifest.json
    python3 tests/output_manifest.py --write    # (re)write the manifest from this checkout

Run from anywhere; it tests the `src/` beside this file. The matrix covers the
golden corpus and the seed-3 1,500-article `mainstream`, `mixed` and
`embedded` corpora of `bench/corpus_gen.py` (with the gold their plan
implies). On each it runs `extract`, `evaluate` and `analyze` with the
`preset` and `keyword` labelers, each at `--parallel 1` and `2`, and `sample`
with two keyword sets: 40 runs of `python -m sourcescope.cli`, each in a fresh
interpreter. For each run the manifest holds its arguments, its exit code and
the sha256 of its stdout, its stderr and every file it leaves in `--out`; it
also holds the sha256 of each input file, so that a changed generator shows
as changed input and not as changed output.

The manifest changes only in a change that means to change outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MANIFEST = Path(__file__).resolve().parent / "data" / "output_manifest.json"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_corpus.jsonl"
GOLDEN_GOLD = Path(__file__).resolve().parent / "data" / "golden_gold.jsonl"
GENERATED = ("mainstream", "mixed", "embedded")
SEED = 3
ARTICLES = 1500
SAMPLES = {  # name -> sample arguments
    "sample-platforms": ["--keywords", "twitter,facebook", "-n", "40", "--seed", "1"],
    "sample-topics": ["--keywords", "election,court,film,hospital", "-n", "25", "--seed", "7"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(work: Path) -> dict:
    """Write every corpus and its gold into `work`; returns name -> (corpus file, gold file)."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import corpus_gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    needles = corpus_gen.prescreen_words(SRC / "sourcescope" / "data" / "patterns_default.tsv")
    inputs = {"golden": (GOLDEN, GOLDEN_GOLD)}
    for name in GENERATED:
        planned = getattr(corpus_gen, f"{name}_corpus")(SEED, ARTICLES, needles)
        inputs[name] = (work / f"{name}.jsonl", work / f"{name}.gold.jsonl")
        planned.write(*inputs[name])
    return inputs


def runs(inputs: dict) -> dict:
    """run name -> CLI arguments, without --out."""
    matrix = {}
    for name, (corpus, gold) in inputs.items():
        for workers in ("1", "2"):
            parallel = ["--parallel", workers]
            matrix[f"{name}/extract/p{workers}"] = ["extract", "--corpus", str(corpus), *parallel]
            matrix[f"{name}/evaluate/p{workers}"] = [
                "evaluate", "--corpus", str(corpus), "--gold", str(gold), *parallel]
            for labeler in ("preset", "keyword"):
                matrix[f"{name}/analyze-{labeler}/p{workers}"] = [
                    "analyze", "--corpus", str(corpus), "--labeler", labeler, *parallel]
        for sample, args in SAMPLES.items():
            matrix[f"{name}/{sample}"] = ["sample", "--corpus", str(corpus), *args]
    return matrix


def run_matrix(work: Path) -> dict:
    """Run the whole matrix with its outputs under `work`; returns the manifest."""
    inputs = write_inputs(work)
    manifest: dict = {
        "inputs": {path.name: _sha256(path.read_bytes()) for pair in inputs.values() for path in pair},
        "runs": {},
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for index, (name, args) in enumerate(runs(inputs).items()):
        out = work / f"out{index}"
        proc = subprocess.run([sys.executable, "-m", "sourcescope.cli", *args, "--out", str(out)],
                              capture_output=True, env=env, cwd=work, timeout=300)
        manifest["runs"][name] = {
            "args": [Path(arg).name if "/" in arg else arg for arg in args],  # paths differ between checkouts
            "exit": proc.returncode,
            "stdout": _sha256(proc.stdout),
            "stderr": _sha256(proc.stderr),
            # a directory left behind (a staging directory) is listed too, as None
            "files": {path.name: _sha256(path.read_bytes()) if path.is_file() else None
                      for path in sorted(out.iterdir())},
        }
    return manifest


def differences(expected: dict, actual: dict) -> list:
    """One line per input, run or field that differs between two manifests."""
    lines = []
    for section in ("inputs", "runs"):
        want, got = expected.get(section, {}), actual.get(section, {})
        for key in sorted(want.keys() | got.keys()):
            if key not in got or key not in want:
                lines.append(f"{section} {key}: {'missing' if key not in got else 'not in the manifest'}")
            elif want[key] != got[key]:
                fields = [f for f in want[key] if want[key][f] != got[key].get(f)] if section == "runs" else []
                lines.append(f"{section} {key}: differs{' in ' + ', '.join(fields) if fields else ''}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="write the manifest instead of comparing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_matrix(Path(tmp))
    if args.write:
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST} ({len(manifest['runs'])} runs)")
        return 0
    problems = differences(json.loads(MANIFEST.read_text(encoding="utf-8")), manifest)
    for line in problems:
        print(line)
    print(f"{len(manifest['runs'])} runs, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
