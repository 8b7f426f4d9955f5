"""Byte-for-byte replay of recorded CLI transcripts.

The seed-0 ops of the bundled specs are replayed against
benchmarks/golden.json, and ``report`` on the two benchmark specs against
golden_benchmark_specs.json next to this file, stdout and exit code.  Each
replay runs in a fresh interpreter with a fixed PYTHONHASHSEED, so the
tests also pin that the printed output does not depend on string hashing
(set iteration order).  The transcripts and the specs are read, never
rewritten.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involution_forge
from involution_forge.fixtures import fixture_file
from helpers import BENCHMARKS, load_benchmark

# Runs every op in-process and prints {key: [stdout, exit code]} as JSON.
REPLAY = """
import contextlib, io, json, sys
from involution_forge.cli import main
out = {}
for key, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[key] = [buf.getvalue(), code]
print(json.dumps(out))
"""


def replay(ops, hash_seed: str) -> dict:
    """Run ``[(key, argv), ...]`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, json.dumps(ops)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def seed0_golden() -> dict:
    transcript = json.loads(
        (BENCHMARKS / "golden.json").read_text("utf-8"))["stdout"]
    seed0 = {key: text for key, text in transcript.items()
             if key.endswith(" 0")}
    assert len(seed0) == 15
    return seed0


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_seed0_ops_match_golden(seed0_golden, hash_seed):
    pairs = load_benchmark("run").BRACKET_PAIRS
    ops = []
    for key in seed0_golden:
        command, spec, seed = key.split()
        extra = ["--pair", pairs[spec]] if command == "bracket" else []
        ops.append((key, [command, str(fixture_file(spec)), "--seed", seed,
                          *extra]))
    replayed = replay(ops, hash_seed)
    for key, want in seed0_golden.items():
        assert replayed[key][0] == want, key


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_benchmark_spec_reports_match_golden(hash_seed):
    golden = json.loads(
        (Path(__file__).parent / "golden_benchmark_specs.json")
        .read_text("utf-8"))["ops"]
    assert len(golden) == 4
    ops = []
    for key in golden:
        command, spec, seed = key.split()
        path = BENCHMARKS / "specs" / f"{spec}.json"
        ops.append((key, [command, str(path), "--seed", seed]))
    replayed = replay(ops, hash_seed)
    for key, want in golden.items():
        assert replayed[key] == [want["stdout"], want["exit"]], key


BRACKETS_GOLDEN = Path(__file__).parent / "golden_brackets.json"


def bracket_ops() -> list:
    """``bracket`` on every family pair of the bundled specs and of
    certify_scaled, ``pencil`` on both benchmark specs and one ``bracket``
    on reject_sigma, all at seed 0: ``[(key, argv), ...]``."""
    benchmark = {name: BENCHMARKS / "specs" / f"{name}.json"
                 for name in ("certify_scaled", "reject_sigma")}
    specs = {name: fixture_file(name) for name in
             ("lagrange_top", "toda_first", "toda_second")}
    ops = []
    for name, path in {**specs, **benchmark}.items():
        names = [entry["name"] for entry in
                 json.loads(path.read_text("utf-8"))["family"]]
        pairs = ([names[:2]] if name == "reject_sigma"
                 else itertools.combinations(names, 2))
        for f, h in pairs:
            ops.append((f"bracket {name} {f},{h}",
                        ["bracket", str(path), "--pair", f"{f},{h}"]))
        if name in benchmark:
            ops.append((f"pencil {name}", ["pencil", str(path)]))
    return ops

@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_every_bracket_pair_matches_golden(hash_seed):
    golden = json.loads(BRACKETS_GOLDEN.read_text("utf-8"))["ops"]
    ops = bracket_ops()
    assert len(golden) == len(ops) == 18
    replayed = replay(ops, hash_seed)
    for key, want in golden.items():
        assert replayed[key] == [want["stdout"], want["exit"]], key


if __name__ == "__main__":
    # Re-capture golden_brackets.json (only when a change to these bytes
    # is intended):  PYTHONPATH=src:tests python tests/test_golden.py
    captured = replay(bracket_ops(), "0")
    BRACKETS_GOLDEN.write_text(json.dumps({
        "note": "Regression reference, not ground truth: stdout and exit "
                "code of every bracket pair and of pencil on the benchmark "
                "specs, as printed by the engine when captured.",
        "ops": {key: {"stdout": text, "exit": code}
                for key, (text, code) in captured.items()},
    }, indent=1) + "\n", encoding="utf-8")
