"""Byte-for-byte replay of the seed-0 CLI transcript in benchmarks/golden.json.

Each replay runs in a fresh interpreter with a fixed PYTHONHASHSEED, so the
test also pins that the printed output does not depend on string hashing
(set iteration order).  golden.json is read, never rewritten.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involution_forge
from helpers import BENCHMARKS, load_benchmark

# Runs every op in-process and prints {key: stdout} as JSON.
REPLAY = """
import contextlib, io, json, sys
from involution_forge.cli import main
from involution_forge.fixtures import fixture_file
out = {}
for key, extra in json.loads(sys.argv[1]):
    command, spec, seed = key.split()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([command, str(fixture_file(spec)), "--seed", seed, *extra])
    out[key] = buf.getvalue()
print(json.dumps(out))
"""


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
        command, spec, _ = key.split()
        ops.append((key, ["--pair", pairs[spec]] if command == "bracket"
                    else []))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, json.dumps(ops)],
        env=env, capture_output=True, text=True, check=True,
    )
    replayed = json.loads(proc.stdout)
    for key, want in seed0_golden.items():
        assert replayed[key] == want, key
