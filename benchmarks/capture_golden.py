"""Capture golden.json: the stdout of every bundled cli-cold op for every
CLI seed the benchmark uses.

The transcript is a regression reference, not ground truth: it records what
the engine printed when it was captured, so that any later change to the
bytes the CLI prints for a bundled spec shows up as a failed op.  Re-capture
only when such a change is intended, and say so where the change is made.

    python3 benchmarks/capture_golden.py      # from the root of a checkout
"""

from __future__ import annotations

import json
import subprocess

from run import (BUNDLED, COMMANDS, DATA, GOLDEN, GOLDEN_SEEDS, Op,
                 op_command, op_env)

NOTE = (
    "Regression reference, not ground truth: stdout of each bundled "
    "cli-cold op, keyed '<command> <spec> <cli seed>', as printed by the "
    "engine when captured. Re-capture with capture_golden.py."
)


def main() -> int:
    env = op_env(0)
    transcript = {}
    for cli_seed in range(GOLDEN_SEEDS):
        for spec in BUNDLED:
            for command in COMMANDS:
                op = Op(command, spec, DATA / f"{spec}.json")
                proc = subprocess.run(op_command(op, cli_seed), env=env,
                                      capture_output=True, check=False)
                transcript[f"{op.key} {cli_seed}"] = proc.stdout.decode()
    GOLDEN.write_text(
        json.dumps({"note": NOTE, "stdout": transcript}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
