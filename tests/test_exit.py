"""The CLI's exit path.

``cli.main`` registers ``gc.freeze`` with ``atexit``, once per process, so
that the interpreter's final collections skip the heap and the OS reclaims
it.  The library entry ``run()`` leaves the process alone, and what the
command line prints, through a real pipe, is unchanged.
"""

import atexit
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involution_forge
from involution_forge.cli import main, run
from involution_forge.fixtures import fixture_file
from helpers import BENCHMARKS


def _fresh(args, code=None):
    """A fresh interpreter running ``python -m involution_forge args``, or
    ``python -c code args``, with stdout and stderr on pipes, as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    head = ["-m", "involution_forge"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], env=env,
                          capture_output=True, timeout=120)


def test_run_and_main_leave_the_heap_unfrozen(capsys, monkeypatch):
    # the hook runs only at exit, so in process nothing is frozen; run
    # registers none, and main called many times leaves one gc.freeze hook
    registered = []

    def unregister(hook):
        while hook in registered:
            registered.remove(hook)

    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    path = str(fixture_file("toda_first"))
    assert run("check", path)[0] == 0
    assert registered == []
    for _ in range(5):
        assert main(["check", path]) == 0
    capsys.readouterr()
    assert registered == [gc.freeze]
    assert gc.get_freeze_count() == 0


def test_report_through_a_pipe_writes_the_golden_bytes():
    golden = json.loads((BENCHMARKS / "golden.json").read_text("utf-8"))
    proc = _fresh(["report", str(fixture_file("lagrange_top"))])
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == golden["stdout"]["report lagrange_top 0"].encode()


def test_rejected_sigma_through_a_pipe_writes_one_line():
    golden = json.loads((Path(__file__).parent
                         / "golden_benchmark_specs.json").read_text("utf-8"))
    want = golden["ops"]["report reject_sigma 0"]
    proc = _fresh(["report", str(BENCHMARKS / "specs" / "reject_sigma.json")])
    assert proc.returncode == want["exit"] == 1
    assert proc.stderr == b""
    assert proc.stdout == want["stdout"].encode()
    [line] = proc.stdout.decode().splitlines()
    assert line.startswith("error: ConditionFailed: ")


# atexit runs its hooks last in, first out: a probe registered before main
# runs after the hook main registers
PROBE = """
import atexit, gc, sys
from involution_forge import cli
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}"))
if sys.argv[1] == "main":
    code = cli.main(sys.argv[2:])
else:
    code, text = cli.run(*sys.argv[2:])
    print(text)
raise SystemExit(code)
"""


@pytest.mark.parametrize("entry", ["main", "run"])
def test_exit_hook_freezes_the_heap_after_main_only(entry):
    proc = _fresh([entry, "check", str(fixture_file("toda_first"))], PROBE)
    assert proc.returncode == 0
    assert b"schema = ok" in proc.stdout
    label, count = proc.stderr.decode().split()
    assert label == "frozen"
    assert (int(count) > 0) == (entry == "main")
