"""The CLI's exit path.

``cli.main`` registers ``gc.freeze`` with ``atexit``, once per process, so
that the interpreter's final collections skip the heap and the OS reclaims
it.  The library entry ``run()`` leaves the process alone, and what the
command line prints, through a real pipe, is unchanged.
"""

import atexit
import gc
import json
from pathlib import Path

import pytest

from involution_forge.cli import main, run
from involution_forge.fixtures import fixture_file
from helpers import BENCHMARKS, fresh_cli


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
    proc = fresh_cli(["report", str(fixture_file("lagrange_top"))])
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == golden["stdout"]["report lagrange_top 0"].encode()


def test_rejected_sigma_through_a_pipe_writes_one_line():
    golden = json.loads((Path(__file__).parent
                         / "golden_benchmark_specs.json").read_text("utf-8"))
    want = golden["ops"]["report reject_sigma 0"]
    proc = fresh_cli(["report", str(BENCHMARKS / "specs" / "reject_sigma.json")])
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
    proc = fresh_cli([entry, "check", str(fixture_file("toda_first"))], PROBE)
    assert proc.returncode == 0
    assert b"schema = ok" in proc.stdout
    label, count = proc.stderr.decode().split()
    assert label == "frozen"
    assert (int(count) > 0) == (entry == "main")
