"""Command-line interface: exit codes, determinism, output shapes.

Two Hypothesis properties end every input in exit 0, 1 or 2 with a
message: one replaces one or two nodes of a bundled spec with malformed
values, where ``parse_spec`` may raise only ``SpecError``; the other puts
150 derandomized expressions in ``family[0]`` of ``toda_first`` (nesting
and exponents up to and past their bounds, towers of powers, chained and
zero divisions, sums of up to 2000 monomials, stray characters, literals
past 4300 digits).  Expressions that the parser's bounds refuse before
they expand are run in fresh processes under a time and memory limit.
``report`` prints the same verdicts for seeds 0-3, ``report`` runs on the
two benchmark specs, the largest polynomials in the suite, and importing
the CLI loads only standard-library modules, none of the introspection
modules, ``argparse`` or ``gettext``; neither does running ``main`` on the
usage line's form."""

import argparse
import json
import os
import re
import resource
import subprocess
import sys
from math import comb
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import involution_forge
from involution_forge import cli as cli_module
from involution_forge.cli import COMMANDS, main, parse_spec, run
from involution_forge.errors import SpecError
from involution_forge.fixtures import FIXTURE_NAMES, fixture_file
from involution_forge.pencil import unknown_name
from involution_forge.symexpr import (MAX_EXPONENT, MAX_NESTING, MAX_TERMS,
                                      MAX_TOKENS, VarTable, _Parser)
from helpers import BENCHMARKS, fresh_cli, load_benchmark


@pytest.fixture(scope="module")
def lagrange_path():
    return str(fixture_file("lagrange_top"))


@pytest.fixture()
def spec_on_disk(tmp_path):
    def _write(payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def test_report_passes_on_every_fixture():
    for name in ("lagrange_top", "toda_first", "toda_second"):
        code, text = run("report", str(fixture_file(name)))
        assert code == 0, text
        assert "status = PASS" in text
        assert "FAIL" not in text


def test_report_on_the_benchmark_specs(capsys):
    # the only specs whose polynomials reach the size the kernel is tuned for
    specs = BENCHMARKS / "specs"
    assert main(["report", str(specs / "certify_scaled.json")]) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert "status = PASS" in lines
    for name in ("Pi0", "Pi1", "pencil"):
        assert f"rank[{name}] = 4" in lines
    assert main(["report", str(specs / "reject_sigma.json")]) == 1
    assert capsys.readouterr().out == load_benchmark("run").REJECT_STDOUT


def test_report_is_deterministic(lagrange_path):
    first = run("report", lagrange_path)
    second = run("report", lagrange_path)
    assert first == second
    # a different seed still passes (it only moves the sample point)
    code, _ = run("report", lagrange_path, seed=3)
    assert code == 0


def test_report_summary_format(lagrange_path):
    code, text = run("report", lagrange_path, format="summary")
    assert code == 0
    lines = [l.strip() for l in text.strip().splitlines()]
    verdict_lines = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(verdict_lines) == 13
    assert all(l.startswith("PASS") for l in verdict_lines)


def test_check_command(lagrange_path):
    code, text = run("check", lagrange_path)
    assert code == 0
    assert "schema = ok" in text
    assert "ansatz = declared" in text


def test_pencil_command_prints_the_invariants(lagrange_path):
    code, text = run("pencil", lagrange_path)
    assert code == 0
    assert "F = " in text
    assert "g = 0" in text
    assert "Pi0" in text and "Pi1" in text


def test_bracket_command(lagrange_path):
    code, text = run("bracket", lagrange_path, pair="f1,f3")
    assert code == 0
    assert "PASS" in text
    code, text = run("bracket", lagrange_path, pair="f1")
    assert code == 2
    assert "error" in text
    code, text = run("bracket", lagrange_path)
    assert code == 2


def test_solve_ansatz_command(lagrange_path):
    code, text = run("solve-ansatz", lagrange_path)
    assert code == 0
    assert "free = k34" in text
    assert "k34 = 1/2*y3" in text
    # the command is deterministic too
    assert run("solve-ansatz", lagrange_path) == (code, text)


def test_schema_violation_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    del payload["variables"]
    path = spec_on_disk(payload)
    code, text = run("report", path)
    assert code == 2
    assert "'variables' is a required property" in text
    assert path in text


def test_bad_expression_path_is_precise(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][2]["expression"] = "y1^2 +"
    path = spec_on_disk(payload)
    code, text = run("report", path)
    assert code == 2
    assert "family[2].expression" in text


def test_condition_failure_exits_one(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    # corrupt sigma1 coherently in both stored shapes so the loader's
    # agreement check passes and the mathematical check fires instead
    del payload["sigma1"]["basis"]
    del payload["sigma1"]["coefficients"]
    payload["sigma1"]["components"][0]["coeff"] = "x1"
    path = spec_on_disk(payload)
    code, text = run("report", path)
    assert code == 1
    assert "ConditionFailed" in text
    # a valid spec whose solved ansatz has a coefficient longer than
    # int-to-str conversion prints: a failed computation too.  The value
    # of m3 is a literal of 4300 digits, within the parser's bound
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["m3"] = "9" * 4300
    assert run("solve-ansatz", spec_on_disk(payload)) == (
        1, "error: IntegerTooLong: a coefficient has more than 4300 digits")
    # a value whose own coefficient may pass 4300 digits is a spec error
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["l3"] = "9" * 2500 + "^2"
    path = spec_on_disk(payload)
    assert run("solve-ansatz", path) == (
        2, f"error: {path}.sigma1.ansatz.specialize.l3: coefficients may "
        "exceed 4300 digits (at position 2500)")


def test_unreadable_file_exits_two(tmp_path):
    code, text = run("report", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error" in text
    # bytes that are not UTF-8, and an integer of more digits than
    # int-from-str conversion reads, are invalid JSON at the file
    for name, content in (("latin.json", b'{"name": "\xff"}'),
                          ("long.json", b'{"name": ' + b"9" * 5000 + b'}')):
        path = tmp_path / name
        path.write_bytes(content)
        code, text = run("check", str(path))
        assert code == 2
        assert text.startswith(f"error: {path}: invalid JSON: ")


def test_checks_filtering(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["checks"] = ["jacobi", "rank"]
    path = spec_on_disk(payload)
    code, text = run("report", path, format="summary")
    assert code == 0
    verdicts = [l.strip() for l in text.strip().splitlines()
                if l.strip().startswith(("PASS", "FAIL"))]
    assert verdicts
    for line in verdicts:
        assert "jacobi[" in line or "rank[" in line
    # the full format keeps the ranks block and lists the same verdicts
    code, text = run("report", path, format="full")
    assert code == 0
    lines = [l.strip() for l in text.strip().splitlines()]
    assert "checks = jacobi, rank" in lines
    assert "ranks:" in lines and "rank[Pi0] = 4" in lines
    assert [l for l in lines if l.startswith(("PASS", "FAIL"))] == verdicts


def test_main_entry_point(lagrange_path, capsys):
    assert main(["check", lagrange_path]) == 0
    out = capsys.readouterr().out
    assert "schema = ok" in out
    assert main(["report", lagrange_path, "--format", "summary"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["not-a-command", lagrange_path])
    capsys.readouterr()


USAGE = """\
usage: involution-forge [-h] [--seed SEED] [--format {full,summary}]
                        [--pair PAIR]
                        {check,pencil,bracket,solve-ansatz,report} spec
"""

HELP = USAGE + """
build and certify Poisson pencils from a spec file

positional arguments:
  {check,pencil,bracket,solve-ansatz,report}
  spec                  path to a JSON spec file

options:
  -h, --help            show this help message and exit
  --seed SEED           seed for every sampled point (default 0)
  --format {full,summary}
                        report verbosity
  --pair PAIR           two family names f,h for the bracket command
"""

CHECK_LAGRANGE = """\
check:
  spec = lagrange_top
  variables = 7
  family = f1, f2, f3, f4
  partition = (f1, f3); (f2, f4)
  sigma0 = ok
  sigma1 = ok
  ansatz = declared
  schema = ok
"""


def _usage_error(message):
    return 2, "", f"{USAGE}involution-forge: error: {message}\n"


# (argv with SPEC for the lagrange_top path, exit code, stdout, stderr), as
# the argparse parser of earlier versions printed them
ARGV_TABLE = [
    (["--help"], 0, HELP, ""),
    (["nope", "SPEC"], *_usage_error(
        "argument command: invalid choice: 'nope' (choose from 'check', "
        "'pencil', 'bracket', 'solve-ansatz', 'report')")),
    (["check", "SPEC", "--format", "fancy"], *_usage_error(
        "argument --format: invalid choice: 'fancy' (choose from 'full', "
        "'summary')")),
    (["check", "SPEC", "--seed", "abc"], *_usage_error(
        "argument --seed: invalid int value: 'abc'")),
    # int() refuses more than 4300 digits
    (["check", "SPEC", "--seed", "9" * 5000], *_usage_error(
        f"argument --seed: invalid int value: '{'9' * 5000}'")),
    (["check", "SPEC", "--seed"], *_usage_error(
        "argument --seed: expected one argument")),
    (["check"], *_usage_error("the following arguments are required: spec")),
    (["check", "SPEC", "extra"], *_usage_error(
        "unrecognized arguments: extra")),
    (["check", "SPEC", "--sede", "1"], *_usage_error(
        "unrecognized arguments: --sede 1")),
    (["check", "--", "SPEC"], 0, CHECK_LAGRANGE, ""),
]


def _main_outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, code, out, err", ARGV_TABLE,
                         ids=[" ".join(argv)[:30] for argv, *_ in ARGV_TABLE])
def test_argv_table(argv, code, out, err, lagrange_path, capsys):
    argv = [lagrange_path if arg == "SPEC" else arg for arg in argv]
    assert _main_outcome(argv, capsys) == (code, out, err)


def test_seed_forms_print_the_same_bytes(lagrange_path, capsys):
    outcomes = [
        _main_outcome(["report", lagrange_path, *seed, "--format=summary"],
                      capsys)
        for seed in (["--seed=3"], ["--se", "3"], ["--seed", "3"])
    ]
    assert outcomes[0][0] == 0 and "  seed = 3\n" in outcomes[0][1]
    assert outcomes == [outcomes[0]] * 3


ARGV_WORDS = [
    "check", "report", "nope", "SPEC", "T", "", "-", "--", "3", "-3", "-1.5",
    "abc", "a b", "-a b", "full", "summary", "fancy", "a,b", "-h", "--help",
    "--he", "-hh", "-hx", "-h=", "--help=x", "--seed", "--se", "--seed=3",
    "--seed=", "--seed=-3", "--format", "--fo=summary", "--pair", "--p",
    "--pair=a,b", "--sede", "-x", "--=x", "---seed",
]


def _argparse_main(argv):
    """What main parsed with the argparse parser of earlier versions."""
    parser = argparse.ArgumentParser(
        prog="involution-forge",
        description="build and certify Poisson pencils from a spec file",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a JSON spec file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every sampled point (default 0)")
    parser.add_argument("--format", choices=("full", "summary"),
                        default="full", dest="fmt",
                        help="report verbosity")
    parser.add_argument("--pair", default=None,
                        help="two family names f,h for the bracket command")
    args = parser.parse_args(argv)
    return args.command, args.spec, args.seed, args.fmt, args.pair


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=7))
@example(argv=["check", "--", "--"])
def test_argv_reader_matches_argparse(capsys, argv):
    # argparse as the oracle: the same values, or the same exit code and
    # the same bytes on stdout and stderr, at the width it wraps at without
    # a terminal
    def outcome(read):
        try:
            result = read(argv)
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    with patch.dict(os.environ, COLUMNS="80"):
        expected = outcome(_argparse_main)
    if isinstance(expected[0], tuple) and expected[0][1] == []:
        # argparse strips the second "--" of "check -- --" out of the spec
        # and leaves an empty list, on which main ended in a traceback; the
        # reader takes that "--" as the spec path
        expected = (expected[0][:1] + ("--",) + expected[0][2:], expected[1])
    assert outcome(cli_module._read_argv) == expected


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_and_usage_do_not_wrap_with_the_terminal(columns, lagrange_path,
                                                      capsys):
    # the rows of --help and of a usage error, at 78 columns
    with patch.dict(os.environ, COLUMNS=columns):
        for argv, code, out, err in (ARGV_TABLE[0], ARGV_TABLE[3]):
            argv = [lagrange_path if arg == "SPEC" else arg for arg in argv]
            assert _main_outcome(argv, capsys) == (code, out, err)


# runs main on its argv in a fresh interpreter, then writes to stderr which
# of argparse and gettext main loaded
ARGPARSE_PROBE = """
import sys
before = set(sys.modules)
from involution_forge.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sorted({"argparse", "gettext"}
                                 & (set(sys.modules) - before))))
raise SystemExit(code)
"""


@pytest.mark.parametrize("argv", [
    ["report", "SPEC", "--seed", "3"],
    ["bracket", "SPEC", "--seed", "3", "--pair", "f1,f3"],
    ["report", "SPEC", "--format=summary"],
], ids=" ".join)
def test_usage_line_form_is_read_without_argparse(argv, lagrange_path):
    # every benchmark op has this form, and each is a cold process, which
    # importing and running argparse would cost about 3.4 ms
    argv = [lagrange_path if arg == "SPEC" else arg for arg in argv]
    proc = fresh_cli(argv, ARGPARSE_PROBE)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_other_spellings_go_through_argparse(lagrange_path):
    # the negative control: a prefix of --seed loads argparse, and prints
    # the same bytes
    fast, slow = (fresh_cli(["report", lagrange_path, seed, "3"],
                            ARGPARSE_PROBE) for seed in ("--seed", "--se"))
    assert slow.stderr == b"argparse gettext"
    assert fast.stdout.startswith(b"report:\n")
    assert (slow.returncode, slow.stdout) == (fast.returncode, fast.stdout)


@pytest.mark.parametrize("argv, code, out, err", [
    ARGV_TABLE[0],
    ARGV_TABLE[3],
    (["report", "SPEC"], 0, None, ""),
], ids=["help", "usage error", "report"])
def test_cli_runs_clean_with_warnings_as_errors(argv, code, out, err,
                                                lagrange_path):
    # a DeprecationWarning or ResourceWarning of the engine, or of argparse
    # imported late, ends the process instead of reaching stderr
    if out is None:
        golden = json.loads((BENCHMARKS / "golden.json").read_text("utf-8"))
        out = golden["stdout"]["report lagrange_top 0"]
    argv = [lagrange_path if arg == "SPEC" else arg for arg in argv]
    proc = fresh_cli(argv, flags=("-X", "dev", "-W", "error"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


def test_report_full_contains_certificate(lagrange_path):
    code, text = run("report", lagrange_path, format="full")
    assert code == 0
    assert "rank[sampled]" in text
    assert "closed-form[coordinates]" in text


def test_duplicate_ansatz_constant_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    constants = payload["sigma1"]["ansatz"]["constants"]
    constants.append(constants[0])
    code, text = run("solve-ansatz", spec_on_disk(payload))
    assert code == 2
    assert f"sigma1.ansatz.constants[{len(constants) - 1}]" in text
    assert "repeated" in text


def test_ansatz_unknown_names_are_reserved(spec_on_disk):
    # solve-ansatz adjoins free unknowns named k12, k13, ... k34 for the
    # four-covector basis of the Lagrange top
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["variables"].append({"name": "k34", "kind": "constant"})
    code, text = run("solve-ansatz", spec_on_disk(payload))
    assert code == 2
    assert f"variables[{len(payload['variables']) - 1}]" in text
    assert "reserved" in text
    payload = json.loads(fixture_file("lagrange_top").read_text())
    constants = payload["sigma1"]["ansatz"]["constants"]
    constants.append("k12")
    code, text = run("solve-ansatz", spec_on_disk(payload))
    assert code == 2
    assert f"sigma1.ansatz.constants[{len(constants) - 1}]" in text
    assert "reserved" in text
    # past nine covectors the two basis positions are split by "_"
    assert unknown_name(1, 10) == "k1_10"
    for name in ("k1_10", "k9_10"):
        payload = json.loads(fixture_file("lagrange_top").read_text())
        payload["sigma1"]["ansatz"]["basis"].extend(
            [{"indices": [1], "coeff": "1"}] for _ in range(6))
        payload["variables"].append({"name": name, "kind": "constant"})
        path = spec_on_disk(payload)
        assert run("check", path) == (
            2, f"error: {path}.variables[7]: variable {name!r} is reserved "
            "for an ansatz unknown")


def test_unknown_specialize_name_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["zz"] = "1"
    path = spec_on_disk(payload)
    code, text = run("solve-ansatz", path)
    assert code == 2
    assert text.startswith(f"error: {path}.sigma1.ansatz.specialize.zz: ")
    assert "neither a free unknown nor a constant" in text


def test_bad_specialize_value_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["k34"] = "1/0"
    path = spec_on_disk(payload)
    code, text = run("solve-ansatz", path)
    assert code == 2
    assert text.startswith(f"error: {path}.sigma1.ansatz.specialize.k34: ")
    assert "division by zero" in text


def test_appended_coordinate_name_is_reserved(spec_on_disk):
    payload = json.loads(fixture_file("toda_first").read_text())
    # a variable named s collides with the coordinate a cosymplectic
    # anchor appends; renaming b3 keeps every expression well-formed
    renamed = json.loads(json.dumps(payload).replace("b3", "s"))
    code, text = run("check", spec_on_disk(renamed))
    assert code == 2
    assert "variables[4]" in text
    assert "reserved" in text


def test_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, text = run("check", str(path))
    assert code == 2
    assert text == f"error: {path}: JSON nested too deeply"


def test_deeply_nested_expression_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = "(" * 5000 + "x1" + ")" * 5000
    code, text = run("check", spec_on_disk(payload))
    assert code == 2
    assert "family[1].expression" in text
    assert "nested deeper" in text


def test_singular_symplectic_anchor_exits_one(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["anchor"]["pairs"] = [[1, 4], [2, 5]]
    code, text = run("report", spec_on_disk(payload))
    assert (code, text) == (1, "error: Degenerate: component matrix is singular")


def test_degenerate_cosymplectic_anchor_exits_one(spec_on_disk):
    payload = json.loads(fixture_file("toda_first").read_text())
    payload["anchor"]["vartheta"] = [{"indices": [1], "coeff": "1"}]
    code, text = run("report", spec_on_disk(payload))
    assert code == 1
    assert text.startswith("error: DegenerateVolume: ")


def test_symplectic_anchor_on_an_odd_patch_exits_one(spec_on_disk):
    payload = json.loads(fixture_file("toda_first").read_text())
    payload["anchor"] = {"type": "symplectic", "bivector": [
        {"indices": [1, 3], "coeff": "1"}, {"indices": [2, 4], "coeff": "1"},
    ]}
    assert run("check", spec_on_disk(payload)) == (
        1, "error: OddDimension: geometric dimension 5 is odd; "
        "no symplectic anchor")


def test_sigma_coefficients_in_the_pencil_parameter_exit_two(spec_on_disk):
    # the pencil parameter enters only through the partition; a sigma pair
    # scaled by (1 + lambda) once assembled and certified a pencil
    payload = json.loads(fixture_file("toda_first").read_text())
    del payload["expected"]
    for key in ("sigma0", "sigma1"):
        payload[key]["coefficients"] = [
            [a, b, f"({text})*(1+lambda)"]
            for a, b, text in payload[key]["coefficients"]
        ]
    path = spec_on_disk(payload)
    for command in ("check", "pencil", "bracket", "report"):
        assert run(command, path, pair="f1,f2") == (
            2, f"error: {path}.sigma0.coefficients[0]: "
            "expression involves the pencil parameter 'lambda'")


def test_symplectic_anchor_in_the_pencil_parameter_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["anchor"] = {"type": "symplectic", "bivector": [
        {"indices": list(pair), "coeff": coeff} for pair, coeff in
        zip(payload["anchor"]["pairs"], ("1", "1 + lambda", "1"))
    ]}
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.anchor.bivector[1].coeff: "
        "expression involves the pencil parameter 'lambda'")


def _bivector_anchor(payload, coeffs):
    payload["anchor"] = {"type": "symplectic", "bivector": [
        {"indices": list(pair), "coeff": coeff}
        for pair, coeff in zip(payload["anchor"]["pairs"], coeffs)]}


def _set_theta(payload, coeff):
    payload["anchor"]["theta"][0]["coeff"] = coeff


@pytest.mark.parametrize("name, edit, at, rendered", [
    ("lagrange_top", lambda p: _bivector_anchor(p, ("1", "1 + x1", "1")),
     "bivector", "omega = ((-1)/(x1^2 + 2*x1 + 1))*dx1^dx2^dy2"),
    ("toda_first", lambda p: _set_theta(p, "1 + b2"),
     "theta", "Theta = (1)*da1^db1^db2"),
    ("toda_first", lambda p: p["anchor"]["vartheta"].append(
        {"indices": [1], "coeff": "b3"}),
     "vartheta", "vartheta = (-1)*da1^db3"),
])
def test_anchor_form_that_is_not_closed_exits_two(spec_on_disk, name, edit,
                                                  at, rendered):
    # the sigma conditions are decided as Schouten brackets of the lifted
    # bivectors, which are the codifferential identities only when the
    # anchor is Poisson
    payload = json.loads(fixture_file(name).read_text())
    edit(payload)
    path = spec_on_disk(payload)
    for command in ("check", "report"):
        assert run(command, path) == (
            2, f"error: {path}.anchor.{at}: the anchor form is not "
            f"closed: d {rendered}, not 0")


def test_closed_anchor_form_that_varies_is_accepted(spec_on_disk):
    payload = json.loads(fixture_file("toda_first").read_text())
    _set_theta(payload, "1 + a1^2")
    assert run("check", spec_on_disk(payload))[0] == 0


def test_specialize_value_in_the_pencil_parameter_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["l3"] = "lambda"
    path = spec_on_disk(payload)
    for command in ("check", "solve-ansatz"):
        assert run(command, path) == (
            2, f"error: {path}.sigma1.ansatz.specialize.l3: "
            "expression involves the pencil parameter 'lambda'")


def _split_chain_spec(f0: str, f1: str, sigma0, sigma1) -> dict:
    """On R^4 with the canonical anchor, the chain (f0, f1) and the single
    Casimir p2, so F(lambda) = lambda {f0, p2} + {f1, p2}; each sigma is
    one constant component, so every sigma condition holds."""
    def form(indices):
        return {"components": [{"indices": indices, "coeff": "1"}]}
    return {
        "name": "split_chain",
        "variables": ["q1", "p1", "q2", "p2",
                      {"name": "lambda", "kind": "pencil_parameter"}],
        "anchor": {"type": "canonical", "pairs": [[1, 2], [3, 4]]},
        "family": [{"name": "f0", "expression": f0},
                   {"name": "f1", "expression": f1},
                   {"name": "g", "expression": "p2"}],
        "partition": [["f0", "f1"], ["g"]],
        "sigma0": form(sigma0),
        "sigma1": form(sigma1),
    }


@pytest.mark.parametrize("f0, f1, sigma0, sigma1, line", [
    # {p1, p2} = 0 is the lambda^1 coefficient, then the lambda^0 one
    ("p1", "q2", [2, 4], [1, 2], "DegenerateLeading: the lambda^1 "
     "coefficient of F(lambda) vanishes identically"),
    ("q2", "p1", [1, 2], [2, 4], "DegenerateTrailing: the constant "
     "coefficient of F(lambda) vanishes identically"),
])
def test_a_vanishing_end_of_F_lambda_exits_one(spec_on_disk, f0, f1, sigma0,
                                               sigma1, line):
    path = spec_on_disk(_split_chain_spec(f0, f1, sigma0, sigma1))
    assert run("pencil", path) == (1, f"error: {line}")


def test_python_dash_m_runs_the_cli(lagrange_path):
    proc = fresh_cli(["check", lagrange_path])
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"schema = ok" in proc.stdout


def test_stdout_closed_by_the_reader_ends_in_one_error_line(lagrange_path):
    # like `involution-forge report ... | true`: the reader is gone before
    # the report is written
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "involution_forge", "report", lagrange_path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("error: ")


def test_unknown_specialize_name_fails_every_command(spec_on_disk):
    # parse_spec knows which names a specialize block may set, so check
    # rejects the spec without solving the ansatz
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["zz"] = "1"
    path = spec_on_disk(payload)
    for command in COMMANDS:
        code, text = run(command, path, pair="f1,f3")
        assert code == 2
        assert text.startswith(f"error: {path}.sigma1.ansatz.specialize.zz: ")


def test_check_parses_specialize_values_like_solve_ansatz(spec_on_disk):
    # the values are expressions over the sigma table, which has no s for
    # an even anchor
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["k34"] = "s"
    path = spec_on_disk(payload)
    expected = (2, f"error: {path}.sigma1.ansatz.specialize.k34: "
                   "unknown variable 's'")
    assert run("check", path) == expected
    assert run("solve-ansatz", path) == expected


def test_check_applies_specialize_like_solve_ansatz(spec_on_disk):
    # only the solver knows that k12 is not free and that k34 is, so
    # check must solve the ansatz to reject these blocks
    cases = (
        ({"k12": "1"}, ".k12: 'k12' is neither a free unknown nor a constant"),
        ({"l3": "1", "m3": "2"}, ": free unknowns left unassigned: k34"),
    )
    for block, tail in cases:
        payload = json.loads(fixture_file("lagrange_top").read_text())
        payload["sigma1"]["ansatz"]["specialize"] = block
        path = spec_on_disk(payload)
        expected = (2, f"error: {path}.sigma1.ansatz.specialize{tail}")
        assert run("solve-ansatz", path) == expected
        assert run("check", path) == expected


def _l3_in_family(payload):
    payload["family"][0]["expression"] += " + l3"


def _l3_in_sigma0(payload):
    payload["sigma0"]["basis"][0][0]["coeff"] = "x2*l3"


@pytest.mark.parametrize("edit, at", [
    (_l3_in_family, "family[0].expression"),
    (_l3_in_sigma0, "sigma0.basis[0][0].coeff"),
])
def test_check_refuses_an_ansatz_constant_outside_the_ansatz(spec_on_disk,
                                                             edit, at):
    # check elaborates twice on purpose: the plain elaboration, the one
    # pencil and report take, knows no ansatz constant and refuses l3 in a
    # top-level block; solve-ansatz elaborates only the ansatz, where l3 is
    # a constant, so it does not refuse the spec
    payload = json.loads(fixture_file("lagrange_top").read_text())
    edit(payload)
    path = spec_on_disk(payload)
    expected = (2, f"error: {path}.{at}: unknown variable 'l3'")
    for command in ("check", "pencil", "report"):
        assert run(command, path) == expected, command
    assert run("solve-ansatz", path)[0] != 2


def test_specialize_value_that_makes_a_pole_is_a_spec_error(spec_on_disk):
    # the solved ansatz divides by m3, so m3 = 0 puts a pole in it: a bad
    # value at the block, for check as for solve-ansatz
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"]["m3"] = "0"
    path = spec_on_disk(payload)
    expected = (2, f"error: {path}.sigma1.ansatz.specialize: "
                   "substitution makes the denominator vanish")
    assert run("solve-ansatz", path) == expected
    assert run("check", path) == expected


def test_unassigned_free_unknown_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["specialize"] = {"l3": "1", "m3": "2"}
    path = spec_on_disk(payload)
    code, text = run("solve-ansatz", path)
    assert (code, text) == (
        2, f"error: {path}.sigma1.ansatz.specialize: "
        "free unknowns left unassigned: k34")


def test_bad_family_expression_line_names_the_spec(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = "x1 +"
    path = spec_on_disk(payload)
    code, text = run("check", path)
    assert code == 2
    assert text.startswith(f"error: {path}.family[1].expression: ")
    # an integer literal longer than int-from-str conversion reads
    payload = json.loads(fixture_file("toda_first").read_text())
    payload["family"][0]["expression"] = "9" * 5000 + "*a1"
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[0].expression: integer literal of 5000 "
        "digits exceeds 4300 (at position 0)")


def test_partition_degree_error_is_reported_by_check(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"].append({"name": "f5", "expression": "x1"})
    payload["partition"][0].append("f5")
    path = spec_on_disk(payload)
    for command in ("check", "pencil"):
        code, text = run(command, path)
        assert (code, text) == (
            2, f"error: {path}.partition: "
            "partition degrees sum to 3, expected r = 1")


def test_family_size_error_names_the_family(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    for pos in range(1, 4):
        payload["family"].append({"name": f"g{pos}", "expression": f"x{pos}"})
        payload["partition"][0].append(f"g{pos}")
    path = spec_on_disk(payload)
    code, text = run("check", path)
    assert (code, text) == (
        2, f"error: {path}.family: "
        "7 functions on a 6-dimensional table fit no 2r+k split")


def test_missing_pencil_parameter_fails_every_command(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["variables"] = payload["variables"][:-1]
    path = spec_on_disk(payload)
    for command in COMMANDS:
        code, text = run(command, path, pair="f1,f3")
        assert (code, text) == (
            2, f"error: {path}.variables: "
            "exactly one pencil parameter is required")


def test_exponent_above_the_bound_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = "x1^101"
    path = spec_on_disk(payload)
    code, text = run("check", path)
    assert (code, text) == (
        2, f"error: {path}.family[1].expression: "
        "exponent 101 exceeds 100 (at position 3)")


def test_exponent_that_is_not_a_literal_exits_two(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    for expression in ("x1^y1", "x1^(2)"):
        payload["family"][1]["expression"] = expression
        path = spec_on_disk(payload)
        assert run("check", path) == (
            2, f"error: {path}.family[1].expression: "
            "expected an unsigned integer exponent (at position 3)")


def test_unknown_command_or_format_exits_two_in_one_line(lagrange_path):
    # run() is the library entry point: main() refuses both in the argv
    # reader, but a caller of run() gets the same exit code and one line
    assert run("frobnicate", lagrange_path) == (
        2, "error: unknown command 'frobnicate'")
    for command in COMMANDS:
        assert run(command, lagrange_path, format="json") == (
            2, "error: unknown format 'json'")
    # the command is checked first, and neither reads the spec
    assert run("frobnicate", "no/such/spec.json", format="json") == (
        2, "error: unknown command 'frobnicate'")


@pytest.mark.parametrize("expression, position", [
    # the inner power is within the budget and is computed, the outer
    # one is refused before it multiplies anything
    ("((x3+x1+1)^100)^100", 15),
    ("((x1^100)^100)^100", 9),
])
def test_degree_above_the_budget_exits_two(spec_on_disk, expression,
                                           position):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    # a separate process, so that a budget that stops working fails the
    # test at the timeout instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "involution_forge", "check", path],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == (
        f"error: {path}.family[1].expression: "
        f"degree 10000 exceeds 200 (at position {position})\n")


def test_powers_of_zero_pass_the_term_bound(spec_on_disk, lagrange_path):
    # a zero numerator has no terms; adding its powers changes nothing
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] += " + 0^2 + (x1 - x1)^3 + 0^0 - 1"
    path = spec_on_disk(payload)
    assert run("check", path) == run("check", lagrange_path)


SUM7 = "(x1+x2+x3+y1+y2+y3+1)"


@pytest.mark.parametrize("expression, position, bound", [
    # within the degree and exponent bounds, but C(106, 6) terms
    (f"{SUM7}^100", 21, 1705904746),
    # 924 terms each way: refused at the '*' or '/', before multiplying
    (f"{SUM7}^6*{SUM7}^6", 23, 924 * 924),
    (f"1/{SUM7}^6/{SUM7}^6", 25, 924 * 924),
])
def test_expansion_above_the_term_bound_exits_two(spec_on_disk, expression,
                                                  position, bound):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    # a separate process with a timeout and 1 GiB of address space, so
    # that a bound that stops working fails the test instead of expanding
    proc = subprocess.run(
        [sys.executable, "-m", "involution_forge", "check", path],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2**30, 2**30)),
    )
    assert proc.returncode == 2
    assert proc.stdout == (
        f"error: {path}.family[1].expression: may expand to {bound} "
        f"terms, more than 100000 (at position {position})\n")


def _check_in_a_fresh_process(path):
    """``check`` on ``path`` in a separate process with a timeout and 1 GiB
    of address space, so that a bound that stops working fails the test
    instead of stalling the suite or exhausting memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "involution_forge", "check", path],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2**30, 2**30)),
    )


def test_nested_powers_of_a_constant_exit_two(spec_on_disk):
    # 36 characters whose last power has about 10^10 bits: the third power
    # may pass 4300 digits, so it is refused before it is computed
    expression = "x1 + ((((2^100)^100)^100)^100)^100"
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    proc = _check_in_a_fresh_process(path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == (
        f"error: {path}.family[1].expression: coefficients may exceed 4300 "
        f"digits (at position 20)\n")


def _sum_of_wide_fractions(n):
    # one-digit coefficients drawn once: n fractions over 7-term
    # denominators in six variables
    rng = Random(1)
    return " + ".join(
        "1/(" + " + ".join(f"{rng.randint(1, 9)}*{v}" for v in
                           ("x1", "x2", "x3", "y1", "y2", "y3"))
        + f" + {rng.randint(1, 9)})" for _ in range(n))


_LONG = 10**4299  # 4300 digits


@pytest.mark.parametrize("expression, message", [
    # each '+' multiplies two denominators of many terms, and is charged
    (_sum_of_wide_fractions(24),
     "may expand to 136206 terms in all, more than 100000 (at position 498)"),
    # each fraction is within the bound, the product of two denominators
    # is not
    (" + ".join(f"1/(x1 + {_LONG + i})" for i in range(60)),
     "coefficients may exceed 4300 digits (at position 4310)"),
    # the common denominator of two terms passes 4300 digits
    (" + ".join(f"(x1 + x2)/{_LONG + i}" for i in range(40)),
     "coefficients may exceed 4300 digits (at position 4311)"),
    # the cube of a 4300-digit constant
    (f"(x1 + x2 + x3 + {_LONG})^3/(x1 + x2 - x3 + {_LONG})^3",
     "coefficients may exceed 4300 digits (at position 4317)"),
], ids=["wide-fractions", "long-fractions", "long-divisors", "long-powers"])
def test_slow_sums_and_quotients_exit_two(spec_on_disk, expression, message):
    # each of these took seconds to parse without the bound that refuses it
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    proc = _check_in_a_fresh_process(path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == f"error: {path}.family[1].expression: {message}\n"


@pytest.mark.parametrize("power, terms", [(10, 66), (8, 45)])
def test_product_of_long_powers_exits_two(spec_on_disk, power, terms):
    # each power of a base with a 4300-digit constant may have coefficients
    # of ``power`` times as many digits, so the first one is refused before
    # it is computed.  With a one-digit constant the product spends its
    # terms**2 term pairs after the two powers of ``terms`` terms each
    long = "7" * 4300
    expression = f"(x1 + x2 + {long})^{power}*(x2 + x3 + {long})^{power}"
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[1].expression: coefficients may exceed "
        f"4300 digits (at position {expression.index('^')})")
    parser = _Parser(expression.replace(long, "7"),
                     VarTable.build(["x1", "x2", "x3"]))
    parser.parse()
    assert MAX_TERMS - parser.budget == 2 * terms + terms**2


@pytest.mark.parametrize("power, terms", [(10, 66), (8, 45)])
def test_quotient_of_long_powers_exits_two(spec_on_disk, power, terms):
    # refused at the first power, as the product above.  With a one-digit
    # constant the quotient spends its ``terms`` cross products after the
    # two powers
    long = "7" * 4300
    expression = f"(x1 + x2 + {long})^{power}/(x2 + x3 + {long})^{power}"
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[1].expression: coefficients may exceed "
        f"4300 digits (at position {expression.index('^')})")
    parser = _Parser(expression.replace(long, "7"),
                     VarTable.build(["x1", "x2", "x3"]))
    parser.parse()
    assert MAX_TERMS - parser.budget == 3 * terms


def test_expression_above_the_token_cap_exits_two(spec_on_disk):
    # a sum of monomials spends nothing from the term budget; the token cap
    # refuses it while tokenizing, before anything is parsed
    expression = "x1*x2+" * (MAX_TOKENS // 4) + "x1"
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[1].expression: more than {MAX_TOKENS} "
        f"tokens (at position {len(expression) - 2})")


def test_powers_of_one_expression_share_the_term_budget(spec_on_disk):
    # each power has C(22, 6) = 74 613 terms, under the bound alone; the
    # second one takes the expression past it.  Before the bounds shared
    # one budget this 86-character expression took seconds to expand
    expression = f"{SUM7}^16 + {SUM7}^16*x2 + {SUM7}^16*x3^2"
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[1].expression: may expand to "
        f"{2 * comb(22, 6)} terms in all, more than 100000 "
        f"(at position {expression.index('^', 30)})")


def test_sum_of_fractions_above_the_budget_exits_two(spec_on_disk):
    # no '^', '*' or '/' is over the budget, but each '+' multiplies in a
    # new denominator
    expression = " + ".join(f"1/(x1+{i})" for i in range(1, 202))
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["family"][1]["expression"] = expression
    path = spec_on_disk(payload)
    assert run("check", path) == (
        2, f"error: {path}.family[1].expression: degree 201 exceeds 200 "
        f"(at position {expression.rindex(' + ') + 1})")


# each damage to the Lagrange top spec, with the JSON path and the message
# of the SpecError it must raise
SHAPE_ERRORS = {
    (lambda p: p.pop("variables")):
        ("spec", "'variables' is a required property"),
    (lambda p: p.update(extra=1)):
        ("spec", "unexpected property 'extra'"),
    (lambda p: p.update(name="1abc")):
        ("spec.name", "'1abc' is not an identifier"),
    (lambda p: p["variables"].append({"name": "z", "kind": "bogus"})):
        ("spec.variables[7].kind",
         "expected one of manifold, constant, pencil_parameter"),
    (lambda p: p["anchor"].update(type="unknown")):
        ("spec.anchor.type",
         "expected one of canonical, symplectic, cosymplectic"),
    (lambda p: p["family"][0].pop("expression")):
        ("spec.family[0]", "'expression' is a required property"),
    (lambda p: p["sigma1"]["ansatz"]["basis"][0][0].update(indices=[0])):
        ("spec.sigma1.ansatz.basis[0][0].indices[0]",
         "expected a positive integer"),
    (lambda p: p["sigma0"]["coefficients"][0].append("x1")):
        ("spec.sigma0.coefficients[0]", "expected 3 items, got 4"),
    (lambda p: p.update(partition=[[]])):
        ("spec.partition[0]", "expected at least 1 item, got 0"),
}


# The name recalls the validator these damages were first checked against;
# it is kept so that the nine test ids stay the same.
@pytest.mark.parametrize("damage", list(SHAPE_ERRORS))
def test_schema_errors_match_jsonschema_validate(damage):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    damage(payload)
    where, message = SHAPE_ERRORS[damage]
    with pytest.raises(SpecError) as raised:
        parse_spec(payload, "spec")
    assert raised.value.path == where
    assert str(raised.value) == f"{where}: {message}"


def test_repeated_ansatz_family_name_exits_two(spec_on_disk):
    # the ansatz family obeys the top-level family's rules, so report
    # rejects it too, though only check and solve-ansatz elaborate it
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"]["ansatz"]["family"][1]["name"] = "f1"
    path = spec_on_disk(payload)
    assert run("report", path) == (
        2, f"error: {path}.sigma1.ansatz.family[1]: family name 'f1' repeated")


def _set(payload, path, value):
    for step in path[:-1]:
        payload = payload[step]
    payload[path[-1]] = value


@pytest.mark.parametrize("where, value, message", [
    ("sigma0.basis[0][0].indices[0]", 1.0, "expected a positive integer"),
    ("anchor.pairs[0][0]", 1.0, "expected a positive integer"),
    ("sigma0.coefficients[0][0]", 1.0, "expected a positive integer"),
    ("sigma1.components[0].indices[0]", True, "expected a positive integer"),
    ("anchor.type", [],
     "expected one of canonical, symplectic, cosymplectic"),
])
def test_malformed_value_exits_two(spec_on_disk, where, value, message):
    # JSON Schema counts 1.0 as an integer, and an unhashable anchor type
    # cannot be a dict key: each of these once ended in a traceback
    payload = json.loads(fixture_file("lagrange_top").read_text())
    steps = [int(step) if step.isdigit() else step
             for step in re.findall(r"\w+", where)]
    _set(payload, steps, value)
    path = spec_on_disk(payload)
    for command in ("check", "report"):
        assert run(command, path) == (2, f"error: {path}.{where}: {message}")


def _indices(where, indices):
    return lambda p: _set(p, where, indices)


_COMPONENT = ("sigma1", "components", 0, "indices")
_PAIR = ("anchor", "pairs", 0)
# solve-ansatz elaborates only the ansatz of sigma1
_PLAIN = tuple(command for command in COMMANDS if command != "solve-ansatz")


# each damage to the Lagrange top spec, the JSON path and message of its
# exit-2 line, and the commands that print it
@pytest.mark.parametrize("damage, where, message, commands", [
    (lambda p: p.update(sigma1={"coefficients": [[1, 2, "1"]]}), "sigma1",
     "one of 'components', 'basis', 'ansatz' is required", COMMANDS),
    (lambda p: p["sigma0"].pop("coefficients"), "sigma0",
     "'coefficients' is required alongside 'basis'", COMMANDS),
    (lambda p: p["sigma0"]["coefficients"][0].__setitem__(1, 9),
     "sigma0.coefficients[0]",
     "basis pair (1, 9) out of range for 4 covectors", COMMANDS),
    (lambda p: p.update(variables=p["variables"][-1:]), "variables",
     "at least one manifold variable is required", COMMANDS),
    (_indices(_COMPONENT, [1, 5, 6]), "sigma1.components[0].indices",
     "expected 2 indices, got 3", _PLAIN),
    (_indices(_COMPONENT, [1, 9]), "sigma1.components[0].indices",
     "indices must lie in 1..6", _PLAIN),
    (_indices(_COMPONENT, [5, 1]), "sigma1.components[0].indices",
     "indices must be strictly increasing", _PLAIN),
    # a canonical pair is its own indices node
    (_indices(_PAIR, [4, 1]), "anchor.pairs[0]",
     "indices must be strictly increasing", COMMANDS),
    (_indices(_PAIR, [1, 9]), "anchor.pairs[0]",
     "indices must lie in 1..6", COMMANDS),
    (_indices(_PAIR, [1, 1]), "anchor.pairs[0]",
     "indices must be strictly increasing", COMMANDS),
    (lambda p: p.update(partition=[["f1"], ["f2", "f4"]]), "partition",
     "partition must use every family entry exactly once; got "
     "['f1', 'f2', 'f4'] for entries ['f1', 'f2', 'f3', 'f4']", COMMANDS),
])
def test_spec_error_line_is_exact(spec_on_disk, damage, where, message,
                                  commands):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    damage(payload)
    path = spec_on_disk(payload)
    for command in commands:
        assert run(command, path, pair="f1,f3") == (
            2, f"error: {path}.{where}: {message}")


def test_ansatz_only_sigma1_is_checked_but_not_assembled(spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    payload["sigma1"] = {"ansatz": payload["sigma1"]["ansatz"]}
    path = spec_on_disk(payload)
    code, text = run("check", path)
    assert code == 0
    assert "  sigma1 = ansatz only" in text.splitlines()
    for command in ("pencil", "report", "bracket"):
        assert run(command, path, pair="f1,f3") == (
            2, f"error: {path}.sigma1: "
            "no components and no basis given; only an ansatz")


def test_solve_ansatz_without_specialize_prints_the_general_solution(
        spec_on_disk):
    payload = json.loads(fixture_file("lagrange_top").read_text())
    del payload["sigma1"]["ansatz"]["specialize"]
    code, text = run("solve-ansatz", spec_on_disk(payload))
    assert code == 0
    assert "  free = k34" in text.splitlines()
    assert "specialized at" not in text


def test_bracket_pair_outside_the_family_exits_two(lagrange_path):
    assert run("bracket", lagrange_path, pair="f1,zz") == (
        2, "error: no family entry named 'zz'")


# replacement values for the mutation property: wrong types, JSON's
# integer-valued floats, reserved and pencil names, empty containers
POOL = [1.0, True, None, "", 0, -1, [], {}, [1, 1], "lambda", "s", "k12",
        1e308]


def _node_paths(value, path=()):
    """Every node below the root, the free-form ``expected`` block as one."""
    if path:
        yield path
    if path == ("expected",):
        return
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield from _node_paths(sub, path + (key,))


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_spec_never_ends_in_a_traceback(tmp_path_factory, data):
    name = data.draw(st.sampled_from(FIXTURE_NAMES))
    command = data.draw(st.sampled_from(COMMANDS))
    payload = json.loads(fixture_file(name).read_text())
    # the first two family members of the unmutated spec
    pair = ",".join(entry["name"] for entry in payload["family"][:2])
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_node_paths(payload))
        _set(payload, data.draw(st.sampled_from(paths)),
             data.draw(st.sampled_from(POOL)))
    try:
        parse_spec(payload, "spec")
    except SpecError:
        pass
    path = tmp_path_factory.mktemp("mutated") / "spec.json"
    path.write_text(json.dumps(payload))
    code, text = run(command, str(path), pair=pair)
    assert code in (0, 1, 2), text


# the grammar's atoms on toda_first: its coordinates, the pencil parameter
# (a family entry may not involve it), an undeclared name, zero, and
# literals at and one digit past CPython's int/str limit
_LIMIT = sys.get_int_max_str_digits()
_ATOMS = st.one_of(
    st.sampled_from(["a1", "a2", "b1", "b2", "b3", "lambda", "zz", "0",
                     "(a1 + a2 + b1 + b2 + b3 + 1)"]),
    st.integers(1, 10**6).map(str),
    st.sampled_from(["7" * _LIMIT, "7" * (_LIMIT + 1)]),
)
_EXPONENTS = st.sampled_from(
    [0, 1, 2, 3, 50, MAX_EXPONENT, MAX_EXPONENT + 1, 10**30]).map(str)
_DEPTHS = st.sampled_from(
    [1, 2, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 10 * MAX_NESTING])
_STRAY = list("+-*/^()") + ["**", ")(", "()", " ", "@", "#", ".", ",", "=",
                           "[", "\\", "é", "²", "\t", "\n"]


def _tower(base, exponents):
    return "(" * len(exponents) + base + "".join(
        f")^{n}" for n in exponents)


def _towers(inner):
    return st.builds(_tower, inner,
                     st.lists(_EXPONENTS, min_size=1, max_size=5))


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
        _towers(inner),
        st.builds(lambda e, n: "(" * n + e + ")" * n, inner, _DEPTHS),
        inner.map(lambda e: f"-({e})"),
        st.lists(inner, min_size=2, max_size=40).map("/".join),
        inner.map(lambda e: f"{e}/0"),
    )


def _monomial_sum(count):
    # distinct monomials, each term of degree at most 9 + 9 + 19
    return " + ".join(f"{k + 1}*a1^{k % 10}*b1^{k // 10 % 10}*b3^{k // 100}"
                      for k in range(count))


def _stray(text, pos, junk):
    pos %= len(text) + 1
    return text[:pos] + junk + text[pos:]


_TREES = st.recursive(_ATOMS, _grow, max_leaves=6)
_EXPRESSIONS = st.one_of(
    _TREES, _towers(_TREES), st.integers(1, 2000).map(_monomial_sum),
).flatmap(lambda text: st.one_of(
    st.just(text),
    st.builds(_stray, st.just(text), st.integers(0, 10**6),
              st.sampled_from(_STRAY)),
))


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expression=_EXPRESSIONS)
def test_generated_expression_never_ends_in_a_traceback(tmp_path_factory,
                                                        expression):
    # the expression grammar itself, through the command line: nesting and
    # exponents up to and past their bounds, chained and zero divisors,
    # long sums, stray characters and over-long literals in a family entry
    payload = json.loads(fixture_file("toda_first").read_text())
    payload["family"][0]["expression"] = expression
    path = tmp_path_factory.mktemp("grammar") / "spec.json"
    path.write_text(json.dumps(payload))
    code, text = run("check", str(path))
    assert code in (0, 1, 2), text
    assert text.startswith("error: " if code else "check:"), text


def test_cli_imports_only_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])
    probe = (
        "import sys, involution_forge.cli\n"
        "print('\\n'.join(sorted(name for name in sys.modules\n"
        "    if name.partition('.')[0] not in sys.stdlib_module_names)))\n"
    )
    # -S keeps site-packages off the path and their .pth hooks unrun
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    outside = set(proc.stdout.split()) - {"__main__"}
    assert all(name.partition(".")[0] == "involution_forge"
               for name in outside), sorted(outside)


def test_cli_import_loads_no_introspection_modules():
    # a CLI op is one cold process: dataclasses alone would add inspect,
    # ast, dis and tokenize to every op, and argparse adds itself and
    # gettext.  Compared with a bare interpreter, so that a site which
    # loads some of them itself does not count.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])

    def loaded(imports):
        probe = f"import sys{imports}\nprint('\\n'.join(sys.modules))\n"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = loaded(", involution_forge.cli") - loaded("")
    assert not added & {"dataclasses", "inspect", "ast", "dis",
                        "tokenize", "argparse", "gettext"}, sorted(added)


def test_cli_import_loads_no_resource_machinery():
    # no command loads a fixture, so importlib.resources and what it pulls
    # in stay out of a CLI process.  Under -S, since a site hook may
    # import them before any program code runs.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(involution_forge.__file__).parents[1])

    def loaded(imports):
        probe = f"import sys{imports}\nprint('\\n'.join(sys.modules))\n"
        proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = loaded(", involution_forge.cli") - loaded("")
    assert not added & {"importlib.resources", "pathlib", "tempfile",
                        "shutil"}, sorted(added)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_does_not_depend_on_the_seed(name):
    # the seed moves the sample point and nothing else
    def stable(seed):
        code, text = run("report", str(fixture_file(name)), seed=seed)
        return code, [line for line in text.splitlines()
                      if not line.strip().startswith(("seed =", "sample ="))]

    first = stable(0)
    assert all(stable(seed) == first for seed in range(1, 4))
