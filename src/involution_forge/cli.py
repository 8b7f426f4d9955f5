"""Spec-file driven command line for building and certifying pencils.

A spec file is one JSON object naming the variables, the anchor structure,
the prescribed family with its partition, and the two 2-forms (directly by
components, through an annihilator basis with combination coefficients, or
as an ansatz whose coefficients are to be solved for).  Every command
validates the file against the schema below before any computation starts,
and all output is deterministic byte-for-byte for a fixed spec file and
seed.

Exit codes: 0 when every requested verdict passes, 1 when a computation or
verdict fails, 2 when the spec file itself is rejected (the message carries
the JSON path).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, replace

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .anchor import (
    APPENDED_NAME,
    build_cosymplectic,
    build_symplectic,
    full_matrix,
    poisson_bracket,
)
from .errors import ForgeError, RankTooSmall, SpecError
from .exterior import Form, MultiVector, from_records, wedge
from .pencil import (
    CasimirPolynomial,
    SigmaPair,
    assemble_pencil,
    bracket_closed_form,
    build_family,
    check_partition,
    closed_form_interior,
    solve_recursion_ansatz,
    unknown_name,
)
from .symexpr import VarKind, VarTable, parse_ratfun
from .verify import certify

COMMANDS = ("check", "pencil", "bracket", "solve-ansatz", "report")

# verdict-label prefix for each requestable check group
CHECK_GROUPS = {
    "jacobi": "jacobi[",
    "casimir": "casimir[",
    "involution": "involution[",
    "compatibility": "compatibility[",
    "lenard_magri": "chain[",
    "rank": "rank[",
    "det_identity": "det[",
    "closed_form": "closed-form[",
}

_IDENT = "^[A-Za-z][A-Za-z0-9_]*$"

_RECORD = {
    "type": "object",
    "properties": {
        "indices": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "coeff": {"type": "string", "minLength": 1},
    },
    "required": ["indices", "coeff"],
    "additionalProperties": False,
}

_RECORDS = {"type": "array", "items": _RECORD, "minItems": 1}

_ONE_FORMS = {"type": "array", "items": _RECORDS, "minItems": 2}

_COEFFICIENTS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "prefixItems": [
            {"type": "integer", "minimum": 1},
            {"type": "integer", "minimum": 1},
            {"type": "string", "minLength": 1},
        ],
        "items": False,
        "minItems": 3,
    },
}

_FAMILY = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "properties": {
            "name": {"type": "string", "pattern": _IDENT},
            "expression": {"type": "string", "minLength": 1},
        },
        "required": ["name", "expression"],
        "additionalProperties": False,
    },
}

_ANSATZ = {
    "type": "object",
    "properties": {
        "constants": {
            "type": "array",
            "items": {"type": "string", "pattern": _IDENT},
        },
        "family": _FAMILY,
        "basis": _ONE_FORMS,
        "specialize": {
            "type": "object",
            "propertyNames": {"pattern": _IDENT},
            "additionalProperties": {"type": "string", "minLength": 1},
        },
    },
    "required": ["basis"],
    "additionalProperties": False,
}

_SIGMA0 = {
    "type": "object",
    "properties": {
        "components": _RECORDS,
        "basis": _ONE_FORMS,
        "coefficients": _COEFFICIENTS,
    },
    "dependentRequired": {
        "basis": ["coefficients"],
        "coefficients": ["basis"],
    },
    "anyOf": [{"required": ["components"]}, {"required": ["basis"]}],
    "additionalProperties": False,
}

_SIGMA1 = {
    "type": "object",
    "properties": {
        "components": _RECORDS,
        "basis": _ONE_FORMS,
        "coefficients": _COEFFICIENTS,
        "ansatz": _ANSATZ,
    },
    "dependentRequired": {
        "basis": ["coefficients"],
        "coefficients": ["basis"],
    },
    "anyOf": [
        {"required": ["components"]},
        {"required": ["basis"]},
        {"required": ["ansatz"]},
    ],
    "additionalProperties": False,
}

SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "name": {"type": "string", "pattern": _IDENT},
        "variables": {
            "type": "array",
            "minItems": 1,
            "items": {
                "oneOf": [
                    {"type": "string", "pattern": _IDENT},
                    {
                        "type": "object",
                        "properties": {
                            "name": {"type": "string", "pattern": _IDENT},
                            "kind": {
                                "enum": [
                                    "manifold",
                                    "constant",
                                    "pencil_parameter",
                                ]
                            },
                        },
                        "required": ["name", "kind"],
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "anchor": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "canonical"},
                        "pairs": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "prefixItems": [
                                    {"type": "integer", "minimum": 1},
                                    {"type": "integer", "minimum": 1},
                                ],
                                "items": False,
                                "minItems": 2,
                            },
                        },
                    },
                    "required": ["type", "pairs"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "symplectic"},
                        "bivector": _RECORDS,
                    },
                    "required": ["type", "bivector"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "type": {"const": "cosymplectic"},
                        "vartheta": _RECORDS,
                        "theta": _RECORDS,
                    },
                    "required": ["type", "vartheta", "theta"],
                    "additionalProperties": False,
                },
            ]
        },
        "family": _FAMILY,
        "partition": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "string", "pattern": _IDENT},
            },
        },
        "sigma0": _SIGMA0,
        "sigma1": _SIGMA1,
        "checks": {
            "type": "array",
            "items": {"enum": sorted(CHECK_GROUPS)},
        },
        "expected": {"type": "object"},
    },
    "required": [
        "name", "variables", "anchor", "family", "partition",
        "sigma0", "sigma1",
    ],
    "additionalProperties": False,
}

# built once: jsonschema.validate would re-check the schema on every call
_SPEC_VALIDATOR = Draft202012Validator(SPEC_SCHEMA)


# --- parsing -------------------------------------------------------------------


@dataclass
class SpecFile:
    """A validated spec payload; ``path`` names the document, and every
    error about its content is reported at ``<path>.<JSON path>``."""

    path: str
    name: str
    variables: list
    anchor: dict
    family: list
    partition: list
    sigma0: dict
    sigma1: dict
    checks: tuple
    expected: dict


def _copy(value):
    return json.loads(json.dumps(value))


def parse_spec(payload, path: str = "spec") -> SpecFile:
    """Validate a payload against the schema plus the semantic rules the
    schema cannot express; raises SpecError pointing into the document."""
    error = best_match(_SPEC_VALIDATOR.iter_errors(payload))
    if error is not None:
        where = ".".join(str(step) for step in error.absolute_path)
        raise SpecError(error.message, f"{path}.{where}" if where else path)

    variables = [
        (entry, VarKind.MANIFOLD) if isinstance(entry, str)
        else (entry["name"], VarKind(entry["kind"]))
        for entry in payload["variables"]
    ]
    ansatz = payload["sigma1"].get("ansatz", {})
    constants = ansatz.get("constants", [])
    # Every table name is taken once.  The engine adjoins two kinds itself:
    # the coordinate a cosymplectic anchor appends, and the free unknowns
    # solve-ansatz names k12, k13, ... after the basis pairs.
    width = len(ansatz.get("basis", ()))
    unknowns = {
        unknown_name(a, b)
        for b in range(2, width + 1) for a in range(1, b)
    }
    taken = dict.fromkeys(unknowns, "is reserved for an ansatz unknown")
    if payload["anchor"]["type"] == "cosymplectic":
        taken[APPENDED_NAME] = (
            "is reserved for the appended coordinate of a cosymplectic anchor"
        )
    named = [
        ("variable", f"variables[{pos}]", name)
        for pos, (name, _) in enumerate(variables)
    ] + [
        ("ansatz constant", f"sigma1.ansatz.constants[{pos}]", name)
        for pos, name in enumerate(constants)
    ]
    for what, where, name in named:
        if name in taken:
            raise SpecError(f"{what} {name!r} {taken[name]}",
                            f"{path}.{where}")
        taken[name] = f"repeated (first at {where})"
    settable = unknowns.union(constants, (
        name for name, kind in variables if kind is VarKind.CONSTANT
    ))
    for name in ansatz.get("specialize", {}):
        if name not in settable:
            raise SpecError(
                f"{name!r} is neither a free unknown nor a constant",
                f"{path}.sigma1.ansatz.specialize.{name}",
            )

    kinds = [kind for _, kind in variables]
    if sum(1 for kind in kinds if kind is VarKind.PENCIL) != 1:
        raise SpecError(
            "exactly one pencil parameter is required", f"{path}.variables"
        )
    if not any(kind is VarKind.MANIFOLD for kind in kinds):
        raise SpecError(
            "at least one manifold variable is required",
            f"{path}.variables",
        )

    family = []
    family_names = set()
    for pos, entry in enumerate(payload["family"]):
        if entry["name"] in family_names:
            raise SpecError(
                f"family name {entry['name']!r} repeated",
                f"{path}.family[{pos}]",
            )
        family_names.add(entry["name"])
        family.append((entry["name"], entry["expression"]))

    used = [name for chain in payload["partition"] for name in chain]
    if sorted(used) != sorted(family_names):
        raise SpecError(
            "partition must use every family name exactly once",
            f"{path}.partition",
        )

    for key in ("sigma0", "sigma1"):
        block = payload[key]
        if "coefficients" in block:
            width = len(block["basis"])
            for pos, (a, b, _) in enumerate(block["coefficients"]):
                if not (1 <= a < b <= width):
                    raise SpecError(
                        f"basis pair ({a}, {b}) out of range for "
                        f"{width} covectors",
                        f"{path}.{key}.coefficients[{pos}]",
                    )

    return SpecFile(
        path=path,
        name=payload["name"],
        variables=variables,
        anchor=_copy(payload["anchor"]),
        family=family,
        partition=[list(chain) for chain in payload["partition"]],
        sigma0=_copy(payload["sigma0"]),
        sigma1=_copy(payload["sigma1"]),
        checks=tuple(payload.get("checks", ())),
        expected=_copy(payload.get("expected", {})),
    )


def load_payload(spec_path: str) -> dict:
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}", spec_path) from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}", spec_path) from exc
    except RecursionError as exc:
        raise SpecError("JSON nested too deeply", spec_path) from exc


# --- elaboration ----------------------------------------------------------------


def _records_form(table: VarTable, degree: int, records, path: str,
                  kind=Form):
    width = table.dim
    total = kind.zero(table, degree)
    for pos, rec in enumerate(records):
        idx = rec["indices"]
        where = f"{path}[{pos}]"
        if len(idx) != degree:
            raise SpecError(
                f"expected {degree} indices, got {len(idx)}",
                f"{where}.indices",
            )
        if any(i < 1 or i > width for i in idx):
            raise SpecError(
                f"indices must lie in 1..{width}", f"{where}.indices"
            )
        if list(idx) != sorted(set(idx)):
            raise SpecError(
                "indices must be strictly increasing", f"{where}.indices"
            )
        try:
            piece = from_records(table, degree, [rec], kind=kind)
        except ForgeError as exc:
            raise SpecError(str(exc), f"{where}.coeff") from exc
        total = total + piece
    return total


def _parse_coeff(table: VarTable, text: str, path: str):
    try:
        return parse_ratfun(text, table)
    except ForgeError as exc:
        raise SpecError(str(exc), path) from exc


def _build_family(table: VarTable, entries, seed: int, path: str):
    parsed = [
        (name, _parse_coeff(table, text, f"{path}[{pos}].expression"))
        for pos, (name, text) in enumerate(entries)
    ]
    try:
        return build_family(table, parsed, seed)
    except ForgeError as exc:
        raise SpecError(str(exc), path) from exc


def _build_partition(family, spec: SpecFile) -> list:
    partition = [CasimirPolynomial(chain) for chain in spec.partition]
    try:
        check_partition(family, partition)
    except SpecError as exc:
        raise SpecError(str(exc), f"{spec.path}.partition") from exc
    return partition


def build_table(spec: SpecFile, extra_constants=()) -> VarTable:
    entries = list(spec.variables)
    entries.extend((name, VarKind.CONSTANT) for name in extra_constants)
    return VarTable.build(entries)


def build_anchor(spec: SpecFile, table: VarTable):
    """The anchor structure over the given table.  A cosymplectic anchor
    carries its symplectization in ``lifted``, and the sigma forms are
    parsed over ``anchor.lifted.table`` for either parity."""
    data = spec.anchor
    at = f"{spec.path}.anchor"
    if data["type"] == "cosymplectic":
        vartheta = _records_form(table, 1, data["vartheta"],
                                 f"{at}.vartheta")
        theta = _records_form(table, 2, data["theta"], f"{at}.theta")
        return build_cosymplectic(vartheta, theta)
    if data["type"] == "canonical":
        records = [
            {"indices": list(pair), "coeff": "1"} for pair in data["pairs"]
        ]
        path = f"{at}.pairs"
    else:
        records = data["bivector"]
        path = f"{at}.bivector"
    lambda_bi = _records_form(table, 2, records, path, kind=MultiVector)
    return build_symplectic(lambda_bi)


def resolve_basis(block, table: VarTable, path: str) -> list:
    return [
        _records_form(table, 1, records, f"{path}.basis[{pos}]")
        for pos, records in enumerate(block["basis"])
    ]


def resolve_sigma(block, table: VarTable, path: str):
    """A 2-form from explicit components, a basis combination, or both;
    when both appear they must expand to the same form."""
    explicit = None
    if "components" in block:
        explicit = _records_form(
            table, 2, block["components"], f"{path}.components"
        )
    combined = None
    if "basis" in block:
        basis = resolve_basis(block, table, path)
        combined = Form.zero(table, 2)
        for pos, (a, b, text) in enumerate(block["coefficients"]):
            coeff = _parse_coeff(
                table, text, f"{path}.coefficients[{pos}]"
            )
            combined = combined + wedge(basis[a - 1], basis[b - 1]) * coeff
    if explicit is not None and combined is not None:
        if explicit != combined:
            raise SpecError(
                "explicit components disagree with the basis expansion",
                path,
            )
    return explicit if explicit is not None else combined


@dataclass
class Elaborated:
    """Everything a command needs, parsed and typed but not yet assembled."""

    spec: SpecFile
    table: VarTable
    anchor: object
    sigma_table: VarTable
    family: object
    partition: list
    sigma0: Form
    sigma1: Form  # None when sigma1 is given only as an ansatz


def elaborate(spec: SpecFile, seed: int = 0) -> Elaborated:
    table = build_table(spec)
    anchor = build_anchor(spec, table)
    stable = anchor.lifted.table
    family = _build_family(table, spec.family, seed, f"{spec.path}.family")
    partition = _build_partition(family, spec)
    sigma0 = resolve_sigma(spec.sigma0, stable, f"{spec.path}.sigma0")
    sigma1 = None
    if "components" in spec.sigma1 or "basis" in spec.sigma1:
        sigma1 = resolve_sigma(spec.sigma1, stable, f"{spec.path}.sigma1")
    return Elaborated(
        spec, table, anchor, stable, family, partition, sigma0, sigma1
    )


def assemble(spec: SpecFile, seed: int = 0) -> tuple:
    """Elaborate a spec and assemble its pencil; returns (elaborated,
    pencil).  A sigma1 given only as an ansatz is a spec error here."""
    parts = elaborate(spec, seed)
    if parts.sigma1 is None:
        raise SpecError(
            "no components and no basis given; only an ansatz",
            f"{spec.path}.sigma1",
        )
    pencil = assemble_pencil(
        parts.anchor, SigmaPair(parts.sigma0, parts.sigma1),
        parts.family, parts.partition, seed,
    )
    return parts, pencil


@dataclass
class AnsatzProblem:
    """The general (symbolic-constant) restatement of a spec's ansatz."""

    table: VarTable
    anchor: object
    family: object
    partition: list
    sigma0: Form
    basis: list
    specialize: dict


def elaborate_ansatz(spec: SpecFile, seed: int = 0) -> AnsatzProblem:
    at = f"{spec.path}.sigma1"
    block = spec.sigma1.get("ansatz")
    if block is None:
        # the command does not apply to this spec; like a --pair error,
        # the line names no spec file
        raise SpecError("sigma1 declares no ansatz", "sigma1")
    table = build_table(spec, block.get("constants", ()))
    anchor = build_anchor(spec, table)
    stable = anchor.lifted.table
    entries = [
        (item["name"], item["expression"])
        for item in block.get("family", ())
    ] or spec.family
    family = _build_family(table, entries, seed, f"{at}.ansatz.family")
    partition = _build_partition(family, spec)
    sigma0 = resolve_sigma(spec.sigma0, stable, f"{spec.path}.sigma0")
    basis = resolve_basis(block, stable, f"{at}.ansatz")
    return AnsatzProblem(
        table, anchor, family, partition, sigma0, basis,
        dict(block.get("specialize", {})),
    )


# --- commands -------------------------------------------------------------------


def _matrix_lines(label: str, rows) -> list:
    lines = [f"  {label}:"]
    for pos, row in enumerate(rows, start=1):
        entries = ", ".join(value.render() for value in row)
        lines.append(f"    row[{pos}] = ({entries})")
    return lines


def _header(title: str, spec: SpecFile, seed) -> list:
    lines = [f"{title}:", f"  spec = {spec.name}"]
    if seed is not None:
        lines.append(f"  seed = {seed}")
    return lines


def _cmd_check(spec: SpecFile, seed: int) -> tuple:
    elaborated = elaborate(spec, seed)
    has_ansatz = "ansatz" in spec.sigma1
    if has_ansatz:
        elaborate_ansatz(spec, seed)
    lines = _header("check", spec, None)
    lines.append(f"  variables = {len(elaborated.table.names)}")
    lines.append(f"  family = {', '.join(name for name, _ in spec.family)}")
    chains = "; ".join(
        "(" + ", ".join(chain) + ")" for chain in spec.partition
    )
    lines.append(f"  partition = {chains}")
    lines.append("  sigma0 = ok")
    lines.append(
        "  sigma1 = ok" if elaborated.sigma1 is not None
        else "  sigma1 = ansatz only"
    )
    lines.append(f"  ansatz = {'declared' if has_ansatz else 'none'}")
    lines.append("  schema = ok")
    return 0, "\n".join(lines)


def _cmd_pencil(spec: SpecFile, seed: int) -> tuple:
    _, pencil = assemble(spec, seed)
    lines = _header("pencil", spec, seed)
    lines.append(f"  r = {pencil.r}")
    lines.append(f"  k = {pencil.k}")
    lines.append(f"  F = {pencil.F_lambda.render()}")
    lines.append(f"  g = {pencil.g_lambda.render()}")
    lines.extend(_matrix_lines("Pi0", full_matrix(pencil.Pi0)))
    lines.extend(_matrix_lines("Pi1", full_matrix(pencil.Pi1)))
    lines.append(f"  sigma_lambda = {pencil.sigma_lambda.render()}")
    try:
        phi = closed_form_interior(pencil)
        lines.append(f"  phi = {phi.render()}")
    except RankTooSmall:
        lines.append("  phi = unavailable (r < 2)")
    return 0, "\n".join(lines)


def _cmd_bracket(spec: SpecFile, seed: int, pair) -> tuple:
    if not pair:
        raise SpecError("bracket needs --pair f,h", "pair")
    names = [name.strip() for name in pair.split(",")]
    if len(names) != 2 or not all(names):
        raise SpecError(
            f"--pair must name two family entries, got {pair!r}", "pair"
        )
    declared = dict(spec.family)
    for name in names:
        if name not in declared:
            raise SpecError(f"no family entry named {name!r}")
    _, pencil = assemble(spec, seed)
    f = pencil.family.entry(names[0])
    h = pencil.family.entry(names[1])
    closed = bracket_closed_form(pencil, f, h)
    contracted = poisson_bracket(pencil.pi_lambda(), f, h)
    agree = closed == contracted
    lines = _header("bracket", spec, seed)
    lines.append(f"  pair = ({names[0]}, {names[1]})")
    lines.append(f"  closed_form = {closed.render()}")
    lines.append(f"  contraction = {contracted.render()}")
    mark = "PASS" if agree else "FAIL"
    lines.append(f"  {mark}  closed-form[{names[0]},{names[1]}]")
    lines.append(f"  status = {mark}")
    return (0 if agree else 1), "\n".join(lines)


def _specialization(solution, mapping: dict, path: str) -> tuple:
    """The specialize block applied: (values_at, specialized sigma1).  A
    bad name or value is a spec error at its own path, a free unknown left
    unassigned one at the block."""
    values = {}
    for name, text in mapping.items():
        try:
            values.update(solution.substitution({name: text}))
        except ForgeError as exc:
            raise SpecError(str(exc), f"{path}.{name}") from exc
    try:
        return solution.values_at(values), solution.specialize(values)
    except SpecError as exc:
        raise SpecError(str(exc), path) from exc


def _cmd_solve_ansatz(spec: SpecFile, seed: int) -> tuple:
    problem = elaborate_ansatz(spec, seed)
    solution = solve_recursion_ansatz(
        problem.anchor, problem.sigma0, problem.basis,
        problem.family, problem.partition,
    )
    lines = _header("solve-ansatz", spec, seed)
    free = ", ".join(solution.free_names) if solution.free_names else "none"
    lines.append(f"  free = {free}")
    lines.append("  solution:")
    for line in solution.render().splitlines():
        lines.append(f"    {line}")
    if problem.specialize:
        values, special = _specialization(
            solution, problem.specialize,
            f"{spec.path}.sigma1.ansatz.specialize",
        )
        assignment = ", ".join(
            f"{name} = {text}" for name, text in
            sorted(problem.specialize.items())
        )
        lines.append(f"  specialized at {assignment}:")
        for name, value in values.items():
            lines.append(f"    {name} = {value.render()}")
        lines.append(f"  sigma1[specialized] = {special.render()}")
    return 0, "\n".join(lines)


def _cmd_report(spec: SpecFile, seed: int, fmt: str) -> tuple:
    _, pencil = assemble(spec, seed)
    certificate = certify(pencil, seed)
    lines = _header("report", spec, seed)
    if spec.checks:
        lines.append(f"  checks = {', '.join(spec.checks)}")
        prefixes = tuple(CHECK_GROUPS[group] for group in spec.checks)
        certificate = replace(certificate, verdicts=[
            v for v in certificate.verdicts if v.label.startswith(prefixes)
        ])
    status = "PASS" if certificate.passed else "FAIL"
    if fmt == "summary":
        for v in certificate.verdicts:
            lines.append(f"  {'PASS' if v.passed else 'FAIL'}  {v.label}")
        lines.append(f"  status = {status}")
    else:
        lines.append(certificate.render())
    return (0 if certificate.passed else 1), "\n".join(lines)


def run(command: str, spec_path: str, seed: int = 0,
        format: str = "full", pair=None) -> tuple:
    """Execute one command against a spec file; returns (exit code, text).

    The split between exit codes 2 and 1 follows the phase: everything up
    to and including elaboration is input validation (2), everything after
    is computation whose failure is a verdict (1)."""
    if command not in COMMANDS:
        return 2, f"error: unknown command {command!r}"
    if format not in ("full", "summary"):
        return 2, f"error: unknown format {format!r}"
    try:
        payload = load_payload(spec_path)
        spec = parse_spec(payload, path=spec_path)
    except SpecError as exc:
        return 2, f"error: {exc}"
    try:
        if command == "check":
            return _cmd_check(spec, seed)
        if command == "pencil":
            return _cmd_pencil(spec, seed)
        if command == "bracket":
            return _cmd_bracket(spec, seed, pair)
        if command == "solve-ansatz":
            return _cmd_solve_ansatz(spec, seed)
        return _cmd_report(spec, seed, format)
    except SpecError as exc:
        return 2, f"error: {exc}"
    except ForgeError as exc:
        return 1, f"error: {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
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
    code, text = run(args.command, args.spec, seed=args.seed,
                     format=args.fmt, pair=args.pair)
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
