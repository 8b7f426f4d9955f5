"""Spec-file driven command line for building and certifying pencils.

A spec file is one JSON object naming the variables, the anchor structure,
the prescribed family with its partition, and the two 2-forms (directly by
components, through an annihilator basis with combination coefficients, or
as an ansatz whose coefficients are to be solved for).  Every command
checks the file with ``parse_spec`` before any computation starts, and all
output is deterministic byte-for-byte for a fixed spec file and seed.

Exit codes: 0 when every requested verdict passes, 1 when a computation or
verdict fails, 2 when the spec file itself is rejected (the message carries
the JSON path).

``parse_spec`` checks a spec's shape and semantic rules in one walk.
Elaboration has one body and one result type, ``Elaborated``:
``elaborate`` fills ``sigma1``, and ``elaborate_ansatz`` restates the
ansatz with its constants in ``basis`` and ``specialize``; both read
``table`` and ``sigma_table`` off the anchor.  Every command that needs a
pencil goes through ``assemble``.

``main`` reads the usage line's form, the command and the spec and then
``--seed``, ``--format`` and ``--pair`` by their full names, by hand
(``_read_argv``).  Any other argv (a prefix of an option, a negative
value, ``--``, options before a positional, help, a usage error) goes to
``argparse``, which ``_parse_argv`` imports only then.  Both readers give
the same values.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys

from .anchor import (
    APPENDED_NAME,
    build_cosymplectic,
    build_symplectic,
    full_matrix,
    poisson_bracket,
)
from .errors import ForgeError, PoleAtPoint, RankTooSmall, SpecError
from .exterior import (
    Form,
    MultiVector,
    exterior_derivative,
    from_records,
    record_indices,
    wedge,
)
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
from .symexpr import _IDENT_RE, Record, VarKind, VarTable, parse_ratfun
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

# the keys of each anchor type besides "type"
_ANCHOR_FIELDS = {
    "canonical": ("pairs",),
    "symplectic": ("bivector",),
    "cosymplectic": ("vartheta", "theta"),
}

# --- parsing -------------------------------------------------------------------


class SpecFile(Record):
    """A validated spec payload; ``path`` names the document, and every
    error about its content is reported at ``<path>.<JSON path>``."""

    __slots__ = _fields = ("path", "name", "variables", "anchor", "family",
                           "partition", "sigma0", "sigma1", "checks",
                           "expected")


# The walkers below check one node of the payload each, raise SpecError at
# its JSON path, and build fresh containers, so that a SpecFile shares
# nothing with the payload it came from.


def _object(value, where: str, required=(), optional=None) -> dict:
    """An object with the required keys; with ``optional`` given, no keys
    beyond the two lists."""
    if not isinstance(value, dict):
        raise SpecError("expected an object", where)
    for key in required:
        if key not in value:
            raise SpecError(f"{key!r} is a required property", where)
    if optional is not None:
        for key in value:
            if key not in required and key not in optional:
                raise SpecError(f"unexpected property {key!r}", where)
    return value


def _items(value, where: str, walk, least: int = 0,
           exact: bool = False) -> list:
    """At least (with ``exact``, exactly) ``least`` items, each walked."""
    if not isinstance(value, list):
        raise SpecError("expected an array", where)
    if len(value) < least or (exact and len(value) > least):
        bound = least if exact else f"at least {least}"
        noun = "item" if least == 1 else "items"
        raise SpecError(f"expected {bound} {noun}, got {len(value)}", where)
    return [walk(item, f"{where}[{pos}]") for pos, item in enumerate(value)]


def _text(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError("expected a non-empty string", where)
    return value


def _ident(value, where: str) -> str:
    if not _IDENT_RE.fullmatch(_text(value, where)):
        raise SpecError(f"{value!r} is not an identifier", where)
    return value


def _index(value, where: str) -> int:
    # JSON has one number type: 1.0 and true must not pass for the index 1
    if type(value) is not int or value < 1:
        raise SpecError("expected a positive integer", where)
    return value


def _choice(value, where: str, options) -> str:
    if not isinstance(value, str) or value not in options:
        raise SpecError(f"expected one of {', '.join(options)}", where)
    return value


def _variable(value, where: str) -> tuple:
    if isinstance(value, str):
        return _ident(value, where), VarKind.MANIFOLD
    if not isinstance(value, dict):
        raise SpecError("expected a name or an object", where)
    _object(value, where, ("name", "kind"), ())
    return (
        _ident(value["name"], f"{where}.name"),
        VarKind(_choice(value["kind"], f"{where}.kind",
                        ("manifold", "constant", "pencil_parameter"))),
    )


def _record(value, where: str) -> dict:
    _object(value, where, ("indices", "coeff"), ())
    return {
        "indices": _items(value["indices"], f"{where}.indices", _index, 1),
        "coeff": _text(value["coeff"], f"{where}.coeff"),
    }


def _records(value, where: str) -> list:
    return _items(value, where, _record, 1)


def _basis(value, where: str) -> list:
    return _items(value, where, _records, 2)


def _tuple(value, where: str, *walks) -> list:
    """An array of exactly one item per walker, each walked by its own."""
    _items(value, where, lambda item, at: item, len(walks), exact=True)
    return [walk(item, f"{where}[{pos}]")
            for pos, (walk, item) in enumerate(zip(walks, value))]


def _family(value, where: str) -> list:
    """(name, expression) pairs, each name once."""
    family = _items(value, where, _family_entry, 1)
    names = [name for name, _ in family]
    for pos, name in enumerate(names):
        if name in names[:pos]:
            raise SpecError(f"family name {name!r} repeated",
                            f"{where}[{pos}]")
    return family


def _family_entry(value, where: str) -> tuple:
    _object(value, where, ("name", "expression"), ())
    return (_ident(value["name"], f"{where}.name"),
            _text(value["expression"], f"{where}.expression"))


def _anchor(value, where: str) -> dict:
    kind = _choice(_object(value, where, ("type",))["type"],
                   f"{where}.type", _ANCHOR_FIELDS)
    fields = _ANCHOR_FIELDS[kind]
    _object(value, where, ("type", *fields), ())
    walk = (_record if kind != "canonical"
            else lambda pair, at: _tuple(pair, at, _index, _index))
    return {"type": kind, **{
        field: _items(value[field], f"{where}.{field}", walk, 1)
        for field in fields
    }}


def _ansatz(value, where: str) -> dict:
    _object(value, where, ("basis",), ("constants", "family", "specialize"))
    block = {"basis": _basis(value["basis"], f"{where}.basis")}
    if "constants" in value:
        block["constants"] = _items(
            value["constants"], f"{where}.constants", _ident
        )
    if "family" in value:
        block["family"] = _family(value["family"], f"{where}.family")
    if "specialize" in value:
        at = f"{where}.specialize"
        block["specialize"] = {
            _ident(name, f"{at}.{name}"): _text(text, f"{at}.{name}")
            for name, text in _object(value["specialize"], at).items()
        }
    return block


def _sigma(value, where: str, forms: tuple) -> dict:
    """A sigma block: explicit components, a basis with its coefficients,
    or (``forms`` permitting) an ansatz."""
    _object(value, where, (), (*forms, "coefficients"))
    if not any(key in value for key in forms):
        raise SpecError(
            f"one of {', '.join(map(repr, forms))} is required", where
        )
    for key, other in (("basis", "coefficients"), ("coefficients", "basis")):
        if key in value and other not in value:
            raise SpecError(f"{other!r} is required alongside {key!r}", where)
    walks = {"components": _records, "basis": _basis, "ansatz": _ansatz}
    block = {key: walks[key](value[key], f"{where}.{key}")
             for key in forms if key in value}
    if "basis" in block:
        width = len(block["basis"])
        block["coefficients"] = _items(
            value["coefficients"], f"{where}.coefficients",
            lambda item, at: _coefficient(item, at, width), 1,
        )
    return block


def _coefficient(value, where: str, width: int) -> list:
    a, b, text = _tuple(value, where, _index, _index, _text)
    if not a < b <= width:
        raise SpecError(
            f"basis pair ({a}, {b}) out of range for {width} covectors", where
        )
    return [a, b, text]


def parse_spec(payload, path: str = "spec") -> SpecFile:
    """Check a payload in one walk, its shape and the rules that tie its
    parts together, and return it typed; raises SpecError pointing into
    the document."""
    _object(payload, path, (
        "name", "variables", "anchor", "family", "partition",
        "sigma0", "sigma1",
    ), ("checks", "expected"))
    spec = SpecFile(
        path=path,
        name=_ident(payload["name"], f"{path}.name"),
        variables=_items(
            payload["variables"], f"{path}.variables", _variable, 1
        ),
        anchor=_anchor(payload["anchor"], f"{path}.anchor"),
        family=_family(payload["family"], f"{path}.family"),
        partition=_items(
            payload["partition"], f"{path}.partition",
            lambda chain, at: _items(chain, at, _ident, 1), 1,
        ),
        sigma0=_sigma(payload["sigma0"], f"{path}.sigma0",
                      ("components", "basis")),
        sigma1=_sigma(payload["sigma1"], f"{path}.sigma1",
                      ("components", "basis", "ansatz")),
        checks=tuple(_items(
            payload.get("checks", []), f"{path}.checks",
            lambda group, at: _choice(group, at, CHECK_GROUPS),
        )),
        expected=json.loads(json.dumps(
            _object(payload.get("expected", {}), f"{path}.expected")
        )),
    )

    ansatz = spec.sigma1.get("ansatz", {})
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
    if spec.anchor["type"] == "cosymplectic":
        taken[APPENDED_NAME] = (
            "is reserved for the appended coordinate of a cosymplectic anchor"
        )
    named = [
        ("variable", f"variables[{pos}]", name)
        for pos, (name, _) in enumerate(spec.variables)
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
        name for name, kind in spec.variables if kind is VarKind.CONSTANT
    ))
    for name in ansatz.get("specialize", {}):
        if name not in settable:
            raise SpecError(
                f"{name!r} is neither a free unknown nor a constant",
                f"{path}.sigma1.ansatz.specialize.{name}",
            )

    kinds = [kind for _, kind in spec.variables]
    if kinds.count(VarKind.PENCIL) != 1:
        raise SpecError(
            "exactly one pencil parameter is required", f"{path}.variables"
        )
    if VarKind.MANIFOLD not in kinds:
        raise SpecError(
            "at least one manifold variable is required",
            f"{path}.variables",
        )
    return spec


def load_payload(spec_path: str) -> dict:
    try:
        with open(spec_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}", spec_path) from exc
    except ValueError as exc:
        # a JSONDecodeError, bad UTF-8, or an integer longer than
        # int-from-str conversion allows
        raise SpecError(f"invalid JSON: {exc}", spec_path) from exc
    except RecursionError as exc:
        raise SpecError("JSON nested too deeply", spec_path) from exc


# --- elaboration ----------------------------------------------------------------


def _records_form(table: VarTable, degree: int, records, path: str,
                  kind=Form, indices_at=".indices"):
    """The form (or multivector) of some records, each record's index
    error reported at ``<path>[pos]`` followed by ``indices_at``."""
    parsed = []
    for pos, rec in enumerate(records):
        where = f"{path}[{pos}]"
        try:
            record_indices(table, degree, rec["indices"])
        except ForgeError as exc:
            raise SpecError(str(exc), f"{where}{indices_at}") from exc
        parsed.append({
            "indices": rec["indices"],
            "coeff": _parse_coeff(table, rec["coeff"], f"{where}.coeff"),
        })
    return from_records(table, degree, parsed, kind=kind)


def _parse_coeff(table: VarTable, text: str, path: str):
    try:
        value = parse_ratfun(text, table)
        table.require_pencil_free([value], "expression")
    except ForgeError as exc:
        raise SpecError(str(exc), path) from exc
    return value


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
        _require_closed(vartheta, "vartheta", f"{at}.vartheta")
        _require_closed(theta, "Theta", f"{at}.theta")
        return build_cosymplectic(vartheta, theta)
    if data["type"] == "canonical":
        # a pair is its own indices node
        records = [{"indices": pair, "coeff": "1"} for pair in data["pairs"]]
        path, indices_at = f"{at}.pairs", ""
    else:
        records = data["bivector"]
        path, indices_at = f"{at}.bivector", ".indices"
    lambda_bi = _records_form(table, 2, records, path, kind=MultiVector,
                              indices_at=indices_at)
    anchor = build_symplectic(lambda_bi)
    _require_closed(anchor.omega, "omega", path)
    return anchor


def _require_closed(form: Form, name: str, path: str):
    """The sigma brackets need a Poisson anchor, that is, a closed one."""
    d = exterior_derivative(form)
    if not d.is_zero():
        raise SpecError(f"the anchor form is not closed: d {name} = "
                        f"{d.render()}, not 0", path)


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


class Elaborated(Record):
    """Everything a command needs, parsed and typed but not yet assembled.
    ``elaborate`` fills ``sigma1`` unless sigma1 is given only as an
    ansatz; ``elaborate_ansatz`` restates the ansatz with symbolic
    constants in ``basis`` and ``specialize``."""

    __slots__ = _fields = ("spec", "anchor", "family", "partition", "sigma0",
                           "sigma1", "basis", "specialize")

    @property
    def table(self) -> VarTable:
        return self.anchor.table

    @property
    def sigma_table(self) -> VarTable:
        """The table the sigma forms live on: the lifted one when odd."""
        return self.anchor.lifted.table


def _elaborate(spec: SpecFile, seed: int, constants, family,
               path: str) -> Elaborated:
    """Table (with the extra constants), anchor, family (its entries
    reported at ``path``), partition and sigma0, in that order."""
    table = build_table(spec, constants)
    anchor = build_anchor(spec, table)
    family = _build_family(table, family, seed, path)
    partition = _build_partition(family, spec)
    sigma0 = resolve_sigma(spec.sigma0, anchor.lifted.table,
                           f"{spec.path}.sigma0")
    return Elaborated(spec, anchor, family, partition, sigma0, None, None, {})


def elaborate(spec: SpecFile, seed: int = 0) -> Elaborated:
    parts = _elaborate(spec, seed, (), spec.family, f"{spec.path}.family")
    if "components" in spec.sigma1 or "basis" in spec.sigma1:
        parts.sigma1 = resolve_sigma(spec.sigma1, parts.sigma_table,
                                     f"{spec.path}.sigma1")
    return parts


def elaborate_ansatz(spec: SpecFile, seed: int = 0) -> Elaborated:
    """The general (symbolic-constant) restatement of a spec's ansatz."""
    block = spec.sigma1.get("ansatz")
    if block is None:
        # the command does not apply to this spec; like a --pair error,
        # the line names no spec file
        raise SpecError("sigma1 declares no ansatz", "sigma1")
    at = f"{spec.path}.sigma1.ansatz"
    parts = _elaborate(spec, seed, block.get("constants", ()),
                       block.get("family", spec.family), f"{at}.family")
    parts.basis = resolve_basis(block, parts.sigma_table, at)
    parts.specialize = dict(block.get("specialize", {}))
    return parts


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
    # Elaborated twice on purpose: plainly, as pencil and report do, which
    # refuses an ansatz constant used outside the ansatz block, and with
    # the ansatz constants, as solve-ansatz does
    elaborated = elaborate(spec, seed)
    has_ansatz = "ansatz" in spec.sigma1
    if has_ansatz:
        problem = elaborate_ansatz(spec, seed)
        # only the solver knows which unknowns a specialize block may set
        if problem.specialize:
            _solve_ansatz(spec, problem)
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


def _solve_ansatz(spec: SpecFile, problem: Elaborated) -> tuple:
    """The ansatz solved and its specialize block applied: (solution,
    values_at, specialized sigma1), the last two None without a block.  A
    bad name or value is a spec error at its own path; a free unknown left
    unassigned, or values that put a pole in the solution, one at the
    block."""
    solution = solve_recursion_ansatz(
        problem.anchor, problem.sigma0, problem.basis,
        problem.family, problem.partition,
    )
    if not problem.specialize:
        return solution, None, None
    path = f"{spec.path}.sigma1.ansatz.specialize"
    values = {}
    for name, text in problem.specialize.items():
        try:
            values.update(solution.substitution({name: text}))
        except ForgeError as exc:
            raise SpecError(str(exc), f"{path}.{name}") from exc
    try:
        return (solution, solution.values_at(values),
                solution.specialize(values))
    except (SpecError, PoleAtPoint) as exc:
        raise SpecError(str(exc), path) from exc


def _cmd_solve_ansatz(spec: SpecFile, seed: int) -> tuple:
    problem = elaborate_ansatz(spec, seed)
    solution, values, special = _solve_ansatz(spec, problem)
    lines = _header("solve-ansatz", spec, seed)
    free = ", ".join(solution.free_names) if solution.free_names else "none"
    lines.append(f"  free = {free}")
    lines.append("  solution:")
    for line in solution.render().splitlines():
        lines.append(f"    {line}")
    if problem.specialize:
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
        certificate.verdicts = [v for v in certificate.verdicts
                                if v.label.startswith(prefixes)]
    if fmt == "summary":
        for v in certificate.verdicts:
            lines.append(f"  {'PASS' if v.passed else 'FAIL'}  {v.label}")
        lines.append(f"  status = {'PASS' if certificate.passed else 'FAIL'}")
    else:
        lines.append(certificate.render())
    return (0 if certificate.passed else 1), "\n".join(lines)


def run(command: str, spec_path: str, seed: int = 0,
        format: str = "full", pair=None) -> tuple:
    """Execute one command against a spec file; returns (exit code, text).

    The split between exit codes 2 and 1 follows the phase: everything up
    to and including elaboration is input validation (2), everything after
    is computation whose failure is a verdict (1).  Unlike ``main`` it
    leaves the heap alone at exit: a program that calls it owns its
    process, and objects frozen then, such as cycles whose finalizers it
    relies on, would never be collected."""
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


def _read_argv(argv) -> tuple:
    """(command, spec, seed, format, pair) of the usage line's form: the
    command and the spec, then ``--seed``, ``--format`` and ``--pair`` by
    their full names, each as ``--opt value`` or ``--opt=value``.  Every
    other argv goes to argparse, which gives the help and the usage errors."""
    values = {"--seed": 0, "--format": "full", "--pair": None}
    words = iter(argv[2:])
    for word in words:
        name, eq, value = word.partition("=")
        if not eq:  # a value that starts with "-", or none, is argparse's
            value = next(words, "-")
        if name not in values or value[:1] == "-" and not eq:
            break
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                break
        elif name == "--format" and value not in ("full", "summary"):
            break
        values[name] = value
    else:
        if len(argv) > 1 and argv[0] in COMMANDS and argv[1][:1] != "-":
            return (*argv[:2], *values.values())
    return _parse_argv(argv)


def _parse_argv(argv) -> tuple:
    """_read_argv's result by argparse, imported only here: it and gettext
    cost a cold process about 3.4 ms."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="involution-forge",
        description="build and certify Poisson pencils from a spec file",
        # the help and usage text wrap alike on every terminal
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("spec", help="path to a JSON spec file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every sampled point (default 0)")
    parser.add_argument("--format", choices=("full", "summary"),
                        default="full", help="report verbosity")
    parser.add_argument("--pair", default=None,
                        help="two family names f,h for the bracket command")
    args = parser.parse_args(argv)
    # argparse leaves an empty list for the spec of "check -- --"
    return (args.command, args.spec if args.spec != [] else "--", args.seed,
            args.format, args.pair)


def main(argv=None) -> int:
    # The process ends soon after main returns, with stdout flushed.
    # Freezing the heap at exit moves every tracked object into the
    # permanent generation, which the interpreter's final collections
    # skip, so the OS reclaims the heap instead of the collector freeing
    # it one object at a time.  atexit keeps every registration, so a
    # later call of main replaces the hook of an earlier one
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    command, spec, seed, fmt, pair = _read_argv(
        sys.argv[1:] if argv is None else argv)
    code, text = run(command, spec, seed=seed, format=fmt, pair=pair)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the flush at
        # shutdown writes nowhere instead of printing a second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
