"""Bundled worked pencils with their frozen expected artifacts.

Each fixture file is an ordinary spec file (consumable by the command
line as-is) whose ``expected`` block freezes the hand-checked artifacts:
bivector matrices, the pencil determinant and prefactor, the closed-form
interior, Hamiltonian fields, ansatz solutions, ranks.  Tests compare the
engine's output against these frozen values entry for entry.  There is
no assembly helper: ``cli.assemble(fixture.spec, seed)`` assembles a
fixture like any spec.
"""

from __future__ import annotations

import json

from .cli import parse_spec
from .errors import UnknownFixture
from .symexpr import Record

FIXTURE_NAMES = ("lagrange_top", "toda_first", "toda_second")


class FixtureSpec(Record):
    """One bundled fixture: the raw payload, its parsed spec, and the
    frozen expected artifacts."""

    __slots__ = _fields = ("name", "payload", "spec", "expected")


def fixture_file(name: str):
    """Path-like handle on the bundled spec file (usable as a CLI path)."""
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(
            f"no bundled fixture named {name!r}; available: "
            f"{', '.join(FIXTURE_NAMES)}"
        )
    # Imported here, not at module level: importlib.resources pulls in
    # pathlib, tempfile and shutil, and no CLI command loads a fixture.
    from importlib import resources

    return resources.files("involution_forge").joinpath(
        "data", f"{name}.json"
    )


def load_fixture(name: str) -> FixtureSpec:
    """Parse a bundled fixture through the spec-file parser."""
    text = fixture_file(name).read_text(encoding="utf-8")
    payload = json.loads(text)
    spec = parse_spec(payload, path=name)
    return FixtureSpec(name, payload, spec, spec.expected)
