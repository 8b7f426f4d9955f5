"""Bundled worked examples: loading, parsing, assembly."""

import json

import pytest

from involution_forge import (
    FIXTURE_NAMES,
    SpecError,
    UnknownFixture,
    load_fixture,
)
from involution_forge.cli import assemble, parse_spec, resolve_sigma
from involution_forge.fixtures import fixture_file


def test_fixture_inventory():
    assert FIXTURE_NAMES == ("lagrange_top", "toda_first", "toda_second")


def test_unknown_fixture_is_reported():
    with pytest.raises(UnknownFixture, match="no bundled fixture"):
        load_fixture("nope")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_parses_through_the_spec_schema(name):
    fixture = load_fixture(name)
    reparsed = parse_spec(fixture.payload)
    assert reparsed.name == name
    assert reparsed.expected
    raw = json.loads(fixture_file(name).read_text())
    assert raw == fixture.payload


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_assembles(name):
    fixture = load_fixture(name)
    elab, pencil = assemble(fixture.spec)
    assert pencil.r == 2
    assert not pencil.F_lambda.is_zero()
    assert elab.sigma0.degree == 2
    assert elab.sigma1.degree == 2


def test_sigma_basis_expansion_matches_components():
    # the Lagrange sigma1 is stored twice over: explicit components and a
    # basis expansion; the loader insists they agree
    fixture = load_fixture("lagrange_top")
    block = fixture.payload["sigma1"]
    assert "components" in block and "basis" in block
    elab, _ = assemble(fixture.spec)
    table = elab.sigma_table

    spec = fixture.spec
    resolved = resolve_sigma(spec.sigma1, table, "sigma1")
    assert resolved == elab.sigma1


def test_sigma_disagreement_is_rejected():
    fixture = load_fixture("lagrange_top")
    payload = json.loads(json.dumps(fixture.payload))
    payload["sigma1"]["components"][0]["coeff"] = "7"
    spec = parse_spec(payload)
    from involution_forge.cli import elaborate

    with pytest.raises(SpecError, match="disagree"):
        elaborate(spec, seed=0)
