"""Generate the two committed benchmark specs from the bundled fixtures.

    reject_sigma.json    Lagrange top with sigma1 set to the recursion
                         ansatz specialised at l3=1, m3=2, k34=0.  The
                         recursion relations hold, the quadratic sigma
                         condition does not, so ``report`` exits 1.
    certify_scaled.json  Toda (first selection) pulled back through the
                         unipotent shear x_i -> x_i + x_{i+1} on a1..b3.
                         Anchor, family and both sigmas are pulled back;
                         lambda and the lifted coordinate s are left alone.

Only the public API is used.  The committed files are the workload: later
engine changes must not alter them, so ``--check`` regenerates both in
memory and compares them byte for byte with the committed copies.

    PYTHONPATH=src python3 benchmarks/make_specs.py          # write
    PYTHONPATH=src python3 benchmarks/make_specs.py --check  # compare
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from involution_forge import (
    Form,
    differential,
    from_records,
    load_fixture,
    parse_ratfun,
    solve_recursion_ansatz,
    wedge,
)
from involution_forge.cli import build_table, elaborate, elaborate_ansatz

SPEC_DIR = Path(__file__).resolve().parent / "specs"

REJECT_SPECIALIZE = {"l3": "1", "m3": "2", "k34": "0"}

SHEAR_CHAIN = ("a1", "a2", "b1", "b2", "b3")


def _emit(payload: dict) -> str:
    return json.dumps(payload, indent=1) + "\n"


def _base_payload(fixture, name: str) -> dict:
    payload = {key: value for key, value in fixture.payload.items()
               if key != "expected"}
    payload["name"] = name
    return payload


def reject_sigma() -> str:
    fixture = load_fixture("lagrange_top")
    problem = elaborate_ansatz(fixture.spec, seed=0)
    solution = solve_recursion_ansatz(
        problem.anchor, problem.sigma0, problem.basis,
        problem.family, problem.partition,
    )
    special = solution.specialize(REJECT_SPECIALIZE)
    payload = _base_payload(fixture, "lagrange_top_k34_zero")
    payload["sigma1"] = {"components": special.to_records()}
    return _emit(payload)


def _shear(table) -> dict:
    """x_i -> x_i + x_{i+1} along SHEAR_CHAIN; the last entry is fixed."""
    return {
        name: parse_ratfun(f"{name} + {nxt}", table)
        for name, nxt in zip(SHEAR_CHAIN, SHEAR_CHAIN[1:])
    }


def pullback(form: Form) -> Form:
    """phi^*(sum c_I dx_I) = sum (c_I o phi) dphi_{i1} ^ ... ^ dphi_{ip}."""
    table = form.table
    shear = _shear(table)
    images = {}
    for i in table.geometric_indices:
        name = table.names[i]
        image = shear.get(name, parse_ratfun(name, table))
        images[i] = differential(image)
    total = Form.zero(table, form.degree)
    for idx, coeff in form.comps.items():
        term = Form.scalar(table, coeff.substitute(shear))
        for i in idx:
            term = wedge(term, images[i])
        total = total + term
    return total


def certify_scaled() -> str:
    fixture = load_fixture("toda_first")
    parts = elaborate(fixture.spec, seed=0)
    table = build_table(fixture.spec)
    shear = _shear(table)
    payload = _base_payload(fixture, "toda_first_sheared")
    anchor = fixture.payload["anchor"]
    payload["anchor"] = {
        "type": "cosymplectic",
        "vartheta": pullback(
            from_records(table, 1, anchor["vartheta"])).to_records(),
        "theta": pullback(
            from_records(table, 2, anchor["theta"])).to_records(),
    }
    payload["family"] = [
        {"name": name,
         "expression": parse_ratfun(text, table).substitute(shear).render()}
        for name, text in fixture.spec.family
    ]
    payload["sigma0"] = {"components": pullback(parts.sigma0).to_records()}
    payload["sigma1"] = {"components": pullback(parts.sigma1).to_records()}
    return _emit(payload)


GENERATORS = {
    "reject_sigma.json": reject_sigma,
    "certify_scaled.json": certify_scaled,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files, write none")
    args = parser.parse_args(argv)
    stale = []
    for filename, generate in GENERATORS.items():
        path = SPEC_DIR / filename
        text = generate()
        if args.check:
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                stale.append(filename)
        else:
            SPEC_DIR.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
    if stale:
        print(f"regenerated specs differ: {', '.join(stale)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
