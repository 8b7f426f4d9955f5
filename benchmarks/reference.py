"""The reference program: a fixed amount of pure-Python exact arithmetic.

run.py runs this script as a fresh process in the gaps between timed ops
and divides each op's wall time by the mean run time of the script in the
gaps around it.  The host this benchmark runs on changes speed by tens of
percent from one minute to the next, and an op and the reference runs next
to it slow down together, so the ratio stays steady where raw seconds do
not.

The work resembles the engine's kernel (sparse polynomials as dicts from
exponent tuples to Fractions, multiplied and truncated) but imports nothing
from it, so no change to the engine changes the unit.  Changing this file
changes the unit ``ref`` of every end-to-end timing: do not.

    python3 benchmarks/reference.py
"""

from fractions import Fraction
from random import Random

VARIABLES = 5
TERMS = 12
STEPS = 60
KEEP = 40


def _polynomial(rng: Random) -> dict:
    return {
        tuple(rng.randint(0, 3) for _ in range(VARIABLES)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(TERMS)
    }


def _multiply(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {key: value for key, value in out.items() if value}


def main() -> int:
    rng = Random(7)
    product = _polynomial(rng)
    for _ in range(STEPS):
        product = _multiply(product, _polynomial(rng))
        if len(product) > 300:
            product = dict(sorted(product.items())[:KEEP])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
