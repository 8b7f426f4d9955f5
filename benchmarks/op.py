"""One benchmark op: a fresh interpreter that calls involution_forge.cli.main.

    python3 benchmarks/op.py [--trace-out FILE] <involution-forge arguments>

Without ``--trace-out`` this is exactly a CLI invocation.  With it, the
public layer functions are wrapped from outside after import: a span is kept
in memory for every call, the arithmetic kernel is counted, and everything
is written to FILE once, when the op ends.  Nothing under ``src/`` changes
and stdout stays byte-identical, so the correctness gate still applies.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Public functions that get a span, by module.  A name is replaced in every
# module namespace that holds the same function object, so calls through
# ``from .x import f`` (e.g. ``pencil.codifferential``, ``cli.assemble_pencil``)
# are seen too.
LAYERS = {
    "cli": ("run", "load_payload", "parse_spec", "elaborate",
            "elaborate_ansatz", "build_anchor"),
    "pencil": ("assemble_pencil", "sigma_pair_invariants",
               "check_sigma_conditions", "check_recursion",
               "compute_F_lambda", "solve_recursion_ansatz"),
    "anchor": ("codifferential",),
    "verify": ("certify", "jacobi_check", "compatibility_check",
               "casimir_check", "involution_table", "lenard_magri_check",
               "rank_at_sample"),
    "exterior": ("schouten",),
    "linalg": ("solve_linear", "det"),
}

PACKAGE = "involution_forge"


class Tracer:
    """Spans as [name, parent index, start, end], plus kernel counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.rf_constructions = 0
        self.gcd_calls = 0
        self.gcd_useful = 0
        self.gcd_depth = 0
        self.gcd_seconds = 0.0
        self.max_terms = 0

    def span(self, name, func):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()

        return wrapper

    def poly_gcd(self, func):
        def wrapper(a, b):
            self.gcd_calls += 1
            outermost = self.gcd_depth == 0
            self.gcd_depth += 1
            start = perf_counter()
            try:
                result = func(a, b)
            finally:
                self.gcd_depth -= 1
                if outermost:
                    self.gcd_seconds += perf_counter() - start
            if not result.is_constant():
                self.gcd_useful += 1
            return result

        return wrapper

    def rf_init(self, func):
        def wrapper(rf, num, den):
            func(rf, num, den)
            self.rf_constructions += 1
            terms = max(len(rf.num.terms), len(rf.den.terms))
            if terms > self.max_terms:
                self.max_terms = terms

        return wrapper

    def install(self):
        modules = [module for name, module in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        symexpr = sys.modules[PACKAGE + ".symexpr"]
        targets = [(symexpr.poly_gcd, self.poly_gcd(symexpr.poly_gcd))]
        for short, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                func = getattr(module, name)
                targets.append((func, self.span(f"{short}.{name}", func)))
        for func, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)
        rf = symexpr.RationalFunction
        rf.__init__ = self.rf_init(rf.__init__)

    def dump(self, path, import_s):
        record = {
            "import_s": import_s,
            "spans": self.spans,
            "counters": {
                "rf_constructions": self.rf_constructions,
                "poly_gcd_calls": self.gcd_calls,
                "poly_gcd_useful": self.gcd_useful,
                "poly_gcd_s": self.gcd_seconds,
                "max_terms": self.max_terms,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    start = perf_counter()
    from involution_forge import cli

    import_s = perf_counter() - start
    if trace_out is None:
        return cli.main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_out, import_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
