"""The benchmark reaches into the package by name; pin those names.

``benchmarks/op.py`` wraps the functions its ``LAYERS`` table lists, and
``benchmarks/make_specs.py`` regenerates the committed benchmark specs
through the public API.  A rename in the package would otherwise surface
only at the next benchmark run.  Both files are only read."""

import importlib

from helpers import load_benchmark


def test_every_traced_layer_is_a_callable():
    op = load_benchmark("op")
    missing = []
    for short, names in op.LAYERS.items():
        module = importlib.import_module(f"{op.PACKAGE}.{short}")
        missing.extend(f"{short}.{name}" for name in names
                       if not callable(getattr(module, name, None)))
    assert missing == []


def test_committed_benchmark_specs_regenerate():
    assert load_benchmark("make_specs").main(["--check"]) == 0


def test_traced_kernel_hooks_see_a_reducing_gcd(monkeypatch):
    # op.py counts gcds by replacing symexpr.poly_gcd and wraps
    # RationalFunction.__init__; a kernel rename would zero both counters
    op = load_benchmark("op")
    symexpr = importlib.import_module(f"{op.PACKAGE}.symexpr")
    tracer = op.Tracer()
    monkeypatch.setattr(symexpr, "poly_gcd", tracer.poly_gcd(symexpr.poly_gcd))
    rf = symexpr.RationalFunction
    monkeypatch.setattr(rf, "__init__", tracer.rf_init(rf.__init__))
    table = symexpr.VarTable.build(["x1", "x2"])
    value = symexpr.parse_ratfun("(x1^2 - x2^2)/(x1 - x2)", table)
    assert value.render() == "x1 + x2"
    assert tracer.gcd_calls >= 1 and tracer.gcd_useful >= 1
    assert tracer.rf_constructions >= 1
