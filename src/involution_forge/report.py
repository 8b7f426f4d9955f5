"""Verdicts with symbolic witnesses, shared by the pencil checks and the
certificate layer.  A verdict is never a bare boolean: failures carry the
residual object that refutes the claim.  ``vanishes`` is the one rule for
an identity that must hold exactly, and ``Verdict.render`` prints an
alternating witness as its least-index component, in basis notation."""

from __future__ import annotations

from .symexpr import Frozen


def _render_witness(witness) -> str:
    comps = getattr(witness, "comps", None)
    if comps:
        idx = min(comps)
        witness = type(witness)(
            witness.table, witness.degree, {idx: comps[idx]}
        )
    render = getattr(witness, "render", None)
    if callable(render):
        return render()
    return str(witness)


class Verdict(Frozen):
    __slots__ = ("label", "passed", "witness")
    _fields = __slots__

    def __init__(self, label: str, passed: bool, witness: object = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"{mark}  {self.label}"
        if not self.passed and self.witness is not None:
            line += f"  [residual: {_render_witness(self.witness)}]"
        return line


def vanishes(label: str, residual) -> Verdict:
    """PASS with no witness on a zero residual, else FAIL carrying it."""
    if residual.is_zero():
        return Verdict(label, True)
    return Verdict(label, False, residual)
