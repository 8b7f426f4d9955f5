"""Verdicts with symbolic witnesses, shared by the pencil checks and the
certificate layer.  A verdict is never a bare boolean: failures carry the
residual object that refutes the claim."""

from __future__ import annotations

from dataclasses import dataclass


def _render_witness(witness) -> str:
    if witness is None:
        return ""
    render = getattr(witness, "render", None)
    if callable(render):
        return render()
    return str(witness)


@dataclass(frozen=True)
class Verdict:
    label: str
    passed: bool
    witness: object = None

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"{mark}  {self.label}"
        if not self.passed and self.witness is not None:
            line += f"  [residual: {_render_witness(self.witness)}]"
        return line

