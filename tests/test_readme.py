"""The README's module map names every module of the package.

Each module's docstring describes its internals, and the "Library layout"
section of the README points to it with one bullet per module, so a
module added later must be mapped there too.
"""

from pathlib import Path

import involution_forge

PACKAGE = Path(involution_forge.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_library_layout_maps_every_module():
    text = README.read_text(encoding="utf-8")
    section = text.partition("\n## Library layout\n")[2].partition("\n## ")[0]
    assert section.strip()
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    modules -= {"__init__", "__main__"}
    assert modules >= {"errors", "symexpr", "exterior", "linalg", "anchor",
                       "report", "pencil", "verify", "fixtures", "cli"}
    unmapped = sorted(name for name in modules
                      if f"\n- `{name}`" not in section)
    assert unmapped == []
