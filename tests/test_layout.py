"""Module layering: no module reaches into another's private names.

Every module of the package keeps its helpers private; a quantity
another module needs gets one public function instead. ``core._finite``,
the shared input validator, is outside this rule.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rsma_isac"
_GUARDED = {path.stem for path in _PACKAGE.glob("*.py")}
_EXEMPT = {"core._finite"}


def _private_imports(path: Path) -> list[str]:
    """``module.name`` of every _-prefixed name the file imports from a guarded module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        # ``from .radar import x`` and ``from rsma_isac.radar import x`` alike
        module = node.module.rsplit(".", 1)[-1]
        if node.level == 0 and not node.module.startswith("rsma_isac."):
            continue
        if module in _GUARDED:
            found += [f"{module}.{a.name}" for a in node.names
                      if a.name.startswith("_") and f"{module}.{a.name}" not in _EXEMPT]
    return found


def test_no_module_imports_private_names_of_another():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = {
        path.name: names for path in sources if (names := _private_imports(path))
    }
    assert offenders == {}


def test_private_import_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .radar import _k2_sum, range_profile\n"
        "from rsma_isac.precoders import _SOFT_ATOL\n"
        "from .core import _finite\n"
        "from .core import _parse\n"
        "from rsma_isac.region import _grid_columns, sweep\n"
        "from numpy import _NoValue\n"
    )
    assert _private_imports(path) == [
        "radar._k2_sum", "precoders._SOFT_ATOL", "core._parse", "region._grid_columns",
    ]
    assert {"core", "region", "cli", "calibration"} <= _GUARDED
