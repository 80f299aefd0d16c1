"""Package layout: layering, one signature per function, no dead names.

Every module of the package keeps its helpers private; a quantity
another module needs gets one public function instead. ``core._finite``,
the shared input validator, is outside this rule. Only the channel draw
and its callers read the array geometry, and every imported package is
stdlib or declared. Library functions and dataclasses take every
argument explicitly, so each default lives once, in the CLI; and every
private module-level name is used somewhere.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

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


# The array geometry enters once: the CLI fixes it and generate_channels
# stores the target's response in the ChannelSet. The package namespace
# re-exports both names.
_GEOMETRY = {"ArrayGeometry", "steering_vector"}
_GEOMETRY_READERS = {"__init__", "core", "cli"}


def _geometry_uses(path: Path) -> list[str]:
    """Every import or attribute read of ArrayGeometry or steering_vector in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in _GEOMETRY]
        elif isinstance(node, ast.Attribute) and node.attr in _GEOMETRY:
            found.append(node.attr)
    return found


def test_only_the_channel_draw_and_its_callers_read_the_geometry():
    sources = sorted(_PACKAGE.glob("*.py"))
    offenders = {
        path.stem: names for path in sources
        if path.stem not in _GEOMETRY_READERS and (names := _geometry_uses(path))
    }
    assert offenders == {}
    assert _geometry_uses(_PACKAGE / "cli.py")


def test_geometry_use_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .core import ArrayGeometry, ChannelSet\n"
        "from rsma_isac import steering_vector as sv\n"
        "import rsma_isac.core as core\n"
        "a = core.steering_vector(core.ArrayGeometry(2, 0.5), 0.0)\n"
        "from numpy import ones\n"
    )
    assert sorted(_geometry_uses(path)) == [
        "ArrayGeometry", "ArrayGeometry", "steering_vector", "steering_vector",
    ]


# A module imports only the standard library, the package itself and the
# packages pyproject.toml declares: one installed on the side is not enough.
def _undeclared_imports(path: Path, declared: set[str]) -> list[str]:
    """Top-level name of every absolute import in the file that is neither stdlib nor declared."""
    allowed = set(sys.stdlib_module_names) | declared | {"rsma_isac"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [top for name in names if (top := name.split(".")[0]) not in allowed]
    return found


def _declared_dependencies() -> set[str]:
    """Import names of the ``[project] dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    text = (_PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    requirements = tomllib.loads(text)["project"].get("dependencies", [])
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_every_import_is_stdlib_or_declared():
    declared = _declared_dependencies()
    assert "numpy" in declared
    offenders = {
        path.stem: names for path in sorted(_PACKAGE.glob("*.py"))
        if (names := _undeclared_imports(path, declared))
    }
    assert offenders == {}


def test_numpy_floor_takes_an_fft_out_array():
    """``radar.range_profile`` DFTs into an ``out=`` array, which
    ``np.fft.fft`` takes from numpy 2.0 on, so that is the declared floor."""
    np = pytest.importorskip("numpy")
    tomllib = pytest.importorskip("tomllib")
    text = (_PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert "numpy>=2.0" in tomllib.loads(text)["project"]["dependencies"]
    assert "out" in inspect.signature(np.fft.fft).parameters


def test_undeclared_import_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from scipy.linalg import eigh\n"
        "from .core import ConfigError\n"
        "from . import radar\n"
        "import rsma_isac.core\n"
        "def f():\n"
        "    import pandas\n"
        "    from numba import njit\n"
    )
    assert _undeclared_imports(path, {"numpy"}) == ["scipy", "pandas", "numba"]
    assert _undeclared_imports(path, {"numpy", "scipy", "pandas", "numba"}) == []


# build_precoders builds its own blend table for a single point; main
# reads sys.argv when run as the console script.
_ALLOWED_DEFAULTS = {"precoders.build_precoders.table", "cli.main.argv"}


def _defaults(module) -> list[str]:
    """``module.callable.parameter`` of every default in the module's public signatures.

    Functions, and the constructors (dataclass fields included) and public
    methods of classes, defined in the module itself.
    """
    found = []
    stem = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            members = {name: obj}
        elif inspect.isclass(obj):
            members = {
                name if attr == "__init__" else f"{name}.{attr}": getattr(m, "__func__", m)
                for attr, m in vars(obj).items()
                if attr == "__init__" or not attr.startswith("_")
            }
        else:
            continue
        for label, fn in members.items():
            if inspect.isfunction(fn):
                found += [f"{stem}.{label}.{p.name}"
                          for p in inspect.signature(fn).parameters.values()
                          if p.default is not p.empty]
    return found


def test_public_signatures_have_no_test_only_defaults():
    modules = [importlib.import_module(f"rsma_isac.{stem}")
               for stem in sorted(_GUARDED - {"__init__", "__main__"})]
    found = [d for module in modules for d in _defaults(module)]
    assert sorted(found) == sorted(_ALLOWED_DEFAULTS)


def test_default_finder(tmp_path, monkeypatch):
    (tmp_path / "layout_probe.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    step: float\n"
        "    trials: int = 25\n"
        "    def scaled(self, by=2.0): return self.step * by\n"
        "class Table:\n"
        "    def __init__(self, rows, fill=None): self.rows = rows\n"
        "    @classmethod\n"
        "    def empty(cls, n=0): return cls([])\n"
        "def score(x, gap_db=0.0): return x\n"
        "def _helper(x, y=1): return x\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("layout_probe")
    assert dataclasses.is_dataclass(module.Spec)
    assert sorted(_defaults(module)) == [
        "layout_probe.Spec.scaled.by", "layout_probe.Spec.trials",
        "layout_probe.Table.empty.n", "layout_probe.Table.fill",
        "layout_probe.score.gap_db",
    ]


def _unused_private_names(sources: list[Path]) -> list[str]:
    """``module.name`` of every module-level _-prefixed name no source reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            unused += [f"{stem}.{n}" for n in names
                       if n.startswith("_") and not n.startswith("__") and n not in read]
    return unused


def test_every_private_module_name_is_used():
    assert _unused_private_names(sorted(_PACKAGE.glob("*.py"))) == []


def test_unused_private_name_finder(tmp_path):
    (tmp_path / "a.py").write_text(
        "_DOC = {'x': 1}\n_LIMIT: int = 3\n_USED = 2\n"
        "def _helper(): return _USED\nclass _Kept: pass\n__all__ = []\n"
    )
    (tmp_path / "b.py").write_text("import a\nprint(a._Kept, a._helper())\n")
    assert _unused_private_names(sorted(tmp_path.glob("*.py"))) == ["a._DOC", "a._LIMIT"]


def _call_sites(path: Path, name: str) -> list[int]:
    """Line of every call to ``name``, by name or as an attribute, in the file."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def test_sweep_builds_each_chunk_at_one_site():
    # The G0 scoring and the SNR_RAD measurement build through one helper.
    assert len(_call_sites(_PACKAGE / "region.py", "build_precoders")) == 1


def test_build_site_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .precoders import build_precoders\n"
        "import rsma_isac.precoders as pre\n"
        "a = build_precoders(pp, ch, cfg)\n"
        "b = pre.build_precoders(pp, ch, cfg, table)\n"
        "f = build_precoders\n"
        "c = build_precoder(pp, ch, cfg)\n"
    )
    assert _call_sites(path, "build_precoders") == [3, 4]


# A blend table is a sweep's: a single point, a radar-heatmap row too,
# builds its own. So only region passes build_precoders a table, and only
# precoders, region and the package namespace name BlendTable.
_TABLE_USERS = {"table": {"region"}, "BlendTable": {"precoders", "region", "__init__"}}


def _table_uses(path: Path) -> list[tuple[str, int]]:
    """(kind, line) of each use of a blend table in the file.

    "table" marks a build_precoders call given a fourth argument or
    ``table=``; "BlendTable" an import, name or attribute of that name.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) == "build_precoders":
            if len(node.args) > 3 or any(k.arg == "table" for k in node.keywords):
                found.append(("table", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [("BlendTable", node.lineno) for a in node.names if a.name == "BlendTable"]
        elif getattr(node, "id", getattr(node, "attr", None)) == "BlendTable":
            found.append(("BlendTable", node.lineno))
    return found


def test_only_sweeps_pass_a_blend_table():
    offenders = {
        path.stem: uses for path in sorted(_PACKAGE.glob("*.py"))
        if (uses := [(kind, line) for kind, line in _table_uses(path)
                     if path.stem not in _TABLE_USERS[kind]])
    }
    assert offenders == {}
    assert any(kind == "table" for kind, _ in _table_uses(_PACKAGE / "region.py"))


def test_table_use_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .precoders import BlendTable, build_precoders\n"
        "import rsma_isac.precoders as pre\n"
        "a = build_precoders(pp, ch, cfg)\n"
        "b = pre.build_precoders(pp, ch, cfg, t)\n"
        "c = build_precoders(pp, ch, cfg, table=t)\n"
        "d = pre.BlendTable(ch, 'ZF', (), ())\n"
        "e = build_table(pp, ch, cfg, t)\n"
        "BlendTables = 1\n"
    )
    assert sorted(_table_uses(path)) == [
        ("BlendTable", 1), ("BlendTable", 6), ("table", 4), ("table", 5),
    ]


def _references(path: Path, name: str) -> list[int]:
    """Line of every reference to ``name`` in the file: import, name or attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name == name]
        elif getattr(node, "id", getattr(node, "attr", None)) == name:
            found.append(node.lineno)
    return sorted(found)


# A sweep scores its points along one path whatever its metric: region.py
# projects, scores and finishes the sensing numbers at one site each, and
# never calls point-eval's expected_sensing.
_SWEEP_SCORING = ("stream_gains", "throughput", "sensing_from_sums")


def test_sweep_scores_along_one_path():
    region = _PACKAGE / "region.py"
    assert {name: len(_call_sites(region, name)) for name in _SWEEP_SCORING} == {
        name: 1 for name in _SWEEP_SCORING
    }
    assert _references(region, "expected_sensing") == []


# g0 is rounded where it is computed: radar.py defines round_sig and
# applies it in expected_sensing, and the package namespace re-exports it.
def test_only_radar_rounds_g0():
    offenders = {
        path.stem: lines for path in sorted(_PACKAGE.glob("*.py"))
        if path.stem not in {"radar", "__init__"} and (lines := _references(path, "round_sig"))
    }
    assert offenders == {}
    init = ast.parse((_PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
               and any(a.name == "round_sig" for a in node.names)]
    assert [node.module for node in imports] == ["radar"]
    assert len(_references(_PACKAGE / "__init__.py", "round_sig")) == 1
    assert _references(_PACKAGE / "radar.py", "round_sig")


def test_round_sig_use_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .radar import round_sig, range_profile\n"
        "import rsma_isac.radar as radar\n"
        "def round_sig(v):\n"
        "    return v\n"
        "g0 = list(map(round_sig, values))\n"
        "y = radar.round_sig(1.0)\n"
        "round_sigma = round_sig_2 = 1\n"
    )
    assert _references(path, "round_sig") == [1, 5, 6]


# The precoders are projected onto the users and the target in one place,
# throughput.stream_gains; the radar chain's drawn waveform is projected
# onto the target in radar.steered_projection. No other code calls einsum.
_EINSUM_SITES = {("throughput", "stream_gains"), ("radar", "steered_projection")}


def _einsum_uses(path: Path) -> list[tuple[str, int]]:
    """(top-level definition, line) of every reference to einsum in the file.

    An import, name or attribute counts, so an alias cannot hide a call;
    references outside any function or class are listed under "".
    """
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found += [(owner, node.lineno) for a in node.names if a.name == "einsum"]
            elif getattr(node, "id", getattr(node, "attr", None)) == "einsum":
                found.append((owner, node.lineno))
    return found


def test_only_stream_gains_and_the_radar_chain_project():
    sites = {
        (path.stem, owner)
        for path in sorted(_PACKAGE.glob("*.py")) for owner, _ in _einsum_uses(path)
    }
    assert sites == _EINSUM_SITES


def test_einsum_use_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from numpy import einsum, conj\n"
        "import numpy as np\n"
        "def project(a, p):\n"
        "    return np.einsum('t,...kt->...k', np.conj(a), p)\n"
        "class Beam:\n"
        "    def gain(self, p):\n"
        "        f = einsum\n"
        "        return f('kt,kt->k', p, p)\n"
        "g = np.einsum('i,i', x, x)\n"
        "einsums = np.einsum_path\n"
    )
    assert _einsum_uses(path) == [("", 1), ("project", 4), ("Beam", 7), ("", 9)]


# A point is scored once, by throughput.throughput: its report keeps the
# SINRs and efficiencies, so no other code calls the scoring functions
# (point-eval reads them off the report); the package namespace only
# re-exports them.
_SCORERS = ("sinr_common", "sinr_private", "spectral_efficiency")


def _scorer_uses(path: Path) -> list[tuple[str, str, int]]:
    """(top-level definition, scorer, line) of every reference to a scorer in the file.

    An import, name or attribute counts, so an alias cannot hide a call;
    references outside any function or class are listed under "".
    """
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found += [(owner, a.name, node.lineno) for a in node.names if a.name in _SCORERS]
            elif (name := getattr(node, "id", getattr(node, "attr", None))) in _SCORERS:
                found.append((owner, name, node.lineno))
    return found


def test_only_throughput_scores():
    sites = {
        (path.stem, owner, name)
        for path in sorted(_PACKAGE.glob("*.py")) if path.stem != "__init__"
        for owner, name, _ in _scorer_uses(path)
    }
    assert sites == {("throughput", "throughput", name) for name in _SCORERS}
    init = ast.parse((_PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = {node.lineno: node.module for node in ast.walk(init)
               if isinstance(node, ast.ImportFrom)}
    uses = _scorer_uses(_PACKAGE / "__init__.py")
    assert sorted(name for _, name, _ in uses) == sorted(_SCORERS)
    assert {imports.get(line) for _, _, line in uses} == {"throughput"}


def test_scorer_use_finder(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .throughput import sinr_common as sc, stream_gains\n"
        "import rsma_isac.throughput as tp\n"
        "def point(users, gap):\n"
        "    return [tp.spectral_efficiency(s, gap) for s in sc(users, 1.0)]\n"
        "class Chunk:\n"
        "    def score(self, users):\n"
        "        f = sinr_private\n"
        "        return f(users, 1.0)\n"
        "g = {'spectral_efficiency_common': sinr_commons}\n"
        "def spectral_efficiency(sinr, gap):\n"
        "    return sinr\n"
    )
    assert _scorer_uses(path) == [
        ("", "sinr_common", 1), ("point", "spectral_efficiency", 4), ("Chunk", "sinr_private", 7),
    ]
