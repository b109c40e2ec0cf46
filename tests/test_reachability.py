"""Wire-or-delete, kept applied (ROADMAP items 7 and 1f), at two levels.

Modules: every module under ``src/repro`` is imported by product code, a
benchmark, an example or a tool.  Its tests do not keep it, and neither
does a re-export: a name an ``__init__`` imports without using counts
only once some caller takes it from the package.  A static scan of
``import`` statements — the repo has no relative or dynamic imports — so
a module reached only through attribute access on a package
(``pkg.mod.f()``) would need a direct import.

Names: every function or method defined under ``src/repro`` is mentioned
somewhere in those same four trees — or is documented API, listed below
with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _callers():
    """``(path, syntax tree)`` of every file that counts as a caller."""
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            yield path, ast.parse(path.read_text())


def test_every_module_is_imported_by_a_caller():
    imported: dict[Path, set[str]] = {}   # caller -> dotted names it takes
    reexports: dict[str, str] = {}        # "package.name" -> defining module
    for path, tree in _callers():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = imported[path] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"relative import in {path}"
                for alias in node.names:
                    local = alias.asname or alias.name
                    if path.name == "__init__.py" and local not in used:
                        reexports[f"{_module(path)}.{local}"] = node.module
                    else:
                        names.update((node.module,
                                      f"{node.module}.{alias.name}"))
    for names in imported.values():
        names.update([reexports[n] for n in names if n in reexports])

    unreached = []
    for path in (SRC / "repro").rglob("*.py"):
        name = _module(path)
        package = path.parent if path.name == "__init__.py" else None
        if not any(n == name or n.startswith(name + ".")
                   for caller, names in imported.items()
                   if caller != path and package not in caller.parents
                   for n in names):
            unreached.append(name)
    assert not unreached, f"imported by no caller: {sorted(unreached)}"


# Documented API that only tests (and users) call: one reason each.
DOCUMENTED_API = {
    "execute_script": "NeurDB.execute_script — the ;-separated script "
                      "entry point of the public facade",
    "warnings": "NeurDB.warnings — absorbed-failure surface, docs/faults.md",
    "profile": "NeurDB.profile — Chrome-trace entry point, "
               "docs/observability.md",
    "refresh_now": "PredictServer.refresh_now — the refresh=manual escape "
                   "hatch, docs/serving.md",
    "serving_version": "PredictServer.serving_version — which version a "
                       "swap left pinned, docs/serving.md",
    "float_now": "Tracer.float_now — the float_now == clock.now "
                 "reconciliation invariant, docs/observability.md",
    "table_view_rebuilds": "BufferPool.table_view_rebuilds — per-table "
                           "view-cache churn, docs/storage.md",
}


def test_every_function_name_is_mentioned_by_a_caller():
    """A function name nothing outside ``tests/`` ever writes — as a
    ``Name``, an attribute, an imported name, or an identifier-shaped
    string (``getattr`` / ``tracer.wrap(obj, "name")`` / ``__all__``) — is
    dead.  Coarser than a call graph (any same-named mention keeps a
    name), which is the safe direction for a gate that deletes."""
    defined: dict[str, str] = {}
    mentioned: set[str] = set()
    for path, tree in _callers():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") \
                    and node.name.endswith("__")
                if SRC in path.parents and not dunder:
                    defined.setdefault(
                        node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    mentioned.add(alias.name.rpartition(".")[2])
                    mentioned.add(alias.asname or "")
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                mentioned.add(node.value)
    unmentioned = {name: where for name, where in defined.items()
                   if name not in mentioned and name not in DOCUMENTED_API}
    assert not unmentioned, f"mentioned by no caller: {unmentioned}"
    stale = sorted(name for name in DOCUMENTED_API
                   if name in mentioned or name not in defined)
    assert not stale, f"allowlisted but no longer needed: {stale}"
