"""Wire-or-delete, kept applied (ROADMAP item 7): every module under
``src/repro`` is imported by product code, a benchmark, an example or a
tool.  Its tests do not keep it, and neither does a re-export: a name an
``__init__`` imports without using counts only once some caller takes it
from the package.  A static scan of ``import`` statements — the repo has
no relative or dynamic imports — so a module reached only through
attribute access on a package (``pkg.mod.f()``) would need a direct
import.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_imported_by_a_caller():
    imported: dict[Path, set[str]] = {}   # caller -> dotted names it takes
    reexports: dict[str, str] = {}        # "package.name" -> defining module
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
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
