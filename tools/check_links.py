#!/usr/bin/env python3
"""Dead-link checker for the documentation.

Validates, for every Markdown file under ``docs/`` plus the repo-root
README (when present):

* relative Markdown links ``[text](target)`` resolve to existing files or
  directories (``http(s)``/``mailto`` targets and pure ``#anchor`` links
  are skipped; a ``#fragment`` suffix on a file link is ignored);
* backtick code references that name repo paths — anything starting with
  ``src/``, ``docs/``, ``tests/``, ``benchmarks/``, ``tools/``,
  ``examples/``, or ``repro/`` and ending in ``.py``/``.md``/``.json`` —
  point at real files (``repro/...`` is also tried under ``src/``);
* backtick member references ``Class.member`` / ``Class.member()`` name a
  class defined under ``src/repro`` that defines the member — a method,
  a class-level name, a ``__slots__`` entry or a ``self.<member>``
  assignment, its own or a base class's (``NAME.md`` / ``NAME.json``
  file names are not member references);
* backtick snake_case names ``some_name`` / ``some_name()`` are a name
  some ``.py`` file under ``src/``, ``tests/``, ``benchmarks/``,
  ``tools/`` or ``examples/`` defines or uses — an identifier, an
  attribute, a parameter, a keyword, an import, or a string constant
  that is exactly the name (metric keys, fault kinds, workload names).

Exits non-zero listing every dead reference.  Wired into CI
(``.github/workflows/ci.yml``) and into tier-1 via
``tests/test_docs_links.py``, so docs cannot silently rot as modules move.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

from _runner import ROOT, run_tool

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_REF = re.compile(
    r"`((?:src|docs|tests|benchmarks|tools|examples|repro)/"
    r"[\w./-]+\.(?:py|md|json))`")
_MEMBER_REF = re.compile(r"`([A-Z]\w*)\.(\w+)(?:\(\))?`")
_NAME_REF = re.compile(r"`(_*[a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\(\))?`")
_CODE_DIRS = ("src", "tests", "benchmarks", "tools", "examples")
_EXTERNAL = ("http://", "https://", "mailto:")


def _candidates(base: Path, target: str) -> list[Path]:
    """Paths a reference may resolve to: relative to its file, and (for
    repo-style paths) relative to the repo root, with ``repro/`` module
    paths also tried under ``src/``."""
    paths = [base / target, ROOT / target]
    if target.startswith("repro/"):
        paths.append(ROOT / "src" / target)
    return paths


def _own_members(cls: ast.ClassDef) -> set[str]:
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                   [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
                if target.id == "__slots__":
                    names.update(node.value for node in ast.walk(stmt.value)
                                 if isinstance(node, ast.Constant))
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return names


@functools.cache
def class_members() -> dict[str, set[str]]:
    """Class name -> the members the classes of that name under
    ``src/repro`` define, inherited ones included."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                own.setdefault(cls.name, set()).update(_own_members(cls))
                bases.setdefault(cls.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in cls.bases
                    if isinstance(base, (ast.Name, ast.Attribute)))

    def members(name: str, seen: frozenset = frozenset()) -> set[str]:
        out = set(own[name])
        for base in bases[name] - seen:
            if base in own:
                out |= members(base, seen | {name})
        return out

    return {name: members(name) for name in own}


def member_errors(text: str) -> list[str]:
    """The ``Class.member`` references in ``text`` that name no member of
    a class defined under ``src/repro``."""
    classes = class_members()
    return [match.group(0) for match in _MEMBER_REF.finditer(text)
            if match.group(2) not in ("md", "json")
            and match.group(2) not in classes.get(match.group(1), ())]


def _node_names(node: ast.AST) -> tuple[str, ...]:
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return (node.name,)
    if isinstance(node, (ast.arg, ast.keyword)):
        return (node.arg,) if node.arg else ()
    if isinstance(node, ast.alias):
        return (node.name.rsplit(".", 1)[-1],) + (
            (node.asname,) if node.asname else ())
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return (node.value,)
    return ()


@functools.cache
def code_names() -> frozenset[str]:
    """Every name the ``.py`` files under :data:`_CODE_DIRS` define or
    use (see the module docstring)."""
    names: set[str] = set()
    for top in _CODE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                names.update(_node_names(node))
    return frozenset(names)


def name_errors(text: str) -> list[str]:
    """The backticked snake_case names in ``text`` that no code defines
    or uses."""
    names = code_names()
    return [match.group(0) for match in _NAME_REF.finditer(text)
            if match.group(1) not in names]


def check_file(path: Path) -> list[str]:
    errors = []
    text = path.read_text(encoding="utf-8")
    relative = path.relative_to(ROOT)
    for match in _MD_LINK.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or match.group(1).startswith(_EXTERNAL):
            continue
        if not any(p.exists() for p in _candidates(path.parent, target)):
            errors.append(f"{relative}: dead link -> ({match.group(1)})")
    for match in _CODE_REF.finditer(text):
        target = match.group(1)
        if not any(p.exists() for p in _candidates(path.parent, target)):
            errors.append(f"{relative}: dead code reference -> `{target}`")
    errors += [f"{relative}: dead member reference -> {ref}"
               for ref in member_errors(text)]
    errors += [f"{relative}: dead name reference -> {ref}"
               for ref in name_errors(text)]
    return errors


def main() -> int:
    def check():
        files = sorted(ROOT.glob("docs/**/*.md"))
        readme = ROOT / "README.md"
        if readme.exists():
            files.append(readme)
        errors = [error for path in files for error in check_file(path)]
        summary = (f"checked {len(files)} file(s): "
                   f"{'FAILED' if errors else 'ok'} "
                   f"({len(errors)} dead reference(s))")
        return errors, summary

    return run_tool("check_links", check)


if __name__ == "__main__":
    sys.exit(main())
