"""Charge-category pass: every charge call site must resolve to the
central registry (``repro/common/categories.py``).

The pass finds every call to the clock's charging surface —
``SimClock.advance`` / ``advance_batch`` / ``advance_to`` /
``advance_charges`` and the storage layer's ``_charge`` forwarders —
extracts the *category* argument (positional or keyword, including the
``(per_item, count, category)`` tuples of a literal ``advance_charges``
sequence), and checks it:

``unknown-category``
    A string literal that is not a key of
    :data:`repro.common.categories.REGISTRY`.  This is the typo'd
    literal the registry exists to kill: it would silently open a fresh
    breakdown bucket and drain the one the parity suite asserts.

``unresolved-category``
    A ``categories.X`` / ``cat.X`` attribute (resolved through the
    import map) that names no constant in the registry module — the
    refactored call sites' equivalent of a typo.

``dynamic-category``
    Anything else (a variable, a computed expression).  Reported as a
    *warning* for review: the analyzer cannot prove it against the
    registry.  Forwarding helpers whose category is a verbatim
    parameter pass-through (the clock's own internals,
    ``HeapTable._charge``, ``ReplicatedTable._charge``) are
    allowlisted by symbol — their
    *callers* are the real charge sites and are checked instead.

``untraced-clock``
    A bare ``SimClock()`` construction outside the clock module itself.
    Charges on a privately constructed clock never reach an attached
    tracer, so the observability layer's reconciliation invariant
    (span totals == clock breakdown) silently loses them: worker shards
    must come from ``SimClock.shard()`` and components must accept the
    session clock.  The standalone default fallback —
    ``clock if clock is not None else SimClock()`` — is exempt
    structurally: it only fires when there is no session clock (and
    hence no tracer) in play.

Escape hatches: ``# repro: charge-category-ok <reason>`` for the
category rules, ``# repro: untraced-clock-ok <reason>`` for the
constructor rule.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    AnalysisPass,
    Finding,
    ImportMap,
    ModuleSource,
    Severity,
    qualname_of,
)
from repro.common import categories

_PRAGMA = "charge-category-ok"
_CLOCK_PRAGMA = "untraced-clock-ok"

#: charge method name -> positional index of the category argument
CHARGE_METHODS = {"advance": 1, "advance_batch": 2, "advance_to": 1,
                  "absorb": 1, "_charge": 1}

#: absolute module path of the registry, as the import map resolves it
_REGISTRY_MODULE = "repro.common.categories"

#: absolute path of the clock class, as the import map resolves it
_CLOCK_CLASS = "repro.common.simtime.SimClock"


class ChargeCategoryPass(AnalysisPass):
    name = "charges"
    rules = {
        "unknown-category": _PRAGMA,
        "unresolved-category": _PRAGMA,
        "dynamic-category": _PRAGMA,
        "untraced-clock": _CLOCK_PRAGMA,
    }
    # the clock itself forwards categories between its own entry points
    # (and shard() legitimately constructs bare clocks)
    path_allowlist = ("repro/common/simtime.py",)
    # verbatim parameter pass-throughs: the category is checked at their
    # call sites, which this pass also visits
    symbol_allowlist = {
        "repro/storage/heap.py::HeapTable._charge":
            ("dynamic-category",),
        "repro/storage/replica.py::ReplicatedTable._charge":
            ("dynamic-category",),
        # the pipeline sink API's absorb(block, clock) shares a name with
        # SimClock.absorb(seconds, category); its second argument is a
        # clock, not a category
        "repro/exec/pipeline.py::PipelineSink.absorb_carrier":
            ("dynamic-category",),
        # the session root clock: tracers attach *to* this one
        "repro/db.py::NeurDB.__init__": ("untraced-clock",),
    }

    def run(self, module: ModuleSource) -> list[Finding]:
        imports = ImportMap(module.tree)
        qualnames = qualname_of(module.tree)
        findings: list[Finding] = []
        guarded = self._guarded_fallbacks(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_clock_ctor(node, imports) and node not in guarded:
                findings.append(self._scoped(module, qualnames, node, Finding(
                    rule="untraced-clock", severity=Severity.ERROR,
                    path=module.path, line=node.lineno,
                    pragma=_CLOCK_PRAGMA,
                    message="bare SimClock() construction: charges on a "
                            "private clock never reach an attached tracer "
                            "— shard from the session clock "
                            "(clock.shard()) or accept it as a "
                            "parameter with a guarded default")))
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in CHARGE_METHODS:
                # no category argument at all -> the method's default
                # ("misc"/"wait"), which is registered
                cats = self._category_args(node, CHARGE_METHODS[method])
                findings.extend(self._check_categories(
                    module, imports, qualnames, node, cats))
            elif method == "advance_charges" and node.args:
                findings.extend(self._check_charge_sequence(
                    module, imports, qualnames, node))
        return findings

    # -- untraced-clock ----------------------------------------------------

    @staticmethod
    def _is_clock_ctor(node: ast.Call, imports: ImportMap) -> bool:
        """``SimClock(...)`` by import resolution, falling back to the
        bare name for modules the import map cannot see through."""
        resolved = imports.resolve(node.func)
        if resolved is not None:
            return resolved == _CLOCK_CLASS
        return (isinstance(node.func, ast.Name)
                and node.func.id == "SimClock")

    @staticmethod
    def _guarded_fallbacks(tree: ast.Module) -> set[ast.AST]:
        """Calls appearing in a ``x if x is (not) None else ...``
        conditional — the standalone-component default, which only fires
        when no session clock (and hence no tracer) exists."""
        guarded: set[ast.AST] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.IfExp):
                continue
            test = node.test
            if not (isinstance(test, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot))
                    for op in test.ops)):
                continue
            operands = [test.left, *test.comparators]
            if not any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands):
                continue
            guarded.update(n for n in (node.body, node.orelse)
                           if isinstance(n, ast.Call))
        return guarded

    # -- extraction --------------------------------------------------------

    @staticmethod
    def _category_args(node: ast.Call, index: int) -> list[ast.AST]:
        for kw in node.keywords:
            if kw.arg == "category":
                return [kw.value]
        if len(node.args) > index:
            return [node.args[index]]
        return []  # default category ("misc"/"wait") — registered

    def _check_charge_sequence(self, module, imports, qualnames,
                               node: ast.Call) -> list[Finding]:
        arg = node.args[0]
        if isinstance(arg, (ast.Tuple, ast.List)):
            cats = [elt.elts[2] for elt in arg.elts
                    if isinstance(elt, (ast.Tuple, ast.List))
                    and len(elt.elts) == 3]
            if len(cats) == len(arg.elts):
                return self._check_categories(module, imports, qualnames,
                                              node, cats)
        return [self._scoped(module, qualnames, node, Finding(
            rule="dynamic-category", severity=Severity.WARNING,
            path=module.path, line=node.lineno, pragma=_PRAGMA,
            message="advance_charges sequence is not a literal tuple "
                    "of (per_item, count, category) — categories cannot "
                    "be checked against the registry"))]

    # -- checks ------------------------------------------------------------

    def _check_categories(self, module, imports: ImportMap, qualnames,
                          node: ast.Call,
                          cats: list[ast.AST]) -> list[Finding]:
        findings = []
        for cat_node in cats:
            finding = self._check_one(module, imports, cat_node)
            if finding is not None:
                findings.append(self._scoped(module, qualnames, node,
                                             finding))
        return findings

    def _check_one(self, module: ModuleSource, imports: ImportMap,
                   cat_node: ast.AST) -> Finding | None:
        if isinstance(cat_node, ast.Constant) \
                and isinstance(cat_node.value, str):
            if categories.is_registered(cat_node.value):
                return None
            return Finding(
                rule="unknown-category", severity=Severity.ERROR,
                path=module.path, line=cat_node.lineno, pragma=_PRAGMA,
                message=f"charge category {cat_node.value!r} is not in "
                        f"repro/common/categories.py — register it "
                        f"first (typo'd literals silently open a new "
                        f"breakdown bucket)")
        resolved = imports.resolve(cat_node)
        if resolved is not None and resolved.startswith(
                _REGISTRY_MODULE + "."):
            const = resolved[len(_REGISTRY_MODULE) + 1:]
            value = getattr(categories, const, None)
            if isinstance(value, str) and categories.is_registered(value):
                return None
            return Finding(
                rule="unresolved-category", severity=Severity.ERROR,
                path=module.path, line=cat_node.lineno, pragma=_PRAGMA,
                message=f"categories.{const} names no registered "
                        f"constant in repro/common/categories.py")
        return Finding(
            rule="dynamic-category", severity=Severity.WARNING,
            path=module.path, line=cat_node.lineno, pragma=_PRAGMA,
            message="dynamic charge category (not a literal or a "
                    "registry constant) — review, then suppress with "
                    "a pragma or route through the registry")

    def _scoped(self, module: ModuleSource, qualnames, node: ast.AST,
                finding: Finding) -> Finding:
        """Apply the symbol allowlist for the call's enclosing def."""
        qual = self._enclosing_qualname(qualnames, node)
        if qual is not None:
            entry = self.symbol_exempt(module, qual, finding.rule)
            if entry is not None:
                finding.suppressed = True
                finding.suppressed_by = f"allowlist: {entry}"
        return finding

    @staticmethod
    def _enclosing_qualname(qualnames: dict, node: ast.AST) -> str | None:
        """Innermost def/class whose span contains ``node``.  Spans are
        compared by line ranges — good enough for allowlisting."""
        best = None
        best_span = None
        for scope, qual in qualnames.items():
            end = getattr(scope, "end_lineno", None)
            if end is None or not (scope.lineno <= node.lineno <= end):
                continue
            span = end - scope.lineno
            if best_span is None or span < best_span:
                best, best_span = qual, span
        return best
