"""Parallel-hook race analysis: code a placed task executes must not
write shared state.

The placed walk (``DistributedScheduler`` in
``repro/exec/distributed.py``) hands operator *hooks* to its
``dispatch``, one task per morsel.  The tasks run inline, but two things
rest on the hooks being **stateless after construction** (module
docstring of ``repro/exec/operators.py``) — writing only morsel-local
state (parameters, locals, the private task clock), never ``self``:

* **re-execution** — a morsel whose attempt failed transiently, or whose
  worker "crashed", is run again (``DistributedScheduler.dispatch``);
  recovered results are bit-identical to the fault-free run only if the
  lost attempt left nothing behind;
* **the makespan model** — a phase's task charges are list-scheduled
  onto each node's W lanes *as if the tasks overlapped*; a hook that
  reads what an earlier task wrote would make that claim false.

Nothing else enforces the contract; this pass does.

How the hook set is derived — and why it cannot drift
-----------------------------------------------------
The pass does **not** trust a hand-maintained hook list.  It re-derives
the task dispatch table from the code that actually dispatches:

* every ``self.dispatch(units, fn)`` call site inside
  ``DistributedScheduler`` — the one dispatch loop — contributes ``fn``:
  a bound hook reference (``op.partial_block``),
  possibly wrapped in the tracing shim ``self._op_task(op, op.<hook>)``
  (which only pushes the operator's span around the call), a local
  closure, whose operator-method calls are extracted, or a pipeline
  entry point (``block_pass.task``);
* a pipeline entry point is followed, by method name, through the
  classes of ``pipeline.py`` — ``BlockPass.task`` -> ``BlockPass.run``
  -> the ``apply`` of every ``parallel_safe``
  :class:`~repro.exec.pipeline.PipelineStage`, ``ScanSource.
  morsel_carrier`` — collecting every ``<x>.op.<hook>(...)`` call.
  Serial stages (``parallel_safe = False``) are never entered.

The derived set is then cross-checked against
:data:`EXPECTED_WORKER_HOOKS`; any mismatch in either direction is a
``dispatch-drift`` finding, so adding a new task hook forces this
file — and therefore a re-audit — to change with it.

What gets flagged
-----------------
For every operator class in ``exec/operators.py`` defining a worker
hook (plus the ``self._helper`` methods those hooks reference,
transitively), and for the task-executed pipeline surface derived above
(minus classes the task code itself instantiates — a carrier built
inside a task is task-local):

``shared-write``
    A write to ``self.<attr>`` — assignment, augmented assignment, a
    subscript store, or a mutating method call
    (``append``/``add``/``update``/``setdefault``/...) — and likewise a
    write or mutating call targeting a closure/global name.  A lock
    around the write does not excuse it: a write made under a lock still
    outlives a lost attempt and still couples tasks the makespan model
    treats as overlapping.

``dispatch-drift``
    The derived worker-hook set differs from
    :data:`EXPECTED_WORKER_HOOKS`.

Escape hatch: ``# repro: race-ok <reason>``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    AnalysisPass,
    Finding,
    ModuleSource,
    Severity,
)

_PRAGMA = "race-ok"

#: The audited worker-executed hook surface.  Update this *only*
#: together with a re-audit of the new hook's body: the pass re-derives
#: the real dispatch table from exec/distributed.py + exec/pipeline.py
#: and flags any mismatch with this set.
EXPECTED_WORKER_HOOKS = frozenset({
    # the scan step of a placed task (ScanSource.morsel_carrier)
    "make_block", "scan_block",
    # parallel-safe pipeline stages (FilterStage/ProjectStage/ProbeStage/
    # CrossStage; the cross reads only the InnerSink's finished block)
    "filter_mask", "project_block", "probe_block", "cross_block",
    # breaker partials (the walk's _run_to_sink / _fold_aggregate); their
    # merges (merge_build, merge_runs, fold_partial / finish_state) run
    # on the serial lane
    "build_block", "partial_block", "sort_block",
})

#: method calls that mutate their receiver
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "__setitem__", "push",
    "appendleft", "sort", "reverse",
}


def _chain_head(node: ast.AST) -> str:
    """The attribute nearest ``self`` in a ``self.a.b.c`` chain."""
    attr = ""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attr = node.attr
        node = node.value
    return attr


def _local_names(func: ast.AST) -> set[str]:
    """Parameters and locally-bound names of one function (no nested
    scopes): writes to these are morsel-local by definition."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    names = {a.arg for a in [*func.args.args, *func.args.posonlyargs,
                             *func.args.kwonlyargs]}
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.For):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
    return names


class _WriteScanner:
    """Walks one worker-executed function body and reports shared-state
    writes."""

    def __init__(self, pass_: "RaceAnalysisPass", module: ModuleSource,
                 func: ast.AST, context: str):
        self.pass_ = pass_
        self.module = module
        self.func = func
        self.context = context
        self.locals = _local_names(func)
        self.findings: list[Finding] = []

    def scan(self) -> list[Finding]:
        self._walk(self.func)
        return self.findings

    def _walk(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child is not self.func:
                continue  # nested defs are analyzed as their own roots
            self._visit(child)
            self._walk(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                self._check_store(target, node)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            self._check_mutating_call(node)

    # -- stores ------------------------------------------------------------

    def _check_store(self, target: ast.AST, stmt: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store(elt, stmt)
            return
        why = self._shared(target)
        if why is not None:
            self.findings.append(self.pass_.finding(
                self.module, stmt, "shared-write",
                f"{self.context}: write to shared state {why} — tasks "
                f"are re-executed on retry and modeled as overlapping"))

    def _check_mutating_call(self, node: ast.Call) -> None:
        why = self._shared(node.func.value)
        if why is not None:
            self.findings.append(self.pass_.finding(
                self.module, node, "shared-write",
                f"{self.context}: mutating call .{node.func.attr}() on "
                f"shared state {why} — tasks are re-executed on retry "
                f"and modeled as overlapping"))

    def _shared(self, node: ast.AST) -> str | None:
        """How a write target reaches shared state, or None when it is
        morsel-local (plain locals/params and chains rooted at them)."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "self":
                return f"self.{node.attr}"
            # attribute on a local (e.g. a shard clock's internals) is
            # owned by whoever owns the local; a chain rooted at self
            # or at a captured name is shared
            root = base
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if not isinstance(root, ast.Name):
                return None
            if root.id == "self":
                return f"nested self state (via self.{_chain_head(base)})"
            if root.id in self.locals:
                return None
            return f"captured '{root.id}'"
        if isinstance(node, ast.Name) and node.id not in self.locals:
            return f"captured '{node.id}'"
        return None


class RaceAnalysisPass(AnalysisPass):
    name = "races"
    rules = {
        "shared-write": _PRAGMA,
        "dispatch-drift": _PRAGMA,
    }

    #: the three files this pass reasons about, repo-relative
    SCHEDULER = "repro/exec/distributed.py"
    PIPELINE = "repro/exec/pipeline.py"
    OPERATORS = "repro/exec/operators.py"

    def __init__(self) -> None:
        self._sources: dict[str, ModuleSource] = {}

    # The pass needs all three modules at once; it caches them as the
    # runner feeds modules through and does its work when it sees each
    # relevant one.
    def run(self, module: ModuleSource) -> list[Finding]:
        path = module.path.replace("\\", "/")
        for tail in (self.SCHEDULER, self.PIPELINE, self.OPERATORS):
            if path.endswith(tail):
                self._sources[tail] = module
                break
        else:
            return []
        findings: list[Finding] = []
        if path.endswith(self.OPERATORS):
            findings.extend(self._scan_operators(module))
        if {self.SCHEDULER, self.PIPELINE} <= set(self._sources):
            findings.extend(self._scan_stages())
            findings.extend(self._cross_check())
            # only emit once per (scheduler, pipeline) pair
            self._sources.pop(self.PIPELINE)
        return findings

    # -- dispatch-table derivation ----------------------------------------

    #: the walk's class: its methods run on the coordinator, and its
    #: ``dispatch`` call sites are where work is handed to workers
    DRIVER = "DistributedScheduler"

    def derived_worker_hooks(self, scheduler: ModuleSource,
                             pipeline: ModuleSource) -> set[str]:
        """The worker-executed operator-hook names, re-derived from the
        dispatching code itself."""
        hooks: set[str] = set()
        entries: set[str] = set()
        operator_methods = self._operator_method_names()
        pipeline_methods = self._pipeline_methods(pipeline)
        cls = self._class_def(scheduler, self.DRIVER)
        # distinct methods may reuse closure names: keep every def per
        # name and union their calls
        closures: dict[str, list[ast.FunctionDef]] = {}
        for f in ast.walk(cls):
            if isinstance(f, ast.FunctionDef):
                closures.setdefault(f.name, []).append(f)
        for fn in self._dispatched(cls):
            if isinstance(fn, ast.Attribute):
                (entries if fn.attr in pipeline_methods
                 else hooks).add(fn.attr)
            elif isinstance(fn, ast.Name):
                for defn in closures.get(fn.id, []):
                    hooks.update(self._closure_hook_calls(
                        defn, operator_methods))
        for _, func in self._worker_surface(pipeline, entries):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Attribute) \
                        and node.func.value.attr == "op":
                    hooks.add(node.func.attr)
        return hooks

    @staticmethod
    def _dispatched(cls: ast.ClassDef):
        """The ``fn`` argument of every ``<x>.dispatch(units, fn)`` call
        inside ``cls``, seen through the tracing shim
        ``_op_task(op, fn)`` (which only pushes the operator's span
        around the call)."""
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dispatch"
                    and len(node.args) >= 2):
                continue
            fn = node.args[1]
            if isinstance(fn, ast.Call) \
                    and isinstance(fn.func, ast.Attribute) \
                    and fn.func.attr == "_op_task" \
                    and len(fn.args) >= 2:
                fn = fn.args[1]
            yield fn

    def _pipeline_methods(self, pipeline: ModuleSource
                          ) -> dict[str, list[tuple[ast.ClassDef,
                                                    ast.FunctionDef]]]:
        """Method name -> definitions across ``pipeline.py``'s classes
        that worker code may enter: everything but the serial
        (``parallel_safe = False``) stages."""
        table: dict[str, list[tuple[ast.ClassDef, ast.FunctionDef]]] = {}
        for cls in ast.walk(pipeline.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
            if "PipelineStage" in bases \
                    and not self._stage_parallel_safe(cls):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    table.setdefault(stmt.name, []).append((cls, stmt))
        return table

    def _worker_surface(self, pipeline: ModuleSource, entries: set[str]
                        ) -> list[tuple[ast.ClassDef, ast.FunctionDef]]:
        """The ``pipeline.py`` methods placed tasks execute on shared
        objects: everything reachable from the dispatched ``entries`` by
        method name (references count — a method passed to a span shim
        is still called), minus the classes that worker code itself
        instantiates (a carrier built inside a task is task-local)."""
        table = self._pipeline_methods(pipeline)
        reached: list[tuple[ast.ClassDef, ast.FunctionDef]] = []
        seen: set[str] = set()
        queue = sorted(entries)
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            for cls, func in table.get(name, ()):
                reached.append((cls, func))
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) \
                            and node.attr in table:
                        queue.append(node.attr)
        task_local = {node.func.id for _, func in reached
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)}
        return [(cls, func) for cls, func in reached
                if cls.name not in task_local]

    @staticmethod
    def _stage_parallel_safe(cls: ast.ClassDef) -> bool:
        """Reads the class-level ``parallel_safe`` flag (default True,
        the PipelineStage base default)."""
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) \
                            and target.id == "parallel_safe" \
                            and isinstance(stmt.value, ast.Constant):
                        return bool(stmt.value.value)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "parallel_safe" \
                    and isinstance(stmt.value, ast.Constant):
                return bool(stmt.value.value)
        return True

    @staticmethod
    def _closure_hook_calls(func: ast.FunctionDef,
                            operator_methods: set[str]) -> set[str]:
        """Operator-method names a task closure invokes (intersected
        with the methods that actually exist on Operator subclasses, so
        locals like ``carrier.materialize()`` drop out — except
        ``apply``, which is resolved through the stage classes)."""
        called = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
        return called & operator_methods

    def _operator_method_names(self) -> set[str]:
        ops_mod = self._sources.get(self.OPERATORS)
        if ops_mod is None:
            return set(EXPECTED_WORKER_HOOKS)
        names: set[str] = set()
        for cls in ast.walk(ops_mod.tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names.add(stmt.name)
        return names

    def _cross_check(self) -> list[Finding]:
        scheduler = self._sources[self.SCHEDULER]
        pipeline = self._sources[self.PIPELINE]
        derived = self.derived_worker_hooks(scheduler, pipeline)
        if derived == EXPECTED_WORKER_HOOKS:
            return []
        extra = sorted(derived - EXPECTED_WORKER_HOOKS)
        missing = sorted(EXPECTED_WORKER_HOOKS - derived)
        parts = []
        if extra:
            parts.append(f"dispatched but unaudited: {extra}")
        if missing:
            parts.append(f"audited but no longer dispatched: {missing}")
        return [Finding(
            rule="dispatch-drift", severity=Severity.ERROR,
            path=scheduler.path, line=1, pragma=_PRAGMA,
            message="worker-hook dispatch table drifted from "
                    "EXPECTED_WORKER_HOOKS in repro/analysis/races.py "
                    "(" + "; ".join(parts) + ") — re-audit the hook "
                    "bodies and update the expected set")]

    # -- operator hook bodies ----------------------------------------------

    def _scan_operators(self, module: ModuleSource) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {stmt.name: stmt for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)}
            # hooks defined here, plus self-methods they call
            # (transitively, within the class)
            roots = [name for name in methods
                     if name in EXPECTED_WORKER_HOOKS]
            reachable: list[str] = []
            queue = list(roots)
            while queue:
                name = queue.pop()
                if name in reachable:
                    continue
                reachable.append(name)
                # references count, not just calls: a hook may hand a
                # bound helper on to code that calls it later
                for node in ast.walk(methods[name]):
                    if isinstance(node, ast.Attribute) \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id == "self" \
                            and node.attr in methods:
                        queue.append(node.attr)
            for name in reachable:
                context = f"worker hook {cls.name}.{name}"
                findings.extend(_WriteScanner(
                    self, module, methods[name], context).scan())
        return findings

    def _scan_stages(self) -> list[Finding]:
        """The worker-executed pipeline surface — the dispatched entry
        points and everything they reach (the per-block pass, the scan
        step, the parallel-safe stages' ``apply``) — gets the same
        shared-write scan as the operator hooks."""
        module = self._sources[self.PIPELINE]
        methods = self._pipeline_methods(module)
        entries = {fn.attr for fn in self._dispatched(self._class_def(
                       self._sources[self.SCHEDULER], self.DRIVER))
                   if isinstance(fn, ast.Attribute) and fn.attr in methods}
        findings: list[Finding] = []
        for cls, func in self._worker_surface(module, entries):
            context = f"worker-executed {cls.name}.{func.name}"
            findings.extend(_WriteScanner(self, module, func,
                                          context).scan())
        return findings

    @staticmethod
    def _class_def(module: ModuleSource, name: str) -> ast.ClassDef:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        raise LookupError(f"{name} not found in {module.path}")
