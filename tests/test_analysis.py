"""The invariant analyzer suite: determinism lint, charge-category
registry, and parallel-hook race analysis.

Three kinds of coverage:

* **Seeded true positives** — each rule fires on a minimal snippet (and
  on the acceptance-criteria injections into the real
  ``exec/operators.py`` source).
* **False-positive guards** — known-clean idioms (seeded RNG, sorted
  set iteration, morsel-local writes, locked counter updates) produce
  nothing.
* **The tree itself** — ``src/repro`` analyzes to zero unsuppressed
  findings, which is also what the blocking CI job asserts.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis import (
    ALL_PASSES,
    ChargeCategoryPass,
    DeterminismPass,
    load_module,
    load_tree,
    run_passes,
    unsuppressed,
)
from repro.analysis.races import EXPECTED_WORKER_HOOKS, RaceAnalysisPass
from repro.common import categories

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def findings_for(path: str, text: str, passes=None):
    mod = load_module(path, text)
    lineup = [p() for p in (passes or ALL_PASSES)]
    return unsuppressed(run_passes([mod], lineup))


def rules_of(findings):
    return [f.rule for f in findings]


# -- determinism lint --------------------------------------------------------


class TestDeterminismPass:
    def test_stdlib_global_rng_flagged(self):
        found = findings_for("repro/x.py",
                             "import random\nv = random.random()\n",
                             [DeterminismPass])
        assert rules_of(found) == ["unseeded-rng"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["unseeded-rng"]

    def test_none_seed_flagged_and_explicit_seed_clean(self):
        src = ("import numpy as np\n"
               "a = np.random.default_rng(None)\n"
               "b = np.random.default_rng(7)\n"
               "c = np.random.default_rng(seed=3)\n")
        found = findings_for("repro/x.py", src, [DeterminismPass])
        assert [(f.rule, f.line) for f in found] == [("unseeded-rng", 2)]

    def test_numpy_legacy_global_flagged(self):
        src = "import numpy as np\nv = np.random.rand(3)\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["unseeded-rng"]

    def test_wallclock_flagged(self):
        src = "import time\nt = time.time()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["wallclock"]

    def test_wallclock_through_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["wallclock"]

    def test_id_ordering_flagged(self):
        src = "def f(xs):\n    return sorted(xs, key=id)\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["id-ordering"]

    def test_set_iteration_into_output_flagged(self):
        src = ("def f(xs):\n"
               "    out = []\n"
               "    for x in set(xs):\n"
               "        out.append(x)\n"
               "    return out\n")
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["set-iteration"]

    def test_list_of_set_flagged(self):
        src = ("def f(xs):\n"
               "    s = set(xs)\n"
               "    return list(s)\n")
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["set-iteration"]

    def test_sorted_set_and_membership_clean(self):
        src = ("def f(xs, y):\n"
               "    s = set(xs)\n"
               "    if y in s:\n"
               "        return sorted(s)\n"
               "    total = 0\n"
               "    for x in s:\n"
               "        total += x\n"
               "    return total\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_seeded_constructs_clean(self):
        src = ("import random\n"
               "import numpy as np\n"
               "r = random.Random(7)\n"
               "g = np.random.default_rng(0)\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_pragma_with_reason_suppresses(self):
        src = ("import time\n"
               "t = time.time()  # repro: nondeterministic-ok "
               "wall time reported to humans only\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_bare_pragma_is_itself_a_finding(self):
        src = ("import time\n"
               "t = time.time()  # repro: nondeterministic-ok\n")
        found = findings_for("repro/x.py", src, [DeterminismPass])
        assert sorted(rules_of(found)) == ["bare-pragma", "wallclock"]

    def test_rng_module_allowlisted(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        mod = load_module("repro/common/rng.py", src)
        assert unsuppressed(run_passes([mod], [DeterminismPass()])) == []


# -- charge-category registry ------------------------------------------------


class TestChargeCategoryPass:
    def test_registered_literal_clean(self):
        src = "def f(clock):\n    clock.advance(1.0, \"scan\")\n"
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_misspelled_literal_flagged(self):
        src = "def f(clock):\n    clock.advance(1.0, \"sacn\")\n"
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unknown-category"]

    def test_registry_constant_clean(self):
        src = ("from repro.common import categories as cat\n"
               "def f(clock):\n"
               "    clock.advance(1.0, cat.SCAN)\n"
               "    clock.advance_batch(0.1, 5, category=cat.FILTER)\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_unresolved_constant_flagged(self):
        src = ("from repro.common import categories as cat\n"
               "def f(clock):\n"
               "    clock.advance(1.0, cat.NO_SUCH_THING)\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unresolved-category"]

    def test_default_category_clean(self):
        assert findings_for("repro/x.py",
                            "def f(clock):\n    clock.advance(1.0)\n",
                            [ChargeCategoryPass]) == []

    def test_dynamic_category_warned(self):
        src = "def f(clock, which):\n    clock.advance(1.0, which)\n"
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["dynamic-category"]

    def test_advance_charges_literal_tuples_checked(self):
        src = ("def f(clock, n):\n"
               "    clock.advance_charges([(0.1, n, \"scan\"),"
               " (0.2, n, \"flter\")])\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unknown-category"]

    def test_absorb_category_checked(self):
        src = "def f(clock):\n    clock.absorb(1.0, \"nope\")\n"
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unknown-category"]

    def test_bare_clock_construction_flagged(self):
        """True positive: a private ``SimClock()`` outside the clock
        module hides its charges from any attached tracer."""
        src = ("from repro.common.simtime import SimClock\n"
               "def f():\n"
               "    clock = SimClock()\n"
               "    clock.advance(1.0, \"scan\")\n"
               "    return clock\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["untraced-clock"]

    def test_guarded_default_fallback_clean(self):
        """False-positive guard: the standalone default
        ``clock if clock is not None else SimClock()`` is structurally
        exempt — it only fires when no session clock exists."""
        src = ("from repro.common.simtime import SimClock\n"
               "def f(clock=None):\n"
               "    clock = clock if clock is not None else SimClock()\n"
               "    clock.advance(1.0, \"scan\")\n"
               "    return clock\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_untraced_clock_pragma_suppresses(self):
        src = ("from repro.common.simtime import SimClock\n"
               "def f():\n"
               "    return SimClock()"
               "  # repro: untraced-clock-ok isolated figure harness\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_every_literal_in_tree_is_registered(self):
        """Acceptance criterion: all charge-category literals across
        src/repro resolve to the central registry."""
        modules = load_tree(SRC, base=ROOT / "src")
        found = unsuppressed(run_passes(modules, [ChargeCategoryPass()]))
        assert found == [], "\n".join(f.location() + " " + f.message
                                      for f in found)

    def test_registry_is_consistent(self):
        for name, desc in categories.REGISTRY.items():
            assert categories.is_registered(name)
            assert isinstance(desc, str) and desc


# -- race analysis -----------------------------------------------------------


OPERATORS_SRC = (SRC / "exec" / "operators.py").read_text(encoding="utf-8")
SCHEDULER_SRC = (SRC / "exec" / "distributed.py").read_text(
    encoding="utf-8")
PIPELINE_SRC = (SRC / "exec" / "pipeline.py").read_text(encoding="utf-8")


def race_findings(operators=OPERATORS_SRC, scheduler=SCHEDULER_SRC,
                  pipeline=PIPELINE_SRC):
    # the order tools/analyze.py walks them in
    modules = [
        load_module("repro/exec/distributed.py", scheduler),
        load_module("repro/exec/operators.py", operators),
        load_module("repro/exec/pipeline.py", pipeline),
    ]
    return unsuppressed(run_passes(modules, [RaceAnalysisPass()]))


class TestRaceAnalysisPass:
    def test_real_tree_clean(self):
        assert race_findings() == []

    def test_unlocked_hook_write_flagged(self):
        """Acceptance criterion: an unlocked shared-attribute write in a
        parallel hook produces a finding."""
        # the signature wraps: consume to the colon ending it
        match = re.search(r"    def partial_block\(self.*?:\n",
                          OPERATORS_SRC, re.S)
        assert match is not None
        injected = (OPERATORS_SRC[:match.end()]
                    + "        self._blocks_seen = 1\n"
                    + OPERATORS_SRC[match.end():])
        found = race_findings(operators=injected)
        assert any(f.rule == "unlocked-shared-write"
                   and "partial_block" in f.message for f in found)

    def test_unlocked_mutating_call_flagged(self):
        # the signature may wrap: consume to the colon ending it
        match = re.search(r"    def sort_block\(self.*?:\n",
                          OPERATORS_SRC, re.S)
        assert match is not None
        injected = (OPERATORS_SRC[:match.end()]
                    + "        self._runs.append(1)\n"
                    + OPERATORS_SRC[match.end():])
        found = race_findings(operators=injected)
        assert any(f.rule == "unlocked-shared-write"
                   and "sort_block" in f.message for f in found)

    SORT_DISPATCH = ("            runs = self.dispatch(placed, "
                     "self._op_task(op, op.sort_block))\n")

    def test_dispatch_drift_detected(self):
        """A new hook handed to the one ``dispatch`` without a matching
        EXPECTED_WORKER_HOOKS entry is a finding — and so is an audited
        hook that is no longer dispatched."""
        assert self.SORT_DISPATCH in SCHEDULER_SRC
        drifted = SCHEDULER_SRC.replace(
            self.SORT_DISPATCH, self.SORT_DISPATCH
            + "            self.dispatch(placed, op.shiny_new_hook)\n")
        found = race_findings(scheduler=drifted)
        assert any(f.rule == "dispatch-drift"
                   and "shiny_new_hook" in f.message for f in found)
        dropped = SCHEDULER_SRC.replace(
            self.SORT_DISPATCH, "            runs = []\n")
        found = race_findings(scheduler=dropped)
        assert any(f.rule == "dispatch-drift"
                   and "no longer dispatched: ['sort_block']" in f.message
                   for f in found)

    def test_dispatch_seen_through_tracing_shim(self):
        """The derived hook set must see through the ``_op_task``
        wrapper: dropping a shimmed hook from EXPECTED_WORKER_HOOKS
        would drift, so the shimmed form itself must derive cleanly."""
        assert "sort_block" in EXPECTED_WORKER_HOOKS
        drifted = SCHEDULER_SRC.replace(
            self.SORT_DISPATCH,
            self.SORT_DISPATCH.replace("sort_block", "shim_only_hook"))
        assert drifted != SCHEDULER_SRC
        found = race_findings(scheduler=drifted)
        assert any(f.rule == "dispatch-drift"
                   and "shim_only_hook" in f.message for f in found)

    def test_hooks_derived_through_the_block_pass(self):
        """The per-block pass is dispatched as ``block_pass.task``; the
        hooks it reaches (the scan step, the parallel-safe stages) must
        be derived by following it, and a shared write inside it is a
        finding."""
        drifted = PIPELINE_SRC.replace(
            "        out = self.op.scan_block(", 
            "        self.op.unaudited_scan_hook()\n"
            "        out = self.op.scan_block(")
        assert drifted != PIPELINE_SRC
        found = race_findings(pipeline=drifted)
        assert any(f.rule == "dispatch-drift"
                   and "unaudited_scan_hook" in f.message for f in found)
        racy = PIPELINE_SRC.replace(
            "        lens = [0] * len(self.ops)\n",
            "        lens = [0] * len(self.ops)\n"
            "        self.passes_run = 1\n")
        assert racy != PIPELINE_SRC
        found = race_findings(pipeline=racy)
        assert any(f.rule == "unlocked-shared-write"
                   and "BlockPass.run" in f.message for f in found)

    def test_partial_block_helpers_are_audited(self):
        """partial_block runs the serial sink's partitioner: a shared
        write in any helper it reaches is a finding."""
        match = re.search(r"    def _partition\(self.*?:\n",
                          OPERATORS_SRC, re.S)
        assert match is not None
        injected = (OPERATORS_SRC[:match.end()]
                    + "        self._groups_seen = 1\n"
                    + OPERATORS_SRC[match.end():])
        found = race_findings(operators=injected)
        assert any(f.rule == "unlocked-shared-write"
                   and "_partition" in f.message for f in found)

    def test_expected_hooks_match_scheduler_contract(self):
        # the serial-lane hooks must never appear in the worker set
        serial_only = {"merge_build", "merge_runs", "group_partials",
                       "finish_partials", "distinct_block", "limit_block"}
        assert not (EXPECTED_WORKER_HOOKS & serial_only)

    def test_morsel_local_writes_clean(self):
        """Index-local stores and local mutations — the scheduler's own
        idiom — must not be flagged."""
        src = ("import threading\n"
               "class DistributedScheduler:\n"
               "    def _go(self, items):\n"
               "        results = [None] * len(items)\n"
               "        def work():\n"
               "            for i in range(len(items)):\n"
               "                local = []\n"
               "                local.append(i)\n"
               "                results[i] = local\n"
               "        t = threading.Thread(target=work)\n"
               "        t.start()\n")
        mod = load_module("repro/exec/distributed.py", src)
        assert unsuppressed(run_passes([mod], [RaceAnalysisPass()])) == []


# -- acceptance-criteria injections against the full lineup ------------------


class TestInjections:
    def test_unseeded_random_in_operators(self):
        injected = (OPERATORS_SRC
                    + "\n\nimport random\n\n"
                      "def _jitter():\n    return random.random()\n")
        found = findings_for("repro/exec/operators.py", injected)
        assert any(f.rule == "unseeded-rng" for f in found)

    def test_misspelled_category_in_operators(self):
        injected = OPERATORS_SRC.replace("cat.SCAN", '"sacn"', 1)
        assert injected != OPERATORS_SRC
        found = findings_for("repro/exec/operators.py", injected)
        assert any(f.rule == "unknown-category" for f in found)


# -- whole-tree gate ---------------------------------------------------------


def test_src_tree_has_no_unsuppressed_findings():
    """The blocking CI gate, asserted in tier-1 too: the tree analyzes
    clean under every pass."""
    modules = load_tree(SRC, base=ROOT / "src")
    found = unsuppressed(run_passes(modules,
                                    [p() for p in ALL_PASSES]))
    assert found == [], "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in found)
