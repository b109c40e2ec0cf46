"""EXPLAIN / EXPLAIN ANALYZE rendering over charged virtual time.

``EXPLAIN`` renders the optimizer's plan tree (estimates only, nothing
executed).  ``EXPLAIN ANALYZE`` executes the statement under a scoped
:class:`~repro.obs.trace.Tracer` and annotates every operator with what
it actually charged: per-category virtual seconds (exact fixed-point
sums rendered as floats), rows out, and buffer-pool page touches.  The
per-operator times sum to the statement's charged total per category —
anything charged outside an operator span (plan-time costs, retry
backoff) lands in an explicit ``(other)`` bucket instead of vanishing.

The annotation is engine-independent: row, batch (fused or not), and
parallel execution attribute to the same plan-node spans, so the same
query EXPLAINs identically everywhere (the placed engines additionally
report workers, tasks and modeled makespan).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common import categories as cat
from repro.obs.trace import Span, Tracer, from_fix


def _fmt_seconds(seconds: float) -> str:
    return f"{seconds:.9f}"


def _fmt_charged(charged: dict[str, float]) -> str:
    return ", ".join(f"{category}={_fmt_seconds(seconds)}"
                     for category, seconds in sorted(charged.items()))


def _node_annotation(span: Optional[Span], rows_out: Optional[int]) -> str:
    if span is None:
        parts = ["time=0.000000000"]
    else:
        parts = [f"time={_fmt_seconds(span.total())}"]
    if rows_out is not None:
        parts.append(f"rows_out={rows_out}")
    if span is not None:
        pages = span.count(cat.BUFFER_HIT, cat.BUFFER_MISS)
        if pages:
            parts.append(f"pages={pages}")
        charged = span.charged()
        if charged:
            parts.append(f"charged [{_fmt_charged(charged)}]")
    return "actual: " + " ".join(parts)


def _operator_index(root_op) -> dict[int, Any]:
    """Map plan ``node_id`` -> operator instance by walking the operator
    tree (children live in the private ``_left``/``_right``/``_child``
    slots; left-to-right matches plan order)."""
    index: dict[int, Any] = {}
    stack = [root_op]
    while stack:
        op = stack.pop()
        node = getattr(op, "plan_node", None)
        if node is not None:
            index[node.node_id] = op
        for attr in ("_child", "_right", "_left"):
            child = getattr(op, attr, None)
            if child is not None:
                stack.append(child)
    return index


def explain_plan(plan, title: Optional[str] = None) -> str:
    """Plain ``EXPLAIN``: the estimated plan tree, nothing executed.
    ``title`` (``Update on t``) heads the tree of a statement whose plan
    is the scan that finds its victims."""
    if title is None:
        return plan.pretty()
    return f"{title}\n{plan.pretty(2)}"


def _fmt_exchange(record: dict) -> str:
    return (f"exchange {record['kind']} ({record['label']}): "
            f"rows={record['rows']} bytes={record['bytes']} "
            f"messages={record['messages']} "
            f"net={_fmt_seconds(record['seconds'])}")


def explain_analyze(plan, root_op, tracer: Tracer,
                    parallel_stats: Optional[dict] = None,
                    distributed_stats: Optional[dict] = None,
                    title: Optional[str] = None) -> tuple[str, dict]:
    """Render an executed plan with per-operator charged annotations.

    Returns ``(text, structured)`` where ``structured`` is the
    machine-readable form stored in ``ResultSet.extra['explain']``.
    Reconciliation is part of the contract: the per-operator charged
    seconds plus the ``(other)`` bucket equal the trace totals exactly
    (they are computed from the same fixed-point sums).  Under the
    distributed engine each exchange (shuffle/broadcast/gather) renders
    beneath the plan node that triggered it with rows shipped, bytes on
    the wire, and modeled network seconds; the network charges were made
    under that operator's span, so the ``(other)`` bucket stays empty.
    ``title`` as in :func:`explain_plan`: for UPDATE / DELETE the tree is
    the victim scan and the write loop's charges are the ``(other)``.
    """
    ops_by_node = _operator_index(root_op) if root_op is not None else {}
    exchanges_by_node: dict[Any, list[dict]] = {}
    for record in (distributed_stats or {}).get("exchanges", []):
        exchanges_by_node.setdefault(record.get("node_id"), []).append(record)

    lines: list[str] = []
    nodes: list[dict] = []
    attributed_fix: dict[str, int] = {}

    def render(node, indent: int) -> None:
        span = tracer.node_span(node.node_id)
        op = ops_by_node.get(node.node_id)
        rows_out = getattr(op, "rows_out", None) if op is not None else None
        pad = " " * indent
        lines.append(pad + f"{node.label} (rows={node.est_rows:.0f}, "
                           f"cost={node.est_cost:.6f})")
        lines.append(pad + "  " + _node_annotation(span, rows_out))
        node_exchanges = exchanges_by_node.pop(node.node_id, [])
        for record in node_exchanges:
            lines.append(pad + "  " + _fmt_exchange(record))
        charged = span.charged() if span is not None else {}
        if span is not None:
            for category, value in span.fix.items():
                attributed_fix[category] = (
                    attributed_fix.get(category, 0) + value)
        nodes.append({
            "node_id": node.node_id,
            "label": node.label,
            "est_rows": node.est_rows,
            "est_cost": node.est_cost,
            "rows_out": rows_out,
            "time": span.total() if span is not None else 0.0,
            "charged": charged,
            "pages": (span.count(cat.BUFFER_HIT, cat.BUFFER_MISS)
                      if span is not None else 0),
            "counts": dict(span.counts) if span is not None else {},
            "depth": indent // 2,
            "exchanges": node_exchanges,
        })
        for child in node.children:
            render(child, indent + 2)

    if title is not None:
        lines.append(title)
    render(plan, 0 if title is None else 2)

    totals_fix = tracer.fix_totals()
    other = {category: from_fix(value - attributed_fix.get(category, 0))
             for category, value in sorted(totals_fix.items())
             if value != attributed_fix.get(category, 0)}
    totals = {category: from_fix(value)
              for category, value in sorted(totals_fix.items())}
    total_seconds = from_fix(sum(totals_fix.values()))

    header = [f"total charged: {_fmt_seconds(total_seconds)} s"]
    if totals:
        header.append(f"  by category: [{_fmt_charged(totals)}]")
    if other:
        header.append(f"  (other, outside operators): "
                      f"[{_fmt_charged(other)}]")
    task_spans = tracer.spans_of_kind("task")
    placed = distributed_stats if distributed_stats is not None \
        else parallel_stats
    if placed is not None:
        line = ("parallel: " if placed is parallel_stats
                else f"distributed: nodes={placed['nodes']} ")
        header.append(f"{line}workers={placed['workers']} "
                      f"tasks={placed['tasks']} makespan="
                      f"{_fmt_seconds(placed['virtual_makespan'])}")
    if distributed_stats is not None:
        net_rows = distributed_stats.get("rows_shuffled", 0)
        net_bytes = distributed_stats.get("bytes_on_wire", 0)
        net_seconds = distributed_stats.get("exchange_seconds", 0.0)
        header.append(f"  network: rows_shuffled={net_rows} "
                      f"bytes_on_wire={net_bytes} "
                      f"net={_fmt_seconds(net_seconds)}")
        for leftover in exchanges_by_node.values():
            for record in leftover:
                header.append("  " + _fmt_exchange(record))

    text = "\n".join(header) + "\n" + "\n".join(lines)
    structured = {
        "total": total_seconds,
        "totals": totals,
        "other": other,
        "nodes": nodes,
        "tasks": len(task_spans),
        "parallel": parallel_stats,
        "distributed": distributed_stats,
    }
    return text, structured


def explain_statement_trace(tracer: Tracer) -> tuple[str, dict]:
    """EXPLAIN ANALYZE fallback for statements with no plan tree (DML,
    DDL, PREDICT): render the traced span totals by category."""
    totals = tracer.category_totals()
    total_seconds = from_fix(sum(tracer.fix_totals().values()))
    lines = [f"total charged: {_fmt_seconds(total_seconds)} s"]
    if totals:
        lines.append(f"  by category: [{_fmt_charged(totals)}]")
    structured = {"total": total_seconds, "totals": totals,
                  "other": {}, "nodes": [], "tasks": 0, "parallel": None}
    return "\n".join(lines), structured
