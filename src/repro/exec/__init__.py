"""Query execution: expression compiler, operators, and the executor.

Three engines run one operator tree's compiled pipelines: the
vectorized batch engine (default) and the morsel-driven parallel and
sharded distributed engines — one scheduler placing the same pipelines
on workers and nodes, ``parallel`` its one-node case.  Their reference
is outside the engine: stdlib ``sqlite3`` and recorded answers; see
docs/execution.md, docs/parallel.md and docs/distributed.md.
"""

from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock
from repro.exec.executor import Executor, ResultSet
from repro.exec.expr import (
    RowLayout,
    compile_expr,
    compile_expr_cached,
    compile_expr_vector,
    compile_predicate_batch,
    to_bool,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Executor",
    "ResultSet",
    "RowBlock",
    "RowLayout",
    "compile_expr",
    "compile_expr_cached",
    "compile_expr_vector",
    "compile_predicate_batch",
    "to_bool",
]
