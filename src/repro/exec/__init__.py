"""Query execution: expression compiler, operators, and the executor.

Four engines share one operator tree: the vectorized batch engine
(default), the morsel-driven parallel and sharded distributed engines that
place the same compiled pipelines on workers and nodes, and the
row-at-a-time reference engine — see docs/execution.md, docs/parallel.md
and docs/distributed.md.
"""

from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock
from repro.exec.executor import Executor, ResultSet
from repro.exec.parallel import (
    DEFAULT_MORSEL_ROWS,
    DEFAULT_WORKERS,
    MorselScheduler,
)
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
    "DEFAULT_MORSEL_ROWS",
    "DEFAULT_WORKERS",
    "Executor",
    "MorselScheduler",
    "ResultSet",
    "RowBlock",
    "RowLayout",
    "compile_expr",
    "compile_expr_cached",
    "compile_expr_vector",
    "compile_predicate_batch",
    "to_bool",
]
