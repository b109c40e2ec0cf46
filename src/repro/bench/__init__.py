"""Experiment drivers for the paper's figures that run in virtual time or
report real losses: 6(c), 7(a), 7(b) and 8.

Each ``run_figNx`` function returns structured rows; the ``benchmarks/``
pytest files call them with scaled-down parameters, print the paper-style
tables, and assert the headline shapes.  Figs. 6(a) and 6(b) are wall-clock
measurements against PostgreSQL+P and have no driver here: see
``benchmarks/postgres_plus_p.py``.
"""

from repro.bench.fig6 import Fig6cResult, run_fig6c
from repro.bench.fig7 import (
    Fig7aRow,
    Fig7bPoint,
    Fig7bResult,
    run_fig7a,
    run_fig7b,
)
from repro.bench.fig8 import (
    Fig8Cell,
    Fig8Result,
    pretrain_neurdb_qo,
    run_fig8,
)
from repro.bench.reporting import format_table, geometric_mean

__all__ = [
    "Fig6cResult",
    "Fig7aRow",
    "Fig7bPoint",
    "Fig7bResult",
    "Fig8Cell",
    "Fig8Result",
    "format_table",
    "geometric_mean",
    "pretrain_neurdb_qo",
    "run_fig6c",
    "run_fig8",
    "run_fig7a",
    "run_fig7b",
]
