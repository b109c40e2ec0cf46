"""repro — a from-scratch Python reproduction of NeurDB (CIDR 2025).

Public entry points:

* :func:`repro.connect` — an in-process NeurDB instance executing SQL,
  including the paper's ``PREDICT`` extension.
* :mod:`repro.ai` — the in-database AI ecosystem (engine, streaming, model
  manager with incremental updates, monitor, ARM-Net).
* :mod:`repro.learned` — the fast-adaptive learned components (concurrency
  control and query optimizer) plus their baselines.
* :mod:`repro.workloads` — synthetic stand-ins for Avazu / Diabetes / YCSB /
  TPC-C / STATS.
"""

from repro.common.errors import RetryPolicy
from repro.common.faults import FaultPlan
from repro.db import NeurDB, connect

__version__ = "1.0.0"

__all__ = ["FaultPlan", "NeurDB", "RetryPolicy", "connect", "__version__"]
