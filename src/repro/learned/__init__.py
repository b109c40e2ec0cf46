"""Fast-adaptive learned database components: concurrency control (cc)
and query optimization (qo), each with the baselines the paper compares
against."""

from repro.learned import cc, qo

__all__ = ["cc", "qo"]
