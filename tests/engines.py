"""Engine switching for tests that run one statement on every engine."""

from __future__ import annotations

from repro.exec.executor import Executor


def with_engine(db, engine: str) -> Executor:
    """An executor over ``db``'s catalog and clock on ``engine``, carrying
    the session executor's other knobs."""
    session = db.executor
    return Executor(db.catalog, db.clock, engine=engine,
                    workers=session.workers, morsel_rows=session.morsel_rows,
                    faults=session.faults, retry_limit=session.retry_limit,
                    registry=session.registry, nodes=session.nodes)
