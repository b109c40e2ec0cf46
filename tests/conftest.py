"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.storage import Catalog, Column, DataType, TableSchema

from answers import Answers


@pytest.fixture(scope="session")
def answers():
    """The recorded answers (``tests/answers.py``); under
    ``ANSWERS_RECORD=1`` the records the session visited are written at
    its end."""
    book = Answers()
    yield book
    book.write()


@pytest.fixture
def catalog() -> Catalog:
    return Catalog()


@pytest.fixture
def users_orders_db():
    """A NeurDB with two small joined tables, analyzed and indexed."""
    db = repro.connect()
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, status TEXT)")
    rng = np.random.default_rng(42)
    cities = ["sg", "ny", "ldn", "tok"]
    statuses = ["paid", "open", "void"]
    for i in range(60):
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 40}, '{cities[i % 4]}')")
    for i in range(200):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 60}, "
                   f"{round(float(i) * 1.5 + 1, 2)}, "
                   f"'{statuses[i % 3]}')")
    db.execute("CREATE INDEX idx_users_id ON users (id)")
    db.execute("ANALYZE")
    return db


@pytest.fixture
def simple_schema() -> TableSchema:
    return TableSchema("t", [
        Column("id", DataType.INT, unique=True),
        Column("name", DataType.TEXT),
        Column("score", DataType.FLOAT),
        Column("active", DataType.BOOL),
    ])
