"""The independent answer key: SQLite (standard library) over the same data.

:class:`Reference` copies every table of a generated
:class:`~repro.storage.columnar.Store` into an in-memory SQLite
database and mirrors each landed day, so it shares none of the
program's binder, optimizer or engines.  A small dialect adapter makes
SQLite order NULLs the way the program does (last ascending, first
descending), and :meth:`Reference.check` compares a result as a sorted
multiset with a float tolerance — and, for ``ORDER BY ... LIMIT``
queries whose cut falls inside a run of equal sort keys, accepts any
choice among the tied rows.
"""

from __future__ import annotations

import math
import re
import sqlite3
from collections import Counter

from repro.tpcds.schema import ALL_TABLES

_SQL_TYPES = {"INTEGER": "INTEGER", "DOUBLE": "REAL", "STRING": "TEXT"}
_ORDER_BY = re.compile(r"\bORDER\s+BY\b", re.IGNORECASE)
_LIMIT = re.compile(r"\bLIMIT\s+(\d+)\s*$", re.IGNORECASE)
_DIRECTION = re.compile(r"\s+(ASC|DESC)\s*$", re.IGNORECASE)


def _depth_zero(sql: str, pattern: re.Pattern) -> list[re.Match]:
    """Matches of ``pattern`` outside any parentheses."""
    depth, depths = 0, []
    for ch in sql:
        depths.append(depth)
        depth += (ch == "(") - (ch == ")")
    return [m for m in pattern.finditer(sql) if depths[m.start()] == 0]


def _split_top(text: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    return [item.strip() for item in items]


def order_by(sql: str) -> tuple[int, int, list[tuple[str, bool]]] | None:
    """The top-level ORDER BY clause as (start, end, [(expr, descending)])."""
    matches = _depth_zero(sql, _ORDER_BY)
    if not matches:
        return None
    start = matches[-1].end()
    limit = _depth_zero(sql, _LIMIT)
    end = limit[-1].start() if limit and limit[-1].start() > start else len(sql)
    items = []
    for item in _split_top(sql[start:end]):
        m = _DIRECTION.search(item)
        descending = bool(m) and m.group(1).upper() == "DESC"
        items.append((item[: m.start()] if m else item, descending))
    return start, end, items


def limit_of(sql: str) -> int | None:
    found = _depth_zero(sql, _LIMIT)
    return int(found[-1].group(1)) if found else None


def adapt(sql: str) -> str:
    """The program's dialect in SQLite's: explicit NULL placement."""
    clause = order_by(sql)
    if clause is None:
        return sql
    start, end, items = clause
    body = ", ".join(
        f"{expr} DESC NULLS FIRST" if desc else f"{expr} ASC NULLS LAST"
        for expr, desc in items
    )
    return f"{sql[:start]} {body} {sql[end:]}"


def _value_key(value) -> tuple:
    if value is None:
        return (0, 0.0)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            return (1, math.inf)
        return (1, float(f"{float(value):.9g}"))
    return (2, str(value))


def row_key(row) -> tuple:
    return tuple(_value_key(v) for v in row)


def _same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6) or (
            math.isnan(a) and math.isnan(b)
        )
    return a == b


def same_multiset(left: list[tuple], right: list[tuple]) -> bool:
    """Sorted-multiset equality, floats within a tolerance."""
    if len(left) != len(right):
        return False
    for a, b in zip(sorted(left, key=row_key), sorted(right, key=row_key)):
        if len(a) != len(b) or not all(map(_same_value, a, b)):
            return False
    return True


class Reference:
    """An in-memory SQLite copy of a store, kept in step with its writes."""

    def __init__(self, store, replace: dict | None = None):
        """Copy ``store``; ``replace`` maps table names to the stored
        tables to load instead (a table as it was before writes)."""
        self.db = sqlite3.connect(":memory:")
        # The program's LIKE is case-sensitive; SQLite's is not by default.
        self.db.execute("PRAGMA case_sensitive_like = ON")
        replace = replace or {}
        for table in ALL_TABLES:
            if store.has(table.name):
                self._load(replace.get(table.name) or store.stored_table(table.name))

    def _load(self, stored) -> None:
        columns = stored.definition.columns
        decl = ", ".join(f"{c.name} {_SQL_TYPES[c.dtype.name]}" for c in columns)
        self.db.execute(f"CREATE TABLE {stored.name} ({decl})")
        for part in stored.partitions:
            self.insert(stored.name, {c.name: part.chunk(c.name).values for c in columns})
        if stored.definition.partition_column is not None:
            # Index the fact tables' surrogate keys: SQLite's own plans
            # for the star joins are then fast enough to check every
            # distinct answer of a run.
            for c in columns:
                if c.name.endswith("_sk"):
                    self.db.execute(f"CREATE INDEX ix_{c.name} ON {stored.name} ({c.name})")

    def insert(self, table: str, data: dict[str, list]) -> tuple[int, int]:
        """Append rows; returns the rowid range they occupy."""
        names = list(data)
        (before,) = self.db.execute(f"SELECT coalesce(max(rowid), 0) FROM {table}").fetchone()
        self.db.executemany(
            f"INSERT INTO {table} ({', '.join(names)}) VALUES ({', '.join('?' * len(names))})",
            zip(*(data[n] for n in names)),
        )
        (after,) = self.db.execute(f"SELECT coalesce(max(rowid), 0) FROM {table}").fetchone()
        return before + 1, after

    def delete(self, table: str, rowids: tuple[int, int]) -> None:
        self.db.execute(f"DELETE FROM {table} WHERE rowid BETWEEN ? AND ?", rowids)

    def rows(self, sql: str) -> list[tuple]:
        return self.db.execute(adapt(sql)).fetchall()

    def close(self) -> None:
        self.db.close()

    def check(self, sql: str, columns: tuple[str, ...], rows: list[tuple]) -> str | None:
        """None when ``rows`` is a correct answer to ``sql``, else why not."""
        expected = self.rows(sql)
        if same_multiset(rows, expected):
            return None
        limit = limit_of(sql)
        clause = order_by(sql)
        if limit is None or clause is None or len(rows) != len(expected):
            return f"{len(rows)} rows, SQLite has {len(expected)}"
        # The cut may fall inside a run of equal sort keys: any choice of
        # tied rows is correct, so compare against the unlimited answer.
        names = [c.lower() for c in columns]
        key_index = []
        for expr, _ in clause[2]:
            name = expr.strip().lower().split(".")[-1]
            if name not in names:
                return "rows differ from SQLite (sort key not an output column)"
            key_index.append(names.index(name))
        everything = self.rows(sql[: _depth_zero(sql, _LIMIT)[-1].start()])
        if not everything:
            return "rows differ from SQLite"
        sort_key = lambda r: tuple(_value_key(r[i]) for i in key_index)  # noqa: E731
        boundary = sort_key(everything[len(expected) - 1])
        before = Counter(row_key(r) for r in everything[: len(expected)] if sort_key(r) != boundary)
        tied = Counter(row_key(r) for r in everything if sort_key(r) == boundary)
        got = Counter(row_key(r) for r in rows)
        if (got - before) <= tied and not (before - got):
            return None
        return "rows differ from SQLite"
