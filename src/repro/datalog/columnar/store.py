"""The per-database columnar mirror: predicates encoded lazily, kept fresh.

A :class:`ColumnarStore` shadows one :class:`~repro.datalog.database.Database`
with interned :class:`~repro.datalog.columnar.relation.ColumnarRelation`
groups.  The tuple relations stay the source of truth; the store is an
acceleration structure with the same lifecycle as the database's hash
indexes:

* a predicate is **encoded on first use** in one bulk pass: one
  :meth:`InternTable.intern_many` call over all its values, sliced into
  ``array('q')`` columns (the tuple set has no duplicate rows to drop);
* encoded predicates are **maintained incrementally** by the database's
  mutation hooks — appends go through the same bulk intern and extend the
  columns, removals simply drop the
  predicate's encoding so the next use re-encodes (retractions are rare
  and batch-shaped; in-place columnar deletes are not worth their
  bookkeeping);
* ``Database.copy()`` **shares the intern table** with the clone (codes
  are append-only, so ordering is stable across copies) but re-encodes
  relations lazily, and an overlay's store chains to its base's so seed
  facts intern through the overlay into the same code space.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Optional, Tuple

from repro.datalog.columnar.interning import InternTable
from repro.datalog.columnar.relation import ColumnarRelation


class ColumnarStore:
    """Lazily encoded, incrementally maintained columnar view of a database."""

    __slots__ = ("_database", "table", "_groups")

    def __init__(self, database, table: Optional[InternTable] = None):
        self._database = database
        self.table = table if table is not None else InternTable()
        # predicate -> arity -> ColumnarRelation (only encoded predicates appear)
        self._groups: Dict[str, Dict[int, ColumnarRelation]] = {}

    def fork(self, database) -> "ColumnarStore":
        """A store for a copy of the owning database, sharing the intern table."""
        return ColumnarStore(database, table=self.table)

    def encoded(self, predicate: str) -> bool:
        """Whether *predicate* currently has a live columnar encoding."""
        return predicate in self._groups

    def parts(self, predicate: str) -> Tuple[ColumnarRelation, ...]:
        """The arity groups of *predicate*, encoding it on first use."""
        groups = self._groups.get(predicate)
        if groups is None:
            groups = self._encode(predicate)
        return tuple(groups.values())

    def group(self, predicate: str, arity: int) -> Optional[ColumnarRelation]:
        """The single arity group of *predicate*, or ``None`` when empty."""
        groups = self._groups.get(predicate)
        if groups is None:
            groups = self._encode(predicate)
        return groups.get(arity)

    def _encode(self, predicate: str) -> Dict[int, ColumnarRelation]:
        groups: Dict[int, ColumnarRelation] = {}
        self._append(groups, self._database._relations.get(predicate, ()))
        self._groups[predicate] = groups
        return groups

    def _append(self, groups: Dict[int, ColumnarRelation], rows) -> None:
        """Intern *rows* in bulk and append them to their arity groups.

        Codes are assigned row-major over all of *rows*, as a row-at-a-time
        loop would assign them, mixed arities included.
        """
        rows = list(rows)
        arities = dict.fromkeys(map(len, rows))  # in first-seen order
        if len(arities) > 1:
            self.table.intern_many(chain.from_iterable(rows))
        for arity in arities:
            same = rows if len(arities) == 1 else [row for row in rows if len(row) == arity]
            flat = self.table.intern_many(chain.from_iterable(same))
            columns = [array("q", flat[position::arity]) for position in range(arity)]
            group = groups.get(arity)
            if group is None:
                groups[arity] = ColumnarRelation(arity, columns)
            else:
                group.extend_columns(columns)

    # ------------------------------------------------------------------
    # Maintenance hooks (called by Database mutation paths)
    # ------------------------------------------------------------------
    def note_added(self, predicate: str, fresh) -> None:
        """Append tuples to an already-encoded predicate (no-op otherwise).

        *fresh* has already been deduped against the tuple relation by the
        caller, and encoded groups mirror that relation exactly, so the
        append cannot introduce duplicate rows.
        """
        groups = self._groups.get(predicate)
        if groups is not None:
            self._append(groups, fresh)

    def invalidate(self, predicate: str) -> None:
        """Drop a predicate's encoding (re-encoded lazily on next use)."""
        self._groups.pop(predicate, None)

    def column_distincts(self, predicate: str) -> Dict[int, int]:
        """Per-position distinct-code counts for the dominant arity group.

        The planner's column-aware cost model divides a relation's
        cardinality by the probe column's distinct count to estimate the
        rows per probe hit.  Mixed-arity relations report the group with
        the most rows — the one that dominates the join cost.
        """
        parts = self.parts(predicate)
        if not parts:
            return {}
        dominant = max(parts, key=len)
        return {
            position: dominant.distinct(position) for position in range(dominant.arity)
        }

    def __repr__(self) -> str:
        encoded = ", ".join(sorted(self._groups))
        return f"ColumnarStore(table={self.table!r}, encoded=[{encoded}])"
