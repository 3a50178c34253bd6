"""Constant interning: domain values ↔ dense integer codes.

An :class:`InternTable` is the dictionary-encoding half of the columnar
layout: every constant that appears in a relation is assigned a small
dense int on first sight, columns store only the ints, and joins compare
ints instead of hashing arbitrary Python values.  Tables are plain
instances — there is deliberately no process-wide table, so independent
databases cannot leak domains into each other and tests stay hermetic.

Equality semantics are inherited from Python, on purpose: the tuple
layout stores facts in ``set``s, where ``1``, ``True`` and ``1.0`` are
the *same* element (equal values, equal hashes — the first one inserted
is the representative).  The table therefore keys codes by the plain
value, so two values receive the same code exactly when the tuple layout
would consider the facts equal.  That is what makes the columnar path
observationally identical to the tuple path rather than subtly stricter.

Round-trips hold for every codec-native value (``None``/``bool``/``int``
/``float``/``str``/``bytes`` and nested ``tuple`` containers — anything
:func:`repro.datalog.database.pack_value` accepts and hashes): interning
is append-only, so a code, once issued, maps back to the first-seen
representative forever, including across :meth:`Database.copy` (copies
share the table).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class InternTable:
    """Append-only bijection between hashable constants and dense ints."""

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self):
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        # intern() may race when concurrent evaluations encode fresh EDB
        # predicates over a shared base table (the service layer's readers);
        # lookups stay lock-free — dict.get is atomic under the GIL and the
        # table never shrinks.
        self._lock = threading.Lock()

    def intern(self, value) -> int:
        """The code for *value*, assigning the next dense int on first sight."""
        code = self._codes.get(value)
        if code is not None:
            return code
        with self._lock:
            code = self._codes.get(value)
            if code is None:
                code = len(self._values)
                self._values.append(value)
                self._codes[value] = code
            return code

    def intern_many(self, values) -> List[int]:
        """Codes for *values*, in order: exactly what an :meth:`intern` loop
        assigns, under one lock (``_values`` grows before ``_codes`` publishes)."""
        values = list(values)
        codes = self._codes
        with self._lock:
            fresh = [value for value in dict.fromkeys(values) if value not in codes]
            start = len(self._values)
            self._values.extend(fresh)
            codes.update(zip(fresh, range(start, start + len(fresh))))
        return list(map(codes.__getitem__, values))

    def lookup(self, value) -> Optional[int]:
        """The code for *value* if already interned, else ``None``."""
        return self._codes.get(value)

    def value(self, code: int):
        """The representative value behind *code* (inverse of :meth:`intern`)."""
        return self._values[code]

    def values(self) -> List[object]:
        """The live code→value list (read-only; index = code)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._codes

    def __repr__(self) -> str:
        return f"InternTable(size={len(self._values)})"
