"""One relation at one arity as parallel int columns.

A :class:`ColumnarRelation` stores the rows of a single predicate at a
single arity as per-position ``array('q')`` columns of intern codes,
plus two acceleration structures:

* a **packed row-key set** — every row folded into one Python int
  (:func:`pack_codes`), giving O(1) membership and C-speed set
  difference for dedup; keys are arity-seeded, so keys from relations
  of different arities can never collide inside a shared bucket (built
  lazily for bulk-encoded relations; the vector lane never reads it);
* **lazy per-position hash indexes** — ``code -> [row ids]``, built on
  first probe of a position and maintained on append, mirroring the
  tuple layout's persistent indexes.

Rows are append-only: the tuple layout remains the source of truth, and
retractions invalidate the whole columnar mirror of a predicate rather
than deleting in place (see :mod:`repro.datalog.columnar.store`).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Bits reserved per column in a packed row key.  Codes are dense intern
#: indexes, so 32 bits covers 4G distinct constants; keys of arity-k rows
#: are arbitrary-precision ints of ~32*(k+1) bits (the +1 is the arity
#: seed), which Python handles natively.
KEY_BITS = 32
_KEY_MASK = (1 << KEY_BITS) - 1


def pack_codes(codes: Sequence[int]) -> int:
    """Fold a code row into one arity-seeded int key.

    The layout is ``arity | c0 | c1 | ...`` in 32-bit lanes: the arity
    seed occupies the top lane, so ``(5,)`` and ``(0, 5)`` pack to
    different keys and a per-predicate bucket may safely mix arities.
    """
    key = len(codes)
    for code in codes:
        key = (key << KEY_BITS) | code
    return key


def arity_of_key(key: int) -> int:
    """Recover the arity seed from a packed key (0 for the empty row)."""
    if key == 0:
        return 0
    return (key.bit_length() - 1) // KEY_BITS


def unpack_key(key: int, arity: int) -> Tuple[int, ...]:
    """The code row behind a packed key of known arity."""
    codes = []
    for position in range(arity - 1, -1, -1):
        codes.append((key >> (KEY_BITS * position)) & _KEY_MASK)
    return tuple(codes)


class ColumnarRelation:
    """Append-only columnar rows of one predicate at one arity."""

    __slots__ = ("arity", "columns", "_keys", "_indexes", "_distinct", "_np")

    def __init__(self, arity: int, columns: Optional[Sequence[array]] = None):
        """Empty, or adopting the bulk encoder's *columns* of distinct rows
        (key set unbuilt; an adopted arity-0 relation holds the empty row)."""
        self.arity = arity
        if columns is None:
            self.columns: Tuple[array, ...] = tuple(array("q") for _ in range(arity))
            self._keys: Optional[set] = set()
        else:
            self.columns = tuple(columns)
            self._keys = None if arity else {pack_codes(())}
        # position -> code -> list of row ids (built lazily, maintained on append)
        self._indexes: Dict[int, Dict[int, List[int]]] = {}
        self._distinct: Dict[int, int] = {}
        # Vector-lane caches (ndarray copies of columns, sorted key arrays,
        # CSR probe indexes), keyed by (kind, position) with a row-count
        # stamp — appends simply make stale entries miss.  Owned here so the
        # caches survive across evaluations; see columnar/vector.py.
        self._np: Dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.columns[0]) if self.arity else len(self._keys)

    @property
    def keys(self) -> set:
        """The packed row keys, built on first use into a local and published
        whole, so a concurrent reader sees no key set or a complete one."""
        keys = self._keys
        if keys is None:
            keys = set(map(pack_codes, zip(*self.columns)))
            self._keys = keys
        return keys

    def extend_columns(
        self, columns: Sequence[Sequence[int]], keys: Optional[Iterable[int]] = None
    ) -> None:
        """Bulk append of rows known to be absent (no per-row re-check).

        *keys*, the rows' packed keys, are read only when the key set is
        built (packed from *columns* when omitted); an unbuilt one stays so.
        """
        start = len(self)
        for position, column in enumerate(columns):
            self.columns[position].extend(column)
        built = self._keys
        if built is not None:
            built.update(map(pack_codes, zip(*columns)) if keys is None else keys)
        self._note_appended(start)
        self._distinct.clear()

    def _note_appended(self, start: int) -> None:
        """Maintain already-built indexes for rows appended at *start*."""
        for position, index in self._indexes.items():
            column = self.columns[position]
            for row in range(start, len(column)):
                bucket = index.get(column[row])
                if bucket is None:
                    index[column[row]] = [row]
                else:
                    bucket.append(row)

    def index(self, position: int) -> Dict[int, List[int]]:
        """The hash index ``code -> [row ids]`` at *position* (built lazily)."""
        index = self._indexes.get(position)
        if index is None:
            index = {}
            for row, code in enumerate(self.columns[position]):
                bucket = index.get(code)
                if bucket is None:
                    index[code] = [row]
                else:
                    bucket.append(row)
            self._indexes[position] = index
        return index

    def distinct(self, position: int) -> int:
        """Number of distinct codes at *position* (cached until mutation).

        This is the column statistic the planner's column-aware cost model
        reads; served from a built index when one exists, else from one
        C-level ``set()`` pass over the column.
        """
        cached = self._distinct.get(position)
        if cached is None:
            index = self._indexes.get(position)
            cached = len(index) if index is not None else len(set(self.columns[position]))
            self._distinct[position] = cached
        return cached

    def __contains__(self, codes: Sequence[int]) -> bool:
        return pack_codes(codes) in self.keys

    def __repr__(self) -> str:
        return f"ColumnarRelation(arity={self.arity}, rows={len(self)})"
