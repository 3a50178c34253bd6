"""Process-sharded semi-naive rounds over the packed-bigint lane.

CPython threads cannot speed up the pure-Python join kernels in
:mod:`repro.datalog.columnar.batch`, so the throughput lever for one big
recursive stratum is processes.  The classic obstacle — shipping state
across the process boundary — is what the columnar layout was built to
make cheap: a round's delta is a handful of ``int`` columns plus packed
row keys, which pickle as flat machine words.

The scheme is bulk-synchronous, one pool of 1 process per shard:

* **fork snapshot** — worker processes are forked (lazily, at the first
  round big enough to shard) and inherit the driver's
  :class:`~repro.datalog.columnar.batch._BatchWorking` by copy-on-write:
  no serialization of the base relations, ever.  Workers never touch the
  intern table — every kernel sequence is lowered pre-fork, and delta
  evaluation is pure packed-int arithmetic — so forking from a threaded
  host (the service executor) is safe.
* **incremental sync** — after the snapshot, every commit's fresh rows
  are queued per pool and prepended to the next round a worker runs, so
  each worker's view equals the driver's working set at round start.
  Only predicates some delta variant *probes positionally* are mirrored
  as real columns (with per-row index maintenance); every other
  committed predicate — linear recursive heads above all — lands in a
  bare packed-key overlay, a C-speed bulk ``set.update`` that is exactly
  enough for dedup and anti-joins.  Mirror application is key-filtered,
  which makes a double-applied payload harmless.
* **sharded firing** — each worker fires every delta variant over only
  the delta rows whose first column hashes to its shard
  (``code % nshards``); a delta row fires its matches in exactly one
  shard, so per-variant firing counts sum to the serial count.
* **serial-order merge** — the driver replays the serial loop's exact
  bookkeeping: per rule, per delta position, ``fresh = (∪ shard fresh)
  − evolving bucket`` (each shard already deduped against the
  round-start model, i.e. its mirror), then
  ``record_batch(pred, Σ firings, len(fresh))``.  Model and
  ``EvaluationStatistics`` come out bit-identical to the serial lane —
  the contract the Hypothesis differential property enforces.  Workers
  pre-unpack their fresh keys into columns; when a head's shard outputs
  were pairwise disjoint and nothing else fired into it, the driver
  commits by concatenating those columns instead of re-unpacking.
* **decomposable strata (owner-computes)** — a recursive stratum whose
  single active variant carries the delta's shard column unchanged into
  the head's first column (``tc(X, Y) :- tc(X, Z), edge(Z, Y)``) is
  *shard-closed*: everything shard ``s`` can ever derive stays in shard
  ``s``.  Such strata shard the delta once ("seed") and from then on
  each worker retains its own fresh rows as the next round's delta
  ("use") — no resharding, no key shipping, no cross-shard sync at all.
  The analysis (:func:`_decomposable_strata`) is conservative: the head
  must never be probed positionally or anti-joined by any *delta*
  variant (static passes always fire in-driver, where the model is
  complete), so skipping the sync is provably invisible; an overlapping
  merge in such a stratum raises instead of degrading silently.

Rounds smaller than :data:`MIN_SHARD_ROWS` run in-driver (a process
round-trip costs more than a tiny delta); the choice is invisible to
results.  Cancellation and deadlines propagate: the driver checkpoints
its guard while waiting on shard futures, and aborting sets a
fork-inherited event that workers observe between rules, after which the
pools are joined — no orphan processes.
"""

from __future__ import annotations

import itertools
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Dict, List, Optional, Set, Tuple

from repro.datalog.columnar.batch import (
    _BatchAntiStep,
    _BatchLeaf,
    _BatchStep,
    _BatchWorking,
    _decode_idb,
    _fire_delta,
    _fire_static,
    _head_arities,
    _load_facts_seminaive,
    _run_sequence,
    _stratum_kernels,
    plan_supported,
)
from repro.datalog.columnar.relation import KEY_BITS, ColumnarRelation
from repro.datalog.engine.base import EvaluationResult, is_aggregate_rule
from repro.errors import EvaluationError

_KEY_MASK = (1 << KEY_BITS) - 1

#: Delta rows below which a round runs in-driver: the ~ms of pickling and
#: queue latency per process round-trip outweighs firing a small delta
#: locally.  Statistics parity holds on either path, so the threshold is
#: a pure tuning knob.
MIN_SHARD_ROWS = 192

#: How long the driver blocks on a shard future between guard checkpoints,
#: so cancellation/deadlines interrupt even a long worker round promptly.
_WAIT_SLICE = 0.005

_COUNTER = itertools.count(1)
#: eval id -> state; populated pre-fork so forked workers inherit their
#: evaluation's working mirror, lowered rules and cancel event by COW.
_STATES: Dict[int, "_ShardState"] = {}


class ShardAborted(EvaluationError):
    """A worker observed the cancel event (or lost its state) mid-round."""


class _ShardWorking:
    """A worker's view of the working set: inherited mirror + key overlays.

    Predicates some delta variant probes positionally need real columnar
    parts, so their post-fork commits extend the inherited mirror (see
    :func:`_apply_payload`).  Every *other* committed predicate — linear
    recursive heads above all — is only ever consulted as packed-key
    sets, for dedup of head emissions and for anti-join membership; those
    accumulate in ``overlay`` via bulk ``set.update`` and are never
    materialized as columns, skipping the Python-per-row append and index
    maintenance that would otherwise be duplicated in every worker.
    """

    __slots__ = ("inner", "probed", "overlay")

    def __init__(self, inner: _BatchWorking, probed: Set[str]):
        self.inner = inner
        self.probed = probed
        self.overlay: Dict[Tuple[str, int], set] = {}

    def parts(self, predicate: str, arity: int):
        # Only reached for probed predicates, whose mirror is maintained.
        return self.inner.parts(predicate, arity)

    def key_sets(self, predicate: str, arity: int):
        sets = self.inner.key_sets(predicate, arity)
        extra = self.overlay.get((predicate, arity))
        return sets + [extra] if extra else sets


class _ShardState:
    """Everything a forked worker needs, snapshotted at fork time.

    ``retained`` is worker-local continuation state for decomposable
    strata: stratum index -> this shard's delta groups for the next round
    (its own previous fresh rows).  It starts empty pre-fork and is only
    ever mutated inside a worker process.
    """

    __slots__ = ("working", "rules", "cancel", "retained")

    def __init__(self, working, rules, cancel):
        self.working = working
        self.rules = rules
        self.cancel = cancel
        self.retained: Dict[int, Dict[str, Dict[int, ColumnarRelation]]] = {}


def available() -> bool:
    """Fork-start workers are what make the zero-copy snapshot possible."""
    return "fork" in multiprocessing.get_all_start_methods()


def applicable(plan, database, program, workers: int) -> bool:
    """Whether the sharded driver should take this evaluation.

    Requires ``workers > 1``, fork support, a fully-compiled plan with at
    least one recursive stratum and no aggregate rule (this driver has no
    stratum-close fold) — and a program *off* the NumPy vector
    lane: vector rounds are already C-speed, too cheap for cross-process
    sharding to amortize, so vector-eligible programs stay on it, serial.
    """
    from repro.datalog.columnar import vector

    if workers <= 1 or not available():
        return False
    if not plan_supported(plan) or any(
        is_aggregate_rule(rule) for stratum in plan.strata for rule in stratum.rules
    ):
        return False
    if not any(stratum.recursive for stratum in plan.strata):
        return False
    if vector.supported(plan, database.columnar_store().table, program):
        return False
    return True


def _lowered_rules(plan, working: _BatchWorking):
    """Pre-lower every kernel (interning all constants now, pre-fork).

    Returns ``{stratum index: ((head, head_arity, ((position, body
    predicate, sequence), ...)), ...)}`` — the per-variant firing schedule
    both the workers and the driver's merge replay in identical order.
    """
    rules: Dict[int, Tuple] = {}
    for stratum in plan.strata:
        entries = []
        for rule in stratum.rules:
            batch = plan.kernel(rule).batch_kernel()
            _, variants = batch.sequences(working.table)
            entries.append(
                (
                    rule.head.predicate,
                    batch.head_arity,
                    tuple(
                        (position, rule.body[position].predicate, variants[position])
                        for position in batch.kernel.delta_positions
                    ),
                )
            )
        rules[stratum.index] = tuple(entries)
    return rules


def _probed_predicates(rules) -> Set[str]:
    """Predicates whose full relation some delta variant probes.

    A variant's non-delta steps join against ``working.parts``; those
    predicates need a real columnar mirror in every worker.  For linear
    rules the recursive head never appears here — it is only the delta —
    so the whole fixpoint's output predicate stays on the cheap key-set
    overlay.  Nonlinear and mutually recursive bodies (same-stratum
    predicates at non-delta positions) land in the probed set and pay
    for full mirror sync.
    """
    probed: Set[str] = set()
    for entries in rules.values():
        for _head, _head_arity, variants in entries:
            for _position, _body, sequence in variants:
                for step in sequence.steps:
                    if type(step) is _BatchStep and not step.use_delta:
                        probed.add(step.predicate)
                leaf = sequence.leaf
                if type(leaf) is _BatchLeaf and not leaf.use_delta:
                    probed.add(leaf.predicate)
    return probed


def _anti_predicates(rules) -> Set[str]:
    """Predicates some delta variant consults through an anti-join.

    Anti steps read complete key sets, so these predicates need full key
    synchronization in every worker (a key-set overlay is enough — anti
    never probes columns — but it must not be shard-partial).
    """
    anti: Set[str] = set()
    for entries in rules.values():
        for _head, _head_arity, variants in entries:
            for _position, _body, sequence in variants:
                for step in sequence.steps:
                    if type(step) is _BatchAntiStep:
                        anti.add(step.predicate)
    return anti


def _decomposable_strata(plan, probed: Set[str], anti: Set[str]) -> Dict[int, int]:
    """Recursive strata that admit owner-computes sharding: index -> column.

    A stratum is *decomposable* when its recursion is a single
    self-recursive delta variant whose head carries the delta atom's
    column ``c`` into the head's first position (``tc(X, Y) :- tc(X, Z),
    edge(Z, Y)`` with ``c = 0``).  Sharding the delta on column ``c``
    then makes the shards closed: every fact worker ``s`` derives lands
    back in shard ``s``, so a worker can keep its own fresh rows as the
    next round's delta — no resharding, no cross-shard key exchange — and
    its dedup needs only its own shard's keys (emissions from shard ``s``
    can only ever collide with keys whose first column is in shard
    ``s``).  The head must not be probed positionally or anti-joined by
    any delta variant, since those reads need the full relation in every
    worker; nonrecursive consumers are harmless — static passes fire
    in-driver, where the model is always complete.
    """
    from repro.datalog.terms import Variable

    decomposable: Dict[int, int] = {}
    for stratum in plan.strata:
        if not stratum.recursive:
            continue
        heads = {rule.head.predicate for rule in stratum.rules}
        active = []
        supported = True
        for rule in stratum.rules:
            kernel = plan.kernel(rule)
            if kernel is None:
                supported = False
                break
            for position in kernel.delta_positions:
                if rule.body[position].predicate in heads:
                    active.append((rule, position))
        if not supported or len(active) != 1:
            continue
        rule, position = active[0]
        head, atom = rule.head, rule.body[position]
        if head.predicate != atom.predicate:
            continue
        if head.predicate in probed or head.predicate in anti:
            continue
        if not head.terms or not isinstance(head.terms[0], Variable):
            continue
        column = next(
            (c for c, term in enumerate(atom.terms) if term == head.terms[0]),
            None,
        )
        if column is not None:
            decomposable[stratum.index] = column
    return decomposable


def _commit_with_payload(working: _BatchWorking, buckets, head_arities):
    """:func:`batch._commit`, plus a picklable payload of the fresh rows.

    The payload entries are ``(predicate, arity, columns, keys)``, keys
    aligned row-for-row with the columns — exactly what a worker needs to
    sync its view and build its shard's delta.  Columns are ``array('q')``
    (the relation's own storage type), which pickles as one flat byte
    buffer instead of per-element ints.
    """
    delta: Dict[str, Dict[int, ColumnarRelation]] = {}
    payload: List[Tuple[str, int, List[array], List[int]]] = []
    added = 0
    for predicate, bucket in buckets.items():
        if not bucket:
            continue
        keys_list = list(bucket)
        arities = head_arities.get(predicate)
        per_arity: Dict[int, List[int]] = {}
        if arities is not None and len(arities) == 1:
            (arity,) = arities
            per_arity[arity] = keys_list
        else:
            for key in keys_list:
                arity = (key.bit_length() - 1) // KEY_BITS if key else 0
                per_arity.setdefault(arity, []).append(key)
        groups: Dict[int, ColumnarRelation] = {}
        for arity, keys in per_arity.items():
            columns = [
                array("q", [(key >> shift) & _KEY_MASK for key in keys])
                for shift in (KEY_BITS * (arity - 1 - j) for j in range(arity))
            ]
            working.local_group(predicate, arity).extend_columns(columns, keys)
            group = ColumnarRelation(arity)
            group.extend_columns(columns, keys)
            groups[arity] = group
            payload.append((predicate, arity, columns, keys))
        delta[predicate] = groups
        added += len(keys_list)
    return delta, payload, added


def _commit_merged(working: _BatchWorking, buckets, head_arities, clean):
    """Commit a sharded round, concatenating pre-unpacked shard columns.

    Workers unpack their fresh keys into columns before returning, so for
    every head whose round stayed *clean* — a single contributing variant
    and no cross-shard duplicates, which the merge detects by comparing
    set sizes — the commit is pure C-speed ``array.extend`` of the shard
    pieces.  Heads that saw cross-shard duplicates or multiple
    contributing variants fall back to the driver-side unpack (the shard
    pieces are stale there: they still contain the subtracted rows).
    """
    delta: Dict[str, Dict[int, ColumnarRelation]] = {}
    payload: List[Tuple[str, int, Tuple[array, ...], List[int]]] = []
    added = 0
    for predicate, bucket in buckets.items():
        if not bucket:
            continue
        pieces = clean.get(predicate)
        if pieces is not None:
            groups: Dict[int, ColumnarRelation] = {}
            for arity, keys, columns in pieces:
                working.local_group(predicate, arity).extend_columns(columns, keys)
                group = groups.get(arity)
                if group is None:
                    group = groups[arity] = ColumnarRelation(arity)
                group.extend_columns(columns, keys)
                payload.append((predicate, arity, columns, keys))
                added += len(keys)
            delta[predicate] = groups
            continue
        keys_list = list(bucket)
        arities = head_arities.get(predicate)
        per_arity: Dict[int, List[int]] = {}
        if arities is not None and len(arities) == 1:
            (arity,) = arities
            per_arity[arity] = keys_list
        else:
            for key in keys_list:
                arity = (key.bit_length() - 1) // KEY_BITS if key else 0
                per_arity.setdefault(arity, []).append(key)
        groups = {}
        for arity, keys in per_arity.items():
            columns = tuple(
                array("q", [(key >> shift) & _KEY_MASK for key in keys])
                for shift in (KEY_BITS * (arity - 1 - j) for j in range(arity))
            )
            working.local_group(predicate, arity).extend_columns(columns, keys)
            group = ColumnarRelation(arity)
            group.extend_columns(columns, keys)
            groups[arity] = group
            payload.append((predicate, arity, columns, keys))
        delta[predicate] = groups
        added += len(keys_list)
    return delta, payload, added


# ----------------------------------------------------------------------
# Worker side (runs in forked processes)
# ----------------------------------------------------------------------
def _ping(eval_id: int) -> bool:
    """Warm-up task: forces the pool to fork *now*, pinning the snapshot."""
    return eval_id in _STATES


def _apply_payload(working: _ShardWorking, payload) -> None:
    """Absorb a commit's rows into the worker's view of the working set.

    Probed predicates extend the real mirror, key-filtered so that a
    payload that raced the fork (applied both by inheritance and by sync)
    changes nothing; everything else is a bulk key-set union, idempotent
    by construction.
    """
    for predicate, arity, columns, keys in payload:
        if predicate not in working.probed:
            working.overlay.setdefault((predicate, arity), set()).update(keys)
            continue
        group = working.inner.local_group(predicate, arity)
        have = group.keys
        if have:
            rows = [i for i, key in enumerate(keys) if key not in have]
        else:
            rows = list(range(len(keys)))
        if len(rows) == len(keys):
            group.extend_columns(columns, keys)
        elif rows:
            group.extend_columns(
                [[column[i] for i in rows] for column in columns],
                [keys[i] for i in rows],
            )


def _shard_groups(payload, shard: int, nshards: int, shard_column: int = 0):
    """This shard's slice of the round delta: column ``shard_column % nshards``.

    Arity-0 rows (propositional heads) all land on shard 0, and entries
    too narrow for ``shard_column`` fall back to column 0 (any consistent
    partition of a round's delta is valid — the column only matters for
    decomposable strata, whose heads are wide enough by construction).
    Variants whose delta slice is empty still run — they see no parts and
    fire zero matches — so the driver's merge indexes stay aligned.
    """
    delta: Dict[str, Dict[int, ColumnarRelation]] = {}
    for predicate, arity, columns, keys in payload:
        if arity == 0:
            if shard != 0:
                continue
            rows = list(range(len(keys)))
        else:
            first = columns[shard_column if shard_column < arity else 0]
            rows = [i for i in range(len(keys)) if first[i] % nshards == shard]
        if not rows:
            continue
        # A clean merged commit ships one payload entry per shard piece,
        # so the same (predicate, arity) can appear repeatedly: extend,
        # never replace.
        groups = delta.setdefault(predicate, {})
        group = groups.get(arity)
        if group is None:
            group = groups[arity] = ColumnarRelation(arity)
        group.extend_columns(
            [[column[i] for i in rows] for column in columns],
            [keys[i] for i in rows],
        )
    return delta


def _worker_round(
    eval_id, stratum_index, sync, delta_payload, delta_predicates,
    shard, nshards, shard_column, retain,
):
    """One shard's half-round: sync the view, fire every delta variant.

    Returns ``[(rule index, delta position, firings, fresh keys, fresh
    columns), ...]``; each fresh set is already deduped against this
    worker's view of the round-start model, and its column unpacking —
    the serial commit's per-row Python cost — has been done here, in
    parallel, so the driver can commit clean heads by concatenation.

    ``retain`` is the decomposable-stratum protocol: ``"off"`` builds the
    delta from *delta_payload* as usual; ``"seed"`` does the same but
    keeps this round's fresh rows as the next round's delta; ``"use"``
    fires the retained delta (the driver then ships no payload at all).
    In seed/use rounds the worker also folds its own fresh keys into its
    overlay — the driver will not sync that commit back, and by
    shard-closure no other worker's keys can ever collide with ours.
    """
    state = _STATES.get(eval_id)
    if state is None:
        raise ShardAborted(f"shard state {eval_id} missing in worker (fork raced)")
    working = state.working
    for payload in sync:
        _apply_payload(working, payload)
    if retain == "use":
        delta = state.retained.get(stratum_index)
        if delta is None:
            raise ShardAborted(
                f"worker shard {shard} has no retained delta for stratum "
                f"{stratum_index}"
            )
    else:
        delta = _shard_groups(delta_payload, shard, nshards, shard_column)
    delta_predicates = set(delta_predicates)
    cancel = state.cancel
    out: List[Tuple[int, int, int, List[int], Tuple[array, ...]]] = []
    retained: Dict[str, Dict[int, ColumnarRelation]] = {}
    for index, (head, head_arity, variants) in enumerate(state.rules[stratum_index]):
        if cancel.is_set():
            raise ShardAborted("evaluation cancelled")
        existing = working.key_sets(head, head_arity)
        for position, body_predicate, sequence in variants:
            if body_predicate not in delta_predicates:
                continue
            bucket: set = set()
            firings, _new = _run_sequence(sequence, working, delta, bucket, existing)
            keys = list(bucket)
            columns = tuple(
                array("q", [(key >> shift) & _KEY_MASK for key in keys])
                for shift in (KEY_BITS * (head_arity - 1 - j) for j in range(head_arity))
            )
            out.append((index, position, firings, keys, columns))
            if retain != "off" and keys:
                group = ColumnarRelation(head_arity)
                group.extend_columns(columns, keys)
                retained.setdefault(head, {})[head_arity] = group
                working.overlay.setdefault((head, head_arity), set()).update(keys)
    if retain != "off":
        state.retained[stratum_index] = retained
    return out


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def evaluate_seminaive_sharded(
    program,
    database,
    plan,
    statistics,
    max_iterations: Optional[int],
    guard=None,
    workers: int = 2,
) -> EvaluationResult:
    """The semi-naive fixpoint with process-sharded recursive rounds.

    Mirrors :func:`repro.datalog.columnar.batch.evaluate_seminaive` round
    for round; only the delta firing of large recursive rounds is farmed
    out to ``workers`` forked shards.  Model and statistics are identical
    to the serial lane's.
    """
    idb_predicates = program.idb_predicates()
    working = _BatchWorking(database)
    _load_facts_seminaive(program, working, statistics)

    def check_budget() -> None:
        if guard is not None:
            guard.checkpoint(statistics)
        if max_iterations is not None and statistics.iterations > max_iterations:
            raise EvaluationError(
                f"semi-naive evaluation exceeded {max_iterations} iterations"
            )

    head_arities = _head_arities(plan)
    rules = _lowered_rules(plan, working)
    probed = _probed_predicates(rules)
    decomposable = _decomposable_strata(plan, probed, _anti_predicates(rules))
    context = multiprocessing.get_context("fork")
    cancel = context.Event()
    eval_id = next(_COUNTER)
    _STATES[eval_id] = _ShardState(_ShardWorking(working, probed), rules, cancel)
    pools: List[ProcessPoolExecutor] = []
    pending: List[List] = []

    def ensure_pools() -> None:
        """Fork the shard workers now, snapshotting the current working set."""
        if pools:
            return
        for _ in range(workers):
            pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
            pools.append(pool)
            pending.append([])
        # The executor forks lazily on first submit; ping each pool so the
        # snapshot is pinned *here*, before the driver mutates further.
        for pool in pools:
            pool.submit(_ping, eval_id).result()

    def wait_result(future):
        """Block on a shard future, checkpointing the guard while waiting."""
        while True:
            try:
                return future.result(timeout=_WAIT_SLICE)
            except _FutureTimeout:
                if guard is not None:
                    guard.checkpoint(statistics)

    try:
        for stratum in plan.strata:
            statistics.record_stratum()
            label = stratum.label
            kernels = _stratum_kernels(plan, stratum)
            entries = rules[stratum.index]
            shard_column = decomposable.get(stratum.index)
            retained_valid = False

            statistics.record_iteration(label)
            check_budget()
            buckets: Dict[str, set] = {}
            for rule, batch in kernels:
                if guard is not None:
                    guard.checkpoint(statistics)
                bucket = buckets.setdefault(rule.head.predicate, set())
                _fire_static(batch, working, bucket, statistics)
            delta, payload, added = _commit_with_payload(working, buckets, head_arities)
            for queue in pending:
                queue.append(payload)

            if not stratum.recursive:
                continue

            while added:
                statistics.record_iteration(label)
                check_budget()
                delta_predicates = set(delta)
                if added < MIN_SHARD_ROWS:
                    # Small round: fire in-driver (identical to the serial
                    # lane); the commit below still syncs it to the pools.
                    buckets = {}
                    for rule, batch in kernels:
                        if guard is not None:
                            guard.checkpoint(statistics)
                        bucket = buckets.setdefault(rule.head.predicate, set())
                        _fire_delta(
                            batch, rule, working, delta, delta_predicates,
                            bucket, statistics,
                        )
                else:
                    ensure_pools()
                    if shard_column is None:
                        retain = "off"
                    elif retained_valid:
                        retain = "use"
                    else:
                        retain = "seed"
                    round_payload = [] if retain == "use" else payload
                    futures = []
                    for shard, pool in enumerate(pools):
                        sync = pending[shard]
                        pending[shard] = []
                        futures.append(
                            pool.submit(
                                _worker_round,
                                eval_id, stratum.index, sync, round_payload,
                                sorted(delta_predicates), shard, len(pools),
                                0 if shard_column is None else shard_column,
                                retain,
                            )
                        )
                    shard_maps = []
                    for future in futures:
                        shard_maps.append(
                            {
                                (index, position): (firings, keys, columns)
                                for index, position, firings, keys, columns
                                in wait_result(future)
                            }
                        )
                    # Serial-order merge: replay the exact bookkeeping of
                    # the serial loop.  Shard fresh sets are already deduped
                    # against the round-start model (each worker's view);
                    # only the evolving bucket — same-round emissions of
                    # earlier variants/rules for this head — is subtracted
                    # here.  Skipping a redundant model-wide subtraction
                    # also means a desynced worker view fails parity loudly
                    # instead of being silently papered over.  A variant is
                    # *clean* when the bucket was empty and the shard fresh
                    # sets were pairwise disjoint (union size == sum of
                    # sizes); clean heads commit by concatenating the
                    # workers' pre-unpacked columns.
                    buckets = {}
                    clean: Dict[str, List[Tuple[int, List[int], Tuple]]] = {}
                    dirty: Set[str] = set()
                    for index, (head, head_arity, variants) in enumerate(entries):
                        if guard is not None:
                            guard.checkpoint(statistics)
                        bucket = buckets.setdefault(head, set())
                        for position, body_predicate, _sequence in variants:
                            if body_predicate not in delta_predicates:
                                continue
                            firings = 0
                            total = 0
                            fresh: set = set()
                            pieces: List[Tuple[int, List[int], Tuple]] = []
                            for shard_map in shard_maps:
                                shard_firings, keys, columns = shard_map[
                                    (index, position)
                                ]
                                firings += shard_firings
                                if keys:
                                    total += len(keys)
                                    fresh.update(keys)
                                    pieces.append((head_arity, keys, columns))
                            if bucket:
                                fresh.difference_update(bucket)
                                clean_variant = False
                            else:
                                clean_variant = len(fresh) == total
                            statistics.record_batch(head, firings, len(fresh))
                            if fresh:
                                bucket |= fresh
                                if clean_variant and head not in dirty:
                                    clean.setdefault(head, []).extend(pieces)
                                else:
                                    dirty.add(head)
                                    clean.pop(head, None)
                    delta, payload, added = _commit_merged(
                        working, buckets, head_arities, clean
                    )
                    if shard_column is not None:
                        if dirty or any(
                            bucket and head not in clean
                            for head, bucket in buckets.items()
                        ):
                            raise EvaluationError(
                                "decomposable stratum produced overlapping "
                                f"shard outputs (stratum {stratum.index}); "
                                "shard-closure analysis is unsound"
                            )
                        # Owner-computes: each worker already kept its own
                        # fresh rows as the next round's delta and folded
                        # the keys into its overlay, so nothing is shipped.
                        retained_valid = True
                    else:
                        for queue in pending:
                            queue.append(payload)
                    continue
                delta, payload, added = _commit_with_payload(
                    working, buckets, head_arities
                )
                for queue in pending:
                    queue.append(payload)
                retained_valid = False
    finally:
        cancel.set()
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        _STATES.pop(eval_id, None)

    idb_facts = _decode_idb(working, database, idb_predicates)
    return EvaluationResult(program, database, idb_facts, statistics)


__all__ = [
    "MIN_SHARD_ROWS",
    "ShardAborted",
    "applicable",
    "available",
    "evaluate_seminaive_sharded",
]
