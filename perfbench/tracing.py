"""Spans around each layer's public calls, installed from outside the program.

:func:`install` replaces public functions and methods of ``repro.datalog``
with thin wrappers that record a span per call.  A span is a list
``[id, parent, request, name, start, end, phase, probes, attrs]``: spans
opened while another is open on the same thread are its children and share
its request id; a span with no open parent starts a new request.  Spans are
kept in memory and written out once, at the end (:meth:`Tracer.dump`).

``Database.probe`` runs ~10^5 times in one unbound read, so it is counted
on the innermost open span instead of getting a span of its own; a timer
around every probe would cost more than the probe.

Nothing under ``src/`` changes: the program runs unmodified, and without
:func:`install` it runs exactly as in the untraced benchmark.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

ID, PARENT, REQUEST, NAME, START, END, PHASE, PROBES, ATTRS = range(9)

#: Layer of a span = the part of its name before the first dot.
LAYERS = (
    "parser",
    "transforms",
    "database",
    "columnar",
    "planner",
    "engine",
    "prepared",
    "service",
    "incremental",
    "wal",
    "snapshot",
)

_WRITE_SPANS = ("service.add_facts", "service.remove_facts")


class Tracer:
    """An in-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.spans = []
        self.phase = None
        # perf_counter() + epoch_offset ~ time.time(): lets a client window
        # (measured in another process) select this process's spans.
        self.epoch_offset = time.time() - time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [
            next(self._ids),
            parent[ID] if parent else 0,
            parent[REQUEST] if parent else next(self._requests),
            name,
            time.perf_counter(),
            0.0,
            self.phase,
            0,
            None,
        ]
        stack.append(record)
        return record

    def end(self, record):
        record[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def span(self, name):
        return _Span(self, name)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"epoch_offset": self.epoch_offset, "spans": self.spans}, handle)


class _Span:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._record = self._tracer.begin(self._name)
        return self._record

    def __exit__(self, *exc):
        self._tracer.end(self._record)
        return False


def _spanned(tracer, original, name, after=None, when=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args):
            return original(*args, **kwargs)
        record = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
            if after is not None:
                record[ATTRS] = after(args, result)
            return result
        finally:
            tracer.end(record)

    return wrapper


def _wrap_method(tracer, owner, attribute, name, after=None, when=None):
    setattr(owner, attribute, _spanned(tracer, getattr(owner, attribute), name, after, when))


def _wrap_function(tracer, module, attribute, name):
    """Wrap a module-level function everywhere ``repro`` imported it by name."""
    original = getattr(module, attribute)
    wrapper = _spanned(tracer, original, name)
    for module_name, loaded in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapper)


def _wrap_probe(tracer, owner):
    original = owner.probe
    local = tracer._local

    @functools.wraps(original)
    def probe(self, *args):
        # Overlay probes call their base's probe: count the outermost only.
        if getattr(local, "probing", False):
            return original(self, *args)
        local.probing = True
        try:
            rows = original(self, *args)
        finally:
            local.probing = False
        stack = getattr(local, "stack", None)
        if stack:
            stack[-1][PROBES] += 1
        return rows

    owner.probe = probe


def _engine_counts(args, result):
    statistics = result.statistics
    return {
        "iterations": statistics.iterations,
        "rule_firings": statistics.rule_firings,
        "facts_derived": statistics.facts_derived,
    }


def _maintenance_counts(args, report):
    return {"overdeleted": report.overdeleted, "rederived": report.rederived}


def install(tracer, *, server=False):
    """Wrap every layer's public calls; ``server`` adds the WAL and snapshot layers."""
    import repro.datalog.columnar.store as store
    import repro.datalog.database as database
    import repro.datalog.engine.planner as planner
    import repro.datalog.engine.registry as registry
    import repro.datalog.incremental as incremental
    import repro.datalog.parser as parser
    import repro.datalog.prepared as prepared
    import repro.datalog.service as service
    import repro.datalog.transforms.pipeline as pipeline

    _wrap_function(tracer, parser, "parse_program", "parser.parse")
    _wrap_function(tracer, planner, "compile_program_plan", "planner.compile")
    _wrap_method(tracer, pipeline.Pipeline, "apply", "transforms.pipeline")
    _wrap_probe(tracer, database.Database)
    _wrap_probe(tracer, database.OverlayDatabase)
    _wrap_method(tracer, database.Database, "copy", "database.copy")
    for attribute in ("parts", "group"):
        _wrap_method(
            tracer,
            store.ColumnarStore,
            attribute,
            "columnar.encode",
            when=lambda self, predicate, *rest: not self.encoded(predicate),
        )
    _wrap_method(tracer, planner.Planner, "plan", "planner.plan")
    _wrap_method(tracer, prepared.PreparedQuery, "plan", "planner.plan")
    _wrap_method(tracer, registry.FunctionEngine, "evaluate", "engine.evaluate", after=_engine_counts)
    _wrap_method(tracer, prepared.PreparedQuery, "__init__", "prepared.compile")
    _wrap_method(tracer, prepared.PreparedQuery, "answers", "prepared.answers")
    for attribute in ("execute", "add_facts", "remove_facts", "materialize"):
        _wrap_method(tracer, service.DatalogService, attribute, f"service.{attribute}")
    _wrap_method(
        tracer, incremental.MaterializedView, "apply", "incremental.apply", after=_maintenance_counts
    )
    _wrap_method(tracer, incremental.MaterializedView, "__init__", "incremental.build")
    if server:
        import repro.datalog.server.snapshot as snapshot
        import repro.datalog.server.wal as wal

        append = wal.WriteAheadLog.append

        @functools.wraps(append)
        def logged(self, payload):
            record = tracer.begin("wal.append")
            try:
                before = os.path.getsize(self.path)
                sequence = append(self, payload)
                record[ATTRS] = {"bytes": os.path.getsize(self.path) - before}
                return sequence
            finally:
                tracer.end(record)

        wal.WriteAheadLog.append = logged
        _wrap_method(tracer, snapshot.SnapshotStore, "write", "snapshot.write")


def load(path):
    with open(path) as handle:
        data = json.load(handle)
    return data["epoch_offset"], data["spans"]


def summarize(spans, keep, ops, writes, answers):
    """Per-layer metrics over the spans ``keep`` selects.

    Times are self times (a span's duration minus its children's), in ms
    per operation of the timed loop (``/write`` ones per write); counts
    are per operation too, so runs of different lengths compare.
    """
    child_time = defaultdict(float)
    compiled_under = set()
    names = {}
    for span in spans:
        names[span[ID]] = span[NAME]
        if span[PARENT]:
            child_time[span[PARENT]] += span[END] - span[START]
        if span[NAME] == "planner.compile":
            compiled_under.add(span[PARENT])
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(float)
    layer_ms = defaultdict(float)
    for span in spans:
        if not keep(span):
            continue
        name = span[NAME]
        own = (span[END] - span[START] - child_time[span[ID]]) * 1000.0
        self_ms[name] += own
        layer_ms[name.split(".", 1)[0]] += own
        calls[name] += 1
        totals["probes"] += span[PROBES]
        for key, value in (span[ATTRS] or {}).items():
            totals[key] += value
        if name == "planner.plan" and span[ID] not in compiled_under:
            totals["plan_cache_hits"] += 1
        if name == "database.copy" and names.get(span[PARENT]) in _WRITE_SPANS:
            totals["write_copy_ms"] += own

    def per_op(value):
        return value / ops if ops else 0.0

    def per_write(value):
        return value / writes if writes else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {
        "parser.parse_ms": (per_op(self_ms["parser.parse"]), "ms/op"),
        "database.load_ms": (per_op(self_ms["database.load"]), "ms/op"),
        "columnar.encode_ms": (per_op(self_ms["columnar.encode"]), "ms/op"),
        "columnar.decode_ms": (per_op(self_ms["columnar.decode"]), "ms/op"),
        "planner.plan_ms": (per_op(self_ms["planner.plan"] + self_ms["planner.compile"]), "ms/op"),
        "planner.plans_compiled": (per_op(calls["planner.compile"]), "count/op"),
        "planner.plan_cache_hits": (per_op(totals["plan_cache_hits"]), "count/op"),
        "engine.fixpoint_ms": (per_op(self_ms["engine.evaluate"]), "ms/op"),
        "engine.iterations": (per_op(totals["iterations"]), "count/op"),
        "engine.rule_firings": (per_op(totals["rule_firings"]), "count/op"),
        "engine.facts_derived": (per_op(totals["facts_derived"]), "count/op"),
        "engine.useful_ratio": (ratio(totals["facts_derived"], totals["rule_firings"]), "ratio"),
        "database.probes": (per_op(totals["probes"]), "count/op"),
        "database.probes_per_answer": (ratio(totals["probes"], answers), "ratio"),
        "transforms.pipeline_ms": (per_op(self_ms["transforms.pipeline"]), "ms/op"),
        "prepared.compiles": (per_op(calls["prepared.compile"]), "count/op"),
        "prepared.overhead_ms": (
            per_op(self_ms["prepared.answers"] + self_ms["prepared.compile"]),
            "ms/op",
        ),
        "service.execute_ms": (per_op(self_ms["service.execute"]), "ms/op"),
        "database.copy_ms": (per_write(totals["write_copy_ms"]), "ms/write"),
        "incremental.apply_ms": (per_write(self_ms["incremental.apply"]), "ms/write"),
        "incremental.overdeleted": (per_write(totals["overdeleted"]), "count/write"),
        "incremental.rederived": (per_write(totals["rederived"]), "count/write"),
        "incremental.rederive_ratio": (ratio(totals["rederived"], totals["overdeleted"]), "ratio"),
        "wal.append_ms": (per_write(self_ms["wal.append"]), "ms/write"),
        "wal.bytes_per_write": (per_write(totals["bytes"]), "B/write"),
        "snapshot.count": (per_write(calls["snapshot.write"]), "count/write"),
        "snapshot.ms": (ratio(self_ms["snapshot.write"], calls["snapshot.write"]), "ms"),
        "trace.spans": (per_op(sum(calls.values())), "count/op"),
    }
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = (per_op(layer_ms[layer]), "ms/op")
    return metrics
