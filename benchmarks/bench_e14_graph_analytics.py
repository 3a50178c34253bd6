"""Experiment E14 — the graph-analytics workload portfolio.

PR 8 grew the language with stratified negation and head aggregates; this
experiment runs the programs those features exist for, at social-graph
scale, through the same engines every earlier experiment measured:

* **reach_pa / unreach_pa** — reachability and its negation-defined
  complement over a ~10^5-edge preferential-attachment graph (the
  anti-join runs against a 30k-fact closed stratum);
* **degree_pa** — grouped ``count`` aggregation over the heavy-tailed
  out-degree distribution of the same graph;
* **sp_grid** — shortest path via recursion into a ``min`` aggregate on
  an 80x80 grid (hop arithmetic is the ``succ`` EDB relation);
* **sg_grid** — nonlinear same-generation recursion on a 20x20 grid;
* **triangle_rand** — canonical-rotation triangle enumeration plus
  grouped and global ``count`` summaries on a dense random digraph;
* **points_to** — the four-rule context-insensitive Andersen analysis on
  a synthetic 1500-statement input, the classic mutual-recursion load.

Generators live in :mod:`repro.datalog.workloads` and are seeded, so every
run (and every engine lane) sees identical EDBs.  The preferential-
attachment family scales past 10^6 edges off-benchmark; the timed instance
stays at ~1.2 * 10^5 edges to keep CI rounds short.

Parity is asserted before anything is timed — compiled vs interpreted and
columnar vs tuple must agree on the model *and* on the hardware-
independent statistics — and those checks also run in the plain suite
under ``--benchmark-disable``, so a semantics regression cannot hide
behind a skipped benchmark job.

Acceptance gate (``test_compiled_at_least_2x_on_graph_portfolio``): the
compiled slot kernels — including the anti-join and aggregate paths this
PR added — must beat the interpreted evaluator by >=2x across a reduced
gate portfolio.  Locally the ratio is ~8x; 2x leaves CI headroom.
"""

import time

import pytest

from repro.datalog.engine import get_engine
from repro.datalog.engine.planner import Planner
from repro.datalog.workloads import (
    add_ordering,
    add_successors,
    grid,
    parse_workload,
    points_to_input,
    preferential_attachment,
    random_graph,
)

SEMINAIVE = get_engine("seminaive")

#: label -> (portfolio program name, EDB) at timed scale.
PA_GRAPH = preferential_attachment(30000, 4, seed=0)
WORKLOADS = {
    "reach_pa": ("reachability", PA_GRAPH),
    "unreach_pa": ("unreachable", PA_GRAPH),
    "degree_pa": ("degree", PA_GRAPH),
    "sp_grid": ("shortest_path", add_successors(grid(80, 80), 160)),
    "sg_grid": ("same_generation", grid(20, 20)),
    "triangle_rand": (
        "triangle",
        add_ordering(random_graph(150, 2500, seed=3), 150),
    ),
    "points_to": ("points_to", points_to_input(150, 1500, seed=5)),
}

# Smaller instances of the same families for the parity sweep and the
# acceptance gate: large enough that the kernels dominate, small enough
# that best-of-three over the whole portfolio stays under a second.
GATE_WORKLOADS = {
    "unreach_pa": ("unreachable", preferential_attachment(2000, 4, seed=0)),
    "sp_grid": ("shortest_path", add_successors(grid(20, 20), 40)),
    "sg_grid": ("same_generation", grid(10, 10)),
    "points_to": ("points_to", points_to_input(60, 500, seed=5)),
}

PROGRAMS = {
    name: parse_workload(name)
    for name in {entry[0] for entry in (*WORKLOADS.values(), *GATE_WORKLOADS.values())}
}

# One warm planner per (workload, layout): the timed region is evaluation
# only, matching how a QuerySession or prepared query runs these programs.
PLANNERS = {}
for label, (name, database) in WORKLOADS.items():
    PLANNERS[label] = Planner()
    PLANNERS[label].plan(PROGRAMS[name], database)

GATE_PLANNERS = {}
for label, (name, database) in GATE_WORKLOADS.items():
    GATE_PLANNERS[label] = Planner()
    GATE_PLANNERS[label].plan(PROGRAMS[name], database)

# The columnar axis: the negation pair exercises the batch/vector anti-join
# lanes; the aggregate programs fold at stratum close on the vector lane
# (degree_pa, sp_grid) and on the packed lane (triangle_rand's arity-3 head).
COLUMNAR_LABELS = ("reach_pa", "unreach_pa", "degree_pa", "sp_grid", "sg_grid", "triangle_rand")
COLUMNAR_WORKLOADS = {
    label: (WORKLOADS[label][0], WORKLOADS[label][1].with_layout("columnar"))
    for label in COLUMNAR_LABELS
}
COLUMNAR_PLANNERS = {}
for label, (name, database) in COLUMNAR_WORKLOADS.items():
    COLUMNAR_PLANNERS[label] = Planner()
    COLUMNAR_PLANNERS[label].plan(PROGRAMS[name], database)


def run(label: str, compiled: bool = True):
    name, database = WORKLOADS[label]
    return SEMINAIVE.evaluate(
        PROGRAMS[name], database, planner=PLANNERS[label], compiled=compiled
    )


def run_gate(label: str, compiled: bool):
    name, database = GATE_WORKLOADS[label]
    return SEMINAIVE.evaluate(
        PROGRAMS[name], database, planner=GATE_PLANNERS[label], compiled=compiled
    )


def run_columnar(label: str):
    name, database = COLUMNAR_WORKLOADS[label]
    return SEMINAIVE.evaluate(
        PROGRAMS[name], database, planner=COLUMNAR_PLANNERS[label], compiled=True
    )


def test_parity_compiled_vs_interpreted():
    """Same model, same cost model — asserted before anything is timed.

    The gate instances cover every language feature the portfolio uses:
    anti-joins (unreachable), min and count aggregates, and nonlinear plus
    mutual recursion.
    """
    for label in GATE_WORKLOADS:
        compiled = run_gate(label, compiled=True)
        interpreted = run_gate(label, compiled=False)
        assert compiled.idb_facts == interpreted.idb_facts, label
        assert (
            compiled.statistics.as_dict() == interpreted.statistics.as_dict()
        ), label


def test_parity_columnar_vs_tuple():
    """Columnar lanes (including the anti-join kernels) match the tuple path."""
    for label in COLUMNAR_LABELS:
        name, database = WORKLOADS[label]
        small = GATE_WORKLOADS.get(label)
        if small is not None:
            name, database = small
        columnar_db = database.with_layout("columnar")
        planner = Planner()
        planner.plan(PROGRAMS[name], columnar_db)
        columnar = SEMINAIVE.evaluate(
            PROGRAMS[name], columnar_db, planner=planner, compiled=True
        )
        tuple_planner = Planner()
        tuple_planner.plan(PROGRAMS[name], database)
        tuple_side = SEMINAIVE.evaluate(
            PROGRAMS[name], database, planner=tuple_planner, compiled=True
        )
        assert columnar.idb_facts == tuple_side.idb_facts, label
        assert (
            columnar.statistics.as_dict() == tuple_side.statistics.as_dict()
        ), label


@pytest.mark.parametrize("label", sorted(WORKLOADS))
def test_graph_workload(benchmark, record, label):
    result = benchmark(run, label)
    record(benchmark, "compiled", result.statistics)
    benchmark.extra_info["idb_facts"] = result.statistics.facts_derived


@pytest.mark.parametrize("label", sorted(GATE_WORKLOADS))
def test_graph_workload_interpreted(benchmark, record, label):
    result = benchmark(run_gate, label, False)
    record(benchmark, "interpreted", result.statistics)


@pytest.mark.parametrize("label", sorted(GATE_WORKLOADS))
def test_graph_workload_gate_compiled(benchmark, record, label):
    result = benchmark(run_gate, label, True)
    record(benchmark, "compiled", result.statistics)


@pytest.mark.parametrize("label", sorted(COLUMNAR_WORKLOADS))
def test_graph_workload_columnar(benchmark, record, label):
    result = benchmark(run_columnar, label)
    record(benchmark, "columnar", result.statistics)


def test_compiled_at_least_2x_on_graph_portfolio():
    """The E14 acceptance gate, measured directly with perf_counter.

    Locally the gate portfolio runs ~8x faster compiled; 2x leaves
    generous headroom for noisy CI machines.  Best-of-three over the whole
    portfolio smooths scheduler noise, and the check runs in the plain
    suite under ``--benchmark-disable`` too.
    """

    def best_portfolio_seconds(compiled: bool, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for label in GATE_WORKLOADS:
                run_gate(label, compiled=compiled)
            best = min(best, time.perf_counter() - started)
        return best

    run_gate("unreach_pa", compiled=True)  # warm plans and indexes
    compiled_seconds = best_portfolio_seconds(compiled=True)
    interpreted_seconds = best_portfolio_seconds(compiled=False)
    ratio = interpreted_seconds / compiled_seconds
    assert ratio >= 2.0, (
        f"compiled {compiled_seconds * 1e3:.2f} ms vs interpreted "
        f"{interpreted_seconds * 1e3:.2f} ms: only {ratio:.2f}x"
    )


def test_scale_sanity():
    """The timed preferential-attachment instance really is ~10^5 edges,
    and its negation workload splits the node domain exactly."""
    assert PA_GRAPH.cardinality("edge") > 100_000
    result = run("unreach_pa")
    reach = len(result.relation("reach"))
    unreach = len(result.relation("unreach"))
    assert reach + unreach == PA_GRAPH.cardinality("node")
