"""Differential fuzzing: columnar batch kernels vs the tuple baseline.

The metamorphic oracle: evaluating any program over ``db`` and over
``db.with_layout("columnar")`` must be observationally identical — same
IDB model, same goal answers, same :class:`EvaluationStatistics` — for
every registered engine.  The columnar side lowers rules to batch
kernels over interned int columns (the packed-bigint lane for any arity,
the vectorized lane for head arity <= 2), so this harness is the proof
that neither lane changes semantics, only speed.

Programs come from two pools in :mod:`tests.datalog.strategies`: the
shared binary pool (vector lane, including the self-join shape whose
variable spans three body atoms) and the wide pool (arity 3-4 heads on
the packed lane, cross-arity joins, a repeated variable inside one
atom).  The magic engine needs a constant in the goal, so it gets a
bound-goal variant.  Incremental maintenance is held to the same bar:
a columnar-layout :class:`MaterializedView` must walk the same model as
a tuple-layout one and as from-scratch evaluation after any interleaving
of insertion and deletion batches.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import MaterializedView, available_engines, get_engine
from repro.datalog.atoms import Atom
from repro.datalog.columnar import batch, vector
from repro.datalog.database import Database
from repro.datalog.engine import base
from repro.datalog.engine.registry import EngineNotApplicableError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant, Variable
from repro.datalog.workloads import add_ordering, add_successors, grid, parse_workload, random_graph
from repro.errors import EvaluationError

from tests.datalog.strategies import (
    PROGRAM_POOL,
    SHARED_HEAD_AGGREGATES,
    WIDE_PROGRAM_POOL,
    edge_databases,
    edge_fact_batches,
    pool_programs,
    stratified_programs,
    stratified_view_programs,
    wide_databases,
    wide_fact_batches,
    wide_programs,
)

evaluate_seminaive = get_engine("seminaive").evaluate


def assert_same_observables(program, database):
    """Columnar layout must be invisible to every registered engine."""
    columnar = database.with_layout("columnar")
    for name in available_engines():
        engine = get_engine(name)
        try:
            expected = engine.evaluate(program, database)
        except EngineNotApplicableError:
            continue
        actual = engine.evaluate(program, columnar)
        assert actual.idb_facts == expected.idb_facts, name
        if program.goal is not None:
            assert actual.answers() == expected.answers(), name
        assert (
            actual.statistics.as_dict() == expected.statistics.as_dict()
        ), name


@settings(max_examples=40, deadline=None)
@given(pool_programs, edge_databases())
def test_columnar_matches_tuple_binary_pool(program, database):
    assert_same_observables(program, database)


@settings(max_examples=40, deadline=None)
@given(wide_programs, wide_databases())
def test_columnar_matches_tuple_wide_pool(program, database):
    assert_same_observables(program, database)


@settings(max_examples=40, deadline=None)
@given(stratified_programs, edge_databases())
def test_columnar_matches_tuple_stratified_pool(program, database):
    """Anti-join kernels and aggregate folds under the columnar layout.

    The stratified pool drives the batch/vector anti-join lanes (negated
    literals) and the stratum-close aggregate folds on both lanes (binary
    heads on the vector lane, the arity-3 head on the packed lane); both
    must be observationally identical to the tuple baseline for every
    applicable engine.
    """
    assert_same_observables(program, database)


def bound_goal_variant(program, constant):
    """The program with its goal's first argument bound to *constant*."""
    goal = program.goal
    terms = (Constant(constant),) + tuple(
        Variable(f"B{position}") for position in range(1, len(goal.terms))
    )
    return program.with_goal(Atom(goal.predicate, terms))


# Magic's rewrite assumes EDB/IDB disjointness; skip pool programs whose
# mutated relations double as IDB heads (same guard as the incremental
# differential suite).
MAGIC_SAFE = [
    program
    for program in PROGRAM_POOL + WIDE_PROGRAM_POOL
    if not ({"e", "f", "g", "h"} & program.idb_predicates())
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MAGIC_SAFE),
    edge_databases(),
    st.integers(min_value=0, max_value=4),
)
def test_columnar_matches_tuple_magic_bound_goal(program, database, constant):
    bound = bound_goal_variant(program, constant)
    magic = get_engine("magic")
    expected = magic.evaluate(bound, database)
    actual = magic.evaluate(bound, database.with_layout("columnar"))
    assert actual.idb_facts == expected.idb_facts
    assert actual.answers() == expected.answers()
    assert actual.statistics.as_dict() == expected.statistics.as_dict()


# ----------------------------------------------------------------------
# Lane-forcing variants: the dispatch heuristics are part of the code
# under test, so pin each lane on and re-run the same oracle.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(pool_programs, edge_databases())
def test_packed_lane_matches_tuple_when_vector_lane_disabled(program, database):
    """Binary heads normally ride the vector lane; force them through the
    packed-bigint lane and the oracle must still hold."""
    original = vector.supported
    vector.supported = lambda *args: False
    try:
        assert_same_observables(program, database)
    finally:
        vector.supported = original


@settings(max_examples=25, deadline=None)
@given(stratified_programs, edge_databases())
def test_packed_lane_anti_join_matches_tuple(program, database):
    """Negated literals normally hit the vector anti lane on binary heads;
    force the packed-bigint lane and the oracle must still hold."""
    original = vector.supported
    vector.supported = lambda *args: False
    try:
        assert_same_observables(program, database)
    finally:
        vector.supported = original


@settings(max_examples=25, deadline=None)
@given(stratified_programs, edge_databases())
def test_vector_anti_fallback_dedup_matches_tuple(program, database):
    """Zero bitmap budget pushes the vector anti-join through its
    sorted-membership fallback; the oracle must still hold."""
    original = vector._BITMAP_DOMAIN_MAX
    vector._BITMAP_DOMAIN_MAX = 0
    try:
        assert_same_observables(program, database)
    finally:
        vector._BITMAP_DOMAIN_MAX = original


@settings(max_examples=25, deadline=None)
@given(pool_programs, edge_databases())
def test_vector_fallback_dedup_matches_tuple(program, database):
    """Shrink the dense-bitmap budget to zero so the vector lane takes its
    sorted-array/key-set dedup fallback, and re-run the oracle."""
    original = vector._BITMAP_DOMAIN_MAX
    vector._BITMAP_DOMAIN_MAX = 0
    try:
        assert_same_observables(program, database)
    finally:
        vector._BITMAP_DOMAIN_MAX = original


# ----------------------------------------------------------------------
# Incremental maintenance: columnar view == tuple view == from scratch
# ----------------------------------------------------------------------
@st.composite
def mutation_sequences(draw, batches, max_steps: int = 4):
    steps = draw(st.integers(min_value=1, max_value=max_steps))
    return [(draw(batches), draw(batches)) for _ in range(steps)]


def assert_views_agree(columnar_view, tuple_view):
    assert columnar_view.idb_facts() == tuple_view.idb_facts()
    assert columnar_view.base_facts() == tuple_view.base_facts()
    assert columnar_view.answers() == tuple_view.answers()
    for predicate in columnar_view.counting_predicates:
        assert columnar_view.support_counts(predicate) == tuple_view.support_counts(
            predicate
        ), predicate
    scratch = evaluate_seminaive(
        columnar_view.program, columnar_view.base_facts().with_layout("columnar")
    )
    assert columnar_view.idb_facts() == scratch.idb_facts


@settings(max_examples=30, deadline=None)
@given(pool_programs, edge_databases(), st.data())
def test_incremental_columnar_matches_tuple_binary(program, database, data):
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(mutation_sequences(edge_fact_batches())):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)


@settings(max_examples=20, deadline=None)
@given(stratified_view_programs, edge_databases(), st.data())
def test_incremental_columnar_matches_tuple_stratified(program, database, data):
    """A columnar-layout negation view walks the same model as a tuple one."""
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(
        mutation_sequences(edge_fact_batches(), max_steps=3)
    ):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)


@settings(max_examples=20, deadline=None)
@given(wide_programs, wide_databases(), st.data())
def test_incremental_columnar_matches_tuple_wide(program, database, data):
    columnar_view = MaterializedView(program, database.with_layout("columnar"))
    tuple_view = MaterializedView(program, database)
    assert_views_agree(columnar_view, tuple_view)
    for insertions, deletions in data.draw(
        mutation_sequences(wide_fact_batches(), max_steps=3)
    ):
        columnar_view.apply(insertions=insertions, deletions=deletions)
        tuple_view.apply(insertions=insertions, deletions=deletions)
        assert_views_agree(columnar_view, tuple_view)


# ----------------------------------------------------------------------
# Morsel boundaries: one round's leaf input split across several morsels
# ----------------------------------------------------------------------
MORSEL_PROGRAM = parse_program(
    """
    ?out(X, Z)
    out(X, Z) :- b(Y), not blocked(Y), e(Y, X), f(X, Z).
    out(X, Z) :- g(X, Z).
    """
)


def morsel_database():
    """5.1k leaf-input rows in one round, each head row emitted 51 times.

    The planner scans ``b`` (smallest), filters it by ``not blocked``, fans
    out through ``e`` and probes ``f`` as the leaf.  Every out(X, Z) comes
    from each surviving Y, one Y block per 100 batch rows, so the same key
    is emitted in every morsel; ``g`` re-derives a third of them through a
    second rule and adds a few of its own.
    """
    return Database(
        {
            "b": [(y,) for y in range(60)],
            "blocked": [(y,) for y in range(0, 60, 7)],
            "e": [(y, 100 + x) for y in range(60) for x in range(100)],
            "f": [(100 + x, 300 + x % 7) for x in range(100)],
            "g": [(100 + x, 300 + x % 9) for x in range(0, 100, 3)],
        }
    )


@pytest.mark.parametrize("bitmap_max", [vector._BITMAP_DOMAIN_MAX, 0])
def test_morsel_boundaries_match_tuple(monkeypatch, bitmap_max):
    """Dedup and counting across morsels and rules equal the tuple layout's
    (dense-bitmap dedup, and the sorted/key-set fallback at zero budget)."""
    monkeypatch.setattr(vector, "_BITMAP_DOMAIN_MAX", bitmap_max)
    leaf_batches = []
    run_leaf = vector._run_leaf

    def counting_leaf(leaf, parts, cols, n, head_arity):
        leaf_batches.append(n)
        return run_leaf(leaf, parts, cols, n, head_arity)

    monkeypatch.setattr(vector, "_run_leaf", counting_leaf)
    database = morsel_database()
    assert_same_observables(MORSEL_PROGRAM, database)
    # The vector lane ran, its leaf input was split, and the anti step
    # trimmed it first (e minus blocked rows is not a morsel multiple).
    assert len(leaf_batches) >= 3
    assert max(leaf_batches) == vector._MORSEL_ROWS
    assert sum(leaf_batches) % vector._MORSEL_ROWS


# ----------------------------------------------------------------------
# Aggregate rules: compiled kernels, folded at stratum close on every lane
# ----------------------------------------------------------------------
def count_calls(monkeypatch, module, name, calls: Counter) -> None:
    """Wrap ``module.name`` so every call bumps ``calls[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_aggregate_workloads_take_the_columnar_lanes(monkeypatch):
    """shortest_path (binary heads) folds on the vector lane; triangle's
    arity-3 ``tri`` head keeps it on the packed lane, which folds too."""
    calls: Counter = Counter()
    for module, name in (
        (vector, "evaluate_seminaive"),
        (vector, "_fold_aggregate"),
        (batch, "_fire_aggregate"),
    ):
        count_calls(monkeypatch, module, name, calls)
    shortest = add_successors(grid(6, 6, layout="columnar"), 12)
    evaluate_seminaive(parse_workload("shortest_path"), shortest)
    assert calls == {"evaluate_seminaive": 1, "_fold_aggregate": 1}
    calls.clear()
    triangles = add_ordering(random_graph(12, 60, seed=3, layout="columnar"), 12)
    evaluate_seminaive(parse_workload("triangle"), triangles)
    assert calls == {"_fire_aggregate": 2}
    for name, database in (("shortest_path", shortest), ("triangle", triangles)):
        program = parse_workload(name)
        expected = evaluate_seminaive(program, database.with_layout("tuple"))
        actual = evaluate_seminaive(program, database)
        assert actual.idb_facts == expected.idb_facts, name
        assert actual.statistics == expected.statistics, name


@pytest.mark.parametrize("engine", ["naive", "seminaive"])
def test_compiled_aggregate_rules_never_call_match_body(monkeypatch, engine):
    calls: Counter = Counter()
    count_calls(monkeypatch, base, "match_body", calls)
    evaluate = get_engine(engine).evaluate
    program = parse_workload("shortest_path")
    database = add_successors(grid(5, 5), 10)
    compiled = evaluate(program, database)
    assert calls["match_body"] == 0
    interpreted = evaluate(program, database, compiled=False)
    assert calls["match_body"] > 0
    assert compiled.idb_facts == interpreted.idb_facts
    assert compiled.statistics == interpreted.statistics


def test_aggregate_folds_intern_before_any_head_dedup():
    """The sums 7, 6 and 10 lie outside the 0-4 edge domain and reach the
    count's head ``r`` through a plain rule in the same recursive stratum:
    both folds must intern before the first dense bitmap is sized, or the
    vector lane drops rows whose codes fall outside it."""
    database = Database(
        {
            "e": [(0, 1), (1, 2), (0, 3), (2, 0)],
            "f": [(0, 3), (0, 4), (1, 2), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4)],
        }
    )
    assert_same_observables(SHARED_HEAD_AGGREGATES, database)
    result = evaluate_seminaive(SHARED_HEAD_AGGREGATES, database.with_layout("columnar"))
    assert {(0, 7), (1, 6), (2, 10)} <= result.relation("r")


@pytest.mark.parametrize("lane", ["vector", "packed"])
def test_mixed_sum_raises_the_same_error_on_both_layouts(monkeypatch, lane):
    if lane == "packed":
        monkeypatch.setattr(vector, "supported", lambda *args: False)
    program = parse_program(
        """
        ?s(X, S)
        s(X, sum<Y>) :- e(X, Y).
        """
    )
    # Six bad groups, which the layouts visit in different (hash-seeded)
    # orders: the error must name the same one, the least key by repr.
    keys = (29, 47, 48, 16, 24, 90)
    database = Database(
        {"e": [row for i, key in enumerate(keys) for row in ((key, i + 1), (key, f"s{i}"))]}
    )
    messages = []
    for layout in ("tuple", "columnar"):
        with pytest.raises(EvaluationError) as caught:
            evaluate_seminaive(program, database.with_layout(layout))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("aggregate sum over incompatible values ['s3', 4]")
