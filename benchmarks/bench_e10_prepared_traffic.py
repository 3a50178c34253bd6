"""Experiment E10 — prepared parameterized queries under traffic.

The paper's rewrites depend on the goal's *binding pattern*, not the
constant, so a production query surface should compile them once and serve
every fresh constant from the compiled form.  This experiment measures
exactly that amortization on a wide chain-forest EDB (many small query
cones, large total database — the traffic regime):

* **ad hoc**: every request builds a constant-goal program, re-runs the
  magic-set rewrite, re-plans, and deep-copies the EDB into a working set;
* **prepared**: the rewrite/plan ran once at prepare time; a request only
  loads one ``__param`` seed fact into an O(1) copy-on-write overlay and
  runs the fixpoint;
* **batched**: ``execute_many`` pushes a whole window of bindings through a
  single shared fixpoint;
* **service**: the :class:`~repro.datalog.service.DatalogService` front
  door with its LRU result cache, the path real traffic takes.

The second-argument template ``?anc(X, $who)`` takes the same path: the
bound-first information passing of the magic rewrite adorns its recursion
``fb``, so a request searches backwards from ``$who`` instead of computing
the whole closure.

Acceptance gate (checked by ``test_prepared_speedup_at_least_3x``, which
runs in the plain suite as well as under the benchmark harness): prepared
execution of a magic-rewritten recursive query with a fresh constant must
be at least 3x faster than the equivalent ad-hoc QuerySession evaluation.
"""

import itertools
import time

from repro.core.workloads import chain_forest
from repro.datalog import (
    Atom,
    Constant,
    DatalogService,
    QuerySession,
    Variable,
    parse_program,
)
from repro.datalog.transforms import MagicSets

CHAIN_COUNT = 600
CHAIN_LENGTH = 8
DATABASE = chain_forest(CHAIN_COUNT, CHAIN_LENGTH)
ROOTS = [f"r{index}" for index in range(CHAIN_COUNT)]
LEAVES = [f"r{index}n{CHAIN_LENGTH - 1}" for index in range(CHAIN_COUNT)]

TEMPLATE = parse_program(
    """
    ?anc($who, Y)
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), par(Z, Y).
    """
)
SECOND_ARGUMENT_TEMPLATE = parse_program(
    """
    ?anc(X, $who)
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), par(Z, Y).
    """
)
RULES_ONLY = parse_program(
    """
    anc(X, Y) :- par(X, Y).
    anc(X, Y) :- anc(X, Z), par(Z, Y).
    """
)


def adhoc_answers(constant: str):
    """The pre-redesign path: constant baked in, rewrite + plan per request."""
    program = RULES_ONLY.with_goal(Atom("anc", (Constant(constant), Variable("Y"))))
    return QuerySession(program, DATABASE).with_transforms(MagicSets()).answers()


def make_prepared():
    prepared = QuerySession(TEMPLATE, DATABASE).with_transforms(MagicSets()).prepare()
    prepared.plan()  # compile up front, outside any timed region
    return prepared


def test_parity_prepared_vs_adhoc():
    """Same answers on every path before anything is timed."""
    prepared = make_prepared()
    for constant in (ROOTS[0], ROOTS[7], ROOTS[599]):
        expected = adhoc_answers(constant)
        assert len(expected) == CHAIN_LENGTH
        assert prepared.answers(who=constant) == expected
    batch = prepared.execute_many([{"who": who} for who in ROOTS[:16]])
    assert batch == [adhoc_answers(who) for who in ROOTS[:16]]


def make_second_argument_prepared():
    prepared = (
        QuerySession(SECOND_ARGUMENT_TEMPLATE, DATABASE).with_transforms(MagicSets()).prepare()
    )
    prepared.plan()
    return prepared


def test_parity_second_argument_template():
    """``?anc(X, $who)`` answers the unrestricted closure filtered on ``$who``."""
    closure = QuerySession(
        RULES_ONLY.with_goal(Atom("anc", (Variable("X"), Variable("Y")))), DATABASE
    ).answers()
    prepared = make_second_argument_prepared()
    for who in (LEAVES[0], LEAVES[599], "r7n3", ROOTS[3]):
        expected = frozenset((x,) for x, y in closure if y == who)
        assert prepared.answers(who=who) == expected
    assert len(prepared.answers(who=LEAVES[5])) == CHAIN_LENGTH


def test_prepared_magic_second_argument_fresh_constant(benchmark):
    prepared = make_second_argument_prepared()
    counter = itertools.count()

    def run():
        return prepared.answers(who=LEAVES[next(counter) % CHAIN_COUNT])

    answers = benchmark(run)
    benchmark.extra_info["answers_per_query"] = len(answers)
    benchmark.extra_info["database_facts"] = DATABASE.fact_count()


def test_adhoc_magic_fresh_constant(benchmark):
    counter = itertools.count()

    def run():
        return adhoc_answers(ROOTS[next(counter) % CHAIN_COUNT])

    answers = benchmark(run)
    benchmark.extra_info["answers_per_query"] = len(answers)
    benchmark.extra_info["database_facts"] = DATABASE.fact_count()


def test_prepared_magic_fresh_constant(benchmark):
    prepared = make_prepared()
    counter = itertools.count()

    def run():
        return prepared.answers(who=ROOTS[next(counter) % CHAIN_COUNT])

    answers = benchmark(run)
    benchmark.extra_info["answers_per_query"] = len(answers)
    benchmark.extra_info["database_facts"] = DATABASE.fact_count()


def test_prepared_execute_many_window(benchmark):
    """A 32-binding window through one shared fixpoint."""
    prepared = make_prepared()
    assert prepared.supports_shared_execution
    counter = itertools.count()

    def run():
        start = next(counter) * 32
        window = [
            {"who": ROOTS[(start + offset) % CHAIN_COUNT]} for offset in range(32)
        ]
        return prepared.execute_many(window)

    results = benchmark(run)
    benchmark.extra_info["window_size"] = 32
    benchmark.extra_info["answers_per_query"] = len(results[0])


def test_service_cached_traffic(benchmark):
    """The DatalogService path with a warm LRU cache (32 distinct constants)."""
    service = DatalogService(DATABASE, cache_size=64)
    service.register_program("anc", TEMPLATE, transforms=(MagicSets(),))
    pool = ROOTS[:32]
    for who in pool:  # warm the cache
        service.execute("anc", who=who)
    counter = itertools.count()

    def run():
        return service.execute("anc", who=pool[next(counter) % len(pool)])

    answers = benchmark(run)
    statistics = service.statistics()
    benchmark.extra_info["answers_per_query"] = len(answers)
    benchmark.extra_info["cache_hits"] = statistics["cache_hits"]
    benchmark.extra_info["engine_executions"] = statistics["executions"]


def test_prepared_speedup_at_least_3x():
    """The ISSUE's acceptance gate, measured directly with perf_counter.

    Locally the gap is ~7-8x; the 3x threshold leaves >2x headroom for
    noisy CI machines.  Best-of-three averaging smooths scheduler noise.
    """
    prepared = make_prepared()
    prepared.answers(who=ROOTS[0])  # warm

    def best_average_seconds(run, calls=60, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for index in range(calls):
                run(index)
            best = min(best, (time.perf_counter() - started) / calls)
        return best

    prepared_seconds = best_average_seconds(
        lambda index: prepared.answers(who=ROOTS[index % CHAIN_COUNT])
    )
    adhoc_seconds = best_average_seconds(
        lambda index: adhoc_answers(ROOTS[index % CHAIN_COUNT])
    )
    speedup = adhoc_seconds / prepared_seconds
    assert speedup >= 3.0, (
        f"prepared {prepared_seconds * 1e3:.3f} ms vs adhoc "
        f"{adhoc_seconds * 1e3:.3f} ms: only {speedup:.1f}x"
    )
