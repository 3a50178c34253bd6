"""Semi-naive bottom-up evaluation: stratified, planned, with per-iteration deltas.

The standard differential fixpoint: a rule instantiation is only recomputed
in iteration ``i`` if at least one of its recursive body atoms matches a
fact that was new in iteration ``i - 1``.  This engine is the reference
evaluator used throughout the benchmarks; the naive engine exists to expose
the cost of not doing this, and the magic-set / monadic rewrites then
reduce the work further by not deriving irrelevant facts at all.

Two evaluation-level optimisations come from
:mod:`repro.datalog.engine.planner`:

* the fixpoint is **stratified** by strongly connected components of the
  predicate dependency graph — each stratum runs to its own fixpoint with
  all lower strata complete, so non-recursive strata take exactly one pass
  and long dependency chains never rescan rules that cannot fire again;
* each rule body is joined in the **planned order** — probeable atoms
  first, smallest relations next — and each recursive body atom has a
  delta-specialised variant that reads the (small) delta first.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.datalog.database import Database
from repro.datalog.engine.base import (
    EvaluationResult,
    fire_aggregate_rule,
    fire_rule,
    fire_rule_delta,
    split_aggregate_rules,
    split_rules,
)
from repro.datalog.engine.parallel import evaluate_strata, resolve_workers
from repro.datalog.engine.planner import Planner, ProgramPlan, compile_program_plan
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.errors import EvaluationError


def _run_stratum(plan, stratum, working, statistics, check_budget, compiled, collect=None):
    """One stratum's semi-naive fixpoint over *working* (serial core).

    With ``collect`` supplied (the depth-concurrent path, where *working*
    is a private overlay), every derived tuple is also recorded per
    predicate so the driver can fold the overlay's additions back into
    the shared working set.
    """
    statistics.record_stratum()
    label = stratum.label

    # Initial round: every stratum rule once, over everything derived so
    # far (lower strata are complete, this stratum's relations may hold
    # facts loaded from fact rules).  Nothing mutates `working` within a
    # round, so its live relation view plus the per-predicate bucket
    # answer every duplicate check by direct set membership — no
    # contains() round-trips through tuple() coercion per firing, and no
    # per-round frozenset rebuild on deep recursions with small deltas.
    statistics.record_iteration(label)
    check_budget()
    plain_rules, aggregate_rules = split_aggregate_rules(stratum.rules)
    delta_sets: Dict[str, Set[Tuple]] = {}
    for rule in plain_rules:
        bucket = delta_sets.setdefault(rule.head.predicate, set())
        fire_rule(plan, rule, working, bucket, statistics, compiled)
    # Aggregate rules fire exactly once, here: stratification forces
    # their whole bodies into strictly lower (closed) strata, so the
    # stratum's own fixpoint cannot change what they derive.
    for rule in aggregate_rules:
        bucket = delta_sets.setdefault(rule.head.predicate, set())
        fire_aggregate_rule(plan, rule, working, bucket, statistics, compiled)
    delta = Database.adopt({name: bucket for name, bucket in delta_sets.items() if bucket})
    working.update(delta)
    if collect is not None:
        for name, bucket in delta_sets.items():
            if bucket:
                collect.setdefault(name, set()).update(bucket)

    if not stratum.recursive:
        # No rule in this stratum can feed itself: one pass is the fixpoint.
        return

    while delta.fact_count():
        statistics.record_iteration(label)
        check_budget()
        next_sets: Dict[str, Set[Tuple]] = {}
        delta_predicates = delta.predicates()
        for rule in plain_rules:
            bucket = next_sets.setdefault(rule.head.predicate, set())
            fire_rule_delta(
                plan, rule, working, delta, delta_predicates, bucket, statistics, compiled
            )
        next_delta = Database.adopt(
            {name: bucket for name, bucket in next_sets.items() if bucket}
        )
        working.update(next_delta)
        if collect is not None:
            for name, bucket in next_sets.items():
                if bucket:
                    collect.setdefault(name, set()).update(bucket)
        delta = next_delta


def _evaluate(
    program: Program,
    database: Database,
    max_iterations: Optional[int] = None,
    planner: Optional[Planner] = None,
    plan: Optional[ProgramPlan] = None,
    compiled: bool = True,
    guard=None,
    workers: Optional[int] = None,
) -> EvaluationResult:
    """Compute the minimum model of *program* over *database* semi-naively.

    *planner*, when supplied (a :class:`~repro.datalog.engine.planner.Planner`,
    normally the :class:`~repro.datalog.session.QuerySession`'s), serves the
    compiled :class:`~repro.datalog.engine.planner.ProgramPlan` from its
    cache across repeated evaluations; otherwise the plan is compiled fresh.
    *plan*, when supplied (the prepared-query path), is used as-is — the
    caller guarantees it was compiled for this program's proper rules; the
    program may additionally carry ground fact rules (per-binding seeds),
    which are loaded before the fixpoint like any other facts.
    ``max_iterations`` bounds the *total* fixpoint rounds across all strata.

    *compiled* selects the rule evaluator: the default runs every rule that
    has a compiled slot kernel (:mod:`repro.datalog.engine.executor`)
    through it; rules without one — and all rules when ``compiled=False``,
    the baseline the kernel benchmarks time against — run through the
    interpreted :func:`~repro.datalog.engine.base.match_body` path.

    *guard*, when supplied (an armed
    :class:`~repro.datalog.guard.ExecutionGuard`), is checkpointed at every
    fixpoint round boundary: a deadline, budget, or cancellation abort
    raises its typed error with the input database untouched (evaluation
    runs over a working copy).

    *workers*, when > 1, enables the parallel layer: same-depth strata run
    concurrently on threads (:mod:`repro.datalog.engine.parallel`), and on
    the columnar packed-bigint lane recursive rounds are process-sharded
    (:mod:`repro.datalog.columnar.shard`).  The model and statistics are
    identical to the serial run at any worker count.
    """
    program.validate()
    workers_n = resolve_workers(workers)
    statistics = EvaluationStatistics()
    idb_predicates = program.idb_predicates()

    # The plan resolves first (it reads the *input* database, never the
    # working copy, so hoisting it above fact loading changes nothing) so
    # that a columnar-layout database can route the whole evaluation
    # through the batch kernels before any tuple-side work happens.
    if plan is not None:
        statistics.record_plan(cache_hit=True)
    elif planner is not None:
        plan = planner.plan(program, database, statistics=statistics)
    else:
        plan = compile_program_plan(program, database)
        statistics.record_plan(cache_hit=False)

    if compiled and getattr(database, "layout", "tuple") == "columnar":
        from repro.datalog.columnar.batch import evaluate_seminaive, plan_supported

        if plan_supported(plan):
            return evaluate_seminaive(
                program, database, plan, statistics, max_iterations,
                guard=guard, workers=workers_n,
            )

    working = database.copy()

    fact_rules, _ = split_rules(program)
    for rule in fact_rules:
        values = rule.head.as_fact_tuple()
        statistics.record_firing()
        is_new = working.add_fact(rule.head.predicate, values)
        statistics.record_fact(rule.head.predicate, is_new)

    def check_budget() -> None:
        if guard is not None:
            guard.checkpoint(statistics)
        if max_iterations is not None and statistics.iterations > max_iterations:
            raise EvaluationError(
                f"semi-naive evaluation exceeded {max_iterations} iterations"
            )

    def run_stratum(stratum, target, stats, check, collect):
        _run_stratum(plan, stratum, target, stats, check, compiled, collect)

    evaluate_strata(
        plan, working, statistics, run_stratum, check_budget,
        guard=guard, max_iterations=max_iterations, workers=workers_n,
        error_label="semi-naive",
    )

    idb_facts = working.restrict(idb_predicates)
    return EvaluationResult(program, database, idb_facts, statistics)
