"""Naive bottom-up evaluation: iterate a stratum's rules over the full model.

This is the textbook fixpoint computation of the minimum model ``M(B, H)``
of Section 2.1, kept deliberately wasteful *within* a recursive stratum: it
recomputes every rule over the whole model at every iteration, so it
derives the same facts over and over — the
:class:`~repro.datalog.engine.stats.EvaluationStatistics` duplicate counter
makes that waste visible, which is exactly the waste the paper's selection
propagation and the magic-set transformation are designed to avoid.

It does share the planner's structural optimisations with the semi-naive
engine (see :mod:`repro.datalog.engine.planner`): bodies are joined in the
planned order, and evaluation proceeds stratum by stratum so non-recursive
strata run in a single pass.  What stays naive is the differential part —
inside a recursive stratum there are no deltas, every round redoes all the
work.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.datalog.database import Database
from repro.datalog.engine.base import (
    EvaluationResult,
    fire_aggregate_rule,
    fire_rule,
    split_aggregate_rules,
    split_rules,
)
from repro.datalog.engine.parallel import evaluate_strata, resolve_workers
from repro.datalog.engine.planner import Planner, ProgramPlan, compile_program_plan
from repro.datalog.engine.stats import EvaluationStatistics
from repro.datalog.program import Program
from repro.errors import EvaluationError


def _run_stratum(plan, stratum, working, statistics, check_budget, compiled, collect=None):
    """One stratum's naive fixpoint over *working* (serial core).

    With ``collect`` supplied (the depth-concurrent path, where *working*
    is a private overlay), every derived tuple is also recorded per
    predicate so the driver can fold the overlay's additions back into
    the shared working set.
    """
    statistics.record_stratum()
    plain_rules, aggregate_rules = split_aggregate_rules(stratum.rules)
    first_round = True
    changed = True
    while changed:
        changed = False
        statistics.record_iteration(stratum.label)
        check_budget()
        # predicate -> fresh head tuples produced this round.  The round
        # never mutates `working`, so its live relation view plus this
        # bucket answer every duplicate check by direct set membership.
        pending: Dict[str, Set[Tuple]] = {}
        for rule in plain_rules:
            bucket = pending.setdefault(rule.head.predicate, set())
            fire_rule(plan, rule, working, bucket, statistics, compiled)
        if first_round:
            # Aggregate rules read only closed lower strata — one firing
            # per stratum, on the first round, exactly as the semi-naive
            # engine does it (shared routine, identical statistics).
            for rule in aggregate_rules:
                bucket = pending.setdefault(rule.head.predicate, set())
                fire_aggregate_rule(plan, rule, working, bucket, statistics, compiled)
            first_round = False
        changed = working.add_relations(pending) > 0
        if collect is not None:
            for name, bucket in pending.items():
                if bucket:
                    collect.setdefault(name, set()).update(bucket)
        if not stratum.recursive:
            # Every body predicate is already at fixpoint: one pass suffices.
            break


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
    """Compute the minimum model of *program* over *database* naively.

    Parameters
    ----------
    program:
        The Datalog program (must be safe).
    database:
        The EDB instance; it is not modified.
    max_iterations:
        Optional safety valve over the total rounds across all strata;
        exceeded iterations raise :class:`EvaluationError`.
    planner:
        Optional :class:`~repro.datalog.engine.planner.Planner` whose cache
        serves the compiled join/stratification plan.
    plan:
        Optional precompiled plan (the prepared-query path); used as-is.
    compiled:
        When true (the default), rules with a compiled slot kernel
        (:mod:`repro.datalog.engine.executor`) run through it; rules
        without one — and every rule when ``compiled=False``, which the
        kernel benchmarks use to time the baseline — run through the
        interpreted :func:`~repro.datalog.engine.base.match_body` path.
    guard:
        Optional armed :class:`~repro.datalog.guard.ExecutionGuard`,
        checkpointed at every round boundary; aborts leave *database*
        untouched (evaluation runs over a working copy).
    workers:
        Optional parallelism degree (> 1 runs same-depth strata on
        concurrent threads; see :mod:`repro.datalog.engine.parallel`);
        results and statistics are identical to the serial run.

    The naive engine is the cost baseline, so it runs on the tuple path for
    every database layout: the columnar lanes serve the semi-naive engine.
    """
    program.validate()
    workers_n = resolve_workers(workers)
    statistics = EvaluationStatistics()

    if plan is not None:
        statistics.record_plan(cache_hit=True)
    elif planner is not None:
        plan = planner.plan(program, database, statistics=statistics)
    else:
        plan = compile_program_plan(program, database)
        statistics.record_plan(cache_hit=False)

    working = database.copy()

    fact_rules, _ = split_rules(program)
    for rule in fact_rules:
        is_new = working.add_fact(rule.head.predicate, rule.head.as_fact_tuple())
        statistics.record_firing()
        statistics.record_fact(rule.head.predicate, is_new)

    def check_budget() -> None:
        if guard is not None:
            guard.checkpoint(statistics)
        if max_iterations is not None and statistics.iterations > max_iterations:
            raise EvaluationError(
                f"naive evaluation exceeded {max_iterations} iterations"
            )

    def run_stratum(stratum, target, stats, check, collect):
        _run_stratum(plan, stratum, target, stats, check, compiled, collect)

    evaluate_strata(
        plan, working, statistics, run_stratum, check_budget,
        guard=guard, max_iterations=max_iterations, workers=workers_n,
        error_label="naive",
    )

    idb_facts = working.restrict(program.idb_predicates())
    return EvaluationResult(program, database, idb_facts, statistics)
