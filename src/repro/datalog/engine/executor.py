"""Compiled slot-based join kernels for the bottom-up engines.

PR 2's :class:`~repro.datalog.engine.planner.JoinPlan` fixed *what order* a
rule's body is joined in; the engines still *interpreted* that order through
:func:`~repro.datalog.engine.base.match_body`, which pays real interpreter
overhead per candidate tuple: a fresh substitution dict (``dict(...)`` per
candidate, even failing ones), a :class:`~repro.datalog.terms.Constant`
wrapper allocated per binding, and an ``isinstance`` scan over the atom's
terms to rediscover the probe column on every call.

This module lowers each plan into a :class:`RuleKernel` that removes all of
that from the inner loop:

* the rule's variables are numbered into **slots** ``0..k-1`` once, at
  compile time; a substitution becomes a plain Python list of raw domain
  values — no dicts, no ``Constant`` wrapping;
* each join step precompiles its **probe source** (a constant value, a slot
  to read, or a full scan), its **equality checks** as ``(tuple position,
  expected)`` pairs, and its **bind list** of ``(tuple position, slot)``
  writes — the loop body is pure tuple indexing and list writes;
* **head extraction** compiles to a builder over slot indexes and constant
  values (no per-firing dict lookups through the substitution);
* every :class:`~repro.datalog.engine.planner.DeltaVariant` gets its own
  compiled step sequence sharing the same slot numbering, so semi-naive
  rounds run kernels too.

Compilation is conservative: a rule whose terms are not all variables and
constants (e.g. an un-compiled :class:`~repro.datalog.terms.Parameter`)
yields no kernel and the engines fall back to the ``match_body`` reference
path, which also remains the evaluator for the top-down engine and any
custom transform that produces such rules.  :func:`compile_program_plan`
attaches kernels to the :class:`~repro.datalog.engine.planner.ProgramPlan`,
so the :class:`~repro.datalog.engine.planner.Planner` memo cache (and a
:class:`~repro.datalog.prepared.PreparedQuery`'s cached plan) amortises
kernel compilation exactly like join planning: once per binding pattern.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datalog.atoms import NegatedAtom
from repro.datalog.rules import Rule
from repro.datalog.terms import Aggregate, Constant, Variable

# Probe kinds a compiled step can use to fetch its candidate tuples.
PROBE_CONST = 0  # index probe with a constant baked in at compile time
PROBE_SLOT = 1  # index probe with the value read from a slot
PROBE_SCAN = 2  # full relation scan


class StepKernel:
    """One compiled join step: where to fetch tuples and how to filter them.

    Everything the inner loop needs is precomputed into plain tuples of
    integers and raw values; the atom itself is kept only for
    :meth:`describe`.
    """

    __slots__ = (
        "atom",
        "predicate",
        "arity",
        "use_delta",
        "probe_kind",
        "probe_position",
        "probe_value",
        "probe_slot",
        "const_checks",
        "slot_checks",
        "self_checks",
        "binds",
        "anti",
        "anti_ops",
    )

    def __init__(
        self,
        atom,
        use_delta: bool,
        probe_kind: int,
        probe_position: int,
        probe_value,
        probe_slot: int,
        const_checks: Tuple[Tuple[int, object], ...],
        slot_checks: Tuple[Tuple[int, int], ...],
        self_checks: Tuple[Tuple[int, int], ...],
        binds: Tuple[Tuple[int, int], ...],
        anti: bool = False,
        anti_ops: Tuple[Tuple[bool, object], ...] = (),
    ):
        self.atom = atom
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.use_delta = use_delta
        self.probe_kind = probe_kind
        self.probe_position = probe_position
        self.probe_value = probe_value
        self.probe_slot = probe_slot
        self.const_checks = const_checks
        self.slot_checks = slot_checks
        self.self_checks = self_checks
        self.binds = binds
        # Anti steps (negated literals) run fully bound: ``anti_ops`` builds
        # the ground value tuple — one (is_slot, payload) pair per argument —
        # and the step passes iff the tuple is absent from the relation.
        self.anti = anti
        self.anti_ops = anti_ops

    def describe(self) -> str:
        """One EXPLAIN line: source, probe, checks, and slot writes."""
        if self.anti:
            args = ", ".join(
                f"s{payload}" if is_slot else repr(payload)
                for is_slot, payload in self.anti_ops
            )
            return f"anti-join {self.predicate}({args})"
        source = "delta " if self.use_delta else ""
        if self.probe_kind == PROBE_CONST:
            access = f"probe {source}{self.predicate}[{self.probe_position}]=={self.probe_value!r}"
        elif self.probe_kind == PROBE_SLOT:
            access = f"probe {source}{self.predicate}[{self.probe_position}]==s{self.probe_slot}"
        else:
            access = f"scan {source}{self.predicate}"
        parts = [access]
        checks = [f"[{pos}]=={value!r}" for pos, value in self.const_checks]
        checks += [f"[{pos}]==s{slot}" for pos, slot in self.slot_checks]
        checks += [f"[{pos}]==[{other}]" for pos, other in self.self_checks]
        if checks:
            parts.append("check " + ",".join(checks))
        if self.binds:
            parts.append("bind " + ",".join(f"s{slot}<-[{pos}]" for pos, slot in self.binds))
        return "; ".join(parts)


# A compiled step sequence: call with (database, delta_database, slots, emit)
# and it invokes ``emit`` once per satisfying head-value tuple.
KernelRunner = Callable[[object, object, List[object], Callable[[Tuple], None]], None]


def _compile_head(head_ops: Tuple[Tuple[bool, object], ...]) -> Callable[[List[object]], Tuple]:
    """A builder turning a slot list into the head's value tuple.

    *head_ops* holds one ``(is_slot, payload)`` pair per head argument —
    the payload is a slot index or a raw constant value.  The common small
    arities get dedicated closures so the hot path avoids a generator
    expression per firing.
    """
    if all(not is_slot for is_slot, _ in head_ops):
        ground = tuple(payload for _, payload in head_ops)
        return lambda slots: ground
    if len(head_ops) == 1:
        # The all-constant case returned above, so this is a slot read.
        ((_, payload),) = head_ops
        return lambda slots: (slots[payload],)
    if len(head_ops) == 2:
        (first_slot, first), (second_slot, second) = head_ops
        if first_slot and second_slot:
            return lambda slots: (slots[first], slots[second])
        if first_slot:
            return lambda slots: (slots[first], second)
        return lambda slots: (first, slots[second])
    return lambda slots: tuple(
        slots[payload] if is_slot else payload for is_slot, payload in head_ops
    )


def _compile_steps(
    steps: Sequence[StepKernel], head_builder: Callable[[List[object]], Tuple]
) -> KernelRunner:
    """Chain the compiled steps into nested loops, innermost emitting heads.

    Built back-to-front: each step becomes a closure over its own probe
    spec, check lists, and bind list (all locals — no attribute lookups in
    the loop) that drives the next step's closure per surviving tuple.
    """
    runner: Optional[KernelRunner] = None
    for step in reversed(steps):
        runner = _compile_step(step, runner, head_builder)
    if runner is None:
        # Empty body: fire exactly once (match_body yields one empty
        # substitution); validation guarantees the head is ground.
        return lambda database, delta, slots, emit: emit(head_builder(slots))
    return runner


def _compile_step(
    step: StepKernel,
    continuation: Optional[KernelRunner],
    head_builder: Callable[[List[object]], Tuple],
) -> KernelRunner:
    predicate = step.predicate
    arity = step.arity
    use_delta = step.use_delta
    probe_kind = step.probe_kind
    probe_position = step.probe_position
    probe_value = step.probe_value
    probe_slot = step.probe_slot
    const_checks = step.const_checks
    slot_checks = step.slot_checks
    self_checks = step.self_checks
    binds = step.binds
    is_leaf = continuation is None

    if step.anti:
        anti_ops = step.anti_ops

        def run_anti(database, delta, slots, emit):
            # Membership test against the working database (the negated
            # predicate's relation is fully closed — it lives in a strictly
            # lower stratum or the EDB — so ``contains`` is the complement).
            values = tuple(
                slots[payload] if is_slot else payload for is_slot, payload in anti_ops
            )
            if database.contains(predicate, values):
                return
            if is_leaf:
                emit(head_builder(slots))
            else:
                continuation(database, delta, slots, emit)

        return run_anti

    def run(database, delta, slots, emit):
        source = delta if use_delta else database
        if probe_kind == PROBE_CONST:
            candidates = source.probe(predicate, probe_position, probe_value)
        elif probe_kind == PROBE_SLOT:
            candidates = source.probe(predicate, probe_position, slots[probe_slot])
        else:
            candidates = source.relation(predicate)
        for values in candidates:
            if len(values) != arity:
                continue
            if const_checks:
                matched = True
                for position, expected in const_checks:
                    if values[position] != expected:
                        matched = False
                        break
                if not matched:
                    continue
            if slot_checks:
                matched = True
                for position, slot in slot_checks:
                    if values[position] != slots[slot]:
                        matched = False
                        break
                if not matched:
                    continue
            if self_checks:
                matched = True
                for position, other in self_checks:
                    if values[position] != values[other]:
                        matched = False
                        break
                if not matched:
                    continue
            for position, slot in binds:
                slots[slot] = values[position]
            if is_leaf:
                emit(head_builder(slots))
            else:
                continuation(database, delta, slots, emit)

    return run


class RuleKernel:
    """The fully compiled evaluator for one rule.

    One slot file (``register_count`` raw values) is shared by the static
    step sequence and every delta variant; callers get firings as a list of
    head-value tuples (duplicates included — duplicate accounting belongs
    to the fixpoint, which owns the per-predicate seen-sets).
    """

    __slots__ = (
        "rule",
        "register_count",
        "slot_names",
        "head_ops",
        "static_steps",
        "delta_steps",
        "_head_builder",
        "_static_runner",
        "_delta_runners",
        "_batch",
    )

    def __init__(
        self,
        rule: Rule,
        register_count: int,
        slot_names: Tuple[str, ...],
        head_ops: Tuple[Tuple[bool, object], ...],
        static_steps: Tuple[StepKernel, ...],
        delta_steps: Dict[int, Tuple[StepKernel, ...]],
    ):
        self.rule = rule
        self.register_count = register_count
        self.slot_names = slot_names
        self.head_ops = head_ops
        self.static_steps = static_steps
        self.delta_steps = dict(delta_steps)
        self._head_builder = _compile_head(head_ops)
        self._static_runner = _compile_steps(static_steps, self._head_builder)
        self._delta_runners = {
            position: _compile_steps(steps, self._head_builder)
            for position, steps in delta_steps.items()
        }
        self._batch = None

    @property
    def delta_positions(self) -> Tuple[int, ...]:
        """Original body positions that have a compiled delta variant."""
        return tuple(self.delta_steps)

    def batch_kernel(self):
        """The columnar lowering of this kernel's step programs.

        Same steps, same slot numbering, same delta variants — but each
        step runs over a whole batch of intern-code columns instead of one
        tuple at a time (see :mod:`repro.datalog.columnar.batch`).  Built
        lazily so tuple-layout evaluations never pay for it.
        """
        if self._batch is None:
            from repro.datalog.columnar.batch import BatchKernel

            self._batch = BatchKernel(self)
        return self._batch

    def execute_static(self, database, emit: Callable[[Tuple], None]) -> None:
        """Stream the static order's head-value firings into *emit*.

        Duplicates are streamed too — duplicate accounting belongs to the
        fixpoint, which owns the per-predicate seen-sets and filters in its
        callback without materialising the firing list.
        """
        self._static_runner(database, None, [None] * self.register_count, emit)

    def execute_delta(
        self, position: int, database, delta, emit: Callable[[Tuple], None]
    ) -> None:
        """Stream firings with the body atom at *position* reading the delta."""
        self._delta_runners[position](database, delta, [None] * self.register_count, emit)

    def run_static(self, database) -> List[Tuple]:
        """All head-value firings of the static order, materialised (for tests)."""
        out: List[Tuple] = []
        self.execute_static(database, out.append)
        return out

    def run_delta(self, position: int, database, delta) -> List[Tuple]:
        """All firings of one delta variant, materialised (for tests)."""
        out: List[Tuple] = []
        self.execute_delta(position, database, delta, out.append)
        return out

    def head(self, slots: Sequence[object]) -> Tuple:
        """The head-value tuple for a fully populated slot list (for tests)."""
        return self._head_builder(list(slots))

    def describe(self) -> str:
        """EXPLAIN surface: slot numbering, head extraction, per-step detail."""
        slots = ", ".join(f"{name}=s{index}" for index, name in enumerate(self.slot_names))
        head = ", ".join(
            f"s{payload}" if is_slot else repr(payload) for is_slot, payload in self.head_ops
        )
        lines = [f"kernel: {self.register_count} slots ({slots or 'none'}); head <{head}>"]
        for number, step in enumerate(self.static_steps, start=1):
            lines.append(f"  {number}. {step.describe()}")
        for position in sorted(self.delta_steps):
            chain = " -> ".join(step.describe() for step in self.delta_steps[position])
            lines.append(f"  delta@{position}: {chain}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RuleKernel(rule={self.rule}, slots={self.register_count}, "
            f"steps={len(self.static_steps)}, variants={len(self.delta_steps)})"
        )


def _compile_sequence(
    rule: Rule,
    order: Sequence[int],
    registers: Dict[Variable, int],
    delta_position: Optional[int],
) -> Optional[Tuple[StepKernel, ...]]:
    """Lower one execution order into compiled steps under the shared slots.

    The probe column mirrors :func:`~repro.datalog.engine.base.candidate_tuples`
    exactly — the first argument (in term order) that is a constant or an
    already-bound variable — so the compiled access path is the one the
    planner's ``probe``/``scan`` annotations promised.

    A negated literal compiles to an *anti step* (fully-bound membership
    test against the complement) — unless it is the delta position, in
    which case it is matched positively against the signed delta (the
    incremental maintenance pass enumerates negated-position deltas that
    way).  Returns ``None`` if an anti step would run with an unbound
    variable (planned orders never do this; a hand-built order might).
    """
    bound: set = set()
    steps: List[StepKernel] = []
    for position in order:
        atom = rule.body[position]
        if isinstance(atom, NegatedAtom) and position != delta_position:
            anti_ops: List[Tuple[bool, object]] = []
            for term in atom.terms:
                if isinstance(term, Constant):
                    anti_ops.append((False, term.value))
                elif term in bound:
                    anti_ops.append((True, registers[term]))
                else:
                    return None
            steps.append(
                StepKernel(
                    atom, False, PROBE_SCAN, -1, None, -1, (), (), (), (),
                    anti=True, anti_ops=tuple(anti_ops),
                )
            )
            continue
        probe_kind = PROBE_SCAN
        probe_position = -1
        probe_value = None
        probe_slot = -1
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                probe_kind, probe_position, probe_value = PROBE_CONST, index, term.value
                break
            if term in bound:
                probe_kind, probe_position, probe_slot = PROBE_SLOT, index, registers[term]
                break
        const_checks: List[Tuple[int, object]] = []
        slot_checks: List[Tuple[int, int]] = []
        self_checks: List[Tuple[int, int]] = []
        binds: List[Tuple[int, int]] = []
        first_here: Dict[Variable, int] = {}
        for index, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                if probe_kind == PROBE_CONST and index == probe_position:
                    continue  # the probe already guarantees equality here
                const_checks.append((index, term.value))
            elif term in bound:
                if probe_kind == PROBE_SLOT and index == probe_position:
                    continue  # ditto: probed by this slot's value
                slot_checks.append((index, registers[term]))
            elif term in first_here:
                # Repeated variable within this atom, still unbound: compare
                # the two tuple positions directly.
                self_checks.append((index, first_here[term]))
            else:
                first_here[term] = index
                binds.append((index, registers[term]))
        bound.update(first_here)
        steps.append(
            StepKernel(
                atom,
                position == delta_position,
                probe_kind,
                probe_position,
                probe_value,
                probe_slot,
                tuple(const_checks),
                tuple(slot_checks),
                tuple(self_checks),
                tuple(binds),
            )
        )
    return tuple(steps)


def compile_rule_kernel(plan) -> Optional[RuleKernel]:
    """Compile a :class:`~repro.datalog.engine.planner.JoinPlan` to a kernel.

    Returns ``None`` when the rule cannot be lowered — any term that is not
    a plain variable or constant (an un-compiled parameter, or a term kind a
    future transform might invent) keeps the rule on the interpreted
    ``match_body`` path instead of miscompiling it.
    """
    rule: Rule = plan.rule
    # An aggregate head term compiles to its variable: the kernel emits
    # pre-aggregate rows, which the engines fold at stratum close.
    head_terms = tuple(
        term.variable if isinstance(term, Aggregate) else term for term in rule.head.terms
    )
    for terms in (head_terms, *(atom.terms for atom in rule.body)):
        for term in terms:
            if not isinstance(term, (Variable, Constant)):
                return None
    registers: Dict[Variable, int] = {}
    for atom in rule.body:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in registers:
                registers[term] = len(registers)
    head_ops: List[Tuple[bool, object]] = []
    for term in head_terms:
        if isinstance(term, Variable):
            if term not in registers:
                return None  # unsafe head variable; leave it to validation
            head_ops.append((True, registers[term]))
        else:
            head_ops.append((False, term.value))
    static_steps = _compile_sequence(rule, plan.order, registers, None)
    if static_steps is None:
        return None
    delta_steps = {}
    for variant in plan.variants:
        steps = _compile_sequence(rule, variant.order, registers, variant.position)
        if steps is None:
            return None
        delta_steps[variant.position] = steps
    slot_names = tuple(
        name for name, _ in sorted(
            ((variable.name, index) for variable, index in registers.items()),
            key=lambda pair: pair[1],
        )
    )
    return RuleKernel(
        rule, len(registers), slot_names, tuple(head_ops), static_steps, delta_steps
    )
