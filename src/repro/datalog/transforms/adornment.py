"""Adorned programs: binding-pattern propagation with bound-first sideways information passing.

Adornments are the bookkeeping device of the magic-set transformation
([5, 23] in the paper): an IDB predicate is annotated with a string over
``{b, f}`` describing which argument positions are bound when the predicate
is called during a top-down evaluation of the goal.

The sideways information-passing strategy (SIPS) fixes the order in which a
rule body is evaluated, and so which bindings reach each body atom.  This
module uses a *bound-first* SIPS: the next atom is the first remaining one
(in source order) that carries a binding — a constant, a parameter, or an
already-bound variable — and only when none does is the first remaining
atom taken.  Under it ``reach(X, Y) :- reach(X, Z), edge(Z, Y)`` called
with ``Y`` bound visits ``edge(Z, Y)`` first, so the recursive call is
adorned ``fb`` and the goal ``?reach(X, c)`` propagates its selection.  A
body that is already bound-first in source order is kept as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.datalog.atoms import Atom, NegatedAtom
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Parameter, Variable
from repro.errors import ValidationError

ADORNMENT_SEPARATOR = "__"


def adornment_of_atom(atom: Atom, bound_variables: Set[Variable]) -> str:
    """The ``b``/``f`` pattern of *atom* given the variables already bound.

    Parameters count as bound: the adornment describes *which* positions
    carry a binding, not the concrete constant, which is exactly why a
    prepared query can reuse one adorned program for every binding.
    """
    letters = []
    for term in atom.terms:
        if isinstance(term, (Constant, Parameter)) or term in bound_variables:
            letters.append("b")
        else:
            letters.append("f")
    return "".join(letters)


def _carries_binding(atom: Atom, bound_variables: Set[Variable]) -> bool:
    """Whether bound-first SIPS may visit *atom* now.

    A positive atom qualifies once any argument is bound.  A negated literal
    qualifies only once every variable in it is bound: it can filter
    bindings but never produce them.
    """
    if isinstance(atom, NegatedAtom):
        return all(variable in bound_variables for variable in atom.variables())
    return any(
        isinstance(term, (Constant, Parameter)) or term in bound_variables
        for term in atom.terms
    )


def bound_first_order(body: Sequence[Atom], bound_variables: Set[Variable]) -> List[Atom]:
    """*body* in bound-first SIPS order, given the head's bound variables.

    Repeatedly take the first remaining atom that :func:`_carries_binding`;
    when none does, take the first remaining positive atom.  Each visited
    atom binds its variables for the atoms after it.
    """
    bound = set(bound_variables)
    remaining = list(body)
    ordered: List[Atom] = []
    while remaining:
        atom = next((a for a in remaining if _carries_binding(a, bound)), None)
        if atom is None:
            atom = next((a for a in remaining if not isinstance(a, NegatedAtom)), remaining[0])
        remaining.remove(atom)
        ordered.append(atom)
        bound.update(atom.variables())
    return ordered


def adorned_name(predicate: str, adornment: str) -> str:
    """The predicate symbol used for an adorned copy, e.g. ``anc__bf``."""
    return f"{predicate}{ADORNMENT_SEPARATOR}{adornment}"


def split_adorned_name(name: str) -> Tuple[str, str]:
    """Invert :func:`adorned_name`; raises if the name is not adorned."""
    if ADORNMENT_SEPARATOR not in name:
        raise ValidationError(f"{name} is not an adorned predicate name")
    predicate, _, adornment = name.rpartition(ADORNMENT_SEPARATOR)
    return predicate, adornment


def bound_terms(atom: Atom, adornment: str) -> Tuple:
    """The terms of *atom* at the bound positions of *adornment*."""
    return tuple(term for term, letter in zip(atom.terms, adornment) if letter == "b")


@dataclass(frozen=True)
class AdornedProgram:
    """The result of adorning a program with respect to its goal."""

    program: Program
    goal_adornment: str
    original_goal: Atom

    @property
    def goal_predicate(self) -> str:
        return self.original_goal.predicate


def adorn_program(program: Program) -> AdornedProgram:
    """Adorn *program* with respect to its goal, using bound-first SIPS.

    The goal must be present and its predicate must be an IDB.  Each
    adorned rule's body is emitted in :func:`bound_first_order`, so the
    magic rules built from its prefixes follow the same strategy.  IDB
    predicates in rule bodies are renamed to their adorned copies; EDB atoms
    are left untouched.
    """
    if program.goal is None:
        raise ValidationError("cannot adorn a program without a goal")
    program.validate()
    idb = program.idb_predicates()
    goal = program.goal
    goal_adornment = "".join(
        "b" if isinstance(term, (Constant, Parameter)) else "f" for term in goal.terms
    )

    worklist: List[Tuple[str, str]] = [(goal.predicate, goal_adornment)]
    processed: Set[Tuple[str, str]] = set()
    adorned_rules: List[Rule] = []

    while worklist:
        predicate, adornment = worklist.pop()
        if (predicate, adornment) in processed:
            continue
        processed.add((predicate, adornment))
        for rule in program.rules_for(predicate):
            bound: Set[Variable] = set()
            for term, letter in zip(rule.head.terms, adornment):
                if letter == "b" and isinstance(term, Variable):
                    bound.add(term)
            new_body: List[Atom] = []
            for atom in bound_first_order(rule.body, bound):
                if atom.predicate in idb:
                    body_adornment = adornment_of_atom(atom, bound)
                    new_body.append(atom.rename_predicate(adorned_name(atom.predicate, body_adornment)))
                    if (atom.predicate, body_adornment) not in processed:
                        worklist.append((atom.predicate, body_adornment))
                else:
                    new_body.append(atom)
                bound.update(atom.variables())
            new_head = rule.head.rename_predicate(adorned_name(predicate, adornment))
            adorned_rules.append(Rule(new_head, tuple(new_body)))

    adorned_goal = goal.rename_predicate(adorned_name(goal.predicate, goal_adornment))
    adorned = Program(tuple(adorned_rules), adorned_goal)
    return AdornedProgram(adorned, goal_adornment, goal)


def adornments_used(adorned: AdornedProgram) -> Dict[str, Set[str]]:
    """Map each original IDB predicate to the set of adornments generated for it."""
    usage: Dict[str, Set[str]] = {}
    for rule in adorned.program.rules:
        predicate, adornment = split_adorned_name(rule.head.predicate)
        usage.setdefault(predicate, set()).add(adornment)
    return usage


def describe_adornments(adorned: AdornedProgram) -> str:
    """One line naming the adornments per predicate, flagging all-free ones.

    Every adorned predicate is reachable from the goal, so an all-free
    adornment (``reach__ff``) marks where the goal's selection stopped
    propagating: that copy is computed in full.
    """
    usage = adornments_used(adorned)
    listed = "; ".join(
        f"{predicate} {', '.join(sorted(adornments))}"
        for predicate, adornments in sorted(usage.items())
    )
    text = f"adornments: {listed}"
    unbound = sorted(
        adorned_name(predicate, adornment)
        for predicate, adornments in usage.items()
        for adornment in adornments
        if adornment and "b" not in adornment
    )
    if unbound:
        text += f"; selection not propagated into {', '.join(unbound)}"
    return text
