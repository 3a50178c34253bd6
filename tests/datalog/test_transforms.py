"""Unit tests for adornments, magic sets, constant propagation, and canonicalisation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.examples_catalog import same_generation_program
from repro.datalog import (
    Atom,
    Constant,
    Database,
    Program,
    Rule,
    Variable,
    get_engine,
    parse_program,
)

evaluate_seminaive = get_engine("seminaive").evaluate
from repro.datalog.atoms import NegatedAtom
from repro.datalog.transforms import (
    MagicSets,
    Pipeline,
    adorn_program,
    adornments_used,
    binding_invariant_positions,
    collapse_database,
    collapse_edbs,
    eliminate_zero_ary,
    magic_predicates,
    magic_transform,
    propagate_goal_constant,
    rename_apart,
)
from repro.datalog.transforms.adornment import bound_first_order
from repro.errors import ValidationError
from tests.datalog.strategies import PROGRAM_POOL, edge_databases

REACH_RULES = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


class TestAdornment:
    def test_goal_adornment_bf(self, ancestor_a):
        adorned = adorn_program(ancestor_a.program)
        assert adorned.goal_adornment == "bf"
        assert adorned.program.goal.predicate == "anc__bf"

    def test_left_linear_produces_single_adornment(self, ancestor_a):
        adorned = adorn_program(ancestor_a.program)
        assert adornments_used(adorned) == {"anc": {"bf"}}

    def test_right_linear_body_call_stays_bound(self, ancestor_b):
        adorned = adorn_program(ancestor_b.program)
        # par(X, Z) binds Z before the recursive call anc(Z, Y), so the call is bf.
        assert adornments_used(adorned) == {"anc": {"bf"}}

    def test_edb_atoms_untouched(self, ancestor_a):
        adorned = adorn_program(ancestor_a.program)
        predicates = {atom.predicate for rule in adorned.program.rules for atom in rule.body}
        assert "par" in predicates

    def test_requires_goal(self):
        program = parse_program("p(X, Y) :- b(X, Y).")
        with pytest.raises(ValidationError):
            adorn_program(program)


class TestBoundFirstSips:
    def test_second_argument_goal_propagates_backwards(self):
        transformed = magic_transform(parse_program("?reach(X, $dst)" + REACH_RULES))
        assert magic_predicates(transformed) == ["magic_reach__fb"]
        assert not any("__ff" in predicate for predicate in transformed.predicate_arities())
        assert "magic_reach__fb(Z) :- magic_reach__fb(Y), edge(Z, Y)." in {
            str(rule) for rule in transformed.rules
        }

    def test_same_generation_second_argument_goal(self):
        program = same_generation_program().program.with_goal(
            Atom("sg", (Variable("X"), Constant("c")))
        )
        assert adornments_used(adorn_program(program)) == {"sg": {"fb"}}
        assert magic_predicates(magic_transform(program)) == ["magic_sg__fb"]

    def test_bound_first_ancestor_rewrites_unchanged(self, ancestor_a, ancestor_b, ancestor_c):
        # Programs A, B and C are already bound-first for their bf goal: the
        # rewrite is rule for rule what left-to-right information passing gave.
        golden = {
            "A": [
                "magic_anc__bf(john).",
                "magic_anc__bf(X) :- magic_anc__bf(X).",
                "anc__bf(X, Y) :- magic_anc__bf(X), par(X, Y).",
                "anc__bf(X, Y) :- magic_anc__bf(X), anc__bf(X, Z), par(Z, Y).",
            ],
            "B": [
                "magic_anc__bf(john).",
                "magic_anc__bf(Z) :- magic_anc__bf(X), par(X, Z).",
                "anc__bf(X, Y) :- magic_anc__bf(X), par(X, Y).",
                "anc__bf(X, Y) :- magic_anc__bf(X), par(X, Z), anc__bf(Z, Y).",
            ],
            "C": [
                "magic_anc__bf(john).",
                "magic_anc__bf(X) :- magic_anc__bf(X).",
                "magic_anc__bf(Z) :- magic_anc__bf(X), anc__bf(X, Z).",
                "anc__bf(X, Y) :- magic_anc__bf(X), par(X, Y).",
                "anc__bf(X, Y) :- magic_anc__bf(X), anc__bf(X, Z), anc__bf(Z, Y).",
            ],
        }
        for name, chain in (("A", ancestor_a), ("B", ancestor_b), ("C", ancestor_c)):
            assert [str(rule) for rule in magic_transform(chain.program).rules] == golden[name]

    def test_negated_literal_waits_for_its_binders(self, family_database):
        program = parse_program(
            """
            ?r(X, sue)
            blocked(X) :- par(X, tim).
            t(X, Y) :- par(X, Y).
            r(X, Y) :- not blocked(Z), t(X, Z), par(Z, Y).
            """
        )
        adorned = adorn_program(program)
        (rule,) = [r for r in adorned.program.rules if r.head.predicate == "r__fb"]
        assert [str(atom) for atom in rule.body] == [
            "par(Z, Y)",
            "not blocked__b(Z)",
            "t__fb(X, Z)",
        ]
        x, y = Variable("X"), Variable("Y")
        for terms in ((x, Constant("sue")), (x, Constant("tim")), (Constant("john"), y), (x, y)):
            variant = program.with_goal(Atom("r", terms))
            original = evaluate_seminaive(variant, family_database).answers()
            rewritten = evaluate_seminaive(adorn_program(variant).program, family_database)
            assert rewritten.answers() == original
        # The negation filters: blocked(sue) drops (mary, tim).
        assert original == {("john", "sue"), ("ann", "carl")}

    def test_negated_literal_never_taken_as_fallback(self):
        q = NegatedAtom("q", (Variable("X"),))
        s_atom = Atom("s", (Variable("X"),))
        assert bound_first_order([q, s_atom], set()) == [s_atom, q]

    def test_explain_flags_all_free_adornment(self):
        program = parse_program(
            """
            ?p(c, Y)
            p(X, Y) :- e(X, Y), q(Z, W).
            q(X, Y) :- e(X, Y).
            """
        )
        text = Pipeline([MagicSets()]).apply(program).describe()
        assert "adornments: p bf; q ff" in text
        assert "selection not propagated into q__ff" in text
        bound = Pipeline([MagicSets()]).apply(parse_program("?reach(X, c)" + REACH_RULES))
        assert "adornments: reach fb" in bound.describe()
        assert "not propagated" not in bound.describe()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(PROGRAM_POOL),
        edge_databases(),
        st.sampled_from(["bf", "fb", "bb"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.data(),
    )
    def test_body_permutation_keeps_magic_answers(
        self, program, database, pattern, first, second, data
    ):
        """Metamorphic relation: permuting rule bodies changes no magic answer.

        The SIPS breaks ties by source order, so a permutation can change
        which adorned copies and magic rules are generated; the answers
        must not change.
        """
        terms = (
            Constant(first) if pattern[0] == "b" else Variable("X"),
            Constant(second) if pattern[1] == "b" else Variable("Y"),
        )
        goal = Atom(program.goal.predicate, terms)
        permuted = Program(
            tuple(Rule(rule.head, data.draw(st.permutations(rule.body))) for rule in program.rules),
            goal,
        )
        expected = evaluate_seminaive(magic_transform(program.with_goal(goal)), database).answers()
        assert evaluate_seminaive(magic_transform(permuted), database).answers() == expected


class TestMagicSets:
    @pytest.fixture
    def chain_db(self):
        database = Database()
        for i in range(10):
            database.add_edge("par", f"n{i}", f"n{i + 1}")
        database.add_edge("par", "john", "n0")
        # A second chain not reachable from john: the binary-recursive original
        # derives ancestor facts for it, the magic-restricted program does not.
        for i in range(10):
            database.add_edge("par", f"m{i}", f"m{i + 1}")
        return database

    def test_answers_preserved(self, ancestor_a, ancestor_b, ancestor_c, chain_db):
        for chain in (ancestor_a, ancestor_b, ancestor_c):
            original = evaluate_seminaive(chain.program, chain_db).answers()
            transformed = magic_transform(chain.program)
            rewritten = evaluate_seminaive(transformed, chain_db).answers()
            assert original == rewritten

    def test_magic_prunes_work(self, ancestor_b, chain_db):
        original = evaluate_seminaive(ancestor_b.program, chain_db)
        transformed = evaluate_seminaive(magic_transform(ancestor_b.program), chain_db)
        assert transformed.statistics.facts_derived < original.statistics.facts_derived

    def test_magic_predicates_named(self, ancestor_a):
        transformed = magic_transform(ancestor_a.program)
        assert magic_predicates(transformed) == ["magic_anc__bf"]

    def test_requires_constant_in_goal(self, transitive_closure_program):
        with pytest.raises(ValidationError):
            magic_transform(transitive_closure_program)

    def test_seed_fact_present(self, ancestor_a):
        transformed = magic_transform(ancestor_a.program)
        seeds = [rule for rule in transformed.rules if rule.is_fact()]
        assert len(seeds) == 1
        assert seeds[0].head.predicate == "magic_anc__bf"
        assert seeds[0].head.as_fact_tuple() == ("john",)


class TestConstantPropagation:
    def test_program_a_becomes_program_d(self, ancestor_a, family_database):
        propagated = propagate_goal_constant(ancestor_a.program)
        assert propagated.is_monadic()
        original = evaluate_seminaive(ancestor_a.program, family_database).answers()
        rewritten = evaluate_seminaive(propagated, family_database).answers()
        assert original == rewritten

    def test_invariant_positions(self, ancestor_a, ancestor_b):
        assert binding_invariant_positions(ancestor_a.program) == (0,)
        # Program B passes a *different* variable to the recursive call.
        assert binding_invariant_positions(ancestor_b.program) == ()

    def test_non_invariant_binding_rejected(self, ancestor_b):
        with pytest.raises(ValidationError):
            propagate_goal_constant(ancestor_b.program)

    def test_requires_constant(self, transitive_closure_program):
        with pytest.raises(ValidationError):
            propagate_goal_constant(transitive_closure_program)


class TestRectify:
    def test_eliminate_zero_ary(self):
        program = parse_program(
            """
            ?found
            found :- edge(X, Y).
            """
        )
        rewritten = eliminate_zero_ary(program)
        assert rewritten.predicate_arities()["found"] == 1
        database = Database({"edge": [(1, 2)]})
        assert evaluate_seminaive(rewritten, database).boolean_answer() is True

    def test_collapse_edbs(self, anbn):
        collapsed, mapping = collapse_edbs(anbn.program)
        assert collapsed.edb_predicates() == {"b"}
        assert set(mapping) == {"b1", "b2"}

    def test_collapse_database(self):
        database = Database({"b1": [(1, 2)], "b2": [(3, 4)]})
        merged = collapse_database(database, {"b1": "b", "b2": "b"})
        assert merged.relation("b") == {(1, 2), (3, 4)}

    def test_collapse_requires_uniform_arity(self):
        program = parse_program("p(X) :- b(X), q(X, Y), r(Y).")
        with pytest.raises(ValueError):
            collapse_edbs(program)

    def test_rename_apart(self, ancestor_a):
        renamed = rename_apart(ancestor_a.program, "_v2")
        assert renamed.idb_predicates() == {"anc_v2"}
        assert renamed.edb_predicates() == {"par"}
