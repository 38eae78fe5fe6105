import random
import subprocess
import sys

import pytest

from fomc import (And, BudgetExceededError, Eq, Not, Or,
                  ParseError, Quant, Rel, Signature, Structure,
                  canonical_sentence, defining_formula, dualize, evaluate,
                  fragment_of, parse_formula, quotient_by_sim, relativise,
                  render_formula, sim_formula, to_nnf)
from fomc.evaluator import SamplerConfig, sample_sentence
from fomc.errors import FormulaError
from fomc.formulas import TOP, BOTTOM, Formula, check_formula, node_count, rebuild
from fomc.structures import GRAPH_SIGNATURE

from conftest import random_structure


class TestParser:
    def test_nested_quantifiers(self):
        f = parse_formula("forall x. exists y. E(x,y)")
        assert f == Quant("forall", "x", None,
                          Quant("exists", "y", None, Rel("E", ("x", "y"))))

    def test_restricted_quantifier(self):
        f = parse_formula("exists x in {0,2}. R(x,x)")
        assert isinstance(f, Quant) and f.restriction == frozenset({0, 2})

    def test_disequality_sugar(self):
        f = parse_formula("exists x. x != x")
        assert f.body == Not(Eq("x", "x"))

    def test_precedence(self):
        f = parse_formula("exists x. E(x,x) | E(x,x) & x = x")
        assert isinstance(f.body, Or)
        assert isinstance(f.body.children[1], And)

    def test_nary_connectives(self):
        f = parse_formula("exists x. E(x,x) & E(x,x) & E(x,x)")
        assert len(f.body.children) == 3

    def test_parenthesised_shape_survives(self):
        f = parse_formula("exists x. (E(x,x) & E(x,x)) & E(x,x)")
        assert len(f.body.children) == 2
        assert isinstance(f.body.children[0], And)

    def test_constants(self):
        assert parse_formula("true") is TOP
        assert parse_formula("exists x. false").body is BOTTOM

    def test_unbound_variable(self):
        with pytest.raises(ParseError):
            parse_formula("exists x. E(x,y)")

    def test_shadowing(self):
        with pytest.raises(ParseError):
            parse_formula("exists x. exists x. E(x,x)")

    def test_arity_mismatch_with_signature(self):
        with pytest.raises(ParseError):
            parse_formula("exists x. E(x,x,x)", GRAPH_SIGNATURE)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_formula("exists x.\nE(x,")
        assert info.value.line == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("exists x. E(x,x) )")

    def test_huge_element_is_a_parse_error(self):
        # int() refuses more than 4,300 digits by default
        with pytest.raises(ParseError) as info:
            parse_formula("exists x in {0,\n " + "9" * 5000 + "}. E(x,x)")
        assert (info.value.line, info.value.column) == (2, 2)
        assert "5000 digits" in str(info.value)

    def test_linear_time(self):
        # a whole-text match that may split a name into shorter names
        # backtracks exponentially on the stray "$"; this child is killed
        # after a few seconds if tokenizing is not linear
        script = (
            "from fomc import ParseError, parse_formula\n"
            "for text in ('x' * 10000 + '$',\n"
            "             'exists x. ' + 'E(x, x) &\\n' * 1428 + 'E(x, x) & )'):\n"
            "    try:\n"
            "        parse_formula(text)\n"
            "    except ParseError as exc:\n"
            "        print(exc, exc.line, exc.column)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=5)
        assert proc.stdout.splitlines() == [
            "unexpected character '$' (line 1, column 10001) 1 10001",
            "unexpected token ')' (line 1429, column 11) 1429 11"]


class TestRoundTrip:
    def test_sampled_corpus(self):
        rng = random.Random(42)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(1000):
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            assert parse_formula(render_formula(f)) == f

    def test_canonical_sentences_round_trip(self, k2, k2_plus_k1):
        for s in (k2, k2_plus_k1):
            for fragment in ("pp", "pp-neq", "eqfree-neg"):
                f = canonical_sentence(s, fragment)
                assert parse_formula(render_formula(f)) == f
            f = canonical_sentence(s, "pos-eqfree", m=2)
            assert parse_formula(render_formula(f)) == f


class _Unknown(Formula):
    """A node type no transform knows."""


class TestRebuild:
    def test_no_visit_copies_the_formula(self):
        rng = random.Random(45)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        corpus = [sample_sentence(GRAPH_SIGNATURE, rng, cfg) for _ in range(200)]
        corpus.append(parse_formula("exists x in {0, 1}. ~true | x != x & false"))
        for f in corpus:
            assert rebuild(f, lambda node: None) == f

    def test_visit_replaces_the_whole_subtree(self):
        f = parse_formula("forall x. E(x,x) & ~(exists y. E(x,y))")
        seen = []

        def visit(node):
            seen.append(node)
            return TOP if isinstance(node, (Rel, Quant)) and node is not f else None

        assert rebuild(f, visit) == Quant("forall", "x", None, And((TOP, Not(TOP))))
        assert not any(isinstance(node, Rel) and "y" in node.args for node in seen)

    def test_unknown_node_raises(self):
        with pytest.raises(FormulaError, match="unknown node"):
            rebuild(_Unknown(), lambda node: None)
        with pytest.raises(FormulaError, match="unknown node"):
            rebuild(And((TOP, Not(_Unknown()))), lambda node: None)
        with pytest.raises(FormulaError, match="unknown node"):
            to_nnf(Not(_Unknown()))


class TestNnf:
    def test_de_morgan_over_quantifier(self):
        f = parse_formula("~(exists x. E(x,x))")
        assert to_nnf(f) == Quant("forall", "x", None, Not(Rel("E", ("x", "x"))))

    def test_double_negation(self):
        f = parse_formula("~~(exists x. E(x,x))")
        assert to_nnf(f) == parse_formula("exists x. E(x,x)")

    def test_restrictions_survive(self):
        f = Not(Quant("exists", "x", frozenset({0}), Rel("E", ("x", "x"))))
        g = to_nnf(f)
        assert g.kind == "forall" and g.restriction == frozenset({0})

    def test_preserves_semantics(self):
        rng = random.Random(43)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(150):
            s = random_structure(rng, rng.randint(1, 3))
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            g = Not(f) if rng.random() < 0.5 else f
            assert evaluate(s, g) == evaluate(s, to_nnf(g))

    def test_invariants_survive(self):
        rng = random.Random(44)
        cfg = SamplerConfig(allow_negation=True)
        from fomc.formulas import check_formula
        for _ in range(100):
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            check_formula(to_nnf(Not(f)))


class TestDualize:
    def test_quantifier_flip(self):
        f = parse_formula("exists x. forall y. E(x,y)")
        assert dualize(f) == parse_formula("forall x. exists y. E(x,y)")

    def test_disjunction_becomes_conjunction(self):
        f = parse_formula("exists x. E(x,x) | E(x,x)")
        dual = dualize(f)
        assert isinstance(dual.body, And)

    def test_contract_random(self):
        rng = random.Random(45)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(200):
            s = random_structure(rng, rng.randint(1, 3))
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            assert evaluate(s, f) == (not evaluate(s.complement(), dualize(f)))

    def test_equality_keeps_polarity(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": set()})
        f = parse_formula("exists x. x = x")
        assert evaluate(s, f) and not evaluate(s.complement(), dualize(f))


class TestFragmentOf:
    def test_pp_shape(self):
        f = parse_formula("exists v0. exists v1. E(v0,v1) & E(v1,v0)")
        key = fragment_of(f)
        assert key.quantifiers == {"exists"}
        assert key.connectives == {"and"}
        assert not key.extras

    def test_theta_is_positive_equality_free(self, k2):
        key = fragment_of(canonical_sentence(k2, "pos-eqfree", m=2))
        assert key.quantifiers == {"exists", "forall"}
        assert key.connectives == {"and", "or"}
        assert not key.extras

    def test_disequality_key(self, k2):
        key = fragment_of(canonical_sentence(k2, "pp-neq"))
        assert key.extras == {"neq"}
        assert key.quantifiers == {"exists"}


class TestDeepFormulas:
    """The read-only passes loop over one explicit stack, so nesting depth is
    not bounded by the interpreter's recursion limit."""

    DEPTH = 3000

    def test_quantifier_chain(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        f = And((Rel("E", (names[0], names[-1])), Not(Eq(names[1], names[2]))))
        for i, var in reversed(list(enumerate(names))):
            f = Quant("forall" if i % 2 else "exists", var, frozenset({i % 2}), f)
        check_formula(f, GRAPH_SIGNATURE, 2)
        assert str(fragment_of(f)) == "{E,A,&,!=}"
        assert node_count(f) == self.DEPTH + 4

    def test_and_chain(self):
        f = Rel("E", ("x", "x"))
        for _ in range(self.DEPTH):
            f = And((Rel("E", ("x", "x")), f))
        f = Quant("exists", "x", None, f)
        check_formula(f, GRAPH_SIGNATURE, 2)
        assert str(fragment_of(f)) == "{E,&}"
        assert node_count(f) == 2 * self.DEPTH + 2


class TestRelativise:
    def test_both_modes(self):
        f = parse_formula("forall x. exists y. E(x,y)")
        g = relativise(f, {1}, {0}, "both")
        assert g.restriction == frozenset({1})
        assert g.body.restriction == frozenset({0})

    def test_universal_only(self):
        f = parse_formula("forall x. exists y. E(x,y)")
        g = relativise(f, {1}, {0}, "universalOnly")
        assert g.body.restriction is None

    def test_existing_restrictions_intersect(self):
        f = Quant("exists", "x", frozenset({0, 1}), Rel("E", ("x", "x")))
        g = relativise(f, {0}, {1, 2}, "both")
        assert g.restriction == frozenset({1})

    def test_empty_intersection_rejected(self):
        f = Quant("exists", "x", frozenset({0}), Rel("E", ("x", "x")))
        with pytest.raises(Exception):
            relativise(f, {1}, {1}, "both")


class TestCanonicalSentences:
    def test_pp_of_k2(self, k2, k3):
        f = canonical_sentence(k2, "pp")
        assert render_formula(f) == "exists v0. exists v1. E(v0, v1) & E(v1, v0)"
        assert evaluate(k3, f)

    def test_pp_of_edgeless_structure_is_trivially_true(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": set()})
        f = canonical_sentence(s, "pp")
        assert evaluate(Structure.make(GRAPH_SIGNATURE, 1, {"E": set()}), f)

    def test_ppneq_needs_injectivity(self, k2):
        f = canonical_sentence(k2, "pp-neq")
        looped_point = Structure.make(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}})
        assert evaluate(k2, f)
        assert not evaluate(looped_point, f)

    def test_theta_orientation(self, k2, k2_plus_k1):
        assert not evaluate(k2_plus_k1, canonical_sentence(k2, "pos-eqfree", m=3))
        assert evaluate(k2, canonical_sentence(k2_plus_k1, "pos-eqfree", m=2))

    def test_self_models(self):
        rng = random.Random(46)
        for _ in range(12):
            s = random_structure(rng, rng.randint(1, 3))
            for fragment in ("pp", "pp-neq", "eqfree-neg"):
                assert evaluate(s, canonical_sentence(s, fragment))
            assert evaluate(s, canonical_sentence(s, "pos-eqfree", m=s.size))

    def test_budget_guard(self, k3):
        with pytest.raises(BudgetExceededError):
            canonical_sentence(k3, "pos-eqfree", m=9, budget=1000)


class TestSimFormula:
    def test_digraph_shape(self):
        f = sim_formula(GRAPH_SIGNATURE, "x", "y")
        text = render_formula(f)
        assert text.startswith("forall z0.")
        assert "E(x, z0)" in text and "E(z0, y)" in text

    def test_matches_direct_quotient(self):
        rng = random.Random(47)
        for _ in range(15):
            s = random_structure(rng, rng.randint(1, 4))
            _, class_of = quotient_by_sim(s)
            f = sim_formula(s.signature, "x", "y")
            for a in range(s.size):
                for b in range(s.size):
                    semantic = evaluate(s, f, _free={"x": a, "y": b})
                    assert semantic == (class_of[a] == class_of[b])

    def test_unary_symbol_has_no_bound_block(self):
        sig = Signature.make(("P", 1))
        f = sim_formula(sig, "x", "y")
        assert "forall" not in render_formula(f)


class TestDefiningFormula:
    def test_full_unary_definable_over_k2(self, k2):
        f = defining_formula(k2, {(0,), (1,)}, 1)
        assert f is not None
        assert {a for a in range(2) if evaluate(k2, f, _free={"u1": a})} == {0, 1}

    def test_half_unary_not_definable_over_k2(self, k2):
        assert defining_formula(k2, {(0,)}, 1) is None

    def test_rigid_point_defines_everything(self):
        point = Structure.make(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}})
        f = defining_formula(point, {(0,)}, 1)
        assert f is not None and evaluate(point, f, _free={"u1": 0})

    def test_extension_matches_exactly(self):
        rng = random.Random(48)
        import itertools
        checked = 0
        while checked < 8:
            s = random_structure(rng, rng.randint(1, 3))
            k = rng.randint(1, 2)
            rel = {t for t in itertools.product(range(s.size), repeat=k)
                   if rng.random() < 0.5}
            f = defining_formula(s, rel, k)
            if f is None:
                continue
            names = [f"u{i + 1}" for i in range(k)]
            extension = {t for t in itertools.product(range(s.size), repeat=k)
                         if evaluate(s, f, _free=dict(zip(names, t)))}
            assert extension == rel
            checked += 1


class TestTransformInvariants:
    def test_transforms_keep_formulas_wellformed(self):
        from fomc.formulas import check_formula
        rng = random.Random(49)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(80):
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            check_formula(dualize(f), GRAPH_SIGNATURE)
            check_formula(relativise(to_nnf(f), {0, 1}, {0}, "both"),
                          GRAPH_SIGNATURE, domain_size=2)
