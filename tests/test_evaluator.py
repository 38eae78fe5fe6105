import json
import random
from pathlib import Path

import pytest

from fomc import (BudgetExceededError, FomcError, FormulaError, Signature,
                  Structure, contained_in, evaluate, evaluate_with_trace,
                  find_morphism, parse_formula, relativise, render_formula,
                  replay_trace)
from fomc.evaluator import (RELATIVISATION_MODES, SamplerConfig,
                            check_relativisation, enumerate_sentences,
                            sample_sentence, trace_elements)
from fomc.formulas import Not, Quant, Rel, _Parser, _tokenize, check_formula
from fomc.gadgets import clique
from fomc.structures import GRAPH_SIGNATURE

from conftest import random_structure


class TestEvaluate:
    def test_k2_total(self, k2):
        assert evaluate(k2, parse_formula("forall x. exists y. E(x,y)"))

    def test_loopless_point(self, k1):
        assert not evaluate(k1, parse_formula("exists x. E(x,x)"))

    def test_nae_witnesses(self, bnae):
        f = parse_formula("forall x. exists y. exists z. NAE(x,y,z)")
        assert evaluate(bnae, f)

    def test_restriction_ranges(self, k2):
        assert evaluate(k2, parse_formula("forall x in {0}. E(x,x) | x = x"))
        assert not evaluate(k2, parse_formula("exists x in {1}. E(x,x)"))

    def test_restriction_outside_domain(self, k2):
        with pytest.raises(FomcError):
            evaluate(k2, parse_formula("exists x in {7}. E(x,x)"))

    def test_budget(self, k3):
        f = parse_formula("forall x. forall y. exists z. E(x,z) | E(y,z)")
        with pytest.raises(BudgetExceededError):
            evaluate(k3, f, budget=5)


class TestTraces:
    def test_true_sentence_replays(self, k2):
        f = parse_formula("forall x. exists y. E(x,y)")
        value, trace = evaluate_with_trace(k2, f)
        assert value and trace.value
        assert replay_trace(k2, f, trace) is True

    def test_false_universal_names_failing_element(self, k2_plus_k1):
        f = parse_formula("forall x. exists y. E(x,y)")
        value, trace = evaluate_with_trace(k2_plus_k1, f)
        assert not value
        assert trace.root.kind == "pick" and trace.root.choice == 2  # the isolated vertex
        assert replay_trace(k2_plus_k1, f, trace) is False

    def test_replay_detects_tampering(self, k2):
        f = parse_formula("forall x. exists y. E(x,y)")
        _, trace = evaluate_with_trace(k2, f)
        wrong = parse_formula("forall x. exists y. E(y,x) & E(x,y)")
        with pytest.raises(FomcError):
            replay_trace(k2, wrong, trace)

    def test_random_sentences_replay(self):
        rng = random.Random(51)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(120):
            s = random_structure(rng, rng.randint(1, 3))
            f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            value, trace = evaluate_with_trace(s, f)
            assert value == evaluate(s, f)
            assert replay_trace(s, f, trace) == value

    def test_relativised_traces_stay_inside_restrictions(self):
        rng = random.Random(52)
        for _ in range(60):
            s = random_structure(rng, 3)
            f = sample_sentence(GRAPH_SIGNATURE, rng)
            g = relativise(f, {0, 1}, {1, 2}, "both")
            _, trace = evaluate_with_trace(s, g)
            assert trace_elements(trace) <= {0, 1, 2}
        # tight restrictions genuinely narrow the trace
        s = random_structure(random.Random(1), 3)
        f = parse_formula("forall x. exists y. E(x,y) | x = x")
        _, trace = evaluate_with_trace(s, relativise(f, {0}, {1}, "both"))
        assert trace_elements(trace) <= {0, 1}


class TestContainment:
    def test_pp_containment(self, k2, k3):
        assert contained_in(k2, k3, "pp")
        assert not contained_in(k3, k2, "pp")

    def test_pos_eqfree_containment_of_retract_is_one_way(self, k2, k2_plus_k1):
        # the clique-with-isolated-vertex maps onto the clique (send the
        # isolated vertex anywhere), but nothing maps onto the isolated
        # vertex without breaking an edge product
        assert contained_in(k2_plus_k1, k2, "pos-eqfree")
        assert not contained_in(k2, k2_plus_k1, "pos-eqfree")

    def test_eqfree_neg_agrees_with_sentence_sampling(self):
        # a decided containment admits no sampled counterexample; sampling is
        # one-sided, so undecided pairs are not asserted on
        rng = random.Random(53)
        cfg = SamplerConfig(max_depth=3, allow_negation=True)
        for _ in range(12):
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            if contained_in(a, b, "eqfree-neg"):
                for _ in range(150):
                    f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
                    assert evaluate(a, f) <= evaluate(b, f)

    def test_unknown_fragment(self, k2, k3):
        with pytest.raises(FomcError):
            contained_in(k2, k3, "qcsp")


class TestSampler:
    def test_deterministic(self):
        a = sample_sentence(GRAPH_SIGNATURE, random.Random(99))
        b = sample_sentence(GRAPH_SIGNATURE, random.Random(99))
        assert a == b

    def test_default_fragment_is_positive_equality_free(self):
        from fomc import fragment_of
        rng = random.Random(54)
        for _ in range(100):
            key = fragment_of(sample_sentence(GRAPH_SIGNATURE, rng))
            assert not key.extras

    def test_enumeration_is_deterministic_and_wellformed(self):
        from fomc.formulas import check_formula
        first = list(enumerate_sentences(GRAPH_SIGNATURE, 2))
        second = list(enumerate_sentences(GRAPH_SIGNATURE, 2))
        assert first == second
        assert len(first) == len(set(first))
        for f in first[::7]:
            check_formula(f, GRAPH_SIGNATURE)


class TestCheckRelativisation:
    def test_loop_iso_agrees(self, loop_iso):
        report = check_relativisation(loop_iso, [1], [0], samples=200, seed=0)
        assert report.ok

    def test_k2_breaks(self, k2):
        report = check_relativisation(k2, [0], [1], samples=200, seed=0)
        assert not report.ok

    def test_full_domain_trivial(self, k2):
        report = check_relativisation(k2, [0, 1], [0, 1], samples=50, seed=0)
        assert report.ok


class TestStrategyTransfer:
    def test_hyper_morphism_transfers_positive_sentences(self):
        # a surjective hyper-morphism source -> target carries every
        # positive equality-free truth along
        rng = random.Random(55)
        moved = 0
        while moved < 10:
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            if find_morphism(a, b, "surjectiveHyper") is None:
                continue
            for _ in range(80):
                f = sample_sentence(GRAPH_SIGNATURE, rng)
                assert evaluate(a, f) <= evaluate(b, f)
            moved += 1


# -- the compiled evaluator against the trace oracle --------------------------------

MIXED_SIGNATURE = Signature.make(("P", 1), ("E", 2), ("R", 3))

# the four Boolean models of the exhaustive duality sweep
BOOLEAN_MODELS = (
    Structure.make(GRAPH_SIGNATURE, 2, {"E": set()}),
    clique(2),
    Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0)}}),
    Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}}),
)


def _nonempty_subset(rng: random.Random, size: int) -> set[int]:
    return {rng.randrange(size)} | {e for e in range(size) if rng.random() < 0.5}


def sampled_cases(count: int, seed: int) -> list:
    """Seeded (structure, sentence) pairs with negation and equality, n <= 4,
    every third over the P/1 E/2 R/3 signature, connectives of two or three
    children."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        sig = MIXED_SIGNATURE if i % 3 == 2 else GRAPH_SIGNATURE
        s = random_structure(rng, rng.randint(1, 4), sig)
        cfg = SamplerConfig(max_depth=rng.randint(2, 5), allow_negation=True,
                            allow_equality=True, branch=rng.choice((2, 2, 3)))
        out.append((s, sample_sentence(sig, rng, cfg)))
    return out


def relativised_cases(count: int, seed: int) -> list:
    """The sampled pairs, each also relativised in every mode to seeded
    U and X."""
    rng = random.Random(seed + 1)
    out = []
    for s, f in sampled_cases(count, seed):
        out.append((s, f))
        U = _nonempty_subset(rng, s.size)
        X = _nonempty_subset(rng, s.size)
        out.extend((s, relativise(f, U, X, mode))
                   for mode in RELATIVISATION_MODES if mode != "none")
    return out


class TestOracleDifferential:
    def test_height_three_family_on_boolean_models(self):
        count = 0
        for f in enumerate_sentences(GRAPH_SIGNATURE, 3):
            for s in BOOLEAN_MODELS:
                assert evaluate(s, f) == evaluate_with_trace(s, f)[0], render_formula(f)
            count += 1
        assert count == 20616

    def test_sampled_and_relativised_sentences(self):
        cases = relativised_cases(300, 6060)
        assert len(cases) == 1200
        rng = random.Random(6062)
        replayed = 0
        for s, f in cases:
            value, trace = evaluate_with_trace(s, f)
            assert evaluate(s, f) == value, render_formula(f)
            if rng.random() < 0.2:
                assert replay_trace(s, f, trace) == value
                replayed += 1
        assert replayed > 150

    def test_atoms_of_two_symbols_on_one_tuple_stay_apart(self):
        sig = Signature.make(("E", 2), ("F", 2))
        s = Structure.make(sig, 2, {"E": {(0, 1)}, "F": {(1, 0)}})
        f = parse_formula("exists x. exists y. E(x,y) & ~F(x,y) & (x = y | ~(y = x))", sig)
        assert evaluate(s, f) is True
        assert evaluate_with_trace(s, f)[0] is True

    def test_free_variables_take_their_values(self):
        # a quantifier may rebind a name given in _free; inside it the
        # quantified value wins, after it the given one again
        s = Structure.make(GRAPH_SIGNATURE, 3, {"E": {(0, 1), (1, 2)}})
        f = _unchecked("(exists x. E(y,x)) & E(x,y) & ~E(y,y)")
        got = {(a, b) for a in range(3) for b in range(3)
               if evaluate(s, f, _free={"x": a, "y": b})}
        assert got == {(0, 1)}


# -- errors: the compiler's one walk checks like check_formula ---------------------

def _unchecked(text: str):
    """The parse tree alone; ``parse_formula`` would reject these inputs."""
    return _Parser(_tokenize(text)).formula()


ERROR_CASES = (
    # (sentence, free variables, what is wrong)
    ("exists x. F(x,x)", {}, "unknown symbol"),
    ("exists x. E(x)", {}, "arity mismatch"),
    ("exists x. E(x,y)", {}, "unbound variable"),
    ("exists x. forall x. E(x,x)", {}, "shadowed variable"),
    ("exists x in {7}. E(x,x)", {}, "restriction outside the domain"),
    ("E(x,y) | x = z", {"x": 0, "y": 1}, "free variable not in _free"),
    ("exists x. E(x,y) & F(x)", {}, "unbound before unknown symbol"),
    ("exists x. F(x) & E(x,y)", {}, "unknown symbol before unbound"),
    ("exists x. forall x in {9}. E(x,x)", {}, "shadowing before restriction"),
    ("exists x in {5}. E(x,x,x)", {}, "restriction before arity"),
    ("(forall y. E(y)) | (exists z in {3}. E(z,z))", {}, "left child first"),
)


class TestErrorParity:
    @pytest.mark.parametrize("text,free,what", ERROR_CASES,
                             ids=[c[2] for c in ERROR_CASES])
    def test_same_first_error_as_check_formula(self, k2, text, free, what):
        f = _unchecked(text)
        with pytest.raises(FormulaError) as checked:
            check_formula(f, k2.signature, k2.size, allow_free=free.keys())
        with pytest.raises(FormulaError) as evaluated:
            evaluate(k2, f, _free=free)
        assert str(evaluated.value) == str(checked.value)
        # validation comes before evaluation, so no budget hides an error
        with pytest.raises(FormulaError) as budgeted:
            evaluate(k2, f, budget=0, _free=free)
        assert str(budgeted.value) == str(checked.value)


# -- budgets: one unit per node visited ----------------------------------------------

GOLDEN_BUDGETS = Path(__file__).with_name("golden_budgets.json")


def budget_cases() -> list:
    """40 seeded pairs: the first 30 sampled, the last 10 relativised."""
    sampled = sampled_cases(30, 7070)
    relativised = relativised_cases(10, 7171)
    return sampled + [relativised[4 * i + 1 + i % 3] for i in range(10)]


def smallest_budget(s: Structure, f) -> int:
    """The least budget under which evaluation finishes, by bisection."""
    hi = 1
    while True:
        try:
            evaluate(s, f, budget=hi)
            break
        except BudgetExceededError:
            hi *= 2
    lo = hi // 2  # fails, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            evaluate(s, f, budget=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


def _structure_json(s: Structure) -> dict:
    return {"signature": [list(sym) for sym in s.signature.symbols], "size": s.size,
            "relations": {sym: sorted(map(list, ts)) for sym, ts in s.rels}}


def _structure_from_json(data: dict) -> Structure:
    sig = Signature(tuple((name, arity) for name, arity in data["signature"]))
    return Structure.make(sig, data["size"], data["relations"])


def record_budgets() -> list:
    return [{"structure": _structure_json(s), "sentence": render_formula(f),
             "value": evaluate(s, f), "min_budget": smallest_budget(s, f)}
            for s, f in budget_cases()]


class TestBudgetParity:
    """The least budgets were recorded with the recursive evaluator, which
    spent one unit per node it visited; the compiled one must agree."""

    def test_golden_budgets(self):
        golden = json.loads(GOLDEN_BUDGETS.read_text())
        assert len(golden) == 40
        for case in golden:
            s = _structure_from_json(case["structure"])
            f = parse_formula(case["sentence"], s.signature)
            need = case["min_budget"]
            assert evaluate(s, f, budget=need) == case["value"], case["sentence"]
            with pytest.raises(BudgetExceededError):
                evaluate(s, f, budget=need - 1)

    def test_cases_are_the_recorded_ones(self):
        golden = json.loads(GOLDEN_BUDGETS.read_text())
        assert [c["sentence"] for c in golden] == \
            [render_formula(f) for _, f in budget_cases()]


# -- depth ---------------------------------------------------------------------------

def test_deep_exists_chain():
    # 900 nested quantifiers built in code; the first value works at every
    # level, so no branch is retried
    depth = 900
    f = Not(Rel("E", (f"v{depth - 1}", f"v{depth - 1}")))
    for i in reversed(range(depth)):
        f = Quant("exists", f"v{i}", None, f)
    assert evaluate(clique(2), f) is True


if __name__ == "__main__":
    # regenerate the budget golden file (only when the unit of the budget
    # is meant to change):
    #     PYTHONPATH=src python tests/test_evaluator.py > tests/golden_budgets.json
    print("[\n" + ",\n".join(json.dumps(c) for c in record_budgets()) + "\n]")
