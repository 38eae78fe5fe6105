"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

from fomc import (all_shops, are_isomorphic, boolean_schaefer,
                  canonical_sentence, check_3_permuted, classify_pos_eqfree,
                  completion_contains, completion_generators, dualize,
                  enumerate_dsms, enumerate_she, evaluate, exists_shop,
                  find_morphism, generate_dsm, identity_shop, make_gadget,
                  meta_reduction, parse_formula, preserves, quotient_by_sim,
                  reduce_nae_to_k2, reduce_qcsp_nae_to_gadget, shop_from_sets,
                  ux_core)
from fomc.evaluator import (SamplerConfig, check_relativisation,
                            enumerate_sentences, sample_sentence)
from fomc.gadgets import GadgetSpec, clique
from fomc.shops import bits
from fomc.structures import GRAPH_SIGNATURE, Structure, disjoint_union

from conftest import all_binary_structures, random_structure


@contextmanager
def criterion(number: int, name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.perf_counter() - start:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS "
          f"({elapsed:.2f}s, limit {limit:.0f}s)", flush=True)
    assert elapsed < limit


def golden_structures():
    k2 = clique(2)
    k2k1 = disjoint_union(k2, clique(1))
    return [
        ("K1", clique(1), "InL"),
        ("K2", k2, "PspaceComplete"),
        ("K3", clique(3), "PspaceComplete"),
        ("K2+K1", k2k1, "NPComplete"),
        ("co(K2+K1)", k2k1.complement(), "CoNPComplete"),
        ("loop+isolated", Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0)}}),
         "InL"),
        ("G(2,2)", make_gadget(GadgetSpec("G", (2, 2, 0, 2))), "PspaceComplete"),
        ("Dhat(2,2)", make_gadget(GadgetSpec("Dhat", (2, 2))), "PspaceComplete"),
    ]


def test_01_boolean_dsm_census():
    with criterion(1, "boolean-dsm-census", 1.0):
        nodes = enumerate_dsms(2)
        assert len(nodes) == 5
        figure_generators = [
            identity_shop(2),                  # bottom
            shop_from_sets([{1}, {0}]),        # the swap monoid
            shop_from_sets([{0}, {0, 1}]),
            shop_from_sets([{0, 1}, {1}]),
            shop_from_sets([{0, 1}, {0, 1}]),  # top
        ]
        expected_sets = [generate_dsm([g], 2).as_set() for g in figure_generators]
        census_sets = [node.dsm.as_set() for node in nodes]
        for wanted in expected_sets:
            assert wanted in census_sets
        tags = {frozenset(node.dsm.as_set()): node.tag for node in nodes}
        assert tags[frozenset(expected_sets[0])] == "PspaceComplete"
        assert tags[frozenset(expected_sets[1])] == "PspaceComplete"
        assert tags[frozenset(expected_sets[2])] == "InL"
        assert tags[frozenset(expected_sets[3])] == "InL"
        assert tags[frozenset(expected_sets[4])] == "InL"


def test_02_four_way_golden_table():
    with criterion(2, "four-way-golden-table", 5.0):
        for name, structure, expected in golden_structures():
            assert classify_pos_eqfree(structure).klass == expected, name


def test_03_dhat_equals_completion():
    with criterion(3, "gadget-algebra-dhat", 10.0):
        dhat = make_gadget(GadgetSpec("Dhat", (2, 2)))
        she = enumerate_she(dhat).as_set()
        generated = generate_dsm(completion_generators([0, 1], [2, 3]), 4).as_set()
        assert she == generated
        # membership predicate agrees in both directions
        assert all(completion_contains(f, [0, 1], [2, 3]) for f in she)
        swept = {f for f in all_shops(4) if completion_contains(f, [0, 1], [2, 3])}
        assert swept == she


def test_04_meta_problem_readout():
    with criterion(4, "meta-problem-K3", 30.0):
        assert classify_pos_eqfree(meta_reduction(clique(3))).klass == "NPComplete"
    with criterion(4, "meta-problem-K4", 30.0):
        assert classify_pos_eqfree(meta_reduction(clique(4))).klass == "PspaceComplete"


def _containment_agrees(a: Structure, b: Structure) -> None:
    hom = find_morphism(a, b, "homomorphism") is not None
    assert evaluate(b, canonical_sentence(a, "pp")) == hom
    injective = find_morphism(a, b, "injective") is not None
    assert evaluate(b, canonical_sentence(a, "pp-neq")) == injective
    qa, _ = quotient_by_sim(a)
    qb, _ = quotient_by_sim(b)
    assert evaluate(b, canonical_sentence(a, "eqfree-neg")) == are_isomorphic(qa, qb)
    hyper = find_morphism(a, b, "surjectiveHyper") is not None
    assert evaluate(b, canonical_sentence(a, "pos-eqfree", m=b.size)) == hyper


def test_05_containment_galois_suite():
    with criterion(5, "containment-galois", 60.0):
        boolean = list(all_binary_structures(2))
        for a in boolean:
            for b in boolean:
                _containment_agrees(a, b)
        rng = random.Random(2026)
        for _ in range(500):
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            _containment_agrees(a, b)


def test_06_relativisation_property():
    with criterion(6, "relativisation", 30.0):
        for name, structure, _ in golden_structures():
            core = ux_core(structure)
            report = check_relativisation(structure, core.U, core.X,
                                          samples=500, seed=20260810)
            assert report.ok, (name, report.counterexamples[:1])


def test_07_reduction_equivalences():
    with criterion(7, "reduction-equivalences", 30.0):
        bnae = make_gadget(GadgetSpec("BNAE"))
        k2 = clique(2)
        g22 = make_gadget(GadgetSpec("G", (2, 2, 0, 2)))
        dhat = make_gadget(GadgetSpec("Dhat", (2, 2)))
        # every prenex one-atom sentence over at most three variables
        checked = 0
        for v in (1, 2, 3):
            names = [f"x{i}" for i in range(v)]
            for kinds in itertools.product(("forall", "exists"), repeat=v):
                for args in itertools.product(names, repeat=3):
                    text = "".join(f"{kind} {name}. "
                                   for kind, name in zip(kinds, names))
                    sentence = parse_formula(text + f"NAE({args[0]},{args[1]},{args[2]})")
                    assert evaluate(bnae, sentence) == \
                        evaluate(k2, reduce_nae_to_k2(sentence))
                    checked += 1
        assert checked == 2 * 1 + 4 * 8 + 8 * 27
        # twenty seeded two-clause instances against both gadget targets
        rng = random.Random(7)
        for _ in range(20):
            v = rng.randint(1, 3)
            names = [f"x{i}" for i in range(v)]
            kinds = [rng.choice(("forall", "exists")) for _ in range(v)]
            clauses = []
            for _ in range(2):
                triple = ",".join(rng.choice(names) for _ in range(3))
                clauses.append(f"NAE({triple})")
            text = "".join(f"{kind} {name}. " for kind, name in zip(kinds, names))
            sentence = parse_formula(text + " & ".join(clauses))
            want = evaluate(bnae, sentence)
            assert evaluate(g22, reduce_qcsp_nae_to_gadget(sentence, "G22")) == want
            assert evaluate(dhat, reduce_qcsp_nae_to_gadget(sentence, "Dhat")) == want


def test_08_core_robustness():
    with criterion(8, "core-robustness", 60.0):
        rng = random.Random(88)
        for _ in range(100):
            s = random_structure(rng, rng.randint(1, 4))
            core = ux_core(s)
            # idempotence
            again = ux_core(core.core)
            assert are_isomorphic(core.core, again.core)
            assert (len(again.U), len(again.X)) == (len(core.U), len(core.X))
            # relabelling invariance
            perm = list(range(s.size))
            rng.shuffle(perm)
            other = ux_core(s.relabel(perm))
            assert are_isomorphic(core.core, other.core)
            # canonical shop clauses
            n = core.core.size
            u, x = set(core.core_U), set(core.core_X)
            h = core.canonical
            assert preserves(h, core.core)
            assert check_3_permuted(h, core.core_U, core.core_X) is not None
            for y in (u & x) | (x - u):
                assert h.images[y] == 1 << y
            spray_union = 0
            for z in u - x:
                img = set(bits(h.images[z]))
                assert z in img and img - {z} <= x - u and img & x
                spray_union |= h.images[z] & ~(1 << z)
            assert spray_union == sum(1 << e for e in x - u)
            # the only possible overlap shapes: equal, disjoint, or all
            # three regions inhabited
            assert u == x or not (u & x) or (u & x and u - x and x - u)


def _profile_holds(f, profile, args, n) -> bool:
    full = (1 << n) - 1
    if profile == "A-shop":
        return f.images[args[0]] == full
    if profile == "E-shop":
        return all(m >> args[0] & 1 for m in f.images)
    if profile == "singletonUX":
        u, x = args
        return f.images[u] == full and all(m >> x & 1 for m in f.images)
    if profile == "U-surjective":
        return f.image_of_set(sum(1 << e for e in args[0])) == full
    if profile == "X-total":
        x_mask = sum(1 << e for e in args[0])
        return all(m & x_mask for m in f.images)
    u_set, x_set = args
    u_mask = sum(1 << e for e in u_set)
    x_mask = sum(1 << e for e in x_set)
    return f.image_of_set(u_mask) == full and all(m & x_mask for m in f.images)


_LABELS = {(True, True): "InL", (True, False): "NPComplete",
           (False, True): "CoNPComplete", (False, False): "PspaceComplete"}


def _brute_label(preserving, n) -> str:
    """The pos-eqfree label read off the preserving shops: an A-shop and an
    E-shop give L, only an A-shop NP, only an E-shop coNP, neither Pspace."""
    has_a = any(_profile_holds(f, "A-shop", (u,), n) for f in preserving for u in range(n))
    has_e = any(_profile_holds(f, "E-shop", (x,), n) for f in preserving for x in range(n))
    return _LABELS[has_a, has_e]


def _profiles_for(n: int, rng) -> list:
    subsets = [frozenset(c) for size in range(1, n + 1)
               for c in itertools.combinations(range(n), size)]
    profiles = [("A-shop", (u,)) for u in range(n)]
    profiles += [("E-shop", (x,)) for x in range(n)]
    profiles += [("singletonUX", (u, x)) for u in range(n) for x in range(n)]
    profiles += [("U-surjective", (U,)) for U in subsets]
    profiles += [("X-total", (X,)) for X in subsets]
    pairs = [(U, X) for U in subsets for X in subsets]
    if len(pairs) > 12:
        pairs = rng.sample(pairs, 12)
    profiles += [("UX", pair) for pair in pairs]
    return profiles


def test_09_exists_shop_oracle_equivalence():
    with criterion(9, "exists-shop-oracle", 60.0):
        rng = random.Random(99)
        ground = {n: all_shops(n) for n in (1, 2, 3, 4)}

        def check_label(s: Structure) -> list:
            preserving = [f for f in ground[s.size] if preserves(f, s)]
            assert classify_pos_eqfree(s).klass == _brute_label(preserving, s.size), s
            return preserving

        def check(s: Structure):
            n = s.size
            preserving = check_label(s)
            for profile, args in _profiles_for(n, rng):
                brute = any(_profile_holds(f, profile, args, n) for f in preserving)
                witness = exists_shop(s, profile, *args)
                assert (witness is not None) == brute, (profile, args)
                if witness is not None:
                    assert preserves(witness, s)
                    assert _profile_holds(witness, profile, args, n)

        for s in all_binary_structures(2):
            check(s)
        for _ in range(170):
            check(random_structure(rng, 3))
        for _ in range(30):
            check(random_structure(rng, 4))
        for n in (1, 3):
            for s in all_binary_structures(n):
                check_label(s)


def test_10_duality():
    with criterion(10, "duality", 30.0):
        # exhaustive sentence family at height three over four Boolean models
        models = [
            Structure.make(GRAPH_SIGNATURE, 2, {"E": set()}),
            clique(2),
            Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0)}}),
            Structure.make(GRAPH_SIGNATURE, 2,
                           {"E": {(0, 0), (0, 1), (1, 0), (1, 1)}}),
        ]
        count = 0
        for sentence in enumerate_sentences(GRAPH_SIGNATURE, 3):
            dual = dualize(sentence)
            for s in models:
                assert evaluate(s, sentence) == (not evaluate(s.complement(), dual))
            count += 1
        assert count == 20616
        rng = random.Random(10)
        cfg = SamplerConfig(allow_negation=True, allow_equality=True)
        for _ in range(500):
            s = random_structure(rng, 3)
            sentence = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
            assert evaluate(s, sentence) == (not evaluate(s.complement(),
                                                          dualize(sentence)))


def test_11_schaefer_gates():
    with criterion(11, "schaefer-gates", 1.0):
        bnae = make_gadget(GadgetSpec("BNAE"))
        classes, verdict = boolean_schaefer(bnae, quantified=False)
        assert classes == [] and verdict.klass == "NPComplete"
        classes, verdict = boolean_schaefer(clique(2), quantified=False)
        assert set(classes) == {"bijunctive", "affine"} and verdict.klass == "InP"
        horn = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0), (0, 1), (1, 0)}})
        classes, verdict = boolean_schaefer(horn, quantified=False)
        assert "Horn" in classes and "0-valid" in classes
        assert "dual-Horn" not in classes and "1-valid" not in classes
        assert verdict.klass == "InP"
