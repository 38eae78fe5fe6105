import itertools
import random

import pytest

from fomc import (BudgetExceededError, Signature, Structure, are_isomorphic,
                  check_3_permuted, classical_core, eqfree_core,
                  find_morphism, preserves, quotient_by_sim, ux_core)
from fomc.cores import minimal_u_sets, minimal_x_sets
from fomc.evaluator import SamplerConfig, check_relativisation, evaluate, sample_sentence
from fomc.gadgets import GadgetSpec, clique, make_gadget
from fomc import shops
from fomc.shops import bits, exists_shop
from fomc.structures import GRAPH_SIGNATURE, induced_substructure, render_structure

from conftest import random_structure


class TestClassicalCore:
    def test_isolated_vertex_retracts(self, k2_plus_k1, k2):
        core, retraction = classical_core(k2_plus_k1)
        assert are_isomorphic(core, k2)
        assert retraction[0] != retraction[1]

    def test_cliques_are_cores(self, k3):
        core, retraction = classical_core(k3)
        assert core == k3 and set(retraction) == {0, 1, 2}

    def test_idempotent(self):
        rng = random.Random(61)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            core, _ = classical_core(s)
            again, _ = classical_core(core)
            assert are_isomorphic(core, again)

    def test_every_endomorphism_of_core_is_injective(self):
        rng = random.Random(62)
        import itertools
        for _ in range(15):
            s = random_structure(rng, rng.randint(1, 4))
            core, _ = classical_core(s)
            n = core.size
            for mapping in itertools.product(range(n), repeat=n):
                hom = all(tuple(mapping[e] for e in t) in ts
                          for _, ts in core.rels for t in ts)
                if hom:
                    assert len(set(mapping)) == n

    def test_agrees_on_sampled_existential_sentences(self):
        rng = random.Random(63)
        cfg = SamplerConfig(quantifier_weight=0.4)
        for _ in range(8):
            s = random_structure(rng, rng.randint(1, 4))
            core, _ = classical_core(s)
            for _ in range(60):
                f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
                if "forall" not in str(f):
                    assert evaluate(s, f) == evaluate(core, f)


def induced_core_oracle(structure):
    """Oracle for the restricted search: build each candidate's induced
    substructure and search for a homomorphism into it."""
    n = structure.size
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            candidate, _ = induced_substructure(structure, keep)
            witness = find_morphism(structure, candidate, "homomorphism")
            if witness is not None:
                return candidate, witness
    raise AssertionError("the identity is always a retraction")


def symmetric_graph(rng, n, density=0.5):
    edges = set()
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            edges |= {(a, b), (b, a)}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges})


class TestClassicalCoreOracle:
    def test_restricted_search_matches_induced_substructures(self):
        rng = random.Random(75)
        cases = [symmetric_graph(rng, n, density)
                 for n in range(1, 9) for density in (0.3, 0.6)]
        cases += [random_structure(rng, n, density=density)
                  for n in range(1, 7) for density in (0.2, 0.5)]
        cases += [random_structure(rng, n, Signature.make(("R", 3), ("U", 1)), 0.3)
                  for n in range(1, 5)]
        sizes = set()
        for s in cases:
            core, retraction = classical_core(s)
            expected_core, expected_retraction = induced_core_oracle(s)
            assert render_structure(core) == render_structure(expected_core), s
            assert retraction == expected_retraction, s
            sizes.add((s.size, core.size))
        # the corpus must reach proper cores of three or more elements
        assert any(n > c >= 3 for n, c in sizes)

    def test_one_search_table_per_call(self, monkeypatch):
        # a triangle with a pendant path: every candidate of one or two
        # elements fails, and a search into each one's induced
        # substructure would build search tables for it
        edges = {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)}
        s = Structure.make(GRAPH_SIGNATURE, 6,
                           {"E": edges | {(b, a) for a, b in edges}})
        built = []
        build = shops._build_links

        def counting(source, target):
            built.append((source, target))
            return build(source, target)

        monkeypatch.setattr(shops, "_build_links", counting)
        core, _ = classical_core(s)
        assert core.size == 3
        # the input's own tables, built once and read by every candidate
        assert len(built) == 1 and built[0][0] is s and built[0][1] is s


class TestEqfreeCore:
    def test_trivial_relations_collapse(self):
        full = Structure.make(GRAPH_SIGNATURE, 3,
                              {"E": {(a, b) for a in range(3) for b in range(3)}})
        assert eqfree_core(full).size == 1

    def test_bipartite_collapse(self, k2):
        k22 = make_gadget(GadgetSpec("KompleteBipartite", (2, 2)))
        assert are_isomorphic(eqfree_core(k22), k2)

    def test_result_has_trivial_quotient(self):
        rng = random.Random(64)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            core = eqfree_core(s)
            again, _ = quotient_by_sim(core)
            assert again.size == core.size

    def test_agrees_on_sampled_eqfree_sentences(self):
        rng = random.Random(65)
        cfg = SamplerConfig(allow_negation=True)
        for _ in range(8):
            s = random_structure(rng, rng.randint(1, 4))
            core = eqfree_core(s)
            for _ in range(60):
                f = sample_sentence(GRAPH_SIGNATURE, rng, cfg)
                assert evaluate(s, f) == evaluate(core, f)


def overlap_shape_ok(U, X):
    u, x = set(U), set(X)
    return u == x or not (u & x) or (u & x and u - x and x - u)


class TestUXCore:
    def test_k2_plus_k1(self, k2_plus_k1):
        r = ux_core(k2_plus_k1)
        assert r.U == (2,) and r.X == (0, 1)
        assert r.core.size == 3

    def test_loop_plus_isolated(self, loop_iso):
        r = ux_core(loop_iso)
        assert r.U == (1,) and r.X == (0,)
        assert r.core.size == 2

    def test_k3_needs_everything(self, k3):
        r = ux_core(k3)
        assert r.U == (0, 1, 2) and r.X == (0, 1, 2)

    def test_canonical_clauses(self):
        rng = random.Random(66)
        for _ in range(25):
            s = random_structure(rng, rng.randint(1, 4))
            r = ux_core(s)
            n = r.core.size
            u, x = set(r.core_U), set(r.core_X)
            assert u | x == set(range(n))
            h = r.canonical
            assert preserves(h, r.core)
            for y in (u & x) | (x - u):
                assert h.images[y] == 1 << y
            union_spray = 0
            for z in u - x:
                img = set(bits(h.images[z]))
                assert z in img and img - {z} <= x - u
                assert img & x, "canonical shop must be X-total"
                union_spray |= h.images[z] & ~(1 << z)
            if u - x:
                assert union_spray == sum(1 << e for e in x - u)
            assert check_3_permuted(h, r.core_U, r.core_X) is not None

    def test_overlap_shape_of_computed_sets(self):
        rng = random.Random(67)
        for _ in range(30):
            s = random_structure(rng, rng.randint(1, 4))
            r = ux_core(s)
            assert overlap_shape_ok(r.core_U, r.core_X)

    def test_idempotent(self):
        rng = random.Random(68)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            r = ux_core(s)
            again = ux_core(r.core)
            assert are_isomorphic(r.core, again.core)
            assert len(again.U) == len(r.U) and len(again.X) == len(r.X)
            assert len(set(again.U) & set(again.X)) == len(set(r.U) & set(r.X))
            assert set(again.U) | set(again.X) == set(range(r.core.size))

    def test_relabelling_invariance(self):
        rng = random.Random(69)
        for _ in range(15):
            s = random_structure(rng, rng.randint(2, 4))
            perm = list(range(s.size))
            rng.shuffle(perm)
            r1 = ux_core(s)
            r2 = ux_core(s.relabel(perm))
            assert are_isomorphic(r1.core, r2.core)
            assert (len(r1.U), len(r1.X)) == (len(r2.U), len(r2.X))

    def test_core_is_pos_eqfree_equivalent(self):
        rng = random.Random(70)
        for _ in range(10):
            s = random_structure(rng, rng.randint(2, 4))
            r = ux_core(s)
            assert find_morphism(s, r.core, "surjectiveHyper") is not None
            assert find_morphism(r.core, s, "surjectiveHyper") is not None

    def test_relativisation_soundness(self):
        rng = random.Random(71)
        for _ in range(6):
            s = random_structure(rng, rng.randint(2, 4))
            r = ux_core(s)
            report = check_relativisation(s, r.U, r.X, samples=120,
                                          seed=rng.randint(0, 10 ** 6))
            assert report.ok, report.counterexamples[:1]

    def test_bound(self):
        big = clique(7)
        with pytest.raises(BudgetExceededError):
            ux_core(big)


def ascending_minimal_sets(structure, profile):
    """Oracle for the descending sweep: test every subset, smallest first."""
    n = structure.size
    for size in range(1, n + 1):
        hits = [S for S in itertools.combinations(range(n), size)
                if exists_shop(structure, profile, frozenset(S)) is not None]
        if hits:
            return size, hits
    raise AssertionError("the whole domain always admits a shop")


class TestMinimalSets:
    @pytest.mark.parametrize("signature,sizes,seed", [
        (GRAPH_SIGNATURE, range(1, 7), 73),
        (Signature.make(("R", 3)), range(1, 6), 74),
    ])
    def test_descending_sweep_matches_ascending_oracle(self, signature, sizes, seed):
        rng = random.Random(seed)
        answers = set()
        for n in sizes:
            for density in (0.2, 0.4, 0.6, 0.8):
                s = random_structure(rng, n, signature, density)
                for sweep, profile in ((minimal_u_sets, "U-surjective"),
                                       (minimal_x_sets, "X-total")):
                    expected = ascending_minimal_sets(s, profile)
                    assert sweep(s) == expected, (s, profile)
                    answers.add(expected[0])
        # the corpus must reach the singleton probe and a descent past size 2
        assert 1 in answers and max(answers) > 2


class TestRetractEquivalence:
    def test_core_and_structure_agree_on_sampled_sentences(self):
        rng = random.Random(72)
        for _ in range(6):
            s = random_structure(rng, rng.randint(2, 4))
            r = ux_core(s)
            for _ in range(80):
                f = sample_sentence(GRAPH_SIGNATURE, rng)
                assert evaluate(s, f) == evaluate(r.core, f)


class TestThreeRegionCore:
    def test_pinned_structure_with_all_three_regions(self):
        # a reduced structure whose minimal sets overlap without coinciding:
        # U & X = {2,3}, U-only = {1,4}, X-only = {0}
        edges = {(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1),
                 (1, 2), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2), (3, 4),
                 (4, 2), (4, 3)}
        s = Structure.make(GRAPH_SIGNATURE, 5, {"E": edges})
        r = ux_core(s)
        assert set(r.U) == {1, 2, 3, 4} and set(r.X) == {0, 2, 3}
        assert r.core.size == 5
        h = r.canonical
        assert h.images[0] == 0b00001 and h.images[2] == 0b00100
        assert h.images[1] == 0b00011 and h.images[4] == 0b10001
        witness = check_3_permuted(h, r.core_U, r.core_X)
        assert witness is not None
        assert dict(witness.sprays) == {1: frozenset({0}), 4: frozenset({0})}
        from fomc import classify_pos_eqfree
        assert classify_pos_eqfree(s).klass == "PspaceComplete"
