import random

import pytest

from fomc import (FomcError, ParseError, Signature, SignatureMismatchError,
                  Structure, are_isomorphic, closed_under_operation,
                  disjoint_union, find_morphism, induced_substructure,
                  parse_structure, quotient_by_sim, render_structure)
from fomc.gadgets import GadgetSpec, make_gadget
from fomc.structures import (CONJUNCTION, DISJUNCTION, GRAPH_SIGNATURE,
                             MAJORITY, MINORITY, verify_morphism)

from conftest import all_binary_structures, random_structure


class TestBasics:
    def test_signature_rejects_duplicates(self):
        with pytest.raises(FomcError):
            Signature.make(("E", 2), ("E", 3))

    def test_signature_rejects_zero_arity(self):
        with pytest.raises(FomcError):
            Signature.make(("P", 0))

    def test_signature_lookups(self):
        sig = Signature.make(("R", 3), ("E", 2))
        assert sig.arity("E") == 2 and sig.arity("R") == 3
        assert "E" in sig and "P" not in sig
        with pytest.raises(FomcError, match="^unknown relation symbol 'P'$"):
            sig.arity("P")
        same = Signature.make(("E", 2), ("R", 3))
        assert sig == same and hash(sig) == hash(same)
        assert sig != Signature.make(("E", 2), ("R", 2))

    def test_structure_checks_tuples(self):
        with pytest.raises(FomcError):
            Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 1, 1)}})
        with pytest.raises(FomcError):
            Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 5)}})

    def test_name_does_not_affect_equality(self, k2):
        assert k2 == k2.rename("other")


class TestComplement:
    def test_k2_complement_is_loops(self, k2):
        assert k2.complement().relation("E") == {(0, 0), (1, 1)}

    def test_empty_becomes_full(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": set()})
        assert len(s.complement().relation("E")) == 4

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(25):
            s = random_structure(rng, rng.randint(1, 4))
            assert s.complement().complement() == s


class TestDisjointUnion:
    def test_k2_plus_k1(self, k2_plus_k1):
        assert k2_plus_k1.size == 3
        assert k2_plus_k1.relation("E") == {(0, 1), (1, 0)}

    def test_padding_with_empty_point(self, k2):
        point = Structure.make(GRAPH_SIGNATURE, 1, {"E": set()})
        assert disjoint_union(k2, point).relation("E") == k2.relation("E")

    def test_tuple_counts_add(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            assert disjoint_union(a, b).total_tuples() == a.total_tuples() + b.total_tuples()

    def test_signature_mismatch(self, k2, bnae):
        with pytest.raises(SignatureMismatchError):
            disjoint_union(k2, bnae)


class TestInducedSubstructure:
    def test_restriction_of_k2k1_is_k2(self, k2_plus_k1, k2):
        sub, mapping = induced_substructure(k2_plus_k1, {0, 1})
        assert sub == k2
        assert mapping == {0: 0, 1: 1}

    def test_full_domain_is_identity(self):
        rng = random.Random(3)
        s = random_structure(rng, 4)
        sub, mapping = induced_substructure(s, range(4))
        assert sub == s
        assert mapping == {i: i for i in range(4)}

    def test_empty_keep_rejected(self, k2):
        with pytest.raises(FomcError):
            induced_substructure(k2, set())


class TestQuotient:
    def test_complete_bipartite_collapses(self, k2):
        k22 = make_gadget(GadgetSpec("KompleteBipartite", (2, 2)))
        quotient, class_of = quotient_by_sim(k22)
        assert are_isomorphic(quotient, k2)
        assert class_of[0] == class_of[1] and class_of[2] == class_of[3]

    def test_empty_relations_collapse_to_point(self):
        s = Structure.make(GRAPH_SIGNATURE, 3, {"E": set()})
        quotient, _ = quotient_by_sim(s)
        assert quotient.size == 1

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(30):
            s = random_structure(rng, rng.randint(1, 4))
            q1, _ = quotient_by_sim(s)
            q2, _ = quotient_by_sim(q1)
            assert q1.size == q2.size and are_isomorphic(q1, q2)

    def test_quotient_map_is_full_surjective(self):
        rng = random.Random(8)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            quotient, class_of = quotient_by_sim(s)
            witness = tuple(class_of[a] for a in range(s.size))
            assert verify_morphism(s, quotient, "fullSurjective", witness)


class TestFindMorphism:
    def test_clique_embeds_upward(self, k2, k3):
        assert find_morphism(k2, k3, "homomorphism") is not None

    def test_triangle_not_two_colourable(self, k2, k3):
        assert find_morphism(k3, k2, "homomorphism") is None

    def test_witnesses_compose(self):
        rng = random.Random(13)
        found = 0
        while found < 10:
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            c = random_structure(rng, rng.randint(1, 3))
            h = find_morphism(a, b, "homomorphism")
            g = find_morphism(b, c, "homomorphism")
            if h is None or g is None:
                continue
            composed = tuple(g[h[x]] for x in range(a.size))
            assert verify_morphism(a, c, "homomorphism", composed)
            found += 1

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # one search step per source element: 3,000 steps, three times the
        # interpreter's default recursion limit
        edge = Structure.make(GRAPH_SIGNATURE, 3000, {"E": {(0, 1)}})
        looped_point = Structure.make(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}})
        assert find_morphism(edge, looped_point, "homomorphism") == (0,) * 3000

    def test_injective_needs_room(self, k2, k1):
        assert find_morphism(k2, k1, "injective") is None

    def test_full_surjective_on_twins_cuts_uncoverable_branches(self):
        # on ten pairwise interchangeable elements every map is full, so a
        # search that rejects non-surjective maps only at the leaves visits
        # about 10^8 of them before the first bijection
        import subprocess
        import sys
        code = (
            "from fomc.structures import GRAPH_SIGNATURE, Structure, find_morphism\n"
            "edgeless = Structure.make(GRAPH_SIGNATURE, 10, {'E': set()})\n"
            "star = Structure.make(GRAPH_SIGNATURE, 10, {'E': {p for i in range(1, 10)\n"
            "                                                for p in ((0, i), (i, 0))}})\n"
            "for s in (edgeless, star):\n"
            "    assert find_morphism(s, s, 'fullSurjective') == tuple(range(10))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_surjective_hyper_matches_theta(self):
        # cross-checked in depth in the acceptance suite; spot check here
        from fomc import canonical_sentence, evaluate
        rng = random.Random(17)
        for _ in range(40):
            a = random_structure(rng, rng.randint(1, 3))
            b = random_structure(rng, rng.randint(1, 3))
            lhs = find_morphism(a, b, "surjectiveHyper") is not None
            rhs = evaluate(b, canonical_sentence(a, "pos-eqfree", m=b.size))
            assert lhs == rhs

    def test_hyper_witness_duality(self):
        from fomc.shops import _preserves_into, inverse
        for a in all_binary_structures(2):
            for b in all_binary_structures(2):
                f = find_morphism(a, b, "surjectiveHyper")
                if f is not None:
                    assert _preserves_into(inverse(f), b.complement(), a.complement())


class TestIsomorphism:
    def test_relabelled_k2(self, k2):
        assert are_isomorphic(k2, k2.relabel([1, 0]))

    def test_k2_vs_complement(self, k2):
        assert not are_isomorphic(k2, k2.complement())

    def test_equivalence_relation(self):
        rng = random.Random(23)
        sample = [random_structure(rng, 3) for _ in range(8)]
        for a in sample:
            assert are_isomorphic(a, a)
            for b in sample:
                assert are_isomorphic(a, b) == are_isomorphic(b, a)


class TestBooleanClosure:
    def test_nae_not_majority_closed(self, bnae):
        assert not closed_under_operation(bnae, MAJORITY)

    def test_disequality_majority_and_minority(self, k2):
        assert closed_under_operation(k2, MAJORITY)
        assert closed_under_operation(k2, MINORITY)

    def test_horn_example(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0), (0, 1), (1, 0)}})
        assert closed_under_operation(s, CONJUNCTION)
        assert not closed_under_operation(s, DISJUNCTION)

    def test_non_boolean_rejected(self, k3):
        with pytest.raises(FomcError):
            closed_under_operation(k3, MAJORITY)


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4)).rename("s")
            assert parse_structure(render_structure(s)) == s

    def test_comments_and_blank_lines(self):
        text = "# a comment\nstructure t\n\ndomain 2\nrelation E/2\n0 1\n# inline\n1 0\nend\n"
        assert parse_structure(text).relation("E") == {(0, 1), (1, 0)}

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_structure("structure x\nrelation E/2\nend\n")  # no domain
        with pytest.raises(ParseError):
            parse_structure("structure x\ndomain 2\n")  # no end
        with pytest.raises(ParseError):
            parse_structure("structure x\ndomain 2\nrelation E/2\n0 9\nend\n")


class TestMorphismLaws:
    def test_reflexive(self):
        rng = random.Random(71)
        for _ in range(10):
            s = random_structure(rng, rng.randint(1, 4))
            assert find_morphism(s, s, "homomorphism") is not None


class TestMorphismOracle:
    MIXED = Signature.make(("P", 1), ("E", 2), ("R", 3))

    @staticmethod
    def brute_function_witnesses(a, b, kind):
        """Every witness, in search order: the source elements in descending
        degree order, each running over the target values ascending."""
        import itertools as it
        from fomc.shops import _degree_descending
        order = _degree_descending(a)
        hits = []
        for values in it.product(range(b.size), repeat=a.size):
            mapping = [0] * a.size
            for element, value in zip(order, values):
                mapping[element] = value
            if verify_morphism(a, b, kind, mapping):
                hits.append(tuple(mapping))
        return hits

    def test_function_kinds_match_brute_force(self):
        rng = random.Random(37)
        for signature, top, densities in ((GRAPH_SIGNATURE, 3, (0.5, 0.5)),
                                          (self.MIXED, 4, (0.3, 0.7))):
            for _ in range(40):
                a = random_structure(rng, rng.randint(1, top), signature, densities[0])
                b = random_structure(rng, rng.randint(1, top), signature, densities[1])
                for kind in ("homomorphism", "injective", "full", "fullSurjective"):
                    witness = find_morphism(a, b, kind)
                    brute = self.brute_function_witnesses(a, b, kind)
                    # the documented witness: the first hit in search order
                    assert witness == (brute[0] if brute else None), kind

    def test_isomorphism_matches_brute_force(self):
        import itertools as it
        rng = random.Random(38)
        for _ in range(30):
            n = rng.randint(1, 3)
            a = random_structure(rng, n)
            b = random_structure(rng, n)
            brute = any(
                all((tuple(p[e] for e in t) in b.relation(sym)) == (t in ts)
                    for sym, ts in a.rels
                    for t in it.product(range(n), repeat=a.signature.arity(sym)))
                for p in it.permutations(range(n)))
            found, witness = are_isomorphic(a, b, want_witness=True)
            assert found == are_isomorphic(a, b) == brute
            if found:
                assert verify_morphism(a, b, "fullSurjective", witness)
