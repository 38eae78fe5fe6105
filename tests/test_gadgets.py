import itertools
import random
import tracemalloc

import pytest

from fomc import (BudgetExceededError, FomcError, Structure, classify_pos_eqfree, enumerate_she,
                  evaluate, find_morphism, generate_dsm, identity_shop,
                  make_gadget, meta_reduction, parse_formula,
                  reduce_nae_to_k2, reduce_qcsp_nae_to_gadget)
from fomc.gadgets import (DHAT_SIGNATURE, GV_SIGNATURE, GadgetSpec, clique, dhat,
                          pspace_gadget, reflexive_clique, vertex_gadget,
                          vertex_gadget_generator)
from fomc.shops import HyperMap, sub_shops
from fomc.structures import GRAPH_SIGNATURE, check_tuple_budget



def sym(*pairs):
    out = set()
    for a, b in pairs:
        out.add((a, b))
        out.add((b, a))
    return out


class TestConstructors:
    def test_g22_edge_set(self, g22):
        expected = sym((0, 2)) | {(2, 2), (3, 3), (2, 3), (3, 2)} | sym((1, 3))
        assert g22.relation("E") == expected

    def test_g_parameter_validation(self):
        with pytest.raises(FomcError):
            make_gadget(GadgetSpec("G", (2, 2, 3, 2)))
        with pytest.raises(FomcError):
            make_gadget(GadgetSpec("G", (2, 2, 0, 1)))

    def test_dhat_contains_all_existential_quadruples(self, dhat22):
        rel = dhat22.relation("R")
        for quad in itertools.product((2, 3), repeat=4):
            assert quad in rel

    def test_dhat_head_selects_gadget(self, dhat22):
        rel = dhat22.relation("R")
        for u in (0, 1):
            for x in (2, 3):
                gadget = make_gadget(GadgetSpec("G", (2, 2, u, x)))
                edges = {(a, b) for (h1, h2, a, b) in rel if (h1, h2) == (u, x)}
                assert edges == gadget.relation("E")

    def test_bnae_has_six_tuples(self, bnae):
        assert len(bnae.relation("NAE")) == 6

    def test_one_element_variants(self):
        assert make_gadget(GadgetSpec("OneElement")).relation("E") == frozenset()
        assert make_gadget(GadgetSpec("OneElement", (1,))).relation("E") == {(0, 0)}

    def test_parameter_counts_are_checked(self):
        with pytest.raises(FomcError, match="gadget Dhat takes 2 parameters, got 1"):
            make_gadget(GadgetSpec("Dhat", (2,)))
        with pytest.raises(FomcError, match="gadget OneElement takes 0 or 1 parameters, got 2"):
            make_gadget(GadgetSpec("OneElement", (1, 1)))
        with pytest.raises(FomcError, match="gadget BNAE takes 0 parameters, got 1"):
            make_gadget(GadgetSpec("BNAE", (1,)))

    def test_bipartite(self):
        s = make_gadget(GadgetSpec("KompleteBipartite", (1, 2)))
        assert s.relation("E") == sym((0, 1), (0, 2))


class TestSizeBudget:
    """Every sized gadget is refused before its tuple set is built when it
    could hold more tuples than a complement may."""

    def test_clique_above_the_cap_raises_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError,
                               match=r"^gadget would need up to 1002001 tuples \(limit 1000000\)$"):
                make_gadget(GadgetSpec("Kn", (1001,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the million edges would take about 100 MB

    @pytest.mark.parametrize("build", [
        lambda: reflexive_clique(1001),
        lambda: make_gadget(GadgetSpec("KompleteBipartite", (500, 501))),
        lambda: pspace_gadget(500, 501, 0, 500),
        lambda: dhat(16, 16),
        lambda: vertex_gadget(995),
        lambda: reduce_qcsp_nae_to_gadget(parse_formula("exists x. NAE(x,x,x)"), "Dhat", 16, 16),
    ], ids=["KnReflexive", "KompleteBipartite", "G", "Dhat", "GV", "reduce-dhat"])
    def test_each_sized_gadget_is_bounded(self, build):
        with pytest.raises(BudgetExceededError, match="^gadget would need up to"):
            build()

    @pytest.mark.parametrize("signature,largest", [
        (GRAPH_SIGNATURE, 1000), (DHAT_SIGNATURE, 31), (GV_SIGNATURE, 4 + 994)])
    def test_bound_is_the_complement_cap(self, signature, largest):
        check_tuple_budget("gadget", signature, largest)
        with pytest.raises(BudgetExceededError):
            check_tuple_budget("gadget", signature, largest + 1)

    def test_dhat_reduction_rejects_empty_blocks(self):
        f = parse_formula("exists x. NAE(x,x,x)")
        with pytest.raises(FomcError, match="^block sizes must be positive$"):
            reduce_qcsp_nae_to_gadget(f, "Dhat", 0, 2)


class TestGadgetAlgebra:
    def test_dhat_she_equals_completion(self, dhat22):
        from fomc import completion_contains, completion_generators
        she = enumerate_she(dhat22)
        generated = generate_dsm(completion_generators([0, 1], [2, 3]), 4)
        assert she.as_set() == generated.as_set()
        assert all(completion_contains(f, [0, 1], [2, 3]) for f in she)

    def test_small_gadgets_map_onto_g22(self, g22):
        for j in (2, 3):
            for k in (2, 3):
                for u in range(j):
                    for x in range(j, j + k):
                        big = make_gadget(GadgetSpec("G", (j, k, u, x)))
                        witness = find_morphism(big, g22, "fullSurjective")
                        assert witness is not None

    def test_g_family_is_pspace(self):
        for j in (2, 3):
            for k in (2, 3):
                for u in range(j):
                    for x in range(j, j + k):
                        s = make_gadget(GadgetSpec("G", (j, k, u, x)))
                        assert classify_pos_eqfree(s).klass == "PspaceComplete"

    def test_clique_with_point_family(self, k1):
        from fomc.structures import disjoint_union
        for n in (2, 3):
            s = disjoint_union(clique(n), k1)
            assert classify_pos_eqfree(s).klass == "NPComplete"
            assert classify_pos_eqfree(s.complement()).klass == "CoNPComplete"


class TestVertexGadget:
    def test_no_three_element_base_graph_realises_target_monoid(self):
        # the quotient-style base graph cannot exist over one binary symbol:
        # every candidate leaves either a vertex-image extension or the
        # vertex-to-apex swap alive
        target_gen = HyperMap.from_sets(3, 3, [{0}, {0, 1, 2}, {0}])
        target = generate_dsm([target_gen], 3).as_set()
        sig = GRAPH_SIGNATURE
        pairs = list(itertools.product(range(3), repeat=2))
        for selector in range(1 << 9):
            edges = {p for i, p in enumerate(pairs) if selector >> i & 1}
            s = Structure.make(sig, 3, {"E": edges})
            assert enumerate_she(s).as_set() != target

    def test_exact_monoid_at_three_vertices(self):
        gv = vertex_gadget(3)
        she = enumerate_she(gv, force=True)
        f_v = vertex_gadget_generator(3)
        direct = {identity_shop(7)} | set(sub_shops(f_v))
        assert she.as_set() == direct

    def test_generate_dsm_matches_direct_set_small(self):
        # the generated monoid of the apex map is the identity plus its
        # sub-shops; checked literally where the closure is cheap
        f_v = vertex_gadget_generator(1)
        direct = {identity_shop(5)} | set(sub_shops(f_v))
        assert generate_dsm([f_v], 5).as_set() == direct

    def test_enumerated_monoid_is_generated_at_three_vertices(self):
        # the slow literal form of the exactness statement
        gv = vertex_gadget(3)
        f_v = vertex_gadget_generator(3)
        assert enumerate_she(gv, force=True).as_set() == \
            generate_dsm([f_v], 7).as_set()

    def test_generated_monoid_is_exact_at_four_vertices(self):
        f_v = vertex_gadget_generator(4)
        direct = {identity_shop(8)} | set(sub_shops(f_v))
        assert len(direct) == 19209
        assert generate_dsm([f_v], 8).as_set() == direct

    def test_exact_monoid_at_four_vertices(self):
        gv = vertex_gadget(4)
        f_v = vertex_gadget_generator(4)
        direct = {identity_shop(8)} | set(sub_shops(f_v))
        assert enumerate_she(gv, force=True).as_set() == direct

    def test_small_vertex_counts_only_gain_harmless_extras(self):
        # the exact monoid is unattainable below three vertices; the extras
        # must never include an A-shop or an E-shop
        for s in (1, 2):
            gv = vertex_gadget(s)
            n = 4 + s
            f_v = vertex_gadget_generator(s)
            direct = {identity_shop(n)} | set(sub_shops(f_v))
            extra = enumerate_she(gv).as_set() - direct
            assert 0 < len(extra) <= 1
            full = (1 << n) - 1
            for f in extra:
                assert all(m != full for m in f.images)
                meet = full
                for m in f.images:
                    meet &= m
                assert meet == 0


class TestMetaReduction:
    def test_triangle_is_np(self):
        assert classify_pos_eqfree(meta_reduction(clique(3))).klass == "NPComplete"

    def test_k4_is_pspace(self):
        assert classify_pos_eqfree(meta_reduction(clique(4))).klass == "PspaceComplete"

    def test_single_edge_is_np(self):
        assert classify_pos_eqfree(meta_reduction(clique(2))).klass == "NPComplete"

    def test_colour_clique_uses_instance_symbol(self):
        s = meta_reduction(clique(2))
        e = s.relation("E")
        assert sym((0, 1), (0, 2), (1, 2)) <= e
        assert (4, 5) in e and (5, 4) in e

    def test_rejects_loops_and_asymmetry(self):
        looped = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0)}})
        with pytest.raises(FomcError):
            meta_reduction(looped)
        directed = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 1)}})
        with pytest.raises(FomcError):
            meta_reduction(directed)

    def test_random_graphs_match_three_colourability(self):
        rng = random.Random(91)
        for _ in range(6):
            size = rng.randint(2, 4)
            edges = sym(*{(a, b) for a in range(size) for b in range(a + 1, size)
                          if rng.random() < 0.6})
            graph = Structure.make(GRAPH_SIGNATURE, size, {"E": edges})
            colourable = any(
                all(c[a] != c[b] for a, b in edges)
                for c in itertools.product(range(3), repeat=size))
            verdict = classify_pos_eqfree(meta_reduction(graph)).klass
            assert verdict == ("NPComplete" if colourable else "PspaceComplete")


class TestSentenceReductions:
    def test_nae_to_k2_examples(self, bnae, k2):
        f = parse_formula("forall x. exists y. exists z. NAE(x,y,z)")
        g = reduce_nae_to_k2(f)
        assert evaluate(bnae, f) and evaluate(k2, g)
        f2 = parse_formula("exists x. NAE(x,x,x)")
        g2 = reduce_nae_to_k2(f2)
        assert not evaluate(bnae, f2) and not evaluate(k2, g2)

    def test_nae_to_k2_rejects_foreign_symbols(self):
        with pytest.raises(FomcError):
            reduce_nae_to_k2(parse_formula("exists x. E(x,x)"))

    def test_first_matrix_error_in_left_to_right_order_is_reported(self):
        foreign_first = parse_formula("exists x. (E(x,x) & (exists y. NAE(x,y,y)))")
        with pytest.raises(FomcError, match="^foreign symbol 'E'$"):
            reduce_nae_to_k2(foreign_first)
        quantifier_first = parse_formula("exists x. ((exists y. NAE(x,y,y)) & E(x,x))")
        with pytest.raises(FomcError, match="^quantifier inside the matrix; sentence is not prenex$"):
            reduce_qcsp_nae_to_gadget(quantifier_first, "G22")

    def test_gadget_reduction_single_clause(self, bnae, g22, dhat22):
        f = parse_formula("forall u. exists y. NAE(u,y,y)")
        assert evaluate(bnae, f)
        assert evaluate(g22, reduce_qcsp_nae_to_gadget(f, "G22"))
        assert evaluate(dhat22, reduce_qcsp_nae_to_gadget(f, "Dhat"))

    def test_gadget_reduction_false_case(self, bnae, g22, dhat22):
        f = parse_formula("exists x. NAE(x,x,x)")
        assert not evaluate(bnae, f)
        assert not evaluate(g22, reduce_qcsp_nae_to_gadget(f, "G22"))
        assert not evaluate(dhat22, reduce_qcsp_nae_to_gadget(f, "Dhat"))

    def test_gadget_reduction_requires_clause_form(self):
        f = parse_formula("exists x. NAE(x,x,x) | NAE(x,x,x)")
        with pytest.raises(FomcError):
            reduce_qcsp_nae_to_gadget(f, "G22")


class TestBipartiteCarrier:
    def test_complete_bipartite_maps_fully_onto_the_edge(self, k2):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                kab = make_gadget(GadgetSpec("KompleteBipartite", (a, b)))
                assert find_morphism(kab, k2, "fullSurjective") is not None

    def test_complete_bipartite_shares_k2_verdict(self, k2):
        k22 = make_gadget(GadgetSpec("KompleteBipartite", (2, 2)))
        assert classify_pos_eqfree(k22).klass == \
            classify_pos_eqfree(k2).klass == "PspaceComplete"
