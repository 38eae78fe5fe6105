import math
import random

import pytest

from fomc import (BudgetExceededError, all_shops, dsm_complexity_tag,
                  enumerate_dsms, export_lattice, generate_dsm, identity_shop,
                  shop_from_sets)
from fomc.gadgets import vertex_gadget_generator
from fomc.lattice import _GroundTables
from fomc.shops import compose, sub_shops


def surjective_count(n: int) -> int:
    """Inclusion-exclusion over the missed target elements."""
    return sum((-1) ** k * math.comb(n, k) * (2 ** (n - k) - 1) ** n
               for k in range(n + 1))


class TestAllShops:
    def test_small_counts(self):
        assert len(all_shops(1)) == 1
        assert len(all_shops(2)) == 7
        assert len(all_shops(3)) == 265

    def test_counts_match_inclusion_exclusion(self):
        for n in (1, 2, 3, 4):
            assert len(all_shops(n)) == surjective_count(n)

    def test_canonical_order(self):
        shops = all_shops(2)
        assert list(shops) == sorted(shops)

    def test_bound(self):
        with pytest.raises(BudgetExceededError):
            all_shops(6)


class TestCensus:
    def test_one_element(self):
        nodes = enumerate_dsms(1)
        assert len(nodes) == 1 and nodes[0].tag == "InL"

    def test_boolean_census_is_five(self):
        nodes = enumerate_dsms(2)
        assert len(nodes) == 5

    def test_boolean_nodes_match_named_monoids(self):
        nodes = enumerate_dsms(2)
        sets = {node.dsm.as_set() for node in nodes}
        identity = identity_shop(2)
        swap = shop_from_sets([{1}, {0}])
        a0e1 = shop_from_sets([{0, 1}, {1}])
        a1e0 = shop_from_sets([{0}, {0, 1}])
        top = shop_from_sets([{0, 1}, {0, 1}])
        expected = {generate_dsm([g], 2).as_set()
                    for g in (identity, swap, a0e1, a1e0, top)}
        assert sets == expected

    def test_boolean_tags_follow_the_dichotomy(self):
        nodes = enumerate_dsms(2)
        by_size = {}
        for node in nodes:
            by_size.setdefault(len(node.dsm), []).append(node)
        assert by_size[1][0].tag == "PspaceComplete"     # identity only
        assert by_size[7][0].tag == "InL"                # everything
        two_tags = sorted(node.tag for node in by_size[2])
        assert two_tags == ["InL", "InL", "PspaceComplete"]

    def test_boolean_hasse_diagram(self):
        nodes = enumerate_dsms(2)
        bottom = next(n for n in nodes if len(n.dsm) == 1)
        top = next(n for n in nodes if len(n.dsm) == 7)
        middles = [n for n in nodes if len(n.dsm) == 2]
        assert bottom.covers == ()
        for node in middles:
            assert node.covers == (bottom.index,)
        assert top.covers == tuple(sorted(n.index for n in middles))

    def test_generators_regenerate_nodes(self):
        # the census and generate_dsm share no closure code
        for n, count in ((2, 5), (3, 115)):
            nodes = enumerate_dsms(n)
            assert len(nodes) == count
            for node in nodes:
                assert generate_dsm(node.generators, n).as_set() == node.dsm.as_set()

    def test_census_bound(self):
        with pytest.raises(BudgetExceededError):
            enumerate_dsms(4)


class TestTags:
    def test_identity_monoid_is_hard(self):
        assert dsm_complexity_tag(generate_dsm([], 2)) == "PspaceComplete"

    def test_full_boolean_monoid_is_trivial(self):
        top = shop_from_sets([{0, 1}, {0, 1}])
        assert dsm_complexity_tag(generate_dsm([top], 2)) == "InL"

    def test_apex_monoid_is_np(self):
        f_v = vertex_gadget_generator(2)
        assert dsm_complexity_tag(generate_dsm([f_v], 6)) == "NPComplete"

    def test_one_sided_monoids(self):
        a_only = shop_from_sets([{0, 1}, {1}])
        assert dsm_complexity_tag(generate_dsm([a_only], 2)) == "InL"


class TestClosureOperator:
    def test_extensive_monotone_idempotent(self):
        rng = random.Random(101)
        shops = all_shops(3)
        for _ in range(6):
            small = rng.sample(shops, 1)
            large = small + rng.sample(shops, 1)
            c_small = generate_dsm(small, 3).as_set()
            c_large = generate_dsm(large, 3).as_set()
            assert set(small) <= c_small
            assert c_small <= c_large
            assert generate_dsm(c_small, 3).as_set() == c_small


class TestGroundTables:
    def test_sub_masks_match_sub_shops(self):
        # oracle: each ground shop's sub-shops, listed one by one
        for n in (1, 2, 3):
            tables = _GroundTables(n)
            expected = [sum(1 << tables.index[s.images] for s in sub_shops(f))
                        for f in tables.ground]
            assert tables.sub == expected

    def test_rows_match_compose(self):
        tables = _GroundTables(3)
        ground = tables.ground
        for i in (0, tables.identity, 131, len(ground) - 1):
            row = tables.row(i)
            assert [ground[row[j]] for j in range(len(ground))] == \
                [compose(ground[i], g) for g in ground]

    def test_closure_matches_generate_dsm(self):
        rng = random.Random(211)
        tables = _GroundTables(3)
        N = len(tables.ground)
        for _ in range(20):
            picks = rng.sample(range(N), rng.randint(1, 3))
            mask = sum(1 << i for i in picks)
            closed = tables.closure(mask)
            gens = [tables.ground[i] for i in picks]
            # both list their shops in canonical order
            assert tables.to_dsm(closed).shops == generate_dsm(gens, 3).shops


class TestExport:
    def test_export_shape(self):
        nodes = enumerate_dsms(2)
        text = export_lattice(nodes)
        assert "covers" in text
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        node_lines = [l for l in lines if "\t" in l]
        assert len(node_lines) == 5


class TestTagConsistency:
    def test_tags_match_structure_verdicts_at_n2(self):
        from fomc import classify_pos_eqfree, enumerate_she
        from conftest import all_binary_structures
        for s in all_binary_structures(2):
            she = enumerate_she(s)
            assert dsm_complexity_tag(she) == classify_pos_eqfree(s).klass


class TestTernaryCensus:
    def test_census_structural_properties(self):
        # the count itself is reported, not pinned; the structure is checked
        nodes = enumerate_dsms(3)
        sets = {frozenset(node.dsm.as_set()) for node in nodes}
        ident = identity_shop(3)
        assert all(ident in node.dsm for node in nodes)
        assert frozenset(generate_dsm([], 3).as_set()) in sets
        # inversion swaps the one-sided tags and fixes the census
        from fomc import inverse
        flipped = {frozenset(inverse(f) for f in node.dsm) for node in nodes}
        assert flipped == sets
        tags = [node.tag for node in nodes]
        assert tags.count("NPComplete") == tags.count("CoNPComplete")

    def test_sampled_closures_land_in_census(self):
        rng = random.Random(103)
        nodes = enumerate_dsms(3)
        sets = {frozenset(node.dsm.as_set()) for node in nodes}
        shops = all_shops(3)
        for _ in range(30):
            gens = rng.sample(shops, rng.randint(1, 2))
            assert frozenset(generate_dsm(gens, 3).as_set()) in sets
