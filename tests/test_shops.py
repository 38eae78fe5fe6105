import functools
import itertools
import operator
import random
from collections import Counter

import pytest

from fomc import (BudgetExceededError, FomcError, Signature, Structure, check_3_permuted,
                  completion_contains, completion_generators, compose,
                  enumerate_she, exists_shop, generate_dsm, identity_shop,
                  inverse, is_sub_shop, parse_shop, preserves, render_shop,
                  shop_from_sets)
from fomc.gadgets import pspace_gadget
from fomc.lattice import all_shops
from fomc.shops import (HyperMap, _degree_descending, _ImageSearch, _links, _mask_tables,
                        canonical_shop, shop_exists, sub_shops)
from fomc.structures import GRAPH_SIGNATURE, find_morphism

from conftest import all_binary_structures, random_structure


def shop(*images):
    return shop_from_sets([set(s) for s in images])


class TestAlgebra:
    def test_compose_definition(self):
        # (01|1) after (1|0)
        left = shop({0, 1}, {1})
        right = shop({1}, {0})
        assert compose(left, right) == shop({1}, {0, 1})

    def test_identity_neutral(self):
        rng = random.Random(2)
        shops = all_shops(3)
        for f in rng.sample(shops, 40):
            e = identity_shop(3)
            assert compose(e, f) == f and compose(f, e) == f

    def test_associativity_exhaustive_n2(self):
        shops = all_shops(2)
        for f, g, h in itertools.product(shops, repeat=3):
            assert compose(compose(h, g), f) == compose(h, compose(g, f))

    def test_inverse_examples(self):
        assert inverse(shop({0, 1}, {1})) == shop({0}, {0, 1})
        assert inverse(identity_shop(4)) == identity_shop(4)

    def test_inverse_involutive_antihomomorphism(self):
        shops = all_shops(2)
        for f in shops:
            assert inverse(inverse(f)) == f
        for f, g in itertools.product(shops, repeat=2):
            assert inverse(compose(g, f)) == compose(inverse(f), inverse(g))

    def test_composition_of_shops_is_shop(self):
        rng = random.Random(9)
        shops = all_shops(3)
        for _ in range(200):
            f, g = rng.choice(shops), rng.choice(shops)
            assert compose(g, f).is_shop

    def test_sub_shop(self):
        assert is_sub_shop(identity_shop(2), shop({0, 1}, {0, 1}))
        assert not is_sub_shop(shop({1}, {0}), shop({0, 1}, {1}))

    def test_sub_shop_preserves(self):
        rng = random.Random(4)
        s = random_structure(rng, 3)
        for f in all_shops(3):
            if preserves(f, s):
                for g in sub_shops(f):
                    assert preserves(g, s)

    def test_u_shop_composition_lemma_n3(self):
        # g after a U-shop is a U-shop; an X-shop after g is an X-shop
        shops = all_shops(3)
        full = 0b111
        for f, g in itertools.product(shops, repeat=2):
            h = compose(g, f)
            for u in range(3):
                if f.images[u] == full:
                    assert h.image_of_set(1 << u) == full
            meet = full
            for m in g.images:
                meet &= m
            if meet:
                hm = full
                for m in h.images:
                    hm &= m
                assert hm & meet == meet


class TestPreservation:
    def test_swap_preserves_k2(self, k2):
        assert preserves(shop({1}, {0}), k2)

    def test_spray_breaks_k2(self, k2):
        assert not preserves(shop({0, 1}, {1}), k2)

    def test_identity_preserves_everything(self):
        rng = random.Random(6)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            assert preserves(identity_shop(s.size), s)


class TestEnumerateShe:
    def test_she_k2(self, k2):
        assert enumerate_she(k2).as_set() == {identity_shop(2), shop({1}, {0})}

    def test_one_element(self):
        s = Structure.make(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}})
        assert enumerate_she(s).as_set() == {identity_shop(1)}

    def test_unconstrained_boolean_domain(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": set()})
        assert len(enumerate_she(s)) == 7

    def test_bound_guard(self):
        s = Structure.make(GRAPH_SIGNATURE, 7, {"E": {(a, a) for a in range(7)}})
        with pytest.raises(BudgetExceededError):
            enumerate_she(s)

    def test_output_is_dsm(self):
        rng = random.Random(12)
        for _ in range(10):
            s = random_structure(rng, rng.randint(1, 3))
            assert enumerate_she(s).is_closed()

    def test_inverse_duality_with_complement(self):
        rng = random.Random(14)
        samples = [random_structure(rng, 3) for _ in range(5)]
        samples += [random_structure(rng, 2) for _ in range(5)]
        for s in samples:
            she = enumerate_she(s)
            co_she = enumerate_she(s.complement())
            assert {inverse(f) for f in she} == co_she.as_set()


class TestExistsShop:
    def test_a_shop_on_isolated_vertex(self, k2_plus_k1):
        witness = exists_shop(k2_plus_k1, "A-shop", 2)
        assert witness is not None and witness.images[2] == 0b111
        assert preserves(witness, k2_plus_k1)
        assert exists_shop(k2_plus_k1, "A-shop", 0) is None

    def test_no_e_shop_on_k2_plus_k1(self, k2_plus_k1):
        for x in range(3):
            assert exists_shop(k2_plus_k1, "E-shop", x) is None

    def test_singleton_ux_on_loop(self, loop_iso):
        witness = exists_shop(loop_iso, "singletonUX", 1, 0)
        assert witness == shop({0}, {0, 1})

    def test_ux_composition(self, k2_plus_k1):
        witness = exists_shop(k2_plus_k1, "UX", frozenset({2}), frozenset({0, 1}))
        assert witness is not None
        assert witness.image_of_set(0b100) == 0b111  # U-surjective
        assert all(m & 0b011 for m in witness.images)  # X-total
        assert preserves(witness, k2_plus_k1)

    def test_profiles_match_brute_force_n2(self):
        shops = all_shops(2)
        for s in all_binary_structures(2):
            preserving = [f for f in shops if preserves(f, s)]
            for u in range(2):
                brute = any(f.images[u] == 0b11 for f in preserving)
                assert (exists_shop(s, "A-shop", u) is not None) == brute
            for x in range(2):
                brute = any(all(m >> x & 1 for m in f.images) for f in preserving)
                assert (exists_shop(s, "E-shop", x) is not None) == brute
            for U in ({0}, {1}, {0, 1}):
                brute = any(f.image_of_set(sum(1 << u for u in U)) == 0b11
                            for f in preserving)
                assert (exists_shop(s, "U-surjective", frozenset(U)) is not None) == brute

    def test_range_checks(self, k2):
        with pytest.raises(FomcError):
            exists_shop(k2, "A-shop", 5)
        with pytest.raises(FomcError):
            exists_shop(k2, "nonsense", 0)


def direct_tables(source, target, order, masks=None):
    """Oracle for ``_ImageSearch``'s set-up: the per-step tables built
    straight from the tuples, one tuple at a time."""
    position = {a: i for i, a in enumerate(order)}
    tables = _mask_tables(target)
    full = (1 << target.size) - 1
    unary_masks = list(masks) if masks is not None else [full] * source.size
    links = [[] for _ in order]
    loops = [[] for _ in order]
    general = [[] for _ in order]
    for name, tuples in source.rels:
        table = tables[name]
        for t in tuples:
            step = max(position[a] for a in t)
            if table[0] == "unary":
                unary_masks[t[0]] &= table[1]
            elif table[0] == "binary":
                a, b = t
                if a == b:
                    loops[step].append(table[1])
                else:
                    links[position[b]].append((table[1], a))
                    links[position[a]].append((table[2], b))
            else:
                general[step].append((name, t))
    return unary_masks, links, loops, general


class TestSearchTables:
    MIXED = Signature.make(("P", 1), ("E", 2), ("R", 3))

    def test_cached_links_match_direct_tables(self):
        rng = random.Random(91)
        cases = 0
        for _ in range(60):
            source = random_structure(rng, rng.randint(1, 5), self.MIXED, rng.random())
            target = (source if rng.random() < 0.3 else
                      random_structure(rng, rng.randint(1, 5), self.MIXED, rng.random()))
            order = list(range(source.size))
            rng.shuffle(order)
            full = (1 << target.size) - 1
            masks = (None if rng.random() < 0.5
                     else [rng.randint(0, full) for _ in range(source.size)])
            search = _ImageSearch(source, target, order, masks)
            unary_masks, links, loops, general = direct_tables(source, target, order, masks)
            assert list(search.unary_masks) == unary_masks
            for step in range(len(order)):
                assert Counter(search.links[step]) == Counter(links[step])
                assert Counter(search.loops[step]) == Counter(loops[step])
                assert Counter(search.general[step]) == Counter(general[step])
            cases += source is not target and any(map(len, links)) and any(map(len, loops))
        assert cases  # some pair with binary links and loops across two structures

    def test_cached_tables_are_immutable(self):
        s = random_structure(random.Random(92), 4, self.MIXED, 0.5)
        for table in _links(s, s):
            assert isinstance(table, tuple)
        assert isinstance(_degree_descending(s), tuple)
        assert _links.cache_info().maxsize == _degree_descending.cache_info().maxsize == 512


class TestShopExists:
    # X = {0,...,4} on this digraph is an X-total refutation that costs the
    # witness search tens of milliseconds
    FOUND = Structure.make(GRAPH_SIGNATURE, 6,
                           {"E": {(0, 4), (4, 0), (4, 3), (5, 0), (5, 4)}})

    def test_matches_witness_search(self):
        rng = random.Random(93)
        corpus = [(self.FOUND, "X-total", (0, 1, 2, 3, 4))]
        for signature, sizes in ((GRAPH_SIGNATURE, range(1, 7)),
                                 (Signature.make(("R", 3)), range(1, 6))):
            for n in sizes:
                for density in (0.2, 0.5, 0.8):
                    s = random_structure(rng, n, signature, density)
                    subsets = [S for k in range(1, n + 1)
                               for S in itertools.combinations(range(n), k)]
                    for profile in ("U-surjective", "X-total"):
                        for S in rng.sample(subsets, min(len(subsets), 12)):
                            corpus.append((s, profile, S))
        outcomes = Counter()
        for s, profile, S in corpus:
            expected = exists_shop(s, profile, frozenset(S)) is not None
            assert shop_exists(s, profile, S) == expected, (s, profile, S)
            outcomes[profile, expected] += 1
        assert min(outcomes.values()) > 20 and len(outcomes) == 4
        assert not shop_exists(self.FOUND, "X-total", (0, 1, 2, 3, 4))

    def test_range_checks(self, k2):
        for profile, S in (("U-surjective", ()), ("X-total", (2,)), ("A-shop", (0,))):
            with pytest.raises(FomcError):
                shop_exists(k2, profile, S)


class TestGenerateDsm:
    def test_empty_generators(self):
        assert generate_dsm([], 2).as_set() == {identity_shop(2)}

    def test_swap_monoid(self):
        swap = shop({1}, {0})
        assert generate_dsm([swap], 2).as_set() == {identity_shop(2), swap}

    def test_full_shop_generates_everything(self):
        top = shop({0, 1}, {0, 1})
        assert len(generate_dsm([top], 2)) == 7

    def test_closure_laws(self):
        rng = random.Random(19)
        shops = all_shops(3)
        for _ in range(5):
            gens = rng.sample(shops, 2)
            m = generate_dsm(gens, 3)
            assert m.is_closed()
            # extensive and idempotent
            assert all(g in m for g in gens)
            assert generate_dsm(m, 3).as_set() == m.as_set()


class TestCanonicalShop:
    def test_k2_plus_k1(self, k2_plus_k1):
        h = canonical_shop(k2_plus_k1, {2}, {0, 1})
        assert h == shop({0}, {1}, {0, 1, 2})

    def test_identity_when_only_automorphisms(self, k3):
        assert canonical_shop(k3, {0, 1, 2}, {0, 1, 2}) == identity_shop(3)

    def test_dhat_canonical(self, dhat22):
        h = canonical_shop(dhat22, {0, 1}, {2, 3})
        assert h == shop({0, 2, 3}, {1, 2, 3}, {2}, {3})

    def test_matches_she_filter(self):
        # the probe-based computation agrees with filtering the enumerated
        # monoid for identity-form members and composing them all (which is
        # the pointwise union of their sprays)
        from fomc.cores import ux_core
        rng = random.Random(21)
        for _ in range(12):
            s = random_structure(rng, rng.randint(2, 4))
            core = ux_core(s)
            u_only = set(core.core_U) - set(core.core_X)
            x_only_mask = sum(1 << x for x in set(core.core_X) - set(core.core_U))
            n = core.core.size
            best = [1 << z for z in range(n)]
            for f in enumerate_she(core.core):
                fixed = all(f.images[z] == 1 << z
                            for z in range(n) if z not in u_only)
                form = all(f.images[z] & ~((1 << z) | x_only_mask) == 0
                           and f.images[z] & (1 << z) for z in u_only)
                if fixed and form:
                    for z in u_only:
                        best[z] |= f.images[z]
            assert HyperMap(n, n, tuple(best)) == core.canonical

    def test_requires_cover(self, k2_plus_k1):
        with pytest.raises(FomcError):
            canonical_shop(k2_plus_k1, {2}, {0})


class TestPermutedForm:
    def test_identity_always_in_form(self):
        w = check_3_permuted(identity_shop(4), {0, 1}, {2, 3})
        assert w is not None
        assert all(not spray for _, spray in w.sprays)

    def test_dhat_members_all_in_form(self, dhat22):
        for f in enumerate_she(dhat22):
            assert check_3_permuted(f, {0, 1}, {2, 3}) is not None

    def test_positive_singleton_blocks(self):
        # {u} -> {u, x} with singleton blocks is in the form: the u image is
        # its own permutation value plus a spray
        w = check_3_permuted(shop({0, 1}, {1}), {0}, {1})
        assert w is not None and dict(w.sprays)[0] == frozenset({1})

    def test_negative_case(self):
        # an X element landing on a U-only element breaks the form
        swap = shop({1}, {0})
        assert check_3_permuted(swap, {0}, {1}) is None

    def test_reconstruction_round_trip(self):
        rng = random.Random(25)
        hits = 0
        for f in all_shops(4):
            w = check_3_permuted(f, {0, 1}, {2, 3})
            if w is not None:
                assert w.rebuild(4) == f
                hits += 1
        assert hits == 64  # 2 * 2 * 4 * 4 three-permuted shops on 2 + 2

    def test_ux_members_cover_sprays(self, dhat22):
        # every U-X member of a reduced monoid sprays onto all of X - U
        for f in enumerate_she(dhat22):
            u_surj = f.image_of_set(0b0011) == 0b1111
            x_total = all(m & 0b1100 for m in f.images)
            if u_surj and x_total:
                union_spray = 0
                for u in (0, 1):
                    union_spray |= f.images[u] & 0b1100
                assert union_spray == 0b1100


class TestCompletion:
    def test_generated_members_pass_membership(self):
        gens = completion_generators([0, 1], [2, 3])
        for f in generate_dsm(gens, 4):
            assert completion_contains(f, [0, 1], [2, 3])

    def test_canonical_member(self):
        hhat = shop({0, 2, 3}, {1, 2, 3}, {2}, {3})
        assert completion_contains(hhat, [0, 1], [2, 3])

    def test_x_to_u_rejected(self):
        f = shop({2, 3}, {1}, {0}, {3})
        assert not completion_contains(f, [0, 1], [2, 3])

    def test_generators_require_disjoint(self):
        with pytest.raises(FomcError):
            completion_generators([0, 1], [1, 2])


class TestShopText:
    def test_render_parse_round_trip(self):
        for f in all_shops(3)[::17]:
            assert parse_shop(render_shop(f)) == f

    def test_paper_style_example(self):
        assert render_shop(shop({0, 1}, {1})) == "0->{0,1};1->{1}"
        assert parse_shop("0->{0,1};1->{1}") == shop({0, 1}, {1})

    def test_parse_errors(self):
        from fomc import ParseError
        with pytest.raises(ParseError):
            parse_shop("0->{0};2->{1}")
        with pytest.raises(ParseError):
            parse_shop("garbage")


class TestSampledMonoidLaws:
    def test_associativity_sampled_larger_domains(self):
        rng = random.Random(77)
        for n in (3, 4):
            shops = all_shops(n)
            for _ in range(300):
                f, g, h = (rng.choice(shops) for _ in range(3))
                assert compose(compose(h, g), f) == compose(h, compose(g, f))


UNARY_BINARY = Signature.make(("E", 2), ("P", 1))
TERNARY = Signature.make(("R", 3))


class TestEnumerationOracle:
    def test_enumeration_matches_filtering_all_shops(self):
        # independent oracle: materialise every shop and filter by the plain
        # preservation predicate; all_shops is in canonical order, so the
        # DSM must list the same shops in the same order
        rng = random.Random(33)
        structures = [random_structure(rng, 2) for _ in range(10)]
        structures += [random_structure(rng, 3) for _ in range(10)]
        structures += [random_structure(rng, 4, density=0.6) for _ in range(3)]
        # the empty structure keeps every shop
        structures.append(Structure.make(GRAPH_SIGNATURE, 4, {"E": set()}))
        for n in (1, 2, 3):
            for density in (0.2, 0.5):
                structures.append(random_structure(rng, n, UNARY_BINARY, density))
            structures.append(random_structure(rng, n, TERNARY, 0.1))
        structures += [random_structure(rng, 4, GRAPH_SIGNATURE, 0.15),
                       random_structure(rng, 4, UNARY_BINARY, 0.15),
                       random_structure(rng, 4, TERNARY, 0.02)]
        ground = {n: all_shops(n) for n in range(1, 5)}
        for s in structures:
            brute = tuple(f for f in ground[s.size] if preserves(f, s))
            assert enumerate_she(s).shops == brute, s


def covering_hits(source, target):
    """The slow oracle of the engine's ``surjective`` rule with subset
    images: the hits of the search with no surjectivity rule, in its order,
    filtered to those whose images cover the target.  It shares no
    surjectivity code with the engine."""
    full = (1 << target.size) - 1
    for images in _ImageSearch(source, target, _degree_descending(source)).hits(source.size):
        if functools.reduce(operator.or_, images) == full:
            yield images


class TestCoverCut:
    """``enumerate_she`` and ``surjectiveHyper`` demand surjectivity by the
    engine's reach cut and covering last step; the filtered stream is their
    oracle here, and brute force over ``all_shops`` in
    ``TestEnumerationOracle``."""

    def test_she_matches_leaf_check_at_five_and_six(self):
        rng = random.Random(5)
        corpus = [pspace_gadget(3, 3, 0, 3),
                  random_structure(rng, 6, GRAPH_SIGNATURE, 0.8),
                  random_structure(rng, 5, GRAPH_SIGNATURE, 0.1),
                  random_structure(rng, 5, UNARY_BINARY, 0.12),
                  random_structure(rng, 5, TERNARY, 0.02)]
        counts = []
        for s in corpus:
            she = enumerate_she(s)
            assert [f.images for f in she] == sorted(covering_hits(s, s)), s
            counts.append(len(she))
        assert counts[0] == 43136 and max(counts[2:]) > 10

    def test_surjective_hyper_first_witness_matches_leaf_check(self):
        rng = random.Random(41)
        outcomes = Counter()
        for _ in range(60):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            a = random_structure(rng, n, density=rng.choice((0.1, 0.3, 0.5)))
            b = random_structure(rng, m, density=rng.choice((0.3, 0.6, 0.9)))
            oracle = next(covering_hits(a, b), None)
            witness = find_morphism(a, b, "surjectiveHyper")
            assert witness == (oracle and HyperMap(n, m, oracle)), (a, b)
            outcomes[oracle is not None] += 1
        assert min(outcomes[True], outcomes[False]) >= 10


class TestPermutedFormWithOverlap:
    def test_automorphisms_decompose_when_sets_coincide(self, k3):
        for f in enumerate_she(k3):
            w = check_3_permuted(f, {0, 1, 2}, {0, 1, 2})
            assert w is not None and not w.chi and not w.upsilon
