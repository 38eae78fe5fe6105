import functools
import gc
import itertools
import operator
import pickle
import random
import subprocess
import sys
import weakref
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
                        _Meet, bits, canonical_shop, shop_exists, singletons, sub_shops)
from fomc.structures import GRAPH_SIGNATURE, MORPHISM_KINDS, find_morphism

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
    straight from the tuples, one tuple at a time, with each binary
    symbol's out- and in-neighbourhood masks in place of its meet tables."""
    position = {a: i for i, a in enumerate(order)}
    full = (1 << target.size) - 1
    unary_masks = list(masks) if masks is not None else [full] * source.size
    links = [[] for _ in order]
    loops = [[] for _ in order]
    general = [[] for _ in order]
    for name, tuples in source.rels:
        arity = source.signature.arity(name)
        rel = target.relation(name)
        if arity == 2:
            out = tuple(sum(1 << b for b in range(target.size) if (y, b) in rel)
                        for y in range(target.size))
            inc = tuple(sum(1 << a for a in range(target.size) if (a, y) in rel)
                        for y in range(target.size))
        for t in tuples:
            step = max(position[a] for a in t)
            if arity == 1:
                unary_masks[t[0]] &= sum(1 << y for (y,) in rel)
            elif arity == 2:
                a, b = t
                if a == b:
                    loops[step].append(out)
                else:
                    links[position[b]].append((out, a))
                    links[position[a]].append((inc, b))
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
                # the meet tables are compared through the masks they meet
                meets = search.meets
                assert Counter((meets[k].masks, other) for k, other in search.links[step]) \
                    == Counter(links[step])
                assert Counter(meets[k].masks for k in search.loops[step]) == Counter(loops[step])
                assert Counter(search.general[step]) == Counter(general[step])
            cases += source is not target and any(map(len, links)) and any(map(len, loops))
        assert cases  # some pair with binary links and loops across two structures

    def test_cached_tables_are_immutable(self):
        s = random_structure(random.Random(92), 4, self.MIXED, 0.5)
        t = random_structure(random.Random(93), 3, self.MIXED, 0.5)
        for tables in (_links(s, s), _links(s, t)):
            meets, unary, loops, links, general = tables
            for table in tables:
                assert isinstance(table, tuple)
            for entry in loops + links + general:
                assert isinstance(entry, tuple)
            # the meet tables fill as they are read; the masks they meet are fixed
            assert meets and all(isinstance(meet.masks, tuple) for meet in meets)
            assert any(loops) and any(links)
        assert isinstance(_degree_descending(s), tuple)

    def test_tables_are_kept_on_the_structure_object(self, monkeypatch):
        rng = random.Random(94)
        s = random_structure(rng, 5, self.MIXED, 0.4)
        twin = Structure(s.signature, s.size, s.rels)
        assert _links(s, s) is _links(s, s)
        assert _links(twin, twin) is not _links(s, s)
        assert _degree_descending(s) is _degree_descending(s)
        compared = Counter()

        def counting(name, original):
            def wrapper(*args):
                compared[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(Structure, "__eq__", counting("eq", Structure.__eq__))
        monkeypatch.setattr(Structure, "__hash__", counting("hash", Structure.__hash__))
        for structure in (s, twin):
            _links(structure, structure)
            _degree_descending(structure)
        assert not compared  # a lookup neither hashes nor compares structures

    def test_link_pairs_are_not_tracked_by_the_collector(self):
        # a large structure has millions of link pairs; pairs that held the
        # meet tables themselves would stay tracked, and every full
        # collection would walk them all
        s = random_structure(random.Random(96), 30, self.MIXED, 0.3)
        unary, loops, links = _links(s, s)[1:4]
        gc.collect()
        assert not any(gc.is_tracked(pair) for entry in links for pair in entry)
        assert not any(map(gc.is_tracked, loops + (unary,)))

    def test_tables_hold_no_reference_back(self):
        s = random_structure(random.Random(95), 4, self.MIXED, 0.5)
        _links(s, s), _degree_descending(s)
        gone = weakref.ref(s)
        _mask_tables.cache_clear()  # its keys are the only other references
        del s
        assert gone() is None  # freed by reference counting: no cycle through its tables

    def test_structure_with_kept_tables_pickles(self):
        s = random_structure(random.Random(97), 4, self.MIXED, 0.3)
        _links(s, s)
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and "_self_links" in copy.__dict__
        # the copy's meet tables are new objects and fill from their own masks
        assert [f.images for f in enumerate_she(copy)] == [f.images for f in enumerate_she(s)]
        assert any(len(meet) > 1 for meet in copy.__dict__["_self_links"][0])


def meet_by_bits(masks, full, m):
    """The meet of ``masks[y]`` over the bits y of m, one bit at a time."""
    value = full
    for y in range(m.bit_length()):
        if m >> y & 1:
            value &= masks[y]
    return value


def bit_loop_allowed(self, step, images):
    """``_ImageSearch.allowed`` as a loop over the bits of each linked
    image, reading the meet tables' masks only."""
    allowed = self.unary_masks[self.order[step]]
    for k, other in self.links[step]:
        for y in bits(images[other]):
            allowed &= self.meets[k].masks[y]
            if not allowed:
                return 0
    return allowed


def bit_loop_residual_ok(self, step, images):
    """``_ImageSearch.residual_ok`` with its loop check as a loop over the
    bits of the candidate."""
    cand = images[self.order[step]]
    for k in self.loops[step]:
        for y in bits(cand):
            if cand & ~self.meets[k].masks[y]:
                return False
    for name, t in self.general[step]:
        rel = self.target.relation(name)
        image_lists = [tuple(bits(images[a])) for a in t]
        for combo in itertools.product(*image_lists):
            if combo not in rel:
                return False
    return True


def preserves_by_products(f, structure):
    """Preservation straight from its definition: every tuple's image
    product lies inside its relation."""
    for name, tuples in structure.rels:
        for t in tuples:
            images = [tuple(bits(f.images[a])) for a in t]
            if not set(itertools.product(*images)) <= structure.relation(name):
                return False
    return True


class TestMeetTables:
    """The meet tables against the per-bit loops they replace."""

    UNARY_BINARY = Signature.make(("P", 1), ("E", 2))
    TERNARY = Signature.make(("R", 3))

    def test_meet_matches_per_bit_and(self):
        rng = random.Random(96)
        for n in (1, 2, 5, 9, 64, 1200):
            full = (1 << n) - 1
            masks = tuple(rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n))
            meet = _Meet(masks, full)
            if n <= 9:  # every mask, in an order that fills the memo unevenly
                probes = list(range(full + 1))
                rng.shuffle(probes)
            else:
                probes = [0, full] + [1 << rng.randrange(n) for _ in range(5)]
                probes += [rng.getrandbits(n) for _ in range(20)]
            for m in probes + probes[::-1]:  # the second pass reads the memo
                assert meet[m] == meet_by_bits(masks, full, m), (n, m)
        assert meet[0] == full

    def test_wide_mask_fills_without_recursion(self):
        # a lookup of a 1,200-bit mask fills 1,200 entries, more than the
        # interpreter's default recursion limit
        n = 1200
        full = (1 << n) - 1
        meet = _Meet(tuple(full ^ (1 << y) for y in range(n)), full)
        assert meet[full] == 0 and len(meet) == n + 1

    def corpus(self):
        rng = random.Random(97)
        structures = []
        for n in (1, 2, 3, 4, 4, 5):
            structures.append(random_structure(rng, n, GRAPH_SIGNATURE, 0.15))
            looped = random_structure(rng, n, GRAPH_SIGNATURE, 0.4)
            structures.append(Structure.make(GRAPH_SIGNATURE, n, {
                "E": set(looped.relation("E")) | {(a, a) for a in range(n) if rng.random() < 0.6}}))
            structures.append(random_structure(rng, n, self.UNARY_BINARY, 0.4))
            structures.append(random_structure(rng, n, self.TERNARY, 0.1 if n > 3 else 0.3))
        return structures

    def results(self, structures):
        out = []
        for s in structures:
            out.append([f.images for f in enumerate_she(s)])
            for e in range(s.size):
                for profile in ("A-shop", "E-shop"):
                    out.append(exists_shop(s, profile, e))
                for x in range(s.size):
                    out.append(exists_shop(s, "singletonUX", e, x))
            for S in itertools.chain.from_iterable(
                    itertools.combinations(range(s.size), k) for k in range(1, s.size + 1)):
                for profile in ("U-surjective", "X-total"):
                    out.append(exists_shop(s, profile, S))
                    out.append(shop_exists(s, profile, S))
            out.append(exists_shop(s, "UX", frozenset({0}), frozenset({s.size - 1})))
        # every fourth structure shares a signature: searches between two
        for source, target in zip(structures, structures[4:]):
            for kind in MORPHISM_KINDS:
                out.append(find_morphism(source, target, kind))
                out.append(find_morphism(target, source, kind))
        return out

    def test_engine_matches_bit_loops(self, monkeypatch):
        structures = self.corpus()
        fast = self.results(structures)
        monkeypatch.setattr(_ImageSearch, "allowed", bit_loop_allowed)
        monkeypatch.setattr(_ImageSearch, "residual_ok", bit_loop_residual_ok)
        slow = self.results(structures)
        assert fast == slow
        assert sum(len(r) for r in fast if isinstance(r, list)) > 1000
        assert sum(isinstance(r, HyperMap) for r in fast) > 100

    def test_preserves_matches_products(self):
        rng = random.Random(98)
        outcomes = Counter()
        for s in self.corpus():
            full = (1 << s.size) - 1
            for _ in range(30):
                f = HyperMap(s.size, s.size, tuple(rng.randint(0, full) for _ in range(s.size)))
                verdict = preserves(f, s)
                assert verdict == preserves_by_products(f, s), (s, f)
                outcomes[verdict] += 1
        assert min(outcomes.values()) > 50


class TestLazySingletons:
    def test_singletons_are_the_low_bits_in_order(self):
        rng = random.Random(99)
        for mask in [0, 1, 0b1011] + [rng.getrandbits(70) for _ in range(20)]:
            assert list(singletons(mask)) == [1 << b for b in bits(mask)]

    def test_a_shop_on_a_wide_one_edge_graph_is_fast(self):
        # every singleton step's first candidate succeeds; listing all
        # 3,000 candidates per step made this search take seconds
        script = (
            "import time\n"
            "from fomc import Structure, exists_shop\n"
            "from fomc.structures import GRAPH_SIGNATURE\n"
            "g = Structure.make(GRAPH_SIGNATURE, 3000, {'E': {(0, 1)}})\n"
            "start = time.perf_counter()\n"
            "w = exists_shop(g, 'A-shop', 2)\n"
            "print(time.perf_counter() - start)\n"
            "print(w.images[2] == (1 << 3000) - 1, w.images[0], w.images[1])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60)
        elapsed, witness = proc.stdout.splitlines()
        assert witness == "True 1 2"
        assert float(elapsed) < 2.0


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
