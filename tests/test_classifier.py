import json
import random
from collections import Counter

import pytest

from fomc import (FomcError, Structure, all_shops, boolean_schaefer, classify_fragment,
                  classify_pos_eqfree, preserves, ux_core)
from fomc.classifier import FRAGMENT_KEYS, Verdict, find_a_shop, find_e_shop
from fomc.gadgets import clique
from fomc.shops import HyperMap, exists_shop, parse_shop, render_shop
from fomc.structures import GRAPH_SIGNATURE, Signature

from conftest import all_binary_structures, random_structure


class TestFourWayClassification:
    def test_golden_verdicts(self, k1, k2, k3, k2_plus_k1, loop_iso, g22, dhat22):
        assert classify_pos_eqfree(k1).klass == "InL"
        assert classify_pos_eqfree(k2).klass == "PspaceComplete"
        assert classify_pos_eqfree(k3).klass == "PspaceComplete"
        assert classify_pos_eqfree(k2_plus_k1).klass == "NPComplete"
        assert classify_pos_eqfree(k2_plus_k1.complement()).klass == "CoNPComplete"
        assert classify_pos_eqfree(loop_iso).klass == "InL"
        assert classify_pos_eqfree(g22).klass == "PspaceComplete"
        assert classify_pos_eqfree(dhat22).klass == "PspaceComplete"

    def test_witness_shops_verify(self, k2_plus_k1, loop_iso):
        v = classify_pos_eqfree(k2_plus_k1)
        witness = parse_shop(v.evidence["aShop"])
        assert preserves(witness, k2_plus_k1)
        assert witness.images[v.evidence["aElement"]] == 0b111
        v2 = classify_pos_eqfree(loop_iso)
        assert preserves(parse_shop(v2.evidence["uxShop"]), loop_iso)

    def test_duality_swaps_np_and_conp(self):
        swap = {"NPComplete": "CoNPComplete", "CoNPComplete": "NPComplete",
                "InL": "InL", "PspaceComplete": "PspaceComplete"}
        for s in all_binary_structures(2):
            left = classify_pos_eqfree(s).klass
            right = classify_pos_eqfree(s.complement()).klass
            assert right == swap[left]

    def test_consistent_with_ux_core_sizes_exhaustive_n2(self):
        for s in all_binary_structures(2):
            self._check_table_two(s)

    def test_consistent_with_ux_core_sizes_sampled_n3(self):
        rng = random.Random(81)
        for _ in range(40):
            self._check_table_two(random_structure(rng, 3))

    @staticmethod
    def _check_table_two(s):
        verdict = classify_pos_eqfree(s).klass
        core = ux_core(s)
        u, x = len(core.U), len(core.X)
        if u == 1 and x == 1:
            expected = "InL"
        elif u == 1:
            expected = "NPComplete"
        elif x == 1:
            expected = "CoNPComplete"
        else:
            expected = "PspaceComplete"
        assert verdict == expected


def sweep_classify(structure):
    """Oracle for ``classify_pos_eqfree``: every {u}-{x} candidate in (u, x)
    order decides L, and only then are the A- and E-shop searches run."""
    n = structure.size
    for u in range(n):
        for x in range(n):
            witness = exists_shop(structure, "singletonUX", u, x)
            if witness is not None:
                return Verdict("InL", {"uxShop": render_shop(witness), "u": u, "x": x})
    a_hit = find_a_shop(structure)
    e_hit = find_e_shop(structure)
    evidence = {
        "aShop": render_shop(a_hit[1]) if a_hit else None,
        "aElement": a_hit[0] if a_hit else None,
        "eShop": render_shop(e_hit[1]) if e_hit else None,
        "eElement": e_hit[0] if e_hit else None,
        "singletonSweep": "exhausted",
    }
    if a_hit:
        evidence["eSweep"] = "exhausted"
        return Verdict("NPComplete", evidence)
    if e_hit:
        evidence["aSweep"] = "exhausted"
        return Verdict("CoNPComplete", evidence)
    evidence["aSweep"] = evidence["eSweep"] = "exhausted"
    return Verdict("PspaceComplete", evidence)


class TestSweepOracle:
    SIGNATURES = (
        (GRAPH_SIGNATURE, range(1, 7)),
        (Signature.make(("P", 1), ("E", 2)), range(1, 7)),
        (Signature.make(("R", 3)), range(1, 5)),
    )

    def test_matches_singleton_sweep(self):
        rng = random.Random(1401)
        labels = Counter()
        for signature, sizes in self.SIGNATURES:
            for n in sizes:
                for density in (0.1, 0.3, 0.5, 0.7, 0.9):
                    for _ in range(40):
                        s = random_structure(rng, n, signature, density)
                        got = json.dumps(classify_pos_eqfree(s).to_json())
                        expected = sweep_classify(s)
                        assert got == json.dumps(expected.to_json()), s
                        labels[expected.klass] += 1
        assert sum(labels.values()) >= 3000
        assert set(labels) == {"InL", "NPComplete", "CoNPComplete", "PspaceComplete"}

    def test_singleton_candidate_lemma(self):
        # the {u}-{x} candidate preserves iff u has an A-shop and x an E-shop,
        # by brute force over every shop
        for n in (1, 2, 3):
            full = (1 << n) - 1
            shops = all_shops(n)
            for s in all_binary_structures(n):
                preserving = [f for f in shops if preserves(f, s)]
                a = {u for u in range(n)
                     if any(f.images[u] == full for f in preserving)}
                e = {x for x in range(n)
                     if any(all(m >> x & 1 for m in f.images) for f in preserving)}
                for u in range(n):
                    for x in range(n):
                        candidate = HyperMap(n, n, tuple(
                            full if z == u else 1 << x for z in range(n)))
                        assert preserves(candidate, s) == (u in a and x in e), (s, u, x)


class TestSchaefer:
    def test_nae_fails_everything(self, bnae):
        classes, verdict = boolean_schaefer(bnae, quantified=False)
        assert classes == []
        assert verdict.klass == "NPComplete"
        _, qverdict = boolean_schaefer(bnae, quantified=True)
        assert qverdict.klass == "PspaceComplete"

    def test_disequality_exactly_bijunctive_affine(self, k2):
        classes, verdict = boolean_schaefer(k2, quantified=False)
        assert set(classes) == {"bijunctive", "affine"}
        assert verdict.klass == "InP"

    def test_horn_and_zero_valid_example(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0), (0, 1), (1, 0)}})
        classes, verdict = boolean_schaefer(s, quantified=False)
        assert "Horn" in classes and "0-valid" in classes
        assert "dual-Horn" not in classes and "1-valid" not in classes
        assert "affine" not in classes
        assert verdict.klass == "InP"

    def test_empty_relations_vacuous(self):
        s = Structure.make(GRAPH_SIGNATURE, 2, {"E": set()})
        classes, verdict = boolean_schaefer(s, quantified=True)
        assert len(classes) == 6 and verdict.klass == "InP"

    def test_domain_guard(self, k3):
        with pytest.raises(FomcError):
            boolean_schaefer(k3, quantified=False)


class TestFragmentTable:
    def test_bnae_csp_and_qcsp(self, bnae):
        assert classify_fragment(bnae, "pp").klass == "NPComplete"
        assert classify_fragment(bnae, "qcsp").klass == "PspaceComplete"

    def test_disequality_with_neq_fragment(self, k2):
        assert classify_fragment(k2, "pp-neq").klass == "InP"
        assert classify_fragment(k2, "qcsp-neq").klass == "InP"

    def test_neq_fragments_hard_beyond_boolean(self, k3):
        assert classify_fragment(k3, "pp-neq").klass == "NPComplete"
        assert classify_fragment(k3, "qcsp-neq").klass == "PspaceComplete"

    def test_open_rows(self, k3):
        v = classify_fragment(k3, "pp")
        assert v.klass == "Open"
        assert v.evidence["openTag"] == "cspDichotomyConjecture"
        v = classify_fragment(k3, "qcsp-eq")
        assert v.klass == "Open"
        assert v.evidence["openTag"] == "qcspClassification"

    def test_disjunctive_rows_use_core_size(self, k2_plus_k1, k2):
        looped = Structure.make(GRAPH_SIGNATURE, 3,
                                {"E": {(0, 0), (0, 1), (1, 0)}})
        assert classify_fragment(looped, "pp-disj").klass == "InL"
        assert classify_fragment(k2, "pp-disj").klass == "NPComplete"
        assert classify_fragment(k2_plus_k1, "pp-disj-eq").klass == "NPComplete"

    def test_disj_neq_row(self, k1, k2):
        assert classify_fragment(k1, "pp-disj-neq").klass == "InL"
        assert classify_fragment(k2, "pp-disj-neq").klass == "NPComplete"

    def test_eqfree_neg_row(self, k2):
        trivial = Structure.make(GRAPH_SIGNATURE, 3,
                                 {"E": {(a, b) for a in range(3) for b in range(3)}})
        assert classify_fragment(trivial, "eqfree-neg").klass == "InL"
        assert classify_fragment(k2, "eqfree-neg").klass == "PspaceComplete"

    def test_positive_fo_rows(self, k1, k2):
        for key in ("pos-fo-eq", "pos-fo-neq", "fo"):
            assert classify_fragment(k1, key).klass == "InL"
            assert classify_fragment(k2, key).klass == "PspaceComplete"

    def test_fo_agrees_with_pos_fo_neq(self):
        rng = random.Random(82)
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 4))
            assert classify_fragment(s, "fo").klass == \
                classify_fragment(s, "pos-fo-neq").klass

    def test_one_element_rows(self, k1):
        for key in FRAGMENT_KEYS:
            verdict = classify_fragment(k1, key)
            assert verdict.klass == "InL", key

    def test_dual_keys(self, k2_plus_k1):
        # dual fragment classified on the complement, co-classed back
        direct = classify_fragment(k2_plus_k1.complement(), "pos-eqfree")
        dual = classify_fragment(k2_plus_k1, "dual:pos-eqfree")
        assert direct.klass == "CoNPComplete"
        assert dual.klass == "NPComplete"
        assert classify_fragment(k2_plus_k1, "dual:pp-disj").klass in (
            "InL", "CoNPComplete")

    def test_unknown_key(self, k2):
        with pytest.raises(FomcError):
            classify_fragment(k2, "nonsense")

    def test_verdict_json_shape(self, k2_plus_k1):
        payload = classify_fragment(k2_plus_k1, "pos-eqfree").to_json()
        assert payload["class"] == "NP-complete"
        assert payload["fragment"] == "pos-eqfree"
        assert isinstance(payload["evidence"], dict)
