"""Golden witnesses: the exact ``classify_pos_eqfree`` verdict JSON,
``ux_core`` output, multi-element U-surjective / X-total witnesses,
``classical_core`` retractions, ``find_morphism`` witnesses of every kind and
``are_isomorphic`` witnesses on seeded structures.

The searches skip candidates that provably cannot lead to a witness.
Skipping must never change which witness is found first, so these tests pin
every byte of the evidence as the unpruned search produced it.  The expected
strings live in ``golden_witnesses.json`` next to this file; regenerate them
only when a change of witness order is intended:

    PYTHONPATH=src python tests/test_witness_golden.py > tests/golden_witnesses.json
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from fomc import (are_isomorphic, classical_core, classify_pos_eqfree,
                  exists_shop, find_morphism, meta_reduction, render_shop,
                  render_structure, ux_core)
from fomc.structures import (GRAPH_SIGNATURE, MORPHISM_KINDS, Signature,
                             Structure)

GOLDEN = Path(__file__).with_name("golden_witnesses.json")


def _digraph(rng: random.Random, n: int, p: float, name: str = "") -> Structure:
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < p}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges}, name)


def _symmetric(rng: random.Random, n: int, p: float, name: str) -> Structure:
    edges = set()
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges |= {(a, b), (b, a)}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges}, name)


def _ternary(rng: random.Random, n: int, p: float) -> Structure:
    tuples = {t for t in itertools.product(range(n), repeat=3) if rng.random() < p}
    return Structure.make(Signature.make(("R", 3)), n, {"R": tuples})


def _planted_l(rng: random.Random, n: int, p: float) -> Structure:
    """An isolated u and a looped x: u -> D, everything else -> {x} preserves."""
    u, x = rng.sample(range(n), 2)
    base = _digraph(rng, n, p).relation("E")
    edges = {(a, b) for a, b in base if u not in (a, b)} | {(x, x)}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges})


def classify_cases() -> list[tuple[str, Structure]]:
    rng = random.Random(20121025)
    cases = []
    for n in range(4, 13):
        for p in (0.15, 0.85):
            cases.append((f"dg{n}-p{p}", _digraph(rng, n, p)))
    cycle5 = Structure.make(GRAPH_SIGNATURE, 5, {"E": {
        (a, (a + 1) % 5) for a in range(5)} | {((a + 1) % 5, a) for a in range(5)}}, "C5")
    k4 = Structure.make(GRAPH_SIGNATURE, 4, {"E": {
        (a, b) for a in range(4) for b in range(4) if a != b}}, "K4")
    for graph in (cycle5, k4, _symmetric(rng, 5, 0.6, "R5")):
        reduced = meta_reduction(graph)
        cases.append((f"meta-{graph.name}", reduced))
        cases.append((f"cometa-{graph.name}", reduced.complement()))
    for i, p in enumerate((0.3, 0.5, 0.7)):
        cases.append((f"tern5-{i}", _ternary(rng, 5, p)))
    for n in (6, 8, 10):
        cases.append((f"planted{n}", _planted_l(rng, n, 0.4)))
    return cases


def ux_cases() -> list[tuple[str, Structure]]:
    rng = random.Random(1210)
    return [(f"ux{n}-{i}", _digraph(rng, n, p))
            for n in (3, 4, 5) for i, p in enumerate((0.3, 0.5, 0.7))]


def shop_cases() -> list[tuple[str, Structure]]:
    rng = random.Random(6893)
    return ux_cases() + [(f"sh6-{i}", _digraph(rng, 6, p))
                         for i, p in enumerate((0.15, 0.3, 0.6))]


MIXED_SIGNATURE = Signature.make(("P", 1), ("E", 2), ("R", 3))


def _random(rng: random.Random, signature: Signature, n: int, p: float) -> Structure:
    return Structure.make(signature, n, {
        sym: {t for t in itertools.product(range(n), repeat=arity) if rng.random() < p}
        for sym, arity in signature.symbols})


def classical_cases() -> list[tuple[str, Structure]]:
    """Random symmetric graphs at n = 7, 8 and p = 0.4, as in the benchmark's
    classical-core kind, plus digraphs and a mixed signature."""
    rng = random.Random(7108)
    cases = [(f"sym{n}-{i}", _symmetric(rng, n, 0.4, ""))
             for n in (7, 8) for i in range(3)]
    cases += [(f"dg{n}", _digraph(rng, n, 0.3)) for n in (4, 5, 6)]
    cases.append(("mixed4", _random(rng, MIXED_SIGNATURE, 4, 0.3)))
    return cases


def morphism_cases() -> list[tuple[str, Structure, Structure]]:
    """Seeded source/target pairs at n <= 4 over a graph signature and over
    one with a unary, a binary and a ternary symbol; sparse sources and
    dense targets, so that every kind has hits and misses."""
    rng = random.Random(4141)
    cases = []
    for signature, tag in ((GRAPH_SIGNATURE, "g"), (MIXED_SIGNATURE, "m")):
        for i in range(20):
            a = _random(rng, signature, rng.randint(1, 4), rng.choice((0.1, 0.3, 0.5)))
            b = _random(rng, signature, rng.randint(1, 4), rng.choice((0.5, 0.7, 0.9)))
            cases.append((f"{tag}{i}", a, b))
        for i in range(5):  # pullbacks along a surjection: full kinds hit
            b = _random(rng, signature, rng.randint(1, 3), 0.5)
            h = list(range(b.size)) + [rng.randrange(b.size)
                                       for _ in range(rng.randint(0, 4 - b.size))]
            rng.shuffle(h)
            a = Structure.make(signature, len(h), {
                sym: {t for t in itertools.product(range(len(h)), repeat=arity)
                      if tuple(h[e] for e in t) in b.relation(sym)}
                for sym, arity in signature.symbols})
            cases.append((f"{tag}pull{i}", a, b))
            cases.append((f"{tag}pull{i}-rev", b, a))
    return cases


def iso_cases() -> list[tuple[str, Structure, Structure]]:
    """Relabelled copies (isomorphic) and same-size random partners, plus
    the 6-cycle against two triangles (same degrees, not isomorphic)."""
    rng = random.Random(2718)
    cases = []
    for signature, tag in ((GRAPH_SIGNATURE, "g"), (MIXED_SIGNATURE, "m")):
        for i in range(8):
            n = rng.randint(1, 5)
            a = _random(rng, signature, n, 0.4)
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append((f"{tag}{i}-relabel", a, a.relabel(perm)))
            cases.append((f"{tag}{i}-random", a, _random(rng, signature, n, 0.4)))
    cycle6 = Structure.make(GRAPH_SIGNATURE, 6, {"E": _both_ways(
        (a, (a + 1) % 6) for a in range(6))})
    triangles = Structure.make(GRAPH_SIGNATURE, 6, {"E": _both_ways(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])})
    cases.append(("c6-2c3", cycle6, triangles))
    cases.append(("c6-c6", cycle6, cycle6.relabel([3, 1, 5, 0, 2, 4])))
    return cases


def _both_ways(pairs) -> set:
    return {e for a, b in pairs for e in ((a, b), (b, a))}


def classify_text(structure: Structure) -> str:
    return json.dumps(classify_pos_eqfree(structure).to_json())


def ux_text(structure: Structure) -> str:
    result = ux_core(structure)
    return json.dumps({"U": list(result.U), "X": list(result.X),
                       "coreU": list(result.core_U), "coreX": list(result.core_X),
                       "canonical": render_shop(result.canonical),
                       "core": render_structure(result.core)})


def shops_text(structure: Structure) -> str:
    """First witness (or None) for every U and X of size 2 and 3."""
    rows = []
    for size in (2, 3):
        for elems in itertools.combinations(range(structure.size), size):
            for profile in ("U-surjective", "X-total"):
                witness = exists_shop(structure, profile, frozenset(elems))
                rows.append([profile, list(elems),
                             render_shop(witness) if witness else None])
    return json.dumps(rows)


def classical_text(structure: Structure) -> str:
    core, retraction = classical_core(structure)
    return json.dumps({"size": core.size, "retraction": list(retraction),
                       "core": render_structure(core)})


def morphism_text(source: Structure, target: Structure) -> str:
    """First witness (or None) of every morphism kind."""
    rows = {}
    for kind in MORPHISM_KINDS:
        witness = find_morphism(source, target, kind)
        if witness is not None:
            witness = render_shop(witness) if kind == "surjectiveHyper" else list(witness)
        rows[kind] = witness
    return json.dumps(rows)


def iso_text(left: Structure, right: Structure) -> str:
    found, witness = are_isomorphic(left, right, want_witness=True)
    return json.dumps([found, list(witness) if witness is not None else None])


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,structure", classify_cases(),
                         ids=[name for name, _ in classify_cases()])
def test_classify_evidence_is_unchanged(name, structure):
    assert classify_text(structure) == golden()["classify"][name]


@pytest.mark.parametrize("name,structure", ux_cases(),
                         ids=[name for name, _ in ux_cases()])
def test_ux_core_is_unchanged(name, structure):
    assert ux_text(structure) == golden()["ux_core"][name]


@pytest.mark.parametrize("name,structure", shop_cases(),
                         ids=[name for name, _ in shop_cases()])
def test_multi_element_witnesses_are_unchanged(name, structure):
    assert shops_text(structure) == golden()["shops"][name]


@pytest.mark.parametrize("name,structure", classical_cases(),
                         ids=[name for name, _ in classical_cases()])
def test_classical_core_is_unchanged(name, structure):
    assert classical_text(structure) == golden()["classical"][name]


@pytest.mark.parametrize("name,source,target", morphism_cases(),
                         ids=[name for name, _, _ in morphism_cases()])
def test_morphism_witnesses_are_unchanged(name, source, target):
    assert morphism_text(source, target) == golden()["morphisms"][name]


@pytest.mark.parametrize("name,left,right", iso_cases(),
                         ids=[name for name, _, _ in iso_cases()])
def test_isomorphism_witnesses_are_unchanged(name, left, right):
    assert iso_text(left, right) == golden()["isomorphism"][name]


def test_golden_covers_every_verdict_class():
    labels = {json.loads(text)["class"] for text in golden()["classify"].values()}
    assert labels == {"L", "NP-complete", "coNP-complete", "Pspace-complete"}


if __name__ == "__main__":
    print(json.dumps({
        "classify": {name: classify_text(s) for name, s in classify_cases()},
        "ux_core": {name: ux_text(s) for name, s in ux_cases()},
        "shops": {name: shops_text(s) for name, s in shop_cases()},
        "classical": {name: classical_text(s) for name, s in classical_cases()},
        "morphisms": {name: morphism_text(a, b) for name, a, b in morphism_cases()},
        "isomorphism": {name: iso_text(a, b) for name, a, b in iso_cases()},
    }, indent=1))
