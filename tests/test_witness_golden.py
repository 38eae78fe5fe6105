"""Golden witnesses: the exact ``classify_pos_eqfree`` verdict JSON,
``ux_core`` output and multi-element U-surjective / X-total witnesses on
seeded structures.

The shop searches skip candidates that provably cannot lead to a witness.
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

from fomc import (classify_pos_eqfree, exists_shop, meta_reduction,
                  render_shop, render_structure, ux_core)
from fomc.structures import GRAPH_SIGNATURE, Signature, Structure

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


def test_golden_covers_every_verdict_class():
    labels = {json.loads(text)["class"] for text in golden()["classify"].values()}
    assert labels == {"L", "NP-complete", "coNP-complete", "Pspace-complete"}


if __name__ == "__main__":
    print(json.dumps({
        "classify": {name: classify_text(s) for name, s in classify_cases()},
        "ux_core": {name: ux_text(s) for name, s in ux_cases()},
        "shops": {name: shops_text(s) for name, s in shop_cases()},
    }, indent=1))
