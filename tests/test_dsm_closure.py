"""DSM closure against a naive fixpoint, and the census pinned byte for byte.

``naive_dsm`` is the reference for ``generate_dsm``: starting from the
identity and the generators it composes every pair of members and adds every
sub-shop, until nothing new appears.  It makes no use of the monotonicity of
composition, which the fast closures rely on.

The census outputs (``export_lattice`` for n = 1..3, the shop sets of the
n = 3 nodes and the ``dsm-census --n 3 --json`` text) live in
``golden_census.json`` next to this file.  They were recorded with the
worklist closure that preceded the monoid-BFS one; regenerate them only when
a change of census output is intended:

    PYTHONPATH=src python tests/test_dsm_closure.py > tests/golden_census.json
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from fomc import all_shops, enumerate_dsms, export_lattice, generate_dsm
from fomc.cli import main
from fomc.shops import HyperMap, completion_generators, render_shop

GOLDEN = Path(__file__).with_name("golden_census.json")


def _unions(g: tuple) -> list:
    """``_unions(g)[m]`` is the union of the images of g over the elements
    of m, so g o f is ``tuple(_unions(g)[m] for m in f)``."""
    out = []
    for m in range(1 << len(g)):
        img = 0
        for a, ga in enumerate(g):
            if m >> a & 1:
                img |= ga
        out.append(img)
    return out


def _sub_shops(f: tuple):
    full = 0
    for m in f:
        full |= m
    choices = [[s for s in range(1, m + 1) if s & ~m == 0] for m in f]
    for combo in itertools.product(*choices):
        covered = 0
        for m in combo:
            covered |= m
        if covered == full:
            yield combo


def naive_dsm(generators, n: int) -> frozenset:
    """Identity plus generators, closed under composition and sub-shops.

    Semi-naive: each round composes, in both orders, only the pairs with a
    member added in the previous round.
    """
    members: set = set()
    fresh: set = set()
    for f in (tuple(1 << a for a in range(n)), *(g.images for g in generators)):
        fresh |= set(_sub_shops(f)) - members
        members |= fresh
    unions = {}
    while fresh:
        for f in fresh:
            unions[f] = _unions(f)
        new: set = set()
        for f in fresh:
            for g in members:
                for h in (tuple(unions[g][m] for m in f),
                          tuple(unions[f][m] for m in g)):
                    if h not in members and h not in new:
                        new |= set(_sub_shops(h)) - members
        members |= new
        fresh = new
    return frozenset(HyperMap(n, n, f) for f in members)


def test_generate_dsm_matches_naive_closure_at_three():
    rng = random.Random(307)
    shops = all_shops(3)
    checked = set()
    for index in range(30):
        gens = rng.sample(shops, rng.randint(1, 3))
        got = generate_dsm(gens, 3)
        assert got.as_set() == naive_dsm(gens, 3), index
        if got.as_set() not in checked:
            assert got.is_closed(), index
            checked.add(got.as_set())


@pytest.mark.parametrize("U, X", [
    ((0,), (1, 2, 3)), ((0, 1), (2, 3)), ((0, 1, 2), (3,)), ((1, 3), (0, 2)),
    ((0,), (1, 2, 3, 4)),
])
def test_generate_dsm_matches_naive_closure_on_completions(U, X):
    n = len(U) + len(X)
    gens = completion_generators(U, X)
    got = generate_dsm(gens, n)
    assert got.as_set() == naive_dsm(gens, n)
    assert got.is_closed()


def _census_outputs() -> dict:
    censuses = {n: enumerate_dsms(n) for n in (1, 2, 3)}
    out = {f"export_n{n}": export_lattice(nodes) for n, nodes in censuses.items()}
    shop_text = "\n".join(" ".join(render_shop(f) for f in node.dsm)
                          for node in censuses[3])
    out["shops_n3_sha256"] = hashlib.sha256(shop_text.encode()).hexdigest()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["dsm-census", "--n", "3", "--json"]) == 0
    out["census_n3_json"] = buf.getvalue()
    return out


def test_census_outputs_are_pinned():
    golden = json.loads(GOLDEN.read_text())
    got = _census_outputs()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    print(json.dumps(_census_outputs(), indent=1, sort_keys=True))
