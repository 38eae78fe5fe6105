"""Shared fixtures and helpers for the test suite."""

import itertools
import os
import random
from pathlib import Path

import pytest

from fomc import GadgetSpec, Signature, Structure, make_gadget
from fomc.gadgets import clique
from fomc.structures import GRAPH_SIGNATURE, disjoint_union


def random_structure(rng: random.Random, size: int,
                     signature: Signature = GRAPH_SIGNATURE,
                     density: float = 0.5) -> Structure:
    rels = {}
    for sym, arity in signature.symbols:
        rels[sym] = {t for t in itertools.product(range(size), repeat=arity)
                     if rng.random() < density}
    return Structure.make(signature, size, rels)


def all_binary_structures(size: int):
    """Every structure with one binary symbol on the given domain."""
    pairs = list(itertools.product(range(size), repeat=2))
    for selector in range(1 << len(pairs)):
        edges = {p for i, p in enumerate(pairs) if selector >> i & 1}
        yield Structure.make(GRAPH_SIGNATURE, size, {"E": edges})


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """The CLI tests start ``python -m fomc.cli`` as a process; put this
    checkout's src/ on its path, as pyproject.toml does for pytest itself."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(scope="session")
def k1():
    return clique(1)


@pytest.fixture(scope="session")
def k2():
    return clique(2)


@pytest.fixture(scope="session")
def k3():
    return clique(3)


@pytest.fixture(scope="session")
def k2_plus_k1(k2, k1):
    return disjoint_union(k2, k1)


@pytest.fixture(scope="session")
def loop_iso():
    """A self-loop plus an isolated vertex; the smallest L-case structure."""
    return Structure.make(GRAPH_SIGNATURE, 2, {"E": {(0, 0)}}, "loop_iso")


@pytest.fixture(scope="session")
def bnae():
    return make_gadget(GadgetSpec("BNAE"))


@pytest.fixture(scope="session")
def g22():
    return make_gadget(GadgetSpec("G", (2, 2, 0, 2)))


@pytest.fixture(scope="session")
def dhat22():
    return make_gadget(GadgetSpec("Dhat", (2, 2)))
