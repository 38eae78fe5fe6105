"""Census of the DSM lattice over small domains.

Closed sets are enumerated Next-Closure style over the DSM closure operator,
walking candidate supersets in lectic order, so the number of closure
computations stays proportional to the number of DSMs rather than the power
set of all shops.  Closures themselves run over precomputed composition and
sub-shop tables indexed by the ground set, as pure bitmask fixpoints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetExceededError
from .shops import (DSM, HyperMap, bits, compose, generate_dsm, identity_shop,
                    render_shop, sub_shops)

MAX_ALL_SHOPS = 5
MAX_CENSUS = 3


def all_shops(n: int, bound: int = MAX_ALL_SHOPS) -> tuple[HyperMap, ...]:
    """Every total surjective hyper-operation on n elements, canonical order.

    The count grows like (2^n - 1)^n; n = 5 is already about 25 million maps
    and takes a while, anything larger is refused.
    """
    if n > bound:
        raise BudgetExceededError(f"cannot materialise all shops on {n} elements")
    full = (1 << n) - 1
    out = []
    for images in itertools.product(range(1, full + 1), repeat=n):
        covered = 0
        for m in images:
            covered |= m
        if covered == full:
            out.append(HyperMap(n, n, images))
    return tuple(out)


def contains_a_shop(dsm: Iterable[HyperMap], n: int) -> bool:
    full = (1 << n) - 1
    return any(any(m == full for m in f.images) for f in dsm)


def contains_e_shop(dsm: Iterable[HyperMap], n: int) -> bool:
    for f in dsm:
        meet = (1 << n) - 1
        for m in f.images:
            meet &= m
        if meet:
            return True
    return False


def dsm_complexity_tag(dsm: DSM) -> str:
    """The four-way complexity tag, read at the monoid level."""
    a = contains_a_shop(dsm, dsm.size)
    e = contains_e_shop(dsm, dsm.size)
    if a and e:
        return "InL"
    if a:
        return "NPComplete"
    if e:
        return "CoNPComplete"
    return "PspaceComplete"


@dataclass
class LatticeNode:
    index: int
    dsm: DSM
    generators: tuple[HyperMap, ...]
    tag: str
    covers: tuple[int, ...] = ()  # indices of nodes covered by this one


class _GroundTables:
    """Composition and down-closure tables over the full shop set."""

    def __init__(self, n: int):
        self.n = n
        self.ground = all_shops(n)
        self.index = {f: i for i, f in enumerate(self.ground)}
        self.identity = self.index[identity_shop(n)]
        N = len(self.ground)
        # a dense table pays off up to n = 3; beyond that fall back to a
        # lazy cache so a forced n = 4 run is slow instead of impossible
        self.dense = N <= 512
        if self.dense:
            self.comp = [[self.index[compose(f, g)] for g in self.ground]
                         for f in self.ground]
        else:
            self.comp_cache: dict[tuple[int, int], int] = {}
        self.sub = [0] * N
        for i, f in enumerate(self.ground):
            m = 0
            for s in sub_shops(f):
                m |= 1 << self.index[s]
            self.sub[i] = m

    def comp_index(self, i: int, j: int) -> int:
        if self.dense:
            return self.comp[i][j]
        got = self.comp_cache.get((i, j))
        if got is None:
            got = self.index[compose(self.ground[i], self.ground[j])]
            self.comp_cache[(i, j)] = got
        return got

    def closure(self, mask: int, forbid: int = 0) -> int | None:
        """DSM closure of the indicated ground shops.

        Aborts with None as soon as a shop indexed inside ``forbid`` would be
        added; lectic-order candidate rejection relies on this, and the
        sub-shop down-closure (whose members sort below their parent) makes
        most rejections immediate.
        """
        members = 0
        order: list[int] = []
        pending: list[int] = []

        def add(i: int) -> bool:
            nonlocal members
            fresh = self.sub[i] & ~members
            if not fresh:
                return True
            if fresh & forbid:
                return False
            members |= fresh
            for b in bits(fresh):
                order.append(b)
                pending.append(b)
            return True

        if not add(self.identity):
            return None
        for i in bits(mask):
            if not add(i):
                return None
        while pending:
            i = pending.pop()
            row = self.comp[i] if self.dense else None
            k = 0
            while k < len(order):
                j = order[k]
                k += 1
                left = row[j] if row is not None else self.comp_index(i, j)
                if not members >> left & 1 and not add(left):
                    return None
                right = self.comp[j][i] if self.dense else self.comp_index(j, i)
                if not members >> right & 1 and not add(right):
                    return None
        return members

    def to_dsm(self, mask: int) -> DSM:
        return DSM(self.n, tuple(self.ground[i] for i in bits(mask)))


def enumerate_dsms(n: int, bound: int = MAX_CENSUS, force: bool = False) -> list[LatticeNode]:
    """All DSMs on n elements as lattice nodes with tags and cover edges."""
    if n > bound and not force:
        raise BudgetExceededError(f"census bound is {bound} elements")
    tables = _GroundTables(n)
    N = len(tables.ground)

    closed_sets: list[int] = []
    current = tables.closure(0)
    closed_sets.append(current)
    while True:
        nxt = _next_closure(current, N, tables.closure)
        if nxt is None:
            break
        closed_sets.append(nxt)
        current = nxt

    nodes: list[LatticeNode] = []
    for idx, mask in enumerate(sorted(closed_sets, key=lambda m: (m.bit_count(), m))):
        dsm = tables.to_dsm(mask)
        nodes.append(LatticeNode(idx, dsm, _minimal_generators(dsm),
                                 dsm_complexity_tag(dsm)))
    _attach_covers(nodes)
    return nodes


def _minimal_generators(dsm: DSM) -> tuple[HyperMap, ...]:
    """Greedy generating set: repeatedly add the largest missing shop.

    Greedy from maximal elements reproduces the one-generator descriptions of
    the small lattices; for the trivial monoid the identity itself is
    reported.
    """
    if len(dsm) == 1:
        return (identity_shop(dsm.size),)
    generators: list[HyperMap] = []
    closed = generate_dsm([], dsm.size)
    remaining = [f for f in dsm if f not in closed]
    while remaining:
        pick = max(remaining,
                   key=lambda f: (sum(m.bit_count() for m in f.images), f.images))
        generators.append(pick)
        closed = generate_dsm(generators, dsm.size)
        remaining = [f for f in dsm if f not in closed]
    return tuple(sorted(generators))


def _next_closure(current: int, N: int, closure) -> int | None:
    """Lectic successor of a closed set (ground elements ordered by index)."""
    for i in range(N - 1, -1, -1):
        bit = 1 << i
        if current & bit:
            current &= ~bit
        else:
            # accept iff closing in g_i adds nothing below i
            candidate = closure(current | bit, forbid=(bit - 1) & ~current)
            if candidate is not None:
                return candidate
    return None


def _attach_covers(nodes: list[LatticeNode]) -> None:
    sets = [frozenset(node.dsm.as_set()) for node in nodes]
    for i, node in enumerate(nodes):
        below = [j for j in range(len(nodes))
                 if j != i and sets[j] < sets[i]]
        covers = []
        for j in below:
            if not any(sets[j] < sets[k] < sets[i] for k in below):
                covers.append(j)
        node.covers = tuple(sorted(covers))


def export_lattice(nodes: list[LatticeNode]) -> str:
    """Plain-text node table plus cover edge list."""
    lines = ["# node-id  size  tag  generators"]
    for node in nodes:
        gens = " ".join(render_shop(g) for g in node.generators) or "-"
        lines.append(f"{node.index}\t{len(node.dsm)}\t{node.tag}\t{gens}")
    lines.append("# edges: <node-id> covers <node-id>")
    for node in nodes:
        for j in node.covers:
            lines.append(f"{node.index} covers {j}")
    return "\n".join(lines) + "\n"
