"""Census of the DSM lattice over small domains.

Closed sets are enumerated Next-Closure style over the DSM closure operator,
walking candidate supersets in lectic order, so the number of closure
computations stays proportional to the number of DSMs rather than the power
set of all shops.  Closures run over composition and sub-shop tables indexed
by the ground set, as bitmask searches.

Composition is monotone under pointwise containment: if f' <= f and g' <= g
then g' o f' <= g o f.  So the DSM generated by a set G of shops is the
down-closure of the monoid that composition alone generates from G, and the
maximal elements of G alone generate a monoid with the same down-closure.
A closure is therefore a search from the identity that composes with the
maximal elements only, folding in the sub-shops of each element it reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BudgetExceededError
from .shops import (DSM, HyperMap, bits, generate_dsm, identity_shop,
                    render_shop, sub_shops, union_table)

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
    return tuple(sub_shops(HyperMap(n, n, (full,) * n)))


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
    """Composition and down-closure tables over the full shop set.

    Ground shops are indexed in canonical order, in which a strict sub-shop
    always precedes its parent.
    """

    def __init__(self, n: int):
        self.n = n
        self.ground = all_shops(n)
        self.index = {f.images: i for i, f in enumerate(self.ground)}
        self.identity = self.index[identity_shop(n).images]
        self.rows: dict[int, _LazyRow] = {}
        self.sub = [0] * len(self.ground)
        for i, f in enumerate(self.ground):
            m = 0
            for s in sub_shops(f):
                m |= 1 << self.index[s.images]
            self.sub[i] = m

    def row(self, i: int) -> _LazyRow:
        """The composition-table row of ground[i]: ``row(i)[j]`` indexes
        ground[i] o ground[j].  Built on first use from the union table of
        ground[i], and filled entry by entry: a census search reads only a
        few entries of most rows, and a dense n = 4 table would need 20k
        rows of 41,503 entries each."""
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = _LazyRow(self, union_table(self.ground[i].images))
        return row

    def closure(self, mask: int, forbid: int = 0) -> int | None:
        """DSM closure of the indicated ground shops.

        By the monotonicity of composition the closure is the down-closure
        of the monoid generated by the maximal elements of ``mask``.  The
        search starts at the identity, folds the sub-shops ``sub[h]`` of
        each element h it reaches into the members, and composes h with
        every maximal element; an element already among the members lies
        below one that was reached before, so it is not expanded again.

        Aborts with None as soon as a shop indexed inside ``forbid`` would be
        added; lectic-order candidate rejection relies on this, and the
        sub-shop down-closure (whose members sort below their parent) makes
        most rejections immediate.
        """
        sub = self.sub
        rows = []
        while mask:  # the top index left is maximal: parents sort above
            top = mask.bit_length() - 1
            rows.append(self.row(top))
            mask &= ~sub[top]
        members = 0
        pending = [self.identity]
        while pending:
            h = pending.pop()
            if members >> h & 1:
                continue
            fresh = sub[h] & ~members
            if fresh & forbid:
                return None
            members |= fresh
            for row in rows:
                k = row[h]
                if not members >> k & 1:
                    pending.append(k)
        return members

    def to_dsm(self, mask: int) -> DSM:
        return DSM(self.n, tuple(self.ground[i] for i in bits(mask)))


class _LazyRow(dict):
    """A composition-table row whose entries are computed on first use."""

    def __init__(self, tables: _GroundTables, table: list[int]):
        super().__init__()
        self.tables = tables
        self.table = table

    def __missing__(self, j: int) -> int:
        table = self.table
        images = tuple(table[m] for m in self.tables.ground[j].images)
        got = self[j] = self.tables.index[images]
        return got


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

    masks = sorted(closed_sets, key=lambda m: (m.bit_count(), m))
    nodes: list[LatticeNode] = []
    for idx, mask in enumerate(masks):
        dsm = tables.to_dsm(mask)
        nodes.append(LatticeNode(idx, dsm, _minimal_generators(dsm),
                                 dsm_complexity_tag(dsm)))
    _attach_covers(nodes, masks)
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


def _attach_covers(nodes: list[LatticeNode], masks: list[int]) -> None:
    """Cover edges from the ground-set masks of the nodes, which are sorted
    by size.  Walking the strict subsets of a node from the largest down,
    a subset is covered by the node iff it lies below none of the covers
    already found."""
    for i, node in enumerate(nodes):
        top = masks[i]
        covers: list[int] = []
        for j in range(i - 1, -1, -1):
            m = masks[j]
            if m & ~top == 0 and all(m & ~masks[c] for c in covers):
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
