"""Census of the DSM lattice over small domains.

The census searches upward from the least DSM along upper covers.  Every
DSM M' strictly above a DSM M contains a shop g that is minimal among the
shops of M' outside M, and every strict sub-shop of such a *border* shop
already lies in M.  The closure of M with g lies inside M', so when M' is an
upper cover of M it is that closure.  The upper covers of M are therefore
the minimal closures of M with one border shop, and the search from the
least DSM reaches every DSM and every cover edge.  Closures run over
composition and sub-shop tables indexed by the ground set, as bitmask
searches.

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

from .classifier import pos_eqfree_class
from .errors import BudgetExceededError, FomcError
from .shops import (DSM, HyperMap, bits, identity_shop, render_shop, sub_shops,
                    union_table)

MAX_ALL_SHOPS = 5
MAX_CENSUS = 3


def all_shops(n: int) -> tuple[HyperMap, ...]:
    """Every total surjective hyper-operation on n elements, canonical order.

    The count grows like (2^n - 1)^n; n = 5 is already about 25 million maps
    and takes a while, anything larger is refused.
    """
    if n > MAX_ALL_SHOPS:
        raise BudgetExceededError(f"cannot materialise all shops on {n} elements")
    if n < 1:
        raise FomcError(f"domain size must be positive, got {n}")
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
    return pos_eqfree_class(contains_a_shop(dsm, dsm.size),
                            contains_e_shop(dsm, dsm.size))


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
    always precedes its parent.  ``sub[i]`` is the mask of the sub-shops of
    ground[i].  Dropping from some image of a shop f an element that a
    sub-shop g lacks leaves a shop between g and f, so the strict sub-shops
    of f are those of the shops one drop below it, and ``sub`` is filled in
    index order from the masks already built.
    """

    def __init__(self, n: int):
        self.n = n
        self.ground = all_shops(n)
        self.index = index = {f.images: i for i, f in enumerate(self.ground)}
        self.identity = self.index[identity_shop(n).images]
        self.rows: dict[int, _LazyRow] = {}
        self.sub = sub = []
        for i, f in enumerate(self.ground):
            images = f.images
            m = 1 << i
            for a, image in enumerate(images):
                for b in bits(image):
                    # a drop that leaves a non-shop is not in ``index``
                    j = index.get(images[:a] + (image ^ 1 << b,) + images[a + 1:])
                    if j is not None:
                        m |= sub[j]
            sub.append(m)

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

    def closure(self, mask: int) -> int:
        """DSM closure of the indicated ground shops.

        By the monotonicity of composition the closure is the down-closure
        of the monoid generated by the maximal elements of ``mask``.  The
        search starts at the identity, folds the sub-shops ``sub[h]`` of
        each element h it reaches into the members, and composes h with
        every maximal element; an element already among the members lies
        below one that was reached before, so it is not expanded again.
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
            members |= sub[h]
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


def enumerate_dsms(n: int, force: bool = False) -> list[LatticeNode]:
    """All DSMs on n elements as lattice nodes with tags and cover edges,
    found by the upward search over upper covers (see the module doc)."""
    if n > MAX_CENSUS and not force:
        raise BudgetExceededError(f"census bound is {MAX_CENSUS} elements")
    tables = _GroundTables(n)
    sub = tables.sub
    full = (1 << len(tables.ground)) - 1
    bottom = tables.closure(0)
    lower: dict[int, list[int]] = {bottom: []}  # each DSM's lower covers
    queue = [bottom]
    for low in queue:
        ups = {tables.closure(low | 1 << g) for g in bits(full & ~low)
               if sub[g] & ~low == 1 << g}
        for up in ups:
            if any(other != up and other & ~up == 0 for other in ups):
                continue
            if up not in lower:
                lower[up] = []
                queue.append(up)
            lower[up].append(low)

    masks = sorted(lower, key=lambda m: (m.bit_count(), m))
    position = {mask: i for i, mask in enumerate(masks)}
    nodes: list[LatticeNode] = []
    for idx, mask in enumerate(masks):
        dsm = tables.to_dsm(mask)
        nodes.append(LatticeNode(idx, dsm, _minimal_generators(tables, mask),
                                 dsm_complexity_tag(dsm),
                                 tuple(sorted(position[m] for m in lower[mask]))))
    return nodes


def _minimal_generators(tables: _GroundTables, mask: int) -> tuple[HyperMap, ...]:
    """Greedy generating set: repeatedly add the largest missing shop.

    Greedy from maximal elements reproduces the one-generator descriptions of
    the small lattices; for the trivial monoid the identity itself is
    reported.
    """
    ground = tables.ground
    closed = tables.closure(0)
    if mask == closed:
        return (identity_shop(tables.n),)
    generators: list[HyperMap] = []
    while mask & ~closed:
        pick = max(bits(mask & ~closed),
                   key=lambda i: (sum(m.bit_count() for m in ground[i].images),
                                  ground[i].images))
        generators.append(ground[pick])
        closed = tables.closure(closed | 1 << pick)
    return tuple(sorted(generators))


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
