"""Hyper-operation algebra.

A hyper-operation maps each source element to a *set* of target elements;
image sets are stored as bitmasks over the target domain so that product
containment checks and compositions are cheap integer operations.  A shop is
a total surjective hyper-operation from a domain to itself.  This module
implements composition, inversion, sub-shop tests, preservation against a
relational structure, exhaustive and profile-directed searches for preserving
shops, DSM closure, the canonical identity-form shop, the 3-permuted form and
its completion.  Its backtracker, ``_ImageSearch``, also runs every morphism
and isomorphism search of ``structures``.  The search tables of a
structure into itself are built once, by ``_links``, kept on the structure
object and shared by every search on it; each binary symbol of the
target contributes two memoised meet tables (``_Meet``, kept by
``_mask_tables``), so a search node folds a linked image into its allowed
mask with one lookup.  The engine yields its hits in search order:
``enumerate_she`` reads them all, every other search takes the first.  Every
profile but singletonUX and UX is one run of ``_one_sided``: ``exists_shop``
returns its first witness in a fixed order; ``shop_exists`` only decides
whether a U-surjective or X-total shop exists, by the engine's existence
mode, which tries far fewer images.  Every shop search demands surjectivity
by the engine's ``surjective`` rule, which with subset images cuts a branch
once its images can no longer cover the domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, FomcError, ParseError

if TYPE_CHECKING:  # pragma: no cover
    from .structures import Structure


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def singletons(mask: int) -> Iterator[int]:
    """Yield the singleton submasks of ``mask``, lowest first; lazy, so a
    caller that stops at the first pays for that one alone."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True, order=True)
class HyperMap:
    """Total-by-default hyper-operation between two finite domains.

    ``images[a]`` is the bitmask of the image set of element ``a``.  Empty
    images are allowed (partial hyper-operations); ``is_total`` and
    ``is_surjective`` test the shop conditions.  Ordering is lexicographic
    over ``(source_size, target_size, images)``, which is the canonical order
    used everywhere a deterministic listing of shops is needed.
    """

    source_size: int
    target_size: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source_size:
            raise FomcError("image count does not match source size")
        full = (1 << self.target_size) - 1
        for m in self.images:
            if m & ~full:
                raise FomcError("image mask out of target range")

    @staticmethod
    def from_sets(source_size: int, target_size: int,
                  images: Sequence[Iterable[int]]) -> "HyperMap":
        return HyperMap(source_size, target_size,
                        tuple(mask_of(s) for s in images))

    def image(self, element: int) -> frozenset[int]:
        return set_of(self.images[element])

    def image_of_set(self, mask: int) -> int:
        out = 0
        for a in bits(mask):
            out |= self.images[a]
        return out

    @property
    def is_total(self) -> bool:
        return all(m != 0 for m in self.images)

    @property
    def is_surjective(self) -> bool:
        covered = 0
        for m in self.images:
            covered |= m
        return covered == (1 << self.target_size) - 1

    @property
    def is_shop(self) -> bool:
        return (self.source_size == self.target_size
                and self.is_total and self.is_surjective)

    def __str__(self) -> str:
        return render_shop(self)


def identity_shop(n: int) -> HyperMap:
    return HyperMap(n, n, tuple(1 << a for a in range(n)))


def shop_from_sets(images: Sequence[Iterable[int]]) -> HyperMap:
    """Build a shop on ``len(images)`` elements, validating the shop laws."""
    n = len(images)
    f = HyperMap.from_sets(n, n, images)
    if not f.is_shop:
        raise FomcError(f"not a shop (total={f.is_total}, surjective={f.is_surjective})")
    return f


def compose(g: HyperMap, f: HyperMap) -> HyperMap:
    """(g o f)(x) is the union of g over the image f(x)."""
    if f.target_size != g.source_size:
        raise FomcError("composition size mismatch")
    return HyperMap(f.source_size, g.target_size,
                    tuple(g.image_of_set(m) for m in f.images))


def inverse(f: HyperMap) -> HyperMap:
    """b in f(a) iff a in inverse(f)(b); involutive, antihomomorphic."""
    inv = [0] * f.target_size
    for a, m in enumerate(f.images):
        for b in bits(m):
            inv[b] |= 1 << a
    return HyperMap(f.target_size, f.source_size, tuple(inv))


def is_sub_shop(f: HyperMap, g: HyperMap) -> bool:
    """Pointwise image containment f(x) subseteq g(x)."""
    if (f.source_size, f.target_size) != (g.source_size, g.target_size):
        raise FomcError("sub-shop size mismatch")
    return all(fm & ~gm == 0 for fm, gm in zip(f.images, g.images))


def sub_shops(f: HyperMap) -> Iterator[HyperMap]:
    """All shops that are pointwise-subsets of ``f`` (including ``f``)."""
    for images in _sub_images(f.images, (1 << f.target_size) - 1):
        yield HyperMap(f.source_size, f.target_size, images)


def _sub_images(images: tuple[int, ...], full: int) -> Iterator[tuple[int, ...]]:
    """Image tuples of the total pointwise-subsets of ``images`` whose
    images cover ``full``."""
    for combo in itertools.product(*map(submasks, images)):
        covered = 0
        for m in combo:
            covered |= m
        if covered == full:
            yield combo


def union_table(images: tuple[int, ...]) -> list[int]:
    """``table[m]`` is the union of ``images[a]`` over the elements a of m.

    With ``table`` built from g, the composition g o f is
    ``tuple(table[m] for m in f.images)``: one lookup per element.
    """
    table = [0] * (1 << len(images))
    for m in range(1, len(table)):
        low = m & -m
        table[m] = table[m ^ low] | images[low.bit_length() - 1]
    return table


def submasks(mask: int, base: int = 0) -> Iterator[int]:
    """Yield ``base | s`` for every submask ``s`` of ``mask`` in ascending
    order, skipping 0; ``base`` must be disjoint from ``mask``.

    With ``base = 0`` these are the nonempty submasks of ``mask``.  The walk
    is lazy, so a caller that stops early never pays for all 2^|mask| of them.
    """
    sub = 0
    while True:
        if sub | base:
            yield sub | base
        sub = (sub - mask) & mask
        if not sub:
            return


# -- preservation ------------------------------------------------------------

class _Meet(dict):
    """``meet[m]``: the AND of ``masks[y]`` over the elements y of the mask
    ``m``, filled on first lookup and kept; ``meet[0]`` is the full mask.

    For a binary symbol's out-masks, ``meet[f(a)]`` is the set of targets b
    with (y, b) in the relation for every y in f(a), so one lookup replaces a
    loop over the bits of f(a).
    """

    __slots__ = ("masks",)

    def __init__(self, masks: tuple[int, ...], full: int):
        super().__init__({0: full})
        self.masks = masks

    def __missing__(self, mask: int) -> int:
        # strip low bits down to a known submask, then fill back up: a loop,
        # so a wide mask does not meet the recursion limit
        chain = []
        known = mask
        while known not in self:
            chain.append(known)
            known &= known - 1
        value = self[known]
        masks = self.masks
        for m in reversed(chain):
            value &= masks[(m & -m).bit_length() - 1]
            self[m] = value
        return value


@lru_cache(maxsize=512)
def _mask_tables(structure: "Structure"):
    """Per-symbol adjacency tables: unary membership masks and, for binary
    symbols, the meet tables (``_Meet``) of the out- and in-neighbourhood
    masks per element."""
    tables = {}
    n = structure.size
    full = (1 << n) - 1
    for name, tuples in structure.rels:
        arity = structure.signature.arity(name)
        if arity == 1:
            tables[name] = ("unary", mask_of(t[0] for t in tuples))
        elif arity == 2:
            out = [0] * n
            inc = [0] * n
            for a, b in tuples:
                out[a] |= 1 << b
                inc[b] |= 1 << a
            tables[name] = ("binary", _Meet(tuple(out), full), _Meet(tuple(inc), full))
        else:
            tables[name] = ("general", tuples)
    return tables


def preserves(f: HyperMap, structure: "Structure") -> bool:
    """True iff every tuple's image product stays inside its relation.

    For each symbol R and tuple (a1..ar) in R, f(a1) x ... x f(ar) must be a
    subset of R.
    """
    if f.source_size != structure.size or f.target_size != structure.size:
        raise FomcError("shop size does not match structure domain")
    return _preserves_into(f, structure, structure)


def _preserves_into(f: HyperMap, source: "Structure", target: "Structure") -> bool:
    """Hyper-morphism preservation check from ``source`` into ``target``."""
    tables = _mask_tables(target)
    images = f.images
    for name, tuples in source.rels:
        table = tables[name]
        if table[0] == "unary":
            mask = table[1]
            for t in tuples:
                if images[t[0]] & ~mask:
                    return False
        elif table[0] == "binary":
            out = table[1]
            for a, b in tuples:
                if images[b] & ~out[images[a]]:
                    return False
        else:
            target_tuples = target.relation(name)
            for t in tuples:
                image_sets = [tuple(bits(images[a])) for a in t]
                for combo in itertools.product(*image_sets):
                    if combo not in target_tuples:
                        return False
    return True


# -- DSM ---------------------------------------------------------------------

@dataclass(frozen=True)
class DSM:
    """A down-shop-monoid: identity, composition closure, sub-shop closure."""

    size: int
    shops: tuple[HyperMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "_set", frozenset(self.shops))

    def __contains__(self, f: HyperMap) -> bool:
        return f in self._set

    def __iter__(self) -> Iterator[HyperMap]:
        return iter(self.shops)

    def __len__(self) -> int:
        return len(self.shops)

    def as_set(self) -> frozenset[HyperMap]:
        return self._set

    def is_closed(self) -> bool:
        """Verify the three DSM laws by direct enumeration."""
        members = self._set
        if identity_shop(self.size) not in members:
            return False
        for f in members:
            for g in members:
                if compose(g, f) not in members:
                    return False
            for s in sub_shops(f):
                if s not in members:
                    return False
        return True


def _dsm_from_set(n: int, images: Iterable[tuple[int, ...]]) -> DSM:
    """The DSM on n elements whose shops have the given image tuples.

    Shops of one size sort as their image tuples do, so the tuples are
    sorted natively and each ``HyperMap`` is built once, in order.
    """
    return DSM(n, tuple(HyperMap(n, n, t) for t in sorted(set(images))))


def generate_dsm(generators: Iterable[HyperMap], n: int) -> DSM:
    """Least set containing the generators and identity, closed under
    composition and sub-shops.

    Composition is monotone under pointwise containment: if f' <= f and
    g' <= g then g' o f' <= g o f.  So the sub-shops of the members of the
    monoid <G> that composition alone generates are closed under
    composition, and the DSM is the down-closure of <G>.  <G> is found by a
    breadth-first search from the identity that composes each new element
    with every generator (|<G>| * |G| compositions, through union tables);
    its elements are then expanded into their sub-shops, largest first, and
    an element already inside the down-closure is skipped.
    """
    full = (1 << n) - 1
    tables = []
    for g in generators:
        if not g.is_shop or g.source_size != n:
            raise FomcError("generators must be shops on the given domain")
        tables.append(union_table(g.images))
    identity = tuple(1 << a for a in range(n))
    monoid = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for f in frontier:
            for table in tables:
                h = tuple(table[m] for m in f)
                if h not in monoid:
                    monoid.add(h)
                    found.append(h)
        frontier = found
    members: set[tuple[int, ...]] = set()
    for f in sorted(monoid, key=lambda f: sum(m.bit_count() for m in f), reverse=True):
        if f not in members:
            members.update(_sub_images(f, full))
    return _dsm_from_set(n, members)


# -- the image-mask search engine ----------------------------------------------

def _kept(structure: "Structure", key: str, build):
    """``build(structure)``, computed once per structure object and kept in
    its ``__dict__``, as ``functools.cached_property`` keeps its values: a
    lookup neither hashes nor compares structures."""
    cache = structure.__dict__
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = build(structure)
        return value


def _degree_descending(structure: "Structure") -> tuple[int, ...]:
    """The elements by descending number of tuple occurrences, ties by
    element; kept on the structure."""
    return _kept(structure, "_degree_descending", _order_by_degree)


def _order_by_degree(structure: "Structure") -> tuple[int, ...]:
    degree = [0] * structure.size
    for _, tuples in structure.rels:
        for t in tuples:
            for a in t:
                degree[a] += 1
    return tuple(sorted(range(structure.size), key=lambda a: (-degree[a], a)))


def _links(source: "Structure", target: "Structure"):
    """The search tables of ``source`` into ``target`` that do not depend on
    the order of the search: ``(meets, unary, loops, links, general)``.

    ``meets`` holds the meet tables (``_Meet``) of the target's binary
    symbols, out-masks then in-masks per symbol.  Per source element ``e``:
    ``unary[e]`` is the target mask its unary tuples allow, ``loops[e]``
    the index in ``meets`` of the out-mask table of each loop ``(e, e)``,
    and ``links[e]`` one ``(k, other)`` pair per binary tuple joining it to
    another element, ``meets[k]`` being the out-mask table for a tuple
    ``(other, e)``, since f(e) lies within ``meets[k][f(other)]``, and the
    in-mask one for a tuple ``(e, other)``.  The pairs hold indices, not
    the tables: a tuple of ints is not tracked by the garbage collector,
    which would otherwise walk the millions of pairs of a large structure
    at every full collection.  ``general`` lists the ``(name, tuple)``
    pairs of the higher-arity symbols.

    A structure's tables into itself, which every shop search reads, are
    built once and kept on it; they hold no reference back to it.  Tables
    into another structure are built per search, in time linear in the
    tuples, as comparing the pair with a cached one would take.  The meet
    tables belong to ``target`` (see ``_mask_tables``) and fill as the
    searches read them.
    """
    if source is target:
        return _kept(source, "_self_links", lambda s: _build_links(s, s))
    return _build_links(source, target)


def _build_links(source: "Structure", target: "Structure"):
    tables = _mask_tables(target)
    meets: list[_Meet] = []
    unary = [(1 << target.size) - 1] * source.size
    loops: list[list[int]] = [[] for _ in range(source.size)]
    links: list[list[tuple[int, int]]] = [[] for _ in range(source.size)]
    general = []
    for name, tuples in source.rels:
        table = tables[name]
        if table[0] == "unary":
            for (a,) in tuples:
                unary[a] &= table[1]
        elif table[0] == "binary":
            out = len(meets)
            meets.extend(table[1:])
            for a, b in tuples:
                if a == b:
                    loops[a].append(out)
                else:
                    links[b].append((out, a))
                    links[a].append((out + 1, b))
        else:
            general.extend((name, t) for t in tuples)
    return (tuple(meets), tuple(unary), tuple(map(tuple, loops)), tuple(map(tuple, links)),
            tuple(general))


class _ImageSearch:
    """Forward-checked backtracking over per-element image masks.

    Elements are assigned in a fixed order.  Before branching on an element,
    every binary tuple linking it to another element is folded into an
    allowed mask, one meet-table lookup of the other element's image per
    tuple, so only submasks of that mask are tried; an element not yet
    assigned has image 0, whose meet is the full mask, and adds no
    constraint.  Loops and higher-arity tuples are verified per candidate
    once their last coordinate is assigned, a loop by one lookup of the
    candidate itself.  The tables behind these steps come from ``_links``,
    which keeps a structure's tables into itself on the structure; a search
    only files each higher-arity tuple under its last element.
    """

    def __init__(self, source: "Structure", target: "Structure",
                 order: Sequence[int], masks: Optional[Sequence[int]] = None):
        self.n = source.size
        self.full = (1 << target.size) - 1
        self.order = list(order)
        self.target = target
        self.meets, unary, loops, links, general = _links(source, target)
        position = [0] * self.n
        for step, a in enumerate(self.order):
            position[a] = step
        # ``masks[a]``: the target elements ``a`` may map into at all
        self.unary_masks = (unary if masks is None
                            else tuple(m & u for m, u in zip(masks, unary)))
        self.links = [links[a] for a in self.order]
        self.loops = [loops[a] for a in self.order]
        self.general: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in self.order]
        for name, t in general:
            self.general[max(map(position.__getitem__, t))].append((name, t))

    def allowed(self, step: int, images: list[int]) -> int:
        allowed = self.unary_masks[self.order[step]]
        meets = self.meets
        for k, other in self.links[step]:
            allowed &= meets[k][images[other]]
            if not allowed:
                return 0
        return allowed

    def residual_ok(self, step: int, images: list[int]) -> bool:
        cand = images[self.order[step]]
        for k in self.loops[step]:
            if cand & ~self.meets[k][cand]:
                return False
        for name, t in self.general[step]:
            rel = self.target.relation(name)
            image_lists = [tuple(bits(images[a])) for a in t]
            for combo in itertools.product(*image_lists):
                if combo not in rel:
                    return False
        return True

    def hits(self, subset_steps: int, surjective: bool = False, injective: bool = False,
             exists: bool = False) -> Iterator[tuple[int, ...]]:
        """Yield the image tuples of the hits in search order; the first
        ``subset_steps`` steps try nonempty subsets as images, the rest
        singletons.

        ``covered`` is the union of the images assigned so far.  A
        ``surjective`` search yields only hits whose images cover the whole
        target.  With 'subset' steps, at least one, the images of those
        steps alone must cover it: before each of them, the images still to
        come can at most cover the union of their allowed masks (computed
        with unassigned images read as 0, which only loosens them), so a
        node whose reach misses part of the target is cut, and the last of
        them tries only the allowed masks that cover the rest of the target,
        in the same ascending order as the unpruned search.  So the hits are
        those of the unpruned search whose 'subset' images cover the target,
        in the same order, from far fewer nodes.  With no 'subset' steps, a
        node is cut once its uncovered target elements outnumber the steps
        left, which at a leaf demands that the images cover the target.  An
        ``injective`` search drops ``covered`` from the allowed mask of each
        'singleton' step, so no two singleton images meet.  Full maps need no
        rule of their own: ``structures.find_morphism`` runs them as
        homomorphisms between the structures extended by each symbol's
        complement.

        ``exists`` asks only whether a hit exists, for a first-hit search
        that accepts a hit by preservation and ``covered`` alone.  It tries
        only images of a normal form, so it may yield another first hit,
        but yields one exactly when the full search does.  Shrinking an
        image keeps every tuple's image product inside its relation, and so
        keeps a hit a hit as long as the images still cover what they did.
        Walk a hit's 'subset' steps in order and let ``covered`` be the union
        of the shrunk images so far: shrink each image to its elements
        outside ``covered``, or to one of its elements if there are none.
        Every ``covered`` is then the same as before shrinking, so the result
        is a hit.  Shrinking the earlier images only widens ``allowed``, so
        its image at each 'subset' step is a nonempty submask of
        ``allowed & ~covered`` or a singleton of ``allowed & covered``; those
        are the candidates tried.  In a ``surjective`` search the last
        'subset' step must cover ``need``, the part of the target still
        uncovered, so the shrunk image is exactly ``need``, or a singleton
        when ``need`` is 0; only those are tried there.

        The search walks an explicit stack that holds, per step entered, an
        iterator over the candidates not yet tried, so its depth is not
        bounded by the interpreter's recursion limit.
        """
        n, last, full, order = self.n, self.n - 1, self.full, self.order
        count_cut = surjective and not subset_steps
        images = [0] * n
        covered = [0] * (n + 1)  # covered[s]: the union of the images before step s

        def candidates(step: int) -> Iterable[int]:
            """The images to try at ``step``, or () if the node is cut."""
            allowed = self.allowed(step, images)
            if not allowed:
                return ()
            if step >= subset_steps:
                if injective:
                    allowed &= ~covered[step]
                return singletons(allowed)
            need = full & ~covered[step]
            if surjective:
                reach = allowed
                for later in range(step + 1, subset_steps):
                    reach |= self.allowed(later, images)
                if need & ~reach:
                    return ()
                if step == subset_steps - 1:
                    return ((iter([need]) if need else singletons(allowed)) if exists
                            else submasks(allowed & ~need, need))
            if exists:
                return itertools.chain(
                    submasks(allowed & need), singletons(allowed & ~need))
            return submasks(allowed)

        stack = [candidates(0)]
        step = 0
        while stack:
            e = order[step]
            for cand in stack[-1]:
                images[e] = cand
                if not self.residual_ok(step, images):
                    continue
                covered[step + 1] = covered[step] | cand
                if count_cut and (full & ~covered[step + 1]).bit_count() > last - step:
                    continue
                if step == last:
                    yield tuple(images)
                elif child := candidates(step + 1):
                    stack.append(child)
                    step += 1
                    break
            else:
                images[e] = 0
                stack.pop()
                step -= 1


# -- enumeration of shE ------------------------------------------------------

DEFAULT_ENUMERATION_BOUND = 6


def enumerate_she(structure: "Structure", force: bool = False) -> DSM:
    """All surjective hyper-endomorphisms of a structure, as a DSM.

    Every hit of one ``surjective`` run of ``_ImageSearch`` with subset
    images on every element: a node whose images can no longer cover the
    domain is dropped before its subtree is walked.  The image tuples are
    sorted before any ``HyperMap`` is built.  The domain bound
    ``DEFAULT_ENUMERATION_BOUND`` guards against the exponential blowup on
    weakly constrained structures; pass ``force`` to exceed it at your own
    risk.
    """
    n = structure.size
    if n > DEFAULT_ENUMERATION_BOUND and not force:
        raise BudgetExceededError(
            f"domain size {n} exceeds enumeration bound {DEFAULT_ENUMERATION_BOUND}")
    search = _ImageSearch(structure, structure, _degree_descending(structure))
    return _dsm_from_set(n, search.hits(n, surjective=True))


# -- profile-directed existence searches --------------------------------------

def exists_shop(structure: "Structure", profile: str, *args) -> Optional[HyperMap]:
    """Search for a preserving shop matching a profile.

    Profiles (``args`` gives the parameters):
      A-shop(u)        - f(u) = D
      E-shop(x)        - x in f(z) for every z
      singletonUX(u,x) - both at once ({u}-surjective, {x}-total)
      U-surjective(U)  - f(U) = D
      X-total(X)       - every image meets X
      UX(U,X)          - U-surjective and X-total

    Returns a witness shop or None.  A-shop and E-shop are the U-surjective
    and X-total profiles of a singleton (see ``_one_sided``); UX composes
    the two one-sided witnesses.
    """
    n = structure.size
    full = (1 << n) - 1
    if profile in ("A-shop", "E-shop"):
        (e,) = args
        return _one_sided(structure, "U-surjective" if profile == "A-shop" else "X-total", [e])
    if profile == "singletonUX":
        u, x = args
        _check_elems(n, [u, x])
        # the one candidate: any {u}-{x}-shop has this as a sub-shop
        candidate = HyperMap(n, n, tuple(full if z == u else 1 << x for z in range(n)))
        return candidate if preserves(candidate, structure) else None
    if profile in ("U-surjective", "X-total"):
        (S,) = args
        return _one_sided(structure, profile, S)
    if profile == "UX":
        U, X = args
        f = exists_shop(structure, "U-surjective", U)
        if f is None:
            return None
        g = exists_shop(structure, "X-total", X)
        if g is None:
            return None
        return compose(g, f)  # U-surjectivity survives on the left, X-totality on the right
    raise FomcError(f"unknown shop profile {profile!r}")


def shop_exists(structure: "Structure", profile: str, S: Iterable[int]) -> bool:
    """Whether ``exists_shop(structure, profile, S)`` finds a shop, for the
    profiles U-surjective and X-total, decided without finding its first
    witness: the search runs in ``_ImageSearch``'s existence mode.
    """
    return _one_sided(structure, profile, S, exists=True) is not None


def _one_sided(structure: "Structure", profile: str, S: Iterable[int],
               exists: bool = False) -> Optional[HyperMap]:
    """First preserving shop with the U-surjective or X-total ``profile``
    for the set ``S``; with ``exists``, a shop of that kind exactly when
    there is one (see ``_ImageSearch.hits``).

    An X-total shop is the inverse of an X-surjective shop of the
    complement, so both profiles search for an S-surjective shop: subset
    images on the elements of S, which come first in ascending order, and
    singleton images on the rest, in descending degree order.  Any S-surjective preserving shop
    can be shrunk to this form (shrinking keeps preservation and keeps f(S)
    untouched), so the restriction loses no witnesses.
    """
    if profile not in ("U-surjective", "X-total"):
        raise FomcError(f"unknown one-sided shop profile {profile!r}")
    S = frozenset(S)
    _check_elems(structure.size, S)
    if not S:
        raise FomcError(f"{profile[0]} must be nonempty")
    if profile == "X-total":
        structure = structure.complement()
    order = sorted(S) + [a for a in _degree_descending(structure) if a not in S]
    hit = next(_ImageSearch(structure, structure, order).hits(
        len(S), surjective=True, exists=exists), None)
    if hit is None:
        return None
    w = HyperMap(structure.size, structure.size, hit)
    return inverse(w) if profile == "X-total" else w


def _check_elems(n: int, elems: Iterable[int]):
    for e in elems:
        if not (0 <= e < n):
            raise FomcError(f"element {e} outside domain 0..{n - 1}")


# -- canonical shop and permuted forms ----------------------------------------

def canonical_shop(structure: "Structure", U: Iterable[int], X: Iterable[int]) -> HyperMap:
    """The unique maximal identity-form U-X-shop of a reduced structure.

    Requires U union X to be the whole domain and the structure to admit a
    U-X-shop.  The canonical shop fixes U-and-X and X-only elements, and sends
    each U-only element u to {u} plus a maximal spray X_u inside X-minus-U.
    A single spray element {x} is admissible iff the one-step identity-form
    shop u -> {u,x} preserves the structure, and admissible sprays compose by
    union, so the maximum is computed pointwise.
    """
    n = structure.size
    U = frozenset(U)
    X = frozenset(X)
    if U | X != frozenset(range(n)):
        raise FomcError("canonical shop requires U union X = domain")
    u_only = sorted(U - X)
    x_only = sorted(X - U)
    sprays: dict[int, int] = {}
    for u in u_only:
        spray = 0
        for x in x_only:
            images = [1 << z for z in range(n)]
            images[u] |= 1 << x
            if preserves(HyperMap(n, n, tuple(images)), structure):
                spray |= 1 << x
        sprays[u] = spray
    images = [1 << z for z in range(n)]
    for u, spray in sprays.items():
        images[u] |= spray
    h = HyperMap(n, n, tuple(images))
    union_spray = 0
    for u in u_only:
        union_spray |= sprays[u]
    x_only_mask = mask_of(x_only)
    if union_spray != x_only_mask or any(sprays[u] == 0 for u in u_only):
        raise FomcError("structure admits no U-X-shop for the given U, X")
    if not preserves(h, structure):  # compositions of preserving pieces preserve
        raise FomcError("canonical shop assembly failed preservation")
    return h


@dataclass(frozen=True)
class PermutedFormWitness:
    """Decomposition of a shop over a cover U, X of its domain."""

    zeta: tuple[tuple[int, int], ...]    # permutation of U & X, as pairs
    chi: tuple[tuple[int, int], ...]     # permutation of X - U
    upsilon: tuple[tuple[int, int], ...] # permutation of U - X
    sprays: tuple[tuple[int, frozenset[int]], ...]  # X_u per u in U - X

    def rebuild(self, n: int) -> HyperMap:
        images = [0] * n
        for a, b in self.zeta + self.chi:
            images[a] = 1 << b
        spray_map = dict(self.sprays)
        for a, b in self.upsilon:
            images[a] = (1 << b) | mask_of(spray_map[a])
        return HyperMap(n, n, tuple(images))


def check_3_permuted(f: HyperMap, U: Iterable[int], X: Iterable[int]) -> Optional[PermutedFormWitness]:
    """Decompose ``f`` into the 3-permuted form, or return None.

    The form: a permutation on U & X, a permutation on X - U, and on U - X a
    permutation image plus an arbitrary spray inside X - U.
    """
    n = f.source_size
    U = frozenset(U)
    X = frozenset(X)
    if U | X != frozenset(range(n)):
        raise FomcError("3-permuted form requires U union X = domain")
    both = sorted(U & X)
    x_only = sorted(X - U)
    u_only = sorted(U - X)

    def singleton_perm(region: list[int]) -> Optional[tuple[tuple[int, int], ...]]:
        seen = set()
        pairs = []
        for a in region:
            img = f.images[a]
            if img & (img - 1):  # not a singleton
                return None
            b = img.bit_length() - 1
            if b not in region or b in seen:
                return None
            seen.add(b)
            pairs.append((a, b))
        return tuple(pairs)

    zeta = singleton_perm(both)
    chi = singleton_perm(x_only)
    if zeta is None or chi is None:
        return None
    x_only_mask = mask_of(x_only)
    u_only_mask = mask_of(u_only)
    seen = set()
    upsilon = []
    sprays = []
    for u in u_only:
        img = f.images[u]
        head = img & u_only_mask
        if head == 0 or head & (head - 1):
            return None
        b = head.bit_length() - 1
        if b in seen:
            return None
        if img & ~(u_only_mask | x_only_mask):
            return None  # image leaks into U & X
        seen.add(b)
        upsilon.append((u, b))
        sprays.append((u, set_of(img & x_only_mask)))
    witness = PermutedFormWitness(zeta, chi, tuple(upsilon), tuple(sprays))
    if witness.rebuild(n) != f:
        return None
    return witness


def completion_contains(f: HyperMap, U: Iterable[int], X: Iterable[int]) -> bool:
    """Membership in the completion: the DSM of all 3-permuted-form shops."""
    return check_3_permuted(f, U, X) is not None


def completion_generators(U: Iterable[int], X: Iterable[int]) -> tuple[HyperMap, ...]:
    """Generators of the completion for disjoint U, X covering the domain.

    A transposition and a cyclic permutation on U, each spraying all of X
    from every U element, plus the same two permutations on X with the
    identity-plus-full-spray on U.  Degenerate region sizes drop the absent
    permutations; the full-spray identity-form shop is always included so the
    completion's canonical shop is generated even when both regions are
    singletons.
    """
    U = sorted(set(U))
    X = sorted(set(X))
    if set(U) & set(X):
        raise FomcError("completion generators require disjoint U and X")
    n = len(U) + len(X)
    if set(U) | set(X) != set(range(n)):
        raise FomcError("U and X must cover the domain")
    x_mask = mask_of(X)

    def build(u_perm: dict[int, int], x_perm: dict[int, int]) -> HyperMap:
        images = [0] * n
        for u in U:
            images[u] = (1 << u_perm.get(u, u)) | x_mask
        for x in X:
            images[x] = 1 << x_perm.get(x, x)
        return HyperMap(n, n, tuple(images))

    gens = [build({}, {})]
    if len(U) >= 2:
        gens.append(build({U[0]: U[1], U[1]: U[0]}, {}))
        cycle = {U[i]: U[(i + 1) % len(U)] for i in range(len(U))}
        gens.append(build(cycle, {}))
    if len(X) >= 2:
        gens.append(build({}, {X[0]: X[1], X[1]: X[0]}))
        cycle = {X[i]: X[(i + 1) % len(X)] for i in range(len(X))}
        gens.append(build({}, cycle))
    seen = []
    for g in gens:
        if g not in seen:
            seen.append(g)
    return tuple(seen)


# -- text syntax ---------------------------------------------------------------

def render_shop(f: HyperMap) -> str:
    """Render as ``0->{0,1};1->{1}``."""
    parts = []
    for a, m in enumerate(f.images):
        elems = ",".join(str(b) for b in bits(m))
        parts.append(f"{a}->{{{elems}}}")
    return ";".join(parts)


def parse_shop(text: str) -> HyperMap:
    """Parse the ``0->{0,1};1->{1}`` syntax; sizes inferred from the content."""
    entries = {}
    max_elem = -1
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ParseError(f"bad shop entry {chunk!r}")
        left, right = chunk.split("->", 1)
        right = right.strip()
        if not (right.startswith("{") and right.endswith("}")):
            raise ParseError(f"bad image set {right!r}")
        try:
            a = int(left)
            body = right[1:-1].strip()
            img = frozenset(int(p) for p in body.split(",") if p.strip()) if body else frozenset()
        except ValueError as exc:
            raise ParseError(f"bad shop entry {chunk!r}") from exc
        if a in entries:
            raise ParseError(f"duplicate source element {a}")
        entries[a] = img
        max_elem = max([max_elem, a, *img])
    n = max_elem + 1
    if set(entries) != set(range(n)):
        raise ParseError("shop must define every source element 0..n-1")
    return HyperMap.from_sets(n, n, [entries[a] for a in range(n)])
