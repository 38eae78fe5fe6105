"""Finite relational structures and the morphism toolbox.

Structures are immutable: a signature, a domain 0..n-1 and one tuple set per
relation symbol.  Everything downstream (shop searches, model checking, core
computation) builds on the operations here: complement, disjoint union,
induced substructures, the interchangeability quotient, witness searches for
the five morphism kinds, isomorphism and Boolean closure tests.

Every morphism and isomorphism search takes the first hit of the shop-search
engine ``shops._ImageSearch``, through ``_first_hit``.  ``surjectiveHyper``
and ``fullSurjective`` demand surjectivity by the engine's ``surjective``
rule: ``surjectiveHyper`` takes subset images and drops a branch once its
images can no longer cover the target; ``fullSurjective`` takes singletons
and cuts a branch once the uncovered target elements outnumber the source
elements left to assign, which at a leaf demands that the images cover the
target.  Injective kinds drop the images assigned so far from each singleton
step's candidates; full kinds search between the two structures extended by
each symbol's complement, since a map is full exactly when it is also a
homomorphism between the complements.  A search may restrict the images of
each element to a mask: isomorphism sends each element only to target
elements of equal occurrence profile, and ``cores.classical_core`` keeps an
endomorphism's images inside a candidate core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, FomcError, ParseError, SignatureMismatchError
from .shops import HyperMap, _degree_descending, _ImageSearch, _preserves_into

MORPHISM_KINDS = ("homomorphism", "injective", "full", "fullSurjective", "surjectiveHyper")

# the most tuples a complement or a gadget may hold, about 120 MB of binary tuples
MAX_COMPLEMENT_TUPLES = 10 ** 6


@dataclass(frozen=True)
class Signature:
    """Ordered relation symbols; canonical order is by name."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise FomcError("duplicate relation symbol")
        for name, arity in self.symbols:
            if arity < 1:
                raise FomcError(f"arity of {name} must be positive")
        object.__setattr__(self, "symbols", tuple(sorted(self.symbols)))
        object.__setattr__(self, "_arities", dict(self.symbols))

    @staticmethod
    def make(*symbols: tuple[str, int]) -> "Signature":
        return Signature(tuple(symbols))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise FomcError(f"unknown relation symbol {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._arities


GRAPH_SIGNATURE = Signature.make(("E", 2))


@dataclass(frozen=True)
class Structure:
    """Finite relational structure with elements 0..size-1.

    ``rels`` stores (name, tuple set) pairs sorted by symbol name.  The
    optional ``name`` is a display label and takes no part in equality.
    """

    signature: Signature
    size: int
    rels: tuple[tuple[str, frozenset[tuple[int, ...]]], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise FomcError("domain must be nonempty")
        stored = dict(self.rels)
        if set(stored) != set(self.signature.names()):
            raise FomcError("relations must match the signature symbols")
        for sym, arity in self.signature.symbols:
            for t in stored[sym]:
                if len(t) != arity:
                    raise FomcError(f"tuple {t} has wrong arity for {sym}/{arity}")
                if any(not (0 <= e < self.size) for e in t):
                    raise FomcError(f"tuple {t} outside domain of size {self.size}")
        object.__setattr__(
            self, "rels",
            tuple((sym, frozenset(stored[sym])) for sym, _ in self.signature.symbols))

    @staticmethod
    def make(signature: Signature, size: int,
             relations: Mapping[str, Iterable[Sequence[int]]],
             name: str = "") -> "Structure":
        rels = tuple((sym, frozenset(tuple(t) for t in relations.get(sym, ())))
                     for sym, _ in signature.symbols)
        return Structure(signature, size, rels, name)

    @cached_property
    def relations(self) -> dict[str, frozenset[tuple[int, ...]]]:
        return dict(self.rels)

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self.relations[name]
        except KeyError:
            raise FomcError(f"unknown relation symbol {name!r}") from None

    def total_tuples(self) -> int:
        return sum(len(ts) for _, ts in self.rels)

    def rename(self, name: str) -> "Structure":
        return Structure(self.signature, self.size, self.rels, name)

    def complement(self) -> "Structure":
        """Set-theoretic complement of every relation (loops included).

        Built once per structure and then shared: every E-shop and X-total
        search runs on the complement.
        """
        return self._complement

    @cached_property
    def _complement(self) -> "Structure":
        check_tuple_budget("complement", self.signature, self.size)
        rels = {}
        for sym, arity in self.signature.symbols:
            universe = set(itertools.product(range(self.size), repeat=arity))
            rels[sym] = universe - self.relation(sym)
        label = f"co-{self.name}" if self.name else ""
        return Structure.make(self.signature, self.size, rels, label)

    def relabel(self, permutation: Sequence[int]) -> "Structure":
        """Apply a domain permutation; handy for invariance tests."""
        if sorted(permutation) != list(range(self.size)):
            raise FomcError("not a permutation of the domain")
        rels = {sym: {tuple(permutation[e] for e in t) for t in ts}
                for sym, ts in self.rels}
        return Structure.make(self.signature, self.size, rels, self.name)

    def __str__(self) -> str:
        return render_structure(self)


def check_tuple_budget(what: str, signature: Signature, size: int) -> None:
    """Refuse to build ``what``, a structure over ``signature`` on ``size``
    elements, if it could hold more than ``MAX_COMPLEMENT_TUPLES`` tuples."""
    count = sum(size ** arity for _, arity in signature.symbols)
    if count > MAX_COMPLEMENT_TUPLES:
        raise BudgetExceededError(
            f"{what} would need up to {count} tuples (limit {MAX_COMPLEMENT_TUPLES})")


def complement(structure: Structure) -> Structure:
    return structure.complement()


def disjoint_union(left: Structure, right: Structure) -> Structure:
    """Left's elements keep their names, right's shift up by left.size."""
    if left.signature != right.signature:
        raise SignatureMismatchError("disjoint union needs a shared signature")
    shift = left.size
    rels = {}
    for sym, _ in left.signature.symbols:
        rels[sym] = set(left.relation(sym)) | {
            tuple(e + shift for e in t) for t in right.relation(sym)}
    return Structure.make(left.signature, left.size + right.size, rels)


def induced_substructure(structure: Structure,
                         keep: Iterable[int]) -> tuple[Structure, dict[int, int]]:
    """Substructure on ``keep``; elements renumbered preserving order.

    Returns the structure and the old-to-new element map.  A tuple survives
    iff all its entries are kept.
    """
    kept = sorted(set(keep))
    if not kept:
        raise FomcError("cannot induce on an empty element set")
    if any(not (0 <= e < structure.size) for e in kept):
        raise FomcError("keep set outside the domain")
    element_map = {old: new for new, old in enumerate(kept)}
    rels = {}
    for sym, ts in structure.rels:
        rels[sym] = {tuple(element_map[e] for e in t)
                     for t in ts if all(e in element_map for e in t)}
    return Structure.make(structure.signature, len(kept), rels), element_map


def quotient_by_sim(structure: Structure) -> tuple[Structure, dict[int, int]]:
    """Quotient by coordinatewise interchangeability.

    Two elements are equivalent iff swapping one for the other in any single
    coordinate of any tuple never changes relation membership.  The quotient
    map is a full surjective homomorphism.
    """
    n = structure.size
    # profile of an element: every (symbol, position, other coordinates)
    # context in which it appears; two elements are interchangeable exactly
    # when their profiles coincide, no iteration needed
    profiles: dict[int, set] = {a: set() for a in range(n)}
    for sym, ts in structure.rels:
        for t in ts:
            for i, a in enumerate(t):
                context = (sym, i, t[:i], t[i + 1:])
                profiles[a].add(context)
    ordered = _refine_partition(n, profiles)
    class_of = {a: idx for idx, c in enumerate(ordered) for a in c}
    rels = {sym: {tuple(class_of[e] for e in t) for t in ts}
            for sym, ts in structure.rels}
    quotient = Structure.make(structure.signature, len(ordered), rels)
    return quotient, class_of


def _refine_partition(n: int, profiles: dict[int, set]) -> list[frozenset[int]]:
    groups: dict[frozenset, set[int]] = {}
    for a in range(n):
        groups.setdefault(frozenset(profiles[a]), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=min)


# -- morphism searches ---------------------------------------------------------

def find_morphism(source: Structure, target: Structure, kind: str):
    """Deterministic first witness of the requested morphism kind, or None.

    Function kinds return a tuple mapping source element -> target element;
    ``surjectiveHyper`` returns a HyperMap.  Every kind is one run of the
    image-mask engine ``shops._ImageSearch``: source elements in descending
    constraint degree, values ascending, so the witness is the first hit in
    that order.  Function kinds take singleton images; ``injective`` keeps
    them pairwise distinct; ``fullSurjective`` and ``surjectiveHyper`` demand
    that the images cover the target, by the engine's ``surjective`` rule,
    which with subset images finds the first covering hit of the unpruned
    search.  A map is full exactly when it is also a homomorphism between
    the complements, so the full kinds search between the structures
    extended by each symbol's complement.
    """
    if source.signature != target.signature:
        raise SignatureMismatchError("morphism search needs a shared signature")
    if kind not in MORPHISM_KINDS:
        raise FomcError(f"unknown morphism kind {kind!r}")
    if kind == "injective" and target.size < source.size:
        return None
    if kind == "fullSurjective" and target.size > source.size:
        return None
    hyper = kind == "surjectiveHyper"
    hit = _first_hit(source, target, source.size if hyper else 0,
                     surjective=kind in ("fullSurjective", "surjectiveHyper"),
                     injective=kind == "injective", full=kind in ("full", "fullSurjective"))
    if hit is None or not hyper:
        return _as_function(hit)
    return HyperMap(source.size, target.size, hit)


def _first_hit(source: Structure, target: Structure, subset_steps: int = 0,
               surjective: bool = False, injective: bool = False, full: bool = False,
               masks: Optional[Sequence[int]] = None) -> Optional[tuple[int, ...]]:
    """The image tuple of the engine's first hit, or None: source elements
    in descending degree order, the first ``subset_steps`` of them with
    subset images and the rest with singletons, each source element ``a``
    mapping into ``masks[a]`` when given; ``surjective`` and ``injective``
    are ``_ImageSearch.hits``' rules."""
    order = _degree_descending(source)
    if full:
        source, target = _with_complements(source), _with_complements(target)
    return next(_ImageSearch(source, target, order, masks).hits(
        subset_steps, surjective, injective), None)


def _as_function(hit: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    return None if hit is None else tuple(m.bit_length() - 1 for m in hit)


def _with_complements(structure: Structure) -> Structure:
    """``structure`` with every symbol ``R`` renamed ``+R`` and joined by
    ``-R``, its complement."""
    co = structure.complement()
    symbols = tuple((sign + sym, arity) for sym, arity in structure.signature.symbols
                    for sign in "+-")
    rels = {}
    for sym, _ in structure.signature.symbols:
        rels["+" + sym] = structure.relation(sym)
        rels["-" + sym] = co.relation(sym)
    return Structure.make(Signature(symbols), structure.size, rels)


def verify_morphism(source: Structure, target: Structure, kind: str, witness) -> bool:
    """Check a claimed witness; used by evidence replay and tests."""
    if kind == "surjectiveHyper":
        f: HyperMap = witness
        if not (f.is_total and f.is_surjective):
            return False
        return _preserves_into(f, source, target)
    mapping = tuple(witness)
    if len(mapping) != source.size:
        return False
    if kind == "injective" and len(set(mapping)) != source.size:
        return False
    if kind == "fullSurjective" and set(mapping) != set(range(target.size)):
        return False
    full = kind in ("full", "fullSurjective")
    for sym, arity in source.signature.symbols:
        in_rel = source.relation(sym)
        out_rel = target.relation(sym)
        pool = in_rel if not full else itertools.product(range(source.size), repeat=arity)
        for t in pool:
            image = tuple(mapping[a] for a in t)
            if (t in in_rel) and image not in out_rel:
                return False
            if full and (t not in in_rel) and image in out_rel:
                return False
    return True


def are_isomorphic(left: Structure, right: Structure,
                   want_witness: bool = False):
    """Isomorphism test.

    Sizes, sorted tuple counts and sorted per-element occurrence profiles
    must agree; then the first injective full map that sends each element
    to one of equal profile is the witness, a bijection because the sizes
    are equal.
    """
    if left.signature != right.signature:
        raise SignatureMismatchError("isomorphism test needs a shared signature")
    witness = None
    if (left.size == right.size
            and sorted(len(ts) for _, ts in left.rels) == sorted(len(ts) for _, ts in right.rels)):
        left_profiles, right_profiles = _occurrence_profiles(left), _occurrence_profiles(right)
        if sorted(left_profiles) == sorted(right_profiles):
            same_profile: dict[tuple[int, ...], int] = {}
            for v, profile in enumerate(right_profiles):
                same_profile[profile] = same_profile.get(profile, 0) | 1 << v
            witness = _as_function(_first_hit(
                left, right, injective=True, full=True,
                masks=[same_profile[profile] for profile in left_profiles]))
    if want_witness:
        return witness is not None, witness
    return witness is not None


def _occurrence_profiles(structure: Structure) -> list[tuple[int, ...]]:
    """Per element, its number of occurrences at each position of each
    symbol."""
    return [
        tuple(sum(1 for t in ts if t[i] == a)
              for sym, ts in structure.rels
              for i in range(structure.signature.arity(sym)))
        for a in range(structure.size)]


# -- Boolean operation tables ---------------------------------------------------

@dataclass(frozen=True)
class BooleanOperationTable:
    """A k-ary operation on {0,1} given by its full value table."""

    arity: int
    table: tuple[int, ...]  # indexed by the binary encoding of the arguments

    def __post_init__(self):
        if len(self.table) != 1 << self.arity:
            raise FomcError("table must cover all argument combinations")
        if any(v not in (0, 1) for v in self.table):
            raise FomcError("table values must be Boolean")

    def apply(self, args: Sequence[int]) -> int:
        index = 0
        for a in args:
            index = (index << 1) | a
        return self.table[index]


def _op(arity: int, fn) -> BooleanOperationTable:
    table = []
    for combo in itertools.product((0, 1), repeat=arity):
        table.append(fn(*combo))
    return BooleanOperationTable(arity, tuple(table))


CONSTANT_ZERO = _op(1, lambda a: 0)
CONSTANT_ONE = _op(1, lambda a: 1)
CONJUNCTION = _op(2, lambda a, b: a & b)
DISJUNCTION = _op(2, lambda a, b: a | b)
MAJORITY = _op(3, lambda a, b, c: (a & b) | (a & c) | (b & c))
MINORITY = _op(3, lambda a, b, c: a ^ b ^ c)


def closed_under_operation(structure: Structure, op: BooleanOperationTable) -> bool:
    """Coordinatewise closure of every relation under ``op``.

    Empty relations are vacuously closed: closure is a universally
    quantified statement over argument tuples.
    """
    if structure.size != 2:
        raise FomcError("operation closure is defined for Boolean structures only")
    for _, ts in structure.rels:
        tuples = sorted(ts)
        for args in itertools.product(tuples, repeat=op.arity):
            result = tuple(op.apply(column) for column in zip(*args))
            if result not in ts:
                return False
    return True


# -- text format -----------------------------------------------------------------

def render_structure(structure: Structure) -> str:
    """Canonical text rendering: symbols by name, tuples lexicographic."""
    lines = [f"structure {structure.name or 'unnamed'}", f"domain {structure.size}"]
    for sym, _ in structure.signature.symbols:
        lines.append(f"relation {sym}/{structure.signature.arity(sym)}")
        for t in sorted(structure.relation(sym)):
            lines.append(" ".join(str(e) for e in t))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_structure(text: str) -> Structure:
    """Parse the structure file format (see ``render_structure``)."""
    name = ""
    size = None
    symbols: list[tuple[str, int]] = []
    relations: dict[str, set[tuple[int, ...]]] = {}
    current: str | None = None
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ended:
            raise ParseError("content after 'end'", lineno, 1)
        parts = line.split()
        if parts[0] == "structure":
            if len(parts) != 2:
                raise ParseError("expected 'structure <name>'", lineno, 1)
            name = parts[1]
        elif parts[0] == "domain":
            try:
                size = int(parts[1])
            except (IndexError, ValueError):
                raise ParseError("expected 'domain <n>'", lineno, 1) from None
        elif parts[0] == "relation":
            if len(parts) != 2 or "/" not in parts[1]:
                raise ParseError("expected 'relation <Name>/<arity>'", lineno, 1)
            sym, _, arity_text = parts[1].partition("/")
            try:
                arity = int(arity_text)
            except ValueError:
                raise ParseError(f"bad arity {arity_text!r}", lineno, 1) from None
            if any(s == sym for s, _ in symbols):
                raise ParseError(f"duplicate relation {sym!r}", lineno, 1)
            symbols.append((sym, arity))
            relations[sym] = set()
            current = sym
        elif parts[0] == "end":
            ended = True
        else:
            if current is None or size is None:
                raise ParseError("tuple outside a relation block", lineno, 1)
            try:
                t = tuple(int(p) for p in parts)
            except ValueError:
                raise ParseError(f"bad tuple {line!r}", lineno, 1) from None
            relations[current].add(t)
    if size is None:
        raise ParseError("missing 'domain' line")
    if not ended:
        raise ParseError("missing 'end' line")
    signature = Signature(tuple(symbols))
    try:
        return Structure.make(signature, size, relations, name)
    except FomcError as exc:
        raise ParseError(str(exc)) from exc
