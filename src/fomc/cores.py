"""Core computations: classical core, interchangeability core, U-X-core.

The classical core is the first candidate subset that some endomorphism maps
the structure into, found by searches restricted to that subset.

The U-X-core search finds every size-minimal U and X.  A shop that works for
a set works for each superset, so after a probe of the singletons it descends
from the whole domain and refutes only the subsets whose one-larger supersets
all hit.  Among all minimal pairs it keeps one maximising the overlap (ties
broken lexicographically, which only affects labels: the core itself is unique
up to isomorphism).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, FomcError
from .shops import HyperMap, canonical_shop, mask_of, shop_exists
from .structures import Structure, _first_hit, induced_substructure, quotient_by_sim

DEFAULT_CORE_BOUND = 6
CLASSICAL_CORE_BOUND = DEFAULT_CORE_BOUND + 2


def classical_core(structure: Structure) -> tuple[Structure, tuple[int, ...]]:
    """Minimum induced substructure homomorphically equivalent to the input.

    Returns the core and the retraction (a map from original elements to core
    elements).  For ever larger candidate sets ``keep``, in ``combinations``
    order, it looks for an endomorphism whose images all lie in ``keep``:
    a homomorphism into the substructure induced by ``keep``, found by one
    restricted search on the input's own tables.  The inclusion back is
    always a homomorphism.  The substructure is built once, for the answer;
    its renumbering keeps the order of the elements, so the retraction is the
    first hit of the search into the substructure itself.
    """
    n = structure.size
    if n > CLASSICAL_CORE_BOUND:
        raise BudgetExceededError(f"domain size {n} exceeds core bound {CLASSICAL_CORE_BOUND}")
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            hit = _first_hit(structure, structure, masks=[mask_of(keep)] * n)
            if hit is not None:
                core, element_map = induced_substructure(structure, keep)
                return core, tuple(element_map[m.bit_length() - 1] for m in hit)
    raise FomcError("unreachable: the identity is always a retraction")  # pragma: no cover


def eqfree_core(structure: Structure) -> Structure:
    """The interchangeability quotient; its own quotient is trivial."""
    quotient, _ = quotient_by_sim(structure)
    return quotient


@dataclass(frozen=True)
class UXCore:
    """A U-X-core with its witness data.

    ``U`` and ``X`` are in original coordinates, ``core_U`` and ``core_X`` in
    core coordinates; ``embedding`` maps the kept original elements to core
    elements; ``canonical`` is the canonical identity-form shop of the core.
    """

    core: Structure
    U: tuple[int, ...]
    X: tuple[int, ...]
    core_U: tuple[int, ...]
    core_X: tuple[int, ...]
    canonical: HyperMap
    embedding: dict[int, int]


def _minimal_sets(structure: Structure, profile: str) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest size k with a ``profile`` shop preserving the structure for
    some k-subset, and every k-subset admitting one, in ``combinations`` order.

    A shop that works for S works for every superset of S, so the subsets
    that admit one are closed upwards.  After a probe of the singletons, the
    sweep descends from the whole domain and tests a subset only when all its
    one-larger supersets hit; the first level without a hit lies below k.
    Each test asks ``shops.shop_exists``, which decides whether a shop
    exists without finding the first witness ``exists_shop`` would return.
    """
    n = structure.size
    hits = [S for S in itertools.combinations(range(n), 1)
            if shop_exists(structure, profile, S)]
    if hits:
        return 1, hits
    hits = [tuple(range(n))]
    for size in range(n - 1, 1, -1):
        above = set(map(frozenset, hits))
        level = [S for S in itertools.combinations(range(n), size)
                 if all((frozenset(S) | {e}) in above
                        for e in range(n) if e not in S)
                 and shop_exists(structure, profile, S)]
        if not level:
            return size + 1, hits
        hits = level
    return 2, hits  # no singleton admits one


def minimal_u_sets(structure: Structure) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest size u* with a U-surjective preserving shop, and every U of
    that size admitting one."""
    return _minimal_sets(structure, "U-surjective")


def minimal_x_sets(structure: Structure) -> tuple[int, list[tuple[int, ...]]]:
    """Smallest size x* with an X-total preserving shop, and every X of
    that size admitting one."""
    return _minimal_sets(structure, "X-total")


def ux_core(structure: Structure) -> UXCore:
    """Compute the U-X-core.

    Minimise |U| and |X| independently, each by a descending sweep that
    relies on hits being closed upwards (see ``_minimal_sets``), then maximise
    |U & X| over the minimal witnesses (then least U, then least X).  The core
    is the substructure induced by U | X with the canonical shop attached.
    """
    n = structure.size
    if n > DEFAULT_CORE_BOUND:
        raise BudgetExceededError(
            f"domain size {n} exceeds U-X-core bound {DEFAULT_CORE_BOUND}")
    _, u_sets = minimal_u_sets(structure)
    _, x_sets = minimal_x_sets(structure)
    best_key = None
    U = X = None
    for cand_u in u_sets:
        u_set = set(cand_u)
        for cand_x in x_sets:
            key = (-len(u_set & set(cand_x)), cand_u, cand_x)
            if best_key is None or key < best_key:
                best_key, U, X = key, cand_u, cand_x
    core, embedding = induced_substructure(structure, set(U) | set(X))
    core_u = tuple(sorted(embedding[u] for u in U))
    core_x = tuple(sorted(embedding[x] for x in X))
    canonical = canonical_shop(core, core_u, core_x)
    return UXCore(core, tuple(U), tuple(X), core_u, core_x, canonical, embedding)
