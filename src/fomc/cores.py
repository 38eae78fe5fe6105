"""Core computations: classical core, interchangeability core, U-X-core.

The U-X-core search sweeps subset sizes from below, so the returned U and X
are size-minimal; among all minimal pairs it keeps one maximising the overlap
(ties broken lexicographically, which only affects labels: the core itself is
unique up to isomorphism).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, FomcError
from .shops import HyperMap, canonical_shop, exists_shop
from .structures import (Structure, find_morphism, induced_substructure,
                         quotient_by_sim)

DEFAULT_CORE_BOUND = 6
CLASSICAL_CORE_BOUND = DEFAULT_CORE_BOUND + 2


def classical_core(structure: Structure) -> tuple[Structure, tuple[int, ...]]:
    """Minimum induced substructure homomorphically equivalent to the input.

    Returns the core and the retraction (a map from original elements to core
    elements).  Found by looking for endomorphisms into ever larger candidate
    images; the inclusion back is always a homomorphism.
    """
    n = structure.size
    if n > CLASSICAL_CORE_BOUND:
        raise BudgetExceededError(f"domain size {n} exceeds core bound {CLASSICAL_CORE_BOUND}")
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            candidate, _ = induced_substructure(structure, keep)
            witness = find_morphism(structure, candidate, "homomorphism")
            if witness is not None:
                return candidate, witness
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
    some k-subset, and every subset of that size admitting one."""
    n = structure.size
    for size in range(1, n + 1):
        hits = [S for S in itertools.combinations(range(n), size)
                if exists_shop(structure, profile, frozenset(S)) is not None]
        if hits:
            return size, hits
    raise FomcError(f"unreachable: the whole domain always admits a {profile} shop")  # pragma: no cover


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

    Exact subset sweep: minimise |U| and |X| independently, then maximise
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
