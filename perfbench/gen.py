"""Deterministic input generators for the benchmark.

Every generated input is identified by a string id such as
``cls.dg12.007``; its random source is ``random.Random(id)``, so the same id
always yields the same input in any process.  Inputs are kept in the
benchmark's own plain representation (``Plain``: a domain size and a dict of
symbol -> (arity, tuple set)) and rendered to the program's structure and
sentence text formats by this module, so the program receives text it did
not produce itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Plain:
    """A finite structure in the benchmark's own representation."""

    name: str
    size: int
    rels: tuple[tuple[str, int, frozenset], ...]  # (symbol, arity, tuples)

    def rel(self, sym: str) -> frozenset:
        for s, _, ts in self.rels:
            if s == sym:
                return ts
        raise KeyError(sym)

    def text(self) -> str:
        lines = [f"structure {self.name}", f"domain {self.size}"]
        for sym, arity, ts in sorted(self.rels):
            lines.append(f"relation {sym}/{arity}")
            lines.extend(" ".join(map(str, t)) for t in sorted(ts))
        lines.append("end")
        return "\n".join(lines) + "\n"

    def complement(self) -> "Plain":
        rels = []
        for sym, arity, ts in self.rels:
            universe = set(itertools.product(range(self.size), repeat=arity))
            rels.append((sym, arity, frozenset(universe - ts)))
        return Plain(f"co-{self.name}", self.size, tuple(rels))


def graph(name: str, n: int, edges) -> Plain:
    return Plain(name, n, (("E", 2, frozenset(edges)),))


def random_digraph(rng: random.Random, name: str, n: int, p: float) -> Plain:
    """Every ordered pair, loops included, is an edge with probability p."""
    return graph(name, n, {(a, b) for a in range(n) for b in range(n)
                           if rng.random() < p})


def random_symmetric(rng: random.Random, name: str, n: int, p: float) -> Plain:
    """Loopless undirected graph, each edge stored in both directions."""
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges |= {(a, b), (b, a)}
    return graph(name, n, edges)


def random_ternary(rng: random.Random, name: str, n: int, p: float) -> Plain:
    ts = {t for t in itertools.product(range(n), repeat=3) if rng.random() < p}
    return Plain(name, n, (("R", 3, frozenset(ts)),))


def planted_l(rng: random.Random, name: str, n: int, p: float) -> tuple[Plain, int, int]:
    """Random digraph with an isolated element u and a looped element x.

    The shop sending u to the whole domain and everything else to {x}
    preserves it (every surviving edge maps to the loop at x), so the
    structure is in L by construction.
    """
    u, x = rng.sample(range(n), 2)
    base = random_digraph(rng, name, n, p).rel("E")
    edges = {(a, b) for a, b in base if u not in (a, b)} | {(x, x)}
    return graph(name, n, edges), u, x


# -- fixed structures, written out independently of the program's gadgets ------

def k2() -> Plain:
    return graph("K2", 2, {(0, 1), (1, 0)})


def bnae() -> Plain:
    ts = set(itertools.product((0, 1), repeat=3)) - {(0, 0, 0), (1, 1, 1)}
    return Plain("B_nae", 2, (("NAE", 3, frozenset(ts)),))


def g22() -> Plain:
    """G(2,2,0,2): U = {0,1}, X = {2,3}, bridge 0-2, reflexive clique on X,
    complete bipartite between U - {0} and X - {2}."""
    edges = {(0, 2), (2, 0)}
    edges |= {(a, b) for a in (2, 3) for b in (2, 3)}
    edges |= {(1, 3), (3, 1)}
    return graph("G_2_2_0_2", 4, edges)


# -- QCSP-NAE sentences ----------------------------------------------------------

@dataclass(frozen=True)
class NaeSentence:
    prefix: tuple[tuple[str, str], ...]      # (kind, var) outermost first
    clauses: tuple[tuple[str, str, str], ...]

    def text(self) -> str:
        head = " ".join(f"{kind} {var}." for kind, var in self.prefix)
        body = " & ".join(f"NAE({a}, {b}, {c})" for a, b, c in self.clauses)
        return f"{head} {body}"


def random_nae(rng: random.Random, nvars: int, ratio: float,
               universal: float) -> NaeSentence:
    """Prenex NAE sentence; the given share of the variables (rounded) is
    universal, at random places in the prefix, and clauses pick three
    distinct variables.  A fixed count, not a per-variable coin, because
    each universal doubles the game tree."""
    names = [f"x{i}" for i in range(nvars)]
    forall = set(rng.sample(names, round(universal * nvars)))
    prefix = tuple(("forall" if v in forall else "exists", v) for v in names)
    nclauses = max(1, round(ratio * nvars))
    clauses = tuple(tuple(rng.sample(names, 3)) for _ in range(nclauses))
    return NaeSentence(prefix, clauses)


# -- the height-3 sentence family -------------------------------------------------
#
# Nodes are tuples: ("rel", sym, args), ("eq", a, b), ("not", child),
# ("and", l, r), ("or", l, r), ("q", kind, var, body).

def sentence_family(signature: tuple[tuple[str, int], ...], max_height: int = 3,
                    max_scope: int = 2) -> list[tuple]:
    """Every quantifier-rooted sentence up to an AST height with at most
    ``max_scope`` variables in scope: atoms and their negations, equalities
    and disequalities, binary and/or, and quantifiers opening a new variable.
    On the graph signature at height 3 this is 20,616 sentences."""
    atoms_cache: dict[int, list[tuple]] = {}

    def atoms(scope: int) -> list[tuple]:
        if scope not in atoms_cache:
            vs = [f"x{i}" for i in range(scope)]
            out: list[tuple] = []
            for sym, arity in signature:
                for combo in itertools.product(vs, repeat=arity):
                    out.append(("rel", sym, combo))
                    out.append(("not", ("rel", sym, combo)))
            for a in vs:
                for b in vs:
                    out.append(("eq", a, b))
                    out.append(("not", ("eq", a, b)))
            atoms_cache[scope] = out
        return atoms_cache[scope]

    level_cache: dict[tuple[int, int], list[tuple]] = {}

    def level(height: int, scope: int) -> list[tuple]:
        key = (height, scope)
        if key not in level_cache:
            out = list(atoms(scope)) if scope else []
            if height > 0:
                if scope < max_scope:
                    body = level(height - 1, scope + 1)
                    for kind in ("exists", "forall"):
                        out.extend(("q", kind, f"x{scope}", b) for b in body)
                below = level(height - 1, scope)
                for left, right in itertools.product(below, repeat=2):
                    out.append(("and", left, right))
                    out.append(("or", left, right))
            level_cache[key] = out
        return level_cache[key]

    family = []
    for body in level(max_height - 1, 1):
        family.append(("q", "exists", "x0", body))
        family.append(("q", "forall", "x0", body))
    return family


def render(node: tuple) -> str:
    """Fully parenthesised text in the program's sentence grammar."""
    tag = node[0]
    if tag == "rel":
        return f"{node[1]}({', '.join(node[2])})"
    if tag == "eq":
        return f"{node[1]} = {node[2]}"
    if tag == "not":
        child = node[1]
        if child[0] == "eq":
            return f"{child[1]} != {child[2]}"
        return "~" + render(child)
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return f"({render(node[1])}{op}{render(node[2])})"
    return f"({node[1]} {node[2]}. {render(node[3])})"
