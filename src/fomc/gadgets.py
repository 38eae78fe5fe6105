"""Constructors for the hardness gadgets and reductions.

Index conventions: every emitter is 0-based.  For the two-block gadgets the
universal block is U = {0..j-1} and the existential block is X = {j..j+k-1};
published presentations of the same structures number elements from 1, so
their G^{j,k}_{u,x} with u=1, x=j+1 is G(j, k, 0, j) here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import FomcError
from .formulas import And, Formula, Or, Quant, Rel, conj, disj, rebuild, walk
from .shops import HyperMap
from .structures import GRAPH_SIGNATURE, Signature, Structure, check_tuple_budget

# the parameter counts each gadget accepts
GADGET_PARAMS = {"Kn": (1,), "KnReflexive": (1,), "KompleteBipartite": (2,), "BNAE": (0,),
                 "OneElement": (0, 1), "G": (4,), "Dhat": (2,), "GV": (1,), "SG": (0,)}
GADGET_NAMES = tuple(GADGET_PARAMS)

NAE_SIGNATURE = Signature.make(("NAE", 3))
DHAT_SIGNATURE = Signature.make(("R", 4))
GV_SIGNATURE = Signature.make(("Eprime", 2), ("Zero", 1), ("One", 1), ("Two", 1))
SG_SIGNATURE = Signature.make(("E", 2), ("Eprime", 2), ("Zero", 1), ("One", 1), ("Two", 1))


@dataclass(frozen=True)
class GadgetSpec:
    name: str
    params: tuple[int, ...] = ()
    graph: Optional[Structure] = None

    def __post_init__(self):
        if self.name not in GADGET_NAMES:
            raise FomcError(f"unknown gadget {self.name!r}")


def _sym(pairs) -> set[tuple[int, int]]:
    out = set()
    for a, b in pairs:
        out.add((a, b))
        out.add((b, a))
    return out


def _check_blocks(signature: Signature, j: int, k: int) -> None:
    """Refuse a two-block gadget over ``signature`` whose blocks are empty
    or whose tuple set could exceed the budget."""
    if j < 1 or k < 1:
        raise FomcError("block sizes must be positive")
    check_tuple_budget("gadget", signature, j + k)


def check_gadget_params(name: str, params: tuple[int, ...]) -> None:
    """Raise FomcError unless ``GADGET_PARAMS`` allows this many parameters."""
    if len(params) not in GADGET_PARAMS[name]:
        counts = " or ".join(map(str, GADGET_PARAMS[name]))
        raise FomcError(f"gadget {name} takes {counts} parameters, got {len(params)}")


def make_gadget(spec: GadgetSpec) -> Structure:
    name = spec.name
    p = spec.params
    check_gadget_params(name, p)
    if name == "Kn":
        (n,) = p
        return clique(n)
    if name == "KnReflexive":
        (n,) = p
        return reflexive_clique(n)
    if name == "KompleteBipartite":
        a, b = p
        _check_blocks(GRAPH_SIGNATURE, a, b)
        edges = _sym((x, a + y) for x in range(a) for y in range(b))
        return Structure.make(GRAPH_SIGNATURE, a + b, {"E": edges},
                              f"K_{a}_{b}")
    if name == "BNAE":
        tuples = set(itertools.product((0, 1), repeat=3)) - {(0, 0, 0), (1, 1, 1)}
        return Structure.make(NAE_SIGNATURE, 2, {"NAE": tuples}, "B_nae")
    if name == "OneElement":
        if p and p[0] not in (0, 1):
            raise FomcError(f"OneElement takes 0 (point) or 1 (loop), got {p[0]}")
        looped = p == (1,)
        edges = {(0, 0)} if looped else set()
        return Structure.make(GRAPH_SIGNATURE, 1, {"E": edges},
                              "loop" if looped else "point")
    if name == "G":
        j, k, u, x = p
        return pspace_gadget(j, k, u, x)
    if name == "Dhat":
        j, k = p
        return dhat(j, k)
    if name == "GV":
        (s,) = p
        return vertex_gadget(s)
    if name == "SG":
        if spec.graph is None:
            raise FomcError("SG needs an input graph")
        return meta_reduction(spec.graph)
    raise FomcError(f"unknown gadget {name!r}")  # pragma: no cover


def clique(n: int) -> Structure:
    if n < 1:
        raise FomcError("clique size must be positive")
    check_tuple_budget("gadget", GRAPH_SIGNATURE, n)
    edges = {(a, b) for a in range(n) for b in range(n) if a != b}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges}, f"K{n}")


def reflexive_clique(n: int) -> Structure:
    if n < 1:
        raise FomcError("clique size must be positive")
    check_tuple_budget("gadget", GRAPH_SIGNATURE, n)
    edges = {(a, b) for a in range(n) for b in range(n)}
    return Structure.make(GRAPH_SIGNATURE, n, {"E": edges}, f"K{n}ref")


def pspace_gadget(j: int, k: int, u: int, x: int) -> Structure:
    """The two-block graph: U-X bridge at (u, x), reflexive clique on X,
    complete bipartite between the other U and X elements."""
    _check_blocks(GRAPH_SIGNATURE, j, k)
    if not (0 <= u < j):
        raise FomcError(f"u must lie in the universal block 0..{j - 1}")
    if not (j <= x < j + k):
        raise FomcError(f"x must lie in the existential block {j}..{j + k - 1}")
    X = range(j, j + k)
    edges = _sym([(u, x)])
    edges |= {(a, b) for a in X for b in X}
    edges |= _sym((a, b) for a in range(j) for b in X if a != u and b != x)
    return Structure.make(GRAPH_SIGNATURE, j + k, {"E": edges},
                          f"G_{j}_{k}_{u}_{x}")


def dhat(j: int, k: int) -> Structure:
    """Single 4-ary relation bundling every two-block gadget.

    Quadruples headed by (u, x) carry exactly the edge set of the gadget
    selected by that pair; quadruples headed by two existential elements
    carry every gadget's edges, so all-existential quadruples are all present.
    """
    _check_blocks(DHAT_SIGNATURE, j, k)
    U = range(j)
    X = range(j, j + k)
    tuples: set[tuple[int, int, int, int]] = set()
    edge_sets = {(u, x): make_gadget(GadgetSpec("G", (j, k, u, x))).relation("E")
                 for u in U for x in X}
    for u in U:
        for x in X:
            for a, b in edge_sets[(u, x)]:
                tuples.add((u, x, a, b))
        for x1 in X:
            for x2 in X:
                for x3 in X:
                    for a, b in edge_sets[(u, x3)]:
                        tuples.add((x1, x2, a, b))
    return Structure.make(DHAT_SIGNATURE, j + k, {"R": tuples}, f"Dhat_{j}_{k}")


# -- the meta-problem gadgets ---------------------------------------------------

def vertex_gadget(s: int) -> Structure:
    """Structure on three colours, a universal apex and s vertex elements
    whose preserving shops are exactly: the identity, and the maps fixing
    each colour, sending every vertex element into the colours and the apex
    to at least the apex and all vertex elements.

    Edge design (directed): everything points at every colour; the apex
    points at the first two vertex elements; the vertex elements form a
    directed cycle.  The colour cap pins colours via the monadic predicates;
    the apex chords kill apex-image extensions pointing at fixed vertices;
    the cycle propagates "vertex maps into colours" around all vertices and
    breaks every vertex permutation for s >= 3.  For s <= 2 no edge set over
    this signature realises the target monoid exactly (any such structure
    leaves a vertex transposition or a single-vertex extension alive), but
    the surviving extras are never A-shops, so classification readouts are
    unaffected.
    """
    if s < 1:
        raise FomcError("need at least one vertex element")
    check_tuple_budget("gadget", GV_SIGNATURE, 4 + s)
    n = 4 + s
    apex = 3
    v = [4 + i for i in range(s)]
    edges = {(z, c) for z in range(n) for c in range(3)}
    edges.add((apex, v[0]))
    if s >= 2:
        edges.add((apex, v[1]))
    if s == 1:
        edges.add((v[0], v[0]))
    else:
        edges |= {(v[i], v[(i + 1) % s]) for i in range(s)}
    return Structure.make(
        GV_SIGNATURE, n,
        {"Eprime": edges, "Zero": {(0,)}, "One": {(1,)}, "Two": {(2,)}},
        f"GV_{s}")


def vertex_gadget_generator(s: int) -> HyperMap:
    """The generating A-shop of the vertex gadget's intended monoid."""
    n = 4 + s
    colours = 0b111
    images = [1 << 0, 1 << 1, 1 << 2, (1 << n) - 1] + [colours] * s
    return HyperMap(n, n, tuple(images))


def meta_reduction(graph: Structure) -> Structure:
    """Attach a 3-colourability instance to the vertex gadget.

    The input must be a loopless symmetric graph; its edges land on the
    vertex elements and a triangle of colours joins them, so a preserving
    A-shop exists exactly when the graph is 3-colourable.  Classifying the
    output therefore answers NP-complete for 3-colourable inputs and
    Pspace-complete otherwise.
    """
    if graph.signature != GRAPH_SIGNATURE:
        raise FomcError("meta reduction expects a graph with one binary symbol E")
    edges = graph.relation("E")
    for a, b in edges:
        if a == b:
            raise FomcError("meta reduction expects a loopless graph")
        if (b, a) not in edges:
            raise FomcError("meta reduction expects a symmetric graph")
    s = graph.size
    base = vertex_gadget(s)
    e = {(a, b) for a in range(3) for b in range(3) if a != b}
    e |= {(4 + a, 4 + b) for a, b in edges}
    rels = {sym: set(ts) for sym, ts in base.rels}
    rels["E"] = e
    return Structure.make(SG_SIGNATURE, base.size, rels,
                          f"S_{graph.name or 'G'}")


# -- reductions on sentences ------------------------------------------------------

def _require_nae_prenex(formula: Formula) -> tuple[list[tuple[str, str]], Formula]:
    """Split a prenex sentence over the NAE symbol into prefix and matrix."""
    prefix: list[tuple[str, str]] = []
    node = formula
    while isinstance(node, Quant):
        if node.restriction is not None:
            raise FomcError("expected an unrelativised prenex sentence")
        prefix.append((node.kind, node.var))
        node = node.body
    for sub, _ in walk(node):
        if isinstance(sub, Quant):
            raise FomcError("quantifier inside the matrix; sentence is not prenex")
        if isinstance(sub, Rel) and sub.symbol != "NAE":
            raise FomcError(f"foreign symbol {sub.symbol!r}")
    return prefix, node


def reduce_nae_to_k2(formula: Formula) -> Formula:
    """Replace every NAE(x,y,z) atom by E(x,y) | E(y,z) | E(x,z).

    On the two-element clique the disjunction says the three values are not
    all equal, so truth transfers between the not-all-equal structure and the
    clique verbatim.
    """
    _require_nae_prenex(formula)
    return rebuild(formula, _expand_nae)


def _expand_nae(node: Formula) -> Optional[Formula]:
    if isinstance(node, (Quant, And, Or)):
        return None
    if isinstance(node, Rel):
        if node.symbol != "NAE":
            raise FomcError(f"foreign symbol {node.symbol!r}")
        x, y, z = node.args
        return Or((Rel("E", (x, y)), Rel("E", (y, z)), Rel("E", (x, z))))
    raise FomcError("reduction expects a positive {exists,forall,and} sentence")


def reduce_qcsp_nae_to_gadget(formula: Formula, target: str = "G22",
                              j: int = 2, k: int = 2) -> Formula:
    """Compile a prenex NAE sentence into a relativised sentence over the
    two-block gadget (``target='G22'``) or its 4-ary bundling (``'Dhat'``).

    Existential variables move into the existential block; each universal
    variable is re-played there through an adjacent witness; each clause
    becomes a universally chosen adjacency test over the clause witnesses.
    For the 4-ary target an outer universal-existential pair selects the
    gadget copy and every edge atom becomes a quadruple atom.
    """
    if target not in ("G22", "Dhat"):
        raise FomcError(f"unknown reduction target {target!r}")
    if target == "G22":
        j = k = 2
    else:
        _check_blocks(DHAT_SIGNATURE, j, k)
    prefix, matrix = _require_nae_prenex(formula)
    clauses: list[Rel] = []
    for node, _ in walk(matrix):
        if isinstance(node, Rel):
            clauses.append(node)
        elif not isinstance(node, And):
            raise FomcError("matrix must be a conjunction of NAE atoms")
    clauses.reverse()

    U = frozenset(range(j))
    X = frozenset(range(j, j + k))

    def edge(a: str, b: str) -> Formula:
        if target == "G22":
            return Rel("E", (a, b))
        return Rel("R", ("q0", "p0", a, b))

    def clause_formula(index: int, clause: Rel) -> Formula:
        c = f"c{index}"
        picks = [edge(c, f"v_{arg}") for arg in clause.args]
        return Quant("forall", c, U, disj(picks))

    def build(rest: list[tuple[str, str]]) -> Formula:
        if not rest:
            return conj([clause_formula(i, cl) for i, cl in enumerate(clauses)])
        kind, var = rest[0]
        tail = build(rest[1:])
        if kind == "exists":
            return Quant("exists", f"v_{var}", X, tail)
        return Quant("forall", f"u_{var}", U,
                     Quant("exists", f"v_{var}", X,
                           conj([edge(f"u_{var}", f"v_{var}"), tail])))

    body = build(prefix)
    if target == "Dhat":
        body = Quant("forall", "q0", U, Quant("exists", "p0", X, body))
    return body
