"""Formula ASTs, the text grammar, normal forms and canonical sentences.

The grammar (whitespace-insensitive)::

    formula := quant | disj
    quant   := ("forall" | "exists") VAR ["in" "{" NUM {"," NUM} "}"] "." formula
    disj    := conj {"|" conj}
    conj    := unit {"&" unit}
    unit    := ["~"] (atom | "(" formula ")" | "true" | "false")
    atom    := NAME "(" VAR {"," VAR} ")" | VAR "=" VAR | VAR "!=" VAR

``x != y`` is sugar for a negated equality atom.  ``true``/``false`` are leaf
constants; the canonical-sentence builders need them for structures with no
facts, where the conjunction of positive facts is empty.  Parsing rejects
unbound and shadowed variables, so every parsed formula is a sentence.  One
regular expression splits a text into token strings; a syntax error works
out its line and column from the index of the token it names.

Every read-only pass (``check_formula``, ``fragment_of``, ``node_count`` and
the prenex checks in ``gadgets``) is a loop over one iterative walk,
``walk``, which yields each node with the variables bound above it.  Every
sentence transform (``to_nnf``, ``dualize``, ``relativise`` and the NAE
reductions in ``gadgets``) is a ``visit`` function over ``rebuild``: the
visit handles the nodes it changes and returns None for the rest, which
``rebuild`` copies with rebuilt children.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, FomcError, FormulaError, ParseError

if TYPE_CHECKING:  # pragma: no cover
    from .structures import Signature, Structure


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Rel(Formula):
    symbol: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("conjunction needs at least two children")


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise FormulaError("disjunction needs at least two children")


@dataclass(frozen=True)
class Quant(Formula):
    kind: str  # "forall" | "exists"
    var: str
    restriction: Optional[frozenset[int]]
    body: Formula

    def __post_init__(self):
        if self.kind not in ("forall", "exists"):
            raise FormulaError(f"bad quantifier kind {self.kind!r}")
        if self.restriction is not None and not self.restriction:
            raise FormulaError("empty restriction set")


TOP = Top()
BOTTOM = Bottom()


def conj(children: Sequence[Formula]) -> Formula:
    children = tuple(children)
    if not children:
        return TOP
    if len(children) == 1:
        return children[0]
    return And(children)


def disj(children: Sequence[Formula]) -> Formula:
    children = tuple(children)
    if not children:
        return BOTTOM
    if len(children) == 1:
        return children[0]
    return Or(children)


def exists_block(variables: Sequence[str], body: Formula,
                 restriction: Optional[frozenset[int]] = None) -> Formula:
    for var in reversed(variables):
        body = Quant("exists", var, restriction, body)
    return body


def forall_block(variables: Sequence[str], body: Formula,
                 restriction: Optional[frozenset[int]] = None) -> Formula:
    for var in reversed(variables):
        body = Quant("forall", var, restriction, body)
    return body


def walk(formula: Formula) -> Iterator[tuple[Formula, frozenset[str]]]:
    """Every node with the variables its enclosing quantifiers bind, in
    pre-order, children left to right: a node's first child comes right
    after it."""
    stack = [(formula, frozenset())]
    while stack:
        item = node, bound = stack.pop()
        yield item
        kind = type(node)
        if kind is Not:
            stack.append((node.child, bound))
        elif kind is And or kind is Or:
            stack.extend([(c, bound) for c in reversed(node.children)])
        elif kind is Quant:
            stack.append((node.body, bound | {node.var}))


def node_count(formula: Formula) -> int:
    return sum(1 for _ in walk(formula))


def check_formula(formula: Formula, signature: Optional["Signature"] = None,
                  domain_size: Optional[int] = None,
                  allow_free: Iterable[str] = ()) -> None:
    """Validate closedness (minus ``allow_free``), no-shadowing, and, when a
    signature or domain size is given, arities and restriction ranges."""
    allow = frozenset(allow_free)
    for node, bound in walk(formula):
        kind = type(node)
        if kind is Rel:
            if signature is not None:
                if node.symbol not in signature:
                    raise FormulaError(f"unknown relation symbol {node.symbol!r}")
                if signature.arity(node.symbol) != len(node.args):
                    raise FormulaError(
                        f"arity mismatch for {node.symbol!r}: got {len(node.args)}")
            names = node.args
        elif kind is Eq:
            names = (node.left, node.right)
        elif kind is Quant:
            if node.var in bound:
                raise FormulaError(f"shadowed variable {node.var!r}")
            if node.restriction is not None and domain_size is not None:
                if any(not (0 <= e < domain_size) for e in node.restriction):
                    raise FormulaError("restriction outside the domain")
            continue
        elif kind in (Not, And, Or, Top, Bottom):
            continue
        else:
            raise FormulaError(f"unknown node {node!r}")
        for v in names:
            if v not in bound and v not in allow:
                raise FormulaError(f"unbound variable {v!r}")


# -- fragments -----------------------------------------------------------------

@dataclass(frozen=True)
class FragmentKey:
    """Symbol budget: quantifiers, connectives, extras ('eq', 'neq', 'neg')."""

    quantifiers: frozenset[str]
    connectives: frozenset[str]
    extras: frozenset[str]

    def __str__(self) -> str:
        symbols = {"exists": "E", "forall": "A", "and": "&", "or": "|",
                   "eq": "=", "neq": "!=", "neg": "~"}
        parts = [symbols[q] for q in sorted(self.quantifiers)]
        parts += [symbols[c] for c in sorted(self.connectives)]
        parts += [symbols[e] for e in sorted(self.extras)]
        return "{" + ",".join(parts) + "}"


def fragment_of(formula: Formula) -> FragmentKey:
    """Minimal symbol budget covering an NNF formula."""
    quantifiers: set[str] = set()
    connectives: set[str] = set()
    extras: set[str] = set()
    nodes = walk(formula)
    for node, _ in nodes:
        kind = type(node)
        if kind is Quant:
            quantifiers.add(node.kind)
        elif kind is And:
            connectives.add("and")
        elif kind is Or:
            connectives.add("or")
        elif kind is Eq:
            extras.add("eq")
        elif kind is Not:
            child = type(node.child)
            if child is Eq:
                extras.add("neq")
            elif child is Rel:
                extras.add("neg")
            else:
                raise FormulaError("fragment_of expects an NNF formula")
            next(nodes)  # the negated atom: counted as "neq" or "neg" already
        elif kind not in (Rel, Top, Bottom):
            raise FormulaError(f"unknown node {node!r}")
    return FragmentKey(frozenset(quantifiers), frozenset(connectives), frozenset(extras))


# -- normal forms ----------------------------------------------------------------

def rebuild(node: Formula,
            visit: Callable[[Formula], Optional[Formula]]) -> Formula:
    """``visit(node)`` when that is not None; otherwise a copy of ``node``
    whose children are rebuilt the same way.  Leaves come back as they are.
    """
    out = visit(node)
    if out is not None:
        return out
    if isinstance(node, (Top, Bottom, Rel, Eq)):
        return node
    if isinstance(node, Not):
        return Not(rebuild(node.child, visit))
    if isinstance(node, And):
        return And(tuple(rebuild(c, visit) for c in node.children))
    if isinstance(node, Or):
        return Or(tuple(rebuild(c, visit) for c in node.children))
    if isinstance(node, Quant):
        return Quant(node.kind, node.var, node.restriction, rebuild(node.body, visit))
    raise FormulaError(f"unknown node {node!r}")


def to_nnf(formula: Formula) -> Formula:
    """Push negation to the atoms; quantifiers flip, restrictions carry over."""
    return rebuild(formula, _push_negation)


def _push_negation(node: Formula) -> Optional[Formula]:
    """The NNF of a negation above a non-atom; None for any other node."""
    if not isinstance(node, Not):
        return None
    child = node.child
    if isinstance(child, Top):
        return BOTTOM
    if isinstance(child, Bottom):
        return TOP
    if isinstance(child, Not):
        return rebuild(child.child, _push_negation)
    if isinstance(child, And):
        return Or(tuple(rebuild(Not(c), _push_negation) for c in child.children))
    if isinstance(child, Or):
        return And(tuple(rebuild(Not(c), _push_negation) for c in child.children))
    if isinstance(child, Quant):
        flipped = "forall" if child.kind == "exists" else "exists"
        return Quant(flipped, child.var, child.restriction,
                     rebuild(Not(child.body), _push_negation))
    return None


def dualize(formula: Formula) -> Formula:
    """The dual sentence: NNF of the negation with every relational atom's
    polarity flipped.

    Equality atoms keep their polarity (equality is not complemented along
    with the structure).  Contract: S satisfies the input iff the complement
    of S falsifies the output.
    """
    return rebuild(to_nnf(Not(formula)), _flip_relations)


def _flip_relations(node: Formula) -> Optional[Formula]:
    if isinstance(node, Rel):
        return Not(node)
    if isinstance(node, Not):
        if isinstance(node.child, Rel):
            return node.child
        if isinstance(node.child, Eq):
            return node
        raise FormulaError("dualize expects NNF after negation")
    return None


def relativise(formula: Formula, U: Iterable[int], X: Iterable[int],
               mode: str = "both") -> Formula:
    """Attach restriction sets to quantifiers.

    ``mode`` is one of ``universalOnly``, ``existentialOnly``, ``both``.
    Pre-existing restrictions are intersected; an empty intersection is an
    error.  Expects NNF (negation below quantifiers is fine either way, but
    the fragment transforms all operate on NNF).
    """
    if mode not in ("universalOnly", "existentialOnly", "both"):
        raise FomcError(f"unknown relativisation mode {mode!r}")
    U = frozenset(U)
    X = frozenset(X)
    if mode in ("universalOnly", "both") and not U:
        raise FomcError("empty universal restriction")
    if mode in ("existentialOnly", "both") and not X:
        raise FomcError("empty existential restriction")

    def restrict(node: Formula) -> Optional[Formula]:
        if not isinstance(node, Quant):
            return None
        restriction = node.restriction
        wanted = None
        if node.kind == "forall" and mode in ("universalOnly", "both"):
            wanted = U
        if node.kind == "exists" and mode in ("existentialOnly", "both"):
            wanted = X
        if wanted is not None:
            restriction = wanted if restriction is None else restriction & wanted
            if not restriction:
                raise FomcError(
                    f"restriction of {node.var!r} became empty")
        return Quant(node.kind, node.var, restriction, rebuild(node.body, restrict))

    return rebuild(formula, restrict)


# -- canonical sentences -----------------------------------------------------------

DEFAULT_NODE_BUDGET = 10 ** 6

CANONICAL_FRAGMENTS = ("pp", "pp-neq", "eqfree-neg", "pos-eqfree")


def positive_facts(structure: "Structure", elements: Sequence[int],
                   variables: Sequence[str]) -> list[Formula]:
    """Atoms over ``variables`` mirroring every fact the corresponding
    ``elements`` satisfy; index tuples run lexicographically."""
    atoms: list[Formula] = []
    l = len(elements)
    for sym, arity in structure.signature.symbols:
        rel = structure.relation(sym)
        for idx in itertools.product(range(l), repeat=arity):
            if tuple(elements[i] for i in idx) in rel:
                atoms.append(Rel(sym, tuple(variables[i] for i in idx)))
    return atoms


def negative_facts(structure: "Structure", elements: Sequence[int],
                   variables: Sequence[str]) -> list[Formula]:
    """Negated atoms for every fact the ``elements`` fail: the positive
    facts of the complement, in the same order."""
    return [Not(a) for a in positive_facts(structure.complement(), elements, variables)]


def canonical_sentence(structure: "Structure", fragment: str,
                       m: Optional[int] = None,
                       budget: int = DEFAULT_NODE_BUDGET) -> Formula:
    """The fragment's canonical sentence for ``structure``.

    pp         : existential conjunction of all positive facts.
    pp-neq     : pp plus pairwise disequalities (forces injectivity).
    eqfree-neg : positive and negative facts plus a universal clause saying
                 every element is interchangeable with some witness.
    pos-eqfree : the two-block sentence whose models are exactly the targets
                 of surjective hyper-morphisms from ``structure``; ``m`` is
                 the universal block width (callers pass the intended target
                 size).

    ``budget`` bounds the fact scan, the index tuples whose facts the
    sentence is built from; a larger scan raises ``BudgetExceededError``
    before anything is built.
    """
    if fragment not in CANONICAL_FRAGMENTS:
        raise FomcError(f"unknown canonical fragment {fragment!r}")
    n = structure.size
    arities = [arity for _, arity in structure.signature.symbols]
    if fragment == "pos-eqfree":
        if m is None or m < 1:
            raise FomcError("pos-eqfree needs a universal block width m >= 1")
        cost = (n ** m) * max(sum((n + m) ** a for a in arities), 1)
    else:
        cost = sum(n ** a for a in arities) * (2 if fragment == "eqfree-neg" else 1)
    if cost > budget:
        raise BudgetExceededError(f"canonical sentence would need about {cost} atoms")
    vs = [f"v{i}" for i in range(n)]
    elements = list(range(n))
    if fragment == "pp":
        return exists_block(vs, conj(positive_facts(structure, elements, vs)))
    if fragment == "pp-neq":
        atoms = positive_facts(structure, elements, vs)
        atoms += [Not(Eq(vs[i], vs[j]))
                  for i in range(n) for j in range(i + 1, n)]
        return exists_block(vs, conj(atoms))
    if fragment == "eqfree-neg":
        atoms = positive_facts(structure, elements, vs) + \
            negative_facts(structure, elements, vs)
        clauses = [sim_formula(structure.signature, "w", v) for v in vs]
        body = conj(atoms + [Quant("forall", "w", None, disj(clauses))])
        return exists_block(vs, body)
    return _two_block(structure, (), [], m)


def _two_block(structure: "Structure", head: Sequence[int], head_names: Sequence[str],
               m: int) -> Formula:
    """The sentence exists v0..v(n-1) forall w0..w(m-1) over a structure of
    size n.  The ``head`` elements are named ``head_names`` (free in the
    result) and the domain is named by the v.  The body is the positive facts
    of head and domain, and a disjunction with one conjunct per map of the w
    into the domain: the positive facts of head, domain and w under it."""
    n = structure.size
    vs = [f"v{i}" for i in range(n)]
    ws = [f"w{i}" for i in range(m)]
    elements = [*head, *range(n)]
    names = [*head_names, *vs]
    disjuncts = [conj(positive_facts(structure, elements + list(t), names + ws))
                 for t in itertools.product(range(n), repeat=m)]
    return exists_block(vs, conj(positive_facts(structure, elements, names)
                                 + [forall_block(ws, disj(disjuncts))]))


def sim_formula(signature: "Signature", x: str, y: str) -> Formula:
    """Interchangeability of ``x`` and ``y``: for every symbol and every
    coordinate, membership with the other coordinates universally quantified
    is a biconditional, expanded as (P and Q) or (not P and not Q)."""
    conjuncts: list[Formula] = []
    for sym, arity in signature.symbols:
        zs = _fresh_names("z", arity - 1, avoid={x, y})
        pieces = []
        for i in range(arity):
            args_x = tuple(zs[:i]) + (x,) + tuple(zs[i:])
            args_y = tuple(zs[:i]) + (y,) + tuple(zs[i:])
            p = Rel(sym, args_x)
            q = Rel(sym, args_y)
            pieces.append(Or((And((p, q)), And((Not(p), Not(q))))))
        conjuncts.append(forall_block(zs, conj(pieces)))
    return conj(conjuncts)


def _fresh_names(prefix: str, count: int, avoid: set[str]) -> list[str]:
    names = []
    i = 0
    while len(names) < count:
        candidate = f"{prefix}{i}"
        if candidate not in avoid:
            names.append(candidate)
        i += 1
    return names


def defining_formula(structure: "Structure", relation: Iterable[Sequence[int]],
                     arity: int, budget: int = DEFAULT_NODE_BUDGET) -> Optional[Formula]:
    """A positive equality-free definition of ``relation`` over ``structure``,
    or None when one cannot exist.

    Definability holds exactly when every surjective hyper-endomorphism
    preserves the relation; the formula is then a disjunction over the
    relation's tuples of two-block sentences with free variables u1..u_arity.
    """
    from .shops import enumerate_she

    tuples = sorted(tuple(t) for t in relation)
    for t in tuples:
        if len(t) != arity or any(not (0 <= e < structure.size) for e in t):
            raise FomcError(f"bad relation tuple {t}")
    she = enumerate_she(structure)
    rel_set = frozenset(tuples)
    for f in she:
        for t in rel_set:
            images = [sorted(f.image(e)) for e in t]
            for combo in itertools.product(*images):
                if combo not in rel_set:
                    return None
    if not tuples:
        return BOTTOM

    n = structure.size
    us = [f"u{i + 1}" for i in range(arity)]
    cost = len(tuples) * (n ** n) * sum(
        (arity + 2 * n) ** a for _, a in structure.signature.symbols)
    if cost > budget:
        raise BudgetExceededError(f"defining formula would need about {cost} atoms")
    return disj([_two_block(structure, r, us, n) for r in tuples])


# -- parser ----------------------------------------------------------------------

# A token is a name or keyword, an element, an operator or, in the second
# group, any other non-blank character, which no sentence may contain; only
# blanks are left between the matches.
_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*|\d+|!=|[().,&|~={}])|(\S)")
_KEYWORDS = {"forall", "exists", "in", "true", "false"}


def _is_name(token: str) -> bool:
    return token[:1].isalpha() and token not in _KEYWORDS


class _Parser:
    """Recursive descent over the token strings of ``text``; the empty string
    ends the input."""

    def __init__(self, text: str):
        self.text = text
        parts = _TOKEN.split(text)
        strays = parts[2::3]
        if any(strays):
            index = next(i for i, char in enumerate(strays) if char)
            raise self.error(f"unexpected character {strays[index]!r}", index)
        self.tokens = parts[1::3]
        self.tokens.append("")
        self.pos = 0

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at the line and column of token ``index``."""
        match = next(itertools.islice(_TOKEN.finditer(self.text), index, None), None)
        offset = len(self.text) if match is None else match.start()
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, line_start) + 1,
                          offset - line_start + 1)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str, message: str) -> None:
        if self.next() != token:
            raise self.error(message, self.pos - 1)

    def take(self, valid: Callable[[str], bool], what: str) -> str:
        token = self.next()
        if not valid(token):
            raise self.error(f"expected {what}, found {token or 'end of input'!r}",
                             self.pos - 1)
        return token

    def element(self) -> int:
        token = self.take(str.isdigit, "an element")
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            raise self.error(f"element with {len(token)} digits is too large",
                             self.pos - 1) from None

    def formula(self) -> Formula:
        if self.peek() in ("forall", "exists"):
            return self.quantified()
        return self.disjunction()

    def quantified(self) -> Formula:
        kind = self.next()
        var = self.take(_is_name, "a variable")
        restriction = None
        if self.peek() == "in":
            self.next()
            self.expect("{", "expected '{'")
            elems = [self.element()]
            while self.peek() == ",":
                self.next()
                elems.append(self.element())
            self.expect("}", "expected '}'")
            restriction = frozenset(elems)
        self.expect(".", "expected '.' after quantifier")
        return Quant(kind, var, restriction, self.formula())

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unit()]
        while self.peek() == "&":
            self.next()
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unit(self) -> Formula:
        token = self.peek()
        if token == "~":
            self.next()
            return Not(self.unit())
        if token == "(":
            self.next()
            inner = self.formula()
            self.expect(")", "expected ')'")
            return inner
        if token == "true":
            self.next()
            return TOP
        if token == "false":
            self.next()
            return BOTTOM
        if _is_name(token):
            return self.atom()
        raise self.error(f"unexpected token {token!r}", self.pos)

    def atom(self) -> Formula:
        first = self.next()
        token = self.peek()
        if token == "(":
            self.next()
            args = [self.take(_is_name, "a variable")]
            while self.peek() == ",":
                self.next()
                args.append(self.take(_is_name, "a variable"))
            self.expect(")", "expected ')'")
            return Rel(first, tuple(args))
        if token == "=":
            self.next()
            return Eq(first, self.take(_is_name, "a variable"))
        if token == "!=":
            self.next()
            return Not(Eq(first, self.take(_is_name, "a variable")))
        raise self.error(f"expected an atom after {first!r}", self.pos)


def parse_formula(text: str, signature: Optional["Signature"] = None,
                  domain_size: Optional[int] = None) -> Formula:
    parser = _Parser(text)
    formula = parser.formula()
    trailing = parser.peek()
    if trailing:
        raise parser.error(f"unexpected trailing input {trailing!r}", parser.pos)
    try:
        check_formula(formula, signature, domain_size)
    except FormulaError as exc:
        raise ParseError(str(exc)) from exc
    return formula


def render_formula(formula: Formula) -> str:
    """Inverse of the parser; parse(render(f)) is structurally f."""

    def render(node: Formula, parent: str) -> str:
        if isinstance(node, Top):
            return "true"
        if isinstance(node, Bottom):
            return "false"
        if isinstance(node, Rel):
            return f"{node.symbol}({', '.join(node.args)})"
        if isinstance(node, Eq):
            return f"{node.left} = {node.right}"
        if isinstance(node, Not):
            if isinstance(node.child, Eq):
                return f"{node.child.left} != {node.child.right}"
            if isinstance(node.child, (Rel, Top, Bottom, Not)):
                return "~" + render(node.child, "not")
            return "~(" + render(node.child, "top") + ")"
        if isinstance(node, And):
            text = " & ".join(render(c, "and") for c in node.children)
            return f"({text})" if parent in ("and", "not") else text
        if isinstance(node, Or):
            text = " | ".join(render(c, "or") for c in node.children)
            return f"({text})" if parent in ("and", "or", "not") else text
        if isinstance(node, Quant):
            if node.restriction is not None:
                elems = ", ".join(str(e) for e in sorted(node.restriction))
                head = f"{node.kind} {node.var} in {{{elems}}}"
            else:
                head = f"{node.kind} {node.var}"
            text = f"{head}. {render(node.body, 'top')}"
            return f"({text})" if parent != "top" else text
        raise FormulaError(f"unknown node {node!r}")

    return render(formula, "top")
