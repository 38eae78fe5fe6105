"""Model checking: game-style evaluation, traces, containment, relativisation
checks and sentence sampling.

``evaluate`` compiles a sentence before it runs it: one pre-order walk checks
the sentence as ``check_formula`` does and turns every node into a closure
over a list of variable slots, with each quantifier's range precomputed.  The
compiled sentence then plays the game once: existential quantifiers look for
one good element of their range, universal ones demand all of it, and the
range is the quantifier's restriction set when present.  Traces
(``evaluate_with_trace``) are built by plain recursive descent; they record the
witnessing choices on the winning side and can be replayed to re-derive the
verdict, which makes them the slow oracle for ``evaluate``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .errors import BudgetExceededError, FomcError, FormulaError
from .formulas import (And, Bottom, Eq, Formula, Not, Or, Quant, Rel, Top,
                       check_formula, relativise, render_formula)
from .structures import Structure, are_isomorphic, find_morphism, quotient_by_sim

CONTAINMENT_FRAGMENTS = ("pp", "pp-neq", "eqfree-neg", "pos-eqfree")


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("evaluation budget exhausted")


def _quantifier_range(structure: Structure, node: Quant) -> Iterable[int]:
    if node.restriction is None:
        return range(structure.size)
    return sorted(node.restriction)


def evaluate(structure: Structure, formula: Formula,
             budget: Optional[int] = None,
             _free: Optional[dict[str, int]] = None) -> bool:
    """Truth of a sentence over a structure.

    ``budget`` bounds the work in nodes visited: each visit of a node, every
    time the game reaches it, spends one unit, and running out raises
    ``BudgetExceededError``.  ``_free`` supplies values for free variables
    (used by the defining-formula machinery); ordinary callers evaluate
    closed sentences.
    """
    free = _free or {}
    spend = None if budget is None else _Budget(budget).spend
    program, width = _compile(structure, formula, free, spend)
    return program(list(free.values()) + [0] * (width - len(free)))


# a compiled node: its truth under the slot environment
_Closure = Callable[[list[int]], bool]


def _compile(structure: Structure, formula: Formula, free: dict[str, int],
             spend: Optional[Callable[[], None]]) -> tuple[_Closure, int]:
    """Check ``formula`` and compile it in one pre-order walk.

    The checks, their order and their messages are those of ``check_formula``
    with the structure's signature and size and ``free`` allowed.  Each node
    becomes a closure over a list environment: the free variables take the
    first slots and a quantifier at nesting depth d the slot after them plus
    d.  Returns the root closure and the number of slots.  With ``spend``,
    every closure calls it once on entry.
    """
    arities = dict(structure.signature.symbols)
    relations = structure.relations
    size = structure.size
    everything = tuple(range(size))
    # the innermost binding of every variable in scope, free ones included
    slots = {name: i for i, name in enumerate(free)}
    bound: set[str] = set()
    base = width = len(slots)

    def unbound(names: Iterable[str]) -> FormulaError:
        var = next(v for v in names if v not in slots)
        return FormulaError(f"unbound variable {var!r}")

    # relation atoms over the same slots share one closure (canonical
    # sentences repeat a few dozen atoms thousands of times)
    atoms: dict[tuple, _Closure] = {}

    def comp(node: Formula, depth: int) -> _Closure:
        nonlocal width
        kind = type(node)
        if kind is Rel:
            args = node.args
            arity = arities.get(node.symbol)
            if arity is None:
                raise FormulaError(f"unknown relation symbol {node.symbol!r}")
            if arity != len(args):
                raise FormulaError(f"arity mismatch for {node.symbol!r}: got {len(args)}")
            try:
                key = (node.symbol, itemgetter(*args)(slots))
            except KeyError:
                raise unbound(args) from None
            fn = atoms.get(key)
            if fn is None:
                fn = _relation(relations[node.symbol], key[1])
                fn = atoms[key] = fn if spend is None else _counted(fn, spend)
            return fn
        if kind is Eq:
            try:
                i, j = slots[node.left], slots[node.right]
            except KeyError:
                raise unbound((node.left, node.right)) from None
            fn = _equality(i, j)
        elif kind is Not:
            fn = _negation(comp(node.child, depth))
        elif kind is And or kind is Or:
            children = node.children
            if len(children) == 2:
                fn = (_both if kind is And else _either)(comp(children[0], depth),
                                                         comp(children[1], depth))
            else:
                children = [comp(c, depth) for c in children]
                fn = (_conjunction if kind is And else _disjunction)(children)
        elif kind is Quant:
            if node.var in bound:
                raise FormulaError(f"shadowed variable {node.var!r}")
            if node.restriction is None:
                values = everything
            else:
                if any(not (0 <= e < size) for e in node.restriction):
                    raise FormulaError("restriction outside the domain")
                values = tuple(sorted(node.restriction))
            at = base + depth
            if at >= width:
                width = at + 1
            outer = slots.get(node.var)
            slots[node.var] = at
            bound.add(node.var)
            body = comp(node.body, depth + 1)
            bound.remove(node.var)
            if outer is None:
                del slots[node.var]
            else:
                slots[node.var] = outer
            fn = (_exists if node.kind == "exists" else _forall)(at, values, body)
        elif kind is Top:
            fn = _true
        elif kind is Bottom:
            fn = _false
        else:
            raise FormulaError(f"unknown node {node!r}")
        return fn if spend is None else _counted(fn, spend)

    program = comp(formula, 0)
    return program, width


def _relation(tuples: frozenset[tuple[int, ...]], at) -> _Closure:
    """Membership of the slots ``at`` (one index or a tuple of them)."""
    if isinstance(at, int):
        return lambda env: (env[at],) in tuples
    get = itemgetter(*at)
    return lambda env: get(env) in tuples


def _equality(i: int, j: int) -> _Closure:
    return lambda env: env[i] == env[j]


def _negation(child: _Closure) -> _Closure:
    return lambda env: not child(env)


def _both(first: _Closure, second: _Closure) -> _Closure:
    return lambda env: first(env) and second(env)


def _either(first: _Closure, second: _Closure) -> _Closure:
    return lambda env: first(env) or second(env)


def _true(env: list[int]) -> bool:
    return True


def _false(env: list[int]) -> bool:
    return False


def _conjunction(children: list[_Closure]) -> _Closure:
    def run(env):
        for child in children:
            if not child(env):
                return False
        return True
    return run


def _disjunction(children: list[_Closure]) -> _Closure:
    def run(env):
        for child in children:
            if child(env):
                return True
        return False
    return run


def _exists(at: int, values: tuple[int, ...], body: _Closure) -> _Closure:
    def run(env):
        for v in values:
            env[at] = v
            if body(env):
                return True
        return False
    return run


def _forall(at: int, values: tuple[int, ...], body: _Closure) -> _Closure:
    def run(env):
        for v in values:
            env[at] = v
            if not body(env):
                return False
        return True
    return run


def _counted(fn: _Closure, spend: Callable[[], None]) -> _Closure:
    def run(env):
        spend()
        return fn(env)
    return run


# -- traces ---------------------------------------------------------------------

@dataclass(frozen=True)
class TraceNode:
    """One node of a strategy tree.

    ``choice`` is the winning side's pick (an element for quantifiers, a child
    index for connectives); ``branches`` maps the opposing side's moves to
    sub-traces.
    """

    kind: str
    choice: Optional[int] = None
    child: Optional["TraceNode"] = None
    branches: tuple[tuple[int, "TraceNode"], ...] = ()


@dataclass(frozen=True)
class EvalTrace:
    value: bool
    root: TraceNode


def evaluate_with_trace(structure: Structure, formula: Formula) -> tuple[bool, EvalTrace]:
    """Evaluate and record a replayable strategy for the winning side."""
    env: dict[str, int] = {}
    check_formula(formula, structure.signature, structure.size)

    def rec(node: Formula, want: bool) -> Optional[TraceNode]:
        """Trace proving the node evaluates to ``want``, else None."""
        if isinstance(node, Top):
            return TraceNode("atom") if want else None
        if isinstance(node, Bottom):
            return None if want else TraceNode("atom")
        if isinstance(node, (Rel, Eq)):
            if isinstance(node, Rel):
                value = tuple(env[v] for v in node.args) in structure.relation(node.symbol)
            else:
                value = env[node.left] == env[node.right]
            return TraceNode("atom") if value == want else None
        if isinstance(node, Not):
            sub = rec(node.child, not want)
            return TraceNode("not", child=sub) if sub is not None else None
        if isinstance(node, (And, Or)):
            picking = isinstance(node, Or) == want  # the winner picks a child
            if picking:
                for i, c in enumerate(node.children):
                    sub = rec(c, want)
                    if sub is not None:
                        return TraceNode("pick", choice=i, child=sub)
                return None
            branches = []
            for i, c in enumerate(node.children):
                sub = rec(c, want)
                if sub is None:
                    return None
                branches.append((i, sub))
            return TraceNode("all", branches=tuple(branches))
        if isinstance(node, Quant):
            values = _quantifier_range(structure, node)
            picking = (node.kind == "exists") == want
            if picking:
                for v in values:
                    env[node.var] = v
                    sub = rec(node.body, want)
                    del env[node.var]
                    if sub is not None:
                        return TraceNode("pick", choice=v, child=sub)
                return None
            branches = []
            for v in values:
                env[node.var] = v
                sub = rec(node.body, want)
                del env[node.var]
                if sub is None:
                    return None
                branches.append((v, sub))
            return TraceNode("all", branches=tuple(branches))
        raise FormulaError(f"unknown node {node!r}")

    trace = rec(formula, True)
    if trace is not None:
        return True, EvalTrace(True, trace)
    trace = rec(formula, False)
    if trace is None:
        raise FomcError("evaluation produced neither verdict")  # pragma: no cover
    return False, EvalTrace(False, trace)


def replay_trace(structure: Structure, formula: Formula, trace: EvalTrace) -> bool:
    """Re-derive the verdict from a trace; raises on any inconsistency."""
    env: dict[str, int] = {}

    def fail(msg: str):
        raise FomcError(f"trace replay failed: {msg}")

    def rec(node: Formula, tnode: TraceNode, want: bool):
        if isinstance(node, (Top, Bottom, Rel, Eq)):
            if tnode.kind != "atom":
                fail("expected an atom node")
            if isinstance(node, Top):
                value = True
            elif isinstance(node, Bottom):
                value = False
            elif isinstance(node, Rel):
                value = tuple(env[v] for v in node.args) in structure.relation(node.symbol)
            else:
                value = env[node.left] == env[node.right]
            if value != want:
                fail("atom verdict mismatch")
            return
        if isinstance(node, Not):
            if tnode.kind != "not" or tnode.child is None:
                fail("expected a negation node")
            rec(node.child, tnode.child, not want)
            return
        if isinstance(node, (And, Or)):
            picking = isinstance(node, Or) == want
            if picking:
                if tnode.kind != "pick" or tnode.child is None:
                    fail("expected a picked child")
                if not (0 <= tnode.choice < len(node.children)):
                    fail("child index out of range")
                rec(node.children[tnode.choice], tnode.child, want)
            else:
                if tnode.kind != "all":
                    fail("expected full branching")
                seen = dict(tnode.branches)
                if set(seen) != set(range(len(node.children))):
                    fail("branches must cover every child")
                for i, c in enumerate(node.children):
                    rec(c, seen[i], want)
            return
        if isinstance(node, Quant):
            values = list(_quantifier_range(structure, node))
            picking = (node.kind == "exists") == want
            if picking:
                if tnode.kind != "pick" or tnode.child is None:
                    fail("expected a picked element")
                if tnode.choice not in values:
                    fail("picked element outside the quantifier range")
                env[node.var] = tnode.choice
                rec(node.body, tnode.child, want)
                del env[node.var]
            else:
                if tnode.kind != "all":
                    fail("expected full branching")
                seen = dict(tnode.branches)
                if set(seen) != set(values):
                    fail("branches must cover the quantifier range")
                for v in values:
                    env[node.var] = v
                    rec(node.body, seen[v], want)
                    del env[node.var]
            return
        raise FormulaError(f"unknown node {node!r}")

    rec(formula, trace.root, trace.value)
    return trace.value


def trace_elements(trace: EvalTrace) -> frozenset[int]:
    """Every element mentioned anywhere in the trace."""
    out: set[int] = set()

    def rec(node: TraceNode):
        if node.kind == "pick" and node.choice is not None:
            out.add(node.choice)
        if node.child is not None:
            rec(node.child)
        for v, sub in node.branches:
            out.add(v)
            rec(sub)

    rec(trace.root)
    return frozenset(out)


# -- containment -------------------------------------------------------------------

def contained_in(small: Structure, large: Structure, fragment: str) -> bool:
    """Does every fragment sentence true on ``small`` hold on ``large``?

    Decided through the fragment's witness characterisation rather than by
    quantifying over sentences.
    """
    if small.signature != large.signature:
        raise FomcError("containment needs a shared signature")
    if fragment == "pp":
        return find_morphism(small, large, "homomorphism") is not None
    if fragment == "pp-neq":
        return find_morphism(small, large, "injective") is not None
    if fragment == "eqfree-neg":
        qa, _ = quotient_by_sim(small)
        qb, _ = quotient_by_sim(large)
        return are_isomorphic(qa, qb)
    if fragment == "pos-eqfree":
        return find_morphism(small, large, "surjectiveHyper") is not None
    raise FomcError(f"unsupported containment fragment {fragment!r}")


# -- sentence sampling ----------------------------------------------------------------

@dataclass
class SamplerConfig:
    """Knobs for the random sentence source; defaults stay inside positive
    equality-free logic."""

    max_depth: int = 4
    quantifier_weight: float = 0.5
    branch: int = 2
    allow_negation: bool = False
    allow_equality: bool = False


def sample_sentence(signature, rng: random.Random,
                    config: SamplerConfig | None = None) -> Formula:
    """One pseudorandom sentence; deterministic for a fixed seed and config."""
    cfg = config or SamplerConfig()
    if not signature.symbols:
        raise FomcError("cannot sample sentences over an empty signature")
    max_arity = max(arity for _, arity in signature.symbols)

    def atom(scope: list[str]) -> Formula:
        choices = ["rel"]
        if cfg.allow_equality and len(scope) >= 1:
            choices.append("eq")
        kind = rng.choice(choices)
        if kind == "eq":
            left, right = rng.choice(scope), rng.choice(scope)
            node: Formula = Eq(left, right)
        else:
            sym, arity = rng.choice(signature.symbols)
            node = Rel(sym, tuple(rng.choice(scope) for _ in range(arity)))
        if cfg.allow_negation and rng.random() < 0.35:
            node = Not(node)
        return node

    def gen(depth: int, scope: list[str]) -> Formula:
        need_vars = len(scope) < max_arity
        if depth <= 0 and not need_vars:
            return atom(scope)
        if need_vars or rng.random() < cfg.quantifier_weight:
            kind = rng.choice(("exists", "forall"))
            var = f"x{len(scope)}"
            return Quant(kind, var, None, gen(depth - 1, scope + [var]))
        connective = rng.choice(("and", "or"))
        children = tuple(gen(depth - 1, scope) for _ in range(cfg.branch))
        return And(children) if connective == "and" else Or(children)

    return gen(cfg.max_depth, [])


def enumerate_sentences(signature, max_height: int) -> Iterator[Formula]:
    """Every quantifier-rooted sentence up to an AST height, with at most two
    variables in scope; atoms come with their negations and equalities with
    their disequalities.

    The family is deterministic, which makes exhaustive duality and reduction
    sweeps reproducible.
    """
    atom_cache: dict[int, list[Formula]] = {}

    def atoms(scope_size: int) -> list[Formula]:
        if scope_size not in atom_cache:
            scope = [f"x{i}" for i in range(scope_size)]
            out: list[Formula] = []
            for sym, arity in signature.symbols:
                for combo in itertools.product(scope, repeat=arity):
                    out.append(Rel(sym, combo))
                    out.append(Not(Rel(sym, combo)))
            for a in scope:
                for b in scope:
                    out.append(Eq(a, b))
                    out.append(Not(Eq(a, b)))
            atom_cache[scope_size] = out
        return atom_cache[scope_size]

    level_cache: dict[tuple[int, int], list[Formula]] = {}

    def level(height: int, scope_size: int) -> list[Formula]:
        key = (height, scope_size)
        if key in level_cache:
            return level_cache[key]
        out = list(atoms(scope_size)) if scope_size else []
        if height > 0:
            if scope_size < 2:
                var_body = level(height - 1, scope_size + 1)
                for kind in ("exists", "forall"):
                    out.extend(Quant(kind, f"x{scope_size}", None, b)
                               for b in var_body)
            below = level(height - 1, scope_size)
            for left, right in itertools.product(below, repeat=2):
                out.append(And((left, right)))
                out.append(Or((left, right)))
        level_cache[key] = out
        return out

    # levels are cumulative (each contains everything of smaller height)
    for body in level(max_height - 1, 1):
        yield Quant("exists", "x0", None, body)
        yield Quant("forall", "x0", None, body)


# -- relativisation checking --------------------------------------------------------

RELATIVISATION_MODES = ("none", "universalOnly", "existentialOnly", "both")


@dataclass
class RelativisationReport:
    structure: str
    U: tuple[int, ...]
    X: tuple[int, ...]
    samples: int
    counterexamples: list[tuple[str, tuple[bool, bool, bool, bool]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_relativisation(structure: Structure, U: Iterable[int], X: Iterable[int],
                         samples: int = 200, seed: int = 0) -> RelativisationReport:
    """Compare evaluation across the four relativisation modes on sampled
    positive equality-free sentences; lists any disagreements."""
    if samples < 1:
        raise FomcError(f"need at least one sample, got {samples}")
    U = tuple(sorted(set(U)))
    X = tuple(sorted(set(X)))
    rng = random.Random(seed)
    report = RelativisationReport(structure.name or "structure", U, X, samples)
    for _ in range(samples):
        sentence = sample_sentence(structure.signature, rng)
        results = []
        for mode in RELATIVISATION_MODES:
            candidate = sentence if mode == "none" else relativise(sentence, U, X, mode)
            results.append(evaluate(structure, candidate))
        results = tuple(results)
        if len(set(results)) != 1:
            report.counterexamples.append((render_formula(sentence), results))
    return report
