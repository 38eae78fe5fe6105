"""Independent oracles for the benchmark's expected answers.

Nothing here imports the program: each oracle works on the benchmark's own
input representation (``gen.Plain``, ``gen.NaeSentence`` and the tuple ASTs
of the sentence family) or on rendered program output, so an answer the
program gets wrong cannot also be wrong here for the same reason.
"""

from __future__ import annotations

import itertools
import re

from gen import NaeSentence, Plain


def bit_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def preserves(images: tuple[int, ...], s: Plain) -> bool:
    """Every tuple's image product lies inside its relation."""
    for _, _, ts in s.rels:
        for t in ts:
            for combo in itertools.product(*(bit_list(images[a]) for a in t)):
                if combo not in ts:
                    return False
    return True


def all_shops(n: int):
    full = (1 << n) - 1
    for images in itertools.product(range(1, full + 1), repeat=n):
        covered = 0
        for m in images:
            covered |= m
        if covered == full:
            yield images


def preserving_shops(s: Plain) -> list[tuple[int, ...]]:
    """Brute force over every shop on the domain (n <= 4 is quick)."""
    return [f for f in all_shops(s.size) if preserves(f, s)]


def has_a_shop(images, n: int) -> bool:
    return any(m == (1 << n) - 1 for m in images)


def has_e_shop(images) -> bool:
    meet = -1
    for m in images:
        meet &= m
    return meet != 0


LABELS = {(True, True): "L", (True, False): "NP-complete",
          (False, True): "coNP-complete", (False, False): "Pspace-complete"}


def brute_force_label(s: Plain) -> str:
    """Four-way label from the definition: an A-shop (some image is the
    whole domain) and/or an E-shop (some element in every image)."""
    a = e = False
    for f in all_shops(s.size):
        if (a or not has_a_shop(f, s.size)) and (e or not has_e_shop(f)):
            continue
        if preserves(f, s):
            a = a or has_a_shop(f, s.size)
            e = e or has_e_shop(f)
            if a and e:
                break
    return LABELS[(a, e)]


def three_colourable(g: Plain) -> bool:
    n = g.size
    adj = [set() for _ in range(n)]
    for a, b in g.rel("E"):
        adj[a].add(b)
    colour = [-1] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for c in range(3):
            if all(colour[w] != c for w in adj[v]):
                colour[v] = c
                if rec(v + 1):
                    return True
        colour[v] = -1
        return False

    return rec(0)


def qbf_nae(sentence: NaeSentence) -> bool:
    """Game-tree search over the Boolean prefix; a clause is tested as soon
    as its last variable is set, so violated branches are cut early."""
    order = [v for _, v in sentence.prefix]
    pos = {v: i for i, v in enumerate(order)}
    due: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for clause in sentence.clauses:
        due[max(pos[v] for v in clause)].append(clause)
    value: dict[str, int] = {}

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        kind, var = sentence.prefix[i]
        for b in (0, 1):
            value[var] = b
            ok = all(len({value[x] for x in c}) > 1 for c in due[i]) and rec(i + 1)
            if kind == "exists" and ok:
                return True
            if kind == "forall" and not ok:
                return False
        return kind == "forall"

    return rec(0)


def eval_family(s: Plain, node: tuple, env: dict | None = None) -> bool:
    """Reference evaluator for the family's tuple ASTs."""
    env = {} if env is None else env
    tag = node[0]
    if tag == "rel":
        return tuple(env[v] for v in node[2]) in s.rel(node[1])
    if tag == "eq":
        return env[node[1]] == env[node[2]]
    if tag == "not":
        return not eval_family(s, node[1], env)
    if tag == "and":
        return eval_family(s, node[1], env) and eval_family(s, node[2], env)
    if tag == "or":
        return eval_family(s, node[1], env) or eval_family(s, node[2], env)
    _, kind, var, body = node
    test = any if kind == "exists" else all
    return test(eval_family(s, body, {**env, var: v}) for v in range(s.size))


def eval_ast(s: Plain, node, env: dict | None = None) -> bool:
    """Reference evaluator for the program's formula objects, read only
    through their public fields."""
    env = {} if env is None else env
    kind = type(node).__name__
    if kind == "Top":
        return True
    if kind == "Bottom":
        return False
    if kind == "Rel":
        return tuple(env[v] for v in node.args) in s.rel(node.symbol)
    if kind == "Eq":
        return env[node.left] == env[node.right]
    if kind == "Not":
        return not eval_ast(s, node.child, env)
    if kind == "And":
        return all(eval_ast(s, c, env) for c in node.children)
    if kind == "Or":
        return any(eval_ast(s, c, env) for c in node.children)
    if kind == "Quant":
        values = sorted(node.restriction) if node.restriction is not None else range(s.size)
        test = any if node.kind == "exists" else all
        return test(eval_ast(s, node.body, {**env, node.var: v}) for v in values)
    raise ValueError(f"unknown node {kind}")


def compose(g: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for m in f:
        img = 0
        for a in bit_list(m):
            img |= g[a]
        out.append(img)
    return tuple(out)


def sub_shops(f: tuple[int, ...]):
    full = 0
    for m in f:
        full |= m
    choices = [[s for s in range(1, m + 1) if s & ~m == 0] for m in f]
    for combo in itertools.product(*choices):
        covered = 0
        for m in combo:
            covered |= m
        if covered == full:
            yield combo


def dsm_closure(generators, n: int) -> frozenset:
    """Naive fixpoint: identity plus generators, closed under composition
    and sub-shops."""
    members = set(sub_shops(tuple(1 << a for a in range(n))))
    for g in generators:
        members |= set(sub_shops(g))
    while True:
        fresh = set()
        for f in members:
            for g in members:
                h = compose(g, f)
                if h not in members:
                    fresh |= set(sub_shops(h))
        fresh -= members
        if not fresh:
            return frozenset(members)
        members |= fresh


_ENTRY = re.compile(r"(\d+)->\{([\d,]*)\}")


def parse_shop_text(text: str) -> tuple[int, ...]:
    """Read the program's ``0->{0,1};1->{1}`` rendering."""
    entries = dict((int(a), sum(1 << int(b) for b in body.split(",") if b))
                   for a, body in _ENTRY.findall(text))
    return tuple(entries[a] for a in range(len(entries)))


def is_shop(images: tuple[int, ...], n: int) -> bool:
    covered = 0
    for m in images:
        covered |= m
    return len(images) == n and all(images) and covered == (1 << n) - 1


def check_verdict(s: Plain, verdict_json: dict) -> list[str]:
    """Re-check every witness shop a pos-eqfree verdict reports; returns
    the list of problems (empty when the evidence holds)."""
    n = s.size
    ev = verdict_json["evidence"]
    problems = []

    def shop(key):
        f = parse_shop_text(ev[key])
        if not is_shop(f, n) or not preserves(f, s):
            problems.append(f"{key} is not a preserving shop")
        return f

    label = verdict_json["class"]
    if label == "L" and "uxShop" in ev:
        f = shop("uxShop")
        if f[ev["u"]] != (1 << n) - 1 or any(not m >> ev["x"] & 1 for m in f):
            problems.append("uxShop is not a {u}-{x}-shop")
        return problems
    if ev.get("aShop") is not None:
        f = shop("aShop")
        if f[ev["aElement"]] != (1 << n) - 1:
            problems.append("aShop misses the whole domain at aElement")
    if ev.get("eShop") is not None:
        f = shop("eShop")
        if any(not m >> ev["eElement"] & 1 for m in f):
            problems.append("eShop misses eElement in some image")
    want_a = label in ("L", "NP-complete")
    want_e = label in ("L", "coNP-complete")
    if (ev.get("aShop") is not None) != want_a or (ev.get("eShop") is not None) != want_e:
        problems.append("witnesses do not match the label")
    return problems


def check_ux_core(s: Plain, core: dict) -> list[str]:
    """The reported core is the substructure induced on U | X and its
    canonical shop is a preserving U-X-shop of it."""
    keep = sorted(set(core["U"]) | set(core["X"]))
    index = {a: i for i, a in enumerate(keep)}
    rels = tuple((sym, arity, frozenset(tuple(index[a] for a in t) for t in ts
                                        if all(a in index for a in t)))
                 for sym, arity, ts in s.rels)
    sub = Plain("core", len(keep), rels)
    f = parse_shop_text(core["canonical"])
    n = len(keep)
    problems = []
    if core["size"] != n or not is_shop(f, n) or not preserves(f, sub):
        problems.append("canonical shop does not preserve the induced core")
    cu = [index[u] for u in core["U"]]
    cx = sum(1 << index[x] for x in core["X"])
    union = 0
    for u in cu:
        union |= f[u]
    if union != (1 << n) - 1 or any(m & cx == 0 for m in f):
        problems.append("canonical shop is not U-surjective and X-total")
    return problems


def check_retraction(s: Plain, core: dict) -> list[str]:
    """The retraction is a homomorphism from the input onto the reported
    core, and the core is an induced substructure of the input."""
    k = core["size"]
    core_ts = {sym: frozenset(map(tuple, ts)) for sym, ts in core["rels"].items()}
    problems = []
    r = core["retraction"]
    for sym, _, ts in s.rels:
        if any(tuple(r[a] for a in t) not in core_ts[sym] for t in ts):
            problems.append("retraction is not a homomorphism onto the core")
            break
    for keep in itertools.combinations(range(s.size), k):
        index = {a: i for i, a in enumerate(keep)}
        if all(frozenset(tuple(index[a] for a in t) for t in ts
                         if all(a in index for a in t)) == core_ts[sym]
               for sym, _, ts in s.rels):
            return problems
    problems.append("core is not an induced substructure of the input")
    return problems


def all_hyper_maps(n: int, m: int):
    """Every total surjective hyper-operation from n elements onto m."""
    full = (1 << m) - 1
    for images in itertools.product(range(1, full + 1), repeat=n):
        covered = 0
        for x in images:
            covered |= x
        if covered == full:
            yield images


def preserves_into(images, source: Plain, target: Plain) -> bool:
    """Hyper-morphism check: each source tuple's image product lies in the
    target relation of the same symbol."""
    for sym, _, ts in source.rels:
        out = target.rel(sym)
        for t in ts:
            for combo in itertools.product(*(bit_list(images[a]) for a in t)):
                if combo not in out:
                    return False
    return True
