"""Golden sentence transforms: sha256 digests of the rendered output of
``to_nnf``, ``dualize``, ``relativise``, the two QCSP-NAE reductions and the
``eqfree-neg`` canonical sentence, of what the read-only passes
``check_formula`` and ``fragment_of`` report, and of what ``parse_formula``
makes of a seeded corpus of texts, valid and not.

The transforms share one rebuild helper and the read-only passes one walk;
sharing them must not change a byte of any transformed sentence, nor any
error message, nor any first error or fragment, so these tests pin all of
them as the earlier hand-written recursions produced them.  The parser
digests pin each parsed sentence, or else each error's message, line and
column, as the character-by-character tokenizer reported them.  The
expected digests live in ``golden_formulas.json`` next to this file;
regenerate them only when a change of output is intended:

    PYTHONPATH=src python tests/test_formula_golden.py > tests/golden_formulas.json
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from fomc import (And, Eq, FomcError, Not, Or, Quant, Rel, canonical_sentence,
                  dualize, fragment_of, make_gadget,
                  parse_formula, reduce_nae_to_k2, reduce_qcsp_nae_to_gadget,
                  relativise, render_formula, to_nnf)
from fomc.evaluator import SamplerConfig, enumerate_sentences, sample_sentence
from fomc.formulas import check_formula, node_count, rebuild
from fomc.gadgets import GadgetSpec, clique
from fomc.structures import GRAPH_SIGNATURE, Signature

GOLDEN = Path(__file__).with_name("golden_formulas.json")

# hand-written sentences the enumerated family lacks: constants, double
# negation, negated quantifiers, restrictions, n-ary connectives
EXTRA = (
    "~true", "exists x. ~false & E(x,x)", "exists x. ~~E(x,x)",
    "~(forall x in {0, 2}. exists y in {1}. E(x,y) | x = y)",
    "forall x. ~(E(x,x) & ~(exists y. E(x,y) & E(y,x) & x != y))",
    "exists x in {1, 2}. forall y in {0, 1}. ~(E(x,y) | ~E(y,x) | y = x)",
)


def sentences() -> list:
    return list(enumerate_sentences(GRAPH_SIGNATURE, 3))


def nae_sentences() -> list:
    """Seeded prenex NAE sentences: 3 to 6 variables, some universal, up to
    two clauses per variable, repeats allowed within a clause."""
    rng = random.Random(5151)
    out = []
    for _ in range(40):
        names = [f"x{i}" for i in range(rng.randint(3, 6))]
        head = " ".join(f"{rng.choice(('forall', 'exists'))} {v}." for v in names)
        clauses = [f"NAE({', '.join(rng.choice(names) for _ in range(3))})"
                   for _ in range(rng.randint(1, 2 * len(names)))]
        out.append(parse_formula(f"{head} {' & '.join(clauses)}"))
    return out


MIXED_SIGNATURE = Signature.make(("P", 1), ("E", 2), ("R", 3))


def _fault(node, rng: random.Random):
    """``node`` with one seeded fault: an unbound name, an unknown symbol, a
    wrong arity, a shadowing or maybe-shadowing quantifier, or a restriction
    that may leave the domain."""
    if isinstance(node, Rel):
        fault = rng.choice(("unbound", "symbol", "arity"))
        args = list(node.args)
        if fault == "unbound":
            at = rng.randrange(max(len(args), 1))
            args[at:at + 1] = [rng.choice(("x0", "x5", "y"))]
            return Rel(node.symbol, tuple(args))
        if fault == "symbol":
            return Rel(rng.choice(("Q", "E", "P")), node.args)
        return Rel(node.symbol, tuple(args[1:] if rng.random() < 0.5 else args + args[:1]))
    if isinstance(node, Eq):
        return Eq(node.left, rng.choice(("x0", "x5", "y")))
    if isinstance(node, Quant):
        if rng.random() < 0.5:
            return Quant(node.kind, node.var, node.restriction,
                         Quant("forall", node.var, None, node.body))
        restriction = frozenset(rng.sample(range(7), rng.randint(1, 2)))
        return Quant(node.kind, node.var, restriction, node.body)
    return Quant("exists", rng.choice(("x0", "x1", "x2")), None, node)


def _mutate(formula, rng: random.Random):
    """``formula`` with a fault at one seeded node (pre-order position)."""
    target = rng.randrange(node_count(formula))
    position = iter(range(target + 1))
    return rebuild(formula, lambda node: (_fault(node, rng)
                                          if next(position, None) == target else None))


def checked_sentences() -> list:
    """Seeded sentences over P/1 E/2 R/3 with negation and equality, each
    followed by a copy with one to three seeded faults and, when it starts
    with a quantifier, by its body with that variable left free."""
    rng = random.Random(8080)
    out = []
    for _ in range(1000):
        cfg = SamplerConfig(max_depth=rng.randint(2, 5), allow_negation=True,
                            allow_equality=True, branch=rng.choice((2, 2, 3)))
        f = sample_sentence(MIXED_SIGNATURE, rng, cfg)
        out.append(f)
        mutated = f
        for _ in range(rng.randint(1, 3)):
            mutated = _mutate(mutated, rng)
        out.append(mutated)
        if isinstance(f, Quant):
            out.append(f.body)
    return out


# the argument sets the first-error digests run ``check_formula`` under
CHECK_ARGUMENTS = {
    "check_signature_2": ((MIXED_SIGNATURE, 2), {}),
    "check_unchecked": ((None, None), {}),
    "check_signature_5_free_x0": ((MIXED_SIGNATURE, 5), {"allow_free": ("x0",)}),
}


def _first_error(formula, args, kwargs) -> str:
    try:
        check_formula(formula, *args, **kwargs)
    except FomcError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _fragment(formula) -> str:
    try:
        return str(fragment_of(formula))
    except FomcError as exc:
        return f"{type(exc).__name__}: {exc}"


# what the parser corpus is made of: the characters and tokens of valid
# sentences and ones the grammar rejects, among them a non-ASCII letter and
# digit, "_" outside a name, "$", "!" without "=" and the control character
# \x1c, which counts as whitespace
PARSE_CHARS = "xyE01 \n\t(){},.&|~=!_$\u00e9\u0663\x1c"
PARSE_TOKENS = ("forall", "exists", "in", "true", "false", "x0", "x1", "y", "E", "F",
                "NAE", "x_1", "Ab9", "0", "1", "2", "007", "\u0663", "(", ")", "{",
                "}", ",", ".", "&", "|", "~", "=", "!=", "!", "_", "$", "\u00e9",
                "\x1c")
PARSE_BLANKS = ("", " ", " ", "  ", "\n", "\t", "\r\n", "\x1c")
RESTRICTIONS = ("{0}", "{1, 0}", "{0,2}", "{ 1 }", "{\u0663}", "{007}")

# the argument sets the parser digests run ``parse_formula`` under
PARSE_ARGUMENTS = {
    "parse_unchecked": (None, None),
    "parse_graph_2": (GRAPH_SIGNATURE, 2),
}


def _valid_text(rng: random.Random) -> str:
    """A sampled sentence over E/2 with equality and negation, some of its
    quantifiers restricted, its blanks drawn from PARSE_BLANKS."""
    cfg = SamplerConfig(max_depth=rng.randint(1, 4), allow_negation=True,
                        allow_equality=True)
    text = render_formula(sample_sentence(GRAPH_SIGNATURE, rng, cfg))
    text = re.sub(r"(forall|exists) (x\d+)\.",
                  lambda m: (f"{m[1]} {m[2]} in {rng.choice(RESTRICTIONS)}."
                             if rng.random() < 0.3 else m[0]), text)
    return "".join(word + rng.choice(PARSE_BLANKS[1:]) for word in text.split(" "))


def _edit(text: str, rng: random.Random) -> str:
    """``text`` with one seeded character or token inserted, deleted or
    replaced."""
    at = rng.randrange(len(text) + 1)
    edit = rng.choice(("insert", "delete", "replace", "token"))
    if edit == "insert":
        return text[:at] + rng.choice(PARSE_CHARS) + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "replace":
        return text[:at] + rng.choice(PARSE_CHARS) + text[at + 1:]
    return text[:at] + rng.choice(PARSE_BLANKS) + rng.choice(PARSE_TOKENS) + text[at:]


def parse_texts() -> list:
    """Seeded texts for the parser, in threes: a valid sentence, a copy with
    one to three seeded edits, and a soup of up to 24 tokens."""
    rng = random.Random(9191)
    out = []
    for _ in range(7000):
        valid = _valid_text(rng)
        mutated = valid
        for _ in range(rng.randint(1, 3)):
            mutated = _edit(mutated, rng)
        soup = "".join(rng.choice(PARSE_TOKENS) + rng.choice(PARSE_BLANKS)
                       for _ in range(rng.randint(0, 24)))
        out += [valid, mutated, soup]
    return out


def _parsed(text: str, args) -> str:
    try:
        return render_formula(parse_formula(text, *args))
    except FomcError as exc:
        return (f"{type(exc).__name__}: {exc}\t"
                f"{getattr(exc, 'line', None)}\t{getattr(exc, 'column', None)}")


# inputs each transform rejects, with the message it gives
ERROR_CASES = (
    ("k2", "exists x. E(x,x)"),
    ("k2", "exists x. NAE(x,x,x) & ~NAE(x,x,x)"),
    ("k2", "exists x. NAE(x,x,x) | true"),
    ("k2", "exists x. x = x"),
    ("k2", "exists x. NAE(x,x,x) & (exists y. NAE(x,y,y))"),
    ("k2", "exists x in {0}. NAE(x,x,x)"),
    ("G22", "exists x. NAE(x,x,x) | NAE(x,x,x)"),
    ("G22", "exists x. NAE(x,x,x) & ~NAE(x,x,x)"),
    ("Dhat", "exists x. true"),
    ("relativise", "exists x in {0}. forall y in {2}. E(x,y)"),
)


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _error(kind: str, text: str) -> str:
    formula = parse_formula(text)
    try:
        if kind == "k2":
            reduce_nae_to_k2(formula)
        elif kind == "relativise":
            relativise(formula, {0, 1}, {1}, "both")
        else:
            reduce_qcsp_nae_to_gadget(formula, kind, 2, 3)
    except FomcError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def compute() -> dict:
    family = sentences()
    extended = family + [parse_formula(text) for text in EXTRA]
    nnf = [to_nnf(f) for f in family]
    nae = nae_sentences()
    g = make_gadget(GadgetSpec("G", (2, 2, 0, 2)))
    checked = checked_sentences()
    passes = {
        key: _digest(f"{render_formula(f)}\t{_first_error(f, args, kwargs)}"
                     for f in checked)
        for key, (args, kwargs) in CHECK_ARGUMENTS.items()}
    texts = parse_texts()
    passes.update({key: _digest(_parsed(text, args) for text in texts)
                   for key, args in PARSE_ARGUMENTS.items()})
    passes["fragment_nnf"] = _digest(_fragment(f) for f in nnf)
    passes["fragment_nnf_negated"] = _digest(_fragment(to_nnf(Not(f))) for f in family)
    passes["fragment_sampled"] = _digest(
        _fragment(form) for f in checked[::2]
        for form in (f, Not(f), to_nnf(Not(f)), And((f, Or((f, Not(Eq("x0", "x0"))))))))
    return {
        "to_nnf": _digest(render_formula(to_nnf(f)) for f in extended),
        "dualize": _digest(render_formula(dualize(f)) for f in extended),
        "relativise": _digest(render_formula(relativise(f, {0, 1}, {1}, "both"))
                              for f in nnf),
        "relativise_modes": _digest(
            render_formula(relativise(relativise(f, {0, 1, 2}, {1, 2}, mode),
                                      {0, 2}, {2}, "both"))
            for f in nnf for mode in ("universalOnly", "existentialOnly")),
        "nae_to_k2": _digest(render_formula(reduce_nae_to_k2(f)) for f in nae),
        "nae_to_g22": _digest(render_formula(reduce_qcsp_nae_to_gadget(f, "G22"))
                              for f in nae),
        "nae_to_dhat_2_3": _digest(render_formula(reduce_qcsp_nae_to_gadget(f, "Dhat", 2, 3))
                                   for f in nae),
        "eqfree_neg_G_2_2_0_2": _digest([render_formula(canonical_sentence(g, "eqfree-neg"))]),
        "eqfree_neg_K3": _digest([render_formula(canonical_sentence(clique(3), "eqfree-neg"))]),
        "errors": [[kind, text, _error(kind, text)] for kind, text in ERROR_CASES],
        **passes,
    }


@pytest.fixture(scope="module")
def computed():
    return compute()


KEYS = ("to_nnf", "dualize", "relativise", "relativise_modes", "nae_to_k2",
        "nae_to_g22", "nae_to_dhat_2_3", "eqfree_neg_G_2_2_0_2", "eqfree_neg_K3",
        "errors", *CHECK_ARGUMENTS, "fragment_nnf", "fragment_nnf_negated",
        "fragment_sampled", *PARSE_ARGUMENTS)


@pytest.mark.parametrize("key", KEYS)
def test_matches_golden(computed, key):
    assert computed[key] == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1))
