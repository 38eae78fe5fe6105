"""Golden sentence transforms: sha256 digests of the rendered output of
``to_nnf``, ``dualize``, ``relativise``, the two QCSP-NAE reductions and the
``eqfree-neg`` canonical sentence.

The transforms share one rebuild helper; sharing it must not change a byte
of any transformed sentence, nor any error message, so these tests pin both
as the earlier hand-written recursions produced them.  The expected digests
live in ``golden_formulas.json`` next to this file; regenerate them only when
a change of output is intended:

    PYTHONPATH=src python tests/test_formula_golden.py > tests/golden_formulas.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from fomc import (FomcError, canonical_sentence, dualize, make_gadget,
                  parse_formula, reduce_nae_to_k2, reduce_qcsp_nae_to_gadget,
                  relativise, render_formula, to_nnf)
from fomc.evaluator import enumerate_sentences
from fomc.gadgets import GadgetSpec, clique
from fomc.structures import GRAPH_SIGNATURE

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
    nae = nae_sentences()
    g = make_gadget(GadgetSpec("G", (2, 2, 0, 2)))
    return {
        "to_nnf": _digest(render_formula(to_nnf(f)) for f in extended),
        "dualize": _digest(render_formula(dualize(f)) for f in extended),
        "relativise": _digest(render_formula(relativise(to_nnf(f), {0, 1}, {1}, "both"))
                              for f in family),
        "relativise_modes": _digest(
            render_formula(relativise(relativise(to_nnf(f), {0, 1, 2}, {1, 2}, mode),
                                      {0, 2}, {2}, "both"))
            for f in family for mode in ("universalOnly", "existentialOnly")),
        "nae_to_k2": _digest(render_formula(reduce_nae_to_k2(f)) for f in nae),
        "nae_to_g22": _digest(render_formula(reduce_qcsp_nae_to_gadget(f, "G22"))
                              for f in nae),
        "nae_to_dhat_2_3": _digest(render_formula(reduce_qcsp_nae_to_gadget(f, "Dhat", 2, 3))
                                   for f in nae),
        "eqfree_neg_G_2_2_0_2": _digest([render_formula(canonical_sentence(g, "eqfree-neg"))]),
        "eqfree_neg_K3": _digest([render_formula(canonical_sentence(clique(3), "eqfree-neg"))]),
        "errors": [[kind, text, _error(kind, text)] for kind, text in ERROR_CASES],
    }


@pytest.fixture(scope="module")
def computed():
    return compute()


KEYS = ("to_nnf", "dualize", "relativise", "relativise_modes", "nae_to_k2",
        "nae_to_g22", "nae_to_dhat_2_3", "eqfree_neg_G_2_2_0_2", "eqfree_neg_K3",
        "errors")


@pytest.mark.parametrize("key", KEYS)
def test_matches_golden(computed, key):
    assert computed[key] == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__":
    print(json.dumps(compute(), indent=1))
