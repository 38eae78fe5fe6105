"""Complexity verdicts for model checking fragments over a fixed structure.

The positive equality-free fragment gets the four-way classification driven
by A-shop/E-shop possession; the other fragments follow the published
decision table: triviality rows, one-element-core rows, Boolean closure
gates, and open rows reported as open rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import FomcError
from .shops import HyperMap, exists_shop, render_shop
from .structures import (CONJUNCTION, CONSTANT_ONE, CONSTANT_ZERO, DISJUNCTION,
                         MAJORITY, MINORITY, Structure, closed_under_operation)

CLASS_LABELS = {
    "InL": "L",
    "InP": "P",
    "NPComplete": "NP-complete",
    "CoNPComplete": "coNP-complete",
    "PspaceComplete": "Pspace-complete",
    "Open": "open",
}

_CO_CLASS = {
    "InL": "InL",
    "InP": "InP",
    "NPComplete": "CoNPComplete",
    "CoNPComplete": "NPComplete",
    "PspaceComplete": "PspaceComplete",
    "Open": "Open",
}

FRAGMENT_KEYS = (
    "pp", "pp-eq", "pp-neq", "pp-disj", "pp-disj-eq", "pp-disj-neq",
    "qcsp", "qcsp-eq", "qcsp-neq",
    "pos-eqfree", "pos-fo-eq", "pos-fo-neq", "eqfree-neg", "fo",
)

SCHAEFER_OPS = (
    ("0-valid", CONSTANT_ZERO),
    ("1-valid", CONSTANT_ONE),
    ("Horn", CONJUNCTION),
    ("dual-Horn", DISJUNCTION),
    ("bijunctive", MAJORITY),
    ("affine", MINORITY),
)

QUANTIFIED_SCHAEFER_CLASSES = ("Horn", "dual-Horn", "bijunctive", "affine")


@dataclass(frozen=True)
class Verdict:
    """A complexity class plus checkable evidence."""

    klass: str
    evidence: dict = field(default_factory=dict)
    fragment: str = "pos-eqfree"

    def __post_init__(self):
        if self.klass not in CLASS_LABELS:
            raise FomcError(f"unknown verdict class {self.klass!r}")

    @property
    def label(self) -> str:
        if self.klass == "Open":
            tag = self.evidence.get("openTag", "")
            return f"open({tag})" if tag else "open"
        return CLASS_LABELS[self.klass]

    def to_json(self) -> dict:
        return {"fragment": self.fragment, "class": self.label,
                "evidence": self.evidence}


def find_a_shop(structure: Structure) -> Optional[tuple[int, HyperMap]]:
    """First element u (ascending) admitting a preserving shop with f(u) = D."""
    for u in range(structure.size):
        witness = exists_shop(structure, "A-shop", u)
        if witness is not None:
            return u, witness
    return None


def find_e_shop(structure: Structure) -> Optional[tuple[int, HyperMap]]:
    """First element x contained in every image of some preserving shop."""
    for x in range(structure.size):
        witness = exists_shop(structure, "E-shop", x)
        if witness is not None:
            return x, witness
    return None


def pos_eqfree_class(a: bool, e: bool) -> str:
    """The tetrachotomy: L with an A-shop and an E-shop, NP-complete with an
    A-shop only, coNP-complete with an E-shop only, Pspace-complete with
    neither."""
    if a:
        return "InL" if e else "NPComplete"
    return "CoNPComplete" if e else "PspaceComplete"


def classify_pos_eqfree(structure: Structure) -> Verdict:
    """The four-way classification: L / NP-complete / coNP-complete /
    Pspace-complete, read off the first A-shop and the first E-shop.

    In L the evidence is the {u}-{x}-shop candidate (u to D, every other
    element to {x}) at the first A-shop element u and E-shop element x.  It
    preserves iff u has an A-shop and x an E-shop.  It is itself both; and
    with f an A-shop at u and g an E-shop at x, g∘f sends u to g(D) = D and
    every other element to a set holding x, so the candidate is a sub-shop
    of g∘f, and compositions and sub-shops of preserving shops preserve.  So
    (u, x) is also the first preserving candidate in (u, x) order.
    """
    a_hit = find_a_shop(structure)
    e_hit = find_e_shop(structure)
    klass = pos_eqfree_class(a_hit is not None, e_hit is not None)
    if klass == "InL":
        u, x = a_hit[0], e_hit[0]
        witness = exists_shop(structure, "singletonUX", u, x)
        return Verdict(klass, {"uxShop": render_shop(witness), "u": u, "x": x})
    evidence = {
        "aShop": render_shop(a_hit[1]) if a_hit else None,
        "aElement": a_hit[0] if a_hit else None,
        "eShop": render_shop(e_hit[1]) if e_hit else None,
        "eElement": e_hit[0] if e_hit else None,
        "singletonSweep": "exhausted",
    }
    if not a_hit:
        evidence["aSweep"] = "exhausted"
    if not e_hit:
        evidence["eSweep"] = "exhausted"
    return Verdict(klass, evidence)


def boolean_schaefer(structure: Structure, quantified: bool) -> tuple[list[str], Verdict]:
    """Closure-class membership and the resulting Boolean verdict.

    The structure is tractable iff all relations are simultaneously closed
    under one of the class operations: six classes without universal
    quantification, four with it.
    """
    if structure.size != 2:
        raise FomcError("Schaefer gates apply to Boolean structures only")
    satisfied = [name for name, op in SCHAEFER_OPS
                 if closed_under_operation(structure, op)]
    relevant = [c for c in satisfied
                if not quantified or c in QUANTIFIED_SCHAEFER_CLASSES]
    fragment = "qcsp" if quantified else "pp"
    if relevant:
        verdict = Verdict("InP", {"schaeferClasses": satisfied}, fragment)
    elif quantified:
        verdict = Verdict("PspaceComplete", {"schaeferClasses": satisfied}, fragment)
    else:
        verdict = Verdict("NPComplete", {"schaeferClasses": satisfied}, fragment)
    return satisfied, verdict


def has_one_element_core(structure: Structure) -> Optional[int]:
    """An element whose constant map is an endomorphism, if any."""
    for a in range(structure.size):
        if all(not ts or (a,) * structure.signature.arity(sym) in ts
               for sym, ts in structure.rels):
            return a
    return None


def all_relations_trivial(structure: Structure) -> bool:
    for sym, ts in structure.rels:
        arity = structure.signature.arity(sym)
        if ts and len(ts) != structure.size ** arity:
            return False
    return True


def classify_fragment(structure: Structure, key: str) -> Verdict:
    """Classify one fragment key (or ``dual:<key>`` via complementation)."""
    if key.startswith("dual:"):
        inner = classify_fragment(structure.complement(), key[len("dual:"):])
        evidence = dict(inner.evidence)
        evidence["via"] = f"complement classified under {inner.fragment}"
        return Verdict(_CO_CLASS[inner.klass], evidence, key)
    if key not in FRAGMENT_KEYS:
        raise FomcError(f"unknown fragment key {key!r}")
    n = structure.size

    def verdict(klass: str, **evidence) -> Verdict:
        return Verdict(klass, evidence, key)

    if key in ("pp", "pp-eq", "qcsp", "qcsp-eq"):
        if n == 1:
            return verdict("InL", reason="one-element structure")
        if n == 2:
            classes, inner = boolean_schaefer(structure, key.startswith("qcsp"))
            return Verdict(inner.klass, dict(inner.evidence), key)
        tag = "cspDichotomyConjecture" if key.startswith("pp") else "qcspClassification"
        return verdict("Open", openTag=tag)
    if key in ("pp-neq", "qcsp-neq"):
        if n == 1:
            return verdict("InL", reason="one-element structure")
        hard = "PspaceComplete" if key == "qcsp-neq" else "NPComplete"
        if n == 2:
            classes, _ = boolean_schaefer(structure, key == "qcsp-neq")
            if "bijunctive" in classes or "affine" in classes:
                return verdict("InP", schaeferClasses=classes)
            return verdict(hard, schaeferClasses=classes)
        return verdict(hard, reason="disequality simulates a clique")
    if key in ("pp-disj", "pp-disj-eq"):
        constant = has_one_element_core(structure)
        if constant is not None:
            return verdict("InL", coreElement=constant)
        return verdict("NPComplete", reason="core has at least two elements")
    if key == "pp-disj-neq":
        if n == 1:
            return verdict("InL", reason="one-element structure")
        return verdict("NPComplete", reason="domain has at least two elements")
    if key == "pos-eqfree":
        inner = classify_pos_eqfree(structure)
        return Verdict(inner.klass, dict(inner.evidence), key)
    if key in ("pos-fo-eq", "pos-fo-neq", "fo"):
        if n == 1:
            return verdict("InL", reason="one-element structure")
        return verdict("PspaceComplete", reason="domain has at least two elements")
    if key == "eqfree-neg":
        if all_relations_trivial(structure):
            return verdict("InL", reason="all relations trivial")
        return verdict("PspaceComplete", reason="a nontrivial relation exists")
    raise FomcError(f"unhandled fragment key {key!r}")  # pragma: no cover
