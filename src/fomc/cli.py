"""Command line surface.

Subcommands: eval, classify, core, shops, dsm-census, gadget, reduce,
canonical.  Structures and sentences come from files ('-' reads standard
input); ``--json`` switches output to the shipped JSON schemas.  Exit codes:
0 success (or a true sentence), 1 false sentence, 2 usage or input errors,
3 exceeded budgets, including the recursion limit and memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import FRAGMENT_KEYS, classify_fragment
from .cores import classical_core, eqfree_core, ux_core
from .errors import BudgetExceededError, FomcError, ParseError
from .evaluator import check_relativisation, evaluate
from .formulas import (CANONICAL_FRAGMENTS, canonical_sentence, parse_formula,
                       relativise, render_formula, to_nnf)
from .gadgets import (GADGET_NAMES, GadgetSpec, check_gadget_params, make_gadget,
                      meta_reduction, reduce_nae_to_k2, reduce_qcsp_nae_to_gadget)
from .lattice import enumerate_dsms, export_lattice
from .shops import canonical_shop, enumerate_she, render_shop
from .structures import parse_structure, render_structure

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FomcError(f"cannot read {path}: {exc}") from exc


def _load_structure(path: str):
    return parse_structure(_read(path))


def _parse_elements(text: str) -> frozenset[int]:
    text = text.strip()
    if text.startswith(("U=", "X=", "u=", "x=")):
        text = text[2:]
    try:
        return frozenset(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise FomcError(f"bad element set {text!r}") from exc


def _parse_ints(text: str | None) -> tuple[int, ...]:
    """The comma separated integers of ``--params``; () when absent."""
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise FomcError(f"bad --params {text!r}: expected comma separated integers") from None


def _emit(payload: dict, as_json: bool, plain: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _cmd_eval(args) -> int:
    structure = _load_structure(args.structure)
    sentence = parse_formula(_read(args.sentence), structure.signature,
                             structure.size)
    if args.check_relativisation:
        if args.seed is None:
            raise FomcError("--check-relativisation requires --seed")
        U = _parse_elements(args.check_relativisation[0])
        X = _parse_elements(args.check_relativisation[1])
        report = check_relativisation(structure, U, X,
                                      samples=args.samples, seed=args.seed)
        payload = {
            "structure": structure.name, "U": sorted(U), "X": sorted(X),
            "samples": report.samples,
            "counterexamples": [
                {"sentence": text, "modes": list(results)}
                for text, results in report.counterexamples],
        }
        _emit(payload, args.json,
              "ok" if report.ok else f"{len(report.counterexamples)} counterexamples")
        return EXIT_TRUE if report.ok else EXIT_FALSE
    if args.relativize:
        U = _parse_elements(args.relativize[0])
        X = _parse_elements(args.relativize[1])
        sentence = relativise(to_nnf(sentence), U, X, "both")
    value = evaluate(structure, sentence, budget=args.budget)
    _emit({"value": value}, args.json, "true" if value else "false")
    return EXIT_TRUE if value else EXIT_FALSE


def _cmd_classify(args) -> int:
    structure = _load_structure(args.structure)
    verdict = classify_fragment(structure, args.fragment)
    _emit(verdict.to_json(), args.json, verdict.label)
    return EXIT_TRUE


def _cmd_core(args) -> int:
    structure = _load_structure(args.structure)
    if args.kind == "classical":
        core, retraction = classical_core(structure)
        payload = {"kind": "classical", "size": core.size,
                   "retraction": list(retraction),
                   "structure": render_structure(core)}
        _emit(payload, args.json, render_structure(core).rstrip())
        return EXIT_TRUE
    if args.kind == "eqfree":
        core = eqfree_core(structure)
        payload = {"kind": "eqfree", "size": core.size,
                   "structure": render_structure(core)}
        _emit(payload, args.json, render_structure(core).rstrip())
        return EXIT_TRUE
    result = ux_core(structure)
    payload = {
        "kind": "ux", "size": result.core.size,
        "U": list(result.U), "X": list(result.X),
        "coreU": list(result.core_U), "coreX": list(result.core_X),
        "canonicalShop": render_shop(result.canonical),
        "structure": render_structure(result.core),
    }
    plain = (f"U={sorted(result.U)} X={sorted(result.X)} "
             f"canonical={render_shop(result.canonical)}\n"
             + render_structure(result.core).rstrip())
    _emit(payload, args.json, plain)
    return EXIT_TRUE


def _cmd_shops(args) -> int:
    structure = _load_structure(args.structure)
    she = enumerate_she(structure, force=args.force)
    payload = {"count": len(she), "shops": [render_shop(f) for f in she]}
    _emit(payload, args.json, "\n".join(render_shop(f) for f in she))
    return EXIT_TRUE


def _cmd_dsm_census(args) -> int:
    nodes = enumerate_dsms(args.n, force=args.force)
    if args.export:
        text = export_lattice(nodes)
        if args.export == "-":
            sys.stdout.write(text)
        else:
            with open(args.export, "w", encoding="utf-8") as handle:
                handle.write(text)
    payload = {
        "n": args.n, "count": len(nodes),
        "nodes": [{
            "id": node.index, "size": len(node.dsm), "tag": node.tag,
            "generators": [render_shop(g) for g in node.generators],
            "covers": list(node.covers),
        } for node in nodes],
    }
    _emit(payload, args.json, str(len(nodes)))
    return EXIT_TRUE


def _cmd_gadget(args) -> int:
    params = _parse_ints(args.params)
    graph = _load_structure(args.structure) if args.structure else None
    gadget = make_gadget(GadgetSpec(args.name, params, graph))
    text = render_structure(gadget)
    _emit({"name": args.name, "structure": text}, args.json, text.rstrip())
    return EXIT_TRUE


def _cmd_reduce(args) -> int:
    if args.target == "meta":
        if not args.structure:
            raise FomcError("--target meta needs --structure")
        produced = meta_reduction(_load_structure(args.structure))
        text = render_structure(produced)
        _emit({"target": "meta", "structure": text}, args.json, text.rstrip())
        return EXIT_TRUE
    if not args.sentence:
        raise FomcError(f"--target {args.target} needs --sentence")
    sentence = parse_formula(_read(args.sentence))
    if args.target == "k2":
        out = reduce_nae_to_k2(sentence)
    elif args.target == "g22":
        out = reduce_qcsp_nae_to_gadget(sentence, "G22")
    elif args.target == "dhat":
        params = _parse_ints(args.params) or (2, 2)
        check_gadget_params("Dhat", params)
        out = reduce_qcsp_nae_to_gadget(sentence, "Dhat", *params)
    else:
        raise FomcError(f"unknown reduction target {args.target!r}")
    text = render_formula(out)
    _emit({"target": args.target, "formula": text}, args.json, text)
    return EXIT_TRUE


def _cmd_canonical(args) -> int:
    structure = _load_structure(args.structure)
    if args.fragment:
        if args.fragment not in CANONICAL_FRAGMENTS:
            raise FomcError(f"canonical sentences exist for {CANONICAL_FRAGMENTS}")
        m = args.m if args.m is not None else structure.size
        sentence = canonical_sentence(structure, args.fragment, m=m,
                                      budget=args.budget or 10 ** 6)
        text = render_formula(sentence)
        _emit({"fragment": args.fragment, "formula": text}, args.json, text)
        return EXIT_TRUE
    if args.U is None or args.X is None:
        raise FomcError("canonical needs --fragment or both --U and --X")
    U = _parse_elements(args.U)
    X = _parse_elements(args.X)
    shop = canonical_shop(structure, U, X)
    _emit({"U": sorted(U), "X": sorted(X), "shop": render_shop(shop)},
          args.json, render_shop(shop))
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fomc",
        description="model checking and complexity classification over finite structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("eval", help="evaluate a sentence over a structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--relativize", nargs=2, metavar=("U=SET", "X=SET"))
    p.add_argument("--check-relativisation", nargs=2, metavar=("U=SET", "X=SET"))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int,
                   help="give up (exit 3) after this many formula nodes visited")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="complexity verdict for a fragment")
    p.add_argument("--structure", required=True)
    p.add_argument("--fragment", required=True,
                   help=f"one of {', '.join(FRAGMENT_KEYS)} or dual:<key>")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("core", help="compute a core")
    p.add_argument("--structure", required=True)
    p.add_argument("--kind", choices=("ux", "classical", "eqfree"), default="ux")
    common(p)
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("shops", help="enumerate surjective hyper-endomorphisms")
    p.add_argument("--structure", required=True)
    p.add_argument("--force", action="store_true",
                   help="ignore the enumeration domain bound")
    common(p)
    p.set_defaults(fn=_cmd_shops)

    p = sub.add_parser("dsm-census", help="count and export the DSM lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--export", help="write the node table and cover edges here")
    common(p)
    p.set_defaults(fn=_cmd_dsm_census)

    p = sub.add_parser("gadget", help="emit a named gadget structure")
    p.add_argument("--name", required=True, choices=GADGET_NAMES)
    p.add_argument("--params", help="comma separated integers, e.g. 2,2,0,2")
    p.add_argument("--structure", help="input graph for SG")
    common(p)
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("reduce", help="apply one of the sentence or structure reductions")
    p.add_argument("--target", required=True, choices=("k2", "g22", "dhat", "meta"))
    p.add_argument("--sentence")
    p.add_argument("--structure")
    p.add_argument("--params", help="j,k for the dhat target")
    common(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("canonical", help="canonical sentence or canonical shop")
    p.add_argument("--structure", required=True)
    p.add_argument("--fragment", help=f"one of {', '.join(CANONICAL_FRAGMENTS)}")
    p.add_argument("--m", type=int, help="universal block width for pos-eqfree")
    p.add_argument("--U", help="comma separated universal set")
    p.add_argument("--X", help="comma separated existential set")
    p.add_argument("--budget", type=int)
    common(p)
    p.set_defaults(fn=_cmd_canonical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, FomcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply (recursion limit exceeded)",
              file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
