"""Workload definitions: op kinds, their inputs and their answers.

An *op kind* names one kind of user request (classify a structure, enumerate
shE, decide a sentence, run a CLI command...).  Each kind owns a pool of
inputs with ids ``<kind>.<index>``; a run draws ``per_run`` of them with the
workload seed, so the same seed always gives the same inputs.  Expected
answers for every pool entry live in ``expected.json`` (see
``make_expected.py``).

Every timed callable reaches the program through module attributes
(``classifier.classify_pos_eqfree``), so wrappers installed by the tracer in
those module namespaces see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import gen
import oracles

# the program, imported through its modules so the tracer can patch them
from fomc import (classifier, cli, cores, evaluator, formulas, gadgets,
                  lattice, shops, structures)


@dataclass
class Op:
    """One request: ``run`` is timed; ``answer``, ``key`` and ``verify``
    (see ``Kind``) are not."""

    id: str
    kind: str
    run: Callable[[], Any]
    answer: Callable[[Any], Any]
    key: Callable[[Any], Any]
    verify: Optional[Callable[[Any], list]] = None


@dataclass
class Kind:
    """An op kind.

    ``build(id, ctx)`` makes the input; ``make(input, ctx)`` returns the
    timed callable, the answer normaliser and an evidence check (or None);
    ``key(answer)`` is the part compared with ``expected.json``;
    ``oracle(input, answer)`` lists disagreements with an independent
    oracle, or is None where there is none.  ``small()`` is the smallest
    input of the kind, checked by ``small_oracle`` in self-check mode.
    Where ``per_run`` equals ``pool`` every run uses the whole pool (the
    seed only orders it): this is done for kinds whose cost has a heavy
    tail, so that one expensive input drawn or missed does not move a run.
    """

    name: str
    pool: int
    per_run: int
    build: Callable[[str, Any], Any]
    make: Callable[[Any, Any], tuple]
    key: Callable[[Any], Any] = lambda ans: ans
    oracle: Optional[Callable[[Any, Any], list]] = None
    oracle_name: str = "seed commit (no independent oracle)"
    small: Optional[Callable[[Any], Any]] = None
    small_oracle: Optional[Callable[[Any, Any], list]] = None
    strata: int = 1  # pool index modulo strata picks a size class

    def ids(self) -> list[str]:
        if self.pool == 1:
            return [self.name]
        return [f"{self.name}.{i:03d}" for i in range(self.pool)]

    def op(self, op_id: str, ctx, inp=None) -> Op:
        inp = self.build(op_id, ctx) if inp is None else inp
        run, answer, verify = self.make(inp, ctx)
        return Op(op_id, self.name, run, answer, self.key, verify)


def rng_for(op_id: str) -> random.Random:
    return random.Random(op_id)


def digest(items) -> str:
    return hashlib.sha1(repr(sorted(items)).encode()).hexdigest()[:16]


def plain_of(structure) -> gen.Plain:
    """The program's fixed gadgets, read into the benchmark's representation."""
    arity = dict(structure.signature.symbols)
    return gen.Plain(structure.name or "s", structure.size,
                     tuple((sym, arity[sym], frozenset(ts)) for sym, ts in structure.rels))


class Context:
    """Fixed inputs shared by a workload's ops, built during set-up.

    The fixed structures are parsed from text here, so ``parse_structure``
    cost lands in set-up; the sentence family is parsed here too (only for
    the workloads that use it).  ``cli_runner`` runs one CLI argument
    list and returns (exit code, stdout).
    """

    def __init__(self, work_dir: str, family: str = ""):
        self.work_dir = work_dir
        self.plains = {
            "K2": gen.k2(), "BNAE": gen.bnae(), "G22": gen.g22(),
            "Dhat22": plain_of(gadgets.dhat(2, 2)),
            "GV3": plain_of(gadgets.vertex_gadget(3)),
            "G3303": plain_of(gadgets.pspace_gadget(3, 3, 0, 3)),
        }
        self.texts = {name: p.text() for name, p in self.plains.items()}
        self.cli_runner: Callable[[list[str]], tuple[int, str]] = inprocess_cli
        self.fixed = {name: structures.parse_structure(text)
                      for name, text in self.texts.items()}
        self.family = self.family_asts = None
        if family:  # "tuples", or "parsed" to also parse every sentence
            self.family = gen.sentence_family((("E", 2),))
        if family == "parsed":
            k2 = self.fixed["K2"]
            self.family_asts = [formulas.parse_formula(gen.render(node), k2.signature,
                                                       k2.size)
                                for node in self.family]


# -- answers and checks shared by several kinds ------------------------------------

def verdict_answer(v) -> dict:
    return v.to_json()


def label_key(ans: dict) -> str:
    return ans["class"]


def ux_answer(core) -> dict:
    return {"size": core.core.size, "U": list(core.U), "X": list(core.X),
            "canonical": shops.render_shop(core.canonical)}


def classical_answer(result) -> dict:
    core, retraction = result
    return {"size": core.size, "retraction": list(retraction),
            "rels": {sym: sorted(map(list, ts)) for sym, ts in core.rels}}


def dsm_answer(dsm) -> dict:
    return {"count": len(dsm), "digest": digest(f.images for f in dsm)}


def expect(got, want, what: str) -> list:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def brute_label_oracle(plain_of_inp: Callable[[Any], gen.Plain]):
    def oracle(inp, ans):
        return expect(ans["class"], oracles.brute_force_label(plain_of_inp(inp)),
                      "label vs brute force")
    return oracle


# -- classify-cores ----------------------------------------------------------------

def _classify(plain_of_inp: Callable[[Any], gen.Plain] = lambda s: s,
              transform: Callable[[Any], Any] = lambda s: s):
    """Text of the input -> parse -> optional program-side transform ->
    four-way classification; the witnesses are re-checked on the structure
    that was classified."""
    def make(inp, ctx):
        text = inp.text()

        def run():
            s = transform(structures.parse_structure(text))
            return classifier.classify_pos_eqfree(s)

        def verify(ans):
            return oracles.check_verdict(plain_of_inp(inp), ans)

        return run, verdict_answer, verify
    return make


def _index(op_id: str) -> int:
    return int(op_id.rsplit(".", 1)[1])


def _digraph_kind(name: str, n: int, pool: int, per_run: int,
                  brute: bool = False) -> Kind:
    def build(op_id, ctx):
        p = (0.3, 0.6)[_index(op_id) % 2]
        return gen.random_digraph(rng_for(op_id), "dg", n, p)
    by_brute = brute_label_oracle(lambda s: s)
    return Kind(name, pool, per_run, build, _classify(), key=label_key, strata=2,
                oracle=by_brute if brute else None,
                oracle_name="brute force over all shops" if brute else
                "seed commit (no independent oracle at this size)",
                small=lambda ctx: gen.random_digraph(random.Random(1), "dg", 3, 0.5),
                small_oracle=by_brute)


def _meta_build(op_id, ctx):
    s = 4 + _index(op_id) % 4
    return gen.random_symmetric(rng_for(op_id), "g", s, 0.6)


def _meta_plain(g: gen.Plain) -> gen.Plain:
    return plain_of(gadgets.meta_reduction(structures.parse_structure(g.text())))


def _meta(s):
    # looked up at call time, so a tracer wrapper on meta_reduction applies
    return gadgets.meta_reduction(s)


def _meta_oracle(dual: bool):
    yes, no = ("coNP-complete" if dual else "NP-complete"), "Pspace-complete"

    def oracle(g, ans):
        return expect(ans["class"], yes if oracles.three_colourable(g) else no,
                      "label vs 3-colourability")
    return oracle


def _planted_build(op_id, ctx):
    return gen.planted_l(rng_for(op_id), "planted", 10 + _index(op_id) % 3, 0.3)[0]


def _l_oracle(s, ans):
    return expect(ans["class"], "L", "planted structure")


def _tern_build(n: int, p: float):
    def build(op_id, ctx):
        return gen.random_ternary(rng_for(op_id), "tern", n, p)
    return build


def _ux_build(op_id, ctx):
    n = 6 if op_id.startswith("cores.ux6") else 4 + _index(op_id) % 2
    return gen.random_digraph(rng_for(op_id), "ux", n, 0.5)


def _ux_make(s: gen.Plain, ctx):
    text = s.text()

    def run():
        return cores.ux_core(structures.parse_structure(text))
    return run, ux_answer, lambda ans: oracles.check_ux_core(s, ans)


def _classical_build(op_id, ctx):
    return gen.random_symmetric(rng_for(op_id), "cc", 7 + _index(op_id) % 2, 0.4)


def _classical_make(s: gen.Plain, ctx):
    text = s.text()

    def run():
        return cores.classical_core(structures.parse_structure(text))
    return run, classical_answer, lambda ans: oracles.check_retraction(s, ans)


def classify_cores_kinds() -> list[Kind]:
    """Counts are chosen so that p90 falls among the fixed dg12 and ux6
    ops and p50 in the middle of the dg10 block, whose costs are narrow
    (13-22 ms); the cheap seeded kinds sit below it."""
    meta_small = lambda ctx: gen.random_symmetric(random.Random(1), "g", 2, 1.0)
    return [
        _digraph_kind("classify.dg12", 12, 8, 8),
        _digraph_kind("classify.dg10", 10, 24, 12),
        _digraph_kind("classify.dg4", 4, 48, 2, brute=True),
        Kind("classify.meta", 48, 2, _meta_build,
             _classify(_meta_plain, _meta), key=label_key, strata=2,
             oracle=_meta_oracle(False), oracle_name="3-colourability of the input graph",
             small=meta_small),
        Kind("classify.cometa", 48, 2, _meta_build,
             _classify(lambda g: _meta_plain(g).complement(),
                       lambda s: _meta(s).complement()), key=label_key, strata=2,
             oracle=_meta_oracle(True),
             oracle_name="3-colourability of the input graph, dualised",
             small=meta_small),
        Kind("classify.planted", 48, 1, _planted_build, _classify(), key=label_key,
             oracle=_l_oracle, oracle_name="planted {u}-{x}-shop construction",
             small=lambda ctx: gen.planted_l(random.Random(1), "planted", 3, 0.5)[0]),
        Kind("classify.tern5", 24, 1, _tern_build(5, 0.5), _classify(), key=label_key,
             oracle_name="seed commit (no independent oracle at n = 5)",
             small=lambda ctx: gen.random_ternary(random.Random(1), "tern", 2, 0.5),
             small_oracle=brute_label_oracle(lambda s: s)),
        Kind("cores.ux", 24, 2, _ux_build, _ux_make, strata=2,
             oracle_name="seed commit; the canonical shop is re-checked",
             small=lambda ctx: gen.random_digraph(random.Random(1), "ux", 2, 0.5)),
        # the first two n = 6 entries; the third costs 1.8 s, which alone
        # would stretch a pass past a tenth of the run
        Kind("cores.ux6", 2, 2, _ux_build, _ux_make,
             oracle_name="seed commit; the canonical shop is re-checked"),
        Kind("cores.classical", 24, 1, _classical_build, _classical_make,
             key=lambda ans: ans["size"],
             oracle_name="seed commit; the retraction and the core are re-checked",
             small=lambda ctx: gen.random_symmetric(random.Random(1), "cc", 3, 0.5)),
    ]


# -- algebra -------------------------------------------------------------------------

def _she_make(force: bool):
    def make(s: gen.Plain, ctx):
        text = s.text()

        def run():
            return shops.enumerate_she(structures.parse_structure(text), force=force)
        return run, dsm_answer, None
    return make


def _she_brute(s: gen.Plain, ans):
    if s.size > 4:
        return []
    found = oracles.preserving_shops(s)
    return expect((ans["count"], ans["digest"]), (len(found), digest(found)),
                  "shE vs brute force")


def _count_oracle(count: int):
    def oracle(inp, ans):
        return expect(ans["count"], count, "shop count")
    return oracle


def _sparse_build(op_id, ctx):
    n, p = ((5, 0.2), (6, 0.3))[_index(op_id) % 2]
    return gen.random_digraph(rng_for(op_id), "sp", n, p)


def _fixed(name: str):
    return lambda op_id, ctx: ctx.plains[name]


def _random_generators(op_id, ctx):
    rng = rng_for(op_id)
    shop_list = list(oracles.all_shops(3))
    return tuple(rng.sample(shop_list, 1 + _index(op_id) % 2))


def _gen_make(n: int):
    def make(gens, ctx):
        maps = [shops.HyperMap(n, n, g) for g in gens]

        def run():
            return shops.generate_dsm(maps, n)
        return run, dsm_answer, None
    return make


def _closure_oracle(n: int):
    def oracle(gens, ans):
        members = oracles.dsm_closure(gens, n)
        return expect((ans["count"], ans["digest"]), (len(members), digest(members)),
                      "DSM vs naive closure")
    return oracle


def _gv_generator(op_id, ctx):
    return (gadgets.vertex_gadget_generator(2).images,)


def _census_make(n: int, ctx):
    def run():
        return lattice.enumerate_dsms(n)

    def answer(nodes):
        tags: dict[str, int] = {}
        for node in nodes:
            tags[node.tag] = tags.get(node.tag, 0) + 1
        return {"count": len(nodes), "tags": dict(sorted(tags.items()))}
    return run, answer, None


CENSUS = {2: {"count": 5}, 3: {"count": 115, "tags": {
    "InL": 85, "NPComplete": 6, "CoNPComplete": 6, "PspaceComplete": 18}}}


def _census_oracle(n, ans):
    want = CENSUS[n]
    return expect({k: ans[k] for k in want}, want, f"census at n = {n}")


def algebra_kinds() -> list[Kind]:
    she_small = lambda ctx: gen.random_digraph(random.Random(1), "dg", 3, 0.3)
    return [
        Kind("she.gv3", 1, 1, _fixed("GV3"), _she_make(True),
             oracle=_count_oracle(2745), oracle_name="GV_3 has 2,745 shops"),
        Kind("she.g3303", 1, 1, _fixed("G3303"), _she_make(False),
             small=she_small, small_oracle=_she_brute),
        Kind("she.dhat22", 1, 1, _fixed("Dhat22"), _she_make(False)),
        Kind("she.sparse", 24, 2, _sparse_build, _she_make(False), strata=2,
             small=she_small, small_oracle=_she_brute),
        Kind("she.tern", 24, 2, strata=2, build=
             lambda op_id, ctx: gen.random_ternary(rng_for(op_id), "tern",
                                                   4 + _index(op_id) % 2, 0.6),
             make=_she_make(False), oracle=_she_brute,
             oracle_name="brute force over all shops at n = 4; seed commit at n = 5",
             small=lambda ctx: gen.random_ternary(random.Random(1), "tern", 2, 0.6),
             small_oracle=_she_brute),
        Kind("dsm.rand3", 12, 12, _random_generators, _gen_make(3), strata=2,
             oracle=_closure_oracle(3), oracle_name="naive composition/sub-shop fixpoint",
             small=lambda ctx: ((1, 2, 4),), small_oracle=_closure_oracle(3)),
        Kind("dsm.gv2", 1, 1, _gv_generator, _gen_make(6),
             oracle=_count_oracle(393), oracle_name="vertex_gadget_generator(2) spans 393 shops"),
        Kind("census.2", 1, 1, lambda op_id, ctx: 2, _census_make,
             oracle=_census_oracle, oracle_name="5 DSMs at n = 2",
             small=lambda ctx: 2, small_oracle=_census_oracle),
        Kind("census.3", 1, 1, lambda op_id, ctx: 3, _census_make,
             oracle=_census_oracle, oracle_name="115 DSMs at n = 3: 85 L / 6 NP / 6 coNP / 18 Pspace"),
    ]


# -- modelcheck ----------------------------------------------------------------------

QCSP_TARGETS = ("bnae", "k2", "g22", "dhat")


def _nae_build(op_id, ctx):
    index = _index(op_id)
    rng = rng_for(f"qcsp.{index:03d}")
    # 3 universals of 14-16 variables; at 4 nearly every sentence is false
    return gen.random_nae(rng, 14 + index % 3, 1.0 + 0.25 * (index % 3), 0.2)


def _qcsp_make(target: str):
    def make(sentence: gen.NaeSentence, ctx):
        text = sentence.text()
        bnae = ctx.fixed["BNAE"]
        model = ctx.fixed[{"bnae": "BNAE", "k2": "K2", "g22": "G22", "dhat": "Dhat22"}[target]]

        def run():
            phi = formulas.parse_formula(text, bnae.signature, bnae.size)
            if target == "k2":
                phi = gadgets.reduce_nae_to_k2(phi)
            elif target == "g22":
                phi = gadgets.reduce_qcsp_nae_to_gadget(phi, "G22")
            elif target == "dhat":
                phi = gadgets.reduce_qcsp_nae_to_gadget(phi, "Dhat", 2, 2)
            return evaluator.evaluate(model, phi)
        return run, bool, None
    return make


def _qbf_oracle(sentence, ans):
    return expect(ans, oracles.qbf_nae(sentence), "truth vs QBF-NAE search")


FAMILY_CHUNKS = 24


def _chunk_build(op_id, ctx):
    index = _index(op_id)
    n = len(ctx.family)
    lo, hi = n * index // FAMILY_CHUNKS, n * (index + 1) // FAMILY_CHUNKS
    return ctx.family[lo:hi], ctx.family_asts[lo:hi]


def _truth_bits(values) -> dict:
    bits = sum(1 << i for i, v in enumerate(values) if v)
    return {"true": sum(values), "bits": format(bits, "x")}


def _chunk_make(inp, ctx):
    asts = inp[1]
    k2 = ctx.fixed["K2"]

    def run():
        return [evaluator.evaluate(k2, phi) for phi in asts]
    return run, _truth_bits, None


def _chunk_oracle(inp, ans):
    k2 = gen.k2()
    want = _truth_bits([oracles.eval_family(k2, node) for node in inp[0]])
    return expect(ans, want, "chunk vs reference evaluator")


def _canon_make(m: Optional[int]):
    def make(target: gen.Plain, ctx):
        text = target.text()
        g22 = ctx.fixed["G22"]

        def run():
            b = structures.parse_structure(text)
            phi = formulas.canonical_sentence(g22, "pos-eqfree", m or b.size)
            return evaluator.evaluate(b, phi)
        return run, bool, None
    return make


def _galois_oracle(target: gen.Plain, ans):
    """Truth of the m = |B| canonical sentence of G22 on B is the existence
    of a surjective hyper-morphism G22 -> B, found here by brute force."""
    src = gen.g22()
    exists = any(oracles.preserves_into(f, src, target)
                 for f in oracles.all_hyper_maps(src.size, target.size))
    return expect(ans, exists, "canonical truth vs surjective hyper-morphism")


def _reference_oracle(m: int):
    """The program builds the sentence; the benchmark's evaluator decides it."""
    def oracle(target: gen.Plain, ans):
        g22 = structures.parse_structure(gen.g22().text())
        phi = formulas.canonical_sentence(g22, "pos-eqfree", m)
        return expect(ans, oracles.eval_ast(target, phi), "canonical truth vs reference")
    return oracle


def _canon_build(op_id, ctx):
    index = _index(op_id)
    if op_id.startswith("canon.mn"):
        return gen.random_digraph(rng_for(op_id), "t", 4, 0.75)
    return gen.random_digraph(rng_for(op_id), "t", 6 + index % 3, (0.5, 0.75)[index // 3 % 2])


def modelcheck_kinds() -> list[Kind]:
    nae_small = lambda ctx: gen.random_nae(random.Random(1), 3, 1.0, 0.34)
    kinds = [Kind(f"qcsp.{t}", 4, 4, _nae_build, _qcsp_make(t), oracle=_qbf_oracle,
                  oracle_name="QBF-NAE game search; the four targets agree",
                  small=nae_small, small_oracle=_qbf_oracle)
             for t in QCSP_TARGETS]
    kinds.append(Kind("family.chunk", FAMILY_CHUNKS, FAMILY_CHUNKS, _chunk_build, _chunk_make,
                      oracle=_chunk_oracle,
                      oracle_name="reference evaluator over the family's own ASTs"))
    kinds.append(Kind("canon.m3", 6, 6, _canon_build, _canon_make(3),
                      oracle=_reference_oracle(3),
                      oracle_name="reference evaluator on the program's sentence",
                      small=lambda ctx: gen.random_digraph(random.Random(1), "t", 2, 0.75),
                      small_oracle=_reference_oracle(3)))
    kinds.append(Kind("canon.mn", 4, 4, _canon_build, _canon_make(None),
                      oracle=_galois_oracle,
                      oracle_name="Galois: truth iff a surjective hyper-morphism G22 -> B",
                      small=lambda ctx: gen.random_digraph(random.Random(1), "t", 2, 0.75),
                      small_oracle=_galois_oracle))
    return kinds


# -- cli -------------------------------------------------------------------------------

def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_cli(root: str, argv: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "fomc.cli", *argv],
                          cwd=root, env=cli_env(root), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout


def inprocess_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class CliInput:
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # file name -> text
    plain: Optional[gen.Plain] = None
    extra: Any = None
    verify: Optional[Callable[[dict], list]] = None  # evidence check on the JSON


def _cli_make(inp: CliInput, ctx):
    """Input files go to the work directory; the answer is the exit code
    and the parsed ``--json`` output."""
    for name, text in inp.files.items():
        path = os.path.join(ctx.work_dir, name)
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    argv = [os.path.join(ctx.work_dir, a) if a in inp.files else a for a in inp.argv]

    def run():
        return ctx.cli_runner(argv)

    def answer(result):
        code, stdout = result
        return {"exit": code, "json": json.loads(stdout)}

    verify = None
    if inp.verify is not None:
        verify = lambda ans: inp.verify(ans["json"])
    return run, answer, verify


def _cli_key(project: Callable[[dict], Any]):
    return lambda ans: {"exit": ans["exit"], "out": project(ans["json"])}


def _cli_classify(op_id, ctx, plain=None):
    plain = plain or gen.random_digraph(rng_for(op_id), "dg", 10, (0.3, 0.6)[_index(op_id) % 2])
    name = op_id.replace(".", "_") + ".fms"
    return CliInput(["classify", "--structure", name, "--fragment", "pos-eqfree", "--json"],
                    {name: plain.text()}, plain,
                    verify=lambda out: oracles.check_verdict(plain, out))


def _cli_eval(op_id, ctx, rng=None):
    rng = rng or rng_for(op_id)
    node = rng.choice(ctx.family)
    s = gen.random_digraph(rng, "s", 3, 0.5)
    stem = op_id.replace(".", "_")
    return CliInput(["eval", "--structure", stem + ".fms", "--sentence", stem + ".fml", "--json"],
                    {stem + ".fms": s.text(), stem + ".fml": gen.render(node)}, s, node)


def _cli_core(op_id, ctx, plain=None):
    plain = plain or gen.random_digraph(rng_for(op_id), "ux", 4, 0.5)
    name = op_id.replace(".", "_") + ".fms"
    return CliInput(["core", "--structure", name, "--kind", "ux", "--json"],
                    {name: plain.text()}, plain,
                    verify=lambda out: oracles.check_ux_core(plain, {
                        "size": out["size"], "U": out["U"], "X": out["X"],
                        "canonical": out["canonicalShop"]}))


def _cli_shops(op_id, ctx):
    return CliInput(["shops", "--structure", "g22.fms", "--json"],
                    {"g22.fms": ctx.texts["G22"]}, ctx.plains["G22"])


def _cli_census(op_id, ctx):
    return CliInput(["dsm-census", "--n", "2", "--json"])


def _cli_eval_oracle(inp: CliInput, ans):
    want = oracles.eval_family(inp.plain, inp.extra)
    return expect((ans["exit"], ans["json"]["value"]), (0 if want else 1, want),
                  "eval vs reference evaluator")


def _cli_label_oracle(inp: CliInput, ans):
    return expect(ans["json"]["class"], oracles.brute_force_label(inp.plain),
                  "label vs brute force")


def _cli_she_oracle(inp: CliInput, ans):
    return expect(ans["json"]["count"], len(oracles.preserving_shops(inp.plain)),
                  "shE count vs brute force")


def _cli_census_oracle(inp: CliInput, ans):
    return expect(ans["json"]["count"], 5, "census at n = 2")


def _cli_kind(name: str, pool: int, build, project, **kw) -> Kind:
    return Kind(name, pool, 1, build, _cli_make, key=_cli_key(project), **kw)


def cli_kinds() -> list[Kind]:
    label = lambda out: out["class"]
    small_dg = lambda ctx: _cli_classify("small.dg", ctx, gen.random_digraph(
        random.Random(1), "dg", 3, 0.5))
    return [
        _cli_kind("cli.classify_k2", 1,
                  lambda op_id, ctx: _cli_classify(op_id, ctx, ctx.plains["K2"]), label,
                  oracle=_cli_label_oracle, oracle_name="brute force over all shops",
                  small=lambda ctx: _cli_classify("small.k2", ctx, ctx.plains["K2"]),
                  small_oracle=_cli_label_oracle),
        _cli_kind("cli.classify_dg10", 24, _cli_classify, label,
                  oracle_name="seed commit; witnesses re-checked",
                  small=small_dg, small_oracle=_cli_label_oracle),
        _cli_kind("cli.eval", 24, _cli_eval, lambda out: out["value"],
                  oracle=_cli_eval_oracle, oracle_name="reference evaluator",
                  small=lambda ctx: _cli_eval("small.eval", ctx, random.Random(1)),
                  small_oracle=_cli_eval_oracle),
        _cli_kind("cli.core_ux4", 24, _cli_core,
                  lambda out: {"size": out["size"], "U": out["U"], "X": out["X"],
                               "canonical": out["canonicalShop"]},
                  oracle_name="seed commit; the canonical shop is re-checked",
                  small=lambda ctx: _cli_core("small.core", ctx, gen.random_digraph(
                      random.Random(1), "ux", 2, 0.5))),
        _cli_kind("cli.shops_g22", 1, _cli_shops, lambda out: out["count"],
                  oracle=_cli_she_oracle, oracle_name="brute force over all shops",
                  small=lambda ctx: _cli_shops("small.shops", ctx),
                  small_oracle=_cli_she_oracle),
        _cli_kind("cli.census2", 1, _cli_census, lambda out: out["count"],
                  oracle=_cli_census_oracle, oracle_name="5 DSMs at n = 2",
                  small=lambda ctx: _cli_census("small.census", ctx),
                  small_oracle=_cli_census_oracle),
    ]


WORKLOADS = {
    "classify-cores": classify_cores_kinds,
    "algebra": algebra_kinds,
    "modelcheck": modelcheck_kinds,
    "cli": cli_kinds,
}


def draw(kinds: list[Kind], workload: str, seed: int) -> list[tuple[Kind, str]]:
    """The (kind, op id) pairs one run uses: ``per_run`` ids of every kind
    drawn from its pool with the seed, the same number from each size
    class, then interleaved in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    picked = []
    for kind in kinds:
        pool = kind.ids()
        for r in range(kind.strata):
            picked.extend((kind, op_id) for op_id in
                          rng.sample(pool[r::kind.strata], kind.per_run // kind.strata))
    rng.shuffle(picked)
    return picked
