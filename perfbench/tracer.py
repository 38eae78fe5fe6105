"""Traced mode: wrappers around the program's public functions.

Each wrapped function records a span (name, start, end, parent, op id) in
flat in-memory arrays; per-layer metrics are computed from the spans when the
run ends and the spans are written out then.  A wrapper is installed under
every name it is reachable by: the defining module and every other ``fomc``
module (or the package itself) that imported the function, so calls made
inside the program see it too.

The bit primitives (``bits``, submask lists, ``_ImageSearch``) are not
wrapped: they run millions of times, and their cost shows up as the self
time of the ``shops`` functions that call them.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, attribute): the functions wrapped, by their defining module
WRAPPED = (
    ("shops", "exists_shop"), ("shops", "preserves"), ("shops", "canonical_shop"),
    ("shops", "enumerate_she"), ("shops", "generate_dsm"), ("shops", "compose"),
    ("structures", "Structure.complement"), ("structures", "find_morphism"),
    ("structures", "induced_substructure"), ("structures", "parse_structure"),
    ("cores", "ux_core"), ("cores", "classical_core"), ("cores", "minimal_u_sets"),
    ("cores", "minimal_x_sets"),
    ("classifier", "classify_pos_eqfree"), ("classifier", "find_a_shop"),
    ("classifier", "find_e_shop"),
    ("lattice", "enumerate_dsms"), ("lattice", "all_shops"),
    ("formulas", "parse_formula"), ("formulas", "check_formula"),
    ("formulas", "canonical_sentence"),
    ("gadgets", "reduce_nae_to_k2"), ("gadgets", "reduce_qcsp_nae_to_gadget"),
    ("evaluator", "evaluate"),
    ("cli", "main"),
)

SHOP_PROFILES = ("singletonUX", "A-shop", "E-shop", "U-surjective", "X-total")


def span_names() -> list[str]:
    """Every span name: one per wrapped function, with ``exists_shop``
    split by profile."""
    names = []
    for module, attr in WRAPPED:
        if attr == "exists_shop":
            names.extend(f"shops.exists_shop.{p}" for p in SHOP_PROFILES)
        else:
            names.append(f"{module}.{attr}")
    return names


# metric name -> unit, in the order they are reported
def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "shops.exists_shop.hit_frac": "frac",
        "shops.enumerate_she.general.s": "s",
        "shops.enumerate_she.shops_out": "count",
        "shops.generate_dsm.shops_out": "count",
        "shops.mask_tables.hit_frac": "frac",
        "formulas.canonical_sentence.nodes_out": "count",
        "evaluator.evaluate.true_frac": "frac",
        "cli.import_ms": "ms",
        "trace.overhead_frac": "frac",
    })
    return units


class Tracer:
    """Span recorder.  ``op`` is the index of the op being timed; the
    runner sets it before each call."""

    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.counters: dict[str, float] = {}
        self.installed: list[tuple[object, str, object]] = []
        self.passes = 0                # traced passes, set by the runner
        self.per_op: list[float] = []  # best traced time per op, set by the runner

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fomc" or name.startswith("fomc."))]
        for module, attr in WRAPPED:
            owner = sys.modules[f"fomc.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(f"{module}.{attr}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{attr}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, obj, key, value) -> None:
        self.installed.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self.installed):
            setattr(obj, key, original)
        self.installed.clear()

    def _wrap(self, name: str, fn):
        name_of = self._namer(name)
        hook = self._hook(name)
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_of(args))
            span_parent.append(tracer.current)
            span_op.append(tracer.op)
            span_start.append(0.0)
            span_end.append(0.0)
            parent = tracer.current
            tracer.current = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                span_start[index] = start
                span_end[index] = end
            if hook is not None:
                hook(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _namer(self, name: str):
        if name == "shops.exists_shop":
            ids = {p: self.name_id[f"{name}.{p}"] for p in SHOP_PROFILES}
            return lambda args: ids[args[1]]
        index = self.name_id[name]
        return lambda args: index

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hook(self, name: str):
        """Counter updates for the functions that have them; a hook sees
        each call's arguments, result and duration."""
        bump = self._bump
        if name == "shops.exists_shop":
            return lambda args, result, dur: bump("exists_shop.hits", result is not None)
        if name == "shops.enumerate_she":
            def she(args, result, dur):
                bump("enumerate_she.shops_out", len(result))
                if any(arity > 2 for _, arity in args[0].signature.symbols):
                    bump("enumerate_she.general.s", dur)
            return she
        if name == "shops.generate_dsm":
            return lambda args, result, dur: bump("generate_dsm.shops_out", len(result))
        if name == "formulas.canonical_sentence":
            node_count = sys.modules["fomc.formulas"].node_count
            return lambda args, result, dur: bump("canonical_sentence.nodes_out",
                                                  node_count(result))
        if name == "evaluator.evaluate":
            return lambda args, result, dur: bump("evaluate.true", bool(result))
        return None

    # -- results ----------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, inclusive and self seconds per span name, plus
        the counters; ratios are over all calls."""
        count = len(self.span_name)
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(count):
            k = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            calls[k] += 1
            incl[k] += dur
            own[k] += dur - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k] / passes
            out[f"{name}.s"] = incl[k] / passes
            out[f"{name}.self_s"] = own[k] / passes
        c = self.counters
        shop_calls = sum(calls[self.name_id[f"shops.exists_shop.{p}"]] for p in SHOP_PROFILES)
        evals = calls[self.name_id["evaluator.evaluate"]]
        out["shops.exists_shop.hit_frac"] = c.get("exists_shop.hits", 0) / shop_calls if shop_calls else 0.0
        out["shops.enumerate_she.general.s"] = c.get("enumerate_she.general.s", 0) / passes
        out["shops.enumerate_she.shops_out"] = c.get("enumerate_she.shops_out", 0) / passes
        out["shops.generate_dsm.shops_out"] = c.get("generate_dsm.shops_out", 0) / passes
        out["formulas.canonical_sentence.nodes_out"] = c.get("canonical_sentence.nodes_out", 0) / passes
        out["evaluator.evaluate.true_frac"] = c.get("evaluate.true", 0) / evals if evals else 0.0
        return out

    def write(self, path: str, op_ids: list[str]) -> None:
        """Spans as gzipped TSV: name, start, end, parent, op id."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            names, ops = self.names, op_ids
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                out.write(f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                          f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                          f"{ops[op] if op >= 0 else '-'}\n")
