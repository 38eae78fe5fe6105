"""fomc benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload classify-cores --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the repository root; the program is imported from ``src/``.  A run
sets up (import, input generation, warm-up; repeated, median reported as
``setup_s``), then makes passes over the seeded op list until the timed
total reaches ``--seconds``.  Every answer is checked against
``expected.json`` and the evidence checks, outside the timed region.  The
last line of output is one JSON object.  ``--trace 1`` reports per-layer
metrics instead, from wrappers installed around the program's functions
(see tracer.py).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
# best time of reference_loop() on a quiet 2-vCPU VM under CPython 3.11; the
# times a run reports are scaled to this machine speed (see speed_factor)
REFERENCE_S = 0.0069
FAMILY = {"modelcheck": "parsed", "cli": "tuples"}  # which workloads need the family
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}

if not os.path.isfile(os.path.join(SRC, "fomc", "__init__.py")):
    print(f"error: no {os.path.join('src', 'fomc')} beside the benchmark directory; "
          "run from a checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import ops as workloads  # noqa: E402  (needs the program on sys.path)
import tracer as tracing  # noqa: E402
from fomc import shops  # noqa: E402


def reference_loop() -> int:
    """A fixed piece of pure-Python work, independent of the program."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def speed_factor() -> float:
    """How much faster than now the machine runs when quiet.

    On a shared machine the same code runs up to 1.7 times slower for
    stretches from seconds to minutes, longer than a run, because other
    tenants use the same cores.  Timing the reference loop (best of three)
    right before a measurement and multiplying that measurement by this
    factor removes the slowdown, which the loop and the program suffer
    alike; a change to the program does not change the loop.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)["answers"]


def child_import_ms() -> float:
    """Time a fresh interpreter's ``import fomc.cli``, in the child (ms)."""
    code = ("import time; t = time.perf_counter(); import fomc.cli; "
            "print((time.perf_counter() - t) * 1000)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(ROOT),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


class Run:
    """One benchmark run of a workload: set-up, passes and answer checks."""

    def __init__(self, workload: str, seed: int, work_dir: str, trace: bool, expected: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.trace = trace
        self.expected = expected
        self.kinds = workloads.WORKLOADS[workload]()
        self.ctx = None
        self.import_ms: list[float] = []
        self.setup_s: list[float] = []      # scaled by speed_factor()
        self.setup_raw_s: list[float] = []  # as measured
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self._verified: set[tuple[str, str]] = set()

    def setup(self, reps: int = SETUP_REPS) -> list:
        """Set up ``reps`` times from scratch and keep the last op list.

        One set-up: a fresh interpreter imports ``fomc.cli`` (which also
        compiles the bytecode the cli children use), the inputs are
        generated and the fixed ones parsed, and each op kind runs once at
        its smallest size.  Timed from the spawn of that interpreter.
        """
        for _ in range(reps):
            factor = speed_factor()
            start = time.perf_counter()
            self.import_ms.append(child_import_ms())
            ctx = workloads.Context(self.work_dir, FAMILY.get(self.workload, ""))
            ops = [kind.op(op_id, ctx)
                   for kind, op_id in workloads.draw(self.kinds, self.workload, self.seed)]
            for kind in self.kinds:
                if kind.small is not None:
                    kind.op("warmup", ctx, kind.small(ctx)).run()
            if not self.trace:
                ctx.cli_runner = lambda argv: workloads.spawn_cli(ROOT, argv)
            self.setup_raw_s.append(time.perf_counter() - start)
            self.setup_s.append(self.setup_raw_s[-1] * factor)
        self.ctx = ctx
        return ops

    def check(self, op, raw, error) -> None:
        """Score one answer; runs outside the timed region."""
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = self._problems(op, raw)
            except Exception as exc:  # malformed output: scored, not fatal
                problems = [f"output could not be checked: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.id}: {p}" for p in problems)

    def _problems(self, op, raw) -> list[str]:
        answer = op.answer(raw)
        key = op.key(answer)
        want = self.expected.get(op.id)
        problems = []
        if want is None:
            problems.append("no expected answer")
        elif key != want["key"]:
            problems.append(f"answer {key!r} != expected {want['key']!r}")
        seen = (op.id, json.dumps(answer, sort_keys=True))
        if op.verify is not None and seen not in self._verified:
            found = op.verify(answer)
            problems += found
            if not found:
                self._verified.add(seen)
        return problems

    def one_pass(self, ops, tracer=None) -> list[float]:
        gc.collect()
        times = []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            raw = error = None
            start = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a failed op is scored, not fatal
                error = exc
            times.append(time.perf_counter() - start)
            self.check(op, raw, error)
        return times


def run_passes(run: Run, ops, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
    """Passes over ``ops`` until their timed total reaches ``seconds``
    (at least one).  Returns each op's median time over the passes, scaled
    pass by pass with ``speed_factor()``, and its raw fastest time.

    With ``tracer``, passes alternate untraced and traced (U T T U ...), and
    the traced passes' scaled medians go to ``tracer.per_op``.
    """
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    raw: list[list[float]] = []
    total = 0.0
    while not plain or (tracer is not None and not traced) or total < seconds:
        factor = speed_factor()
        if tracer is not None and (len(plain) + len(traced)) % 4 in (1, 2):
            tracer.install()
            try:
                times = run.one_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append([t * factor for t in times])
        else:
            times = run.one_pass(ops)
            plain.append([t * factor for t in times])
            raw.append(times)
        total += sum(times)
    run.notes.append(f"{len(plain)} untraced and {len(traced)} traced passes of {len(ops)} ops")
    if tracer is not None:
        tracer.passes = len(traced)
        tracer.per_op = [statistics.median(t) for t in zip(*traced)]
    return [statistics.median(t) for t in zip(*plain)], [min(t) for t in zip(*raw)]


def latency_metrics(per_op: list[float]) -> tuple[float, float, float]:
    """ops_per_s, latency_p50_ms and latency_p90_ms from per-op times."""
    return (len(per_op) / sum(per_op), statistics.median(per_op) * 1000,
            statistics.quantiles(per_op, n=10, method="inclusive")[8] * 1000)


def measure(run: Run, ops, seconds: float) -> dict:
    per_op, fastest = run_passes(run, ops, seconds)
    ranked = sorted(zip(per_op, (op.kind for op in ops)))
    for q in (50, 90):
        at = (len(ranked) - 1) * q // 100
        run.notes.append(f"p{q} between {ranked[at][1]} and {ranked[at + 1][1]}")
    raw = latency_metrics(fastest)
    run.notes.append(f"as measured (fastest pass per op): ops_per_s={raw[0]:.4f} "
                     f"latency_p50_ms={raw[1]:.4f} latency_p90_ms={raw[2]:.4f} "
                     f"setup_s={statistics.median(run.setup_raw_s):.4f}")
    ops_per_s, p50, p90 = latency_metrics(per_op)
    who = resource.RUSAGE_CHILDREN if run.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ok_frac": 1 - run.failed / run.attempted,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_traced(run: Run, ops, seconds: float, spans_path: str | None) -> dict:
    """Per-layer metrics, per traced pass, from the wrappers' spans."""
    tracer = tracing.Tracer()
    before = shops._mask_tables.cache_info()
    per_op, _ = run_passes(run, ops, seconds, tracer)
    after = shops._mask_tables.cache_info()
    metrics = tracer.metrics(tracer.passes)
    # over every pass: the cache is process-wide and untraced passes use it too
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    metrics["shops.mask_tables.hit_frac"] = hits / lookups if lookups else 0.0
    metrics["cli.import_ms"] = statistics.median(run.import_ms)
    metrics["trace.overhead_frac"] = sum(tracer.per_op) / sum(per_op) - 1
    if spans_path is not None:
        tracer.write(spans_path, [op.id for op in ops])
    units = tracing.per_layer_units()
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def smallest_ops(run: Run) -> tuple[list, list[str]]:
    """Each op kind once, at its smallest size where it has one, else on
    its first pool entry, checked by the kind's oracle and evidence check
    and, for pool entries, by ``expected.json``.  The answers of the small
    ops become their expected answers for the measuring path."""
    ops, problems = [], []
    for kind in run.kinds:
        if kind.small is not None:
            op_id, inp, oracle = f"{kind.name}.small", kind.small(run.ctx), kind.small_oracle
        else:
            op_id = kind.ids()[0]
            inp, oracle = kind.build(op_id, run.ctx), kind.oracle
        op = kind.op(op_id, run.ctx, inp)
        answer = op.answer(op.run())
        found = list(op.verify(answer)) if op.verify else []
        if oracle is not None:
            found += oracle(inp, answer)
        if kind.small is None and op.key(answer) != run.expected[op_id]["key"]:
            found.append("differs from expected.json")
        run.expected.setdefault(op_id, {"key": op.key(answer)})
        problems += [f"{run.workload}/{op_id}: {p}" for p in found]
        ops.append(op)
    return ops, problems


def selfcheck(work_dir: str) -> int:
    """Every op kind once at its smallest size, answers checked; then the
    measuring path on those ops in both modes, with the metric names and
    units checked against BENCHMARK.json.  No time is checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if want[False] != END_TO_END or want[True] != tracing.per_layer_units():
        problems.append("metric names or units differ from BENCHMARK.json")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    expected = load_expected()
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            run = Run(workload, 0, work_dir, trace, dict(expected))
            run.setup(reps=1)
            ops, found = smallest_ops(run)
            problems += found
            result = measure_traced(run, ops, 0, None) if trace else measure(run, ops, 0)
            if {name: m["unit"] for name, m in result.items()} != want[trace]:
                problems.append(f"{workload} --trace {int(trace)}: metric names or units differ")
            problems += [f"{workload}/{p}" for p in run.problems]
        print(f"selfcheck {workload}: {len(problems)} problems so far", flush=True)
    for p in problems:
        print(f"  {p}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every op kind once at its smallest size and check the output")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.selfcheck:
            return selfcheck(work_dir)
        run = Run(args.workload, args.seed, work_dir, bool(args.trace), load_expected())
        ops = run.setup()
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            metrics = measure_traced(run, ops, args.seconds, spans)
        else:
            metrics = measure(run, ops, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in [f"problem: {p}" for p in run.problems[:20]] + run.notes:
        print(line)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} ops, {run.failed} failed")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
