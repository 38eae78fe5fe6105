"""Regenerate ``expected.json``: the answer to every pool input.

    python3 perfbench/make_expected.py

Runs each op once on the current program, cross-checks it against the
kind's independent oracle (where one exists) and its evidence check, checks
that the four QCSP targets agree on every sentence, and writes the answers
with the oracle that confirmed each.  It refuses to write if any check
fails.  Prints per-kind op times, which size the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops as workloads  # noqa: E402

NOTE = ("Expected answers for every pool input, keyed by op id. 'source' names "
        "the independent oracle that confirmed the answer; where it says "
        "'seed commit', no independent oracle exists at that size (e.g. the "
        "Pspace labels of random 10- and 12-element digraphs) and the answer is "
        "the one the program gave when this file was generated, with any "
        "witnesses re-checked by the benchmark's own code.")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    path = os.path.join(HERE, "expected.json")
    answers = {}
    problems = []
    qcsp_truth: dict[str, dict[str, bool]] = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work_dir:
        ctx = workloads.Context(work_dir, "parsed")
        ctx.cli_runner = workloads.inprocess_cli
        for workload, kinds_of in workloads.WORKLOADS.items():
            for kind in kinds_of():
                times = []
                oracle_start = time.perf_counter()
                for op_id in kind.ids():
                    inp = kind.build(op_id, ctx)
                    op = kind.op(op_id, ctx, inp)
                    start = time.perf_counter()
                    raw = op.run()
                    times.append(time.perf_counter() - start)
                    answer = op.answer(raw)
                    found = list(op.verify(answer)) if op.verify else []
                    if kind.oracle is not None:
                        found += kind.oracle(inp, answer)
                    problems += [f"{op_id}: {p}" for p in found]
                    key = kind.key(answer)
                    answers[op_id] = {"key": key, "source": kind.oracle_name}
                    if kind.name.startswith("qcsp."):
                        qcsp_truth.setdefault(op_id.split(".")[-1], {})[kind.name] = key
                ms = sorted(t * 1000 for t in times)
                print(f"{workload:15s} {kind.name:20s} n={len(ms):3d} "
                      f"median={statistics.median(ms):8.1f}ms max={ms[-1]:8.1f}ms "
                      f"sum={sum(ms):8.0f}ms (with oracles {time.perf_counter() - oracle_start:.1f}s)",
                      flush=True)
    for index, truth in sorted(qcsp_truth.items()):
        if len(set(truth.values())) > 1:
            problems.append(f"qcsp sentence {index}: targets disagree {truth}")
    if problems:
        for p in problems:
            print("problem:", p)
        print("expected.json not written")
        return 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"note": NOTE, "answers": dict(sorted(answers.items()))}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
