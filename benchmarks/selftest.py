"""Benchmark self-test: tiny runs of every workload, then deliberately
corrupted outputs that the correctness gates must reject.

Run through ``python3 benchmarks/run.py --selftest``; exits 0 only if every
tiny run passes and every corruption is caught.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess

import numpy as np

import gates
import ops as ops_mod
from workloads import WORKLOADS, tiny


def tiny_runs(python: str, runner: str) -> list[tuple[str, bool, str]]:
    results = []
    for name in WORKLOADS:
        for trace in ("0", "1") if name == "eval_sparse" else ("0",):
            cmd = [python, runner, "--workload", name, "--seed", "1", "--seconds", "0.2", "--trace", trace, "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                ok = done.returncode == 0 and result["correct"] and result["failed"] == 0
                detail = f"{len(result['metrics'])} metrics"
                if trace == "1":
                    ok = ok and result["metrics"]["trace_overhead_ratio"]["value"] > 0
            except (IndexError, ValueError, KeyError):
                ok, detail = False, done.stderr.strip()[-500:]
            results.append((f"tiny run {name} trace={trace}", ok, detail))
    return results


def corruption_checks(python: str, here: str) -> list[tuple[str, bool, str]]:
    """Each corrupted output must make its gate report a failure."""
    work = os.path.join(here, "work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        subprocess.run(
            [python, os.path.join(here, "gen.py"), "--workload", "eval_sparse", "--seed", "7", "--out", work, "--tiny"],
            check=True,
        )
        with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
            inputs = json.load(fh)
        ops = ops_mod.build(tiny(WORKLOADS["eval_sparse"]), inputs, work)
        nms, analyze, _, train, toy, grad = ops
        failures: list[str] = []
        reference: dict = {}
        ops_mod.run_round(ops, reference, failures)
        out = {op.name: reference[op.name][1] for op in ops}
        with contextlib.redirect_stdout(io.StringIO()):
            failures += [f for op in ops for f in op.check(out[op.name])]
        results = [("reference outputs pass every gate", not failures, "; ".join(failures))]

        def caught(label: str, problems: list[str]):
            results.append((label, bool(problems), problems[0] if problems else "not caught"))

        with open(nms.out, encoding="utf-8") as fh:
            kept = fh.readlines()
        dropped = os.path.join(work, "kept_dropped.jsonl")
        with open(dropped, "w", encoding="utf-8") as fh:
            fh.writelines(kept[:-1])
        caught("one dropped kept box", gates.check_nms(nms.src, dropped, ops_mod.nms_settings(nms.flags)))

        record = json.loads(kept[0])
        record["fused_score"] = np.nextafter(record["fused_score"], 0.0)
        rescored = os.path.join(work, "kept_rescored.jsonl")
        with open(rescored, "w", encoding="utf-8") as fh:
            fh.writelines([json.dumps(record) + "\n"] + kept[1:])
        caught("fused score one ulp low", gates.check_nms(nms.src, rescored, ops_mod.nms_settings(nms.flags)))

        p = analyze.paths
        with open(p["stats"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        head, count = rows[1].rsplit(",", 1)
        rows[1] = f"{head},{int(count) + 1}"
        bad_stats = os.path.join(work, "counts_off_by_one.csv")
        with open(bad_stats, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        caught(
            "one off-by-one count",
            gates.check_analyze(p["before"], p["after"], p["gts"], analyze.conditions.split(","),
                                bad_stats, p["report"], p["scatter"], p["counts_report"]),
        )

        image = copy.deepcopy(out["train"][0])
        i = int(np.flatnonzero(image["labels"] >= 0)[0])
        image["labels"][i] = -1
        caught("one flipped assign label", train.check([image]))

        caught("gradcheck error above tolerance", gates.check_gradcheck(dict(out["gradcheck"], ce=2e-6)))
        crossings = {k: t.first_iteration_below(0.05) for k, t in out["toytrain"].items()}
        key = next(k for k in crossings if k[1] == "ce" and k[0].startswith("saturated"))
        crossings[(key[0], "l2")] = crossings[key]
        caught("l2 escaping saturation no later than ce", gates.check_saturation(crossings))

        stale = {name: ("0" * 64, value) for name, (_, value) in reference.items()}
        repeat_failures: list[str] = []
        ops_mod.run_round([nms], stale, repeat_failures)
        caught("nms output differing from the reference round", repeat_failures)
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(python: str, runner: str) -> int:
    here = os.path.dirname(os.path.abspath(runner))
    results = tiny_runs(python, runner) + corruption_checks(python, here)
    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}" + ("" if ok else f": {detail}"))
    failed = sum(not ok for _, ok, _ in results)
    print(f"selftest: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0
