"""confdet benchmark: seeded workloads over the CLI and library paths.

One workload, one process:

    python3 benchmarks/run.py --workload nms_dense --seed 1 --trace 0

Every workload, each in its own process, untraced then traced:

    python3 benchmarks/run.py --all --seed 1

Self-test (tiny sizes, plus corrupted outputs the gates must catch):

    python3 benchmarks/run.py --selftest

A run generates its inputs in a child process, times interpreter start-up
plus ``import confdet`` in fresh processes, then repeats identical rounds
for ``--seconds`` of wall time (at least three).  Every reported duration is
process CPU time; wall times are kept in the results file.  The first
execution of each operation is its reference: every later one must
reproduce it byte for byte, and it must pass the gates in ``gates.py``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(each throughput from its slowest untraced round, ``setup_s`` a median);
with ``--trace 1`` rounds alternate untraced and traced and it carries the
per-layer metrics.  Raw per-round values, parameters and
versions go to ``benchmarks/results/``.
"""

import os

# One thread per process: pinned before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

sys.path.insert(0, HERE)
from workloads import WORKLOADS, tiny  # noqa: E402

MIN_ROUNDS = 3
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import confdet, confdet.cli; "
    "print(repr(time.process_time()), repr(time.monotonic()))"
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program source, bad manifest)."""


def load_manifest() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from None


def import_program() -> None:
    """Import confdet from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "confdet", "__init__.py")):
        raise SetupError(f"no confdet source under {SRC}")
    sys.path.insert(0, SRC)
    import confdet
    import confdet.cli  # noqa: F401

    if os.path.dirname(os.path.dirname(os.path.abspath(confdet.__file__))) != SRC:
        raise SetupError(f"imported confdet from {confdet.__file__}, not from {SRC}")


def measure_setup() -> tuple[list[float], list[float]]:
    """CPU and wall seconds from process spawn until `import confdet, confdet.cli` returns."""
    cpu, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC], capture_output=True, text=True, check=True
        )
        if i:  # the first spawn also compiles bytecode; it is not a sample
            child_cpu, child_clock = (float(v) for v in done.stdout.split())
            cpu.append(child_cpu)
            wall.append(child_clock - start)
    return cpu, wall


def environment() -> dict:
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_rounds(ops_mod, ops, seconds: float, recorder) -> tuple[list[dict], dict, list[str]]:
    """Repeat rounds for ``seconds`` (at least MIN_ROUNDS, one more when traced).

    With a recorder, odd rounds run traced and even rounds untraced.
    Returns the rounds, the reference outputs and the failures seen.
    """
    failures: list[str] = []
    reference: dict = {}  # op name -> (digest, result) of its first execution
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS + (recorder is not None) or time.perf_counter() - start < seconds:
        traced = recorder is not None and len(rounds) % 2 == 1
        if traced:
            recorder.round = len(rounds)
            recorder.install()
        try:
            row = ops_mod.run_round(ops, reference, failures)
        finally:
            if traced:
                recorder.uninstall()
        rounds.append({"traced": traced, "ops": row})
    return rounds, reference, failures


def gate(ops, reference: dict, failures: list[str]) -> set[str]:
    """Run every op's correctness gates on its reference output; returns the ops that failed."""
    failed = set()
    for op in ops:
        if op.name not in reference:
            continue
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                problems = op.check(reference[op.name][1])
        except Exception:
            problems = [f"{op.name} gate raised: {traceback.format_exc(limit=3)}"]
        if problems:
            failures.extend(problems)
            failed.add(op.name)
    return failed


def round_seconds(rounds: list[dict], name: str | None, traced: bool = False) -> list[float]:
    """One op's CPU seconds, or whole rounds' when name is None, in each untraced (or traced) round."""
    values = [
        sum(v["seconds"] or 0.0 for v in r["ops"].values()) if name is None else r["ops"][name]["seconds"]
        for r in rounds
        if r["traced"] == traced
    ]
    return [v for v in values if v] or [float("inf")]


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    import ops as ops_mod  # imports confdet; sys.path is set by import_program

    workload = tiny(WORKLOADS[name]) if small else WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    phases = {}
    try:
        started = time.perf_counter()
        gen = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", name, "--seed", str(seed), "--out", work]
        subprocess.run(gen + (["--tiny"] if small else []), check=True)
        with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
            inputs = json.load(fh)
        phases["generate_s"] = time.perf_counter() - started

        started = time.perf_counter()
        setup, setup_wall = measure_setup()
        phases["setup_samples_s"] = time.perf_counter() - started

        ops = ops_mod.build(workload, inputs, work)
        recorder = None
        if trace:
            import spans

            recorder = spans.Recorder()
        started = time.perf_counter()
        rounds, reference, failures = measure_rounds(ops_mod, ops, seconds, recorder)
        phases["rounds_s"] = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        started = time.perf_counter()
        gate_failed = gate(ops, reference, failures)
        phases["gates_s"] = time.perf_counter() - started

        # a failing gate fails every execution of its op
        attempted = len(rounds) * sum(op.ops for op in ops)
        failed = sum(
            op.ops if op.name in gate_failed else r["ops"][op.name]["failed"] for r in rounds for op in ops
        )
        metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        for op in ops:
            if op.metric:
                # the slowest round: see "Durations" in README.md
                metrics[op.metric] = op.units / max(round_seconds(rounds, op.name))
        metrics["error_rate"] = failed / attempted

        layer = {}
        if recorder is not None:
            layer = recorder.summarize()
            layer["trace_overhead_ratio"] = statistics.median(round_seconds(rounds, None, traced=True)) / statistics.median(
                round_seconds(rounds, None)
            )
            os.makedirs(RESULTS, exist_ok=True)
            recorder.write_csv(os.path.join(RESULTS, f"{name}-seed{seed}-spans.csv"))

        record = {
            "workload": name,
            "why": workload.why,
            "params": workload.to_dict(),
            "inputs": {k: inputs[k] for k in ("detect", "train")},
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "tiny": small,
            "environment": environment(),
            "phases": phases,
            "setup_samples_s": setup,
            "setup_samples_wall_s": setup_wall,
            "units": {op.name: op.units for op in ops},
            "rounds": rounds,
            "metrics": metrics,
            "per_layer": layer,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
        }
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record: dict, manifest: dict) -> dict:
    """Print metrics by name and unit; return the result object for the last stdout line."""
    wanted = manifest["per_layer"] if record["trace"] else manifest["end_to_end"]
    source = record["per_layer"] if record["trace"] else record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise SetupError(f"BENCHMARK.json lists metrics this run does not produce: {missing}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {record['workload']} seed {record['seed']}: {len(record['rounds'])} rounds")
    for m in wanted:
        print(f"  {m['name']} = {source[m['name']]:.6g} {m['unit']}")
    print(f"  error_rate = {record['metrics']['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(seed: int, seconds: float, manifest: dict) -> int:
    """Every workload in its own process, one at a time, untraced then traced."""
    status = 0
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} trace={trace}: no result (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not result["correct"]:
                status = 1
            if not trace:
                table[name] = result["metrics"]
    print()
    for m in manifest["end_to_end"]:
        cells = "".join(f"  {w}={metrics[m['name']]['value']:.5g}" for w, metrics in table.items())
        print(f"{m['name']} ({m['unit']}):{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="confdet benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--selftest", action="store_true", help="tiny runs plus gate corruption checks")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        manifest = load_manifest()
        seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
        import_program()
        if args.selftest:
            import selftest

            return selftest.main(sys.executable, os.path.abspath(__file__))
        if args.all:
            return run_all(args.seed, seconds, manifest)
        if args.workload is None:
            parser.error("--workload, --all or --selftest is required")
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.tiny)
        result = report(record, manifest)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
