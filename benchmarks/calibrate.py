"""Compare a workload's generated detector dump with the bundled count table.

    python3 benchmarks/calibrate.py --workload nms_dense --seed 1

Generates the workload's dump, runs it through ``confdet nms`` twice -- once
ranked by cls_score as in the table (no gate, no top-k, IoU 0.5) and once
with the workload's own flags -- and ``confdet analyze`` on each, then
prints per-image statistics of both next to those of
src/confdet/data/table1.csv: before-NMS detections, the kept ratio
(after / before, both counted above cls 0.05), the before and after shares
of iou>0.5 and cls>0.5 boxes, and the average after-minus-before delta in
percentage points that the paper reports.
"""

import argparse
import contextlib
import csv
import io
import os
import shutil
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import confdet.cli as cli  # noqa: E402
from confdet import analysis  # noqa: E402

import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONDITIONS = ("iou>0.5", "cls>0.5")
TABLE_FLAGS = ("--mode", "cls", "--iou-thresh", "0.5", "--score-thresh", "0.05")


def summarize(count_table: str) -> dict[str, list[float]]:
    """Per-image statistics of a count-table CSV, keyed by statistic."""
    counts = defaultdict(dict)
    with open(count_table, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            counts[row["image_id"]][(row["stage"], row["condition"])] = int(row["count"])
    stats = defaultdict(list)
    for c in counts.values():
        before, after = c[("before", "cls>0.05")], c[("after", "cls>0.05")]
        stats["before dets"].append(before)
        stats["kept ratio"].append(after / before)
        for cond in CONDITIONS:
            b, a = c[("before", cond)] / before, c[("after", cond)] / after
            stats[f"before {cond} share"].append(b)
            stats[f"after {cond} share"].append(a)
            stats[f"{cond} delta pp"].append(100.0 * (a - b))
    return stats


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"confdet {' '.join(argv)} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    work = os.path.join(HERE, "work", f"calibrate-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        gen.generate(args.workload, args.seed, work)
        dets, gts = os.path.join(work, "dets.jsonl"), os.path.join(work, "gts.jsonl")
        columns = {"table1": summarize(str(analysis.bundled_count_table()))}
        flags = {"cls-ranked": TABLE_FLAGS, "workload": WORKLOADS[args.workload].detect.nms_flags}
        for label, nms_flags in flags.items():
            kept, table = os.path.join(work, f"{label}.jsonl"), os.path.join(work, f"{label}.csv")
            run_cli(["nms", dets, kept, *nms_flags])
            run_cli(["analyze", "--before", dets, "--after", kept, "--gts", gts,
                     "--conditions", ",".join(CONDITIONS), "--out-stats", table])
            columns[label] = summarize(table)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: per-image min / median / max (delta rows: mean)")
    print(f"{'':22}" + "".join(f"{name:>30}" for name in columns))
    for key in columns["table1"]:
        cells = []
        for stats in columns.values():
            v = stats[key]
            if key.endswith("pp"):
                cells.append(f"{statistics.fmean(v):>30.2f}")
            elif key == "before dets":
                cells.append(f"{min(v):>10.0f}{statistics.median(v):>10.0f}{max(v):>10.0f}")
            else:
                cells.append(f"{min(v):>10.3f}{statistics.median(v):>10.3f}{max(v):>10.3f}")
        print(f"{key:22}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
