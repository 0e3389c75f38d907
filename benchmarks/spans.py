"""Span recorder for the traced benchmark run.

Public functions of each confdet module are wrapped from the outside, at
every module attribute they are bound to (``assignment.iou_matrix`` and
``analysis.iou_matrix`` both route to the one ``geometry.iou_matrix``
span).  Per-element scalars such as ``geometry.iou`` and ``fusion.fuse``
are never wrapped, so that the recorder's own cost stays small.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np


def _nms_counts(args, kwargs, result):
    return {"boxes_in": len(args[0]), "boxes_kept": len(result)}


def _score_filter_counts(args, kwargs, result):
    return {"in": len(args[0]), "passed": len(result)}


def _assign_counts(args, kwargs, result):
    return {"anchors": result.n_total, "positives": result.n_pos}


def _elems(position: int):
    return lambda args, kwargs, result: {"elems": int(np.size(args[position]))}


PACKAGE = "confdet"

# (module, function, counter).  Counters see (args, kwargs, result).
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("cli", "cmd_nms", None),
    ("cli", "cmd_analyze", None),
    ("postprocess", "load_detections_jsonl", lambda a, k, r: {"dets": len(r)}),
    ("postprocess", "dump_detections_jsonl", lambda a, k, r: {"dets": len(a[0])}),
    ("postprocess", "group_by_image", lambda a, k, r: {"dets": sum(len(v) for v in r.values())}),
    ("postprocess", "inference_pipeline", None),
    ("postprocess", "apply_fusion", None),
    ("postprocess", "score_filter", _score_filter_counts),
    ("postprocess", "nms", _nms_counts),
    ("fusion", "gate", None),
    ("geometry", "generate_anchors", lambda a, k, r: {"anchors": len(r)}),
    ("geometry", "iou_matrix", lambda a, k, r: {"pairs": int(r.size)}),
    ("assignment", "load_ground_truth_jsonl", None),
    ("assignment", "assign", _assign_counts),
    ("assignment", "confidence_targets", None),
    ("analysis", "compute_image_stats", None),
    ("analysis", "max_iou_to_gts", None),
    ("analysis", "proportions_from_counts", None),
    ("analysis", "emit_count_table", None),
    ("analysis", "ingest_count_table", None),
    ("analysis", "misalignment_summary", None),
    ("analysis", "write_scatter_csv", None),
    ("losses", "confidence_loss", _elems(1)),
    ("losses", "confidence_loss_grad", _elems(1)),
    ("losses", "focal_loss", _elems(0)),
    ("losses", "focal_loss_grad", _elems(0)),
    ("losses", "sigmoid_regression_grad", None),
    ("toytrain", "make_dataset", None),
    ("toytrain", "train", None),
    ("toytrain", "finite_diff_check", None),
]

# Throughput of a span: counter / inclusive seconds.
RATES = {
    "postprocess.load_detections_jsonl": ("dets", "dets_per_s"),
    "postprocess.dump_detections_jsonl": ("dets", "dets_per_s"),
    "postprocess.group_by_image": ("dets", "dets_per_s"),
    "geometry.generate_anchors": ("anchors", "anchors_per_s"),
    "geometry.iou_matrix": ("pairs", "pairs_per_s"),
    "losses.confidence_loss": ("elems", "elems_per_s"),
    "losses.confidence_loss_grad": ("elems", "elems_per_s"),
    "losses.focal_loss": ("elems", "elems_per_s"),
    "losses.focal_loss_grad": ("elems", "elems_per_s"),
}

# Share of a span's input that its output keeps: (numerator, denominator).
RATIOS = {
    "postprocess.nms": ("boxes_kept", "boxes_in", "kept_ratio"),
    "postprocess.score_filter": ("passed", "in", "pass_ratio"),
    "assignment.assign": ("positives", "anchors", "pos_ratio"),
}

# Per-call latency percentiles, reported in milliseconds.
LATENCY = {"postprocess.inference_pipeline": "image"}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fn, _ in TARGETS]


class Recorder:
    """Collects (name, round, start, end, parent) spans and per-span counters."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[tuple[str, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        rec = self
        spans = self.spans
        stack = self._stack
        clock = time.process_time  # CPU time, like the end-to-end metrics

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, rec.round, start, end, parent)
            if counter is not None:
                bucket = rec.counters[(name, rec.round)]
                for key, value in counter(args, kwargs, result).items():
                    bucket[key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every target inside the package."""
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "round", "start_s", "end_s", "parent"])
            for i, span in enumerate(self.spans):
                name, rnd, start, end, parent = span
                writer.writerow([i, name, rnd, repr(start), repr(end), parent])

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics: medians over traced rounds of per-round sums."""
        rounds = sorted({s[1] for s in self.spans})
        child = [0.0] * len(self.spans)
        for name, rnd, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_round = {r: defaultdict(lambda: [0.0, 0.0, 0]) for r in rounds}  # self, total, calls
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, rnd, start, end, parent) in enumerate(self.spans):
            acc = per_round[rnd][name]
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
            if name in LATENCY:
                durations[name].append(end - start)

        def median_over_rounds(fn) -> float:
            return statistics.median(fn(r) for r in rounds) if rounds else 0.0

        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.self_s"] = median_over_rounds(lambda r: per_round[r][name][0])
            out[f"{name}.calls"] = median_over_rounds(lambda r: per_round[r][name][2])
        for name, (key, metric) in RATES.items():
            work = sum(self.counters[(name, r)][key] for r in rounds)
            busy = sum(per_round[r][name][1] for r in rounds)
            out[f"{name}.{metric}"] = work / busy if busy > 0 else 0.0
        for name, (num, den, metric) in RATIOS.items():
            n = sum(self.counters[(name, r)][num] for r in rounds)
            d = sum(self.counters[(name, r)][den] for r in rounds)
            out[f"{name}.{metric}"] = n / d if d > 0 else 0.0
        out["postprocess.nms.boxes_in"] = median_over_rounds(
            lambda r: self.counters[("postprocess.nms", r)]["boxes_in"]
        )
        for name, prefix in LATENCY.items():
            ms = [1000.0 * d for d in durations[name]] or [0.0]
            out[f"{name}.{prefix}_p50_ms"] = statistics.median(ms)
            out[f"{name}.{prefix}_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
        return out
