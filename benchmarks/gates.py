"""Correctness gates: independent re-derivations of every benchmark output.

Nothing here imports confdet.  Boxes, scores and counts are re-read from
the files the program wrote and recomputed with plain Python and numpy.
IoU uses the same floating-point operation order as the scalar definition
(min/max, subtract, multiply, add, divide), so strict ``>`` threshold
decisions agree bit for bit with any exact implementation.

Every gate returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

TOTAL_CONDITION = "cls>0.05"


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def by_image(records: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(r["image_id"], []).append(r)
    return groups


def iou_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) corner arrays."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def boxes_of(records: list[dict]) -> np.ndarray:
    return np.array([r["box"] for r in records], dtype=np.float64).reshape(-1, 4)


# ------------------------------------------------------------------ nms


def fused_score(cls: float, obj: float, alpha: float) -> float:
    """obj^alpha * cls^(1-alpha); alpha 0 or obj == cls give cls, alpha 1 gives obj."""
    if alpha == 0.0 or obj == cls:
        return cls
    if alpha == 1.0:
        return obj
    return obj**alpha * cls ** (1.0 - alpha)


def greedy_keep(boxes: np.ndarray, scores: list[float], iou_threshold: float) -> list[int]:
    """Single-class greedy suppression; returns kept positions."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ious = iou_block(boxes[order], boxes[order])
    suppressed = np.zeros(len(order), dtype=bool)
    kept = []
    for k, i in enumerate(order):
        if suppressed[k]:
            continue
        kept.append(i)
        suppressed |= ious[k] > iou_threshold
    return kept


def expected_nms(records: list[dict], flags: dict) -> list[dict]:
    """The nms command's output, derived independently from its input dump (product fusion)."""
    if flags["mode"] != "product":
        raise ValueError(f"the oracle covers product fusion only, got mode {flags['mode']!r}")
    alpha, iou_thr, score_thr = flags["alpha"], flags["iou_thresh"], flags["score_thresh"]
    gate, topk = flags.get("obj_gate"), flags.get("topk")
    out = []
    for dets in by_image(records).values():
        if gate is not None:
            dets = [d for d in dets if d["obj_score"] > gate]
        dets = [dict(d, fused_score=fused_score(d["cls_score"], d["obj_score"], alpha)) for d in dets]
        dets = [d for d in dets if d["fused_score"] > score_thr]
        if topk is not None and len(dets) > topk:
            ranked = sorted(range(len(dets)), key=lambda i: (-dets[i]["fused_score"], i))
            dets = [dets[i] for i in sorted(ranked[:topk])]
        kept = []
        for cls in sorted({d["class_id"] for d in dets}):
            members = [i for i, d in enumerate(dets) if d["class_id"] == cls]
            keep = greedy_keep(boxes_of([dets[i] for i in members]), [dets[i]["fused_score"] for i in members], iou_thr)
            kept.extend(members[k] for k in keep)
        kept.sort(key=lambda i: (-dets[i]["fused_score"], i))
        out.extend(dets[i] for i in kept)
    return out


def check_nms(input_path, output_path, flags: dict) -> list[str]:
    got = read_jsonl(output_path)
    want = expected_nms(read_jsonl(input_path), flags)
    if got == want:
        return []
    if len(got) != len(want):
        return [f"nms {output_path}: {len(got)} kept boxes, oracle keeps {len(want)}"]
    first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    return [f"nms {output_path}: record {first} is {got[first]}, oracle gives {want[first]}"]


# ------------------------------------------------------------------ analyze


def parse_condition(text: str) -> tuple[str, float]:
    kind, _, raw = text.strip().partition(">")
    return kind.strip(), float(raw)


def condition_text(kind: str, threshold: float) -> str:
    return f"{kind}>{threshold:g}"


def recount(before_path, after_path, gts_path, conditions: list[str]):
    """Count table and (max IoU, cls) scatter rows, recomputed from the dumps."""
    conds = [parse_condition(c) for c in conditions]
    if ("cls", 0.05) not in conds:
        conds.append(("cls", 0.05))
    gts = {k: boxes_of(v) for k, v in by_image(read_jsonl(gts_path)).items()}
    after = by_image(read_jsonl(after_path))
    counts: dict[tuple[str, str, str], int] = {}
    scatter = []
    for image_id, before in by_image(read_jsonl(before_path)).items():
        g = gts.get(image_id, np.zeros((0, 4)))
        for stage, dets in (("before", before), ("after", after.get(image_id, []))):
            cls = np.array([d["cls_score"] for d in dets], dtype=np.float64)
            best = iou_block(boxes_of(dets), g).max(axis=1) if len(dets) and len(g) else np.zeros(len(dets))
            for kind, thr in conds:
                values = cls if kind == "cls" else best
                counts[(image_id, stage, condition_text(kind, thr))] = int(np.count_nonzero(values > thr))
            if stage == "before":
                scatter.extend(zip(best.tolist(), cls.tolist()))
    return counts, scatter


def read_count_table(path) -> dict[tuple[str, str, str], int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {(r[0], r[1], r[2]): int(r[3]) for r in rows[1:] if r}


def round_half_up(value: float) -> float:
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def expected_averages(counts: dict, conditions: list[str]) -> dict[str, float]:
    """Mean after-minus-before percentage-point change per condition."""
    images = list(dict.fromkeys(key[0] for key in counts))
    out = {}
    for cond in conditions:
        c = condition_text(*parse_condition(cond))
        deltas = []
        for im in images:
            tb, ta = counts[(im, "before", TOTAL_CONDITION)], counts[(im, "after", TOTAL_CONDITION)]
            if tb > 0 and ta > 0:
                deltas.append(100.0 * counts[(im, "after", c)] / ta - 100.0 * counts[(im, "before", c)] / tb)
        out[c] = round_half_up(sum(deltas) / len(deltas))
    return out


def check_analyze(before, after, gts, conditions, stats_path, report_path, scatter_path, counts_report_path) -> list[str]:
    failures = []
    counts, scatter = recount(before, after, gts, conditions)
    got = read_count_table(stats_path)
    if got != counts:
        diff = sorted(k for k in set(got) | set(counts) if got.get(k) != counts.get(k))
        k = diff[0]
        failures.append(f"analyze {stats_path}: {len(diff)} counts differ, e.g. {k}: {got.get(k)} vs recount {counts.get(k)}")
    with open(scatter_path, newline="", encoding="utf-8") as fh:
        rows = [(float(a), float(b)) for a, b in list(csv.reader(fh))[1:]]
    if rows != scatter:
        failures.append(f"analyze {scatter_path}: scatter rows differ from recount ({len(rows)} vs {len(scatter)})")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(counts_report_path, encoding="utf-8") as fh:
        counts_report = json.load(fh)
    if report != counts_report:
        failures.append(f"analyze: report from --counts {counts_report_path} differs from report from dumps")
    want = expected_averages(counts, conditions)
    for entry in report["reports"]:
        if entry["average_delta_pp"] != want[entry["condition"]]:
            failures.append(
                f"analyze {report_path}: {entry['condition']} average {entry['average_delta_pp']} "
                f"vs recount {want[entry['condition']]}"
            )
    return failures


def check_bundled_report(report_path) -> list[str]:
    """The bundled ten-image table must reproduce the paper's averages."""
    with open(report_path, encoding="utf-8") as fh:
        averages = {e["condition"]: e["average_delta_pp"] for e in json.load(fh)["reports"]}
    want = {"iou>0.5": -19.52, "cls>0.5": -1.09}
    return [] if averages == want else [f"bundled table averages {averages}, expected {want}"]


# ------------------------------------------------------------------ training targets


RETINANET = {
    "strides": (8, 16, 32, 64, 128),
    "base_sizes": (32.0, 64.0, 128.0, 256.0, 512.0),
    "scales": (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0)),
    "ratios": (0.5, 1.0, 2.0),
}


def reference_anchors(w: int, h: int) -> np.ndarray:
    """RetinaNet anchor tiling: level-major, then row, column, (scale, ratio)."""
    shapes = [(s * math.sqrt(1.0 / r), s * math.sqrt(r)) for s in RETINANET["scales"] for r in RETINANET["ratios"]]
    wf = np.array([s[0] for s in shapes])
    hf = np.array([s[1] for s in shapes])
    levels = []
    for stride, base in zip(RETINANET["strides"], RETINANET["base_sizes"]):
        rows, cols = math.ceil(h / stride), math.ceil(w / stride)
        cy = ((np.arange(rows) + 0.5) * stride)[:, None, None]
        cx = ((np.arange(cols) + 0.5) * stride)[None, :, None]
        half_w = (0.5 * base * wf)[None, None, :]
        half_h = (0.5 * base * hf)[None, None, :]
        shape = (rows, cols, len(shapes))
        levels.append(
            np.stack(
                [
                    np.broadcast_to(cx - half_w, shape),
                    np.broadcast_to(cy - half_h, shape),
                    np.broadcast_to(cx + half_w, shape),
                    np.broadcast_to(cy + half_h, shape),
                ],
                axis=-1,
            ).reshape(-1, 4)
        )
    return np.concatenate(levels)


def reference_assign(anchors: np.ndarray, gts: np.ndarray, pos_iou=0.5, neg_iou=0.4):
    """Max-IoU labels with the ignore band and best-anchor promotion."""
    ious = np.column_stack([iou_block(anchors, gts[j : j + 1])[:, 0] for j in range(len(gts))])
    best_gt = ious.argmax(axis=1)
    best = ious.max(axis=1)
    labels = np.full(len(anchors), -1, dtype=np.int64)
    labels[(best >= neg_iou) & (best < pos_iou)] = -2
    labels[best >= pos_iou] = best_gt[best >= pos_iou]
    matched = best.copy()
    forced = np.zeros(len(anchors), dtype=bool)
    for j in range(len(gts)):
        i = int(ious[:, j].argmax())
        if ious[i, j] <= 0.0 or forced[i] or labels[i] == j:
            continue
        labels[i], matched[i], forced[i] = j, ious[i, j], True
    return labels, matched, forced


def check_train_image(image: dict, anchors: np.ndarray, gts: np.ndarray, out: dict) -> list[str]:
    """Anchors, labels and targets of one image against the numpy reference."""
    name = image["image_id"]
    ref = reference_anchors(image["w"], image["h"])
    if anchors.shape != ref.shape or not np.array_equal(anchors, ref):
        return [f"train {name}: anchors differ from the reference tiling ({anchors.shape} vs {ref.shape})"]
    labels, matched, forced = reference_assign(anchors, gts)
    failures = []
    if not np.array_equal(out["labels"], labels):
        bad = np.flatnonzero(out["labels"] != labels)
        failures.append(f"train {name}: {bad.size} assign labels differ from the reference, first at anchor {bad[0]}")
    if not (np.array_equal(out["matched_iou"], matched) and np.array_equal(out["forced"], forced)):
        failures.append(f"train {name}: matched IoU or forced flags differ from the reference")
    if not (np.array_equal(out["targets"], np.where(labels >= 0, matched, 0.0)) and np.array_equal(out["used"], labels >= 0)):
        failures.append(f"train {name}: confidence targets differ from the reference")
    values = np.array(out["losses"])
    if not (np.isfinite(values).all() and (values >= 0.0).all() and all(np.isfinite(g).all() for g in out["grads"])):
        failures.append(f"train {name}: a loss value or gradient is not finite")
    return failures


# ------------------------------------------------------------------ losses


GRADCHECK_TOL = 1e-6


def check_gradcheck(errors: dict[str, float]) -> list[str]:
    return [f"gradcheck {k}: max relative error {e:.3e} >= {GRADCHECK_TOL:g}" for k, e in errors.items() if not e < GRADCHECK_TOL]


def check_saturation(crossings: dict[tuple[str, str], int | None]) -> list[str]:
    """From a saturated start, ce reaches MAE < 0.05 strictly before l1 and l2."""
    failures = []
    for (init, loss), ce in crossings.items():
        if loss != "ce" or not init.startswith("saturated"):
            continue
        if ce is None:
            failures.append(f"toytrain {init}: ce never escaped saturation")
            continue
        for other in ("l1", "l2"):
            c = crossings.get((init, other))
            if c is not None and c <= ce:
                failures.append(f"toytrain {init}: {other} escaped at {c}, ce only at {ce}")
    return failures
