"""Seeded input generator for the confdet benchmark.

Runs in its own process so that input generation never counts toward the
measuring process's time or peak memory:

    python3 benchmarks/gen.py --workload nms_dense --seed 1 --out DIR

Writes into DIR:
  dets.jsonl        detector dump (clusters of near-duplicate boxes)
  gts.jsonl         ground truth of the detection images
  train_gts.jsonl   ground truth of the training images
  manifest.json     workload parameters, seed and input sizes

Scores follow the paper's premise: ``obj_score`` tracks the detection's
IoU with the object it was drawn from, while ``cls_score`` is mostly a
per-object quality with only a weak IoU term, so score-ranked NMS discards
well-localized boxes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS, DetectSpec, TrainSpec, tiny  # noqa: E402


# The detection model, calibrated against the bundled count table with
# calibrate.py.  A dense detector emits clusters of near-duplicate boxes:
# large ones on objects, small ones on background, each cluster offset from
# its object by its own localisation error.  Greedy NMS keeps about one box
# per cluster, a few percent of the input.
FG_FRAC = 0.4  # share of detections in clusters on objects
FG_CLUSTER_DETS = 80  # mean detections per object cluster
BG_CLUSTER_DETS = 15  # mean detections per background cluster
CLUSTER_JITTER = (0.03, 0.6)  # log-uniform range of a cluster's offset from its object, in box sizes
BOX_JITTER = (0.01, 0.08)  # log-uniform range of a box's offset within its cluster
ALT_CLASS = 0.2  # chance an object cluster carries one of the object's two confusable classes
QUALITY = (0.06, 0.45)  # range of an object's classification quality
CLS_NOISE = 0.35  # log-normal spread of a box's cls_score around its object's quality
BG_CLS_MEAN = 0.04  # mean excess of a background box's cls_score over the 0.05 floor
SCORE_FLOOR = 0.0501  # every box clears the 0.05 floor the bundled table counts from


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n evenly spaced quantile levels, both ends included, in a seeded random order."""
    return rng.permutation(n) / (n - 1) if n > 1 else np.full(n, 0.5)


def anchored(q: np.ndarray, anchors) -> np.ndarray:
    """Log-linear interpolation between evenly spaced anchor values at quantiles q."""
    return np.exp(np.interp(q, np.linspace(0.0, 1.0, len(anchors)), np.log(anchors)))


def log_uniform(q: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** q


def random_boxes(rng, n: int, w_img: int, h_img: int, px: tuple[float, float]) -> np.ndarray:
    """n boxes inside the image with log-uniform size and mild aspect jitter."""
    side = log_uniform(rng.random(n), px[0], px[1])
    aspect = np.exp(rng.normal(0.0, 0.3, n))
    w = np.minimum(side * np.sqrt(aspect), w_img - 1.0)
    h = np.minimum(side / np.sqrt(aspect), h_img - 1.0)
    x1 = rng.random(n) * (w_img - w)
    y1 = rng.random(n) * (h_img - h)
    return np.column_stack([x1, y1, x1 + w, y1 + h])


def jittered(rng, centres: np.ndarray, jitter: tuple[float, float]) -> np.ndarray:
    """One box around each row of ``centres``, shifted and rescaled by a per-box jitter scale."""
    n = len(centres)
    scale = log_uniform(rng.random(n), *jitter)
    gw, gh = centres[:, 2] - centres[:, 0], centres[:, 3] - centres[:, 1]
    cx = 0.5 * (centres[:, 0] + centres[:, 2]) + rng.normal(0.0, 1.0, n) * scale * gw
    cy = 0.5 * (centres[:, 1] + centres[:, 3]) + rng.normal(0.0, 1.0, n) * scale * gh
    dw = gw * np.exp(rng.normal(0.0, 1.0, n) * scale)
    dh = gh * np.exp(rng.normal(0.0, 1.0, n) * scale)
    return np.column_stack([cx - dw / 2, cy - dh / 2, cx + dw / 2, cy + dh / 2])


def pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise IoU of two (n, 4) arrays."""
    iw = np.clip(np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0]), 0.0, None)
    ih = np.clip(np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1]), 0.0, None)
    inter = iw * ih
    union = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]) + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def rounded_boxes(boxes: np.ndarray, w_img: int, h_img: int) -> np.ndarray:
    out = np.round(np.clip(boxes, 0.0, [w_img, h_img, w_img, h_img]), 2)
    out[:, 2] = np.maximum(out[:, 2], out[:, 0])
    out[:, 3] = np.maximum(out[:, 3], out[:, 1])
    return out


def box_text(b) -> str:
    return f"[{float(b[0])!r}, {float(b[1])!r}, {float(b[2])!r}, {float(b[3])!r}]"


def detector_image(rng, spec: DetectSpec, n_obj: int, n_det: int):
    """Ground truth and a clustered detection set for one image."""
    w_img, h_img = spec.image_size
    gt = rounded_boxes(random_boxes(rng, n_obj, w_img, h_img, spec.object_px), w_img, h_img)
    gt_cls = rng.integers(0, spec.classes, n_obj)
    quality = rng.uniform(*QUALITY, n_obj)

    n_fg = int(round(FG_FRAC * n_det))
    n_fg_clusters = max(1, int(round(n_fg / FG_CLUSTER_DETS)))
    n_bg_clusters = max(1, int(round((n_det - n_fg) / BG_CLUSTER_DETS)))
    owner = rng.integers(0, n_obj, n_fg_clusters)
    alt = rng.integers(0, spec.classes, n_fg_clusters)
    centres = np.concatenate([
        jittered(rng, gt[owner], CLUSTER_JITTER),
        random_boxes(rng, n_bg_clusters, w_img, h_img, spec.object_px),
    ])
    cluster_class = np.concatenate([
        np.where(rng.random(n_fg_clusters) < ALT_CLASS, alt, gt_cls[owner]),
        rng.integers(0, spec.classes, n_bg_clusters),
    ])
    # an object cluster's expected size grows with its object's quality
    weight = quality[owner]
    cluster = np.concatenate([
        rng.choice(n_fg_clusters, n_fg, p=weight / weight.sum()),
        n_fg_clusters + rng.integers(0, n_bg_clusters, n_det - n_fg),
    ])
    fg = cluster < n_fg_clusters
    boxes = rounded_boxes(jittered(rng, centres[cluster], BOX_JITTER), w_img, h_img)

    box_owner = owner[np.minimum(cluster, n_fg_clusters - 1)]
    box_iou = np.where(fg, pair_iou(boxes, gt[box_owner]), 0.0)
    # obj tracks localisation; cls is the object's quality with only a weak IoU term
    obj_score = np.where(fg, box_iou + rng.normal(0.0, 0.07, n_det), rng.uniform(0.0, 0.3, n_det))
    cls_score = np.where(
        fg,
        quality[box_owner] * np.exp(rng.normal(0.0, CLS_NOISE, n_det)) + 0.1 * (box_iou - 0.5),
        0.05 + rng.exponential(BG_CLS_MEAN, n_det),
    )
    cls_score = np.round(np.clip(cls_score, SCORE_FLOOR, 1.0), 4)
    obj_score = np.round(np.clip(obj_score, 0.0, 1.0), 4)
    order = rng.permutation(n_det)
    return gt, gt_cls, boxes[order], cluster_class[cluster][order], cls_score[order], obj_score[order]


def write_detect(rng, spec: DetectSpec, out: str) -> dict:
    # object counts rise with detection counts, so crowding per object is the same for every seed
    q = stratified(rng, spec.images)
    det_counts = np.rint(anchored(q, spec.dets)).astype(int)
    obj_counts = np.rint(log_uniform(q, *spec.objects)).astype(int)
    n_dets = 0
    with open(os.path.join(out, "dets.jsonl"), "w", encoding="utf-8") as fd, open(
        os.path.join(out, "gts.jsonl"), "w", encoding="utf-8"
    ) as fg:
        for i in range(spec.images):
            image_id = f"img{i:05d}"
            gt, gt_cls, boxes, classes, cls_score, obj_score = detector_image(
                rng, spec, int(obj_counts[i]), int(det_counts[i])
            )
            for b, c in zip(gt, gt_cls):
                fg.write(f'{{"image_id": "{image_id}", "box": {box_text(b)}, "class_id": {int(c)}}}\n')
            for b, c, s, o in zip(boxes, classes, cls_score, obj_score):
                fd.write(
                    f'{{"image_id": "{image_id}", "box": {box_text(b)}, "class_id": {int(c)}, '
                    f'"cls_score": {float(s)!r}, "obj_score": {float(o)!r}}}\n'
                )
            n_dets += len(boxes)
    return {"images": spec.images, "dets": n_dets, "objects": int(obj_counts.sum())}


def write_train(rng, spec: TrainSpec, out: str) -> dict:
    # ground-truth counts rise with image size, so every seed pairs the same count with the same size
    q = np.linspace(0.0, 1.0, spec.images) if spec.images > 1 else np.full(1, 0.5)
    gt_counts = np.rint(spec.gts[0] + (spec.gts[1] - spec.gts[0]) * q).astype(int)
    images = []
    with open(os.path.join(out, "train_gts.jsonl"), "w", encoding="utf-8") as fh:
        for i in range(spec.images):
            image_id = f"train{i:03d}"
            w_img, h_img = spec.sizes[i % len(spec.sizes)]
            px = (16.0, min(w_img, h_img) / 2.0)
            boxes = rounded_boxes(random_boxes(rng, int(gt_counts[i]), w_img, h_img, px), w_img, h_img)
            for b, c in zip(boxes, rng.integers(0, 80, len(boxes))):
                fh.write(f'{{"image_id": "{image_id}", "box": {box_text(b)}, "class_id": {int(c)}}}\n')
            images.append({"image_id": image_id, "w": w_img, "h": h_img, "gts": int(gt_counts[i])})
    return {"images": images}


def generate(workload: str, seed: int, out: str, small: bool = False) -> dict:
    spec = tiny(WORKLOADS[workload]) if small else WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    manifest = {
        "workload": workload,
        "seed": seed,
        "spec": spec.to_dict(),
        "detect": write_detect(rng, spec.detect, out),
        "train": write_train(rng, spec.train, out),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
