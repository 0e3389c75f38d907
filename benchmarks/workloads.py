"""Workload definitions for the confdet benchmark.

Every workload runs all five user paths in each round, so every end-to-end
metric is defined on every workload.  One path (two for the detection
workloads) is sized to dominate the round; the others run at a small fixed
probe size.  Per-image sizes come from fixed quantiles that the seed only
shuffles, so the amount of work in a round does not swing between seeds;
the seed still decides every box, score and dataset.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace


# The before-NMS detection counts (cls > 0.05) of the ten images in the
# bundled count table, src/confdet/data/table1.csv.
TABLE1_DETS = (364, 634, 1067, 1700, 2543, 3105, 3539, 5422, 7213, 13480)

# The conditions every analyze command counts.
CONDITIONS = "iou>0.5,iou>0.7,cls>0.3,cls>0.5"
# The saturation experiment's losses.
TOY_LOSSES = ("l1", "l2", "ce")
# finite_diff_check trials per GRADCHECK_LOSSES kind, `confdet gradcheck`'s default.
GRAD_TRIALS = 100


@dataclass(frozen=True)
class DetectSpec:
    """A seeded detector dump over images with ground truth.

    Per-image detection counts are log-linear between consecutive
    ``dets`` anchors, read at evenly spaced quantiles, so ``images ==
    len(dets)`` gives exactly the anchor counts.  Object counts are
    log-uniform between the ``objects`` bounds and rise with detection
    counts.
    """

    images: int
    dets: tuple[int, ...]
    objects: tuple[int, int]
    classes: int
    image_size: tuple[int, int]
    object_px: tuple[float, float]
    nms_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class TrainSpec:
    """Images for anchors -> assign -> confidence targets -> losses."""

    images: int
    sizes: tuple[tuple[int, int], ...]
    gts: tuple[int, int]


@dataclass(frozen=True)
class ToySpec:
    """The saturation experiment grid: TOY_LOSSES x inits."""

    inits: tuple[str, ...]
    iters: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    detect: DetectSpec
    train: TrainSpec
    toy: ToySpec

    def to_dict(self) -> dict:
        return asdict(self)


# Every nms setting is passed explicitly, so the gates never depend on CLI defaults.
_NMS_FLAGS = ("--mode", "product", "--iou-thresh", "0.5", "--score-thresh", "0.05")
# COCO-like dump settings: obj gate and top-k on.
_SPARSE_FLAGS = _NMS_FLAGS + ("--alpha", "0.5", "--obj-gate", "0.05", "--topk", "100")

# Probe sizes for the paths a workload does not stress.  Each probe execution
# lasts a few tenths of a second on the seed code, long enough to average over
# the scheduler noise of a shared machine.
_DETECT_PROBE = DetectSpec(
    images=100, dets=(20, 150), objects=(1, 15), classes=80,
    image_size=(640, 480), object_px=(16.0, 320.0), nms_flags=_SPARSE_FLAGS,
)
_TRAIN_PROBE = TrainSpec(images=1, sizes=((480, 360),), gts=(5, 5))
_TOY_PROBE = ToySpec(inits=("saturated+",), iters=1500)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nms_dense",
            why="ten dense pre-NMS dumps with the bundled table's per-image counts (364-13,480 "
            "detections) over 5 classes; greedy NMS's per-class walk dominates",
            detect=DetectSpec(
                images=len(TABLE1_DETS), dets=TABLE1_DETS, objects=(3, 25), classes=5,
                image_size=(1333, 800), object_px=(24.0, 320.0),
                # a zero gate drops only boxes with no object confidence at all,
                # so NMS still sees nearly every box
                nms_flags=_NMS_FLAGS + ("--alpha", "0.4", "--obj-gate", "0"),
            ),
            train=_TRAIN_PROBE,
            toy=_TOY_PROBE,
        ),
        Workload(
            name="eval_sparse",
            why="COCO-val-like: many images with 20-150 detections over 80 classes, "
            "gate and top-k on; JSONL parsing, object construction, fusion and analysis dominate",
            detect=replace(_DETECT_PROBE, images=400),
            train=_TRAIN_PROBE,
            toy=_TOY_PROBE,
        ),
        Workload(
            name="train_targets",
            why="training targets over three repeating image sizes with 1-50 ground truths; "
            "anchor tiling and IoU assignment dominate, no JSONL or NMS work",
            detect=_DETECT_PROBE,
            train=TrainSpec(images=3, sizes=((640, 480), (800, 608), (1024, 768)), gts=(1, 50)),
            toy=_TOY_PROBE,
        ),
        Workload(
            name="loss_saturation",
            why="the paper's saturation experiment (l1/l2/ce x three inits, 2,000 iterations) "
            "plus gradient checks; the only workload where the loss layer dominates",
            detect=_DETECT_PROBE,
            train=_TRAIN_PROBE,
            toy=ToySpec(inits=("zeros", "saturated+", "saturated-"), iters=2000),
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A seconds-scale version of a workload, for the benchmark's self-test."""
    return replace(
        w,
        detect=replace(w.detect, images=min(w.detect.images, 3), dets=(20, 60)),
        train=TrainSpec(images=1, sizes=((320, 256),), gts=(5, 5)),
        toy=replace(_TOY_PROBE, iters=200),
    )
