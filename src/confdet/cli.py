"""Command-line surface: anchors, assignment, fused NMS, analysis reports,
gradient checks and the toy training experiment.

Detections travel as JSON lines, tabular reports as CSV.  Every subcommand
accepts --config pointing at a JSON object of flag defaults; explicitly
given flags win.
"""

from __future__ import annotations

import argparse
import inspect
import json
import operator
import sys

from . import analysis, assignment, geometry, postprocess, toytrain
from .fusion import MODES, FusionParams
from .postprocess import NmsParams


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill argparse's None sentinels from --config, then built-in defaults."""
    cfg = _load_config(getattr(args, "config", None))
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ValueError(f"config has unknown keys: {sorted(unknown)}")
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, cfg.get(key, default))
    return args


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part.strip()]


# ---------------------------------------------------------------- nms

_NMS_DEFAULTS = {
    "alpha": FusionParams.alpha,
    "mode": FusionParams.mode,
    "iou_thresh": NmsParams.iou_threshold,
    "score_thresh": NmsParams.score_threshold,
    "obj_gate": FusionParams.obj_gate,
    "topk": None,
}


def cmd_nms(args: argparse.Namespace) -> int:
    args = _resolve(args, _NMS_DEFAULTS)
    fusion_params = FusionParams(alpha=args.alpha, mode=args.mode, obj_gate=args.obj_gate)
    nms_params = NmsParams(iou_threshold=args.iou_thresh, score_threshold=args.score_thresh)

    dets = postprocess.load_detections_jsonl(args.input)
    survivors = [
        postprocess.inference_pipeline(image_dets, fusion_params, nms_params, top_k=args.topk)
        for image_dets in postprocess.group_by_image(dets).values()
    ]
    postprocess.dump_detections_jsonl(dets.concat(survivors), args.output)
    return 0


# ---------------------------------------------------------------- analyze

_ANALYZE_DEFAULTS = {"conditions": "iou>0.5,cls>0.5"}


def cmd_analyze(args: argparse.Namespace) -> int:
    args = _resolve(args, _ANALYZE_DEFAULTS)
    if (args.counts is None) == (args.before is None):
        raise ValueError("provide either --counts or --before/--after dumps")
    if args.before is not None and args.after is None:
        raise ValueError("--before needs --after")
    if args.out_scatter and (args.before is None or args.gts is None):
        raise ValueError("--out-scatter needs --before and --gts dumps")
    conditions = [analysis.Condition.parse(text) for text in args.conditions.split(",")]

    scatter = []
    if args.counts is not None:
        stats = analysis.ingest_count_table(args.counts)
    else:
        before = postprocess.group_by_image(postprocess.load_detections_jsonl(args.before))
        after = postprocess.group_by_image(postprocess.load_detections_jsonl(args.after))
        after_only = [image_id for image_id in after if image_id not in before]
        if after_only:
            raise ValueError(f"{args.after}: images missing from --before: {after_only}")
        gts = assignment.load_ground_truth_jsonl(args.gts) if args.gts else {}
        total = analysis.TOTAL_CONDITION
        counted = conditions if total in conditions else [*conditions, total]
        stats = []
        for image_id, image_before in before.items():
            image_gts = gts.get(image_id, [])
            # each image's best IoUs to ground truth feed both the counts and the scatter rows
            iou_before = analysis.max_iou_to_gts(image_before, image_gts)
            stats.append(
                analysis._image_stats(image_before, after.get(image_id, []), image_gts, iou_before, conditions=counted)
            )
            if args.out_scatter:
                scatter.extend(zip(iou_before.tolist(), image_before.cls.tolist()))

    reports = [analysis.proportions_from_counts(stats, cond) for cond in conditions]
    if args.out_stats:
        analysis.emit_count_table(stats, args.out_stats)
    if args.out_report:
        payload = {"reports": [analysis.report_to_dict(r) for r in reports]}
        with open(args.out_report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.out_scatter:
        analysis.write_scatter_csv(scatter, args.out_scatter)

    for report in reports:
        avg = analysis.round_half_up(report.average_delta_pp)
        print(f"{report.condition}: average delta {avg:+.2f} pp over {len(report.per_image)} images")
    return 0


# ---------------------------------------------------------------- gradcheck

_GRADCHECK_DEFAULTS = {"trials": 100, "tol": 1e-6, "seed": 0}


def cmd_gradcheck(args: argparse.Namespace) -> int:
    args = _resolve(args, _GRADCHECK_DEFAULTS)
    err = toytrain.finite_diff_check(args.loss, tol=args.tol, trials=args.trials, seed=args.seed)
    ok = err < args.tol
    print(f"{args.loss}: max relative error {err:.3e} ({'<' if ok else '>='} tol {args.tol:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------- toytrain

_TOYTRAIN_DEFAULTS = {
    "loss": toytrain.ToyTrainConfig.loss_kind,
    "init": toytrain.ToyTrainConfig.init,
    "lr": toytrain.ToyTrainConfig.learning_rate,
    "iters": toytrain.ToyTrainConfig.max_iters,
    "seed": toytrain.ToyTrainConfig.seed,
    "n": 200,
    "d": 3,
    "noise": inspect.signature(toytrain.make_dataset).parameters["noise"].default,
}


def cmd_toytrain(args: argparse.Namespace) -> int:
    args = _resolve(args, _TOYTRAIN_DEFAULTS)
    data = toytrain.make_dataset(args.n, args.d, args.seed, noise=args.noise)
    cfg = toytrain.ToyTrainConfig(
        loss_kind=args.loss,
        learning_rate=args.lr,
        max_iters=args.iters,
        init=args.init,
        seed=args.seed,
    )
    trace = toytrain.train(data, cfg)
    toytrain.write_trace_csv(trace, args.output)
    if trace.diverged:
        print(f"diverged after {len(trace)} iterations (flag recorded in CSV footer)")
    return 0


# ---------------------------------------------------------------- anchors

_ANCHORS_DEFAULTS = {
    key: ",".join(repr(v) for v in values)
    for key, values in geometry.AnchorGridConfig.retinanet_defaults().to_dict().items()
}


def cmd_anchors(args: argparse.Namespace) -> int:
    args = _resolve(args, _ANCHORS_DEFAULTS)
    config = geometry.AnchorGridConfig(
        strides=tuple(_csv_ints(args.strides)),
        base_sizes=tuple(_csv_floats(args.base_sizes)),
        scales=tuple(_csv_floats(args.scales)),
        ratios=tuple(_csv_floats(args.ratios)),
    )
    anchors = geometry.generate_anchors(config, args.image_w, args.image_h)
    with open(args.output, "w", encoding="utf-8") as fh:
        for box, level, row, col in anchors._rows():
            fh.write(json.dumps({"box": box, "level": level, "cell": [row, col]}) + "\n")
    print(f"wrote {len(anchors)} anchors")
    return 0


# ---------------------------------------------------------------- assign

_ASSIGN_DEFAULTS = {
    "pos_iou": assignment.AssignerConfig.pos_iou,
    "neg_iou": assignment.AssignerConfig.neg_iou,
    "image_id": None,
}

_LABEL_NAMES = {assignment.NEGATIVE: "negative", assignment.IGNORE: "ignore"}


def _load_anchor_corners(path):
    """(n, 4) corners of an anchor file, with ``Box``'s checks run in bulk.

    When they cannot vouch for every box, the file is read again box by
    box, so that the first bad line raises ``Box.from_list``'s own error.
    """
    try:
        return geometry._corners_from_json(geometry.read_jsonl(path, operator.itemgetter("box")))
    except (ValueError, OverflowError):
        return geometry.boxes_to_array(geometry.read_jsonl(path, lambda record: geometry.Box.from_list(record["box"])))


def cmd_assign(args: argparse.Namespace) -> int:
    args = _resolve(args, _ASSIGN_DEFAULTS)
    anchors = _load_anchor_corners(args.anchors)
    per_image = assignment.load_ground_truth_jsonl(args.gts)
    image_id = args.image_id
    if image_id is None:
        if len(per_image) != 1:
            raise ValueError(
                f"--image-id required: ground truth covers {sorted(per_image)}"
            )
        image_id = next(iter(per_image))
    elif image_id not in per_image:
        raise ValueError(f"no ground truth for image {image_id!r}")

    cfg = assignment.AssignerConfig(
        pos_iou=args.pos_iou, neg_iou=args.neg_iou, force_match=not args.no_force_match
    )
    result = assignment.assign(anchors, per_image[image_id], cfg)
    columns = zip(result.labels.tolist(), result.matched_iou.tolist(), result.forced.tolist())
    with open(args.output, "w", encoding="utf-8") as fh:
        for i, (label, matched_iou, forced) in enumerate(columns):
            fh.write(
                json.dumps(
                    {
                        "index": i,
                        "label": _LABEL_NAMES.get(label, "positive"),
                        "gt_index": label if label >= 0 else None,
                        "matched_iou": matched_iou,
                        "forced": forced,
                    }
                )
                + "\n"
            )
    print(f"{result.n_pos} positive of {result.n_total} anchors")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nms", help="gate, fuse, filter and suppress a detection dump")
    p.add_argument("input", help="detection dump (JSON lines)")
    p.add_argument("output", help="surviving detections (JSON lines)")
    p.add_argument("--alpha", type=float, help="object-confidence weight in the fused score")
    p.add_argument("--mode", choices=MODES, help="fusion mode (default product)")
    p.add_argument("--iou-thresh", dest="iou_thresh", type=float, help="NMS overlap threshold")
    p.add_argument("--score-thresh", dest="score_thresh", type=float, help="pre-NMS score floor")
    p.add_argument("--obj-gate", dest="obj_gate", type=float, help="drop boxes with obj <= this first")
    p.add_argument("--topk", type=int, help="cap boxes entering NMS per image")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("analyze", help="count-table stats and proportion reports")
    p.add_argument("--before", help="detections before NMS (JSON lines)")
    p.add_argument("--after", help="detections after NMS (JSON lines)")
    p.add_argument("--gts", help="ground truth (JSON lines)")
    p.add_argument("--counts", help="count-table CSV instead of raw dumps")
    p.add_argument("--conditions", help="comma list, e.g. 'iou>0.5,cls>0.5'")
    p.add_argument("--out-stats", dest="out_stats", help="write count-table CSV here")
    p.add_argument("--out-report", dest="out_report", help="write proportion-report JSON here")
    p.add_argument("--out-scatter", dest="out_scatter", help="write (max_iou, cls_score) CSV here")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="compare an analytic gradient to central differences")
    p.add_argument("--loss", required=True, choices=toytrain.GRADCHECK_LOSSES)
    p.add_argument("--trials", type=int, help="random points to test (default 100)")
    p.add_argument("--tol", type=float, help="pass threshold on max relative error")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("toytrain", help="run the sigmoid-regression training experiment")
    p.add_argument("output", help="trace CSV (iter,loss,mae,grad_norm)")
    p.add_argument("--loss", choices=toytrain.REGRESSION_LOSSES, help="training loss (default ce)")
    p.add_argument("--init", choices=toytrain.INITS, help="initial weights (default zeros)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.5)")
    p.add_argument("--iters", type=int, help="max iterations (default 2000)")
    p.add_argument("--seed", type=int, help="dataset seed (default 0)")
    p.add_argument("--n", type=int, help="dataset rows (default 200)")
    p.add_argument("--d", type=int, help="feature count incl. bias column (default 3)")
    p.add_argument("--noise", type=float, help="target noise scale (default 0.1)")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_toytrain)

    p = sub.add_parser("anchors", help="tile an anchor grid over an image")
    p.add_argument("output", help="anchor JSON lines")
    p.add_argument("--image-w", dest="image_w", type=int, required=True)
    p.add_argument("--image-h", dest="image_h", type=int, required=True)
    p.add_argument("--strides", help="comma list (default 8,16,32,64,128)")
    p.add_argument("--base-sizes", dest="base_sizes", help="comma list (default 32..512)")
    p.add_argument("--scales", help="comma list (default 2^0,2^(1/3),2^(2/3))")
    p.add_argument("--ratios", help="comma list (default 0.5,1,2)")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("assign", help="label anchors against ground truth by IoU")
    p.add_argument("output", help="per-anchor labels (JSON lines)")
    p.add_argument("--anchors", required=True, help="anchor JSON lines (from 'anchors')")
    p.add_argument("--gts", required=True, help="ground truth JSON lines")
    p.add_argument("--image-id", dest="image_id", help="which image to assign (default: the only one)")
    p.add_argument("--pos-iou", dest="pos_iou", type=float, help="positive threshold (default 0.5)")
    p.add_argument("--neg-iou", dest="neg_iou", type=float, help="negative threshold (default 0.4)")
    p.add_argument("--no-force-match", dest="no_force_match", action="store_true",
                   help="do not promote each ground truth's best anchor")
    p.add_argument("--config", help="JSON object of flag defaults")
    p.set_defaults(func=cmd_assign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
