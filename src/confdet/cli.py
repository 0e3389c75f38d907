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

import numpy as np

from . import analysis, assignment, geometry, postprocess, toytrain
from .fusion import MODES, FusionParams
from .postprocess import NmsParams


def _config_defaults(command: argparse.ArgumentParser, path) -> dict:
    """The flag defaults that a ``--config`` file gives ``command``.

    Its keys are the ``dest`` names of the command's optional flags that take
    a value and are not required.  A value is a JSON string or a number other
    than a bool; the string itself, or the number's ``repr``, goes through
    the flag's own ``type`` and ``choices``, as it would on the command line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON or not UTF-8, or nested past the parser's depth
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    flags = {
        action.dest: action
        for action in command._actions
        if action.option_strings and action.nargs != 0 and not action.required and action.dest != "config"
    }
    unknown = set(cfg) - set(flags)
    if unknown:
        raise ValueError(f"config has unknown keys: {sorted(unknown)}")
    defaults = {}
    for key, value in cfg.items():
        flag = flags[key]
        try:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"expected a string or a number, got {type(value).__name__}")
            text = value if isinstance(value, str) else repr(value)
            converted = text if flag.type is None else flag.type(text)
            if flag.choices is not None and converted not in flag.choices:
                raise ValueError(f"{converted!r} is not one of {list(flag.choices)}")
        except ValueError as exc:
            raise ValueError(f"{path}: key {key!r}: {exc}") from None
        defaults[key] = converted
    return defaults


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------- nms

def cmd_nms(args: argparse.Namespace) -> int:
    fusion_params = FusionParams(alpha=args.alpha, mode=args.mode, obj_gate=args.obj_gate)
    nms_params = NmsParams(iou_threshold=args.iou_thresh, score_threshold=args.score_thresh)

    dets = postprocess.load_detections_jsonl(args.input)
    kept = [dets.take(dets.origin[:0])]  # so that a dump with no detections concatenates to none
    for image_dets in postprocess.group_by_image(dets).values():
        kept.append(postprocess.inference_pipeline(image_dets, fusion_params, nms_params, top_k=args.topk))
    survivors = dets.take(np.concatenate([k.origin for k in kept])).with_fused(np.concatenate([k.fused for k in kept]))
    postprocess.dump_detections_jsonl(survivors, args.output)
    return 0


# ---------------------------------------------------------------- analyze

def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.counts is None) == (args.before is None):
        raise ValueError("provide either --counts or --before/--after dumps")
    for flag, value in (("--after", args.after), ("--gts", args.gts)):
        if args.counts is not None and value is not None:
            raise ValueError(f"--counts replays a count table and takes no {flag}")
    if args.before is not None and args.after is None:
        raise ValueError("--before needs --after")
    if args.out_scatter and (args.before is None or args.gts is None):
        raise ValueError("--out-scatter needs --before and --gts dumps")
    conditions = [analysis.Condition.parse(text) for text in args.conditions.split(",")]

    scatter_iou, scatter_cls = [np.zeros(0)], [np.zeros(0)]
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
                scatter_iou.append(iou_before)
                scatter_cls.append(image_before.cls)

    reports = [analysis.proportions_from_counts(stats, cond) for cond in conditions]
    if args.out_stats:
        analysis.emit_count_table(stats, args.out_stats)
    if args.out_report:
        payload = {"reports": [analysis.report_to_dict(r) for r in reports]}
        with open(args.out_report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.out_scatter:
        analysis.write_scatter_csv(
            zip(np.concatenate(scatter_iou).tolist(), np.concatenate(scatter_cls).tolist()), args.out_scatter
        )

    for report in reports:
        avg = analysis.round_half_up(report.average_delta_pp)
        print(f"{report.condition}: average delta {avg:+.2f} pp over {len(report.per_image)} images")
    return 0


# ---------------------------------------------------------------- gradcheck

def cmd_gradcheck(args: argparse.Namespace) -> int:
    err = toytrain.finite_diff_check(args.loss, tol=args.tol, trials=args.trials, seed=args.seed)
    ok = err < args.tol
    print(f"{args.loss}: max relative error {err:.3e} ({'<' if ok else '>='} tol {args.tol:g})")
    return 0 if ok else 1


# ---------------------------------------------------------------- toytrain

def cmd_toytrain(args: argparse.Namespace) -> int:
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

def cmd_anchors(args: argparse.Namespace) -> int:
    config = geometry.AnchorGridConfig(
        strides=tuple(_csv_ints(args.strides)),
        base_sizes=tuple(_csv_floats(args.base_sizes)),
        scales=tuple(_csv_floats(args.scales)),
        ratios=tuple(_csv_floats(args.ratios)),
    )
    anchors = geometry.generate_anchors(config, args.image_w, args.image_h)
    level, cell = (column.tolist() for column in anchors._cells())
    geometry.write_jsonl(args.output, ("box", "level", "cell"), (anchors.corners.tolist(), level, cell))
    print(f"wrote {len(anchors)} anchors")
    return 0


# ---------------------------------------------------------------- assign

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
    labels = result.labels.tolist()
    geometry.write_jsonl(args.output, ("index", "label", "gt_index", "matched_iou", "forced"), (
        range(len(labels)), [_LABEL_NAMES.get(label, "positive") for label in labels],
        [label if label >= 0 else None for label in labels], result.matched_iou.tolist(), result.forced.tolist(),
    ))
    print(f"{result.n_pos} positive of {result.n_total} anchors")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each flag's default is read from the library where it has one."""
    parser = argparse.ArgumentParser(prog="confdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON object of flag defaults")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("nms", cmd_nms, "gate, fuse, filter and suppress a detection dump")
    p.add_argument("input", help="detection dump (JSON lines)")
    p.add_argument("output", help="surviving detections (JSON lines)")
    p.add_argument("--alpha", type=float, default=FusionParams.alpha,
                   help="object-confidence weight in the fused score (default %(default)s)")
    p.add_argument("--mode", choices=MODES, default=FusionParams.mode, help="fusion mode (default %(default)s)")
    p.add_argument("--iou-thresh", type=float, default=NmsParams.iou_threshold,
                   help="NMS overlap threshold (default %(default)s)")
    p.add_argument("--score-thresh", type=float, default=NmsParams.score_threshold,
                   help="pre-NMS score floor (default %(default)s)")
    p.add_argument("--obj-gate", type=float, default=FusionParams.obj_gate, help="drop boxes with obj <= this first")
    p.add_argument("--topk", type=int, help="cap boxes entering NMS per image")

    p = command("analyze", cmd_analyze, "count-table stats and proportion reports")
    p.add_argument("--before", help="detections before NMS (JSON lines)")
    p.add_argument("--after", help="detections after NMS (JSON lines)")
    p.add_argument("--gts", help="ground truth (JSON lines)")
    p.add_argument("--counts", help="count-table CSV instead of raw dumps")
    p.add_argument("--conditions", default="iou>0.5,cls>0.5", help="comma list (default %(default)s)")
    p.add_argument("--out-stats", help="write count-table CSV here")
    p.add_argument("--out-report", help="write proportion-report JSON here")
    p.add_argument("--out-scatter", help="write (max_iou, cls_score) CSV here")

    check = inspect.signature(toytrain.finite_diff_check).parameters
    p = command("gradcheck", cmd_gradcheck, "compare an analytic gradient to central differences")
    p.add_argument("--loss", required=True, choices=toytrain.GRADCHECK_LOSSES)
    p.add_argument("--trials", type=int, default=check["trials"].default,
                   help="random points to test (default %(default)s)")
    p.add_argument("--tol", type=float, default=check["tol"].default,
                   help="pass threshold on max relative error (default %(default)s)")
    p.add_argument("--seed", type=int, default=check["seed"].default, help="RNG seed (default %(default)s)")

    toy = toytrain.ToyTrainConfig
    p = command("toytrain", cmd_toytrain, "run the sigmoid-regression training experiment")
    p.add_argument("output", help="trace CSV (iter,loss,mae,grad_norm)")
    p.add_argument("--loss", choices=toytrain.REGRESSION_LOSSES, default=toy.loss_kind,
                   help="training loss (default %(default)s)")
    p.add_argument("--init", choices=toytrain.INITS, default=toy.init, help="initial weights (default %(default)s)")
    p.add_argument("--lr", type=float, default=toy.learning_rate, help="learning rate (default %(default)s)")
    p.add_argument("--iters", type=int, default=toy.max_iters, help="max iterations (default %(default)s)")
    p.add_argument("--seed", type=int, default=toy.seed, help="dataset seed (default %(default)s)")
    p.add_argument("--n", type=int, default=200, help="dataset rows (default %(default)s)")
    p.add_argument("--d", type=int, default=3, help="feature count incl. bias column (default %(default)s)")
    p.add_argument("--noise", type=float, default=inspect.signature(toytrain.make_dataset).parameters["noise"].default,
                   help="target noise scale (default %(default)s)")

    p = command("anchors", cmd_anchors, "tile an anchor grid over an image")
    p.add_argument("output", help="anchor JSON lines")
    p.add_argument("--image-w", type=int, required=True)
    p.add_argument("--image-h", type=int, required=True)
    for key, values in geometry.AnchorGridConfig.retinanet_defaults().to_dict().items():
        p.add_argument("--" + key.replace("_", "-"), default=",".join(repr(v) for v in values),
                       help="comma list (default %(default)s)")

    p = command("assign", cmd_assign, "label anchors against ground truth by IoU")
    p.add_argument("output", help="per-anchor labels (JSON lines)")
    p.add_argument("--anchors", required=True, help="anchor JSON lines (from 'anchors')")
    p.add_argument("--gts", required=True, help="ground truth JSON lines")
    p.add_argument("--image-id", help="which image to assign (default: the only one)")
    p.add_argument("--pos-iou", type=float, default=assignment.AssignerConfig.pos_iou,
                   help="positive threshold (default %(default)s)")
    p.add_argument("--neg-iou", type=float, default=assignment.AssignerConfig.neg_iou,
                   help="negative threshold (default %(default)s)")
    p.add_argument("--no-force-match", action="store_true", help="do not promote each ground truth's best anchor")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # explicit flags win: the config's values become the command's defaults, and argv is parsed again
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
