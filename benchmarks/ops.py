"""The user paths the benchmark drives, each as one timed operation.

``nms`` and ``analyze`` go through ``confdet.cli.main`` in-process, as a
user's command line would; training targets, the saturation experiment
and gradient checks go through the public library calls.  An operation's
``run`` is the timed part; ``digest`` (repeat check) and ``check``
(correctness gates) run outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import time
import traceback

import numpy as np

import confdet.cli as cli
from confdet import analysis, assignment, geometry, losses, toytrain

import gates
from workloads import CONDITIONS, GRAD_TRIALS, TOY_LOSSES


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"confdet {' '.join(argv)} exited {code}")


def nms_settings(flags: tuple[str, ...]) -> dict:
    """The settings an nms command line spells out; gate and top-k are off unless given."""
    settings = {"obj_gate": None, "topk": None}
    for key, value in zip(flags[::2], flags[1::2]):
        key = key.lstrip("-").replace("-", "_")
        settings[key] = value if key == "mode" else int(value) if key == "topk" else float(value)
    return settings


class Op:
    name = ""
    metric: str | None = None  # end-to-end metric fed by units per second
    ops = 1  # operations counted toward attempted/failed per execution
    units = 0

    def run(self):
        raise NotImplementedError

    def digest(self, result) -> str:
        raise NotImplementedError

    def check(self, result) -> list[str]:
        return []


class Nms(Op):
    name, metric = "nms", "nms_dets_per_s"

    def __init__(self, work: str, spec, n_dets: int):
        self.work, self.flags, self.units = work, tuple(spec.nms_flags), n_dets
        self.src = os.path.join(work, "dets.jsonl")
        self.out = os.path.join(work, "kept.jsonl")

    def run(self):
        run_cli(["nms", self.src, self.out, *self.flags])

    def digest(self, result) -> str:
        return file_digest(self.out)

    def check(self, result) -> list[str]:
        settings = nms_settings(self.flags)
        failures = gates.check_nms(self.src, self.out, settings)
        # alpha 0 and 1 and obj == cls take the fusion rule's exact branches
        records = gates.read_jsonl(self.src)[:300]
        for i in range(0, len(records), 7):
            records[i]["obj_score"] = records[i]["cls_score"]
        edge_in = os.path.join(self.work, "edge.jsonl")
        gates.write_jsonl(records, edge_in)
        others = [f for pair in zip(self.flags[::2], self.flags[1::2]) if pair[0] != "--alpha" for f in pair]
        for alpha in ("0", "1", "0.4"):
            edge_out = os.path.join(self.work, f"edge_alpha{alpha}.jsonl")
            run_cli(["nms", edge_in, edge_out, "--alpha", alpha, *others])
            failures += gates.check_nms(edge_in, edge_out, dict(settings, alpha=float(alpha)))
        return failures


class Analyze(Op):
    name, metric = "analyze", "analyze_dets_per_s"

    def __init__(self, work: str, n_dets: int):
        self.units, self.conditions = n_dets, CONDITIONS
        self.paths = {k: os.path.join(work, f) for k, f in (
            ("before", "dets.jsonl"), ("after", "kept.jsonl"), ("gts", "gts.jsonl"),
            ("stats", "counts.csv"), ("report", "report.json"), ("scatter", "scatter.csv"),
            ("counts_report", "report_from_counts.json"), ("bundled", "report_bundled.json"),
        )}

    def run(self):
        p = self.paths
        run_cli([
            "analyze", "--before", p["before"], "--after", p["after"], "--gts", p["gts"],
            "--conditions", self.conditions, "--out-stats", p["stats"],
            "--out-report", p["report"], "--out-scatter", p["scatter"],
        ])

    def digest(self, result) -> str:
        return file_digest(self.paths["stats"], self.paths["report"], self.paths["scatter"])

    def check(self, result) -> list[str]:
        p = self.paths
        run_cli(["analyze", "--counts", str(analysis.bundled_count_table()),
                 "--conditions", "iou>0.5,cls>0.5", "--out-report", p["bundled"]])
        return gates.check_analyze(
            p["before"], p["after"], p["gts"], self.conditions.split(","),
            p["stats"], p["report"], p["scatter"], p["counts_report"],
        ) + gates.check_bundled_report(p["bundled"])


class Counts(Op):
    """analyze --counts on the table the previous analyze emitted."""

    name = "analyze_counts"

    def __init__(self, analyze: Analyze):
        self.analyze = analyze

    def run(self):
        p = self.analyze.paths
        run_cli(["analyze", "--counts", p["stats"], "--conditions", self.analyze.conditions,
                 "--out-report", p["counts_report"]])

    def digest(self, result) -> str:
        return file_digest(self.analyze.paths["counts_report"])


def anchor_count(w: int, h: int, config: geometry.AnchorGridConfig) -> int:
    return sum(math.ceil(h / s) * math.ceil(w / s) for s in config.strides) * config.anchors_per_cell


class Train(Op):
    """anchors -> assign -> confidence targets -> every confidence loss and focal loss."""

    name, metric = "train", "train_images_per_s"

    def __init__(self, work: str, images: list[dict], seed: int):
        self.gts_path = os.path.join(work, "train_gts.jsonl")
        self.images = images
        self.units = self.ops = len(images)
        self.config = geometry.AnchorGridConfig.retinanet_defaults()
        self.assigner = assignment.AssignerConfig()
        self.kinds = [losses.ConfLossKind(name) for name in losses.CONF_LOSS_NAMES]
        self.logits = [
            np.random.default_rng([seed, i]).normal(0.0, 2.0, anchor_count(im["w"], im["h"], self.config))
            for i, im in enumerate(images)
        ]

    def run(self):
        per_image = assignment.load_ground_truth_jsonl(self.gts_path)
        outputs = []
        for image, z in zip(self.images, self.logits):
            anchors = geometry.generate_anchors(self.config, image["w"], image["h"])
            result = assignment.assign(anchors, per_image[image["image_id"]], self.assigner)
            targets, used = assignment.confidence_targets(result)
            values, grads = [], []
            for kind in self.kinds:
                values.append(losses.confidence_loss(kind, z, targets, used))
                grads.append(losses.confidence_loss_grad(kind, z, targets, used))
            values.append(losses.focal_loss(z, used, result.n_pos))
            grads.append(losses.focal_loss_grad(z, used, result.n_pos))
            outputs.append({"labels": result.labels, "matched_iou": result.matched_iou, "forced": result.forced,
                            "targets": targets, "used": used, "losses": values, "grads": grads})
        return outputs

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for out in result:
            for key in ("labels", "matched_iou", "forced", "targets", "used"):
                h.update(np.ascontiguousarray(out[key]).tobytes())
            h.update(repr(out["losses"]).encode())
            for g in out["grads"]:
                h.update(g.tobytes())
        return h.hexdigest()

    def check(self, result) -> list[str]:
        gts = gates.by_image(gates.read_jsonl(self.gts_path))
        failures = []
        for image, out in zip(self.images, result):
            anchors = geometry.generate_anchors(self.config, image["w"], image["h"])
            corners = np.array([[a.box.x1, a.box.y1, a.box.x2, a.box.y2] for a in anchors])
            failures += gates.check_train_image(image, corners, gates.boxes_of(gts[image["image_id"]]), out)
        return failures


class ToyTrain(Op):
    """The saturation grid: every (init, loss) on one dataset for a fixed iteration budget."""

    name, metric = "toytrain", "toytrain_iters_per_s"

    def __init__(self, spec, seed: int):
        self.spec, self.seed = spec, seed
        self.ops = len(spec.inits) * len(TOY_LOSSES)
        self.units = self.ops * spec.iters

    def run(self):
        data = toytrain.make_dataset(200, 3, self.seed)
        traces = {}
        for init in self.spec.inits:
            for loss in TOY_LOSSES:
                cfg = toytrain.ToyTrainConfig(
                    loss_kind=loss, learning_rate=0.5, max_iters=self.spec.iters, init=init, seed=self.seed
                )
                traces[(init, loss)] = toytrain.train(data, cfg)
        return traces

    def digest(self, result) -> str:
        h = hashlib.sha256()
        for key, trace in result.items():
            h.update(repr(key).encode())
            for arr in (trace.loss, trace.mae, trace.grad_norm, trace.final_theta):
                h.update(arr.tobytes())
        return h.hexdigest()

    def check(self, result) -> list[str]:
        failures = [f"toytrain {k}: diverged" for k, t in result.items() if t.diverged]
        return failures + gates.check_saturation({k: t.first_iteration_below(0.05) for k, t in result.items()})


class GradCheck(Op):
    name, metric = "gradcheck", "gradcheck_trials_per_s"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = len(toytrain.GRADCHECK_LOSSES)
        self.units = GRAD_TRIALS * self.ops

    def run(self):
        return {
            kind: toytrain.finite_diff_check(kind, tol=gates.GRADCHECK_TOL, trials=GRAD_TRIALS, seed=self.seed)
            for kind in toytrain.GRADCHECK_LOSSES
        }

    def digest(self, result) -> str:
        return repr(sorted(result.items()))

    def check(self, result) -> list[str]:
        return gates.check_gradcheck(result)


def run_round(ops, reference: dict, failures: list[str]) -> dict:
    """Execute every operation once; returns its CPU and wall seconds and failed counts.

    Metrics use process CPU time: every path is single-threaded and
    CPU-bound, and CPU time leaves out the time a shared virtual machine's
    CPU is taken by its host, which wall time does not.  The first
    successful execution of an op becomes its reference; every later one
    must produce the same digest.
    """
    row = {}
    for op in ops:
        gc.collect()  # start every execution from the same heap state, not the last op's garbage
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                wall, cpu = time.perf_counter(), time.process_time()
                result = op.run()
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            digest = op.digest(result)
        except Exception:
            failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            row[op.name] = {"seconds": None, "wall_s": None, "failed": op.ops}
            continue
        failed = 0
        if op.name not in reference:
            reference[op.name] = (digest, result)
        elif reference[op.name][0] != digest:
            failures.append(f"{op.name}: output differs from the reference round")
            failed = op.ops
        row[op.name] = {"seconds": cpu, "wall_s": wall, "failed": failed}
    return row


def build(workload, manifest: dict, work: str) -> list[Op]:
    """The operations of one round, in execution order."""
    n_dets = manifest["detect"]["dets"]
    analyze = Analyze(work, n_dets)
    return [
        Nms(work, workload.detect, n_dets),
        analyze,
        Counts(analyze),
        Train(work, manifest["train"]["images"], manifest["seed"]),
        ToyTrain(workload.toy, manifest["seed"]),
        GradCheck(manifest["seed"]),
    ]
