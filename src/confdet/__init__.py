"""confdet: detection-confidence toolkit.

Anchor/IoU machinery, the object-confidence loss family with analytic
gradients, classification/confidence score fusion, fused-score-guided NMS,
and count-table analysis of the score/localization mismatch.
"""

from .geometry import (
    Anchor,
    AnchorGridConfig,
    Box,
    generate_anchors,
    iou,
    iou_matrix,
)
from .assignment import (
    IGNORE,
    NEGATIVE,
    AssignerConfig,
    AssignmentResult,
    GroundTruthBox,
    assign,
    confidence_targets,
)
from .losses import (
    ConfLossKind,
    FocalParams,
    ce_confidence_loss,
    confidence_loss,
    focal_loss,
    gfocal_loss,
    sigmoid,
    sigmoid_regression_grad,
    weighted_ce_confidence_loss,
)
from .fusion import CLS_ONLY, MULTIPLY, PRODUCT, FusionParams, fuse, gate
from .postprocess import Detection, NmsParams, inference_pipeline, nms, score_filter
from .analysis import (
    Condition,
    ImageStats,
    ProportionReport,
    compute_image_stats,
    ingest_count_table,
    misalignment_summary,
    proportions_from_counts,
)
from .toytrain import ToyDataset, ToyTrainConfig, TrainTrace, finite_diff_check, make_dataset, train

__version__ = "0.1.0"
