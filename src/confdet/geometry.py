"""Axis-aligned box geometry: IoU, anchor grids, and box-delta transforms.

Boxes use the corner convention (x1, y1, x2, y2) with continuous
coordinates; width is x2 - x1 with no +1 pixel correction, so IoU is the
exact continuous area ratio.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Box",
    "Anchor",
    "AnchorGridConfig",
    "BoxDelta",
    "iou",
    "iou_matrix",
    "boxes_to_array",
    "generate_anchors",
    "encode",
    "decode",
]

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with x2 >= x1, y2 >= y1 and finite coordinates.

    Coordinates are int or float (bool is rejected), and 2 * area must be
    finite, so the union of any two boxes is finite too.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # Plain checks, no generator: a dump's survivors and the per-record loaders build one Box each.
        x1, y1, x2, y2 = coords = (self.x1, self.y1, self.x2, self.y2)
        for c in coords:
            if c.__class__ is not float and (c is True or c is False or not isinstance(c, (int, float))):
                raise ValueError(f"box coordinates must be int or float numbers, not bool; got {coords}")
            if not -_FLOAT_MAX <= c <= _FLOAT_MAX:  # NaN, infinities, ints beyond the float range
                raise ValueError(f"box coordinates must be finite, got {coords}")
        if x2 < x1 or y2 < y1:
            raise ValueError(f"box corners out of order: {coords}")
        # A finite 2 * area bounds the union of any two boxes, so IoU never overflows.
        try:
            twice_area = 2.0 * ((x2 - x1) * (y2 - y1))
        except OverflowError:  # int corners whose area is beyond the float range
            twice_area = math.inf
        if not math.isfinite(twice_area):
            raise ValueError(f"box area too large: 2 * area must be finite, got {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return 0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2)

    def to_list(self) -> list[float]:
        """Serialized form: [x1, y1, x2, y2]."""
        return [self.x1, self.y1, self.x2, self.y2]

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "Box":
        if len(values) != 4:
            raise ValueError(f"expected [x1, y1, x2, y2], got {values!r}")
        for v in values:
            if v is True or v is False:
                raise ValueError(f"box coordinates must not be bool, got {values!r}")
        return cls(float(values[0]), float(values[1]), float(values[2]), float(values[3]))


def class_id_from_json(value) -> int:
    """A class id read from JSON: an int, or a float with an integral value.

    Booleans, fractional and non-numeric values raise ``ValueError``; the
    sign is left to :func:`_check_class_id`, which the record runs.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"class_id must be an integer, got {value!r}")
    return value


def _check_class_id(value) -> None:
    """The rule for a record's class id: a non-negative int, not bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"class_id must be a non-negative integer, got {value!r}")


def _check_unit(name: str, value: float) -> None:
    """The rule for a score, weight or threshold: in [0, 1], NaN rejected."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path, parse: Callable[[dict], object]) -> Iterator:
    """Yield ``parse(record)`` for each JSON object line of ``path``.

    Lines are split at universal newlines, numbered from 1, decoded as
    UTF-8 one by one, and skipped when blank.  A line that is not UTF-8,
    not JSON or not a JSON object, or whose record ``parse`` rejects,
    raises ``ValueError`` prefixed with ``path: line N:``.
    """
    with open(path, "rb") as fh:
        # bytes.splitlines splits at \n, \r and \r\n, as text mode does; a \r\n never straddles two \n-lines
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, line in enumerate(lines, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                try:
                    record, end = _raw_decode(line)  # json.loads without its wrapper, a third of its cost here
                except ValueError:
                    end = None
                if end != len(line):  # not one JSON value: json.loads raises its own error
                    record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"each record must be a JSON object, got {type(record).__name__}")
                value = parse(record)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            yield value


def _box_ok(corners: np.ndarray) -> np.ndarray:
    """Box's checks on each row of (n, 4) float corners, in bulk.

    A finite 2 * area also means finite corners: an infinite or NaN corner
    makes a side, and so the area, infinite or NaN.
    """
    x1, y1, x2, y2 = corners.T
    with np.errstate(over="ignore", invalid="ignore"):
        return (x2 >= x1) & (y2 >= y1) & np.isfinite(2.0 * _areas(corners))


def _batches(items: Iterable, size: int = 4096) -> Iterator[list]:
    """Consecutive lists of up to ``size`` items, as ``itertools.batched`` gives from Python 3.12."""
    items = iter(items)
    return iter(lambda: list(itertools.islice(items, size)), [])


def _corners_from_json(boxes: Iterable) -> np.ndarray:
    """(n, 4) corners of parsed JSON boxes, with :meth:`Box.from_list`'s checks run in bulk.

    Boxes are converted a few thousand at a time.  Only lists of four plain
    numbers are taken; anything else, and any box that ``Box`` rejects,
    raises ``ValueError`` (``OverflowError`` for an int beyond the float
    range).  The caller then redoes its records one by one, so that the
    error, or the value of an odd input that ``from_list`` still accepts
    (a numeric string), is the per-box one.
    """
    parts = [np.zeros((0, 4))]
    for batch in _batches(boxes):
        if set(map(type, batch)) - {list} or set(map(len, batch)) - {4}:
            raise ValueError("a box that is not a list of four values")
        coords = list(itertools.chain.from_iterable(batch))
        if set(map(type, coords)) - {int, float}:
            raise ValueError("box coordinates other than plain numbers")
        corners = np.fromiter(coords, dtype=np.float64, count=len(coords)).reshape(-1, 4)
        if not _box_ok(corners).all():
            raise ValueError("a box that Box rejects")
        parts.append(corners)
    return np.concatenate(parts)


@dataclass(frozen=True)
class Anchor:
    """A reference box tiled at a pyramid level, tagged with its grid cell."""

    box: Box
    level: int
    cell: tuple[int, int]  # (row, col)


@dataclass(frozen=True)
class BoxDelta:
    """Dimensionless center/size offsets (tx, ty, tw, th) between two boxes."""

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        values = (self.tx, self.ty, self.tw, self.th)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"box delta must be finite, got {values}")

    def to_array(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tw, self.th], dtype=np.float64)


@dataclass(frozen=True)
class AnchorGridConfig:
    """Anchor layout: one grid per stride, |scales| * |ratios| shapes per cell.

    ``ratios`` are height/width aspect ratios; anchor area at a level is
    (base_size * scale)^2 regardless of ratio.
    """

    strides: tuple[int, ...]
    base_sizes: tuple[float, ...]
    scales: tuple[float, ...]
    ratios: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        object.__setattr__(self, "base_sizes", tuple(float(b) for b in self.base_sizes))
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if not self.strides:
            raise ValueError("strides must be non-empty")
        if any(s <= 0 for s in self.strides):
            raise ValueError(f"strides must be positive, got {self.strides}")
        if any(b <= a for a, b in zip(self.strides, self.strides[1:])):
            raise ValueError(f"strides must be strictly increasing, got {self.strides}")
        if len(self.base_sizes) != len(self.strides):
            raise ValueError("base_sizes must have one entry per stride")
        if any(b <= 0 for b in self.base_sizes):
            raise ValueError(f"base_sizes must be positive, got {self.base_sizes}")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError(f"scales must be non-empty and positive, got {self.scales}")
        if not self.ratios or any(r <= 0 for r in self.ratios):
            raise ValueError(f"ratios must be non-empty and positive, got {self.ratios}")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.ratios)

    @classmethod
    def retinanet_defaults(cls) -> "AnchorGridConfig":
        """Standard 5-level layout with 9 anchors per cell."""
        return cls(
            strides=(8, 16, 32, 64, 128),
            base_sizes=(32.0, 64.0, 128.0, 256.0, 512.0),
            scales=(1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0)),
            ratios=(0.5, 1.0, 2.0),
        )

    def to_dict(self) -> dict:
        return {
            "strides": list(self.strides),
            "base_sizes": list(self.base_sizes),
            "scales": list(self.scales),
            "ratios": list(self.ratios),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnchorGridConfig":
        try:
            return cls(
                strides=tuple(data["strides"]),
                base_sizes=tuple(data["base_sizes"]),
                scales=tuple(data["scales"]),
                ratios=tuple(data["ratios"]),
            )
        except KeyError as exc:
            raise ValueError(f"anchor config missing key: {exc}") from None


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Symmetric in its arguments.  A pair of zero-area boxes has zero union
    and is defined to have IoU 0.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = iw * ih if (iw > 0.0 and ih > 0.0) else 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _iou_row(box: np.ndarray, area: float | np.ndarray, boxes: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """IoU of one box against each row of ``boxes``, with :func:`iou`'s arithmetic.

    ``box`` holds (4,) corners and ``boxes`` (..., 4), such as (m, 4);
    ``area`` and ``areas`` are their :func:`_areas`.  A (4, n, 1) ``box`` with (n, 1)
    ``area`` gives the (n, m) matrix of n boxes against ``boxes``.  Each
    element takes the same float operations in the same order as ``iou``
    (union = area_a + area_b - inter is symmetric in a and b), so it equals
    ``iou`` bit for bit and a strict threshold decides the same way.
    """
    iw = np.minimum(box[2], boxes[..., 2]) - np.maximum(box[0], boxes[..., 0])
    ih = np.minimum(box[3], boxes[..., 3]) - np.maximum(box[1], boxes[..., 1])
    inter = np.zeros(iw.shape)
    np.multiply(iw, ih, out=inter, where=(iw > 0.0) & (ih > 0.0))
    union = area + areas - inter
    out = np.zeros(union.shape)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _areas(corners: np.ndarray) -> np.ndarray:
    """Each row's (x2 - x1) * (y2 - y1), as :attr:`Box.area` computes it, for :func:`_iou_row`."""
    return (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])


def boxes_to_array(boxes: Iterable[Box]) -> np.ndarray:
    """Stack boxes into an (n, 4) float array of corners."""
    corners = itertools.chain.from_iterable((b.x1, b.y1, b.x2, b.y2) for b in boxes)
    return np.fromiter(corners, dtype=np.float64).reshape(-1, 4)


def iou_matrix(boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> np.ndarray:
    """Pairwise IoU: entry (i, j) equals iou(boxes_a[i], boxes_b[j]) bit for bit.

    Either side may also be an (n, 4) array of checked corners.  The matrix
    is one :func:`_iou_row` of every box of ``boxes_a`` against ``boxes_b``.
    """
    a = _corners(boxes_a)
    b = _corners(boxes_b)
    area_a, area_b = _areas(a), _areas(b)
    with np.errstate(over="ignore"):  # far-apart boxes overflow a gap to -inf: no overlap
        return _iou_row(a.T[:, :, None], area_a[:, None], b, area_b)


class _Rows(Sequence):
    """Read-only rows held as arrays, one row per line of the (n, 4) ``corners``.

    A subclass builds row ``i`` in ``_row(i)``; indexing accepts any
    integer, negative ones from the end, and slicing returns a list, as
    slicing a list does.
    """

    corners: np.ndarray

    def __len__(self) -> int:
        return len(self.corners)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._row(i)


class _AnchorGrid(_Rows):
    """Read-only anchors held as one (n, 4) array of corners.

    An :class:`Anchor` is built only when a caller indexes or iterates, so
    tiling and array consumers such as ``assign`` never create ~10^5
    objects.
    """

    def __init__(self, corners: np.ndarray, starts: list[int], cols: list[int], per_cell: int, extents: list[tuple]):
        corners.flags.writeable = False
        self.corners = corners
        self._starts = starts  # first anchor index of each level
        self._cols = cols
        self._per_cell = per_cell
        # Per level, min x1 and max x2 of each column of cells and min y1 and max y2 of each row,
        # all non-decreasing: where a box can overlap the level is one searchsorted away.
        self._extents = extents

    def _row(self, i: int) -> Anchor:
        level = bisect.bisect_right(self._starts, i) - 1
        row, col = divmod((i - self._starts[level]) // self._per_cell, self._cols[level])
        return Anchor(box=Box(*self.corners[i].tolist()), level=level, cell=(row, col))

    def __iter__(self):
        for corners, level, row, col in self._rows():
            yield Anchor(box=Box(*corners), level=level, cell=(row, col))

    def _rows(self):
        """Yield ([x1, y1, x2, y2], level, row, col) for every anchor in order, as Python numbers."""
        ends = self._starts[1:] + [len(self)]
        for level, (start, end, cols) in enumerate(zip(self._starts, ends, self._cols)):
            per_row = cols * self._per_cell
            for row, row_start in enumerate(range(start, end, per_row)):
                for k, corners in enumerate(self.corners[row_start : row_start + per_row].tolist()):
                    yield corners, level, row, k // self._per_cell


def _windows(anchors: Sequence[Anchor | Box] | np.ndarray, boxes: np.ndarray) -> list[tuple]:
    """Where each of the (m, 4) ``boxes`` can overlap ``anchors``, block by block.

    Returns one ``(start, (rows, width), windows)`` per block: anchors
    ``start`` to ``start + rows * width`` read row-major as a (rows, width)
    block, and ``windows[j] = (r0, r1, c0, c1)`` bounds the part of it that
    box ``j`` can overlap.  A :func:`generate_anchors` grid has one block
    per level, a cell's anchors side by side in a row; any other sequence
    is one row whose window is every anchor.  An anchor outside a window
    has its x1 at or right of the box's x2, or its x2 at or left of the
    box's x1, or the same in y, so its IoU with that box is exactly 0.
    """
    if not isinstance(anchors, _AnchorGrid):
        n = len(anchors)
        return [(0, (1, n), [(0, 1, 0, n)] * len(boxes))]
    x1, y1, x2, y2 = boxes.T
    blocks = []
    per_cell = anchors._per_cell
    for start, (min_x1, max_x2, min_y1, max_y2) in zip(anchors._starts, anchors._extents):
        r0, r1 = np.searchsorted(max_y2, y1, "right"), np.searchsorted(min_y1, y2, "left")
        c0, c1 = np.searchsorted(max_x2, x1, "right") * per_cell, np.searchsorted(min_x1, x2, "left") * per_cell
        windows = list(zip(r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist()))
        blocks.append((start, (len(min_y1), len(min_x1) * per_cell), windows))
    return blocks


def _corners(boxes: Sequence[Anchor | Box] | np.ndarray) -> np.ndarray:
    """(n, 4) corners of a :func:`generate_anchors` grid, of any anchors or boxes, or an (n, 4) array as it is."""
    if isinstance(boxes, np.ndarray):
        return boxes
    if isinstance(boxes, _AnchorGrid):
        return boxes.corners
    return boxes_to_array(b.box if isinstance(b, Anchor) else b for b in boxes)


def generate_anchors(config: AnchorGridConfig, image_w: int, image_h: int) -> Sequence[Anchor]:
    """Tile anchors over every pyramid level of an image.

    Level l gets a ceil(h / stride_l) x ceil(w / stride_l) grid; each cell
    holds one anchor per (scale, ratio) pair, centered at
    ((col + 0.5) * stride, (row + 0.5) * stride) with
    width = base * scale * sqrt(1 / ratio) and height = base * scale * sqrt(ratio).
    Anchors run level by level, then by row, column, scale and ratio.

    Total count is sum over levels of rows * cols * |scales| * |ratios|.
    The result is a read-only sequence that builds each :class:`Anchor` on
    access; call ``list(...)`` on it when a list is needed.
    """
    if isinstance(image_w, bool) or isinstance(image_h, bool):
        raise ValueError(f"image dimensions must be numbers, not bool; got {image_w}x{image_h}")
    if image_w <= 0 or image_h <= 0:
        raise ValueError(f"image dimensions must be positive, got {image_w}x{image_h}")

    shapes = [(s * math.sqrt(1.0 / r), s * math.sqrt(r)) for s in config.scales for r in config.ratios]
    wf = np.array([w for w, _ in shapes])
    hf = np.array([h for _, h in shapes])

    grids = [(math.ceil(image_h / stride), math.ceil(image_w / stride)) for stride in config.strides]
    sizes = [rows * cols * len(shapes) for rows, cols in grids]
    starts = [0, *itertools.accumulate(sizes[:-1])]
    corners = np.empty((sum(sizes), 4))
    extents = []
    # Overflow gives an infinite corner or area, which Box's check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for (rows, cols), start, size, stride, base in zip(grids, starts, sizes, config.strides, config.base_sizes):
            # Each corner is (col + 0.5) * stride -/+ (0.5 * base) * wf, and likewise
            # for rows: the per-anchor float operations in the per-anchor order, so
            # the corners match a scalar loop over the formula bit for bit.
            cx = ((np.arange(cols) + 0.5) * stride)[None, :, None]
            cy = ((np.arange(rows) + 0.5) * stride)[:, None, None]
            half_w = 0.5 * base * wf
            half_h = 0.5 * base * hf
            x1, y1, x2, y2 = cx - half_w, cy - half_h, cx + half_w, cy + half_h
            level = corners[start : start + size].reshape(rows, cols, len(shapes), 4)
            level[..., 0], level[..., 1], level[..., 2], level[..., 3] = x1, y1, x2, y2
            # Every corner is a copy of one of these, so their extents are the corners' own.
            extents.append((x1.min(axis=(0, 2)), x2.max(axis=(0, 2)), y1.min(axis=(1, 2)), y2.max(axis=(1, 2))))

    ok = _box_ok(corners)
    if not ok.all():
        Box(*corners[np.argmin(ok)].tolist())  # raises Box's error for the first bad anchor

    return _AnchorGrid(corners, starts, [cols for _, cols in grids], len(shapes), extents)


def encode(anchor: Box, target: Box) -> BoxDelta:
    """Center-offset/log-size delta taking ``anchor`` onto ``target``.

    tx = (cx_t - cx_a) / w_a, ty = (cy_t - cy_a) / h_a,
    tw = ln(w_t / w_a), th = ln(h_t / h_a).  No variance scaling.
    """
    if anchor.width <= 0 or anchor.height <= 0:
        raise ValueError(f"anchor must have positive size, got {anchor}")
    if target.width <= 0 or target.height <= 0:
        raise ValueError(f"target must have positive size, got {target}")
    acx, acy = anchor.center
    tcx, tcy = target.center
    return BoxDelta(
        tx=(tcx - acx) / anchor.width,
        ty=(tcy - acy) / anchor.height,
        tw=math.log(target.width / anchor.width),
        th=math.log(target.height / anchor.height),
    )


def decode(anchor: Box, delta: BoxDelta) -> Box:
    """Exact inverse of :func:`encode`."""
    if anchor.width <= 0 or anchor.height <= 0:
        raise ValueError(f"anchor must have positive size, got {anchor}")
    try:
        w = anchor.width * math.exp(delta.tw)
        h = anchor.height * math.exp(delta.th)
    except OverflowError:
        raise ValueError(f"size delta overflows exp: tw={delta.tw}, th={delta.th}") from None
    if not (math.isfinite(w) and math.isfinite(h)):
        raise ValueError(f"decoded size not finite: tw={delta.tw}, th={delta.th}")
    acx, acy = anchor.center
    cx = acx + delta.tx * anchor.width
    cy = acy + delta.ty * anchor.height
    return Box(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
