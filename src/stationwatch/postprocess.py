"""Anchor-free detector head post-processing.

Turns raw per-stride grid tensors into scored, class-labelled boxes:
grid decode with exponential size terms, objectness/class score fusion,
confidence filtering, and class-aware greedy NMS. Candidates travel from
decode through NMS to the result record as one `Detections` batch of
numpy arrays. Everything here is a pure function; decoding the same
tensors twice gives identical results.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, GeometryError
from .tensor_stream import RawTensorSet

# Channel layout of one grid cell.
_CH_TX, _CH_TY, _CH_TW, _CH_TH, _CH_OBJ = 0, 1, 2, 3, 4
_CH_CLASSES = 5


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, corners ordered x1<=x2, y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        if not (math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2)
                and math.isfinite(y2)):
            name = next(name for name, value in zip(("x1", "y1", "x2", "y2"), (x1, y1, x2, y2))
                        if not math.isfinite(value))
            raise ValueError(f"box coordinate {name} is not finite")
        if x1 > x2 or y1 > y2:
            raise ValueError(f"box corners out of order: ({x1}, {y1}, {x2}, {y2})")

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class DecodeConfig:
    """Thresholds and class wiring for post-processing.

    Class ids follow the detector's training order; the defaults match the
    leading COCO indices (person=0, train=6).
    """

    strides: tuple[int, int, int] = (8, 16, 32)
    conf_threshold: float = 0.30
    nms_iou_threshold: float = 0.45
    person_class_id: int = 0
    train_class_id: int = 6

    def __post_init__(self):
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        if len(self.strides) != 3 or not (0 < self.strides[0] < self.strides[1] < self.strides[2]):
            raise ValueError(f"strides must be 3 strictly increasing values, got {self.strides}")
        for name in ("conf_threshold", "nms_iou_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.person_class_id < 0 or self.train_class_id < 0:
            raise ValueError("class ids must be >= 0")
        if self.person_class_id == self.train_class_id:
            raise ValueError("person and train class ids must differ")


@dataclass(frozen=True, eq=False)
class Detections:
    """Candidates as one struct-of-arrays batch, from decode to the records.

    Row i is one candidate: `boxes[i]` holds (x1, y1, x2, y2) as float64,
    `scores[i]` its fused confidence and `class_ids[i]` its label.
    """

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def take(self, rows: np.ndarray) -> "Detections":
        """The batch of the given rows: indices, in their order, or a boolean mask."""
        return Detections(self.boxes[rows], self.scores[rows], self.class_ids[rows])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable in both tails; plain 1/(1+exp(-x)) overflows for large -x.
    # For x < 0, -|x| is x, so e is exp(x) there.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# A computed sigmoid lies within a few ulps of 1 of the exact one; this
# bounds that error with room to spare.
_SIGMOID_SLACK = 1e-15


@functools.lru_cache
def _objectness_cutoff(conf_threshold: float) -> np.float64:
    """Objectness logit below which no cell can score `conf_threshold`.

    A fused score sigmoid(obj) * sigmoid(cls) never exceeds sigmoid(obj),
    so a cell needs sigmoid(obj) >= conf. The cut-off is the logit of
    conf - slack, lowered by a relative margin for the rounding of the
    logit itself; -inf when the threshold is within the slack of 0. It is
    a numpy float64 so that comparing float32 logits with it happens in
    float64.
    """
    p = conf_threshold - _SIGMOID_SLACK
    if p <= 0.0:
        return np.float64(-np.inf)
    logit = math.log(p) - math.log1p(-p)
    return np.float64(logit - 1e-9 * max(1.0, abs(logit)))


def _exp_or_inf(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _exp(values: np.ndarray) -> np.ndarray:
    # math.exp, not np.exp: the two differ in the last bit for some inputs.
    flat = values.ravel().tolist()
    try:
        out = np.fromiter(map(math.exp, flat), np.float64, len(flat))
    except OverflowError:
        out = np.array([_exp_or_inf(v) for v in flat], dtype=np.float64)
    return out.reshape(values.shape)


@functools.lru_cache
def _image_limits(width: int, height: int) -> np.ndarray:
    limits = np.array([width, height, width, height], dtype=np.float64)
    limits.flags.writeable = False
    return limits


def decode_all(frame: RawTensorSet, config: DecodeConfig) -> Detections:
    """Decode every stride level of a frame, with boxes clipped to the image.

    Cell (gx, gy) of a level with stride s, holding raw values (tx, ty, tw,
    th, obj, class logits...), maps to a box centred at ((gx+tx)*s,
    (gy+ty)*s) with size (exp(tw)*s, exp(th)*s). The fused score is
    sigmoid(obj) * sigmoid(best class logit); the class label is the argmax
    over class logits, lowest id winning ties. Only detections with
    score >= conf_threshold are returned: stride levels in config order,
    cells in row-major order within each level.

    Only the cells whose objectness logit could reach the threshold are
    scored. Each level is checked whole, then its candidate cells are
    found in its flat objectness column and gathered once, by flat index,
    into one float64 array for the frame; from there every candidate of
    every level is scored and boxed in one step, so a frame with few
    candidates costs a small, fixed number of numpy calls.
    """
    width, height = frame.image_width, frame.image_height
    cutoff = _objectness_cutoff(config.conf_threshold)
    levels = []
    for level, (tensor, stride) in enumerate(zip(frame.outputs, config.strides)):
        where = f"frame {frame.frame_index}, level {level}: "
        expected = (height // stride, width // stride)
        if height % stride or width % stride:
            raise GeometryError(f"{where}stride {stride} does not divide image {width}x{height}")
        if tensor.shape[:2] != expected:
            raise GeometryError(
                f"{where}grid {tensor.shape[:2]} does not match stride {stride} over "
                f"{width}x{height} (expected {expected})"
            )
        if not np.isfinite(tensor).all():
            gy, gx, ch = (int(i) for i in np.argwhere(~np.isfinite(tensor))[0])
            raise DecodeError(f"{where}non-finite value at cell (gx={gx}, gy={gy}), channel {ch}")
        flat = tensor.reshape(-1, tensor.shape[2])
        levels.append((flat, (flat[:, _CH_OBJ] >= cutoff).nonzero()[0], expected[1], stride))

    # Row r of `cells` is candidate r: `cell_xy[r]` is its (gx, gy) and
    # `strides[r]` its level's stride.
    count = sum(len(index) for _, index, _, _ in levels)
    cells = np.empty((count, frame.outputs[0].shape[2]))
    cell_xy = np.empty((count, 2), dtype=np.int64)
    strides = np.empty((count, 1), dtype=np.int64)
    start = 0
    for flat, index, grid_width, stride in levels:
        if len(index):
            rows = slice(start, start + len(index))
            cells[rows] = flat[index]
            np.divmod(index, grid_width, out=(cell_xy[rows, 1], cell_xy[rows, 0]))
            strides[rows] = stride
            start = rows.stop

    obj_and_class = np.empty((2, count))
    obj_and_class[0] = cells[:, _CH_OBJ]
    obj_and_class[1] = np.max(cells[:, _CH_CLASSES:], axis=-1)
    obj, cls = _sigmoid(obj_and_class)
    scores = obj * cls
    keep = (scores >= config.conf_threshold).nonzero()[0]
    kept, cell_xy, stride = cells[keep], cell_xy[keep], strides[keep]
    centre = (cell_xy + kept[:, _CH_TX:_CH_TW]) * stride
    with np.errstate(over="ignore"):  # an overflow is reported below
        half = _exp(kept[:, _CH_TW:_CH_OBJ]) * stride / 2
    boxes = np.concatenate((centre - half, centre + half), axis=1)
    if not np.isfinite(boxes).all():
        row = int(np.argmin(np.isfinite(boxes).all(axis=1)))
        gx, gy = cell_xy[row].tolist()
        raise DecodeError(
            f"frame {frame.frame_index}, level {config.strides.index(int(stride[row, 0]))}: "
            f"box at cell (gx={gx}, gy={gy}) overflows: "
            f"(tx, ty, tw, th) = {tuple(kept[row, _CH_TX:_CH_OBJ].tolist())}"
        )
    np.minimum(np.maximum(boxes, 0.0), _image_limits(width, height), out=boxes)
    class_ids = kept[:, _CH_CLASSES:].argmax(axis=1)
    return Detections(boxes, scores[keep], class_ids.astype(np.int64, copy=False))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every (x1, y1, x2, y2) row of `a` with every row of `b`, as (n, m).

    Intersection area over union area, 0 where the union is empty.
    """
    lo = np.maximum(a[:, None, :2], b[None, :, :2])
    hi = np.minimum(a[:, None, 2:], b[None, :, 2:])
    overlap = np.maximum(hi - lo, 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


# NMS walks the visit order in blocks of this many rows and makes candidate
# pairs in chunks of about this many, so its scratch memory is bounded
# however the boxes lie. A chunk's 8-byte columns take 32 KiB. At its
# defaults glibc malloc maps blocks of 128 KiB or more on their own and
# trims the heap only when a block of 64 KiB or more is freed, so columns
# this small reuse the same heap pages frame after frame instead of
# page-faulting fresh ones.
_NMS_BLOCK = 1024
_NMS_CHUNK = 2**12


def _windows(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray, prior: np.ndarray | None):
    """Sort-and-sweep windows on one axis, as (a, starts, counts, b) tuples.

    Row a[r] may overlap rows b[starts[r]:starts[r] + counts[r]] on this
    axis. Every pair whose ranges overlap by a positive length lies in
    exactly one window: without `prior`, the pairs within `rows`; with it,
    the pairs of a row and a prior row.
    """
    rows = rows[lo[rows].argsort()]
    rows_lo = lo[rows]
    if prior is None:
        # After a row: the rows whose low edge lies below its high edge.
        starts = np.arange(1, len(rows) + 1)
        windows = [(rows, starts, rows_lo.searchsorted(hi[rows]), rows)]
    else:
        # Prior rows whose low edge lies in [lo, hi) of a row, and rows
        # whose low edge lies in (lo, hi) of a prior row.
        prior = prior[lo[prior].argsort()]
        prior_lo = lo[prior]
        windows = [
            (rows, prior_lo.searchsorted(rows_lo), prior_lo.searchsorted(hi[rows]), prior),
            (prior, rows_lo.searchsorted(prior_lo, "right"), rows_lo.searchsorted(hi[prior]), rows),
        ]
    return [(a, starts, np.maximum(stops - starts, 0), b) for a, starts, stops, b in windows]


@functools.lru_cache
def _every_pair(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) positions of every pair first < second among `count` rows."""
    pairs = np.triu_indices(count, 1)
    for side in pairs:
        side.flags.writeable = False
    return pairs


def _candidate_pairs(edges, rows: np.ndarray, prior: np.ndarray | None = None):
    """Chunks of (earlier, later) rows that may overlap.

    `edges` holds the (low, high) edges of the x and the y axis. The pairs
    within `rows` (ascending) are all of them when they fit one chunk;
    otherwise, and always with `prior`, they come from the sweep with fewer
    pairs.
    """
    if prior is None and len(rows) * (len(rows) - 1) // 2 <= _NMS_CHUNK:
        first, second = _every_pair(len(rows))
        yield rows[first], rows[second]
        return
    sweeps = [_windows(lo, hi, rows, prior) for lo, hi in edges]
    totals = [sum(int(counts.sum()) for _, _, counts, _ in windows) for windows in sweeps]
    for a, starts, counts, b in sweeps[totals.index(min(totals))]:
        # Cut the rows where the running pair count passes a multiple of
        # _NMS_CHUNK: a chunk holds at most that many pairs plus one row's.
        ends = counts.cumsum()
        before = ends - counts
        cuts = ends.searchsorted(np.arange(0, counts.sum(), _NMS_CHUNK)).tolist()
        for lo, hi in zip(cuts, [*cuts[1:], len(a)]):
            window = counts[lo:hi]
            first = a[lo:hi].repeat(window)
            shift = (starts[lo:hi] + before[lo] - before[lo:hi]).repeat(window)
            second = b[np.arange(len(first)) + shift]
            yield np.minimum(first, second), np.maximum(first, second)


def nms(detections: Detections, iou_threshold: float) -> Detections:
    """Class-aware greedy non-maximum suppression.

    Candidates are visited by descending score (ties: lower class id, then
    earlier position in the input); a candidate is kept unless an already
    kept detection of the same class overlaps it with IoU strictly above
    the threshold. Suppression never crosses class boundaries. Kept rows
    come back in visit order.

    The work goes by overlapping pair, not by kept row. The visit order is
    taken in blocks of `_NMS_BLOCK` rows. A block first loses the rows that
    a kept row of an earlier block suppresses; then the suppressing pairs
    within the block are found and walked once, in visit order, with one
    step per row that has a later partner. Pairs come from a sort-and-sweep
    on x or y, whichever gives fewer, in chunks of about `_NMS_CHUNK`, and
    are scored with the arithmetic of `iou_matrix`. A block whose pairs
    all fit one chunk (91 rows or fewer) skips the sweep and takes every
    pair: the sweep only leaves out pairs that do not overlap on one axis,
    whose intersection is 0 and whose IoU is never above the threshold, so
    the kept rows are the same either way. Scratch memory is linear in the
    number of candidates, plus the suppressing pairs within one block (at
    most `_NMS_BLOCK`**2 / 2), however the boxes lie.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    # lexsort is stable: equal keys keep input order.
    order = np.lexsort((detections.class_ids, -detections.scores))
    count = len(order)
    if count < 2:
        return detections.take(order)
    x1, y1, x2, y2 = detections.boxes[order].T.copy()
    areas = (x2 - x1) * (y2 - y1)
    classes = detections.class_ids[order]
    edges = ((x1, x2), (y1, y2))

    def suppressing(pairs):
        # IoU is symmetric: max, min and the sum of the two areas commute.
        # With ordered corners the union is never below the intersection,
        # so it is 0 only when both are, and 0 / 0 = nan compares False as
        # the empty-union rule of `iou_matrix` asks.
        for first, second in pairs:
            same = classes[first] == classes[second]
            first, second = first[same], second[same]
            iw = np.minimum(x2[first], x2[second]) - np.maximum(x1[first], x1[second])
            ih = np.minimum(y2[first], y2[second]) - np.maximum(y1[first], y1[second])
            inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
            hit = inter / (areas[first] + areas[second] - inter) > iou_threshold
            yield first[hit], second[hit]

    kept = np.zeros(count, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, count, _NMS_BLOCK):
            stop = min(start + _NMS_BLOCK, count)
            kept[start:stop] = True
            rows = np.arange(start, stop)
            if start:
                prior = np.flatnonzero(kept[:start])
                for _, later in suppressing(_candidate_pairs(edges, rows, prior)):
                    kept[later] = False
                rows = rows[kept[start:stop]]
            pairs = [pair for pair in suppressing(_candidate_pairs(edges, rows)) if len(pair[0])]
            if not pairs:
                continue
            first, second = (np.concatenate(side) for side in zip(*pairs))
            by_first = first.argsort()
            first, second = first[by_first], second[by_first]
            # Walk the rows with a later partner in visit order; a row still
            # kept when its turn comes suppresses all of its partners.
            bounds = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), len(first)]
            for head, lo, hi in zip(first[bounds[:-1]].tolist(), bounds, bounds[1:]):
                if kept[head]:
                    kept[second[lo:hi]] = False
    return detections.take(order[kept])


def round6(values: np.ndarray) -> np.ndarray:
    """`round(v, 6)` of every element of a float64 array, bit for bit.

    With scaled = values * 1e6 and k = rint(scaled), k / 1e6 is round(v, 6)
    wherever |scaled| < 2**50 and |scaled - k| < 0.5. Rounding to the
    nearest double is monotone and every half-integer below 2**50 is a
    double, so the exact v * 10**6 lies strictly on the same side of each
    half-integer as scaled: k is its nearest integer and it is no tie. An
    exact k below 2**50 divided by the exact 1e6 is correctly rounded, and
    round returns the double nearest the correctly rounded decimal, k / 10**6.
    The whole array is tested at once; only when it fails are the elements
    outside the rule (ties such as 1/128, values of 2**50 or more after
    scaling, non-finite values) rounded one by one by round.
    """
    top = float(np.abs(values).max(initial=0.0)) * 1e6  # max |scaled|, with no overflow warning
    if top < 2.0**50:
        scaled = values * 1e6
        k = np.rint(scaled)
        if np.abs(scaled - k).max(initial=0.0) < 0.5:
            return k / 1e6
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e6
        k = np.rint(scaled)
        outside = np.flatnonzero(~((np.abs(scaled) < 2.0**50) & (np.abs(scaled - k) < 0.5)))
    out = k / 1e6
    out.flat[outside] = [round(v, 6) for v in values.flat[outside].tolist()]
    return out


def detections_to_record(frame_index: int, detections: Detections) -> dict:
    """JSON-serializable per-frame record.

    Every box corner and score is the value `round(v, 6)` gives, computed
    for the whole batch at once by `round6`.
    """
    n = len(detections)
    rounded = round6(np.concatenate((detections.boxes.ravel(), detections.scores)))
    return {
        "frame": frame_index,
        "detections": [
            {"box": box, "score": score, "class": class_id}
            for box, score, class_id in zip(
                rounded[:4 * n].reshape(n, 4).tolist(),
                rounded[4 * n:].tolist(),
                detections.class_ids.tolist(),
            )
        ],
    }


def whole_number(value, name: str) -> int:
    """Read a number from outside input that must be a whole number in [0, 2**63).

    6.0 reads as 6; 1.5, "3", true, NaN and infinities raise ValueError,
    so nothing is truncated, parsed from text or taken from a boolean.
    """
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value < 2**63 and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number in [0, 2**63), got {value!r}")
    return int(value)


def real_number(value, name: str) -> float:
    """Read a number from outside input as a float: "0.3" and true raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def box_from_json(values) -> BoundingBox:
    """Read an [x1, y1, x2, y2] box from outside input, each corner by real_number."""
    return BoundingBox(*(real_number(value, "box corner") for value in values))


def known_keys(data, keys, name: str) -> dict:
    """Return the JSON object `data`, refusing a key outside `keys` by name."""
    if not isinstance(data, dict):
        raise TypeError(f"{name} must be an object, got {type(data).__name__}")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {name}")
    return data


@contextmanager
def reading(error: type[Exception], what: str):
    """Turn a failure to read outside input in the block into `error`.

    A missing key reads `malformed WHAT: missing key 'k'`; a TypeError,
    ValueError (which covers text that is not UTF-8 or not JSON),
    OverflowError or RecursionError (JSON nested past the parser's depth)
    reads `malformed WHAT: reason`. A StationError passes through as it is.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"malformed {what}: {reason}") from exc


def load_json(path, reader, error: type[Exception], what: str):
    """`reader` of the JSON document at `path`, read under `reading(error, what)`.

    The file is opened outside `reading`, so a missing file raises OSError.
    """
    with open(path, encoding="utf-8") as fh, reading(error, what):
        return reader(json.load(fh))


def detections_from_record(record: dict) -> tuple[int, Detections]:
    """Inverse of detections_to_record (modulo the 6-decimal rounding).

    The record comes from outside, so it is checked: its frame a whole
    number, and each entry's corners finite, ordered numbers, its score a
    number in [0, 1] and its class a whole number that fits the int64 class
    ids (see real_number and whole_number). A bad record raises KeyError,
    TypeError, ValueError or, for a corner too large for a float,
    OverflowError.
    """
    frame_index = whole_number(record["frame"], "frame")
    boxes, scores, class_ids = [], [], []
    for entry in record["detections"]:
        box = box_from_json(entry["box"])
        score = real_number(entry["score"], "score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {score}")
        boxes.append(box.as_list())
        scores.append(score)
        class_ids.append(whole_number(entry["class"], "class"))
    detections = Detections(
        np.array(boxes, dtype=np.float64).reshape(-1, 4),
        np.array(scores, dtype=np.float64),
        np.array(class_ids, dtype=np.int64),
    )
    return frame_index, detections
