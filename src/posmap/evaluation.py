"""Detector evaluation on polygon annotations.

The protocol is fixed: greedy score-ordered matching per image and class,
the ten IoU thresholds 0.50:0.05:0.95, a 101-point recall grid, the area
strata all / small (< 32²) / medium (32²–96²) / large (≥ 96² px) with
crowd and out-of-stratum ignore handling, and at most the 100 best-scored
detections per image and class. Every entry point takes one setting, the
keyword ``iou_mode``: IoU on rasterized polygon masks (``segm``, the
default) or on axis-aligned boxes (``bbox``); any other value is a
:class:`~posmap.errors.ConfigError`.

Every entry point runs on one matching pass per class (:func:`_match`).
It builds each (image, class) IoU matrix once — a numpy broadcast over
the box arrays, or the summed overlaps of the polygons' pixel runs — pads the
class's images to (U, D, G) and sweeps detection rank once for all S
strata and T thresholds together, keeping an (S, T, U, G) "taken" array. Strata
differ only in which ground truths are ignored: crowd regions always, plus
those outside the stratum's area range; unmatched detections outside the
range are ignored too. :func:`match_detections` and :func:`diagnose_errors`
match at one IoU and run the all-sizes stratum alone, which ignores crowd
ground truth only.

Segm mode builds no mask. One scan (:func:`~posmap.geometry2d.polygon_runs`)
turns all polygon sets of an (image, class) unit into pixel runs, spans of
one image row each, which live only while that unit's IoU matrix is
built. Memory is thus bounded by one unit's runs, not by the dataset or
the frame size. The Sim/Oth scan of :func:`diagnose_errors` scans the
unmatched detections of a unit again, next to the other classes' ground
truth of that image.

Tie-breaking is deterministic: detections are ranked by (-score, id). At
each rank a detection takes the available non-ignored ground truth of
highest IoU at or above the threshold, and only if there is none, the
best ignored one; among equal IoUs it takes the lowest id. Crowd ground
truth is never used up.

:func:`evaluate_detections` also returns each class's precision/recall
row at IoU 0.5 over all sizes, which the sweep computes anyway;
:func:`pr_curve` is that row for one class, so PR curves have no pass of
their own. :func:`diagnose_errors` produces a cumulative error ladder
(C75, C50, Loc, Sim, Oth, BG, FN). The ladder matches once at IoU 0.10
and then *nests* all later stages inside that matching — stricter stages
only re-flag the same matched pairs, looser stages only ignore more false
positives — so the seven numbers are non-decreasing by construction,
ending at exactly 1.

Every class mean — :attr:`EvalResult.mean`, :func:`mean_ap` and
:attr:`DiagnosisResult.mean` — is one rule: the unweighted mean over the
classes where the value is defined, None where it is defined for none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Literal, NamedTuple, TypeVar

import numpy as np

from .coco import Annotation, Dataset, ImageRecord
from .errors import ConfigError, DataError
from .mapping import GroundObservation
from .geometry2d import polygon_runs, polygons_area
from .geometry2d import rasterize_polygons  # noqa: F401 -- perfbench/spans.py wraps this name
from .taxonomy import Taxonomy

__all__ = [
    "Scores",
    "ClassMetrics",
    "EvalResult",
    "DiagnosisLadder",
    "DiagnosisResult",
    "MatchResult",
    "PRCurve",
    "ClassStats",
    "DatasetStats",
    "iou_bbox",
    "iou_mask",
    "match_detections",
    "localization_pairs",
    "pr_curve",
    "mean_ap",
    "evaluate_detections",
    "diagnose_errors",
    "dataset_stats",
]

_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
_AP50, _AP75 = _IOU_THRESHOLDS.index(0.5), _IOU_THRESHOLDS.index(0.75)
# correctly-rounded k/100, so recalls that are exact hundredths land on the
# grid point rather than one ulp to either side of it
_RECALL_GRID = np.arange(101, dtype=float) / 100
# (lowest area, exclusive area bound) of the strata all, small, medium, large
_AREA_RANGES: tuple[tuple[float, float], ...] = (
    (0.0, math.inf),
    (0.0, 32.0**2),
    (32.0**2, 96.0**2),
    (96.0**2, math.inf),
)
_ALL_SIZES = _AREA_RANGES[:1]
# detections per image and class that count, best-scored first
_MAX_DETS = 100


def _check_mode(iou_mode: str) -> None:
    if iou_mode not in ("segm", "bbox"):
        raise ConfigError(f"iou_mode must be 'segm' or 'bbox', got {iou_mode!r}")


@dataclass(frozen=True)
class Scores:
    """The seven scores of a class or a class mean; None where undefined."""

    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    ar100: float | None


@dataclass(frozen=True)
class ClassMetrics(Scores):
    """A class's scores and ground-truth count; scores are None without ground truth."""

    n_gt: int


@dataclass(frozen=True)
class PRCurve:
    """Interpolated precision over the recall grid, at one IoU threshold."""

    recall: tuple[float, ...]
    precision: tuple[float, ...]
    ap: float | None
    n_gt: int


@dataclass(frozen=True)
class EvalResult:
    per_class: dict[int, ClassMetrics]
    mean: Scores  # class means, each over the classes where the score is defined
    pr_curves: dict[int, PRCurve]  # per class, IoU 0.5, all sizes


@dataclass(frozen=True)
class DiagnosisLadder:
    """Cumulative-correction AP ladder; non-decreasing, ends at 1."""

    c75: float
    c50: float
    loc: float
    sim: float
    oth: float
    bg: float
    fn: float


@dataclass(frozen=True)
class DiagnosisResult:
    per_class: dict[int, DiagnosisLadder]
    mean: DiagnosisLadder | None


# ---------------------------------------------------------------------------
# IoU kernel
# ---------------------------------------------------------------------------


def _ious_from_areas(
    inter: np.ndarray, det_area: np.ndarray, gt_area: np.ndarray, crowd: np.ndarray
) -> np.ndarray:
    """IoU from intersections (..., D, G) and areas (..., D, 1), (..., 1, G).

    A crowd ground truth divides by the detection's area alone, so a
    detection inside a crowd region scores 1 however large the region is.
    """
    denom = np.where(crowd, det_area, det_area + gt_area - inter)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((inter > 0) & (denom > 0), inter / denom, 0.0)


def _box_ious(det_boxes: np.ndarray, gt_boxes: np.ndarray, gt_crowd: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (..., D, 4) and (..., G, 4) (x, y, w, h) boxes."""
    dx, dy, dw, dh = (det_boxes[..., :, None, k] for k in range(4))
    gx, gy, gw, gh = (gt_boxes[..., None, :, k] for k in range(4))
    ix = np.maximum(0.0, np.minimum(dx + dw, gx + gw) - np.maximum(dx, gx))
    iy = np.maximum(0.0, np.minimum(dy + dh, gy + gh) - np.maximum(dy, gy))
    return _ious_from_areas(ix * iy, dw * dh, gw * gh, gt_crowd[..., None, :])


def _mask_ious(
    dets: list[list[list[float]]], gts: list[list[list[float]]], size: tuple[int, int],
    gt_crowd: np.ndarray,
) -> np.ndarray:
    """Pairwise IoU of polygon sets from the pixel runs of one scan of them all.

    A set's area is the summed length of its runs. A pair's intersection is
    the summed overlap of its runs; as no run crosses a row end, a detection
    run can overlap only the ground-truth runs that start on its row before
    it ends.
    """
    width, n_det, n_gt = size[0], len(dets), len(gts)
    obj, start, end = polygon_runs([*dets, *gts], *size)
    area = np.bincount(obj, weights=end - start, minlength=n_det + n_gt).astype(np.int64)
    split = np.searchsorted(obj, n_det)
    d_obj, d_start, d_end = obj[:split], start[:split], end[:split]
    order = np.argsort(start[split:], kind="stable") + split
    g_obj, g_start, g_end = obj[order] - n_det, start[order], end[order]
    first = np.searchsorted(g_start, d_start - d_start % width)
    count = np.searchsorted(g_start, d_end) - first
    # every pair (k, m) of a detection run and a candidate ground-truth run
    k = np.repeat(np.arange(split), count)
    m = np.arange(len(k)) - np.repeat(np.cumsum(count) - count - first, count)
    overlap = np.minimum(d_end[k], g_end[m]) - np.maximum(d_start[k], g_start[m])
    inter = np.bincount(
        d_obj[k] * n_gt + g_obj[m], weights=np.maximum(overlap, 0), minlength=n_det * n_gt
    ).astype(np.int64).reshape(n_det, n_gt)
    return _ious_from_areas(inter, area[:n_det, None], area[None, n_det:], gt_crowd[None, :])


def _boxes(anns: list[Annotation]) -> np.ndarray:
    return np.array([a.bbox for a in anns], dtype=float).reshape(-1, 4)


def _unit_ious(
    dets: list[Annotation], gts: list[Annotation], mode: str, size: tuple[int, int]
) -> np.ndarray:
    """(D, G) IoU matrix of one image's detections against ground truths.

    In segm mode the pixel runs are scanned here and dropped on return.
    """
    crowd = np.array([bool(g.iscrowd) for g in gts], dtype=bool)
    if mode == "bbox":
        return _box_ious(_boxes(dets), _boxes(gts), crowd)
    for ann in (*dets, *gts):
        if not ann.segmentation:
            raise DataError(f"annotation {ann.id} has no polygon; use bbox IoU mode")
    return _mask_ious(
        [d.segmentation for d in dets], [g.segmentation for g in gts], size, crowd
    )


def iou_bbox(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    if a[2] <= 0 or a[3] <= 0 or b[2] <= 0 or b[3] <= 0:
        raise DataError(f"degenerate box: {a if a[2] <= 0 or a[3] <= 0 else b}")
    return float(_box_ious(np.array([a], float), np.array([b], float), np.zeros(1, bool))[0, 0])


def iou_mask(
    a: list[list[float]],
    b: list[list[float]],
    image_size: tuple[int, int],
) -> float:
    """IoU of two polygon sets rasterized at a positive (width, height) (even-odd fill)."""
    if min(image_size) <= 0:
        raise DataError(f"mask IoU needs a positive image_size, got {image_size}")
    return float(_mask_ious([a], [b], image_size, np.zeros(1, bool))[0, 0])


# ---------------------------------------------------------------------------
# the matching pass
# ---------------------------------------------------------------------------


class _Unit(NamedTuple):
    """One (image, class): detections in rank order, ground truths in id order."""

    image_id: int
    size: tuple[int, int]
    dets: list[Annotation]
    gts: list[Annotation]


def _units(gt: Dataset, detections: list[Annotation]) -> dict[int, list[_Unit]]:
    """Validated units per class, in image id order; detections capped at _MAX_DETS."""
    images = gt.image_by_id()
    cat_ids = {c.id for c in gt.categories}
    gt_buckets: dict[int, dict[int, list[Annotation]]] = {c: {} for c in cat_ids}
    for ann in gt.annotations:
        gt_buckets[ann.category_id].setdefault(ann.image_id, []).append(ann)
    det_buckets: dict[int, dict[int, list[Annotation]]] = {c: {} for c in cat_ids}
    for det in detections:
        if det.image_id not in images:
            raise DataError(f"detection {det.id} references unknown image {det.image_id}")
        if det.category_id not in cat_ids:
            raise DataError(
                f"detection {det.id} references unknown category {det.category_id}"
            )
        if det.score is None:
            raise DataError(f"detection {det.id} has no score")
        det_buckets[det.category_id].setdefault(det.image_id, []).append(det)

    out: dict[int, list[_Unit]] = {}
    for cat in cat_ids:
        out[cat] = []
        for image_id in sorted(set(gt_buckets[cat]) | set(det_buckets[cat])):
            im = images[image_id]
            dets = sorted(
                det_buckets[cat].get(image_id, []), key=lambda a: (-(a.score or 0.0), a.id)
            )
            gts = sorted(gt_buckets[cat].get(image_id, []), key=lambda a: a.id)
            out[cat].append(_Unit(image_id, (im.width, im.height), dets[:_MAX_DETS], gts))
    return out


def _greedy_sweep(
    ious: np.ndarray,
    n_det: np.ndarray,
    gt_ignore: np.ndarray,
    gt_crowd: np.ndarray,
    thresholds: tuple[float, ...],
) -> np.ndarray:
    """Greedy matching of every unit at every stratum and threshold at once.

    ``ious`` is (U, D, G), -inf where a unit has no such detection or
    ground truth; ``gt_ignore`` is (S, U, G), ``gt_crowd`` (U, G). The loop
    runs over detection rank only, keeping an (S, T, U, G) "taken" array.
    Returns the matched ground-truth column per (S, T, U, D), -1 for none.
    """
    n_strata, n_units, n_cols = gt_ignore.shape
    depth = ious.shape[1]
    # units with the most detections first: those still matching at rank d
    # are then a prefix
    order = np.argsort(-n_det, kind="stable")
    ious, gt_crowd = ious[order], gt_crowd[order]
    real = ~gt_ignore[:, None, order]
    active = np.count_nonzero(n_det[None, :] > np.arange(depth)[:, None], axis=1)
    floor = np.minimum(np.asarray(thresholds, dtype=float), 1.0 - 1e-10)[:, None, None]
    taken = np.zeros((n_strata, len(thresholds), n_units, n_cols), dtype=bool)
    match = np.full((n_strata, len(thresholds), n_units, depth), -1, dtype=np.int32)
    for d in range(depth):
        k = active[d]
        row = ious[:k, d]
        cand = (row >= floor) & ~taken[:, :, :k]
        real_cand = cand & real[:, :, :k]
        # argmax takes the first maximum, i.e. the lowest id among equal IoUs
        best = np.where(real_cand, row, -np.inf).argmax(-1)
        # used only when no real candidate is left, so every candidate is ignored
        best_ignored = np.where(cand, row, -np.inf).argmax(-1)
        m = np.where(real_cand.any(-1), best, np.where(cand.any(-1), best_ignored, -1))
        match[:, :, :k, d] = m
        s, t, u = np.nonzero(m >= 0)
        g = m[s, t, u]
        keep = ~gt_crowd[u, g]
        taken[s[keep], t[keep], u[keep], g[keep]] = True
    out = np.empty_like(match)
    out[:, :, order] = match
    return out


@dataclass
class _Pass:
    """One class matched at S strata x T thresholds, detections pooled.

    Pooled detections run unit by unit, in rank order within a unit.
    ``rank`` orders them by (-score, id) for accumulation.
    """

    dets: list[Annotation]
    start: np.ndarray  # (U + 1,) pooled offset of each unit's first detection
    ious: np.ndarray  # (N, G) each detection's IoU row, -inf past its unit's gts
    match: np.ndarray  # (S, T, N) matched ground-truth column, -1 for none
    tp: np.ndarray  # (S, T, N)
    ignore: np.ndarray  # (S, T, N)
    n_gt: np.ndarray  # (S,)
    rank: np.ndarray  # (N,)


def _match(
    units: list[_Unit],
    thresholds: tuple[float, ...],
    strata: tuple[tuple[float, float], ...],
    mode: str,
) -> _Pass:
    """Run the matching pass at each (lowest area, area bound) stratum."""
    n_det = np.array([len(u.dets) for u in units], dtype=int)
    n_gt = np.array([len(u.gts) for u in units], dtype=int)
    n_units, depth, n_cols = len(units), int(n_det.max(initial=0)), int(n_gt.max(initial=1))
    dets = [d for u in units for d in u.dets]
    gts = [g for u in units for g in u.gts]
    du = np.repeat(np.arange(n_units), n_det)
    dr = np.arange(len(dets)) - np.repeat(np.cumsum(n_det) - n_det, n_det)
    gu = np.repeat(np.arange(n_units), n_gt)
    gr = np.arange(len(gts)) - np.repeat(np.cumsum(n_gt) - n_gt, n_gt)

    # padding columns are crowd (never taken) and ignored in every stratum
    gt_crowd = np.ones((n_units, n_cols), dtype=bool)
    gt_crowd[gu, gr] = [bool(g.iscrowd) for g in gts]
    gt_area = np.full((n_units, n_cols), np.nan)
    gt_area[gu, gr] = [g.area for g in gts]
    det_area = np.array([d.area for d in dets], dtype=float)
    gt_ignore = np.stack([gt_crowd | ~((lo <= gt_area) & (gt_area < hi)) for lo, hi in strata])
    det_out = np.stack([~((lo <= det_area) & (det_area < hi)) for lo, hi in strata])

    if mode == "bbox":
        det_boxes = np.zeros((n_units, depth, 4))
        det_boxes[du, dr] = _boxes(dets)
        gt_boxes = np.zeros((n_units, n_cols, 4))
        gt_boxes[gu, gr] = _boxes(gts)
        valid = (np.arange(depth) < n_det[:, None])[:, :, None] & (
            np.arange(n_cols) < n_gt[:, None]
        )[:, None, :]
        ious = np.where(valid, _box_ious(det_boxes, gt_boxes, gt_crowd), -np.inf)
    else:
        ious = np.full((n_units, depth, n_cols), -np.inf)
        for i, u in enumerate(units):
            if u.dets and u.gts:
                ious[i, : len(u.dets), : len(u.gts)] = _unit_ious(u.dets, u.gts, mode, u.size)

    match = _greedy_sweep(ious, n_det, gt_ignore, gt_crowd, thresholds)[:, :, du, dr]
    strata_ix = np.arange(len(gt_ignore))[:, None, None]
    hit_ignored = gt_ignore[strata_ix, du, np.maximum(match, 0)]
    matched = match >= 0
    scores = np.array([d.score for d in dets], dtype=float)
    det_ids = np.array([d.id for d in dets], dtype=int)
    return _Pass(
        dets=dets,
        start=np.concatenate([[0], np.cumsum(n_det)]),
        ious=ious[du, dr],
        match=match,
        tp=matched & ~hit_ignored,
        ignore=(matched & hit_ignored) | (~matched & det_out[:, None, :]),
        n_gt=np.count_nonzero(~gt_ignore, axis=(1, 2)),
        rank=np.lexsort((det_ids, -scores)),
    )


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedy matching on one image and class.

    Detections appear in rank order (score descending, id ascending).
    ``matched_gt[i]`` is the ground-truth id detection i took, or None;
    ``ignored[i]`` marks matches to crowd regions, which count neither as
    true nor false positives.
    """

    det_ids: tuple[int, ...]
    matched_gt: tuple[int | None, ...]
    true_positive: tuple[bool, ...]
    ignored: tuple[bool, ...]
    unmatched_gt: tuple[int, ...]


def match_detections(
    gts: list[Annotation],
    dets: list[Annotation],
    threshold: float,
    *,
    iou_mode: Literal["segm", "bbox"] = "segm",
    image_size: tuple[int, int] = (0, 0),
) -> MatchResult:
    """Greedily match one image's detections to ground truth at one IoU.

    Detections are taken in score-descending order; each claims the
    highest-IoU available ground truth at or above the threshold, lowest
    id on ties. Crowd ground truth can absorb any number of detections,
    which become ignored rather than true positives. ``segm`` mode needs
    the positive ``image_size`` the masks are rasterized at. A threshold
    outside (0, 1] is a ``ConfigError``.
    """
    _check_mode(iou_mode)
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"IoU threshold must be within (0, 1], got {threshold}")
    for det in dets:
        if det.score is None:
            raise DataError(f"detection {det.id} has no score")
    if iou_mode == "segm" and min(image_size) <= 0:
        raise DataError(f"segm matching needs a positive image_size, got {image_size}")
    dets = sorted(dets, key=lambda a: (-(a.score or 0.0), a.id))
    gts = sorted(gts, key=lambda a: a.id)
    p = _match([_Unit(0, image_size, dets, gts)], (threshold,), _ALL_SIZES, iou_mode)
    matched = tuple(None if m < 0 else gts[m].id for m in p.match[0, 0])
    taken = {g for g in matched if g is not None}
    return MatchResult(
        det_ids=tuple(d.id for d in dets),
        matched_gt=matched,
        true_positive=tuple(bool(v) for v in p.tp[0, 0]),
        ignored=tuple(bool(v) for v in p.ignore[0, 0]),
        unmatched_gt=tuple(g.id for g in gts if g.id not in taken and not g.iscrowd),
    )


def _touches_border(ann: Annotation, image: ImageRecord) -> bool:
    """Whether the polygon, else the bbox, reaches the image border."""
    x, y, w, h = ann.bbox
    parts = ann.segmentation or [[x, y, x + w, y + h]]
    xs = [v for part in parts for v in part[0::2]]
    ys = [v for part in parts for v in part[1::2]]
    return min(xs) <= 0 or max(xs) >= image.width or min(ys) <= 0 or max(ys) >= image.height


def localization_pairs(
    gt: Dataset,
    detections: list[Annotation],
    observations: list[GroundObservation],
    truth: list[GroundObservation],
    *,
    iou_mode: Literal["segm", "bbox"] = "segm",
) -> list[tuple[GroundObservation, GroundObservation]]:
    """(observation, truth) for each mapped detection that matches a ground truth in view.

    Observations join on ``(image_id, annotation_id)`` to the detections
    they were mapped from, and ``truth`` on the same key to the ground
    truths. A detection matches under :func:`match_detections` at IoU 0.5
    per image and class. It gives no pair when it matches nothing or a crowd
    region, or when the ground truth's polygon touches the image border,
    where the true footpoint may be out of view. An observation without its
    detection, or a matched ground truth without its truth, is a
    :class:`DataError`.
    """
    _check_mode(iou_mode)
    images = gt.image_by_id()
    units: dict[tuple[int, int], tuple[list[Annotation], list[Annotation]]] = {}
    for side, anns in enumerate((gt.annotations, detections)):
        for ann in anns:
            units.setdefault((ann.image_id, ann.category_id), ([], []))[side].append(ann)
    in_view: dict[tuple[int, int], Annotation | None] = {}  # by (image id, detection id)
    for (image_id, _), (gts, dets) in units.items():
        if image_id not in images:
            raise DataError(f"annotations reference unknown image {image_id}")
        im, by_id = images[image_id], {g.id: g for g in gts}
        m = match_detections(gts, dets, 0.5, iou_mode=iou_mode, image_size=(im.width, im.height))
        for det_id, gt_id, ignored in zip(m.det_ids, m.matched_gt, m.ignored):
            hit = None if ignored else by_id.get(gt_id)
            in_view[image_id, det_id] = None if hit is None or _touches_border(hit, im) else hit
    truth_by_key = {(o.image_id, o.annotation_id): o for o in truth}
    pairs = []
    for obs in observations:
        key = (obs.image_id, obs.annotation_id)
        if key not in in_view:
            raise DataError(f"observation of annotation {key[1]} in image {key[0]} has no detection")
        hit = in_view[key]
        if hit is None:
            continue
        if (hit.image_id, hit.id) not in truth_by_key:
            raise DataError(f"ground truth {hit.id} in image {hit.image_id} has no truth")
        pairs.append((obs, truth_by_key[hit.image_id, hit.id]))
    return pairs


# ---------------------------------------------------------------------------
# accumulation
# ---------------------------------------------------------------------------


def _precision_on_grid(tp: np.ndarray, ignore: np.ndarray, n_gt: int) -> tuple[np.ndarray, float]:
    """Interpolated precision at each recall grid point, plus max recall.

    ``tp`` and ``ignore`` are per-detection flags in rank order.
    """
    keep = ~ignore
    tps = np.cumsum(tp & keep)
    fps = np.cumsum(~tp & keep)
    if len(tps) == 0 or n_gt == 0:
        return np.zeros(len(_RECALL_GRID)), 0.0
    recall = tps / n_gt
    precision = tps / np.maximum(tps + fps, 1e-12)
    # envelope: precision at recall r is the best precision at recall >= r
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_GRID, side="left")
    q = np.zeros(len(_RECALL_GRID))
    valid = idx < len(precision)
    q[valid] = precision[idx[valid]]
    return q, float(recall[-1])


def _mean_or_none(values: Iterable[float | None]) -> float | None:
    """Unweighted mean of the defined values; None if no value is defined."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


_Record = TypeVar("_Record")


def _mean_record(cls: type[_Record], records: list) -> _Record:
    """The ``cls`` record whose every field is :func:`_mean_or_none` over ``records``."""
    return cls(**{f.name: _mean_or_none(getattr(r, f.name) for r in records) for f in fields(cls)})


def evaluate_detections(
    gt: Dataset, detections: list[Annotation], *, iou_mode: Literal["segm", "bbox"] = "segm"
) -> EvalResult:
    """Score detections against ground truth with the interpolated-AP protocol."""
    _check_mode(iou_mode)
    units = _units(gt, detections)
    n_thr = len(_IOU_THRESHOLDS)

    per_class: dict[int, ClassMetrics] = {}
    pr_curves: dict[int, PRCurve] = {}
    for cat in sorted(c.id for c in gt.categories):
        p = _match(units[cat], _IOU_THRESHOLDS, _AREA_RANGES, iou_mode)
        tp, ignore = p.tp[..., p.rank], p.ignore[..., p.rank]
        # (precision on the grid, max recall) per stratum and threshold;
        # empty for a stratum without ground truth
        curves = [
            [_precision_on_grid(tp[s, t], ignore[s, t], int(n)) for t in range(n_thr)] if n else []
            for s, n in enumerate(p.n_gt)
        ]
        aps_all, aps_small, aps_medium, aps_large = (
            [float(q.mean()) for q, _ in c] for c in curves
        )
        n_gt = int(p.n_gt[0])
        ap50 = aps_all[_AP50] if aps_all else None
        per_class[cat] = ClassMetrics(
            ap=_mean_or_none(aps_all),
            ap50=ap50,
            ap75=aps_all[_AP75] if aps_all else None,
            ap_small=_mean_or_none(aps_small),
            ap_medium=_mean_or_none(aps_medium),
            ap_large=_mean_or_none(aps_large),
            ar100=_mean_or_none([r for _, r in curves[0]]),
            n_gt=n_gt,
        )
        q50 = curves[0][_AP50][0] if n_gt else np.zeros(len(_RECALL_GRID))
        pr_curves[cat] = PRCurve(
            recall=tuple(float(v) for v in _RECALL_GRID),
            precision=tuple(float(v) for v in q50),
            ap=ap50,
            n_gt=n_gt,
        )

    mean = _mean_record(Scores, list(per_class.values()))
    return EvalResult(per_class=per_class, mean=mean, pr_curves=pr_curves)


def pr_curve(
    gt: Dataset,
    detections: list[Annotation],
    class_id: int,
    *,
    iou_mode: Literal["segm", "bbox"] = "segm",
) -> PRCurve:
    """Dataset-wide precision/recall for one class at IoU 0.5.

    Pooled over all images (all object sizes): the class's entry of
    :attr:`EvalResult.pr_curves`. A class with no ground truth yields
    ap=None — undefined rather than zero, so it can be excluded from means.
    """
    curves = evaluate_detections(gt, detections, iou_mode=iou_mode).pr_curves
    if class_id not in curves:
        raise DataError(f"unknown category id {class_id}")
    return curves[class_id]


def mean_ap(
    per_class: dict[int, ClassMetrics], class_ids: Iterable[int] | None = None
) -> float | None:
    """Unweighted mean AP over a class subset.

    Classes whose AP is undefined (no ground truth) are excluded; None is
    returned when every class in the subset is undefined.
    """
    ids = list(per_class) if class_ids is None else list(class_ids)
    if not ids:
        raise DataError("mean AP needs at least one class")
    unknown = [i for i in ids if i not in per_class]
    if unknown:
        raise DataError(f"classes not in evaluation result: {unknown}")
    return _mean_or_none(per_class[i].ap for i in ids)


# ---------------------------------------------------------------------------
# dataset statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    class_name: str
    count: int
    area_mean: float | None
    area_std: float | None
    aspect_mean: float | None
    aspect_std: float | None


@dataclass(frozen=True)
class DatasetStats:
    per_class: tuple[ClassStats, ...]
    total: int
    n_images: int
    condition_tallies: dict[str, dict[str, int]]


def dataset_stats(ds: Dataset, taxonomy: Taxonomy | None = None) -> DatasetStats:
    """Per-class annotation statistics: counts, areas, aspect ratios.

    Area is the polygon (shoelace) area when a segmentation is present,
    otherwise the stored annotation area. Aspect ratio is bbox height over
    width. Standard deviations are population (ddof=0). Classes are
    reported in taxonomy order when a taxonomy is given, dataset category
    order otherwise; image-level condition tags named ``weather`` or
    ``evening`` are tallied per annotation when present.
    """
    if taxonomy is not None:
        order = [c.name for c in taxonomy.classes]
        known = {c.name for c in ds.categories}
        names = [n for n in order if n in known] + sorted(known - set(order))
    else:
        names = [c.name for c in sorted(ds.categories, key=lambda c: c.id)]
    by_name: dict[str, list[Annotation]] = {n: [] for n in names}
    cat_names = {c.id: c.name for c in ds.categories}
    images = ds.image_by_id()
    tallies: dict[str, dict[str, int]] = {}
    for ann in ds.annotations:
        by_name[cat_names[ann.category_id]].append(ann)
        extra = images[ann.image_id].extra
        for key in ("weather", "evening"):
            if key in extra:
                bucket = tallies.setdefault(key, {})
                value = str(extra[key])
                bucket[value] = bucket.get(value, 0) + 1

    rows = []
    for name in names:
        anns = by_name[name]
        if not anns:
            rows.append(ClassStats(name, 0, None, None, None, None))
            continue
        areas = np.array(
            [
                polygons_area(a.segmentation) if a.segmentation else a.area
                for a in anns
            ]
        )
        aspects = np.array([a.bbox[3] / a.bbox[2] for a in anns if a.bbox[2] > 0])
        rows.append(
            ClassStats(
                class_name=name,
                count=len(anns),
                area_mean=float(areas.mean()),
                area_std=float(areas.std()),
                aspect_mean=float(aspects.mean()) if len(aspects) else None,
                aspect_std=float(aspects.std()) if len(aspects) else None,
            )
        )
    return DatasetStats(
        per_class=tuple(rows),
        total=len(ds.annotations),
        n_images=len(ds.images),
        condition_tallies=tallies,
    )


# ---------------------------------------------------------------------------
# error diagnosis ladder
# ---------------------------------------------------------------------------

_LOC_IOU = 0.10


def diagnose_errors(
    gt: Dataset, detections: list[Annotation], *, iou_mode: Literal["segm", "bbox"] = "segm"
) -> DiagnosisResult:
    """Cumulative error ladder per class (all object sizes pooled).

    One matching pass runs at IoU 0.10; every stage reuses it. C75/C50
    re-flag matched pairs below the stricter threshold as localization
    false positives; Sim then ignores unmatched detections overlapping a
    same-super-category ground truth at 0.10, Oth those overlapping any
    other-class ground truth, BG every remaining false positive, and FN is
    1 by definition. Nesting makes the ladder exactly non-decreasing.
    """
    _check_mode(iou_mode)
    units = _units(gt, detections)
    supercat = {c.id: c.supercategory for c in gt.categories}
    gt_by_image: dict[int, list[Annotation]] = {}
    for ann in gt.annotations:
        gt_by_image.setdefault(ann.image_id, []).append(ann)

    per_class: dict[int, DiagnosisLadder] = {}
    for cat in sorted(c.id for c in gt.categories):
        p = _match(units[cat], (_LOC_IOU,), _ALL_SIZES, iou_mode)
        n_gt = int(p.n_gt[0])
        if n_gt == 0:
            continue
        match, base_ig = p.match[0, 0], p.ignore[0, 0]
        matched = match >= 0
        pair_iou = np.where(matched, p.ious[np.arange(len(match)), np.maximum(match, 0)], -1.0)

        # Sim/Oth: does an unmatched detection overlap another class's ground truth?
        sim_extra = np.zeros(len(match), dtype=bool)
        oth_extra = np.zeros(len(match), dtype=bool)
        for u, unit in enumerate(units[cat]):
            rows = np.arange(p.start[u], p.start[u + 1])
            rows = rows[~matched[rows]]
            others = [g for g in gt_by_image.get(unit.image_id, []) if g.category_id != cat]
            if len(rows) == 0 or not others:
                continue
            unmatched = [p.dets[i] for i in rows]
            hit = _unit_ious(unmatched, others, iou_mode, unit.size) >= _LOC_IOU
            same = np.array([supercat.get(g.category_id) == supercat.get(cat) for g in others])
            oth_extra[rows] = hit.any(axis=1)
            sim_extra[rows] = (hit & same).any(axis=1)

        def ap_of(tp: np.ndarray, ig: np.ndarray) -> float:
            q, _ = _precision_on_grid(tp[p.rank], ig[p.rank], n_gt)
            return float(q.mean())

        tp_loc = matched & ~base_ig
        c75 = ap_of(matched & (pair_iou >= 0.75) & ~base_ig, base_ig)
        c50 = ap_of(matched & (pair_iou >= 0.50) & ~base_ig, base_ig)
        loc = ap_of(tp_loc, base_ig)
        ig_sim = base_ig | (~matched & sim_extra)
        sim = ap_of(tp_loc, ig_sim)
        ig_oth = ig_sim | (~matched & oth_extra)
        oth = ap_of(tp_loc, ig_oth)
        ig_bg = ig_oth | ~tp_loc
        bg = ap_of(tp_loc, ig_bg)
        per_class[cat] = DiagnosisLadder(
            c75=c75, c50=c50, loc=loc, sim=sim, oth=oth, bg=bg, fn=1.0
        )

    mean = _mean_record(DiagnosisLadder, list(per_class.values())) if per_class else None
    return DiagnosisResult(per_class=per_class, mean=mean)
