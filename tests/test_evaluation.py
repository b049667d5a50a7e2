"""Detector scoring: IoU, matching, interpolated AP, the error ladder, stats."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_eval import reference_evaluate
from _reference_raster import mask_ious as reference_mask_ious
from posmap.coco import Annotation, Category, Dataset, ImageRecord
from posmap.errors import ConfigError, DataError
from posmap.evaluation import (
    ClassMetrics,
    _unit_ious,
    dataset_stats,
    diagnose_errors,
    evaluate_detections,
    iou_bbox,
    iou_mask,
    localization_pairs,
    match_detections,
    mean_ap,
    pr_curve,
)
from posmap.mapping import Box3D, GroundObservation
from posmap.simulate import SimConfig, default_camera, simulate
from posmap.taxonomy import default_taxonomy

PED, CYC, DOG = 1, 2, 3
CATS = [
    Category(id=PED, name="pedestrian", supercategory="people"),
    Category(id=CYC, name="cyclist", supercategory="people"),
    Category(id=DOG, name="dog", supercategory="animal"),
]


# each annotation's polygon is its box, so on integer boxes mask IoU is box IoU
def _gt(ann_id, image_id, cat, bbox, crowd=0):
    return Annotation(id=ann_id, image_id=image_id, category_id=cat,
                      bbox=tuple(float(v) for v in bbox), segmentation=[_rect(*bbox)],
                      area=float(bbox[2] * bbox[3]), iscrowd=crowd)


def _det(ann_id, image_id, cat, bbox, score):
    return Annotation(id=ann_id, image_id=image_id, category_id=cat,
                      bbox=tuple(float(v) for v in bbox), segmentation=[_rect(*bbox)],
                      area=float(bbox[2] * bbox[3]), score=score)


def _dataset(gts, n_images=1, size=(100, 100)):
    images = [ImageRecord(id=i, file_name=f"{i}.jpg", width=size[0], height=size[1])
              for i in range(1, n_images + 1)]
    return Dataset(images=images, annotations=list(gts), categories=list(CATS))


# -- IoU ---------------------------------------------------------------------


def test_iou_bbox_exact_values():
    assert iou_bbox((0, 0, 2, 2), (1, 1, 2, 2)) == 1.0 / 7.0
    assert iou_bbox((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert iou_bbox((0, 0, 5, 5), (10, 10, 5, 5)) == 0.0
    # touching edges share no area
    assert iou_bbox((0, 0, 5, 5), (5, 0, 5, 5)) == 0.0


def test_iou_bbox_symmetry():
    a, b = (1.5, 2.0, 7.0, 3.0), (4.0, 1.0, 5.0, 6.0)
    assert iou_bbox(a, b) == iou_bbox(b, a)


def test_iou_bbox_rejects_degenerate():
    with pytest.raises(DataError, match="degenerate"):
        iou_bbox((0, 0, 0, 5), (0, 0, 5, 5))
    with pytest.raises(DataError, match="degenerate"):
        iou_bbox((0, 0, 5, 5), (0, 0, 5, -1))


def _rect(x, y, w, h):
    return [float(x), float(y), float(x + w), float(y),
            float(x + w), float(y + h), float(x), float(y + h)]


def test_iou_mask_integer_rectangles_are_exact():
    # integer-aligned rectangles rasterize to exactly w*h pixels
    a = [_rect(2, 3, 20, 10)]
    b = [_rect(12, 3, 20, 10)]
    # areas 200 each, intersection 10 x 10 = 100, union 300
    assert iou_mask(a, b, (64, 48)) == 100.0 / 300.0
    assert iou_mask(a, a, (64, 48)) == 1.0
    assert iou_mask(a, [_rect(40, 30, 5, 5)], (64, 48)) == 0.0


def test_iou_mask_multi_part():
    parts = [_rect(0, 0, 4, 4), _rect(10, 0, 4, 4)]  # total 32 px
    whole = [_rect(0, 0, 14, 4)]  # 56 px, contains both parts
    assert iou_mask(parts, whole, (32, 16)) == 32.0 / 56.0


@pytest.mark.parametrize(
    "other,expected",
    [
        (_rect(30, 20, 5, 5), 0.0),  # crops far apart
        (_rect(22, 3, 10, 10), 0.0),  # crops touch along the column x = 22
        (_rect(21, 12, 10, 10), 1.0 / 299.0),  # one shared pixel, (21, 12)
        (_rect(70, 3, 5, 5), 0.0),  # wholly outside the image: an empty crop
    ],
    ids=["disjoint", "touching", "one-pixel", "outside"],
)
def test_iou_mask_on_crops(other, expected):
    a = [_rect(2, 3, 20, 10)]  # 200 px
    assert iou_mask(a, [other], (64, 48)) == expected
    assert iou_mask([other], a, (64, 48)) == expected


def test_iou_mask_of_two_sets_outside_the_image_is_zero():
    outside = [_rect(-20, -20, 5, 5)]
    assert iou_mask(outside, outside, (64, 48)) == 0.0


def test_iou_mask_parts_far_apart():
    parts = [_rect(0, 0, 4, 4), _rect(90, 60, 4, 4)]  # 32 px, opposite corners
    near = [_rect(88, 58, 8, 8)]  # 64 px, holds the second part
    assert iou_mask(parts, near, (100, 70)) == 16.0 / (32.0 + 64.0 - 16.0)


@pytest.mark.parametrize("size", [(0, 48), (64, 0), (-64, 48)])
def test_iou_mask_needs_a_positive_image_size(size):
    with pytest.raises(DataError, match="image_size"):
        iou_mask([_rect(0, 0, 4, 4)], [_rect(0, 0, 4, 4)], size)


def test_segm_crowd_ground_truth_divides_by_the_detection_area():
    crowd = _gt(1, 1, PED, (10, 10, 60, 40), crowd=1)
    inside = _det(1, 1, PED, (20, 20, 10, 10), 0.9)
    half_out = _det(2, 1, PED, (65, 20, 10, 10), 0.8)  # 50 of its 100 px inside
    outside = _det(3, 1, PED, (120, 20, 10, 10), 0.7)  # beyond the 100 x 100 image
    ious = _unit_ious([inside, half_out, outside], [crowd], "segm", (100, 100))
    assert ious.tolist() == [[1.0], [0.5], [0.0]]


def test_unit_ious_equal_full_frame_ious_on_a_simulated_scene():
    """Each image's detections against all its ground truth, half of them crowd."""
    gt, dets = _sim_fixture(12, "segm")
    width, height = 640, 480
    gts = [dataclasses.replace(g, iscrowd=g.id % 2) for g in gt.annotations]
    pairs = 0
    for image in gt.images:
        d = [a for a in dets if a.image_id == image.id]
        g = [a for a in gts if a.image_id == image.id]
        if not (d and g):
            continue
        crowd = np.array([bool(a.iscrowd) for a in g])
        ref = reference_mask_ious([a.segmentation for a in d], [a.segmentation for a in g],
                                  crowd, width, height)
        ours = _unit_ious(d, g, "segm", (image.width, image.height))
        assert (image.width, image.height) == (width, height)
        assert ours.tobytes() == ref.tobytes()
        pairs += np.count_nonzero(ref > 0)
    assert pairs > 20


@st.composite
def _parts(draw, width, height):
    """One to four parts of a polygon set, as they fall in a small image."""
    half = st.integers(-6, 2 * max(width, height) + 6).map(lambda v: v / 2)
    parts, n_parts = [], draw(st.integers(1, 3))
    while len(parts) < n_parts:
        kind = draw(st.sampled_from(["rows", "row-ends", "rect", "polygon", "outside"]))
        row = draw(st.integers(-1, height))
        if kind == "rows":  # whole rows, from the image border or past it
            x0, x1 = draw(st.sampled_from([-1, 0])), draw(st.sampled_from([width, width + 1]))
            parts.append(_rect(x0, row, x1 - x0, draw(st.integers(1, height + 1))))
        elif kind == "row-ends":  # the end of one row and the start of the next
            cut = draw(st.integers(0, width))
            parts += [_rect(cut, row, width - cut, 1),
                      _rect(0, row + 1, draw(st.integers(1, width)), 1)]
        elif kind == "rect":
            x0 = draw(st.integers(-1, width))
            parts.append(_rect(x0, row, draw(st.integers(1, width + 1 - x0)),
                               draw(st.integers(1, height + 1 - row))))
        elif kind == "polygon":
            parts.append([draw(half) for _ in range(2 * draw(st.integers(3, 6)))])
        else:  # wholly right of or below the image
            parts.append(_rect(width + draw(st.integers(0, 2)), row, 2, 2)
                         if draw(st.booleans()) else _rect(0, height + 1, width, 2))
    return parts


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_segm_ious_equal_the_full_frame_masks_on_small_images(data):
    """Pixel runs give the IoU of full-frame masks, bit for bit, on 1-12 px images."""
    width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    dets = data.draw(st.lists(_parts(width, height), min_size=1, max_size=4))
    gts = data.draw(st.lists(_parts(width, height), min_size=1, max_size=4))
    crowd = np.array(data.draw(st.lists(st.booleans(), min_size=len(gts), max_size=len(gts))))
    ref = reference_mask_ious(dets, gts, crowd, width, height)
    ours = _unit_ious(
        [Annotation(id=k, image_id=1, category_id=PED, segmentation=p) for k, p in enumerate(dets)],
        [Annotation(id=k, image_id=1, category_id=PED, segmentation=p, iscrowd=int(c))
         for k, (p, c) in enumerate(zip(gts, crowd))],
        "segm", (width, height),
    )
    assert ours.tobytes() == ref.tobytes()
    no_crowd = np.zeros(1, dtype=bool)
    assert iou_mask(dets[0], gts[0], (width, height)) == float(
        reference_mask_ious(dets[:1], gts[:1], no_crowd, width, height)[0, 0])


# -- matching -----------------------------------------------------------------


def test_match_higher_score_claims_gt():
    gts = [_gt(10, 1, PED, (0, 0, 10, 10))]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.9),
            _det(2, 1, PED, (1, 0, 10, 10), 0.8)]
    m = match_detections(gts, dets, 0.5, iou_mode="bbox")
    assert m.det_ids == (1, 2)
    assert m.matched_gt == (10, None)
    assert m.true_positive == (True, False)
    assert m.unmatched_gt == ()


def test_match_tie_takes_lowest_gt_id():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10)), _gt(2, 1, PED, (10, 0, 10, 10))]
    det = _det(1, 1, PED, (5, 0, 10, 10), 0.9)  # IoU 1/3 with both
    m = match_detections(gts, [det], 0.3, iou_mode="bbox")
    assert m.matched_gt == (1,)
    assert m.unmatched_gt == (2,)


def test_match_crowd_absorbs_many():
    gts = [_gt(1, 1, PED, (0, 0, 50, 50), crowd=1)]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.9),
            _det(2, 1, PED, (20, 20, 10, 10), 0.8)]
    m = match_detections(gts, dets, 0.5, iou_mode="bbox")
    # crowd IoU is intersection over detection area: both fully inside
    assert m.ignored == (True, True)
    assert m.true_positive == (False, False)
    assert m.unmatched_gt == ()


def test_match_prefers_real_gt_over_crowd():
    gts = [_gt(1, 1, PED, (0, 0, 40, 40), crowd=1),
           _gt(2, 1, PED, (0, 0, 10, 16), crowd=0)]
    det = _det(1, 1, PED, (0, 0, 10, 10), 0.9)
    # IoU 1.0 with the crowd (det inside it) but 0.625 with the real box
    m = match_detections(gts, [det], 0.5, iou_mode="bbox")
    assert m.matched_gt == (2,)
    assert m.true_positive == (True,)


def test_match_requires_scores():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10))]
    with pytest.raises(DataError, match="score"):
        match_detections(gts, [_gt(2, 1, PED, (0, 0, 10, 10))], 0.5, iou_mode="bbox")


@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -0.5, 1.0000001, 2.0, float("inf")])
def test_match_refuses_a_threshold_outside_the_unit_interval(threshold):
    # NaN matched nothing and 2.0 acted as 1.0, both without a word
    gts = [_gt(1, 1, PED, (0, 0, 10, 10))]
    dets = [_det(i, 1, PED, (0, 0, 10, 10), 0.9) for i in (1, 2, 3)]
    with pytest.raises(ConfigError, match=r"IoU threshold must be within \(0, 1\]"):
        match_detections(gts, dets, threshold, iou_mode="bbox")
    assert match_detections(gts, dets, 1.0, iou_mode="bbox").matched_gt == (1, None, None)


def test_segm_match_needs_a_positive_image_size():
    square = [[0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0]]
    gt = Annotation(id=1, image_id=1, category_id=PED, segmentation=square,
                    bbox=(0.0, 0.0, 10.0, 10.0), area=100.0)
    det = dataclasses.replace(gt, id=2, score=0.9)
    with pytest.raises(DataError, match="image_size"):
        match_detections([gt], [det], 0.5)
    m = match_detections([gt], [det], 0.5, image_size=(20, 20))
    assert m.matched_gt == (1,)
    assert m.true_positive == (True,)


# -- localization pairs -------------------------------------------------------


def _ground(ann_id, x):
    return GroundObservation(class_name="pedestrian", x=x, y=0.0, box=Box3D(0.0, 0.5, 0.6, 1.7),
                             annotation_id=ann_id, image_id=1)


def _localization_fixture():
    gts = [_gt(1, 1, PED, (10, 10, 20, 20)), _gt(2, 1, PED, (50, 10, 20, 20)),
           _gt(3, 1, PED, (0, 60, 20, 20)),  # touches the image's left border
           _gt(4, 1, CYC, (50, 60, 20, 20)),
           _gt(5, 1, PED, (70, 35, 25, 20), crowd=1)]
    dets = [_det(7, 1, PED, (51, 10, 20, 20), 0.9),  # gt 2
            _det(8, 1, PED, (10, 10, 20, 20), 0.8),  # gt 1
            _det(9, 1, PED, (0, 60, 20, 20), 0.7),  # gt 3, at the border
            _det(10, 1, PED, (80, 80, 10, 10), 0.6),  # nothing
            _det(11, 1, PED, (50, 60, 20, 20), 0.5),  # the cyclist's place: nothing
            _det(12, 1, PED, (75, 38, 10, 10), 0.4)]  # inside the crowd region
    truth = [_ground(g.id, 100.0 + g.id) for g in gts]
    return _dataset(gts), dets, truth


@pytest.mark.parametrize("iou_mode", ["segm", "bbox"])
def test_localization_pairs_follow_matching_not_position(iou_mode):
    ds, dets, truth = _localization_fixture()
    observations = [_ground(d.id, float(d.id)) for d in reversed(dets)]
    pairs = localization_pairs(ds, dets, observations, truth, iou_mode=iou_mode)
    assert [(o.annotation_id, t.annotation_id) for o, t in pairs] == [(8, 1), (7, 2)]
    assert all(t.x == 100.0 + t.annotation_id for _, t in pairs)


def test_localization_pairs_refuse_unjoinable_records():
    ds, dets, truth = _localization_fixture()
    with pytest.raises(DataError, match="annotation 99 in image 1 has no detection"):
        localization_pairs(ds, dets, [_ground(99, 0.0)], truth)
    with pytest.raises(DataError, match="ground truth 1 in image 1 has no truth"):
        localization_pairs(ds, dets, [_ground(8, 0.0)], truth[1:])
    with pytest.raises(DataError, match="unknown image 42"):
        localization_pairs(ds, [_det(8, 42, PED, (10, 10, 20, 20), 0.8)], [], truth)


# -- interpolated AP ------------------------------------------------------------


def _hand_fixture():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10)),
           _gt(2, 1, PED, (30, 0, 10, 10)),
           _gt(3, 1, PED, (60, 0, 10, 10))]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.9),    # TP
            _det(2, 1, PED, (0, 40, 10, 10), 0.8),   # FP
            _det(3, 1, PED, (30, 0, 10, 10), 0.7),   # TP
            _det(4, 1, PED, (40, 40, 10, 10), 0.6),  # FP
            _det(5, 1, PED, (60, 0, 10, 10), 0.5)]   # TP
    return _dataset(gts), dets


HAND_AP = 76.4 / 101.0  # envelope (1, 2/3, 3/5) over 34 + 33 + 34 grid points


def test_hand_computed_ap():
    ds, dets = _hand_fixture()
    result = evaluate_detections(ds, dets, iou_mode="bbox")
    m = result.per_class[PED]
    assert m.ap == pytest.approx(HAND_AP, abs=1e-12)
    # true positives overlap perfectly, so every threshold sees the same ranking
    assert m.ap50 == pytest.approx(HAND_AP, abs=1e-12)
    assert m.ap75 == pytest.approx(HAND_AP, abs=1e-12)
    assert m.ap_small == pytest.approx(HAND_AP, abs=1e-12)  # 100 px boxes
    assert m.ap_medium is None
    assert m.ap_large is None
    assert m.ar100 == 1.0
    assert m.n_gt == 3


def test_zero_gt_class_is_undefined_and_excluded():
    ds, dets = _hand_fixture()
    dets = dets + [_det(9, 1, CYC, (80, 80, 10, 10), 0.99)]  # no cyclist gt
    result = evaluate_detections(ds, dets, iou_mode="bbox")
    assert result.per_class[CYC].ap is None
    assert result.per_class[CYC].n_gt == 0
    assert result.mean.ap == result.per_class[PED].ap  # mean skips undefined


def test_empty_detections_score_zero():
    ds, _ = _hand_fixture()
    result = evaluate_detections(ds, [], iou_mode="bbox")
    assert result.per_class[PED].ap == 0.0
    assert result.per_class[PED].ar100 == 0.0
    assert result.mean.ap == 0.0


def test_score_monotone_transform_invariance():
    ds, dets = _hand_fixture()
    before = evaluate_detections(ds, dets, iou_mode="bbox").per_class[PED]
    import dataclasses
    squeezed = [dataclasses.replace(d, score=0.5 + d.score / 3.0) for d in dets]
    after = evaluate_detections(ds, squeezed, iou_mode="bbox").per_class[PED]
    assert before == after


def test_duplicate_detection_is_penalized():
    ds, dets = _hand_fixture()
    import dataclasses
    dup = dataclasses.replace(dets[0], id=99, score=0.85)
    worse = evaluate_detections(ds, dets + [dup], iou_mode="bbox").per_class[PED]
    assert worse.ap < HAND_AP


def test_max_dets_cuts_low_scores():
    # 120 detections in one image; only the one ranked `rank` hits the ground truth
    ds = _dataset([_gt(1, 1, PED, (0, 0, 10, 10))])

    def ap_with_hit_at(rank):
        dets = [_det(k, 1, PED, (0, 0, 10, 10) if k == rank else (50, 50, 5, 5), 1 - k / 1000)
                for k in range(1, 121)]
        return evaluate_detections(ds, dets, iou_mode="bbox").per_class[PED].ap

    assert ap_with_hit_at(100) == pytest.approx(0.01)  # recall 1 at precision 1/100
    assert ap_with_hit_at(101) == 0.0
    assert ap_with_hit_at(120) == 0.0


@pytest.mark.parametrize("entry_point", [
    lambda gt, dets, **kw: match_detections(list(gt.annotations), dets, 0.5, **kw),
    evaluate_detections,
    lambda gt, dets, **kw: pr_curve(gt, dets, PED, **kw),
    diagnose_errors,
    lambda gt, dets, **kw: localization_pairs(gt, dets, [], [], **kw),
], ids=["match_detections", "evaluate_detections", "pr_curve", "diagnose_errors",
        "localization_pairs"])
def test_entry_points_refuse_an_unknown_iou_mode(entry_point):
    ds, dets = _hand_fixture()
    with pytest.raises(ConfigError, match="iou_mode must be 'segm' or 'bbox', got 'mask'"):
        entry_point(ds, dets, iou_mode="mask")


def test_detection_referencing_unknowns_rejected():
    ds, dets = _hand_fixture()
    with pytest.raises(DataError, match="unknown image"):
        evaluate_detections(ds, [_det(1, 42, PED, (0, 0, 5, 5), 0.5)], iou_mode="bbox")
    with pytest.raises(DataError, match="unknown category"):
        evaluate_detections(ds, [_det(1, 1, 42, (0, 0, 5, 5), 0.5)], iou_mode="bbox")


# -- PR curves --------------------------------------------------------------------


def test_pr_curve_hand_fixture():
    ds, dets = _hand_fixture()
    pr = pr_curve(ds, dets, PED, iou_mode="bbox")
    assert pr.n_gt == 3
    assert pr.ap == pytest.approx(HAND_AP, abs=1e-12)
    assert len(pr.recall) == len(pr.precision) == 101
    assert pr.precision[0] == 1.0
    assert pr.precision[100] == 0.6
    # interpolated precision never increases along recall
    assert all(a >= b for a, b in zip(pr.precision, pr.precision[1:]))


def test_pr_curve_recall_grid_is_exact_hundredths():
    ds, dets = _hand_fixture()
    pr = pr_curve(ds, dets, PED, iou_mode="bbox")
    for k in range(101):
        assert pr.recall[k] == k / 100.0


def test_pr_curve_zero_gt():
    ds, _ = _hand_fixture()
    pr = pr_curve(ds, [], CYC, iou_mode="bbox")
    assert pr.ap is None
    assert pr.n_gt == 0


def test_pr_curve_unknown_class():
    ds, dets = _hand_fixture()
    with pytest.raises(DataError, match="unknown"):
        pr_curve(ds, dets, 42, iou_mode="bbox")


# -- mean AP -------------------------------------------------------------------


def _cm(ap):
    return ClassMetrics(ap=ap, ap50=ap, ap75=ap, ap_small=None, ap_medium=None,
                        ap_large=None, ar100=ap, n_gt=0 if ap is None else 5)


def test_mean_ap_unweighted_and_skips_undefined():
    per_class = {1: _cm(0.5), 2: _cm(None), 3: _cm(0.7)}
    assert mean_ap(per_class) == pytest.approx(0.6)
    assert mean_ap(per_class, [1, 3]) == pytest.approx(0.6)
    assert mean_ap(per_class, [2]) is None


def test_mean_ap_errors():
    per_class = {1: _cm(0.5)}
    with pytest.raises(DataError, match="at least one"):
        mean_ap(per_class, [])
    with pytest.raises(DataError, match="not in"):
        mean_ap(per_class, [1, 9])


# -- agreement with an independent implementation --------------------------------


def _sim_fixture(seed, iou_mode):
    from posmap.mapping import MapExtent

    extent = MapExtent(origin=(5.0, -2.0), rotation=0.2, width=4.5, length=30.0)
    size = (1920, 1080) if iou_mode == "bbox" else (640, 480)
    camera = default_camera(extent, image_size=size)
    config = SimConfig(extent=extent, camera=camera, n_agents=7,
                       cyclist_fraction=0.3, seed=seed, noise_px=2.5,
                       miss_rate=0.25, confusion_rate=0.15)
    result = simulate(config, 10)
    return result.dataset, result.detections


def _assert_matches_reference(gt, dets, iou_mode):
    ours = evaluate_detections(gt, dets, iou_mode=iou_mode)
    ref = reference_evaluate(gt, dets, iou_mode=iou_mode)

    fields = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large", "ar100")
    for cat in (c.id for c in gt.categories):
        ref_row = ref[cat]
        ours_row = ours.per_class[cat]
        assert ours_row.n_gt == ref_row["n_gt"]
        for f in fields:
            a, b = getattr(ours_row, f), ref_row[f]
            assert (a is None) == (b is None), f"{cat}/{f}: {a} vs {b}"
            if a is not None:
                assert abs(a - b) <= 1e-6, f"{cat}/{f}: {a} vs {b}"
    for f in fields:
        a = getattr(ours.mean, f)
        b = ref["means"][f]
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a - b) <= 1e-6, f"mean {f}: {a} vs {b}"


@pytest.mark.parametrize("iou_mode,seed", [("bbox", 11), ("segm", 12)])
def test_matches_reference_evaluator(iou_mode, seed):
    gt, dets = _sim_fixture(seed, iou_mode)
    _assert_matches_reference(gt, dets, iou_mode)


# 32 x 32 and 96 x 96 boxes (and 16 x 64) sit exactly on the stratum edges
_SIDES = (8, 16, 31, 32, 33, 64, 95, 96, 97)
_BOX = st.tuples(st.integers(0, 100), st.integers(0, 60),
                 st.sampled_from(_SIDES), st.sampled_from(_SIDES))


def _poly_ann(ann_id, image_id, cat, box, crowd=0, score=None):
    ann = _gt(ann_id, image_id, cat, box, crowd)
    return dataclasses.replace(ann, segmentation=[_rect(*box)], score=score)


def _draw_scene(draw):
    """Two images of crowd regions, repeated and nested boxes and exact IoU
    ties; dogs are detected but never annotated, and one image may hold more
    than 100 pedestrian detections."""
    gts, dets = [], []
    scores = st.sampled_from([0.25, 0.5, 0.75])

    def gt(image_id, cat, box, crowd=0):
        gts.append(_poly_ann(len(gts) + 1, image_id, cat, box, crowd))

    def det(image_id, cat, box, score):
        dets.append(_poly_ann(1000 + len(dets), image_id, cat, box, score=score))

    for image_id in (1, 2):
        x, y = draw(st.integers(0, 80)), draw(st.integers(0, 60))
        if draw(st.booleans()):
            # a detection halfway between two overlapping ground truths has
            # the same IoU (7/9) with both; which one it takes decides whether
            # a second detection, on the right one, finds a partner above 0.6
            w = draw(st.sampled_from([32, 64]))
            gt(image_id, PED, (x, y, w, w))
            gt(image_id, PED, (x + w // 4, y, w, w))
            det(image_id, PED, (x + w // 8, y, w, w), 0.75)
            det(image_id, PED, (x + w // 4, y, w, w), 0.5)
        if draw(st.booleans()):
            # a crowd region absorbs every detection inside it
            gt(image_id, PED, (x, y, 64, 64), crowd=1)
            for k in range(draw(st.integers(2, 3))):
                det(image_id, PED, (x + 16 * k, y + 8, 16, 16), draw(scores))
        boxes = []
        for _ in range(draw(st.integers(0, 5))):
            box = draw(st.sampled_from(boxes)) if boxes and draw(st.booleans()) else draw(_BOX)
            boxes.append(box)
            gt(image_id, draw(st.sampled_from([PED, CYC])), box, draw(st.sampled_from([0, 0, 1])))
        for _ in range(draw(st.integers(0, 6))):
            box = draw(_BOX)
            if boxes and draw(st.booleans()):
                # the same box, or one side halved, doubled or cut to 3/4 at
                # the same corner: IoU exactly 1, 0.5 or 0.75
                bx, by, bw, bh = draw(st.sampled_from(boxes))
                box = (bx, by, draw(st.sampled_from([bw, bw // 2, 2 * bw, 3 * bw // 4])), bh)
            det(image_id, draw(st.sampled_from([PED, CYC, DOG])), box, draw(scores))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        for _ in range(int(rng.integers(101, 111))):
            box = (int(rng.integers(0, 100)), int(rng.integers(0, 60)),
                   int(rng.choice(_SIDES)), int(rng.choice(_SIDES)))
            det(1, PED, box, float(rng.random()))
    return _dataset(gts, n_images=2, size=(200, 160)), dets


@pytest.mark.parametrize("iou_mode", ["bbox", "segm"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_matches_reference_on_adversarial_scenes(iou_mode, data):
    gt, dets = _draw_scene(data.draw)
    _assert_matches_reference(gt, dets, iou_mode)


# -- diagnosis ladder ---------------------------------------------------------


def _ladder(gts, dets, n_images=1):
    result = diagnose_errors(_dataset(gts, n_images=n_images), dets, iou_mode="bbox")
    return result


def _rung(gts, dets):
    """The ladder of a one-image rung fixture, which segm mode must reproduce:
    its boxes are integer rectangles, so mask IoU equals box IoU."""
    result = _ladder(gts, dets)
    assert diagnose_errors(_dataset(gts), dets, iou_mode="segm") == result
    return result


def test_ladder_localization_rung():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10))]
    dets = [_det(1, 1, PED, (6, 0, 10, 10), 0.9)]  # IoU 0.25: matched loosely
    lad = _rung(gts, dets).per_class[PED]
    assert lad.c75 == 0.0
    assert lad.c50 == 0.0
    assert lad.loc == 1.0
    assert lad.sim == lad.oth == lad.bg == 1.0
    assert lad.fn == 1.0


def test_ladder_similar_class_rung():
    gts = [_gt(1, 1, CYC, (0, 0, 10, 10)), _gt(2, 1, PED, (50, 50, 10, 10))]
    dets = [_det(1, 1, CYC, (50, 50, 10, 10), 0.95),  # sits on the pedestrian
            _det(2, 1, CYC, (0, 0, 10, 10), 0.90)]    # true cyclist
    lad = _rung(gts, dets).per_class[CYC]
    assert lad.c75 == lad.c50 == lad.loc == 0.5
    assert lad.sim == 1.0   # same super-category confusion forgiven
    assert lad.oth == 1.0   # nothing further to forgive
    assert lad.bg == 1.0


def test_ladder_other_class_rung():
    gts = [_gt(1, 1, DOG, (0, 0, 10, 10)), _gt(2, 1, PED, (50, 50, 10, 10))]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.95),   # sits on the dog
            _det(2, 1, PED, (50, 50, 10, 10), 0.90)]
    lad = _rung(gts, dets).per_class[PED]
    assert lad.loc == 0.5
    assert lad.sim == 0.5   # dog is not people: not forgiven yet
    assert lad.oth == 1.0
    assert lad.bg == 1.0


def test_ladder_background_rung():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10))]
    dets = [_det(1, 1, PED, (70, 70, 10, 10), 0.95),  # empty background
            _det(2, 1, PED, (0, 0, 10, 10), 0.90)]
    lad = _rung(gts, dets).per_class[PED]
    assert lad.loc == lad.sim == lad.oth == 0.5
    assert lad.bg == 1.0


def test_ladder_false_negative_rung():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10)), _gt(2, 1, PED, (50, 50, 10, 10))]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.9)]
    lad = _rung(gts, dets).per_class[PED]
    assert lad.bg == pytest.approx(51.0 / 101.0, abs=1e-12)
    assert lad.fn == 1.0
    assert lad.fn > lad.bg


def test_ladder_monotone_on_random_fixtures():
    rng = np.random.default_rng(321)
    for trial in range(60):
        gts, dets, gid, did = [], [], 1, 1
        for image_id in (1, 2):
            for _ in range(rng.integers(0, 5)):
                cat = int(rng.choice([PED, CYC, DOG]))
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(4, 20, 2)
                gts.append(_gt(gid, image_id, cat, (x, y, w, h),
                               crowd=int(rng.random() < 0.1)))
                gid += 1
            for _ in range(rng.integers(0, 7)):
                cat = int(rng.choice([PED, CYC, DOG]))
                x, y = rng.uniform(0, 80, 2)
                w, h = rng.uniform(4, 20, 2)
                dets.append(_det(did, image_id, cat, (x, y, w, h),
                                 float(rng.random())))
                did += 1
        result = _ladder(gts, dets, n_images=2)
        for ladder in result.per_class.values():
            values = dataclasses.astuple(ladder)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), (
                trial, values)
            assert values[-1] == 1.0
        if result.mean is not None:
            mv = dataclasses.astuple(result.mean)
            assert all(b >= a - 1e-12 for a, b in zip(mv, mv[1:]))


def test_ladder_mean_is_classwise_average():
    gts = [_gt(1, 1, PED, (0, 0, 10, 10)), _gt(2, 1, CYC, (30, 30, 10, 10))]
    dets = [_det(1, 1, PED, (0, 0, 10, 10), 0.9)]
    result = _ladder(gts, dets)
    assert result.mean.loc == pytest.approx(
        (result.per_class[PED].loc + result.per_class[CYC].loc) / 2.0)


# -- memory ---------------------------------------------------------------------


def _segm_scene(n_images):
    """Per 800 x 800 image: two pedestrians and a cyclist, both pedestrians
    found, and a pedestrian false positive on the cyclist (a Sim error)."""
    gts, dets = [], []
    for image_id in range(1, n_images + 1):
        k = 10 * image_id
        gts += [_gt(k, image_id, PED, (40, 40, 160, 320)),
                _gt(k + 1, image_id, PED, (400, 40, 160, 320)),
                _gt(k + 2, image_id, CYC, (240, 400, 200, 240))]
        dets += [_det(k, image_id, PED, (48, 40, 160, 320), 0.9),
                 _det(k + 1, image_id, PED, (400, 56, 160, 320), 0.8),
                 _det(k + 2, image_id, PED, (240, 400, 200, 240), 0.7)]
    return _dataset(gts, n_images=n_images, size=(800, 800)), dets


@pytest.mark.parametrize("run", [evaluate_detections, diagnose_errors],
                         ids=["evaluate", "diagnose"])
def test_segm_memory_is_bounded_by_one_image(run):
    # masks dominate: a unit's five 50 kB crops outweigh its share of the
    # class-wide arrays, so holding a class's masks would grow the peak 4x
    peaks = []
    for n_images in (4, 16):
        gt, dets = _segm_scene(n_images)
        tracemalloc.start()
        try:
            run(gt, dets, iou_mode="segm")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _crowd_segm_scene():
    """The benchmark's crowd-segm scene at seed 7: 4 full-HD frames, 12 + 12 masks each."""
    from posmap.mapping import MapExtent

    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)
    config = SimConfig(extent=extent, camera=default_camera(extent), n_agents=12, seed=7,
                       noise_px=1.5)
    result = simulate(config, 4)
    gt, dets = result.dataset, result.detections
    assert {(im.width, im.height) for im in gt.images} == {(1920, 1080)}
    assert len(gt.annotations) == len(dets) == 48
    return gt, dets


@pytest.mark.parametrize("run", [evaluate_detections, diagnose_errors],
                         ids=["evaluate", "diagnose"])
def test_segm_peak_memory_is_below_one_full_frame_mask(run):
    gt, dets = _crowd_segm_scene()
    tracemalloc.start()
    try:
        run(gt, dets, iou_mode="segm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1920 * 1080, peak


# -- dataset statistics -----------------------------------------------------------


def test_dataset_stats_basics():
    tax = default_taxonomy()
    square = [10.0, 10.0, 50.0, 10.0, 50.0, 40.0, 10.0, 40.0]  # area 1200
    small = [0.0, 0.0, 40.0, 0.0, 40.0, 20.0, 0.0, 20.0]       # area 800
    cats = [Category(id=c.class_id, name=c.name, supercategory=c.supercategory)
            for c in tax.classes]
    ped = tax.by_name("pedestrian").class_id
    cyc = tax.by_name("cyclist").class_id
    images = [
        ImageRecord(id=1, file_name="a.jpg", width=640, height=480,
                    extra={"weather": "sunny", "evening": False}),
        ImageRecord(id=2, file_name="b.jpg", width=640, height=480,
                    extra={"weather": "rainy"}),
    ]
    anns = [
        # stored area is deliberately wrong: the polygon is authoritative
        Annotation(id=1, image_id=1, category_id=ped, segmentation=[square],
                   bbox=(10.0, 10.0, 40.0, 30.0), area=999.0),
        Annotation(id=2, image_id=2, category_id=ped, segmentation=[small],
                   bbox=(0.0, 0.0, 40.0, 20.0), area=999.0),
        Annotation(id=3, image_id=1, category_id=cyc,
                   bbox=(0.0, 0.0, 30.0, 60.0), area=1800.0),
    ]
    ds = Dataset(images=images, annotations=anns, categories=cats)
    stats = dataset_stats(ds, tax)

    rows = {r.class_name: r for r in stats.per_class}
    assert [r.class_name for r in stats.per_class] == [c.name for c in tax.classes]
    assert rows["pedestrian"].count == 2
    assert rows["pedestrian"].area_mean == pytest.approx(1000.0)
    assert rows["pedestrian"].area_std == pytest.approx(200.0)  # population std
    assert rows["pedestrian"].aspect_mean == pytest.approx((0.75 + 0.5) / 2.0)
    assert rows["cyclist"].count == 1
    assert rows["cyclist"].aspect_mean == pytest.approx(2.0)
    assert rows["cyclist"].area_mean == pytest.approx(1800.0)  # bbox-only: stored
    assert rows["dog"].count == 0
    assert rows["dog"].area_mean is None

    assert stats.total == 3
    assert stats.n_images == 2
    assert stats.condition_tallies["weather"] == {"sunny": 2, "rainy": 1}
    assert stats.condition_tallies["evening"] == {"False": 2}


def test_dataset_stats_without_taxonomy_uses_category_order():
    cats = [Category(id=7, name="zebra"), Category(id=3, name="ant")]
    ds = Dataset(
        images=[ImageRecord(id=1, file_name="a.jpg", width=10, height=10)],
        annotations=[Annotation(id=1, image_id=1, category_id=7,
                                bbox=(0.0, 0.0, 2.0, 2.0), area=4.0)],
        categories=cats,
    )
    stats = dataset_stats(ds)
    assert [r.class_name for r in stats.per_class] == ["ant", "zebra"]
