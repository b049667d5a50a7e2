"""Ground-plane mapping: footpoints, 3D boxes, frame sampling, persistence."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from posmap.camera import CameraModel, Distortion, Intrinsics, Pose
from posmap.coco import Annotation
from posmap.errors import ConfigError, DataError, DegenerateGeometryError
from posmap.mapping import (
    Box3D,
    GroundObservation,
    MapExtent,
    SizePriors,
    estimate_box3d,
    footpoint,
    load_observations,
    locate,
    map_frame,
    sample_frames,
    save_observations,
    top_point,
)
from posmap.taxonomy import default_taxonomy, default_treatments

TAX = default_taxonomy()
MERGING = default_treatments(TAX)["merging"]
CLASS_NAMES = {c.class_id: c.name for c in TAX.classes}
PED_ID = TAX.by_name("pedestrian").class_id
DOG_ID = TAX.by_name("dog").class_id


def _bbox_ann(x, y, w, h, ann_id=1, cat=PED_ID, score=None):
    return Annotation(id=ann_id, image_id=1, category_id=cat,
                      bbox=(x, y, w, h), area=w * h, score=score)


def _person_ann(camera: CameraModel, gx: float, gy: float, height: float = 1.75,
                jitter=(0.0, 0.0, 0.0, 0.0), ann_id=1, score=None) -> Annotation:
    """Diamond polygon whose bottom/top vertices are the exact foot/head pixels."""
    fu, fv = camera.project(np.array([gx, gy, 0.0]))
    hu, hv = camera.project(np.array([gx, gy, height]))
    fu, fv = fu + jitter[0], fv + jitter[1]
    hu, hv = hu + jitter[2], hv + jitter[3]
    mid_y = (fv + hv) / 2.0
    poly = [hu, hv, fu + 20.0, mid_y, fu, fv, fu - 20.0, mid_y]
    from posmap.geometry2d import polygons_area, polygons_bounds

    return Annotation(id=ann_id, image_id=1, category_id=PED_ID,
                      segmentation=[poly], bbox=polygons_bounds([poly]),
                      area=polygons_area([poly]), score=score)


# -- pixel anchors ---------------------------------------------------------


def test_footpoint_bbox_is_bottom_center():
    assert footpoint(_bbox_ann(100.0, 50.0, 40.0, 80.0)) == (120.0, 130.0)


def test_top_point_bbox_is_top_center():
    assert top_point(_bbox_ann(100.0, 50.0, 40.0, 80.0)) == (120.0, 50.0)


def test_polygon_band_anchors(camera):
    ann = _person_ann(camera, 2.25, 12.0)
    fu, fv = camera.project(np.array([2.25, 12.0, 0.0]))
    hu, hv = camera.project(np.array([2.25, 12.0, 1.75]))
    assert footpoint(ann) == pytest.approx((fu, fv), abs=1e-9)
    assert top_point(ann) == pytest.approx((hu, hv), abs=1e-9)


def test_polygon_band_anchors_of_a_multi_part_polygon():
    # an object split by occlusion: the bands span the vertices of both rings
    legs = [110.0, 60.0, 130.0, 60.0, 130.0, 100.0, 110.0, 100.0]
    torso = [100.0, 0.0, 140.0, 0.0, 150.0, 96.0, 100.0, 40.0]
    for rings in ([legs, torso], [torso, legs]):
        ann = Annotation(id=1, image_id=1, category_id=PED_ID, segmentation=rings,
                         bbox=(100.0, 0.0, 50.0, 100.0), area=1.0)
        # bottom band y >= 95: x 110..150 (the torso's corner at y 96 included)
        assert footpoint(ann) == (130.0, 98.0)
        # top band y <= 5: the torso's top edge
        assert top_point(ann) == (120.0, 0.0)


# -- locate -----------------------------------------------------------------


def test_locate_noiseless_is_exact(camera):
    ann = _person_ann(camera, 2.25, 12.0)
    obs = locate(camera, ann, "pedestrian", image_id=3, timestamp=1.5, source="cam0")
    assert math.hypot(obs.x - 2.25, obs.y - 12.0) < 1e-6
    assert abs(obs.box.height - 1.75) < 1e-6
    assert obs.class_name == "pedestrian"
    assert (obs.image_id, obs.timestamp, obs.source) == (3, 1.5, "cam0")
    assert obs.annotation_id == ann.id


def test_locate_height_stays_plausible_under_pixel_noise(camera, rng):
    heights = []
    for _ in range(50):
        jitter = rng.normal(scale=1.0, size=4)
        ann = _person_ann(camera, 2.25, 12.0, jitter=tuple(jitter))
        heights.append(locate(camera, ann, "pedestrian").box.height)
    assert min(heights) > 1.70
    assert max(heights) < 1.80


def test_map_frame_applies_treatment(camera):
    roller = TAX.by_name("roller").class_id
    ann = replace(_person_ann(camera, 2.25, 12.0), category_id=roller)
    (obs,) = map_frame(camera, [ann], CLASS_NAMES, MERGING).observations
    assert obs.class_name == "pedestrian"


def test_locate_carries_score(camera):
    ann = _person_ann(camera, 2.25, 12.0, score=0.87)
    assert locate(camera, ann, "pedestrian").score == 0.87


def test_box_uses_prior_footprint_verbatim(camera):
    priors = SizePriors(by_class={"pedestrian": (0.41, 0.73)})
    ann = _person_ann(camera, 2.25, 12.0)
    obs = locate(camera, ann, "pedestrian", priors=priors)
    assert (obs.box.width, obs.box.length) == (0.41, 0.73)


@pytest.mark.parametrize("by_class, default, named", [
    ({"pedestrian": (math.nan, -1.0)}, (0.5, 0.6), "class 'pedestrian'"),
    ({"cyclist": (0.5, math.inf)}, (0.5, 0.6), "class 'cyclist'"),
    ({"dog": (0.0, 0.6)}, (0.5, 0.6), "class 'dog'"),
    ({}, (0.5, -0.6), "the default"),
])
def test_size_priors_refuse_a_size_that_is_not_finite_and_positive(by_class, default, named):
    # such a box would be written to obs.csv and refused when read back
    with pytest.raises(ConfigError, match=f"size prior of {named} .* is not a finite number > 0"):
        SizePriors(by_class=by_class, default=default)


def test_box_yaw_points_away_from_camera(camera):
    obs = locate(camera, _person_ann(camera, 2.25, 12.0), "pedestrian")
    cam_x, cam_y, _ = camera.pose.camera_center
    away = math.atan2(obs.y - cam_y, obs.x - cam_x)
    assert obs.box.yaw == pytest.approx(away)


def test_estimate_box3d_clamps_height(camera):
    gxy = (2.25, 12.0)
    # head pixel far below the foot pixel implies a negative height
    foot_px = camera.project(np.array([2.25, 12.0, 0.0]))
    box = estimate_box3d(camera, gxy, (foot_px[0], foot_px[1] + 200.0), (0.5, 0.6))
    assert box.height == 0.3


def test_vertical_head_ray_is_degenerate():
    rot = np.diag([1.0, -1.0, -1.0])  # straight-down camera at 5 m
    center = np.array([0.0, 0.0, 5.0])
    pose = Pose.from_matrix(rot, -rot @ center)
    cam = CameraModel(
        intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=320.0, cy=240.0),
        distortion=Distortion(),
        pose=pose,
        image_size=(640, 480),
    )
    with pytest.raises(DegenerateGeometryError, match="vertical"):
        estimate_box3d(cam, (0.5, 0.5), (320.0, 240.0), (0.5, 0.6))


# -- extent -------------------------------------------------------------------


def test_extent_boundaries_are_closed():
    ext = MapExtent(origin=(10.0, 5.0), rotation=0.0, width=4.0, length=20.0)
    assert ext.contains(10.0, 5.0)
    assert ext.contains(14.0, 25.0)
    assert ext.contains(12.0, 5.0)
    assert not ext.contains(14.000001, 25.0)
    assert not ext.contains(9.999999, 5.0)


def test_extent_rotation():
    ext = MapExtent(origin=(0.0, 0.0), rotation=math.pi / 2.0, width=4.0, length=20.0)
    # local +x becomes world +y: local (2, 10) sits at world (-10, 2)
    assert ext.contains(-10.0, 2.0)
    assert not ext.contains(10.0, 2.0)
    assert not ext.contains(4.0, 0.1)
    lx, ly = ext.to_local(-10.0, 2.0)
    assert (lx, ly) == pytest.approx((2.0, 10.0), abs=1e-12)
    assert ext.to_world(2.0, 10.0) == pytest.approx((-10.0, 2.0), abs=1e-12)


def test_extent_to_world_inverts_to_local(roadside_extent):
    assert roadside_extent.to_world(0.0, 0.0) == roadside_extent.origin
    lx, ly = np.array([0.0, 4.5, 1.2, -3.0]), np.array([0.0, 32.0, -7.5, 40.0])
    wx, wy = roadside_extent.to_world(lx, ly)
    back = roadside_extent.to_local(wx, wy)
    assert np.allclose(back, (lx, ly), rtol=0.0, atol=1e-12)


# -- frame / dataset mapping ---------------------------------------------------


def test_map_frame_keeps_people_only(camera, extent):
    people = _person_ann(camera, 2.25, 12.0, ann_id=1)
    dog = _bbox_ann(900.0, 700.0, 60.0, 40.0, ann_id=2, cat=DOG_ID)
    result = map_frame(camera, [people, dog], CLASS_NAMES, MERGING, extent=extent)
    assert [o.annotation_id for o in result.observations] == [1]
    assert result.failures == ()


def test_map_frame_separates_out_of_extent(camera, extent):
    inside = _person_ann(camera, 2.25, 12.0, ann_id=1)
    outside = _person_ann(camera, 2.25, 40.0, ann_id=2)  # beyond 32 m extent
    result = map_frame(camera, [inside, outside], CLASS_NAMES, MERGING, extent=extent)
    assert [o.annotation_id for o in result.observations] == [1]
    assert [o.annotation_id for o in result.out_of_extent] == [2]


def test_map_frame_records_geometry_failures(camera, extent):
    sky = _bbox_ann(960.0, -2000.0, 40.0, 80.0, ann_id=5)
    good = _person_ann(camera, 2.25, 12.0, ann_id=6)
    result = map_frame(camera, [sky, good], CLASS_NAMES, MERGING, extent=extent)
    assert [o.annotation_id for o in result.observations] == [6]
    assert len(result.failures) == 1
    assert result.failures[0][0] == 5


def test_map_frame_records_pixels_the_lens_cannot_undistort(camera, extent):
    # a wide-angle barrel lens whose distorted radius never exceeds 0.709:
    # at fx = 1000 the image corners lie past it
    wide = CameraModel(
        intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0),
        distortion=Distortion(k1=-0.45, k2=0.25, k3=-0.1),
        pose=camera.pose,
        image_size=(1920, 1080),
    )
    corners = [
        _bbox_ann(0.0, 980.0, 40.0, 100.0, ann_id=1),  # footpoint at the bottom-left
        _bbox_ann(1880.0, 980.0, 40.0, 100.0, ann_id=2),  # bottom-right
        _bbox_ann(0.0, 0.0, 40.0, 600.0, ann_id=3),  # head at the top-left
    ]
    inside = [_person_ann(wide, 2.25, 12.0, ann_id=4), _person_ann(wide, 1.0, 20.0, ann_id=5)]
    result = map_frame(wide, corners + inside, CLASS_NAMES, MERGING)
    assert [ann_id for ann_id, _ in result.failures] == [1, 2, 3]
    assert all("cannot be undistorted" in reason for _, reason in result.failures)
    assert [o.annotation_id for o in result.observations] == [4, 5]
    for obs, (gx, gy) in zip(result.observations, [(2.25, 12.0), (1.0, 20.0)]):
        assert math.hypot(obs.x - gx, obs.y - gy) < 1e-6


def test_map_frame_unknown_category(camera):
    bad = _bbox_ann(100.0, 100.0, 10.0, 20.0, cat=999)
    with pytest.raises(DataError, match="unknown category"):
        map_frame(camera, [bad], CLASS_NAMES, MERGING)


# -- frame sampling -------------------------------------------------------------


def test_sample_frames_first_frame_wins_per_window():
    assert sample_frames([3.1, 3.9], 1.0) == [0]
    assert sample_frames([0.0, 0.4, 0.5, 0.99, 1.0], 2.0) == [0, 2, 4]


def test_sample_frames_empty_frame_claims_window(camera):
    frames = [[], [_person_ann(camera, 2.25, 12.0)]]  # at 5.0 s and 5.5 s
    kept = sample_frames([5.0, 5.5], 1.0)
    assert kept == [0]
    assert [map_frame(camera, frames[i], CLASS_NAMES, MERGING).observations
            for i in kept] == [()]


def test_sample_frames_decimates_to_sample_rate():
    # 97.3 seconds of 10 fps video decimated at 1 Hz
    duration = 97.3
    kept = sample_frames([i / 10.0 for i in range(int(duration * 10))], 1.0)
    assert len(kept) == math.ceil(duration)
    assert kept == list(range(0, int(duration * 10), 10))


def test_sample_frames_returns_window_order():
    # image-id order need not be time order: windows 2, 0, 1, 0
    assert sample_frames([2.5, 0.2, 1.7, 0.9], 1.0) == [1, 2, 0]


def test_sample_frames_refuses_bad_rates():
    for rate in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match=r"sample rate .* is not a finite number > 0"):
            sample_frames([0.0, 1.0], rate)


# -- persistence ----------------------------------------------------------------


def test_observation_csv_round_trip(camera, tmp_path):
    anns = [
        _person_ann(camera, 2.25, 12.0, ann_id=1, score=0.9),
        _person_ann(camera, 1.0, 20.0, ann_id=2),
    ]
    obs = [
        locate(camera, anns[0], "pedestrian", image_id=1, timestamp=0.5, source="c0"),
        locate(camera, anns[1], "cyclist", image_id=2),
    ]
    path = tmp_path / "obs.csv"
    assert save_observations(path, obs) == 2
    loaded = load_observations(path)
    assert loaded == obs


def test_observation_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    assert save_observations(path, []) == 0
    assert load_observations(path) == []


def test_observation_csv_errors(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("source,image_id\n")
    with pytest.raises(DataError, match="columns"):
        load_observations(missing)

    bad = tmp_path / "bad.csv"
    bad.write_text(
        "source,image_id,annotation_id,timestamp,class_name,x,y,yaw,width,length,height,score\n"
        "c0,1,1,0.0,pedestrian,1.0,2.0,0.0,0.5,0.6,oops,\n"
    )
    with pytest.raises(DataError, match=":2"):
        load_observations(bad)


_OBS_HEADER = (
    "source,image_id,annotation_id,timestamp,class_name,x,y,yaw,width,length,height,score\n"
)
_OBS_ROW = "c0,1,1,0.0,pedestrian,1.0,2.0,0.0,0.5,0.6,1.7,\n"


@pytest.mark.parametrize(
    "bad_row",
    [
        "c0,1,1,0.0,pedestrian,1.0,2.0,0.0,0.5,0.6,1.7\n",  # score column missing
        "c0,1,1,0.0,pedestrian,1.0,2.0\n",  # cut off mid-row
        "c0,1,1,0.0,pedestrian,1.0,2.0,0.0,0.5,0.6,1.",  # file ends mid-row
        "c0\n",
    ],
    ids=["no-score", "short", "truncated-field", "one-field"],
)
def test_observation_csv_short_row_names_its_line(tmp_path, bad_row):
    path = tmp_path / "obs.csv"
    # line 3 is blank: the error names the row's line in the file
    path.write_text(_OBS_HEADER + _OBS_ROW + "\n" + _OBS_ROW + bad_row)
    with pytest.raises(DataError, match=r"obs\.csv:5: bad observation row"):
        load_observations(path)


def test_observation_csv_field_longer_than_the_csv_reader_takes_is_malformed(tmp_path):
    # the reader raises csv.Error past 131072 characters, which left as a traceback
    path = tmp_path / "obs.csv"
    path.write_text(_OBS_HEADER + _OBS_ROW.replace("pedestrian", "p" * 200_000))
    with pytest.raises(DataError, match=f"observation file {path} is malformed: field larger"):
        load_observations(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "column", ["timestamp", "x", "y", "yaw", "width", "length", "height", "score"]
)
def test_observation_csv_refuses_non_finite_numbers(tmp_path, column, value):
    header = _OBS_HEADER.strip().split(",")
    row = _OBS_ROW.strip().split(",")
    row[header.index(column)] = value
    path = tmp_path / "obs.csv"
    path.write_text(_OBS_HEADER + _OBS_ROW + ",".join(row) + "\n")
    named = f"obs.csv:3: bad observation row: {column} '{value}' is not a finite number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_observations(path)


@pytest.mark.parametrize("value", ["7.5", pytest.param(str(10**400), id="10**400")])
@pytest.mark.parametrize("column", ["image_id", "annotation_id"])
def test_observation_csv_refuses_an_id_that_is_not_a_whole_number_in_int64(
        tmp_path, column, value):
    header = _OBS_HEADER.strip().split(",")
    row = _OBS_ROW.strip().split(",")
    row[header.index(column)] = value
    path = tmp_path / "obs.csv"
    path.write_text(_OBS_HEADER + ",".join(row) + "\n")
    named = f"obs.csv:2: bad observation row: {column} '{value}' is not a whole number"
    with pytest.raises(DataError, match=re.escape(named)):
        load_observations(path)


def test_observation_csv_columns_in_any_order(camera, tmp_path):
    obs = [locate(camera, _person_ann(camera, 2.25, 12.0, score=0.5), "pedestrian",
                  image_id=4, timestamp=2.0, source="c1")]
    path = tmp_path / "obs.csv"
    save_observations(path, obs)
    header, row = (line.split(",") for line in path.read_text().splitlines())
    path.write_text(",".join(reversed(header)) + "\n" + ",".join(reversed(row)) + "\n")
    assert load_observations(path) == obs
