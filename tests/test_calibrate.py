"""Calibration recovery tests on synthetic correspondences."""

from __future__ import annotations

import json

import numpy as np
import pytest

from posmap.calibrate import (
    calibrate_intrinsics_planar,
    ground_mapping_error,
    load_correspondences,
    load_planar_views,
    solve_extrinsics,
)
from posmap.camera import (
    CameraModel,
    Distortion,
    Intrinsics,
    Pose,
    axis_angle_to_matrix,
)
from posmap.errors import DataError, DegenerateGeometryError

GT_INTR = Intrinsics(fx=1200.0, fy=1180.0, cx=960.0, cy=540.0)


def _pattern_grid(cols: int = 7, rows: int = 5, spacing: float = 0.12) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(cols) * spacing, np.arange(rows) * spacing)
    return np.column_stack([xs.ravel(), ys.ravel()])


def _view(intr: Intrinsics, dist: Distortion, rvec, tz: float, plane_xy: np.ndarray):
    """Pixels of the pattern under a pose that centers it at depth tz."""
    rot = axis_angle_to_matrix(np.asarray(rvec, dtype=float))
    center = np.array([plane_xy[:, 0].mean(), plane_xy[:, 1].mean(), 0.0])
    t = -rot @ center + np.array([0.0, 0.0, tz])
    world = np.column_stack([plane_xy, np.zeros(len(plane_xy))])
    cam = world @ rot.T + t
    xn, yn = cam[:, 0] / cam[:, 2], cam[:, 1] / cam[:, 2]
    xd, yd = dist.distort(xn, yn)
    pixels = np.column_stack(
        [intr.fx * xd + intr.skew * yd + intr.cx, intr.fy * yd + intr.cy]
    )
    return plane_xy, pixels


_VIEW_POSES = [
    ((0.30, 0.00, 0.05), 1.4),
    ((-0.35, 0.10, -0.03), 1.3),
    ((0.10, 0.40, 0.00), 1.5),
    ((0.05, -0.38, 0.08), 1.6),
    ((0.25, 0.25, -0.06), 1.2),
]


def _make_views(dist: Distortion):
    grid = _pattern_grid()
    return [_view(GT_INTR, dist, rvec, tz, grid) for rvec, tz in _VIEW_POSES]


# -- planar intrinsics ---------------------------------------------------


def test_planar_intrinsics_noiseless_no_distortion():
    result = calibrate_intrinsics_planar(_make_views(Distortion()))
    assert abs(result.intrinsics.fx - GT_INTR.fx) < 1e-4
    assert abs(result.intrinsics.fy - GT_INTR.fy) < 1e-4
    assert abs(result.intrinsics.cx - GT_INTR.cx) < 1e-4
    assert abs(result.intrinsics.cy - GT_INTR.cy) < 1e-4
    d = result.distortion
    for v in (d.k1, d.k2, d.k3, d.p1, d.p2):
        assert abs(v) < 1e-6
    assert result.rms_px < 1e-6
    assert len(result.view_poses) == len(_VIEW_POSES)


def test_planar_intrinsics_recovers_distortion():
    gt = Distortion(k1=-0.18, k2=0.04, p1=8e-4, p2=-6e-4)
    result = calibrate_intrinsics_planar(_make_views(gt))
    assert result.rms_px < 1e-5
    assert abs(result.intrinsics.fx - GT_INTR.fx) < 1e-3
    assert abs(result.intrinsics.cy - GT_INTR.cy) < 1e-3
    assert abs(result.distortion.k1 - gt.k1) < 1e-4
    assert abs(result.distortion.p1 - gt.p1) < 1e-5


def test_planar_intrinsics_needs_three_views():
    views = _make_views(Distortion())[:2]
    with pytest.raises(DegenerateGeometryError, match="3 views"):
        calibrate_intrinsics_planar(views)


def test_planar_intrinsics_rejects_parallel_views():
    grid = _pattern_grid()
    views = [
        _view(GT_INTR, Distortion(), (0.0, 0.0, 0.0), tz, grid)
        for tz in (1.2, 1.5, 1.8)
    ]
    with pytest.raises(DegenerateGeometryError):
        calibrate_intrinsics_planar(views)


def test_planar_view_point_count_mismatch():
    views = _make_views(Distortion())
    plane, pixels = views[0]
    views[0] = (plane[:-1], pixels)
    with pytest.raises(DataError, match="mismatched"):
        calibrate_intrinsics_planar(views)


# -- extrinsics ----------------------------------------------------------


def _ground_refs(camera: CameraModel, n: int = 19) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(0.5, 4.0, 3)
    ys = np.linspace(2.0, 28.0, 7)
    gx, gy = np.meshgrid(xs, ys)
    world = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])[:n]
    pixels = camera.project(world)
    return world, pixels


def test_extrinsics_noiseless_ground_points(camera):
    world, pixels = _ground_refs(camera)
    result = solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)
    assert result.rms_px < 1e-6

    solved = CameraModel(
        intrinsics=camera.intrinsics,
        distortion=camera.distortion,
        pose=result.pose,
        image_size=camera.image_size,
    )
    gme = ground_mapping_error(solved, world, pixels)
    assert gme.mean_m < 1e-6
    assert np.allclose(solved.pose.camera_center, camera.pose.camera_center, atol=1e-6)


def test_extrinsics_noisy_ground_points(camera, rng):
    world, pixels = _ground_refs(camera)
    noisy = pixels + rng.normal(scale=0.5, size=pixels.shape)
    result = solve_extrinsics(camera.intrinsics, camera.distortion, world, noisy)
    solved = CameraModel(
        intrinsics=camera.intrinsics,
        distortion=camera.distortion,
        pose=result.pose,
        image_size=camera.image_size,
    )
    gme = ground_mapping_error(solved, world, pixels)
    assert gme.mean_m < 0.10


def test_extrinsics_dlt_path(camera):
    # markers at assorted heights force the 3D resection branch
    world = np.array(
        [
            [0.5, 4.0, 0.0],
            [4.0, 4.0, 1.2],
            [0.5, 12.0, 2.0],
            [4.0, 12.0, 0.4],
            [2.2, 20.0, 1.6],
            [1.0, 26.0, 0.8],
            [3.5, 26.0, 2.4],
            [2.2, 8.0, 3.0],
        ]
    )
    pixels = camera.project(world)
    result = solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)
    assert result.rms_px < 1e-6
    assert np.allclose(result.pose.camera_center, camera.pose.camera_center, atol=1e-5)


def test_extrinsics_nonplanar_needs_six(camera):
    world = np.array(
        [[0.5, 4.0, 0.0], [4.0, 4.0, 1.2], [0.5, 12.0, 2.0], [4.0, 12.0, 0.4], [2.2, 20.0, 1.6]]
    )
    pixels = camera.project(world)
    with pytest.raises(DegenerateGeometryError, match="6"):
        solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)


def test_extrinsics_needs_four_points(camera):
    world = np.array([[0.5, 4.0, 0.0], [4.0, 4.0, 0.0], [2.0, 10.0, 0.0]])
    pixels = camera.project(world)
    with pytest.raises(DegenerateGeometryError, match="4"):
        solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)


def test_extrinsics_count_mismatch(camera):
    world, pixels = _ground_refs(camera)
    with pytest.raises(DataError, match="mismatch"):
        solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels[:-1])


def test_extrinsics_collinear_3d_points(camera):
    # 8 points on one world line: DLT has no unique solution
    s = np.linspace(0.0, 1.0, 8)
    world = np.column_stack([1.0 + 2.0 * s, 5.0 + 20.0 * s, 0.5 + 1.5 * s])
    pixels = camera.project(world)
    with pytest.raises(DegenerateGeometryError):
        solve_extrinsics(camera.intrinsics, camera.distortion, world, pixels)


# -- ground mapping error -------------------------------------------------


def test_ground_mapping_error_single_point(camera):
    world = np.array([[2.0, 10.0, 0.0]])
    pixels = camera.project(world) + np.array([[3.0, 0.0]])
    gme = ground_mapping_error(camera, world, pixels)
    assert gme.mean_m == gme.max_m == gme.per_point[0]
    assert gme.mean_m > 0.0


def test_ground_mapping_error_perfect_is_zero(camera):
    world, pixels = _ground_refs(camera, n=6)
    gme = ground_mapping_error(camera, world, pixels)
    assert gme.max_m < 1e-6
    assert len(gme.per_point) == 6


def test_ground_mapping_error_rejects_off_plane(camera):
    world = np.array([[2.0, 10.0, 0.5]])
    with pytest.raises(DataError, match="Z=0"):
        ground_mapping_error(camera, world, np.array([[960.0, 700.0]]))


def test_ground_mapping_error_rejects_empty(camera):
    with pytest.raises(DataError):
        ground_mapping_error(camera, np.empty((0, 3)), np.empty((0, 2)))


# -- file loaders ---------------------------------------------------------


def test_load_correspondences_round_trip(tmp_path):
    path = tmp_path / "refs.csv"
    path.write_text("X,Y,Z,u,v\n1.0,2.0,0.0,100.5,200.25\n-3.5,4.0,0.0,50,60\n")
    world, pixels = load_correspondences(path)
    assert world.shape == (2, 3)
    assert pixels[0, 1] == 200.25
    assert world[1, 0] == -3.5


def test_load_correspondences_errors(tmp_path):
    bad_cols = tmp_path / "a.csv"
    bad_cols.write_text("X,Y,u,v\n1,2,3,4\n")
    with pytest.raises(DataError, match="columns"):
        load_correspondences(bad_cols)

    bad_num = tmp_path / "b.csv"
    bad_num.write_text("X,Y,Z,u,v\n1,2,0,3,4\n1,oops,0,3,4\n")
    with pytest.raises(DataError, match=":3"):
        load_correspondences(bad_num)

    # the reader skips line 3, which is blank: the bad cell is on line 4
    after_blank = tmp_path / "d.csv"
    after_blank.write_text("X,Y,Z,u,v\n1,2,0,3,4\n\n1,2,0,nan,4\n")
    with pytest.raises(DataError, match=f"{after_blank}:4: bad number: u 'nan'"):
        load_correspondences(after_blank)

    empty = tmp_path / "c.csv"
    empty.write_text("X,Y,Z,u,v\n")
    with pytest.raises(DataError, match="no data"):
        load_correspondences(empty)


def test_load_planar_views_round_trip(tmp_path):
    path = tmp_path / "views.json"
    doc = [
        {"plane": [[0.0, 0.0], [0.1, 0.0]], "pixels": [[10.0, 20.0], [30.0, 40.0]]},
        {"plane": [[0.0, 0.1]], "pixels": [[50.0, 60.0]]},
    ]
    path.write_text(json.dumps(doc))
    views = load_planar_views(path)
    assert len(views) == 2
    assert views[0][1].shape == (2, 2)
    assert views[1][0][0, 1] == 0.1


def test_load_planar_views_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(DataError, match="list"):
        load_planar_views(bad)

    malformed = tmp_path / "m.json"
    malformed.write_text('[{"plane": [[0,0]]}]')
    with pytest.raises(DataError, match="view 0"):
        load_planar_views(malformed)

    # read with np.asarray(..., dtype=float), true was the coordinate 1.0
    for bad, named in ((True, "True"), (10**400, str(10**400)), (float("nan"), "nan")):
        coords = tmp_path / "b.json"
        coords.write_text(json.dumps([{"plane": [[0, bad]], "pixels": [[1, 2]]}]))
        with pytest.raises(DataError, match=f"view 0 in {coords} is malformed: plane {named} is"):
            load_planar_views(coords)

    not_json = tmp_path / "n.json"
    not_json.write_text("outdoor scenes")
    with pytest.raises(DataError, match="JSON"):
        load_planar_views(not_json)
