"""Projection geometry: rotations, distortion, and the ground-plane inverse."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from posmap import MapExtent, default_camera
from posmap.camera import (
    CameraModel,
    Distortion,
    Intrinsics,
    Pose,
    axis_angle_to_matrix,
    load_camera,
    load_intrinsics,
    matrix_to_axis_angle,
    rotate_point_jacobian,
    save_camera,
    save_intrinsics,
    undistort_pixel,
)
from posmap.errors import (
    BehindCameraError,
    ConfigError,
    DataError,
    NoGroundIntersectionError,
    UndistortionError,
)
from posmap.lm import numeric_jacobian

finite_angle = st.floats(-6.0, 6.0, allow_nan=False)


def _ground_points(camera: CameraModel, n: int, rng: np.random.Generator):
    """World ground points whose projections land inside the image."""
    pts = []
    w, h = camera.image_size
    while len(pts) < n:
        u = rng.uniform(0.05 * w, 0.95 * w)
        v = rng.uniform(0.45 * h, 0.95 * h)
        try:
            gx, gy = camera.back_project_ground(u, v)
        except NoGroundIntersectionError:
            continue
        pts.append((gx, gy, 0.0))
    return np.array(pts)


# -- axis-angle <-> matrix ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(finite_angle, finite_angle, finite_angle)
def test_axis_angle_matches_scipy(rx, ry, rz):
    rvec = np.array([rx, ry, rz])
    ours = axis_angle_to_matrix(rvec)
    ref = Rotation.from_rotvec(rvec).as_matrix()
    assert np.allclose(ours, ref, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(finite_angle, finite_angle, finite_angle)
def test_rotation_matrices_orthonormal(rx, ry, rz):
    rot = axis_angle_to_matrix(np.array([rx, ry, rz]))
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-10
    assert abs(np.linalg.det(rot) - 1.0) < 1e-10


@settings(max_examples=200, deadline=None)
@given(finite_angle, finite_angle, finite_angle)
def test_axis_angle_round_trip(rx, ry, rz):
    rvec = np.array([rx, ry, rz])
    theta = np.linalg.norm(rvec)
    if theta > math.pi:  # canonical range only; beyond pi the map wraps
        return
    back = matrix_to_axis_angle(axis_angle_to_matrix(rvec))
    # the matrix, not the vector, is the invariant near theta = pi where
    # +v and -v encode the same rotation
    assert np.allclose(
        axis_angle_to_matrix(back), axis_angle_to_matrix(rvec), atol=1e-9
    )
    if theta < math.pi - 1e-4:
        assert np.allclose(back, rvec, atol=1e-9)


def test_axis_angle_tiny_and_half_turn():
    tiny = np.array([1e-14, -2e-14, 3e-15])
    assert np.allclose(matrix_to_axis_angle(axis_angle_to_matrix(tiny)), tiny, atol=1e-13)

    for axis in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.0, 0.8]):
        rvec = math.pi * np.array(axis)
        rot = axis_angle_to_matrix(rvec)
        back = matrix_to_axis_angle(rot)
        assert np.allclose(axis_angle_to_matrix(back), rot, atol=1e-9)


def test_matrix_to_axis_angle_rejects_garbage():
    with pytest.raises(ConfigError):
        matrix_to_axis_angle(np.eye(3) * 1.01)
    with pytest.raises(ConfigError):
        matrix_to_axis_angle(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(ConfigError):
        matrix_to_axis_angle(np.eye(4))


@settings(max_examples=100, deadline=None)
@given(finite_angle, finite_angle, finite_angle)
def test_rotate_point_jacobian_matches_fd(rx, ry, rz):
    rvec = np.array([rx, ry, rz])
    point = np.array([0.7, -1.3, 2.1])
    analytic = rotate_point_jacobian(rvec, point)
    fd = numeric_jacobian(lambda v: axis_angle_to_matrix(v) @ point, rvec)
    assert np.allclose(analytic, fd, atol=1e-6)


# -- distortion ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-0.3, 0.3),
    st.floats(-0.05, 0.05),
    st.floats(-0.01, 0.01),
    st.floats(-0.002, 0.002),
    st.floats(-0.002, 0.002),
    st.floats(-0.4, 0.4),
    st.floats(-0.4, 0.4),
)
def test_distortion_inversion(k1, k2, k3, p1, p2, xn, yn):
    dist = Distortion(k1=k1, k2=k2, k3=k3, p1=p1, p2=p2)
    xd, yd = dist.distort(xn, yn)
    xb, yb, ok = dist.undistort(xd, yd)
    assert ok
    assert max(abs(xb - xn), abs(yb - yn)) <= 1e-8


def test_distortion_zero_is_identity():
    dist = Distortion()
    assert dist.is_zero()
    assert dist.distort(0.3, -0.2) == (0.3, -0.2)
    assert dist.undistort(0.3, -0.2) == (0.3, -0.2, True)


# any lens, including ones whose radial map turns back inside the field
any_lens = st.builds(
    Distortion,
    k1=st.floats(-1.0, 1.0),
    k2=st.floats(-1.0, 1.0),
    k3=st.floats(-1.0, 1.0),
    p1=st.floats(-0.01, 0.01),
    p2=st.floats(-0.01, 0.01),
)
UNIT = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)  # pixels are normalized coords
WIDE = Distortion(k1=-0.45, k2=0.25, k3=-0.1)  # distorted radius peaks at 0.709


@settings(max_examples=500, deadline=None)
@given(any_lens, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_undistortion_is_valid_or_raises(dist, xd, yd):
    try:
        xn, yn = undistort_pixel(UNIT, dist, xd, yd)
    except UndistortionError:
        assert not dist.undistort(xd, yd)[2]
        return
    assert math.hypot(xn, yn) < dist.monotone_radius
    xb, yb = dist.distort(xn, yn)
    assert max(abs(xb - xd), abs(yb - yd)) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(any_lens)
def test_monotone_radius_is_first_turning_point(dist):
    def terms(r):
        return (1.0, 3.0 * dist.k1 * r**2, 5.0 * dist.k2 * r**4, 7.0 * dist.k3 * r**6)

    radius = dist.monotone_radius
    reach = min(radius, 100.0)
    assert all(sum(terms(r)) > 0.0 for r in np.linspace(0.0, reach, 400)[:-1])
    if radius <= 100.0:
        assert abs(sum(terms(radius))) <= 1e-9 * sum(abs(t) for t in terms(radius))


def test_wide_angle_lens_refuses_radii_it_never_produces():
    assert WIDE.monotone_radius == pytest.approx(1.0854, abs=1e-4)
    xn, yn, valid = WIDE.undistort(0.8, 0.0)
    assert not valid
    with pytest.raises(UndistortionError, match="cannot be undistorted"):
        undistort_pixel(UNIT, WIDE, 0.8, 0.0)
    # inside the radius the same lens still inverts exactly
    xd, yd = WIDE.distort(1.0, 0.2)
    assert undistort_pixel(UNIT, WIDE, xd, yd) == pytest.approx((1.0, 0.2), abs=1e-12)


@pytest.mark.parametrize(
    "dist, xn",
    [
        # distorted past the radius (1.677): the start moves inside it
        (Distortion(k1=0.3, k2=-0.05, k3=-0.01), 1.3),
        # distorted to just inside the radius (2.570), by the fold where the
        # Jacobian vanishes: starting there, Newton cycles
        (Distortion(k1=0.5, k2=-0.05), 1.3724),
        # the first step from half the radius (2.475) overshoots it and is halved
        (Distortion(k1=-0.2, k2=0.1, k3=-0.01), 2.2),
    ],
)
def test_undistortion_inverts_points_near_the_radius(dist, xn):
    xd, yd = dist.distort(xn, 0.0)
    assert undistort_pixel(UNIT, dist, xd, yd) == pytest.approx((xn, 0.0), abs=1e-12)


def test_undistortion_inverts_a_steep_lens_from_a_far_start():
    # from (170, 0) each Newton step shrinks the radius by about 1/7, and
    # where the Jacobian is large a step below the step tolerance can still
    # leave the point more than 1e-9 from its re-distortion
    steep = Distortion(k1=1.0, k2=1.0, k3=1.0)
    assert steep.distort(2.0, 0.0) == (170.0, 0.0)
    assert undistort_pixel(UNIT, steep, 170.0, 0.0) == pytest.approx((2.0, 0.0), abs=1e-12)


def test_undistortion_inverts_a_sweep_of_steep_lenses():
    # 400 lenses with k1, k2, k3 uniform in +-1, 100 points each inside
    # 0.99 of the radius and within 2 of the centre
    rng = np.random.default_rng(0)
    for _ in range(400):
        dist = Distortion(*(float(k) for k in rng.uniform(-1.0, 1.0, 3)))
        angles = rng.uniform(0.0, 2.0 * math.pi, 100)
        radii = rng.uniform(0.0, min(0.99 * dist.monotone_radius, 2.0), 100)
        for angle, r in zip(angles, radii):
            xn, yn = float(r * math.cos(angle)), float(r * math.sin(angle))
            xb, yb, ok = dist.undistort(*dist.distort(xn, yn))
            assert ok, (dist, xn, yn)
            assert max(abs(xb - xn), abs(yb - yn)) <= 1e-8, (dist, xn, yn)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(-0.3, 0.3),
    st.floats(-0.05, 0.05),
    st.floats(-0.01, 0.01),
    st.floats(-0.002, 0.002),
    st.floats(-0.002, 0.002),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2.0 * math.pi),
)
def test_every_point_inside_the_radius_is_recovered(k1, k2, k3, p1, p2, frac, angle):
    dist = Distortion(k1=k1, k2=k2, k3=k3, p1=p1, p2=p2)
    r = frac * min(dist.monotone_radius, 2.0)
    xn, yn = r * math.cos(angle), r * math.sin(angle)
    xb, yb, ok = dist.undistort(*dist.distort(xn, yn))
    assert ok
    assert max(abs(xb - xn), abs(yb - yn)) <= 1e-8


def _wide_camera() -> CameraModel:
    """The default survey pose behind a full-HD wide-angle lens (fx = 1000)."""
    extent = MapExtent(origin=(0.0, 0.0), rotation=0.0, width=4.5, length=32.0)
    return CameraModel(
        intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0),
        distortion=WIDE,
        pose=default_camera(extent).pose,
        image_size=(1920, 1080),
    )


def test_back_project_raises_where_the_lens_cannot_invert():
    wide = _wide_camera()
    with pytest.raises(UndistortionError):
        wide.back_project_ground(20.0, 1070.0)
    gx, gy = wide.back_project_ground(960.0, 900.0)
    assert wide.project(np.array([gx, gy, 0.0])) == pytest.approx((960.0, 900.0), abs=1e-6)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1920.0), st.floats(0.0, 1080.0))
def test_ground_points_reproject_to_their_pixel_or_raise(u, v):
    wide = _wide_camera()
    try:
        gx, gy = wide.back_project_ground(u, v)
    except (UndistortionError, NoGroundIntersectionError):
        return
    u2, v2 = wide.project(np.array([gx, gy, 0.0]))
    assert math.hypot(u2 - u, v2 - v) <= 1e-6


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))
def test_distortion_jacobian_matches_fd(k1, xn, yn):
    dist = Distortion(k1=k1, k2=0.03, p1=1e-3, p2=-8e-4)

    def fun(v):
        xd, yd = dist.distort(v[0], v[1])
        return np.array([xd, yd])

    analytic = dist.jacobian(xn, yn)
    fd = numeric_jacobian(fun, np.array([xn, yn]))
    assert np.allclose(analytic, fd, atol=1e-6)


# -- camera model -------------------------------------------------------


def test_project_single_and_batch_agree(camera):
    pts = np.array([[1.0, 5.0, 0.0], [3.0, 12.0, 1.7], [2.0, 20.0, 0.3]])
    batch = camera.project(pts)
    assert batch.shape == (3, 2)
    for i, p in enumerate(pts):
        assert np.allclose(camera.project(p), batch[i])


def test_project_behind_camera_raises(camera):
    center = camera.pose.camera_center
    behind = center + camera.pose.rotation.T @ np.array([0.0, 0.0, -2.0])
    with pytest.raises(BehindCameraError):
        camera.project(behind)


def test_ground_round_trip_bulk(camera, rng):
    pts = _ground_points(camera, 500, rng)
    uv = camera.project(pts)
    err = np.empty(len(pts))
    for i, (u, v) in enumerate(uv):
        gx, gy = camera.back_project_ground(u, v)
        err[i] = math.hypot(gx - pts[i, 0], gy - pts[i, 1])
    assert err.max() <= 1e-6


def test_pixel_round_trip_through_ground(camera, rng):
    # pixel -> ground -> pixel must land back on the same pixel
    w, h = camera.image_size
    for _ in range(200):
        u = rng.uniform(0.1 * w, 0.9 * w)
        v = rng.uniform(0.5 * h, 0.95 * h)
        gx, gy = camera.back_project_ground(u, v)
        u2, v2 = camera.project(np.array([gx, gy, 0.0]))
        assert math.hypot(u2 - u, v2 - v) < 1e-5


def test_horizon_pixel_raises(camera):
    with pytest.raises(NoGroundIntersectionError):
        camera.back_project_ground(camera.image_size[0] / 2.0, -5000.0)


def test_project_jacobian_matches_fd(camera):
    point = np.array([2.0, 14.0, 0.9])
    j_pose, j_point = camera.project_jacobian(point)

    def by_point(p):
        return camera.project(p)

    fd_point = numeric_jacobian(by_point, point)
    assert np.allclose(j_point, fd_point, rtol=1e-5, atol=1e-5)

    def by_pose(vec):
        cam2 = CameraModel(
            intrinsics=camera.intrinsics,
            distortion=camera.distortion,
            pose=Pose(rvec=tuple(vec[:3]), t=tuple(vec[3:])),
            image_size=camera.image_size,
        )
        return cam2.project(point)

    vec0 = np.array(list(camera.pose.rvec) + list(camera.pose.t))
    fd_pose = numeric_jacobian(by_pose, vec0)
    scale = np.maximum(np.abs(fd_pose), 1.0)
    assert np.max(np.abs(j_pose - fd_pose) / scale) < 1e-5


def test_in_image(camera):
    w, h = camera.image_size
    assert camera.in_image(0.0, 0.0)
    assert camera.in_image(w, h)
    assert not camera.in_image(-0.1, 10.0)
    assert not camera.in_image(10.0, h + 0.1)


def test_camera_must_sit_above_ground():
    pose = Pose(rvec=(0.0, 0.0, 0.0), t=(0.0, 0.0, 3.0))  # center Z = -3
    with pytest.raises(ConfigError, match="above the ground"):
        CameraModel(
            intrinsics=Intrinsics(fx=1000.0, fy=1000.0, cx=320.0, cy=240.0),
            distortion=Distortion(),
            pose=pose,
            image_size=(640, 480),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distortion_rejects_non_finite_coefficients(bad):
    with pytest.raises(ConfigError, match="finite"):
        Distortion(k1=-0.25, p2=bad)


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "skew"])
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_intrinsics_reject_non_finite_values(field, bad):
    values = {"fx": 1000.0, "fy": 1000.0, "cx": 320.0, "cy": 240.0, "skew": 0.0}
    with pytest.raises(ConfigError, match="finite"):
        Intrinsics(**{**values, field: bad})


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pose_rejects_non_finite_values(index, bad):
    values = [0.1, -0.2, 0.3, 1.0, 2.0, 8.0]
    values[index] = bad
    field = "axis_angle" if index < 3 else "t"
    with pytest.raises(ConfigError, match=f"{field} {bad!r} is not a finite number"):
        Pose(tuple(values[:3]), tuple(values[3:]))


def test_intrinsics_reject_nonpositive_focal():
    with pytest.raises(ConfigError):
        Intrinsics(fx=-1.0, fy=1000.0, cx=0.0, cy=0.0)


# -- persistence --------------------------------------------------------


def test_save_load_round_trip(camera, tmp_path):
    path = tmp_path / "cam.json"
    save_camera(path, camera)
    loaded = load_camera(path)
    assert loaded == camera


def test_load_rejects_wrong_units(camera, tmp_path):
    import json

    path = tmp_path / "cam.json"
    save_camera(path, camera)
    doc = json.loads(path.read_text())
    doc["units"] = "ft-px"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="units"):
        load_camera(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "cam.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_camera(path)


def test_load_rejects_non_object_json(tmp_path):
    path = tmp_path / "cam.json"
    path.write_text("[]")
    with pytest.raises(DataError, match="JSON object"):
        load_camera(path)


@pytest.mark.parametrize("size", [[0, 1080], [1920, -5], [1920.5, 1080], [True, 1080],
                                  pytest.param([10**400, 1080], id="10**400")])
def test_load_intrinsics_refuses_an_image_size_that_is_not_a_whole_number_above_0(
        camera, tmp_path, size):
    # read with int(), these loaded as (0, 1080), (1920, -5), (1920, 1080), ...
    path = tmp_path / "intr.json"
    save_intrinsics(path, camera.intrinsics, camera.distortion, camera.image_size, 0.1)
    doc = json.loads(path.read_text())
    doc["image_size"] = size
    path.write_text(json.dumps(doc))
    bad = next(v for v in size if not (type(v) is int and 0 < v < 2**63))
    named = f"intrinsics file {path}: image_size {bad!r} is not a whole number in [1, 2**63)"
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_intrinsics(path)


@pytest.mark.parametrize("section, key", [("intrinsics", "fx"), ("distortion", "k1"),
                                          ("pose", "t")])
def test_load_camera_refuses_a_bool_where_a_number_belongs(camera, tmp_path, section, key):
    # read with float(), true loaded as 1.0: a 1 px focal length, or a lens or pose term of 1
    path = tmp_path / "cam.json"
    save_camera(path, camera)
    doc = json.loads(path.read_text())
    doc[section][key] = [True, 0.0, 8.0] if key == "t" else True
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"camera file {path}: {key} True is not a finite"):
        load_camera(path)


def test_load_rejects_missing_fields(camera, tmp_path):
    import json

    path = tmp_path / "cam.json"
    save_camera(path, camera)
    doc = json.loads(path.read_text())
    del doc["intrinsics"]["fx"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed"):
        load_camera(path)
