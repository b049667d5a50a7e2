"""Pinhole camera model with lens distortion and a world ground plane.

The only module that knows the projection model: calibration uses its
functions of an unchecked pose ``(rvec, t)``, and :class:`CameraModel` is
built on the same ones. :func:`undistort_pixel`, which every pixel-to-ray
path goes through, raises :class:`~posmap.errors.UndistortionError` for a
pixel the lens cannot invert exactly (see :meth:`Distortion.undistort`).

World frame convention: right-handed, Z up, the ground is the plane Z=0 and
the camera sits above it (positive-Z camera center). Pixel frame: top-left
origin, u right, v down. Rotations are stored as axis-angle vectors (the
direction is the rotation axis, the norm is the angle in radians).

The hot paths (:func:`undistort_pixel`, :meth:`CameraModel.viewing_ray`
and :meth:`CameraModel.back_project_ground` with scalar inputs)
deliberately use plain Python floats instead of numpy scalars;
per-detection mapping cost is dominated by these and the float path is
roughly 20x faster.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BehindCameraError,
    ConfigError,
    DataError,
    NoGroundIntersectionError,
    UndistortionError,
    read_json,
)

__all__ = [
    "Intrinsics",
    "Distortion",
    "Pose",
    "CameraModel",
    "axis_angle_to_matrix",
    "matrix_to_axis_angle",
    "rotate_point_jacobian",
    "project_points",
    "project_jacobians",
    "undistort_pixel",
    "load_camera",
    "save_camera",
    "load_intrinsics",
    "save_intrinsics",
]

CAMERA_SCHEMA_UNITS = "m-px"

_MIN_DEPTH = 1e-9

# Undistortion accepts a solution that re-distorts to its input within
# _UNDISTORT_TOL (normalized units). Newton converges quadratically, so after
# a step below _NEWTON_STEP_TOL the iterate is at machine precision.
_UNDISTORT_TOL = 1e-9
_NEWTON_STEP_TOL = 1e-8
_NEWTON_MAX_ITER = 30


def axis_angle_to_matrix(rvec: np.ndarray) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (Rodrigues formula)."""
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    theta = float(np.linalg.norm(rvec))
    if theta < 1e-12:
        # second-order series keeps the map smooth through zero
        k = _cross_matrix(rvec)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = rvec / theta
    k = _cross_matrix(axis)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def matrix_to_axis_angle(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse Rodrigues)."""
    rot = _validate_rotation(rot)
    cos_t = (float(np.trace(rot)) - 1.0) / 2.0
    cos_t = min(1.0, max(-1.0, cos_t))
    theta = math.acos(cos_t)
    skew_part = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    )
    if theta < 1e-8:
        return 0.5 * skew_part
    if math.pi - theta < 1e-6:
        # near a half-turn the skew part vanishes; recover the axis from
        # the symmetric part instead
        sym = (rot + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(sym)))
        axis = sym[:, k] / math.sqrt(max(sym[k, k], 1e-300))
        axis = axis / np.linalg.norm(axis)
        # orient so the (tiny) skew part agrees when it is not exactly zero
        if skew_part @ axis < 0:
            axis = -axis
        return theta * axis
    return (theta / (2.0 * math.sin(theta))) * skew_part


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def _validate_rotation(rot: np.ndarray) -> np.ndarray:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise ConfigError(f"rotation matrix must be 3x3, got {rot.shape}")
    err = np.max(np.abs(rot.T @ rot - np.eye(3)))
    if err > 1e-10:
        raise ConfigError(f"matrix is not orthonormal (max |R^T R - I| = {err:.3g})")
    if np.linalg.det(rot) < 0:
        raise ConfigError("matrix is a reflection, not a rotation (det = -1)")
    return rot


def rotate_point_jacobian(rvec: np.ndarray, point: np.ndarray) -> np.ndarray:
    """d(R(rvec) @ point)/d(rvec), a 3x3 matrix.

    Uses the closed form
    ``-R [p]_x (v v^T + (R^T - I)[v]_x) / ||v||^2`` with the limit
    ``-[p]_x`` as v -> 0.
    """
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    point = np.asarray(point, dtype=float).reshape(3)
    norm2 = float(rvec @ rvec)
    if norm2 < 1e-24:
        return -_cross_matrix(point)
    rot = axis_angle_to_matrix(rvec)
    return (
        -rot
        @ _cross_matrix(point)
        @ (np.outer(rvec, rvec) + (rot.T - np.eye(3)) @ _cross_matrix(rvec))
        / norm2
    )


@dataclass(frozen=True)
class Intrinsics:
    """Pixel-focal intrinsics with optional axis skew."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy, self.skew))):
            raise ConfigError(f"intrinsics must be finite, got {self}")
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class Distortion:
    """Radial (k1,k2,k3) + tangential (p1,p2) distortion in normalized coords."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.k1, self.k2, self.k3, self.p1, self.p2))):
            raise ConfigError(f"distortion coefficients must be finite, got {self}")

    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0

    def distort(self, xn, yn):
        """Apply distortion to ideal normalized coordinates (scalar or array)."""
        r2 = xn * xn + yn * yn
        radial = 1.0 + r2 * (self.k1 + r2 * (self.k2 + r2 * self.k3))
        xd = xn * radial + 2.0 * self.p1 * xn * yn + self.p2 * (r2 + 2.0 * xn * xn)
        yd = yn * radial + self.p1 * (r2 + 2.0 * yn * yn) + 2.0 * self.p2 * xn * yn
        return xd, yd

    @cached_property
    def monotone_radius(self) -> float:
        """Smallest positive root of ``1 + 3 k1 r^2 + 5 k2 r^4 + 7 k3 r^6``, else inf.

        Past this radius ``r (1 + k1 r^2 + k2 r^4 + k3 r^6)`` stops increasing.
        """
        # in w = 1 / r^2 the cubic is monic, so tiny k3 or k2 cannot break it
        roots = np.roots([1.0, 3.0 * self.k1, 5.0 * self.k2, 7.0 * self.k3])
        positive = [float(w.real) for w in roots if w.imag == 0.0 and w.real > 0.0]
        return 1.0 / math.sqrt(max(positive)) if positive else math.inf

    def undistort(self, xd: float, yd: float) -> tuple[float, float, bool]:
        """Invert :meth:`distort` by Newton steps on its analytic Jacobian.

        Returns ``(xn, yn, valid)``. ``valid`` is True only when the
        solution lies inside :attr:`monotone_radius` and re-distorts to
        ``(xd, yd)`` within 1e-9; points outside the lens's invertible field
        have no such solution and come back with False. Newton starts and
        stays inside the radius, where the inverse is unique: a start past
        half the radius moves to half the radius, away from the fold where
        the Jacobian vanishes, and a step that would leave the radius is
        halved until it does not.
        """
        if self.is_zero():
            return xd, yd, True
        radius = self.monotone_radius
        x, y = xd, yd
        r = math.hypot(x, y)
        if r > 0.5 * radius:
            x, y = x * 0.5 * radius / r, y * 0.5 * radius / r
        for _ in range(_NEWTON_MAX_ITER):
            fx, fy = self.distort(x, y)
            jxx, jxy, jyy = self._jacobian_entries(x, y)
            det = jxx * jyy - jxy * jxy
            if det == 0.0:
                break
            ex, ey = fx - xd, fy - yd
            sx = (jyy * ex - jxy * ey) / det
            sy = (jxx * ey - jxy * ex) / det
            if not (math.isfinite(sx) and math.isfinite(sy)):
                break  # an infinite step never halves into the radius
            converged = abs(sx) <= _NEWTON_STEP_TOL and abs(sy) <= _NEWTON_STEP_TOL
            while math.hypot(x - sx, y - sy) >= radius:
                sx, sy = 0.5 * sx, 0.5 * sy
            x -= sx
            y -= sy
            if converged:
                break
        fx, fy = self.distort(x, y)
        valid = (
            math.hypot(x, y) < radius
            and abs(fx - xd) <= _UNDISTORT_TOL
            and abs(fy - yd) <= _UNDISTORT_TOL
        )
        return x, y, valid

    def _jacobian_entries(self, xn: float, yn: float) -> tuple[float, float, float]:
        """The entries (dxd/dxn, dxd/dyn = dyd/dxn, dyd/dyn) of :meth:`jacobian`."""
        k1, k2, k3, p1, p2 = self.k1, self.k2, self.k3, self.p1, self.p2
        r2 = xn * xn + yn * yn
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dradial = k1 + 2.0 * k2 * r2 + 3.0 * k3 * r2 * r2
        return (
            radial + 2.0 * xn * xn * dradial + 2.0 * p1 * yn + 6.0 * p2 * xn,
            2.0 * xn * yn * dradial + 2.0 * p1 * xn + 2.0 * p2 * yn,
            radial + 2.0 * yn * yn * dradial + 6.0 * p1 * yn + 2.0 * p2 * xn,
        )

    def jacobian(self, xn: float, yn: float) -> np.ndarray:
        """d(xd, yd)/d(xn, yn), a 2x2 matrix."""
        jxx, jxy, jyy = self._jacobian_entries(xn, yn)
        return np.array([[jxx, jxy], [jxy, jyy]])


@dataclass(frozen=True)
class Pose:
    """World-to-camera rigid transform: X_cam = R @ X_world + t."""

    rvec: tuple[float, float, float]
    t: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.rvec, *self.t))):
            raise ConfigError(f"pose must be finite, got {self}")

    @classmethod
    def from_matrix(cls, rot: np.ndarray, t: np.ndarray) -> Pose:
        rvec = matrix_to_axis_angle(rot)
        t = np.asarray(t, dtype=float).reshape(3)
        return cls(tuple(float(v) for v in rvec), tuple(float(v) for v in t))

    @cached_property
    def rotation(self) -> np.ndarray:
        return axis_angle_to_matrix(np.array(self.rvec))

    @cached_property
    def camera_center(self) -> np.ndarray:
        """Camera position in world coordinates, -R^T t."""
        return -self.rotation.T @ np.array(self.t)


def project_points(
    intrinsics: Intrinsics,
    distortion: Distortion,
    rvec: np.ndarray,
    t: np.ndarray,
    world: np.ndarray,
) -> np.ndarray:
    """Pixels (N,2) of world points (N,3) under the pose ``(rvec, t)``.

    The pose is not checked; rows of points at or behind the camera plane
    are +inf.
    """
    cam = world @ axis_angle_to_matrix(rvec).T + np.asarray(t, dtype=float)
    z = cam[:, 2]
    front = z > _MIN_DEPTH
    xd, yd = distortion.distort(cam[front, 0] / z[front], cam[front, 1] / z[front])
    uv = np.full((len(world), 2), np.inf)
    uv[front, 0] = intrinsics.fx * xd + intrinsics.skew * yd + intrinsics.cx
    uv[front, 1] = intrinsics.fy * yd + intrinsics.cy
    return uv


def project_jacobians(
    intrinsics: Intrinsics,
    distortion: Distortion,
    rvec: np.ndarray,
    t: np.ndarray,
    world: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic pixel Jacobians of world points (N,3) under the pose ``(rvec, t)``.

    Returns ``(J_pose, J_point)``: (N,2,6) with columns rvec then t, and
    (N,2,3), both in pixels per unit parameter. The pose is not checked.
    """
    rvec = np.asarray(rvec, dtype=float).reshape(3)
    t = np.asarray(t, dtype=float).reshape(3)
    rot = axis_angle_to_matrix(rvec)
    pix = np.array([[intrinsics.fx, intrinsics.skew], [0.0, intrinsics.fy]])
    j_pose = np.empty((len(world), 2, 6))
    j_point = np.empty((len(world), 2, 3))
    for i, point in enumerate(world):
        x, y, z = rot @ point + t
        persp = np.array([[1.0 / z, 0.0, -x / z**2], [0.0, 1.0 / z, -y / z**2]])
        front = pix @ distortion.jacobian(x / z, y / z) @ persp  # d(pixel)/d(cam point)
        j_pose[i, :, :3] = front @ rotate_point_jacobian(rvec, point)
        j_pose[i, :, 3:] = front
        j_point[i] = front @ rot
    return j_pose, j_point


def undistort_pixel(
    intrinsics: Intrinsics, distortion: Distortion, u: float, v: float
) -> tuple[float, float]:
    """Ideal normalized coordinates of pixel (u, v).

    Raises :class:`UndistortionError` when the lens has no valid inverse
    there (see :meth:`Distortion.undistort`).
    """
    yd = (v - intrinsics.cy) / intrinsics.fy
    xd = (u - intrinsics.cx - intrinsics.skew * yd) / intrinsics.fx
    xn, yn, valid = distortion.undistort(xd, yd)
    if not valid:
        raise UndistortionError(
            f"pixel ({u:.1f}, {v:.1f}) cannot be undistorted: the lens has no "
            f"inverse there inside its monotone radius {distortion.monotone_radius:.4g}"
        )
    return xn, yn


@dataclass(frozen=True)
class CameraModel:
    """A fully calibrated camera over the Z=0 ground plane."""

    intrinsics: Intrinsics
    distortion: Distortion
    pose: Pose
    image_size: tuple[int, int]

    def __post_init__(self) -> None:
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ConfigError(f"image size must be positive, got {self.image_size}")
        if self.pose.camera_center[2] <= 0.0:
            raise ConfigError(
                "camera center must be above the ground plane "
                f"(got Z = {self.pose.camera_center[2]:.3f})"
            )

    # -- cached plain-float views used by the scalar hot paths --------

    @cached_property
    def _rot_rows(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(tuple(float(v) for v in row) for row in self.pose.rotation)

    @cached_property
    def _center(self) -> tuple[float, float, float]:
        c = self.pose.camera_center
        return float(c[0]), float(c[1]), float(c[2])

    # -- forward projection -------------------------------------------

    def project(self, points_world: np.ndarray) -> np.ndarray:
        """Project world points to pixels.

        Accepts a single (3,) point or an (N,3) array and returns matching
        (2,) / (N,2) pixel coordinates. Raises :class:`BehindCameraError`
        if any point lands at non-positive camera depth.
        """
        pts = np.asarray(points_world, dtype=float)
        world = pts.reshape(-1, 3)
        uv = project_points(self.intrinsics, self.distortion, self.pose.rvec, self.pose.t, world)
        behind = np.isinf(uv[:, 0])
        if behind.any():
            raise BehindCameraError(f"point {world[behind.argmax()]} is at or behind the camera")
        return uv[0] if pts.ndim == 1 else uv

    def project_jacobian(self, point_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Analytic projection Jacobians at one world point.

        Returns ``(J_pose, J_point)`` where J_pose is 2x6 (columns: rvec
        then t) and J_point is 2x3, both in pixels per unit parameter.
        """
        point = np.asarray(point_world, dtype=float).reshape(1, 3)
        self.project(point)  # raises BehindCameraError for a point behind the camera
        j_pose, j_point = project_jacobians(
            self.intrinsics, self.distortion, self.pose.rvec, self.pose.t, point
        )
        return j_pose[0], j_point[0]

    # -- inverse mapping ------------------------------------------------

    def viewing_ray(
        self, u: float, v: float
    ) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """World ray of pixel (u, v): the camera center and a direction.

        The direction is ``R^T @ (xn, yn, 1)`` for the undistorted pixel,
        not normalized; both come as plain floats. Raises
        :class:`UndistortionError` for a pixel the lens cannot invert.
        """
        xn, yn = undistort_pixel(self.intrinsics, self.distortion, float(u), float(v))
        r = self._rot_rows
        return self._center, (
            r[0][0] * xn + r[1][0] * yn + r[2][0],
            r[0][1] * xn + r[1][1] * yn + r[2][1],
            r[0][2] * xn + r[1][2] * yn + r[2][2],
        )

    def back_project_ground(self, u: float, v: float) -> tuple[float, float]:
        """Intersect the viewing ray of pixel (u, v) with the ground plane Z=0.

        Raises :class:`NoGroundIntersectionError` when the ray is parallel
        to the ground or meets it behind the camera (at or above the
        horizon), and :class:`UndistortionError` when the lens cannot
        invert the pixel.
        """
        (cx, cy, cz), (dx, dy, dz) = self.viewing_ray(u, v)
        if abs(dz) < 1e-12:
            raise NoGroundIntersectionError(
                f"viewing ray of pixel ({u:.1f}, {v:.1f}) is parallel to the ground"
            )
        s = -cz / dz
        if s <= 0.0:
            raise NoGroundIntersectionError(
                f"pixel ({u:.1f}, {v:.1f}) is at or above the horizon"
            )
        return cx + s * dx, cy + s * dy

    def in_image(self, u: float, v: float) -> bool:
        w, h = self.image_size
        return 0.0 <= u <= w and 0.0 <= v <= h


def _lens_to_dict(
    intrinsics: Intrinsics, distortion: Distortion, image_size: tuple[int, int]
) -> dict:
    return {
        "units": CAMERA_SCHEMA_UNITS,
        "image_size": [int(image_size[0]), int(image_size[1])],
        "intrinsics": {
            "fx": intrinsics.fx,
            "fy": intrinsics.fy,
            "cx": intrinsics.cx,
            "cy": intrinsics.cy,
            "skew": intrinsics.skew,
        },
        "distortion": {
            "k1": distortion.k1,
            "k2": distortion.k2,
            "k3": distortion.k3,
            "p1": distortion.p1,
            "p2": distortion.p2,
        },
    }


def _lens_from_dict(doc: dict) -> tuple[Intrinsics, Distortion, tuple[int, int]]:
    """Inverse of :func:`_lens_to_dict`; distortion and skew default to zero."""
    intr = doc["intrinsics"]
    dist = doc.get("distortion", {})
    intrinsics = Intrinsics(
        fx=float(intr["fx"]),
        fy=float(intr["fy"]),
        cx=float(intr["cx"]),
        cy=float(intr["cy"]),
        skew=float(intr.get("skew", 0.0)),
    )
    distortion = Distortion(
        k1=float(dist.get("k1", 0.0)),
        k2=float(dist.get("k2", 0.0)),
        k3=float(dist.get("k3", 0.0)),
        p1=float(dist.get("p1", 0.0)),
        p2=float(dist.get("p2", 0.0)),
    )
    return intrinsics, distortion, (int(doc["image_size"][0]), int(doc["image_size"][1]))


def _read_json(path: str | Path, kind: str) -> dict:
    """The JSON object of a camera or intrinsics file, its units checked."""
    doc = read_json(path, kind)
    units = doc.get("units")
    if units != CAMERA_SCHEMA_UNITS:
        raise ConfigError(
            f"{kind} file {path} declares units {units!r}; expected "
            f"{CAMERA_SCHEMA_UNITS!r} (metres in the world, pixels on the sensor)"
        )
    return doc


def save_camera(path: str | Path, camera: CameraModel) -> None:
    doc = _lens_to_dict(camera.intrinsics, camera.distortion, camera.image_size)
    doc["pose"] = {
        "axis_angle": [float(v) for v in camera.pose.rvec],
        "t": [float(v) for v in camera.pose.t],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_camera(path: str | Path) -> CameraModel:
    doc = _read_json(path, "camera")
    try:
        intrinsics, distortion, image_size = _lens_from_dict(doc)
        pose = doc["pose"]
        return CameraModel(
            intrinsics=intrinsics,
            distortion=distortion,
            pose=Pose(
                rvec=tuple(float(v) for v in pose["axis_angle"]),
                t=tuple(float(v) for v in pose["t"]),
            ),
            image_size=image_size,
        )
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DataError(f"camera file {path} is malformed: {e}") from e
    except ConfigError as e:
        raise ConfigError(f"camera file {path}: {e}") from e


def save_intrinsics(
    path: str | Path,
    intrinsics: Intrinsics,
    distortion: Distortion,
    image_size: tuple[int, int],
    rms_px: float,
) -> None:
    """Write a camera file without a pose, as ``calibrate intrinsics`` produces."""
    doc = _lens_to_dict(intrinsics, distortion, image_size)
    doc["rms_px"] = rms_px
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_intrinsics(path: str | Path) -> tuple[Intrinsics, Distortion, tuple[int, int]]:
    """Read the lens part of a camera file, which may or may not have a pose yet."""
    doc = _read_json(path, "intrinsics")
    try:
        return _lens_from_dict(doc)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DataError(f"intrinsics file {path} is malformed: {e}") from e
