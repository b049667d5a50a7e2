"""Pinhole camera model with lens distortion and a world ground plane.

World frame convention: right-handed, Z up, the ground is the plane Z=0 and
the camera sits above it (positive-Z camera center). Pixel frame: top-left
origin, u right, v down. Rotations are stored as axis-angle vectors (the
direction is the rotation axis, the norm is the angle in radians).

The hot paths (:meth:`CameraModel.undistort_pixel`,
:meth:`CameraModel.viewing_ray` and :meth:`CameraModel.back_project_ground`
with scalar inputs) deliberately use plain Python floats instead of numpy
scalars; per-detection mapping cost is dominated by these and the float
path is roughly 20x faster.
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
)

__all__ = [
    "Intrinsics",
    "Distortion",
    "Pose",
    "CameraModel",
    "axis_angle_to_matrix",
    "matrix_to_axis_angle",
    "rotate_point_jacobian",
    "load_camera",
    "save_camera",
    "load_intrinsics",
    "save_intrinsics",
]

CAMERA_SCHEMA_UNITS = "m-px"

_MIN_DEPTH = 1e-9


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

    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0

    def distort(self, xn, yn):
        """Apply distortion to ideal normalized coordinates (scalar or array)."""
        r2 = xn * xn + yn * yn
        radial = 1.0 + r2 * (self.k1 + r2 * (self.k2 + r2 * self.k3))
        xd = xn * radial + 2.0 * self.p1 * xn * yn + self.p2 * (r2 + 2.0 * xn * xn)
        yd = yn * radial + self.p1 * (r2 + 2.0 * yn * yn) + 2.0 * self.p2 * xn * yn
        return xd, yd

    def undistort(
        self, xd: float, yd: float, *, tol: float = 1e-8, max_iter: int = 20
    ) -> tuple[float, float, bool]:
        """Invert :meth:`distort` by fixed-point iteration.

        Returns ``(xn, yn, converged)``; the flag is False when the update
        has not dropped below ``tol`` after ``max_iter`` sweeps (pixels far
        outside the calibrated field can diverge).
        """
        if self.is_zero():
            return xd, yd, True
        k1, k2, k3, p1, p2 = self.k1, self.k2, self.k3, self.p1, self.p2
        x, y = xd, yd
        for _ in range(max_iter):
            r2 = x * x + y * y
            radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
            dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
            dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
            x_new = (xd - dx) / radial
            y_new = (yd - dy) / radial
            step = max(abs(x_new - x), abs(y_new - y))
            x, y = x_new, y_new
            if step < tol:
                return x, y, True
        return x, y, False

    def jacobian(self, xn: float, yn: float) -> np.ndarray:
        """d(xd, yd)/d(xn, yn), a 2x2 matrix."""
        r2 = xn * xn + yn * yn
        radial = 1.0 + r2 * (self.k1 + r2 * (self.k2 + r2 * self.k3))
        dradial = self.k1 + 2.0 * self.k2 * r2 + 3.0 * self.k3 * r2 * r2
        off = 2.0 * xn * yn * dradial + 2.0 * self.p1 * xn + 2.0 * self.p2 * yn
        return np.array(
            [
                [
                    radial + 2.0 * xn * xn * dradial + 2.0 * self.p1 * yn + 6.0 * self.p2 * xn,
                    off,
                ],
                [
                    off,
                    radial + 2.0 * yn * yn * dradial + 6.0 * self.p1 * yn + 2.0 * self.p2 * xn,
                ],
            ]
        )


@dataclass(frozen=True)
class Pose:
    """World-to-camera rigid transform: X_cam = R @ X_world + t."""

    rvec: tuple[float, float, float]
    t: tuple[float, float, float]

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

    def transform(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + np.array(self.t)


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
        single = pts.ndim == 1
        cam = self.pose.transform(pts.reshape(-1, 3))
        z = cam[:, 2]
        if np.any(z <= _MIN_DEPTH):
            bad = int(np.argmin(z))
            raise BehindCameraError(
                f"point {np.reshape(pts, (-1, 3))[bad]} has camera depth {z[bad]:.4g}"
            )
        xn = cam[:, 0] / z
        yn = cam[:, 1] / z
        xd, yd = self.distortion.distort(xn, yn)
        intr = self.intrinsics
        uv = np.stack(
            [intr.fx * xd + intr.skew * yd + intr.cx, intr.fy * yd + intr.cy], axis=1
        )
        return uv[0] if single else uv

    def project_jacobian(self, point_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Analytic projection Jacobians at one world point.

        Returns ``(J_pose, J_point)`` where J_pose is 2x6 (columns: rvec
        then t) and J_point is 2x3, both in pixels per unit parameter.
        """
        point = np.asarray(point_world, dtype=float).reshape(3)
        rot = self.pose.rotation
        cam = rot @ point + np.array(self.pose.t)
        x, y, z = cam
        if z <= _MIN_DEPTH:
            raise BehindCameraError(f"point {point} has camera depth {z:.4g}")
        persp = np.array([[1.0 / z, 0.0, -x / z**2], [0.0, 1.0 / z, -y / z**2]])
        dist_j = self.distortion.jacobian(x / z, y / z)
        intr = self.intrinsics
        pix = np.array([[intr.fx, intr.skew], [0.0, intr.fy]])
        front = pix @ dist_j @ persp  # 2x3, d(pixel)/d(cam point)
        j_rvec = front @ rotate_point_jacobian(np.array(self.pose.rvec), point)
        j_pose = np.hstack([j_rvec, front])
        j_point = front @ rot
        return j_pose, j_point

    # -- inverse mapping ------------------------------------------------

    def undistort_pixel(self, u: float, v: float) -> tuple[float, float, bool]:
        """Pixel -> ideal normalized coordinates. Returns (xn, yn, converged)."""
        intr = self.intrinsics
        yd = (v - intr.cy) / intr.fy
        xd = (u - intr.cx - intr.skew * yd) / intr.fx
        return self.distortion.undistort(xd, yd)

    def viewing_ray(
        self, u: float, v: float
    ) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """World ray of pixel (u, v): the camera center and a direction.

        The direction is ``R^T @ (xn, yn, 1)`` for the undistorted pixel,
        not normalized; both come as plain floats.
        """
        xn, yn, _ = self.undistort_pixel(float(u), float(v))
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
        horizon).
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
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"{kind} file {path} not found") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{kind} file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"{kind} file {path} must be a JSON object")
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
