"""Camera calibration from point correspondences.

Two entry points:

- :func:`calibrate_intrinsics_planar` recovers intrinsics (and optionally
  distortion) from several views of a planar reference pattern, using the
  closed-form homography solution followed by a joint bundle refinement.
- :func:`solve_extrinsics` recovers the world pose of an already
  intrinsically calibrated camera from surveyed reference points, e.g.
  pavement marks measured with RTK GNSS.

All refinements minimize reprojection error in pixels, so the reported RMS
is directly comparable across cameras.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import (
    CameraModel,
    Distortion,
    Intrinsics,
    Pose,
    project_jacobians,
    project_points,
    undistort_pixel,
)
from .errors import DataError, DegenerateGeometryError, UndistortionError, read_json, read_number
from .lm import levenberg_marquardt

__all__ = [
    "ExtrinsicsResult",
    "PlanarCalibrationResult",
    "GroundMappingError",
    "solve_extrinsics",
    "ground_mapping_error",
    "calibrate_intrinsics_planar",
    "load_correspondences",
    "load_planar_views",
]


@dataclass(frozen=True)
class ExtrinsicsResult:
    pose: Pose
    rms_px: float


@dataclass(frozen=True)
class PlanarCalibrationResult:
    intrinsics: Intrinsics
    distortion: Distortion
    view_poses: tuple[Pose, ...]
    rms_px: float


# ---------------------------------------------------------------------------
# homography estimation (normalized DLT)
# ---------------------------------------------------------------------------


def _normalizing_similarity(pts: np.ndarray) -> np.ndarray:
    """Similarity that moves pts to centroid 0 with mean distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    dist = np.linalg.norm(pts - centroid, axis=1).mean()
    if dist < 1e-12:
        raise DegenerateGeometryError("reference points are coincident")
    s = np.sqrt(2.0) / dist
    return np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )


def _homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Plane-to-plane homography mapping src (N,2) onto dst (N,2)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if len(src) < 4:
        raise DegenerateGeometryError(
            f"homography needs at least 4 correspondences, got {len(src)}"
        )
    t_src = _normalizing_similarity(src)
    t_dst = _normalizing_similarity(dst)
    sh = np.column_stack([src, np.ones(len(src))]) @ t_src.T
    dh = np.column_stack([dst, np.ones(len(dst))]) @ t_dst.T

    rows = []
    for (x, y, _), (u, v, _) in zip(sh, dh):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.asarray(rows)
    _, sv, vt = np.linalg.svd(a)
    if sv[-2] < 1e-9 * sv[0]:
        raise DegenerateGeometryError(
            "reference points are degenerate (collinear or coincident)"
        )
    h = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h @ t_src
    return h / h[2, 2]


def _orthonormalize(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def _pose_from_plane_homography(h: np.ndarray, world_xy: np.ndarray) -> Pose:
    """Decompose a plane(Z=0)->normalized-image homography into R, t."""
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    lam = 2.0 / (np.linalg.norm(h1) + np.linalg.norm(h2))
    # fix the sign so the reference points sit in front of the camera
    depths = lam * (world_xy @ h[2, :2] + h[2, 2])
    if np.median(depths) < 0:
        lam = -lam
    r1, r2, t = lam * h1, lam * h2, lam * h3
    rot = _orthonormalize(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return Pose.from_matrix(rot, t)


# ---------------------------------------------------------------------------
# pose refinement
# ---------------------------------------------------------------------------


def _refine_pose(
    intr: Intrinsics,
    dist: Distortion,
    pose0: Pose,
    world: np.ndarray,
    pixels: np.ndarray,
) -> tuple[Pose, float]:
    """The pose minimizing pixel reprojection error, and its RMS in pixels."""

    def residuals(theta: np.ndarray) -> np.ndarray:
        uv = project_points(intr, dist, theta[:3], theta[3:], world)
        return (uv - pixels).ravel()

    def jac(theta: np.ndarray) -> np.ndarray:
        j_pose, _ = project_jacobians(intr, dist, theta[:3], theta[3:], world)
        return j_pose.reshape(-1, 6)

    theta0 = np.array([*pose0.rvec, *pose0.t])
    res = levenberg_marquardt(residuals, theta0, jac=jac, max_iter=200)
    pose = Pose(tuple(float(v) for v in res.params[:3]), tuple(float(v) for v in res.params[3:]))
    return pose, _rms_px(residuals(res.params), len(world))


def _rms_px(residuals: np.ndarray, n_points: int) -> float:
    return float(np.sqrt(np.sum(residuals**2) / n_points))


# ---------------------------------------------------------------------------
# extrinsics from surveyed reference points
# ---------------------------------------------------------------------------


def solve_extrinsics(
    intrinsics: Intrinsics,
    distortion: Distortion,
    world_points: np.ndarray,
    pixel_points: np.ndarray,
) -> ExtrinsicsResult:
    """World pose of a camera from 3D reference points and their pixels.

    If every reference point lies on the ground plane the initial pose comes
    from a homography decomposition (minimum 4 points); otherwise a 3D DLT
    is used (minimum 6 points). Either way the pose is then refined by
    minimizing pixel reprojection error over all points.
    """
    world = np.asarray(world_points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixel_points, dtype=float).reshape(-1, 2)
    if len(world) != len(pixels):
        raise DataError(
            f"point count mismatch: {len(world)} world vs {len(pixels)} pixel"
        )
    if len(world) < 4:
        raise DegenerateGeometryError(
            f"extrinsics need at least 4 reference points, got {len(world)}"
        )

    # work in ideal normalized coordinates for the linear initialization
    norm = np.empty((len(pixels), 2))
    for i, (u, v) in enumerate(pixels):
        try:
            norm[i] = undistort_pixel(intrinsics, distortion, u, v)
        except UndistortionError as e:
            raise DataError(f"reference point {i}: {e}") from e

    planar = bool(np.all(np.abs(world[:, 2]) < 1e-9))
    if planar:
        h = _homography(world[:, :2], norm)
        pose0 = _pose_from_plane_homography(h, world[:, :2])
    else:
        if len(world) < 6:
            raise DegenerateGeometryError(
                "non-planar extrinsics need at least 6 reference points, "
                f"got {len(world)}"
            )
        pose0 = _pose_from_dlt(world, norm)

    pose, rms_px = _refine_pose(intrinsics, distortion, pose0, world, pixels)
    return ExtrinsicsResult(pose=pose, rms_px=rms_px)


@dataclass(frozen=True)
class GroundMappingError:
    """Ground-plane residuals of a calibrated camera, in metres."""

    mean_m: float
    max_m: float
    per_point: tuple[float, ...]


def ground_mapping_error(
    camera: CameraModel,
    world_points: np.ndarray,
    pixel_points: np.ndarray,
) -> GroundMappingError:
    """How far the camera's ground mapping lands from surveyed points.

    Each reference pixel is back-projected onto Z=0 and compared with its
    surveyed world position; the Euclidean distance in the plane is the
    per-point error. All reference points must lie on the ground plane.
    """
    world = np.asarray(world_points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixel_points, dtype=float).reshape(-1, 2)
    if len(world) != len(pixels):
        raise DataError(
            f"point count mismatch: {len(world)} world vs {len(pixels)} pixel"
        )
    if len(world) == 0:
        raise DataError("ground mapping error needs at least one reference point")
    if np.any(np.abs(world[:, 2]) > 1e-9):
        raise DataError("ground mapping references must lie on Z=0")
    errors = []
    for (wx, wy, _), (u, v) in zip(world, pixels):
        gx, gy = camera.back_project_ground(float(u), float(v))
        errors.append(float(np.hypot(gx - wx, gy - wy)))
    return GroundMappingError(
        mean_m=float(np.mean(errors)),
        max_m=float(np.max(errors)),
        per_point=tuple(errors),
    )


def _pose_from_dlt(world: np.ndarray, norm: np.ndarray) -> Pose:
    """Direct linear transform for P = [R|t] in normalized image coords."""
    rows = []
    for (x, y, z), (u, v) in zip(world, norm):
        rows.append([x, y, z, 1, 0, 0, 0, 0, -u * x, -u * y, -u * z, -u])
        rows.append([0, 0, 0, 0, x, y, z, 1, -v * x, -v * y, -v * z, -v])
    a = np.asarray(rows)
    _, sv, vt = np.linalg.svd(a)
    if sv[-2] < 1e-9 * sv[0]:
        raise DegenerateGeometryError(
            "reference points are degenerate for 3D resection "
            "(coplanar or collinear)"
        )
    p = vt[-1].reshape(3, 4)
    m = p[:, :3]
    scale = np.linalg.det(m)
    if scale < 0:
        p = -p
        m = -m
    # scale so the rotation part has unit singular values
    s = np.linalg.svd(m, compute_uv=False).mean()
    if s < 1e-12:
        raise DegenerateGeometryError("resection produced a singular camera matrix")
    p = p / s
    rot = _orthonormalize(p[:, :3])
    t = p[:, 3]
    depths = world @ rot[2] + t[2]
    if np.median(depths) < 0:
        raise DegenerateGeometryError(
            "resection placed the reference points behind the camera"
        )
    return Pose.from_matrix(rot, t)


# ---------------------------------------------------------------------------
# planar intrinsic calibration
# ---------------------------------------------------------------------------


def calibrate_intrinsics_planar(
    views: list[tuple[np.ndarray, np.ndarray]],
    *,
    fit_distortion: bool = True,
    fix_skew: bool = False,
) -> PlanarCalibrationResult:
    """Intrinsics (+ distortion) from several views of a planar pattern.

    ``views`` holds (plane_xy (N,2), pixels (N,2)) pairs, one per image of
    the pattern; the plane coordinates are in metres in the pattern's own
    frame. At least 3 views with distinct orientations are required to
    determine all five intrinsic parameters.
    """
    if len(views) < 3:
        raise DegenerateGeometryError(
            f"planar calibration needs at least 3 views, got {len(views)}"
        )
    prepared: list[tuple[np.ndarray, np.ndarray]] = []
    for plane_xy, pixels in views:
        plane_xy = np.asarray(plane_xy, dtype=float).reshape(-1, 2)
        pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        if len(plane_xy) != len(pixels):
            raise DataError("view has mismatched plane/pixel point counts")
        prepared.append((plane_xy, pixels))

    homographies = [_homography(p, px) for p, px in prepared]
    intr0 = _zhang_closed_form(homographies)

    # per-view starting poses from the closed-form intrinsics
    kinv = np.linalg.inv(intr0.matrix())
    poses0 = []
    for h, (plane_xy, _) in zip(homographies, prepared):
        poses0.append(_pose_from_plane_homography(kinv @ h, plane_xy))

    theta0 = [intr0.fx, intr0.fy, intr0.cx, intr0.cy, intr0.skew]
    if fix_skew:
        theta0[4] = 0.0
    theta0 += [0.0] * 5  # k1 k2 k3 p1 p2
    for pose in poses0:
        theta0 += [*pose.rvec, *pose.t]
    theta0 = np.array(theta0)

    n_views = len(prepared)

    def unpack(theta: np.ndarray) -> tuple[Intrinsics, Distortion, list[np.ndarray]]:
        skew = 0.0 if fix_skew else float(theta[4])
        intr = Intrinsics(
            fx=float(theta[0]), fy=float(theta[1]), cx=float(theta[2]),
            cy=float(theta[3]), skew=skew,
        )
        if fit_distortion:
            dist = Distortion(*(float(v) for v in theta[5:10]))
        else:
            dist = Distortion()
        return intr, dist, [theta[10 + 6 * i : 16 + 6 * i] for i in range(n_views)]

    def residuals(theta: np.ndarray) -> np.ndarray:
        if theta[0] <= 0 or theta[1] <= 0:
            return np.full(sum(2 * len(p) for p, _ in prepared), np.inf)
        intr, dist, pose_vecs = unpack(theta)
        chunks = []
        for (plane_xy, pixels), pv in zip(prepared, pose_vecs):
            world = np.column_stack([plane_xy, np.zeros(len(plane_xy))])
            uv = project_points(intr, dist, pv[:3], pv[3:], world)
            chunks.append((uv - pixels).ravel())
        return np.concatenate(chunks)

    res = levenberg_marquardt(
        residuals, theta0, max_iter=300, gradient_tol=1e-14, step_tol=1e-14
    )
    intr, dist, pose_vecs = unpack(res.params)
    view_poses = tuple(
        Pose(tuple(float(v) for v in pv[:3]), tuple(float(v) for v in pv[3:]))
        for pv in pose_vecs
    )
    n_points = sum(len(p) for p, _ in prepared)
    return PlanarCalibrationResult(
        intrinsics=intr,
        distortion=dist,
        view_poses=view_poses,
        rms_px=_rms_px(residuals(res.params), n_points),
    )


def _zhang_closed_form(homographies: list[np.ndarray]) -> Intrinsics:
    """Closed-form intrinsics from plane homographies (absolute conic fit)."""

    def v_ij(h: np.ndarray, i: int, j: int) -> np.ndarray:
        return np.array(
            [
                h[0, i] * h[0, j],
                h[0, i] * h[1, j] + h[1, i] * h[0, j],
                h[1, i] * h[1, j],
                h[2, i] * h[0, j] + h[0, i] * h[2, j],
                h[2, i] * h[1, j] + h[1, i] * h[2, j],
                h[2, i] * h[2, j],
            ]
        )

    rows = []
    for h in homographies:
        rows.append(v_ij(h, 0, 1))
        rows.append(v_ij(h, 0, 0) - v_ij(h, 1, 1))
    vmat = np.asarray(rows)
    _, sv, vt = np.linalg.svd(vmat)
    if sv[-2] < 1e-9 * sv[0]:
        raise DegenerateGeometryError(
            "pattern views are degenerate (parallel planes give no constraint)"
        )
    b11, b12, b22, b13, b23, b33 = vt[-1]
    if b11 < 0:
        b11, b12, b22, b13, b23, b33 = -b11, -b12, -b22, -b13, -b23, -b33

    den = b11 * b22 - b12 * b12
    if den <= 0 or b11 <= 0:
        raise DegenerateGeometryError("absolute-conic fit is not positive definite")
    v0 = (b12 * b13 - b11 * b23) / den
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0:
        raise DegenerateGeometryError("absolute-conic fit is not positive definite")
    alpha = float(np.sqrt(lam / b11))
    beta = float(np.sqrt(lam * b11 / den))
    gamma = float(-b12 * alpha * alpha * beta / lam)
    u0 = float(gamma * v0 / beta - b13 * alpha * alpha / lam)
    return Intrinsics(fx=alpha, fy=beta, cx=u0, cy=float(v0), skew=gamma)


# ---------------------------------------------------------------------------
# file loaders
# ---------------------------------------------------------------------------


def load_correspondences(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a reference-point CSV with header X,Y,Z,u,v (metres / pixels)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"correspondence file {path} not found")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"X", "Y", "Z", "u", "v"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(
                f"correspondence file {path} must have columns X,Y,Z,u,v "
                f"(got {reader.fieldnames})"
            )
        world, pixels = [], []
        for row in reader:
            try:
                world.append([read_number(row[k], k) for k in ("X", "Y", "Z")])
                pixels.append([read_number(row[k], k) for k in ("u", "v")])
            except DataError as e:
                raise DataError(f"{path}:{reader.line_num}: bad number: {e}") from e
    if not world:
        raise DataError(f"correspondence file {path} has no data rows")
    return np.asarray(world), np.asarray(pixels)


def load_planar_views(path: str | Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read planar calibration views from JSON: [{"plane": [[x,y]..], "pixels": [[u,v]..]}..]."""
    doc = read_json(path, "view", list)
    if not doc:
        raise DataError(f"view file {path} must be a non-empty JSON list")
    views = []
    for i, entry in enumerate(doc):
        try:
            view = []
            for key in ("plane", "pixels"):
                points = np.asarray(entry[key], dtype=object)
                coords = [read_number(v, key) for v in points.flat]
                view.append(np.array(coords, dtype=float).reshape(points.shape))
            views.append(tuple(view))
        except (DataError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"view {i} in {path} is malformed: {e}") from e
    return views
