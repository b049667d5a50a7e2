"""Ground-plane behavioral mapping.

Turns per-image polygon detections into world-frame observations: the foot
contact point of each person is back-projected onto the ground plane, and a
class-conditional size prior plus the head pixel give a full oriented 3D
box. Results can be restricted to a surveyed map extent (a rotated
rectangle on the ground). A long recording is thinned to one frame per
sampling window before any frame is mapped (:func:`sample_frames`).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .camera import CameraModel
from .coco import Annotation
from .errors import (POSITIVE, WHOLE, ConfigError, DataError, DegenerateGeometryError,
                     GeometryError, read_json, read_number)
from .taxonomy import Treatment

__all__ = [
    "footpoint",
    "top_point",
    "SizePriors",
    "Box3D",
    "estimate_box3d",
    "MapExtent",
    "extent_to_dict",
    "extent_from_dict",
    "load_extent",
    "save_extent",
    "GroundObservation",
    "locate",
    "FrameMapResult",
    "map_frame",
    "sample_frames",
    "save_observations",
    "load_observations",
]

_BAND_FRACTION = 0.05


def _polygon_band_midpoint(ann: Annotation, bottom: bool) -> tuple[float, float]:
    """Midpoint of the bounding box of the vertices in the bottom (or top) band.

    The band holds the vertices within 5% of the polygon's height of its
    lowest (or highest) vertex, which always belongs to it.
    """
    seg = ann.segmentation
    if len(seg) == 1:
        xs, ys = seg[0][0::2], seg[0][1::2]
    else:
        xs = [x for part in seg for x in part[0::2]]
        ys = [y for part in seg for y in part[1::2]]
    sign = 1.0 if bottom else -1.0
    if not bottom:  # the top band is the bottom band of the polygon mirrored in y
        ys = [-y for y in ys]
    edge = max(ys)
    cut = edge - _BAND_FRACTION * (edge - min(ys))
    x_lo = x_hi = xs[ys.index(edge)]
    inner = edge  # the band vertex farthest from the edge
    for x, y in zip(xs, ys):
        if y >= cut:
            if x < x_lo:
                x_lo = x
            elif x > x_hi:
                x_hi = x
            if y < inner:
                inner = y
    # mirrored back before the sum, which keeps the sign of a zero midpoint
    return (x_lo + x_hi) / 2.0, (sign * inner + sign * edge) / 2.0


def footpoint(ann: Annotation) -> tuple[float, float]:
    """Pixel where the object touches the ground.

    Midpoint of the bounding box of the lowest 5% vertex band of the
    polygon; bottom-center of the bbox when there is no polygon.
    """
    if ann.segmentation:
        return _polygon_band_midpoint(ann, bottom=True)
    x, y, w, h = ann.bbox
    return x + w / 2.0, y + h


def top_point(ann: Annotation) -> tuple[float, float]:
    """Pixel at the top of the object (head), mirroring :func:`footpoint`."""
    if ann.segmentation:
        return _polygon_band_midpoint(ann, bottom=False)
    x, y, w, _ = ann.bbox
    return x + w / 2.0, y


@dataclass(frozen=True)
class SizePriors:
    """Class-conditional footprint priors (width, length) in metres.

    Classes without an entry fall back to the default (standing-person)
    footprint. Every size must be finite and positive; any other is a
    ``ConfigError`` that names its class.
    """

    by_class: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {
            "pedestrian": (0.50, 0.60),
            "cyclist": (0.50, 1.60),
        }
    )
    default: tuple[float, float] = (0.50, 0.60)

    def __post_init__(self) -> None:
        sizes = {f"class {name!r}": size for name, size in self.by_class.items()}
        for what, size in [*sizes.items(), ("the default", self.default)]:
            if not all(0.0 < v < math.inf for v in size):
                raise ConfigError(f"size prior of {what} must be finite and positive, got {size}")

    def lookup(self, class_name: str) -> tuple[float, float]:
        return self.by_class.get(class_name, self.default)


@dataclass(frozen=True)
class Box3D:
    """Heading and size of an upright box; its place is the observation's (x, y)."""

    yaw: float
    width: float
    length: float
    height: float


_HEIGHT_RANGE = (0.3, 3.0)


def estimate_box3d(
    camera: CameraModel,
    ground_xy: tuple[float, float],
    top_pixel: tuple[float, float],
    prior: tuple[float, float],
) -> Box3D:
    """Oriented 3D box from a ground contact point and a head pixel.

    A single camera cannot observe depth along the viewing ray, so the box
    is oriented away from the camera (yaw along the ray's ground trace).
    Height comes from the point on the head-pixel ray closest (in the
    ground plane) to the contact point, clamped to the plausible person
    range.
    """
    gx, gy = ground_xy
    (cx, cy, cz), (dx, dy, dz) = camera.viewing_ray(top_pixel[0], top_pixel[1])
    yaw = math.atan2(gy - cy, gx - cx)
    width, length = prior

    horiz2 = dx * dx + dy * dy
    if horiz2 < 1e-12:
        raise DegenerateGeometryError(
            "head-pixel ray is vertical; height is unobservable"
        )
    s = ((gx - cx) * dx + (gy - cy) * dy) / horiz2
    height = cz + s * dz
    height = min(max(height, _HEIGHT_RANGE[0]), _HEIGHT_RANGE[1])
    return Box3D(yaw=yaw, width=width, length=length, height=height)


@dataclass(frozen=True)
class MapExtent:
    """A rotated rectangle on the ground plane, e.g. a road segment.

    ``origin`` is the world position of the rectangle's corner; ``rotation``
    (radians, counter-clockwise) takes the rectangle's local +x axis into
    the world. Containment is closed on all edges. :meth:`to_local`,
    :meth:`to_world` and :meth:`contains` take floats or equal-shaped numpy
    arrays. A non-finite origin or rotation, or a size that is not finite
    and positive, is a :class:`ConfigError`.
    """

    origin: tuple[float, float]
    rotation: float
    width: float
    length: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.origin, self.rotation))):
            raise ConfigError(f"extent origin and rotation must be finite, got {self}")
        if not (0.0 < self.width < math.inf and 0.0 < self.length < math.inf):
            raise ConfigError(
                f"extent width and length must be finite and positive, got {self}"
            )

    def to_local(self, x: float, y: float) -> tuple[float, float]:
        dx, dy = x - self.origin[0], y - self.origin[1]
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        return c * dx - s * dy, s * dx + c * dy

    def to_world(self, lx: float, ly: float) -> tuple[float, float]:
        """Inverse of :meth:`to_local`."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return self.origin[0] + c * lx - s * ly, self.origin[1] + s * lx + c * ly

    def contains(self, x, y):
        lx, ly = self.to_local(x, y)
        return (0.0 <= lx) & (lx <= self.width) & (0.0 <= ly) & (ly <= self.length)


def extent_to_dict(extent: MapExtent) -> dict:
    """The extent as its JSON object: ``origin``, ``rotation``, ``width``, ``length``."""
    return {
        "origin": list(extent.origin),
        "rotation": extent.rotation,
        "width": extent.width,
        "length": extent.length,
    }


def extent_from_dict(doc: dict) -> MapExtent:
    """Inverse of :func:`extent_to_dict`.

    A missing field raises ``KeyError``, ``IndexError`` or ``TypeError``; a
    value that is not a finite number, or one :class:`MapExtent` refuses,
    raises ``ConfigError``. Callers name the file in the error.
    """
    origin = doc["origin"]
    return MapExtent(
        origin=(read_number(origin[0], "origin", error=ConfigError),
                read_number(origin[1], "origin", error=ConfigError)),
        rotation=read_number(doc["rotation"], "rotation", error=ConfigError),
        width=read_number(doc["width"], "width", error=ConfigError),
        length=read_number(doc["length"], "length", error=ConfigError),
    )


def save_extent(path: str | Path, extent: MapExtent) -> None:
    Path(path).write_text(json.dumps(extent_to_dict(extent), indent=2) + "\n")


def load_extent(path: str | Path) -> MapExtent:
    doc = read_json(path, "extent")
    try:
        return extent_from_dict(doc)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise DataError(f"extent file {path} is malformed: {e}") from e
    except ConfigError as e:
        raise ConfigError(f"extent file {path}: {e}") from e


@dataclass(frozen=True)
class GroundObservation:
    """One person located on the ground plane."""

    class_name: str
    x: float
    y: float
    box: Box3D
    annotation_id: int
    image_id: int
    timestamp: float | None = None
    source: str = ""
    score: float | None = None


def locate(
    camera: CameraModel,
    ann: Annotation,
    class_name: str,
    *,
    priors: SizePriors | None = None,
    timestamp: float | None = None,
    image_id: int = 0,
    source: str = "",
) -> GroundObservation:
    """Locate a single detection on the ground plane.

    The footpoint pixel is back-projected onto Z=0 and a prior-sized 3D box
    is fitted; the observation carries ``class_name``, which also selects
    the size prior. Geometry errors (horizon footpoint, vertical head ray,
    a pixel the lens cannot undistort) propagate to the caller.
    """
    fu, fv = footpoint(ann)
    gx, gy = camera.back_project_ground(fu, fv)
    box = estimate_box3d(
        camera, (gx, gy), top_point(ann), (priors or SizePriors()).lookup(class_name)
    )
    return GroundObservation(
        class_name=class_name,
        x=gx,
        y=gy,
        box=box,
        annotation_id=ann.id,
        image_id=image_id,
        timestamp=timestamp,
        source=source,
        score=ann.score,
    )


@dataclass(frozen=True)
class FrameMapResult:
    observations: tuple[GroundObservation, ...]
    out_of_extent: tuple[GroundObservation, ...]
    failures: tuple[tuple[int, str], ...]


def map_frame(
    camera: CameraModel,
    annotations: list[Annotation],
    class_names: dict[int, str],
    treatment: Treatment,
    *,
    extent: MapExtent | None = None,
    priors: SizePriors | None = None,
    timestamp: float | None = None,
    image_id: int = 0,
    source: str = "",
) -> FrameMapResult:
    """Map one frame's detections onto the ground plane.

    Only annotations whose post-treatment class belongs to the ``people``
    super-category are mapped, under that name; geometry failures (horizon
    pixels, vertical rays, pixels the lens cannot undistort) are recorded
    per annotation rather than aborting the frame.
    """
    priors = priors or SizePriors()
    kept: list[GroundObservation] = []
    outside: list[GroundObservation] = []
    failures: list[tuple[int, str]] = []
    for ann in annotations:
        name = class_names.get(ann.category_id)
        if name is None:
            raise DataError(
                f"annotation {ann.id} references unknown category {ann.category_id}"
            )
        mapped = treatment.apply(name)
        if treatment.taxonomy.by_name(mapped).supercategory != "people":
            continue
        try:
            obs = locate(
                camera,
                ann,
                mapped,
                priors=priors,
                timestamp=timestamp,
                image_id=image_id,
                source=source,
            )
        except GeometryError as e:
            failures.append((ann.id, str(e)))
            continue
        if extent is not None and not extent.contains(obs.x, obs.y):
            outside.append(obs)
        else:
            kept.append(obs)
    return FrameMapResult(
        observations=tuple(kept),
        out_of_extent=tuple(outside),
        failures=tuple(failures),
    )


def sample_frames(timestamps: Sequence[float], rate_hz: float) -> list[int]:
    """Indices of the frames kept when a recording is thinned to ``rate_hz``.

    Frame ``i`` falls in window ``floor(timestamps[i] * rate_hz + 1e-9)``;
    the first frame of each window claims it, even when it holds no people,
    so a later frame cannot take its place. Indices come out in window
    order. A rate that is not finite and positive is a :class:`ConfigError`.
    """
    read_number(rate_hz, "sample rate", POSITIVE, ConfigError)
    first: dict[int, int] = {}
    for index, ts in enumerate(timestamps):
        first.setdefault(math.floor(ts * rate_hz + 1e-9), index)
    return [first[window] for window in sorted(first)]


# ---------------------------------------------------------------------------
# observation persistence
# ---------------------------------------------------------------------------

_OBS_FIELDS = (
    "source",
    "image_id",
    "annotation_id",
    "timestamp",
    "class_name",
    "x",
    "y",
    "yaw",
    "width",
    "length",
    "height",
    "score",
)


def save_observations(path: str | Path, observations: list[GroundObservation]) -> int:
    """Write observations to CSV. Floats use shortest round-trip formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_OBS_FIELDS)
        for o in observations:
            writer.writerow(
                [
                    o.source,
                    o.image_id,
                    o.annotation_id,
                    "" if o.timestamp is None else repr(float(o.timestamp)),
                    o.class_name,
                    repr(float(o.x)),
                    repr(float(o.y)),
                    repr(float(o.box.yaw)),
                    repr(float(o.box.width)),
                    repr(float(o.box.length)),
                    repr(float(o.box.height)),
                    "" if o.score is None else repr(float(o.score)),
                ]
            )
    return len(observations)


def load_observations(path: str | Path) -> list[GroundObservation]:
    """Read observations written by :func:`save_observations`.

    Columns may come in any order; every row must have all of them. The
    ids are whole numbers, and every other number must be finite.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"observation file {path} not found")
    out: list[GroundObservation] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or set(_OBS_FIELDS) - set(header):
            raise DataError(
                f"observation file {path} must have columns {','.join(_OBS_FIELDS)}"
            )
        (
            i_source, i_image, i_ann, i_ts, i_class,
            i_x, i_y, i_yaw, i_width, i_length, i_height, i_score,
        ) = (header.index(name) for name in _OBS_FIELDS)
        for row in reader:
            if not row:
                continue
            try:
                # positional, in field order: a dataclass binds keywords at twice the cost
                out.append(
                    GroundObservation(
                        row[i_class],
                        read_number(row[i_x], "x"),
                        read_number(row[i_y], "y"),
                        Box3D(
                            read_number(row[i_yaw], "yaw"),
                            read_number(row[i_width], "width"),
                            read_number(row[i_length], "length"),
                            read_number(row[i_height], "height"),
                        ),
                        read_number(row[i_ann], "annotation_id", WHOLE),
                        read_number(row[i_image], "image_id", WHOLE),
                        read_number(row[i_ts], "timestamp") if row[i_ts] else None,
                        row[i_source],
                        read_number(row[i_score], "score") if row[i_score] else None,
                    )
                )
            except (DataError, IndexError) as e:
                raise DataError(
                    f"{path}:{reader.line_num}: bad observation row: {e}"
                ) from e
    return out
