"""Exception hierarchy shared across the toolkit, and the one JSON file reader.

The three error families map onto the CLI's exit codes: configuration
problems (bad flags, missing files) exit 2, data problems (malformed or
inconsistent input files) exit 3, numeric problems (geometry or solver
failures) exit 4.
"""

from __future__ import annotations

import json
from pathlib import Path


class PosmapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PosmapError):
    """Invalid run configuration: unknown options, missing files, bad values."""

    exit_code = 2


class DataError(PosmapError):
    """Malformed or internally inconsistent input data."""

    exit_code = 3


class NumericError(PosmapError):
    """Geometry or optimization failure."""

    exit_code = 4


class GeometryError(NumericError):
    """A geometric operation has no valid result for the given input."""


class BehindCameraError(GeometryError):
    """Point at or behind the camera plane cannot be projected."""


class NoGroundIntersectionError(GeometryError):
    """Viewing ray does not hit the ground plane in front of the camera."""


class UndistortionError(GeometryError):
    """Pixel lies where the lens distortion has no valid inverse."""


class DegenerateGeometryError(GeometryError):
    """Input configuration is degenerate (collinear points, parallel planes, ...)."""


class SolverError(NumericError):
    """Least-squares solver failed (non-finite residuals, singular system)."""


def read_json(path: str | Path, kind: str, top: type | tuple[type, ...] = dict):
    """The parsed JSON of ``path``, whose top level must be a ``top`` (dict or list).

    A missing file, invalid JSON or a top level of another type is a
    :class:`DataError` that names the ``kind`` of file and its path.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"{kind} file {path} not found") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{kind} file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, top):
        names = {dict: "object", list: "list"}
        wanted = " or ".join(names[t] for t in (top if isinstance(top, tuple) else (top,)))
        raise DataError(f"{kind} file {path} must be a JSON {wanted}")
    return doc
