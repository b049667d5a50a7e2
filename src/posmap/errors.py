"""Exception hierarchy shared across the toolkit, the one JSON file reader
and the one number rule.

The three error families map onto the CLI's exit codes: configuration
problems (bad flags, missing files) exit 2, data problems (malformed or
inconsistent input files) exit 3, numeric problems (geometry or solver
failures) exit 4.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
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
        doc = json.loads(Path(path).read_bytes())
    except FileNotFoundError:
        raise DataError(f"{kind} file {path} not found") from None
    except ValueError as e:  # bad JSON or encoding, or an integer of over 4300 digits
        raise DataError(f"{kind} file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, top):
        names = {dict: "object", list: "list"}
        wanted = " or ".join(names[t] for t in (top if isinstance(top, tuple) else (top,)))
        raise DataError(f"{kind} file {path} must be a JSON {wanted}")
    return doc


@dataclass(frozen=True, slots=True)
class Rule:
    """A ``kind`` (``float`` or ``int``) within ``[low, high]``, as ``text`` states it."""

    text: str
    kind: type
    low: float
    high: float


_MAX = sys.float_info.max

FINITE = Rule("a finite number", float, -_MAX, _MAX)
POSITIVE = Rule("a finite number > 0", float, math.ulp(0.0), _MAX)
NON_NEGATIVE = Rule("a finite number >= 0", float, 0.0, _MAX)
UNIT = Rule("a number in [0, 1]", float, 0.0, 1.0)
OPEN_UNIT = Rule("a number in (0, 1)", float, math.ulp(0.0), math.nextafter(1.0, 0.0))
WHOLE = Rule("a whole number in [-2**63, 2**63)", int, -(2**63), 2**63 - 1)
NON_NEGATIVE_WHOLE = Rule("a whole number in [0, 2**63)", int, 0, 2**63 - 1)
POSITIVE_WHOLE = Rule("a whole number in [1, 2**63)", int, 1, 2**63 - 1)


def read_number(value, field: str, rule: Rule = FINITE,
                error: type[PosmapError] = DataError, quoted: bool = True):
    """``value``, a decoded JSON value, CSV cell or flag text, as a number under ``rule``.

    A float rule reads an int or a float as a float; a whole rule reads an
    int, or a float without a fraction, as an int; a string reads as the
    number it spells unless ``quoted`` is false. Any other value is an
    ``error`` (``ConfigError`` or ``DataError``) naming ``field``.
    """
    if type(value) is rule.kind and rule.low <= value <= rule.high:
        return value
    try:
        if type(value) is str:
            parsed = rule.kind(value) if quoted else math.nan
        elif type(value) is bool:
            parsed = math.nan
        else:
            parsed = rule.kind(value)
            if rule.kind is int and parsed != value:  # int() drops a fraction
                parsed = math.nan
    except (OverflowError, TypeError, ValueError):
        parsed = math.nan
    # NaN fails both comparisons
    if rule.low <= parsed <= rule.high:
        return parsed
    raise error(f"{field} {value!r} is not {rule.text}")
