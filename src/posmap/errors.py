"""Exception hierarchy shared across the toolkit, the one file rule, the one
JSON file reader, the one number rule and the configuration records' reader.

The three error families map onto the CLI's exit codes: configuration
problems (bad flags and configuration files, unwritable outputs) exit 2,
data problems (unreadable, malformed or inconsistent input files) exit 3,
numeric problems (geometry or solver failures) exit 4.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


class PosmapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PosmapError):
    """Invalid run configuration: bad flags, refused configuration files, unwritable outputs."""

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


@contextmanager
def reading(kind: str, path: str | Path, error: type[PosmapError] = DataError) -> Iterator[None]:
    """The file rule: a fault met reading the ``kind`` file ``path`` is an error naming it.

    A path missing, a directory or unreadable, bytes that are not UTF-8 and a
    malformed document (``AttributeError``, ``IndexError``, ``KeyError``,
    ``OverflowError``, ``TypeError``, ``ValueError``, ``csv.Error``) are a
    ``DataError``. A refused value (a ``ConfigError`` or ``DataError`` raised
    inside) is an ``error``: ``ConfigError`` for camera, intrinsics and extent
    files. One whose message names the file already passes unchanged, so the
    file is named once. Wrap each file once, not each record.
    """
    try:
        yield
    except FileNotFoundError:
        raise DataError(f"{kind} file {path} not found") from None
    except OSError as e:  # a directory, a path under a regular file, no permission
        raise DataError(f"{kind} file {path} cannot be read: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{kind} file {path} is not UTF-8: {e}") from e
    except (ConfigError, DataError) as e:
        if str(path) in str(e):
            raise
        raise error(f"{kind} file {path}: {e}") from e
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError,
            csv.Error) as e:
        raise DataError(f"{kind} file {path} is malformed: {e}") from e


def read_json(path: str | Path, kind: str, top: type | tuple[type, ...] = dict):
    """The parsed JSON of ``path``, whose top level must be a ``top`` (dict or list).

    A file :func:`reading` refuses, invalid JSON or a top level of another
    type is a :class:`DataError` that names the ``kind`` of file and its path.
    """
    with reading(kind, path):
        try:
            doc = json.loads(Path(path).read_bytes())
        # bad JSON or encoding, an integer of over 4300 digits, or lists or
        # objects nested deeper than the decoder recurses
        except (RecursionError, ValueError) as e:
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


def read_numbers(value, field: str, n: int, rule: Rule = FINITE,
                 error: type[PosmapError] = DataError) -> tuple:
    """``value``, a list or tuple of exactly ``n`` numbers, as a tuple read under ``rule``."""
    if type(value) not in (list, tuple) or len(value) != n:
        raise error(f"{field} {value!r} is not a list of {n} numbers")
    return tuple(read_number(v, field, rule, error) for v in value)


def read_fields(record, error: type[PosmapError] = ConfigError,
                names: dict[str, str] | None = None, **rules: Rule | tuple[int, Rule]) -> None:
    """Read fields of the frozen dataclass ``record`` in place, from its ``__post_init__``.

    Each keyword gives a field its :class:`Rule`, or ``(n, rule)`` for exactly
    ``n`` numbers; a refusal is an ``error`` naming the field as ``names``
    (its file's spelling) has it.
    """
    for attr, rule in rules.items():
        value = getattr(record, attr)
        field = names.get(attr, attr) if names else attr
        read = (read_number(value, field, rule, error) if type(rule) is Rule
                else read_numbers(value, field, *rule, error=error))
        if read is not value:
            object.__setattr__(record, attr, read)
