"""Every number of every configuration record, replaced by something that is not one.

The library-level companion of ``test_number_fields.py``. Each number field
of ``Intrinsics``, ``Distortion``, ``Pose``, ``CameraModel``, ``MapExtent``,
``SizePriors``, ``ClassDef`` and ``SimConfig`` (and each number of a field
that holds several) gets, in turn, NaN, +-Infinity, ``True``, a 401-digit
integer, a list and an object; a field of n numbers also gets n - 1 and
n + 1 of them. The record must raise ``ConfigError`` whose message starts
with the field's name as its file spells it. Given a whole number as an int
or in quotes, the record must equal the one built from the float: both
refuse it, or both hold the same number.
"""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmap.camera import CameraModel, Distortion, Intrinsics, Pose
from posmap.errors import ConfigError
from posmap.mapping import MapExtent, SizePriors
from posmap.simulate import SimConfig, default_camera
from posmap.taxonomy import ClassDef

BAD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "bool": True,
              "overflow": 10**400, "list": [1.0], "object": {"a": 1}}

_EXTENT = MapExtent((1.0, 2.0), 1.0, 4.0, 32.0)
_CAMERA = default_camera(_EXTENT)

# each record's class and the keyword arguments of a valid one, every number whole
RECORDS = {
    "Intrinsics": (Intrinsics, {"fx": 1400.0, "fy": 1400.0, "cx": 960.0, "cy": 540.0,
                                "skew": 0.0}),
    "Distortion": (Distortion, {"k1": -1.0, "k2": 0.0, "k3": 1.0, "p1": 0.0, "p2": -1.0}),
    "Pose": (Pose, {"rvec": (1.0, -2.0, 3.0), "t": (1.0, 2.0, 8.0)}),
    "CameraModel": (CameraModel, {"intrinsics": _CAMERA.intrinsics,
                                  "distortion": _CAMERA.distortion, "pose": _CAMERA.pose,
                                  "image_size": (1920, 1080)}),
    "MapExtent": (MapExtent, {"origin": (1.0, 2.0), "rotation": 1.0, "width": 4.0,
                              "length": 32.0}),
    "SizePriors": (SizePriors, {"by_class": {"cyclist": (1.0, 2.0)}, "default": (1.0, 1.0)}),
    "ClassDef": (ClassDef, {"class_id": 3, "name": "pedestrian", "supercategory": "people"}),
    "SimConfig": (SimConfig, {"extent": _EXTENT, "camera": _CAMERA, "n_agents": 12,
                              "cyclist_fraction": 1.0, "fps": 2.0, "seed": 3, "noise_px": 2.0,
                              "miss_rate": 0.0, "confusion_rate": 1.0, "attractor": (1.0, 2.0)}),
}

# a field as its file spells it, where that is not its name
SPELLED = {"rvec": "axis_angle", "class_id": "id", "default": "size prior of the default",
           "by_class": "size prior of class 'cyclist'"}


def _numbers(value, path: tuple) -> list[tuple[tuple, int | None]]:
    """(path, n) of each number under ``value`` (n None) and each tuple of n numbers."""
    if type(value) in (int, float):
        return [(path, None)]
    if type(value) is tuple:
        return [(path, len(value))] + [
            found for i, v in enumerate(value) for found in _numbers(v, (*path, i))]
    if type(value) is dict:
        return [found for k, v in value.items() for found in _numbers(v, (*path, k))]
    return []


def _get(container, path: tuple):
    for key in path:
        container = container[key]
    return container


def _set(container, path: tuple, value):
    """``container`` (a dict or tuple) with the item at ``path`` replaced by ``value``."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if type(container) is dict:
        return {**container, key: _set(container[key], rest, value)}
    items = list(container)
    items[key] = _set(items[key], rest, value)
    return tuple(items)


CASES = [pytest.param(record, path, n, id=f"{record} {'.'.join(map(str, path))}")
         for record, (_, kwargs) in RECORDS.items()
         for path, n in _numbers(kwargs, ())]


def test_the_cases_cover_every_field():
    # every field is set, so every number among them is a case
    for cls, kwargs in RECORDS.values():
        assert set(kwargs) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("record, path, n", CASES)
def test_a_number_that_is_not_one_is_refused_naming_its_field(record, path, n):
    cls, kwargs = RECORDS[record]
    named = re.escape(SPELLED.get(path[0], path[0])) + " "
    wrong_lengths = [] if n is None else [(1.0,) * (n - 1), [1.0] * (n + 1)]
    for bad in [*BAD_VALUES.values(), *wrong_lengths]:
        with pytest.raises(ConfigError, match=f"^{named}"):
            cls(**_set(kwargs, path, bad))


@pytest.mark.parametrize("record, path", [pytest.param(*case.values[:2], id=case.id)
                                          for case in CASES if case.values[2] is None])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_an_int_or_a_quoted_number_builds_the_record_its_float_builds(record, path, data):
    cls, kwargs = RECORDS[record]
    valid = int(_get(kwargs, path))
    number = data.draw(st.one_of(st.just(valid), st.integers(-10**6, 10**6)), label="number")

    def build(value):
        try:
            return cls(**_set(kwargs, path, value))
        except ConfigError:
            return None

    from_float = build(float(number))
    assert build(number) == from_float
    assert build(str(number)) == from_float
    assert number != valid or from_float is not None
