"""Every number a command reads from a file, replaced by something that is not one.

Each field of each input file (the camera, intrinsics and extent files, the
dataset file, both detection forms, obs.csv, a raster's header and cells,
survey points, calibration views and the taxonomy) gets, in turn, NaN,
+-Infinity, a 401-digit integer, a list and an object (in a CSV file, their
text forms). The command that reads the file must refuse it with exit 2 or 3
and name the file on stderr: accepting the value (exit 0) or a traceback
(exit 1) fails. The runs are in-process, through ``posmap.cli.main``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posmap.camera import load_camera
from posmap.cli import main
from posmap.taxonomy import default_taxonomy, save_taxonomy

BAD_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "overflow": 10**400,
              "list": [1.0], "object": {"a": 1}}
BAD_TEXT = {"nan": "nan", "inf": "inf", "-inf": "-inf", "overflow": str(10**400),
            "list": "[1.0]", "object": '{"a": 1}'}


def _items(container) -> list:
    """Every (container, key) of a JSON list or object."""
    return [(container, k) for k in (range(len(container)) if isinstance(container, list)
                                     else container)]


def _lens(doc: dict) -> list:
    return _items(doc["intrinsics"]) + _items(doc["distortion"])


def _annotations(records: list) -> list:
    keys = ("id", "image_id", "category_id", "score", "area", "iscrowd")
    return [(r, k) for r in records for k in keys if k in r] + [
        slot for r in records for slot in _items(r["bbox"])]


def _polygons(records: list) -> list:
    return [slot for r in records for part in r["segmentation"] for slot in _items(part)]


def _images(doc: dict) -> list:
    return [(im, k) for im in doc["images"] for k in ("id", "width", "height", "timestamp")]


def _raster_header(doc: dict) -> list:
    scalars = ("cell_size", "bandwidth", "total_count", "quantum")
    return ([(doc, k) for k in scalars] + _items(doc["time_window"]) + _items(doc["shape"])
            + _items(doc["extent"]["origin"])
            + [(doc["extent"], k) for k in ("rotation", "width", "length")])


# name: the scene file changed, the slots that hold its numbers (a JSON
# file's (container, key) pairs; a CSV file's columns, None for every cell),
# the files copied next to it, and the command: {f} is the changed file, {b}
# that file without its suffix, {s} the scene, {o} the output directory
_DETECTIONS = "filter-annotations --detections {f} --out {o}/kept.json"
_MAP = "map --camera {s}/camera.json --annotations {f} --sample-rate 1 --out {o}/obs.csv"
_MERGE = "density --merge {b} {b} --out {o}/m"
FIELDS = {
    "camera-lens": ("camera.json", _lens, (), "project --camera {f} --pixel 960 700"),
    "camera-image-size": ("camera.json", lambda d: _items(d["image_size"]), (),
                          "project --camera {f} --pixel 960 700"),
    "camera-pose": ("camera.json", lambda d: _items(d["pose"]["axis_angle"]) + _items(
        d["pose"]["t"]), (), "project --camera {f} --world 1 10 0"),
    "intrinsics-lens": ("intr.json", _lens, (),
                        "calibrate extrinsics --intrinsics {f} --points {s}/points.csv "
                        "--out {o}/cam.json"),
    "intrinsics-image-size": ("intr.json", lambda d: _items(d["image_size"]), (),
                              "calibrate extrinsics --intrinsics {f} --points {s}/points.csv "
                              "--out {o}/cam.json"),
    "extent": ("extent.json", lambda d: _items(d["origin"]) + [
        (d, k) for k in ("rotation", "width", "length")], (),
        "density --observations {s}/obs.csv --extent {f} --out {o}/d"),
    "dataset-images": ("gt.json", _images, (), _MAP),
    "dataset-categories": ("gt.json", lambda d: [(c, "id") for c in d["categories"]], (), _MAP),
    "dataset-annotations": ("gt.json", lambda d: _annotations(d["annotations"]), (), _MAP),
    "dataset-polygons": ("gt.json", lambda d: _polygons(d["annotations"]), (), _MAP),
    "detection-list": ("detections.json", _annotations, (), _DETECTIONS),
    "detection-list-polygons": ("detections.json", _polygons, (), _DETECTIONS),
    "detection-dataset": ("scored.json", lambda d: _images(d) + _annotations(d["annotations"]),
                          (), _DETECTIONS),
    "raster-header": ("r.json", _raster_header, ("r.csv",), _MERGE),
    "taxonomy": ("tax.json", lambda d: [(c, "id") for c in d["classes"]], (),
                 "stats --annotations {s}/gt.json --taxonomy {f}"),
    "views": ("views.json", lambda d: [slot for view in d for key in ("plane", "pixels")
                                       for point in view[key] for slot in _items(point)], (),
              "calibrate intrinsics --views {f} --image-size 1920 1080 --out {o}/intr.json"),
    "observations": ("obs.csv", ["image_id", "annotation_id", "timestamp", "x", "y", "yaw",
                                 "width", "length", "height", "score"], (),
                     "density --observations {f} --extent {s}/extent.json --out {o}/d"),
    "survey-points": ("points.csv", ["X", "Y", "Z", "u", "v"], (),
                      "calibrate extrinsics --intrinsics {s}/intr.json --points {f} "
                      "--out {o}/cam.json"),
    "raster-cells": ("r.csv", None, ("r.json",), _MERGE),
}


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A two-frame scene and one valid file of every kind a command reads."""
    s = tmp_path_factory.mktemp("numbers")
    assert main(["simulate", "--out-dir", str(s), "--frames", "2", "--agents", "3",
                 "--cyclists", "0.5", "--seed", "3"]) == 0
    camera = json.loads((s / "camera.json").read_text())
    del camera["pose"]
    (s / "intr.json").write_text(json.dumps(camera))
    gt = json.loads((s / "gt.json").read_text())
    for ann in gt["annotations"]:
        ann["score"] = 0.9
    (s / "scored.json").write_text(json.dumps(gt))
    save_taxonomy(s / "tax.json", default_taxonomy())
    ground = np.array([[x, y, 0.0] for x in (0.5, 2.0, 4.0) for y in (4.0, 12.0, 24.0)])
    pixels = load_camera(s / "camera.json").project(ground)
    (s / "points.csv").write_text("X,Y,Z,u,v\n" + "".join(
        f"{x},{y},{z},{u},{v}\n" for (x, y, z), (u, v) in zip(ground, pixels)))
    plane = [[0.12 * i, 0.12 * j] for i in range(7) for j in range(5)]
    (s / "views.json").write_text(json.dumps(
        [{"plane": plane, "pixels": [[100.0 + 50 * x, 80.0 + 40 * y] for x, y in plane]}] * 3))
    assert main(["map", "--camera", str(s / "camera.json"), "--annotations",
                 str(s / "gt.json"), "--out", str(s / "obs.csv")]) == 0
    assert main(["density", "--observations", str(s / "obs.csv"), "--extent",
                 str(s / "extent.json"), "--out", str(s / "r")]) == 0
    return s


def _write_with(scene, out, name, slots, index, bad):
    """``name`` from the scene, written to ``out`` with its ``index``-th slot set to ``bad``."""
    source = scene / name
    if name.endswith(".json"):
        doc = json.loads(source.read_text())
        container, key = slots(doc)[index]
        container[key] = BAD_VALUES[bad]
        (out / name).write_text(json.dumps(doc))
        return
    rows = list(csv.reader(source.read_text().splitlines()))
    cells = ([(r, c) for r in range(len(rows)) for c in range(len(rows[r]))] if slots is None
             else [(r, rows[0].index(col)) for r in range(1, len(rows)) for col in slots])
    row, col = cells[index]
    rows[row][col] = BAD_TEXT[bad]
    with (out / name).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _slot_count(scene, name, slots) -> int:
    if name.endswith(".json"):
        return len(slots(json.loads((scene / name).read_text())))
    rows = list(csv.reader((scene / name).read_text().splitlines()))
    return sum(map(len, rows)) if slots is None else (len(rows) - 1) * len(slots)


@pytest.mark.parametrize("field", list(FIELDS))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_number_that_is_not_one_is_refused_naming_its_file(
        scene, tmp_path, capsys, field, data):
    name, slots, companions, argv = FIELDS[field]
    index = data.draw(st.integers(0, _slot_count(scene, name, slots) - 1), label="slot")
    changed = tmp_path / name
    for companion in companions:
        shutil.copy(scene / companion, tmp_path / companion)
    codes = {}
    for bad in BAD_VALUES:
        _write_with(scene, tmp_path, name, slots, index, bad)
        capsys.readouterr()
        codes[bad] = main(argv.format(f=changed, b=changed.with_suffix(""), s=scene,
                                      o=tmp_path).split())
        err = capsys.readouterr().err
        assert codes[bad] in (2, 3), (bad, err)
        assert str(changed.with_suffix("")) in err, (bad, err)
    # an overflow is refused in the family of a non-finite value
    assert codes["overflow"] == codes["nan"]
