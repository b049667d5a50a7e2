"""End-to-end command-line tests: pipelines, manifests, exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

import posmap.cli
from posmap import __version__
from posmap.camera import Distortion, Intrinsics, load_camera, project_points
from posmap.cli import build_parser, main
from posmap.coco import Dataset, load_dataset, load_detections, save_dataset
from posmap.density import density_paths, load_density, save_density, zero_raster
from posmap.evaluation import pr_curve
from posmap.mapping import (
    MapExtent,
    load_extent,
    load_observations,
    map_frame,
    save_observations,
)
from posmap.errors import ConfigError
from posmap.simulate import SimConfig, default_camera, simulate
from posmap.taxonomy import default_taxonomy, default_treatments, save_taxonomy

LADDER = ("c75", "c50", "loc", "sim", "oth", "bg", "fn")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated scene reused by every downstream command."""
    root = tmp_path_factory.mktemp("cliws")
    sim = root / "sim"
    rc = main(
        [
            "simulate", "--out-dir", str(sim), "--frames", "6", "--agents", "8",
            "--cyclists", "0.3", "--noise", "1.5", "--miss", "0.1", "--seed", "5",
        ]
    )
    assert rc == 0
    return root


def _sim(ws):
    return ws / "sim"


# -- entry point ---------------------------------------------------------------


def test_console_script_version():
    proc = subprocess.run(
        ["posmap", "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"posmap {__version__}"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "posmap" in capsys.readouterr().out


# -- simulate ------------------------------------------------------------------


def test_simulate_outputs_and_manifest(workspace):
    sim = _sim(workspace)
    for name in ("camera.json", "extent.json", "gt.json", "detections.json",
                 "truth.csv", "manifest.json"):
        assert (sim / name).exists(), name
    manifest = json.loads((sim / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["frames"] == 6
    assert manifest["versions"]["posmap"] == __version__
    assert manifest["outputs"]
    gt = load_dataset(sim / "gt.json")
    assert len(gt.images) == 6


def test_simulate_reruns_are_byte_identical(workspace, tmp_path):
    args = ["simulate", "--frames", "4", "--agents", "6", "--noise", "1.0",
            "--seed", "9"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("gt.json", "detections.json", "truth.csv", "camera.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_simulate_truth_reads_back_as_the_truth_observations(tmp_path, capsys):
    # half of the agents are cyclists, whose box is longest
    args = ["simulate", "--frames", "4", "--agents", "6", "--cyclists", "0.5", "--seed", "9"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0
    extent = load_extent(tmp_path / "extent.json")
    config = SimConfig(extent=extent, camera=default_camera(extent), n_agents=6,
                       cyclist_fraction=0.5, seed=9)
    truth = [o for frame in simulate(config, 4).frames for o in frame.truth_observations]
    assert len(truth) == 24
    assert load_observations(tmp_path / "truth.csv") == truth

    # the truth is obs.csv's format, so it rasterizes as it is
    assert main(["density", "--observations", str(tmp_path / "truth.csv"),
                 "--extent", str(tmp_path / "extent.json"),
                 "--out", str(tmp_path / "truth-density")]) == 0
    assert load_density(tmp_path / "truth-density").total_count == 24


# -- project -------------------------------------------------------------------


def test_project_round_trip(workspace, capsys):
    camera = str(_sim(workspace) / "camera.json")
    assert main(["project", "--camera", camera, "--world", "1.0", "10.0", "0.0"]) == 0
    u, v = map(float, capsys.readouterr().out.split())
    assert main(["project", "--camera", camera, "--pixel", str(u), str(v)]) == 0
    x, y = map(float, capsys.readouterr().out.split())
    assert abs(x - 1.0) < 1e-5 and abs(y - 10.0) < 1e-5


def test_project_with_non_finite_intrinsics_exits_2(workspace, tmp_path, capsys):
    doc = json.loads((_sim(workspace) / "camera.json").read_text())
    doc["intrinsics"]["fx"] = float("nan")
    camera = tmp_path / "nan.json"
    camera.write_text(json.dumps(doc))
    assert main(["project", "--camera", str(camera), "--world", "1", "10", "0"]) == 2
    assert "finite" in capsys.readouterr().err


# -- map / density -------------------------------------------------------------


def test_map_then_density(workspace, capsys):
    sim = _sim(workspace)
    obs = workspace / "obs.csv"
    rc = main(
        [
            "map", "--camera", str(sim / "camera.json"),
            "--annotations", str(sim / "gt.json"),
            "--extent", str(sim / "extent.json"),
            "--out", str(obs),
        ]
    )
    assert rc == 0
    assert "mapped" in capsys.readouterr().out
    assert obs.exists()
    assert (workspace / "obs.manifest.json").exists()

    dens = workspace / "dens"
    rc = main(
        [
            "density", "--observations", str(obs),
            "--extent", str(sim / "extent.json"),
            "--cell", "0.25", "--out", str(dens),
        ]
    )
    assert rc == 0
    for suffix in (".csv", ".json", ".pgm"):
        assert dens.with_suffix(suffix).exists()
    grid = load_density(dens)
    assert grid.total_count > 0
    # every kernel carries unit mass, so the raster integrates to the count
    assert abs(grid.mass() - grid.total_count) < 1e-6


def test_map_names_each_geometry_failure_on_stderr(workspace, tmp_path, capsys):
    # a footpoint near the top of the default camera's image is above its horizon
    doc = json.loads((_sim(workspace) / "gt.json").read_text())
    ann = doc["annotations"][0]
    del ann["segmentation"]
    ann.update(bbox=[950.0, 20.0, 20.0, 30.0], area=600.0)
    (tmp_path / "gt.json").write_text(json.dumps(doc))
    assert main(["map", "--camera", str(_sim(workspace) / "camera.json"),
                 "--annotations", str(tmp_path / "gt.json"),
                 "--out", str(tmp_path / "obs.csv")]) == 0
    out, err = capsys.readouterr()
    assert "(0 outside extent, 1 geometry failures)" in out
    assert err == f"  annotation {ann['id']}: pixel (960.0, 50.0) is at or above the horizon\n"
    assert len(load_observations(tmp_path / "obs.csv")) == len(doc["annotations"]) - 1


def test_map_timestamps_from_image_or_fps(workspace, tmp_path):
    """An image's own ``timestamp`` wins; otherwise it is index / fps."""
    sim = _sim(workspace)
    ds = load_dataset(sim / "gt.json")
    ds.images = sorted(ds.images, key=lambda im: im.id)[:3]
    kept = [im.id for im in ds.images]
    ds.annotations = [a for a in ds.annotations if a.image_id in kept]
    for im in ds.images[:2]:
        del im.extra["timestamp"]
    ds.images[2].extra["timestamp"] = 99.5
    save_dataset(tmp_path / "gt.json", ds)
    obs = tmp_path / "obs.csv"
    rc = main(
        ["map", "--camera", str(sim / "camera.json"),
         "--annotations", str(tmp_path / "gt.json"), "--fps", "2",
         "--out", str(obs)]
    )
    assert rc == 0
    stamps = {}
    for o in load_observations(obs):
        stamps.setdefault(o.image_id, set()).add(o.timestamp)
    assert stamps == {kept[0]: {0.0}, kept[1]: {0.5}, kept[2]: {99.5}}


def test_map_sample_rate_maps_only_the_first_frame_of_each_window(tmp_path, monkeypatch):
    """``--sample-rate 1`` on a 5 fps scene writes what mapping every frame and
    then keeping each window's first frame writes, mapping one frame per window."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--out-dir", str(sim), "--frames", "12", "--agents", "4",
                 "--fps", "5", "--seed", "3"]) == 0
    mapped = []

    def counting_map_frame(*args, **kwargs):
        mapped.append(kwargs["image_id"])
        return map_frame(*args, **kwargs)

    monkeypatch.setattr(posmap.cli, "map_frame", counting_map_frame)
    obs = tmp_path / "obs.csv"
    assert main(["map", "--camera", str(sim / "camera.json"),
                 "--annotations", str(sim / "gt.json"), "--extent", str(sim / "extent.json"),
                 "--sample-rate", "1", "--out", str(obs)]) == 0

    camera, extent = load_camera(sim / "camera.json"), load_extent(sim / "extent.json")
    ds = load_dataset(sim / "gt.json")
    names = {c.id: c.name for c in ds.categories}
    merging = default_treatments(default_taxonomy())["merging"]
    by_image = ds.anns_by_image()
    first = {}  # window -> (image id, observations) of its first frame
    for image in sorted(ds.images, key=lambda im: im.id):
        ts = image.extra["timestamp"]
        frame = map_frame(camera, by_image[image.id], names, merging, extent=extent,
                          timestamp=ts, image_id=image.id)
        first.setdefault(math.floor(ts * 1.0 + 1e-9), (image.id, frame.observations))
    expected = [o for w in sorted(first) for o in first[w][1]]
    assert len(first) == 3 and expected
    save_observations(tmp_path / "expected.csv", expected)
    assert obs.read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert mapped == [first[w][0] for w in sorted(first)]


def test_density_merge(workspace, tmp_path, capsys):
    sim = _sim(workspace)
    obs = tmp_path / "obs.csv"
    assert main(
        ["map", "--camera", str(sim / "camera.json"), "--annotations", str(sim / "gt.json"),
         "--out", str(obs)]
    ) == 0
    half = tmp_path / "half"
    assert main(
        ["density", "--observations", str(obs), "--extent", str(sim / "extent.json"),
         "--bandwidth", "0.5", "--out", str(half)]
    ) == 0
    merged = tmp_path / "merged"
    assert main(["density", "--merge", str(half), str(half), "--out", str(merged)]) == 0
    assert "merged 2 rasters" in capsys.readouterr().out
    grid = load_density(merged)
    assert grid.total_count == 2 * load_density(half).total_count


def test_density_names_keep_dotted_bases(workspace, tmp_path):
    sim = _sim(workspace)
    obs = tmp_path / "obs.csv"
    assert main(
        ["map", "--camera", str(sim / "camera.json"), "--annotations", str(sim / "gt.json"),
         "--out", str(obs)]
    ) == 0
    for cell in ("0.25", "0.1"):
        assert main(
            ["density", "--observations", str(obs), "--extent", str(sim / "extent.json"),
             "--cell", cell, "--out", str(tmp_path / f"d{cell}")]
        ) == 0
    for cell in ("0.25", "0.1"):
        for suffix in ("csv", "json", "pgm", "manifest.json"):
            assert (tmp_path / f"d{cell}.{suffix}").exists()
        assert load_density(tmp_path / f"d{cell}").cell_size == float(cell)
    assert not (tmp_path / "d0.csv").exists()


def test_in_place_merge_manifest_hashes_inputs_before_writing(workspace, tmp_path):
    sim = _sim(workspace)
    obs = tmp_path / "obs.csv"
    assert main(
        ["map", "--camera", str(sim / "camera.json"), "--annotations", str(sim / "gt.json"),
         "--out", str(obs)]
    ) == 0
    running, clip = tmp_path / "running", tmp_path / "clip"
    for base in (running, clip):
        assert main(
            ["density", "--observations", str(obs), "--extent", str(sim / "extent.json"),
             "--out", str(base)]
        ) == 0
    before = {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for base in (running, clip) for p in (base.with_suffix(".csv"), base.with_suffix(".json"))
    }
    assert main(["density", "--merge", str(running), str(clip), "--out", str(running)]) == 0
    manifest = json.loads((tmp_path / "running.manifest.json").read_text())
    assert manifest["inputs"] == before
    # the merge did overwrite its first input
    assert hashlib.sha256(running.with_suffix(".csv").read_bytes()).hexdigest() != \
        before[str(running.with_suffix(".csv"))]


def test_one_command_update_matches_map_density_merge(workspace, tmp_path, capsys):
    """``density --observations O --extent E --merge R --out R`` writes what a clip
    raster and a separate ``density --merge R clip --out R`` write, byte for byte."""
    sim = _sim(workspace)
    extent = str(sim / "extent.json")
    assert main(["map", "--camera", str(sim / "camera.json"), "--annotations",
                 str(sim / "gt.json"), "--out", str(tmp_path / "day.csv")]) == 0
    clip_scene = tmp_path / "clip"
    assert main(["simulate", "--out-dir", str(clip_scene), "--frames", "4", "--agents", "5",
                 "--seed", "11", "--extent", extent]) == 0
    obs = tmp_path / "obs.csv"
    assert main(["map", "--camera", str(clip_scene / "camera.json"), "--annotations",
                 str(clip_scene / "gt.json"), "--extent", extent, "--out", str(obs)]) == 0
    rasterize = ["--observations", str(obs), "--extent", extent, "--cell", "0.1"]
    for way in ("two", "one"):
        assert main(["density", "--observations", str(tmp_path / "day.csv"), "--extent", extent,
                     "--cell", "0.1", "--out", str(tmp_path / way / "running")]) == 0
    two, one = tmp_path / "two" / "running", tmp_path / "one" / "running"
    assert main(["density", *rasterize, "--out", str(tmp_path / "two" / "clip")]) == 0
    assert main(["density", "--merge", str(two), str(tmp_path / "two" / "clip"),
                 "--out", str(two)]) == 0
    before = {str(p): _sha256(p) for p in (obs, Path(extent), *density_paths(one).values())
              if p.suffix != ".pgm"}
    capsys.readouterr()
    assert main(["density", *rasterize, "--merge", str(one), "--out", str(one)]) == 0
    assert "merged 2 rasters" in capsys.readouterr().out
    for kind in ("csv", "json", "pgm"):
        assert density_paths(one)[kind].read_bytes() == density_paths(two)[kind].read_bytes()
    manifest = json.loads((tmp_path / "one" / "running.manifest.json").read_text())
    assert manifest["inputs"] == before
    assert manifest["config"]["cell"] == 0.1 and manifest["config"]["bandwidth"] is None


def test_a_refused_command_leaves_no_directory_it_made(tmp_path):
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["density", "--out", str(tmp_path / "deep" / "dir" / "m")]) == 2
    assert main(["density", "--merge", str(tmp_path / "nosuch"),
                 "--out", str(tmp_path / "x" / "m")]) == 3
    assert main(["density", "--merge", str(tmp_path / "nosuch"),
                 "--out", str(kept / "new" / "m")]) == 3
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


# -- eval / diagnose / stats -----------------------------------------------------


def test_eval_report_and_pr_curves(workspace):
    sim = _sim(workspace)
    out = workspace / "eval.json"
    pr = workspace / "pr.csv"
    rc = main(
        [
            "eval", "--gt", str(sim / "gt.json"),
            "--detections", str(sim / "detections.json"),
            "--iou-mode", "bbox", "--out", str(out), "--pr-curves", str(pr),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) >= {"per_class", "mean", "map_people", "map_overall", "iou_mode"}
    assert doc["map_overall"] == doc["mean"]["ap"]
    assert doc["map_people"] is not None and 0.0 <= doc["map_people"] <= 1.0
    assert "pedestrian" in doc["per_class"]

    lines = pr.read_text().splitlines()
    assert lines[0] == "class,recall,precision"
    rows = [line.split(",") for line in lines[1:]]
    classes = {r[0] for r in rows}
    assert "pedestrian" in classes
    ped = [(float(r[1]), float(r[2])) for r in rows if r[0] == "pedestrian"]
    assert len(ped) == 101
    assert ped[0] == (0.0, 1.0)


@pytest.mark.parametrize("iou_mode", ["bbox", "segm"])
def test_pr_curves_csv_matches_per_class_pr_curve(workspace, iou_mode):
    sim = _sim(workspace)
    pr = workspace / f"pr-{iou_mode}.csv"
    rc = main(
        [
            "eval", "--gt", str(sim / "gt.json"),
            "--detections", str(sim / "detections.json"),
            "--iou-mode", iou_mode, "--pr-curves", str(pr),
        ]
    )
    assert rc == 0
    gt = load_dataset(sim / "gt.json")
    dets = load_detections(sim / "detections.json")
    lines = ["class,recall,precision"]
    for cat in sorted(gt.categories, key=lambda c: c.id):
        curve = pr_curve(gt, dets, cat.id, iou_mode=iou_mode)
        if curve.ap is not None:
            lines += [f"{cat.name},{r!r},{p!r}" for r, p in zip(curve.recall, curve.precision)]
    assert len(lines) > 101
    assert pr.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_diagnose_report(workspace):
    sim = _sim(workspace)
    out = workspace / "diag.json"
    rc = main(
        [
            "diagnose", "--gt", str(sim / "gt.json"),
            "--detections", str(sim / "detections.json"),
            "--iou-mode", "bbox", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    for ladder in doc["per_class"].values():
        values = [ladder[k] for k in LADDER]
        assert values == sorted(values)
        assert ladder["fn"] == 1.0
    assert doc["mean"] is not None



def _report_box(ann_id, image_id, cat, xywh, score=None):
    x, y, w, h = xywh
    record = {"id": ann_id, "image_id": image_id, "category_id": cat,
              "segmentation": [[x, y, x + w, y, x + w, y + h, x, y + h]],
              "bbox": [x, y, w, h], "area": w * h, "iscrowd": 0}
    return record if score is None else {**record, "score": score}


# The reports of eval and diagnose on a hand-built scene, pinned to the byte:
# two 100 x 100 images, a people class and a vehicle class, medium objects
# only (small and large scores are undefined), a localization error, a
# pedestrian false positive on a car and a car false positive on a pedestrian
_EVAL_STDOUT = """\
    pedestrian  AP 0.8515  AP50 1.0000  AP75 1.0000  small -  medium 0.8515  large -  AR100 0.8500  n_gt 2
           car  AP 0.2525  AP50 0.2525  AP75 0.2525  small -  medium 0.2525  large -  AR100 0.5000  n_gt 2
          mean  AP 0.5520  AP50 0.6262  AP75 0.6262  small -  medium 0.5520  large -  AR100 0.6750
    people mAP  0.8515
"""
_EVAL_JSON = """\
{
  "per_class": {
    "pedestrian": {
      "ap": 0.8514851485148514,
      "ap50": 1.0,
      "ap75": 1.0,
      "ap_small": null,
      "ap_medium": 0.8514851485148514,
      "ap_large": null,
      "ar100": 0.85,
      "n_gt": 2
    },
    "car": {
      "ap": 0.2524752475247524,
      "ap50": 0.2524752475247525,
      "ap75": 0.2524752475247525,
      "ap_small": null,
      "ap_medium": 0.2524752475247524,
      "ap_large": null,
      "ar100": 0.5,
      "n_gt": 2
    }
  },
  "mean": {
    "ap": 0.5519801980198019,
    "ap50": 0.6262376237623762,
    "ap75": 0.6262376237623762,
    "ap_small": null,
    "ap_medium": 0.5519801980198019,
    "ap_large": null,
    "ar100": 0.675
  },
  "map_people": 0.8514851485148514,
  "map_overall": 0.5519801980198019,
  "iou_mode": "bbox"
}
"""
_DIAG_STDOUT = """\
         class     C75     C50     Loc     Sim     Oth      BG      FN
    pedestrian  1.0000  1.0000  1.0000  1.0000  1.0000  1.0000  1.0000
           car  0.2525  0.2525  0.2525  0.2525  0.5050  0.5050  1.0000
          mean  0.6262  0.6262  0.6262  0.6262  0.7525  0.7525  1.0000
"""
_DIAG_JSON = """\
{
  "per_class": {
    "pedestrian": {
      "c75": 1.0,
      "c50": 1.0,
      "loc": 1.0,
      "sim": 1.0,
      "oth": 1.0,
      "bg": 1.0,
      "fn": 1.0
    },
    "car": {
      "c75": 0.2524752475247525,
      "c50": 0.2524752475247525,
      "loc": 0.2524752475247525,
      "sim": 0.2524752475247525,
      "oth": 0.504950495049505,
      "bg": 0.504950495049505,
      "fn": 1.0
    }
  },
  "mean": {
    "c75": 0.6262376237623762,
    "c50": 0.6262376237623762,
    "loc": 0.6262376237623762,
    "sim": 0.6262376237623762,
    "oth": 0.7524752475247525,
    "bg": 0.7524752475247525,
    "fn": 1.0
  },
  "iou_mode": "bbox"
}
"""


def test_eval_and_diagnose_reports_are_pinned(tmp_path, capsys):
    gt = {
        "images": [{"id": i, "file_name": f"{i}.jpg", "width": 100, "height": 100}
                   for i in (1, 2)],
        "categories": [{"id": 1, "name": "pedestrian", "supercategory": "people"},
                       {"id": 2, "name": "car", "supercategory": "vehicle"}],
        "annotations": [
            _report_box(1, 1, 1, (10, 10, 40, 40)), _report_box(2, 1, 2, (50, 50, 40, 40)),
            _report_box(3, 2, 1, (0, 0, 40, 40)), _report_box(4, 2, 2, (30, 30, 40, 40)),
        ],
    }
    dets = [
        _report_box(1, 1, 1, (10, 10, 40, 40), 0.9), _report_box(2, 2, 1, (4, 0, 40, 40), 0.8),
        _report_box(3, 1, 1, (60, 60, 30, 30), 0.7), _report_box(4, 1, 2, (50, 50, 40, 40), 0.6),
        _report_box(5, 2, 2, (0, 0, 40, 40), 0.95),
    ]
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    (tmp_path / "dets.json").write_text(json.dumps(dets))
    io = ["--gt", str(tmp_path / "gt.json"), "--detections", str(tmp_path / "dets.json"),
          "--iou-mode", "bbox"]
    capsys.readouterr()
    assert main(["eval", *io, "--out", str(tmp_path / "eval.json")]) == 0
    assert capsys.readouterr().out == _EVAL_STDOUT
    assert (tmp_path / "eval.json").read_text() == _EVAL_JSON
    assert main(["diagnose", *io, "--out", str(tmp_path / "diag.json")]) == 0
    assert capsys.readouterr().out == _DIAG_STDOUT
    assert (tmp_path / "diag.json").read_text() == _DIAG_JSON

def test_stats_report(workspace, capsys):
    sim = _sim(workspace)
    out = workspace / "stats.json"
    assert main(["stats", "--annotations", str(sim / "gt.json"),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pedestrian" in printed and "total" in printed
    doc = json.loads(out.read_text())
    counts = {row["class"]: row["count"] for row in doc["per_class"]}
    gt = load_dataset(sim / "gt.json")
    assert counts["pedestrian"] + counts["cyclist"] == len(gt.annotations)


def test_stats_with_a_treatment_counts_the_remapped_classes(workspace, tmp_path, capsys):
    sim = _sim(workspace)
    gt = load_dataset(sim / "gt.json")
    out = tmp_path / "stats.json"
    assert main(["stats", "--annotations", str(sim / "gt.json"), "--treatment", "merging",
                 "--out", str(out)]) == 0
    assert f"{'total':>14s}  {len(gt.annotations):>7d}  (images: 6)" in capsys.readouterr().out
    rows = json.loads(out.read_text())["per_class"]
    merging = default_treatments(default_taxonomy())["merging"]
    assert [r["class"] for r in rows] == list(merging.effective_classes())
    assert sum(r["count"] for r in rows) == len(gt.annotations)


def test_stats_prints_the_weather_and_evening_tallies(workspace, tmp_path, capsys):
    doc = json.loads((_sim(workspace) / "gt.json").read_text())
    for image in doc["images"]:
        image.update(weather="sunny", evening=False)
    doc["images"][0].update(weather="rainy", evening=True)
    (tmp_path / "gt.json").write_text(json.dumps(doc))
    assert main(["stats", "--annotations", str(tmp_path / "gt.json")]) == 0
    first = sum(a["image_id"] == doc["images"][0]["id"] for a in doc["annotations"])
    rest = len(doc["annotations"]) - first
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"{'evening':>14s}  False: {rest}, True: {first}",
                          f"{'weather':>14s}  rainy: {first}, sunny: {rest}"]


# -- filter / split / labelme -----------------------------------------------------


def test_filter_detections(workspace, tmp_path):
    sim = _sim(workspace)
    out = tmp_path / "kept.json"
    rc = main(
        ["filter-annotations", "--detections", str(sim / "detections.json"),
         "--score", "0.85", "--min-area", "100", "--out", str(out)]
    )
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows and all(r["score"] >= 0.85 for r in rows)


def test_filter_keeps_detection_ids_and_unknown_keys(tmp_path):
    doc = [
        {"id": 7, "image_id": 1, "category_id": 1, "bbox": [0, 0, 40, 40],
         "score": 0.9, "track_id": 12},
        {"id": 3, "image_id": 1, "category_id": 1, "bbox": [50, 0, 40, 40],
         "score": 0.9, "track_id": 4},
    ]
    (tmp_path / "dets.json").write_text(json.dumps(doc))
    assert main(["filter-annotations", "--detections", str(tmp_path / "dets.json"),
                 "--out", str(tmp_path / "kept.json")]) == 0
    rows = json.loads((tmp_path / "kept.json").read_text())
    assert [(r["id"], r["track_id"]) for r in rows] == [(7, 12), (3, 4)]
    assert load_detections(tmp_path / "kept.json") == load_detections(tmp_path / "dets.json")


def test_split_command(workspace, tmp_path):
    sim = _sim(workspace)
    rc = main(
        ["split", "--annotations", str(sim / "gt.json"), "--fraction", "0.5",
         "--seed", "1", "--out-train", str(tmp_path / "tr.json"),
         "--out-test", str(tmp_path / "te.json")]
    )
    assert rc == 0
    train = load_dataset(tmp_path / "tr.json")
    test = load_dataset(tmp_path / "te.json")
    assert len(train.images) + len(test.images) == 6
    assert len(train.images) == 3


def test_split_keeps_a_bbox_the_loader_only_warns_about(tmp_path):
    # bbox (8, 8, 14, 24) is 6 px off its polygon's hull (10, 10, 20, 30)
    square = [10.0, 10.0, 30.0, 10.0, 30.0, 40.0, 10.0, 40.0]
    doc = {
        "images": [{"id": i, "file_name": f"{i}.jpg", "width": 64, "height": 64}
                   for i in (1, 2)],
        "categories": [{"id": 1, "name": "pedestrian", "supercategory": "people"}],
        "annotations": [
            {"id": i, "image_id": i, "category_id": 1, "segmentation": [square],
             "bbox": [8.0, 8.0, 14.0, 24.0], "area": 600.0}
            for i in (1, 2)
        ],
    }
    (tmp_path / "gt.json").write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="deviates"):
        assert main(["split", "--annotations", str(tmp_path / "gt.json"), "--fraction", "0.5",
                     "--out-train", str(tmp_path / "tr.json"),
                     "--out-test", str(tmp_path / "te.json")]) == 0
    for part in ("tr", "te"):
        (ann,) = json.loads((tmp_path / f"{part}.json").read_text())["annotations"]
        assert ann["bbox"] == [8.0, 8.0, 14.0, 24.0]

def test_export_labelme_command(workspace, tmp_path):
    sim = _sim(workspace)
    out_dir = tmp_path / "lm"
    assert main(["export-labelme", "--annotations", str(sim / "gt.json"),
                 "--out-dir", str(out_dir)]) == 0
    files = sorted(out_dir.glob("frame_*.json"))
    assert len(files) == 6
    assert (out_dir / "manifest.json").exists()
    doc = json.loads(files[0].read_text())
    assert doc["shapes"] and doc["shapes"][0]["shape_type"] == "polygon"


@pytest.mark.parametrize("file_names, clash", [
    (("cam1/frame_0001.jpg", "cam2/frame_0001.jpg"),
     "frame_0001.json (cam1/frame_0001.jpg, cam2/frame_0001.jpg)"),
    (("frame_0001.jpg", "manifest.jpg"), "manifest.json (the run manifest, manifest.jpg)"),
], ids=["same-stem", "manifest"])
def test_export_labelme_refuses_file_names_that_clash(
    workspace, tmp_path, capsys, file_names, clash
):
    ds = load_dataset(_sim(workspace) / "gt.json")
    images = [dataclasses.replace(im, file_name=name) for im, name in zip(ds.images, file_names)]
    kept = {im.id for im in images}
    annotations = tmp_path / "anns.json"
    save_dataset(annotations, Dataset(
        images=images, annotations=[a for a in ds.annotations if a.image_id in kept],
        categories=ds.categories,
    ))
    out_dir = tmp_path / "lm"
    assert main(["export-labelme", "--annotations", str(annotations),
                 "--out-dir", str(out_dir)]) == 3
    assert clash in capsys.readouterr().err
    assert not [p for p in out_dir.rglob("*") if p.is_file()]


# -- manifests ----------------------------------------------------------------------


def _planar_views() -> list[dict]:
    """Four exact views of a 7 x 5 planar pattern, as ``calibrate intrinsics`` reads them."""
    pattern = np.array([[0.12 * i, 0.12 * j, 0.0] for i in range(7) for j in range(5)])
    views = []
    for rvec in ((0.3, 0.0, 0.05), (-0.35, 0.1, -0.03), (0.1, 0.4, 0.0), (0.05, -0.38, 0.08)):
        pixels = project_points(Intrinsics(1200.0, 1180.0, 960.0, 540.0), Distortion(),
                                np.array(rvec), np.array([-0.36, -0.24, 1.4]), pattern)
        views.append({"plane": pattern[:, :2].tolist(), "pixels": pixels.tolist()})
    return views


@pytest.fixture(scope="module")
def inputs(workspace):
    """Input files beyond the scene: taxonomy, calibration data, observations, rasters."""
    sim, root = _sim(workspace), workspace / "inputs"
    root.mkdir()
    tax = default_taxonomy()
    save_taxonomy(root / "tax.json", tax, default_treatments(tax))
    (root / "views.json").write_text(json.dumps(_planar_views()))
    ground = np.array([[x, y, 0.0] for x in (0.5, 2.0, 4.0) for y in (4.0, 12.0, 24.0)])
    pixels = load_camera(sim / "camera.json").project(ground)
    (root / "points.csv").write_text("X,Y,Z,u,v\n" + "".join(
        f"{x},{y},{z},{u},{v}\n" for (x, y, z), (u, v) in zip(ground, pixels)
    ))
    assert main(["map", "--camera", str(sim / "camera.json"), "--annotations",
                 str(sim / "gt.json"), "--out", str(root / "obs.csv")]) == 0
    for base in ("a", "b"):
        assert main(["density", "--observations", str(root / "obs.csv"), "--extent",
                     str(sim / "extent.json"), "--out", str(root / base)]) == 0
    return root


_SCENE = "--gt {s}/gt.json --detections {s}/detections.json --iou-mode bbox"

# argv, the files it reads, and where its manifest goes: {s} is the scene,
# {i} the prepared inputs, {o} an empty directory that receives every output
MANIFEST_CASES = {
    "calibrate-intrinsics": (
        "calibrate intrinsics --views {i}/views.json --image-size 1920 1080 "
        "--no-distortion --out {o}/intr.json",
        ["{i}/views.json"], "{o}/intr.manifest.json"),
    "calibrate-extrinsics": (
        "calibrate extrinsics --intrinsics {s}/camera.json --points {i}/points.csv "
        "--out {o}/cam.json",
        ["{s}/camera.json", "{i}/points.csv"], "{o}/cam.manifest.json"),
    "map": (
        "map --camera {s}/camera.json --annotations {s}/gt.json --extent {s}/extent.json "
        "--taxonomy {i}/tax.json --out {o}/obs.csv",
        ["{s}/camera.json", "{s}/gt.json", "{s}/extent.json", "{i}/tax.json"],
        "{o}/obs.manifest.json"),
    "density": (
        "density --observations {i}/obs.csv --extent {s}/extent.json --out {o}/d0.25",
        ["{i}/obs.csv", "{s}/extent.json"], "{o}/d0.25.manifest.json"),
    "density-merge": (
        "density --merge {i}/a {i}/b --out {o}/m",
        ["{i}/a.csv", "{i}/a.json", "{i}/b.csv", "{i}/b.json"], "{o}/m.manifest.json"),
    "eval": (
        "eval " + _SCENE + " --treatment merging --taxonomy {i}/tax.json "
        "--pr-curves {o}/pr.csv --out {o}/eval.json",
        ["{s}/gt.json", "{s}/detections.json", "{i}/tax.json"], "{o}/eval.manifest.json"),
    "eval-pr-curves": (
        "eval " + _SCENE + " --pr-curves {o}/pr.csv",
        ["{s}/gt.json", "{s}/detections.json"], "{o}/pr.manifest.json"),
    "diagnose": (
        "diagnose " + _SCENE + " --out {o}/diag.json",
        ["{s}/gt.json", "{s}/detections.json"], "{o}/diag.manifest.json"),
    "stats": (
        "stats --annotations {s}/gt.json --taxonomy {i}/tax.json --out {o}/stats.json",
        ["{s}/gt.json", "{i}/tax.json"], "{o}/stats.manifest.json"),
    "filter-annotations": (
        "filter-annotations --detections {s}/detections.json --out {o}/kept.json",
        ["{s}/detections.json"], "{o}/kept.manifest.json"),
    "export-labelme": (
        "export-labelme --annotations {s}/gt.json --out-dir {o}/lm",
        ["{s}/gt.json"], "{o}/lm/manifest.json"),
    "split": (
        "split --annotations {s}/gt.json --out-train {o}/tr.json --out-test {o}/te.json",
        ["{s}/gt.json"], "{o}/tr.manifest.json"),
    "simulate": (
        "simulate --frames 2 --agents 3 --extent {s}/extent.json --out-dir {o}/sim",
        ["{s}/extent.json"], "{o}/sim/manifest.json"),
}


@pytest.mark.parametrize("size", [["0", "-5"], ["1920.5", "1080"], ["1920", str(2**63)]])
def test_calibrate_intrinsics_refuses_an_image_size_that_is_not_a_whole_number_above_0(
        inputs, tmp_path, capsys, size):
    # read with type=int, 0 x -5 was written to the intrinsics file and read back
    out = tmp_path / "intr.json"
    assert main(["calibrate", "intrinsics", "--views", str(inputs / "views.json"),
                 "--image-size", *size, "--out", str(out)]) == 2
    assert "is not a whole number in [1, 2**63)" in capsys.readouterr().err
    assert not out.exists()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", list(MANIFEST_CASES))
def test_every_file_writing_command_writes_a_full_manifest(workspace, inputs, tmp_path, case):
    argv, reads, where = MANIFEST_CASES[case]
    dirs = {"s": _sim(workspace), "i": inputs, "o": tmp_path}
    reads = [Path(r.format(**dirs)) for r in reads]
    before = {str(p): _sha256(p) for p in reads}
    assert main(argv.format(**dirs).split()) == 0
    manifest_path = Path(where.format(**dirs))
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) >= {"argv", "config", "inputs", "outputs", "versions", "elapsed_s"}
    assert manifest["inputs"] == before
    written = {str(p) for p in tmp_path.rglob("*") if p.is_file() and p != manifest_path}
    assert written and sorted(manifest["outputs"]) == sorted(written)


def test_manifest_records_the_argv_main_parsed(workspace, tmp_path, monkeypatch):
    argv = _map_argv(workspace, "--out", str(tmp_path / "a.csv"))
    assert main(argv) == 0
    assert json.loads((tmp_path / "a.manifest.json").read_text())["argv"] == argv
    argv = _map_argv(workspace, "--out", str(tmp_path / "b.csv"))
    monkeypatch.setattr("sys.argv", ["posmap", *argv])
    assert main() == 0
    assert json.loads((tmp_path / "b.manifest.json").read_text())["argv"] == argv


def test_a_run_with_no_output_hashes_nothing(workspace, monkeypatch):
    monkeypatch.setattr(posmap.cli, "_sha256", lambda path: pytest.fail(f"hashed {path}"))
    sim = _sim(workspace)
    assert main(["eval", *_SCENE.format(s=sim).split()]) == 0
    assert main(["stats", "--annotations", str(sim / "gt.json")]) == 0


# -- exit codes ---------------------------------------------------------------------


def _extent(ws, tmp, **fields) -> str:
    """The scene's extent JSON with ``fields`` replaced, written under ``tmp``."""
    doc = json.loads((_sim(ws) / "extent.json").read_text())
    doc.update(fields)
    (tmp / "extent.json").write_text(json.dumps(doc))
    return str(tmp / "extent.json")


def _map_argv(ws, *extra):
    sim = _sim(ws)
    return ["map", "--camera", str(sim / "camera.json"), "--annotations", str(sim / "gt.json"),
            *extra]


def _density_argv(tmp, *extra):
    return ["density", "--observations", str(tmp / "obs.csv"), *extra, "--out", str(tmp / "d")]


def _merge_with_header_extent(tmp, **fields):
    """``density --merge a b`` where raster ``b``'s header extent has ``fields`` replaced."""
    for base in ("a", "b"):
        save_density(tmp / base, zero_raster(MapExtent((0.0, 0.0), 0.0, 4.5, 32.0), 0.5))
    header = density_paths(tmp / "b")["json"]
    doc = json.loads(header.read_text())
    doc["extent"].update(fields)
    header.write_text(json.dumps(doc))
    return ["density", "--merge", str(tmp / "a"), str(tmp / "b"), "--out", str(tmp / "m")]


def _merge_argv(tmp, *extra):
    """``density --merge a a`` over an empty raster ``a``, plus ``extra``."""
    save_density(tmp / "a", zero_raster(MapExtent((0.0, 0.0), 0.0, 4.5, 32.0), 0.5))
    return ["density", "--merge", str(tmp / "a"), str(tmp / "a"), *extra, "--out", str(tmp / "m")]


_BAD_SIZE = "extent width and length must be finite and positive"


def _camera(ws, tmp, **pose) -> str:
    """The scene's camera JSON with ``pose`` fields replaced, written under ``tmp``."""
    doc = json.loads((_sim(ws) / "camera.json").read_text())
    doc["pose"].update(pose)
    (tmp / "camera.json").write_text(json.dumps(doc))
    return str(tmp / "camera.json")


_NAN_T = {"t": [math.nan, 0.0, 8.0]}
_BAD_POSE = "camera file {tmp}/camera.json: t nan is not a finite number"


def _pose_less_camera(ws, tmp, **intrinsics) -> str:
    """The scene's camera JSON without its pose and with ``intrinsics`` fields replaced."""
    doc = json.loads((_sim(ws) / "camera.json").read_text())
    del doc["pose"]
    doc["intrinsics"].update(intrinsics)
    (tmp / "intr.json").write_text(json.dumps(doc))
    return str(tmp / "intr.json")


# argv, and the message expected on stderr: {tmp} is the test's directory
CONFIG_ERRORS = {
    "unknown-treatment": (
        lambda ws, tmp: _map_argv(ws, "--treatment", "bogus", "--out", "/dev/null"),
        "unknown treatment"),
    "density-negative-width": (
        lambda ws, tmp: _density_argv(tmp, "--extent", _extent(ws, tmp, width=-4.5)),
        "extent file {tmp}/extent.json: " + _BAD_SIZE),
    "density-nan-width": (
        lambda ws, tmp: _density_argv(tmp, "--extent", _extent(ws, tmp, width=math.nan)),
        "extent file {tmp}/extent.json: width nan is not a finite number"),
    "map-negative-width": (
        lambda ws, tmp: _map_argv(ws, "--extent", _extent(ws, tmp, width=-4.5),
                                  "--out", str(tmp / "obs.csv")),
        "extent file {tmp}/extent.json: " + _BAD_SIZE),
    "map-infinite-rotation": (
        lambda ws, tmp: _map_argv(ws, "--extent", _extent(ws, tmp, rotation=math.inf),
                                  "--out", str(tmp / "obs.csv")),
        "extent file {tmp}/extent.json: rotation inf is not a finite number"),
    "merge-header-negative-width": (
        lambda ws, tmp: _merge_with_header_extent(tmp, width=-4.5),
        "density header {tmp}/b.json: " + _BAD_SIZE),
    "map-nan-sample-rate": (
        lambda ws, tmp: _map_argv(ws, "--sample-rate", "nan", "--out", str(tmp / "obs.csv")),
        "sample rate 'nan' is not a finite number > 0"),
    "map-infinite-sample-rate": (
        lambda ws, tmp: _map_argv(ws, "--sample-rate", "inf", "--out", str(tmp / "obs.csv")),
        "sample rate 'inf' is not a finite number > 0"),
    "map-nan-fps": (
        lambda ws, tmp: _map_argv(ws, "--fps", "nan", "--out", str(tmp / "obs.csv")),
        "fps 'nan' is not a finite number > 0"),
    "density-nan-cell": (
        lambda ws, tmp: _density_argv(tmp, "--extent", str(_sim(ws) / "extent.json"),
                                      "--cell", "nan"),
        "cell size 'nan' is not a finite number > 0"),
    "density-infinite-cell": (
        lambda ws, tmp: _density_argv(tmp, "--extent", str(_sim(ws) / "extent.json"),
                                      "--cell", "inf"),
        "cell size 'inf' is not a finite number > 0"),
    "map-nan-prior": (
        lambda ws, tmp: _map_argv(ws, "--prior", "pedestrian:nan:0.6",
                                  "--out", str(tmp / "obs.csv")),
        "prior 'pedestrian:nan:0.6' size 'nan' is not a finite number"),
    "map-negative-prior": (
        lambda ws, tmp: _map_argv(ws, "--prior", "pedestrian:-1:0.6",
                                  "--out", str(tmp / "obs.csv")),
        "size prior of class 'pedestrian' must be finite and positive, got (-1.0, 0.6)"),
    # every rasterizing flag needs --observations, which needs --extent
    "merge-with-observations": (
        lambda ws, tmp: _merge_argv(tmp, "--observations", str(tmp / "obs.csv")),
        "--observations needs --extent"),
    "merge-with-extent": (
        lambda ws, tmp: _merge_argv(tmp, "--extent", str(_sim(ws) / "extent.json")),
        "--extent applies only with --observations"),
    "merge-with-classes": (
        lambda ws, tmp: _merge_argv(tmp, "--classes", "dog"),
        "--classes applies only with --observations"),
    "merge-with-cell": (
        lambda ws, tmp: _merge_argv(tmp, "--cell", "7"),
        "--cell applies only with --observations"),
    "merge-with-bandwidth": (
        lambda ws, tmp: _merge_argv(tmp, "--bandwidth", "0.5"),
        "--bandwidth applies only with --observations"),
    "density-without-inputs": (
        lambda ws, tmp: ["density", "--out", str(tmp / "d")],
        "density needs --observations and --extent, or --merge"),
    # a NaN pose maps every observation to NaN, or outside any extent
    "map-nan-pose": (
        lambda ws, tmp: ["map", "--camera", _camera(ws, tmp, **_NAN_T), "--annotations",
                         str(_sim(ws) / "gt.json"), "--out", str(tmp / "obs.csv")],
        _BAD_POSE),
    "map-extent-nan-pose": (
        lambda ws, tmp: ["map", "--camera", _camera(ws, tmp, **_NAN_T), "--annotations",
                         str(_sim(ws) / "gt.json"), "--extent", str(_sim(ws) / "extent.json"),
                         "--out", str(tmp / "obs.csv")],
        _BAD_POSE),
    "project-nan-pose": (
        lambda ws, tmp: ["project", "--camera", _camera(ws, tmp, **_NAN_T),
                         "--pixel", "960", "700"],
        _BAD_POSE),
    "project-infinite-axis-angle": (
        lambda ws, tmp: ["project", "--camera", _camera(ws, tmp, axis_angle=[math.inf, 0, 0]),
                         "--world", "1", "10", "0"],
        "camera file {tmp}/camera.json: axis_angle inf is not a finite number"),
    "extrinsics-nan-fx": (
        lambda ws, tmp: ["calibrate", "extrinsics",
                         "--intrinsics", _pose_less_camera(ws, tmp, fx=math.nan),
                         "--points", str(tmp / "points.csv"), "--out", str(tmp / "cam.json")],
        "intrinsics file {tmp}/intr.json: fx nan is not a finite number"),
    # a number too large for a float is refused as a non-finite one is
    "density-overflowing-width": (
        lambda ws, tmp: _density_argv(tmp, "--extent", _extent(ws, tmp, width=10**400)),
        f"extent file {{tmp}}/extent.json: width {10**400} is not a finite number"),
    "project-overflowing-pose": (
        lambda ws, tmp: ["project", "--camera", _camera(ws, tmp, t=[10**400, 0.0, 8.0]),
                         "--pixel", "960", "700"],
        f"camera file {{tmp}}/camera.json: t {10**400} is not a finite number"),
    "extrinsics-overflowing-fx": (
        lambda ws, tmp: ["calibrate", "extrinsics",
                         "--intrinsics", _pose_less_camera(ws, tmp, fx=10**400),
                         "--points", str(tmp / "points.csv"), "--out", str(tmp / "cam.json")],
        f"intrinsics file {{tmp}}/intr.json: fx {10**400} is not a finite number"),
    # numpy's seed sequence takes no negative seed: a traceback before
    "simulate-negative-seed": (
        lambda ws, tmp: ["simulate", "--seed", "-1", "--out-dir", str(tmp / "sim")],
        "seed '-1' is not a whole number in [0, 2**63)"),
    "simulate-fractional-frames": (
        lambda ws, tmp: ["simulate", "--frames", "2.5", "--out-dir", str(tmp / "sim")],
        "frames '2.5' is not a whole number"),
    "eval-taxonomy-without-treatment": (
        lambda ws, tmp: ["eval", "--gt", str(_sim(ws) / "gt.json"),
                         "--detections", str(_sim(ws) / "detections.json"),
                         "--taxonomy", str(tmp / "nonexistent.json"), "--iou-mode", "bbox"],
        "--taxonomy applies only with --treatment"),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_exits_2(workspace, tmp_path, capsys, case):
    assert main(_map_argv(workspace, "--out", str(tmp_path / "obs.csv"))) == 0
    capsys.readouterr()
    argv, message = CONFIG_ERRORS[case]
    assert main(argv(workspace, tmp_path)) == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


def test_bad_prior_exits_2(workspace):
    sim = _sim(workspace)
    rc = main(
        ["map", "--camera", str(sim / "camera.json"),
         "--annotations", str(sim / "gt.json"), "--prior", "pedestrian=0.5",
         "--out", "/dev/null"]
    )
    assert rc == 2


@pytest.mark.parametrize("fps", ["0", "-1"])
def test_bad_fps_exits_2(workspace, tmp_path, capsys, fps):
    sim = _sim(workspace)
    out = tmp_path / "obs.csv"
    rc = main(
        ["map", "--camera", str(sim / "camera.json"),
         "--annotations", str(sim / "gt.json"), f"--fps={fps}", "--out", str(out)]
    )
    assert rc == 2
    assert f"fps '{fps}' is not a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def _float_flags():
    """(subcommand, action) of every flag whose parser type reads "0.5" as a float."""
    found = []

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, [*command, name])
            elif action.option_strings and callable(action.type):
                try:
                    parsed = action.type("0.5")
                except (ValueError, ConfigError):
                    continue
                if isinstance(parsed, float):
                    found.append((command, action))

    walk(build_parser(), [])
    return found


FLOAT_FLAGS = _float_flags()


def test_float_flags_are_found():
    names = {f"{' '.join(c)} {a.option_strings[0]}" for c, a in FLOAT_FLAGS}
    assert {"map --fps", "map --sample-rate", "density --cell", "density --bandwidth",
            "simulate --fps", "project --pixel"} <= names


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, action", FLOAT_FLAGS,
    ids=[f"{'-'.join(c)}{a.option_strings[0]}" for c, a in FLOAT_FLAGS],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, command, action, value):
    with pytest.raises(ConfigError, match=f"'{value}' is not a"):
        action.type(value)
    sub = build_parser()
    for name in command:
        sub = next(a for a in sub._actions if isinstance(a, argparse._SubParsersAction))
        sub = sub.choices[name]
    argv = list(command)
    for other in sub._actions:
        if other.required and other.option_strings and other.dest != action.dest:
            argv += [other.option_strings[0], *[str(tmp_path / "x")] * (other.nargs or 1)]
    flag = action.option_strings[0]
    # "--flag=-inf", since argparse reads a lone "-inf" as an option
    argv += [f"{flag}={value}"] if action.nargs is None else [flag, value, *["0"] * (action.nargs - 1)]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own refusal of "-inf" among several values
        code = e.code
    assert code == 2
    assert not list(tmp_path.iterdir())


def _merge_with_broken(tmp, kind: str, text: str | None):
    """``density --merge a b`` where file ``kind`` of raster ``b`` holds ``text`` (None: gone)."""
    for base in ("a", "b"):
        save_density(tmp / base, zero_raster(MapExtent((0.0, 0.0), 0.0, 4.5, 32.0), 0.5))
    broken = density_paths(tmp / "b")[kind]
    if text is None:
        broken.unlink()
    elif kind == "csv":  # replace the first cell
        cells = broken.read_text()
        broken.write_text(text + cells[cells.index(","):])
    else:
        broken.write_text(text)
    return ["density", "--merge", str(tmp / "a"), str(tmp / "b"), "--out", str(tmp / "m")], broken


def _stats_with_taxonomy(ws, tmp, doc):
    (tmp / "tax.json").write_text(json.dumps(doc))
    argv = ["stats", "--annotations", str(_sim(ws) / "gt.json"),
            "--taxonomy", str(tmp / "tax.json")]
    return argv, tmp / "tax.json"


def _map_with_timestamp(ws, tmp, timestamp):
    """``map`` on the scene's annotations with the first image's timestamp replaced."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    doc["images"][0]["timestamp"] = timestamp
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["map", "--camera", str(_sim(ws) / "camera.json"),
            "--annotations", str(tmp / "gt.json"), "--out", str(tmp / "obs.csv")]
    return argv, tmp / "gt.json"


def _eval_with_image_size(ws, tmp, width, height):
    """``eval --iou-mode segm`` with the first image's size replaced."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    doc["images"][0].update(width=width, height=height)
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["eval", "--gt", str(tmp / "gt.json"),
            "--detections", str(_sim(ws) / "detections.json"), "--iou-mode", "segm"]
    return argv, f"image {doc['images'][0]['id']} is {width} x {height} px"


def _density_with_nan_timestamp(ws, tmp):
    """``density`` on the scene's observations with the first row's timestamp NaN."""
    obs = _observations(ws, tmp)
    header, first, *rest = obs.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index("timestamp")] = "nan"
    obs.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    argv = ["density", "--observations", str(obs), "--extent", str(_sim(ws) / "extent.json"),
            "--out", str(tmp / "d")]
    return argv, f"{obs}:2"


def _map_with_nan_polygon(ws, tmp):
    """``map`` on the scene's annotations with annotation 1's first x NaN and an area."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    ann = doc["annotations"][0]
    ann["segmentation"][0][0] = math.nan
    ann["area"] = 100
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["map", "--camera", str(_sim(ws) / "camera.json"),
            "--annotations", str(tmp / "gt.json"), "--out", str(tmp / "obs.csv")]
    return argv, f"annotation {ann['id']}: polygon has a non-finite coordinate"


def _eval_with_overflowing_polygon(ws, tmp, iou_mode):
    """``eval`` where annotation 1 has a finite polygon whose hull's width overflows."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    ann = doc["annotations"][0]
    ann["segmentation"] = [[-1e308, 0, 1e308, 10, 0, 20]]
    ann["area"] = 100
    del ann["bbox"]
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["eval", "--gt", str(tmp / "gt.json"),
            "--detections", str(_sim(ws) / "detections.json"), "--iou-mode", iou_mode]
    return argv, f"annotation {ann['id']} has bbox (-1e+308, 0.0, inf, 20.0), not finite"


def _eval_with_duplicate_annotation_id(ws, tmp):
    """``eval`` where the second ground truth takes the first one's id."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    doc["annotations"][1]["id"] = doc["annotations"][0]["id"]
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["eval", "--gt", str(tmp / "gt.json"),
            "--detections", str(_sim(ws) / "detections.json"), "--iou-mode", "bbox"]
    return argv, f"duplicate annotation id {doc['annotations'][0]['id']}"


def _filter_with_duplicate_detection_id(ws, tmp):
    """``filter-annotations`` on a bare list whose second detection takes the first one's id."""
    doc = json.loads((_sim(ws) / "detections.json").read_text())
    doc[1]["id"] = doc[0]["id"]
    (tmp / "dets.json").write_text(json.dumps(doc))
    argv = ["filter-annotations", "--detections", str(tmp / "dets.json"),
            "--out", str(tmp / "kept.json")]
    return argv, f"duplicate annotation id {doc[0]['id']}"


def _without_a_score(ws, tmp, command, form):
    """``command`` on the scene's detections as ``form``, one record without a score.

    The dataset form is the scene's ``gt.json``, whose records carry no score.
    """
    if form == "dataset":
        dets, index = _sim(ws) / "gt.json", 0
    else:
        doc = json.loads((_sim(ws) / "detections.json").read_text())
        index = 2
        del doc[index]["score"]
        dets = tmp / "dets.json"
        dets.write_text(json.dumps(doc))
    if command == "eval":
        argv = ["eval", "--gt", str(_sim(ws) / "gt.json"), "--detections", str(dets),
                "--iou-mode", "bbox"]
    else:
        argv = ["filter-annotations", "--detections", str(dets),
                "--out", str(tmp / "kept.json")]
    return argv, f"annotation record {index} in {dets} is malformed: a detection needs a score"


def _map_with_unknown_class(ws, tmp):
    """``map`` where the first annotation's category is named ``unicorn``."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    cat_id = doc["annotations"][0]["category_id"]
    next(c for c in doc["categories"] if c["id"] == cat_id)["name"] = "unicorn"
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["map", "--camera", str(_sim(ws) / "camera.json"),
            "--annotations", str(tmp / "gt.json"), "--out", str(tmp / "obs.csv")]
    return argv, "'unicorn'"


def _segm_eval_of_bbox_only_detections(ws, tmp):
    """``eval --iou-mode segm`` on the scene's detections with their polygons dropped."""
    doc = json.loads((_sim(ws) / "detections.json").read_text())
    for det in doc:
        det.pop("segmentation", None)
    (tmp / "dets.json").write_text(json.dumps(doc))
    argv = ["eval", "--gt", str(_sim(ws) / "gt.json"), "--detections", str(tmp / "dets.json"),
            "--iou-mode", "segm"]
    return argv, "has no polygon; use bbox IoU mode"


def _merge_with_header(tmp, field, value):
    """``density --merge a b`` where raster ``b``'s header has ``field`` = ``value``."""
    argv, _ = _merge_with_broken(tmp, "csv", "0")
    header_path = density_paths(tmp / "b")["json"]
    header = json.loads(header_path.read_text())
    header_path.write_text(json.dumps({**header, field: value}))
    return argv, f"{header_path}: {field} {value!r}"


def _extrinsics_with(ws, tmp, column, value):
    """``calibrate extrinsics`` on 12 exact ground points, the fifth with ``column`` = ``value``."""
    ground = np.array([[x, y, 0.0] for x in (0.5, 2.0, 4.0) for y in (4.0, 10.0, 16.0, 24.0)])
    pixels = load_camera(_sim(ws) / "camera.json").project(ground)
    rows = [dict(zip("XYZuv", map(str, [*point, *pixel]))) for point, pixel in zip(ground, pixels)]
    rows[4][column] = value
    points = tmp / "points.csv"
    points.write_text("X,Y,Z,u,v\n" + "".join(",".join(r.values()) + "\n" for r in rows))
    argv = ["calibrate", "extrinsics", "--intrinsics", str(_sim(ws) / "camera.json"),
            "--points", str(points), "--out", str(tmp / "cam.json")]
    return argv, f"{points}:6"


def _intrinsics_with_nan_pixel(ws, tmp):
    """``calibrate intrinsics`` on four views of a pattern, view 1's first pixel NaN."""
    views = _planar_views()
    views[1]["pixels"][0][0] = math.nan
    (tmp / "views.json").write_text(json.dumps(views))
    argv = ["calibrate", "intrinsics", "--views", str(tmp / "views.json"),
            "--image-size", "1920", "1080", "--out", str(tmp / "intr.json")]
    return argv, f"view 1 in {tmp / 'views.json'}"


def _split_with_camera(ws, tmp, camera):
    """``split --stratify camera`` where the first image's ``camera`` is ``camera``."""
    doc = json.loads((_sim(ws) / "gt.json").read_text())
    for image in doc["images"]:
        image["camera"] = "cam0"
    doc["images"][0]["camera"] = camera
    (tmp / "gt.json").write_text(json.dumps(doc))
    argv = ["split", "--annotations", str(tmp / "gt.json"), "--stratify", "camera",
            "--out-train", str(tmp / "train.json"), "--out-test", str(tmp / "test.json")]
    return argv, f"image {doc['images'][0]['id']}: field 'camera'"


DATA_ERRORS = {
    "missing-annotations": lambda ws, tmp: (
        ["stats", "--annotations", str(tmp / "missing.json")], tmp / "missing.json"),
    "extrinsics-nan-X": lambda ws, tmp: _extrinsics_with(ws, tmp, "X", "nan"),
    "extrinsics-inf-X": lambda ws, tmp: _extrinsics_with(ws, tmp, "X", "inf"),
    "extrinsics-inf-v": lambda ws, tmp: _extrinsics_with(ws, tmp, "v", "inf"),
    "intrinsics-nan-pixel": _intrinsics_with_nan_pixel,
    "split-stratify-list": lambda ws, tmp: _split_with_camera(ws, tmp, ["cam1"]),
    "split-stratify-object": lambda ws, tmp: _split_with_camera(ws, tmp, {"name": "cam1"}),
    "map-nan-timestamp": lambda ws, tmp: _map_with_timestamp(ws, tmp, math.nan),
    "map-string-timestamp": lambda ws, tmp: _map_with_timestamp(ws, tmp, "x"),
    "map-nan-polygon": _map_with_nan_polygon,
    "merge-missing-csv": lambda ws, tmp: _merge_with_broken(tmp, "csv", None),
    "merge-header-is-a-list": lambda ws, tmp: _merge_with_broken(tmp, "json", "[]"),
    "merge-nan-cell": lambda ws, tmp: _merge_with_broken(tmp, "csv", "nan"),
    "merge-negative-cell": lambda ws, tmp: _merge_with_broken(tmp, "csv", "-0.5"),
    "merge-cell-off-the-quantum": lambda ws, tmp: _merge_with_broken(tmp, "csv", "0.1"),
    "merge-fractional-total-count": lambda ws, tmp: _merge_with_header(tmp, "total_count", 3.7),
    "merge-classes-not-a-list": lambda ws, tmp: _merge_with_header(tmp, "classes", "ped"),
    "density-nan-timestamp": _density_with_nan_timestamp,
    "eval-bbox-overflowing-polygon": lambda ws, tmp: _eval_with_overflowing_polygon(ws, tmp, "bbox"),
    "eval-segm-overflowing-polygon": lambda ws, tmp: _eval_with_overflowing_polygon(ws, tmp, "segm"),
    "eval-duplicate-annotation-id": _eval_with_duplicate_annotation_id,
    "filter-duplicate-detection-id": _filter_with_duplicate_detection_id,
    "eval-dataset-detection-without-score": lambda ws, tmp: _without_a_score(
        ws, tmp, "eval", "dataset"),
    "eval-list-detection-without-score": lambda ws, tmp: _without_a_score(
        ws, tmp, "eval", "list"),
    "filter-dataset-detection-without-score": lambda ws, tmp: _without_a_score(
        ws, tmp, "filter", "dataset"),
    "filter-list-detection-without-score": lambda ws, tmp: _without_a_score(
        ws, tmp, "filter", "list"),
    "map-unknown-class": _map_with_unknown_class,
    "eval-segm-bbox-only-detections": _segm_eval_of_bbox_only_detections,
    "eval-image-width-0": lambda ws, tmp: _eval_with_image_size(ws, tmp, 0, 1080),
    "eval-negative-image-height": lambda ws, tmp: _eval_with_image_size(ws, tmp, 1920, -1080),
    "taxonomy-is-a-list": lambda ws, tmp: _stats_with_taxonomy(ws, tmp, []),
    "taxonomy-id-not-a-number": lambda ws, tmp: _stats_with_taxonomy(ws, tmp, {
        "version": 1, "classes": [{"id": "x", "name": "pedestrian", "supercategory": "people"}],
    }),
}


@pytest.mark.parametrize("case", list(DATA_ERRORS))
def test_data_error_exits_3(workspace, tmp_path, capsys, case):
    argv, named = DATA_ERRORS[case](workspace, tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(named) in err


def test_bare_list_bbox_with_3_values_exits_3(workspace, tmp_path, capsys):
    sim = _sim(workspace)
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps(
        [{"image_id": 1, "category_id": 1, "score": 0.9, "bbox": [0, 0, 5]}]
    ))
    rc = main(["eval", "--gt", str(sim / "gt.json"), "--detections", str(dets),
               "--iou-mode", "bbox"])
    assert rc == 3
    assert "bbox with 3 values" in capsys.readouterr().err


def test_eval_refuses_a_polygon_whose_edge_span_overflows(workspace, tmp_path, capsys):
    # the annotation keeps its finite bbox; loading refuses the hull, naming it
    doc = json.loads((_sim(workspace) / "gt.json").read_text())
    doc["annotations"][0]["segmentation"] = [[-1e308, 0.0, 1e308, 10.0, 0.0, 20.0]]
    (tmp_path / "gt.json").write_text(json.dumps(doc))
    for iou_mode in ("segm", "bbox"):
        rc = main(["eval", "--gt", str(tmp_path / "gt.json"),
                   "--detections", str(_sim(workspace) / "detections.json"),
                   "--iou-mode", iou_mode])
        assert rc == 3
        err = capsys.readouterr().err
        assert "annotation 1 has polygon hull (-1e+308, 0.0, inf, 20.0), not finite" in err


def test_extrinsics_rejects_intrinsics_in_other_units(workspace, tmp_path, capsys):
    intr = tmp_path / "intr.json"
    intr.write_text(json.dumps({
        "units": "ft-px",
        "image_size": [1920, 1080],
        "intrinsics": {"fx": 1200.0, "fy": 1200.0, "cx": 960.0, "cy": 540.0},
    }))
    points = tmp_path / "points.csv"
    points.write_text("X,Y,Z,u,v\n" + "".join(
        f"{x},{y},0.0,{800 + 40 * x},{500 + 30 * y}\n" for x in range(3) for y in range(3)
    ))
    out = tmp_path / "cam.json"
    rc = main(["calibrate", "extrinsics", "--intrinsics", str(intr),
               "--points", str(points), "--out", str(out)])
    assert rc == 2
    assert "'ft-px'" in capsys.readouterr().err
    assert not out.exists()


WIDE_LENS = {"k1": -0.45, "k2": 0.25, "k3": -0.1}  # distorted radius peaks at 0.709


def test_extrinsics_reference_point_the_lens_cannot_invert_exits_3(tmp_path, capsys):
    intr = tmp_path / "intr.json"
    intr.write_text(json.dumps({
        "units": "m-px",
        "image_size": [1920, 1080],
        "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 960.0, "cy": 540.0},
        "distortion": WIDE_LENS,
    }))
    points = tmp_path / "points.csv"
    rows = [f"{x},{y},0.0,{800 + 40 * x},{500 + 30 * y}" for x in range(3) for y in range(2)]
    rows.append("9.0,9.0,0.0,20.0,1070.0")  # a corner pixel: radius 1.08 > 0.709
    points.write_text("X,Y,Z,u,v\n" + "\n".join(rows) + "\n")
    out = tmp_path / "cam.json"
    rc = main(["calibrate", "extrinsics", "--intrinsics", str(intr),
               "--points", str(points), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "reference point 6" in err and "(20.0, 1070.0)" in err
    assert not out.exists()


def test_project_pixel_the_lens_cannot_invert_exits_4(workspace, tmp_path, capsys):
    doc = json.loads((_sim(workspace) / "camera.json").read_text())
    doc["intrinsics"].update(fx=1000.0, fy=1000.0)
    doc["distortion"].update(WIDE_LENS, p1=0.0, p2=0.0)
    camera = tmp_path / "wide.json"
    camera.write_text(json.dumps(doc))
    assert main(["project", "--camera", str(camera), "--pixel", "960", "1000"]) == 0
    capsys.readouterr()
    assert main(["project", "--camera", str(camera), "--pixel", "20", "1070"]) == 4
    assert "cannot be undistorted" in capsys.readouterr().err


def test_numeric_error_exits_4(workspace, tmp_path, capsys):
    # collinear survey points leave the pose unsolvable
    points = tmp_path / "line.csv"
    rows = ["X,Y,Z,u,v"]
    for i in range(8):
        rows.append(f"{i * 0.5},0.0,0.0,{100 + 40 * i},{400}")
    points.write_text("\n".join(rows) + "\n")
    intr = tmp_path / "intr.json"
    intr.write_text(json.dumps({
        "units": "m-px",
        "image_size": [1920, 1080],
        "intrinsics": {"fx": 1200.0, "fy": 1200.0, "cx": 960.0, "cy": 540.0},
    }))
    rc = main(["calibrate", "extrinsics", "--intrinsics", str(intr),
               "--points", str(points), "--out", str(tmp_path / "cam.json")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_merge_past_int64_exits_4(tmp_path, capsys):
    zero = zero_raster(MapExtent((0.0, 0.0), 0.0, 4.5, 32.0), 0.5)
    full = dataclasses.replace(zero, quanta=np.full(zero.shape, 2**62, dtype=np.int64))
    for base in ("a", "b"):
        save_density(tmp_path / base, full)
    argv = ["density", "--merge", str(tmp_path / "a"), str(tmp_path / "b"),
            "--out", str(tmp_path / "m")]
    assert main(argv) == 4
    assert "would pass 2**63 - 1 quanta" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


# -- outputs never overwrite inputs, each other or the manifest -----------------------


def _copy_scene_file(ws, tmp, name):
    (tmp / name).write_bytes((_sim(ws) / name).read_bytes())
    return tmp / name


def _observations(ws, tmp):
    assert main(_map_argv(ws, "--out", str(tmp / "obs.csv"))) == 0
    (tmp / "obs.manifest.json").unlink()
    return tmp / "obs.csv"


# argv, and the input it would overwrite: {tmp} is the test's directory
OVERWRITES = {
    "output-is-the-input": lambda ws, tmp: (
        _map_argv(ws, "--extent", str(_copy_scene_file(ws, tmp, "extent.json")),
                  "--out", str(tmp / "extent.json")),
        tmp / "extent.json"),
    "second-output-is-an-input": lambda ws, tmp: (
        ["eval", "--gt", str(_copy_scene_file(ws, tmp, "gt.json")),
         "--detections", str(_sim(ws) / "detections.json"), "--iou-mode", "bbox",
         "--out", str(tmp / "eval.json"), "--pr-curves", str(tmp / "gt.json")],
        tmp / "gt.json"),
    "raster-csv-is-an-input": lambda ws, tmp: (
        ["density", "--observations", str(_observations(ws, tmp)),
         "--extent", str(_sim(ws) / "extent.json"), "--out", str(tmp / "obs")],
        tmp / "obs.csv"),
    "directory-holds-an-input": lambda ws, tmp: (
        ["simulate", "--frames", "1", "--agents", "1",
         "--extent", str(_copy_scene_file(ws, tmp, "extent.json")), "--out-dir", str(tmp)],
        tmp / "extent.json"),
}


@pytest.mark.parametrize("case", list(OVERWRITES))
def test_output_over_an_input_exits_2(workspace, tmp_path, capsys, case):
    argv, victim = OVERWRITES[case](workspace, tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 2
    assert f"would overwrite input {victim}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def _eval_argv(ws, *extra):
    sim = _sim(ws)
    return ["eval", "--gt", str(sim / "gt.json"), "--detections", str(sim / "detections.json"),
            "--iou-mode", "bbox", *extra]


# argv, and the message expected on stderr: {tmp} is the test's directory
COLLISIONS = {
    "eval-out-is-pr-curves": (
        lambda ws, tmp: _eval_argv(ws, "--out", str(tmp / "same.json"),
                                   "--pr-curves", str(tmp / "same.json")),
        "outputs {tmp}/same.json and {tmp}/same.json name the same file"),
    "pr-curves-is-the-manifest": (
        lambda ws, tmp: _eval_argv(ws, "--out", str(tmp / "e.json"),
                                   "--pr-curves", str(tmp / "e.manifest.json")),
        "output {tmp}/e.manifest.json would be overwritten by the manifest"),
    "split-train-is-test": (
        lambda ws, tmp: ["split", "--annotations", str(_sim(ws) / "gt.json"),
                         "--out-train", str(tmp / "a.json"), "--out-test", str(tmp / "a.json")],
        "outputs {tmp}/a.json and {tmp}/a.json name the same file"),
}


@pytest.mark.parametrize("case", list(COLLISIONS))
def test_two_writes_to_one_file_exit_2(workspace, tmp_path, capsys, case):
    argv, message = COLLISIONS[case]
    assert main(argv(workspace, tmp_path)) == 2
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
