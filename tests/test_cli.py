"""End-to-end command-line tests: pipelines, manifests, exit codes."""

from __future__ import annotations

import hashlib
import json
import subprocess

import pytest

from posmap import __version__
from posmap.cli import main
from posmap.coco import load_dataset, load_detections, save_dataset
from posmap.density import load_density
from posmap.evaluation import EvalParams, pr_curve
from posmap.mapping import load_observations

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
        curve = pr_curve(gt, dets, cat.id, 0.5, EvalParams(iou_mode=iou_mode))
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


# -- exit codes ---------------------------------------------------------------------


def test_config_error_exits_2(workspace, capsys):
    sim = _sim(workspace)
    rc = main(
        ["map", "--camera", str(sim / "camera.json"),
         "--annotations", str(sim / "gt.json"), "--treatment", "bogus",
         "--out", "/dev/null"]
    )
    assert rc == 2
    assert "unknown treatment" in capsys.readouterr().err


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
    assert "fps must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_data_error_exits_3(tmp_path, capsys):
    rc = main(["stats", "--annotations", str(tmp_path / "missing.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


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
