"""Output checks, run after the timed region on the files the chain wrote.

Each check is one operation of the run: a failed check counts against
``ok_frac`` exactly like a CLI command that exits nonzero.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVAL_TOL = 1e-6  # agreement with the reference evaluator (acceptance c4)
MASS_TOL = 0.01  # relative raster mass error (acceptance c7)
GROUND_TOL_M = 0.10  # mean ground error of mapped observations (acceptance c2)
_EVAL_FIELDS = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large", "ar100")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _guarded(check):
    """A check whose output is missing or unreadable fails; it does not crash the run."""

    @functools.wraps(check)
    def wrapper(path, *args):
        try:
            return check(path, *args)
        except Exception as e:  # any error reading the output is a failed check
            where = f"{Path(path).parent.name}/{Path(path).name}"
            return Check(f"{check.__name__} ({where})", False, f"{type(e).__name__}: {e}")

    return wrapper


def load_reference(root: Path):
    """Import ``tests/_reference_eval.py`` by path, without touching sys.path."""
    path = root / "tests" / "_reference_eval.py"
    spec = importlib.util.spec_from_file_location("_perfbench_reference_eval", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_evaluate


class Scene:
    """What the checks need from the inputs: ground truth, truth positions."""

    def __init__(self, scene: Path) -> None:
        from posmap.coco import load_dataset

        self.dir = scene
        self.gt = load_dataset(scene / "gt.json")
        self.names = {c.id: c.name for c in self.gt.categories}
        truth = json.loads((scene / "truth_by_annotation.json").read_text())
        self.truth = {int(k): v for k, v in truth.items()}
        sizes = {im.id: (im.width, im.height) for im in self.gt.images}
        # a polygon clipped by the frame edge has no true footpoint in view
        self.clipped = set()
        for ann in self.gt.annotations:
            w, h = sizes[ann.image_id]
            xs = [v for p in ann.segmentation for v in p[0::2]]
            ys = [v for p in ann.segmentation for v in p[1::2]]
            if min(xs) <= 0 or max(xs) >= w or min(ys) <= 0 or max(ys) >= h:
                self.clipped.add(ann.id)

    def reference(self, root: Path, iou_mode: str) -> dict:
        from posmap.coco import load_detections

        dets = load_detections(self.dir / "detections.json")
        return load_reference(root)(self.gt, dets, iou_mode=iou_mode)


@_guarded
def check_eval(path: Path, reference: dict, names: dict[int, str]) -> Check:
    name = f"eval matches reference ({path.parent.name})"
    doc = json.loads(path.read_text())
    worst = 0.0
    problems = []

    def compare(label: str, ours: dict, ref: dict) -> None:
        nonlocal worst
        for f in _EVAL_FIELDS:
            a, b = ours.get(f), ref[f]
            if (a is None) != (b is None):
                problems.append(f"{label}.{f}: {a} vs {b}")
            elif a is not None:
                worst = max(worst, abs(a - b))

    for cat, label in names.items():
        ours = doc["per_class"].get(label)
        if ours is None:
            problems.append(f"{label} missing")
            continue
        if ours["n_gt"] != reference[cat]["n_gt"]:
            problems.append(f"{label}.n_gt: {ours['n_gt']} vs {reference[cat]['n_gt']}")
        compare(label, ours, reference[cat])
    compare("mean", doc["mean"], reference["means"])
    ok = not problems and worst <= EVAL_TOL
    return Check(name, ok, f"worst |diff| {worst:.2e}" + (f"; {problems[:3]}" if problems else ""))


@_guarded
def check_ladder(path: Path) -> Check:
    doc = json.loads(path.read_text())
    ladders = dict(doc["per_class"])
    if doc["mean"] is not None:
        ladders["mean"] = doc["mean"]
    bad = []
    for label, ladder in ladders.items():
        steps = list(ladder.values())
        if any(b < a for a, b in zip(steps, steps[1:])) or steps[-1] != 1.0:
            bad.append(label)
    return Check(
        f"ladders monotone, end at 1 ({path.parent.name})",
        bool(ladders) and not bad,
        f"{len(ladders)} ladders" + (f", bad: {bad}" if bad else ""),
    )


@_guarded
def check_mass(base: Path, loaded: dict) -> Check:
    """Raster mass equals its observation count; keeps the grid in ``loaded``."""
    from posmap.density import load_density

    grid = loaded[base] = load_density(base)
    n = grid.total_count
    err = abs(grid.mass() - n) / n if n else abs(grid.mass())
    return Check(
        f"raster mass ({base.parent.name}/{base.name})",
        err <= MASS_TOL,
        f"count {n}, relative mass error {err:.2e}",
    )


@_guarded
def check_merge(running: Path, clip_bases: list[Path], loaded: dict) -> Check:
    """The CLI's running merge equals an in-memory merge in reverse order, bitwise."""
    from posmap.density import load_density, merge_rasters

    final = load_density(running)
    clips = [loaded.get(base) or load_density(base) for base in clip_bases]
    merged = clips[-1]
    for grid in reversed(clips[:-1]):
        merged = merge_rasters(merged, grid)
    ok = (
        np.array_equal(final.values, merged.values)
        and final.total_count == merged.total_count
    )
    return Check(
        "running raster == reverse in-memory merge, bit for bit",
        ok,
        f"{len(clips)} clip rasters, {final.total_count} observations",
    )


@_guarded
def check_ground_error(obs_csv: Path, scene: Scene) -> Check:
    errors = []
    with obs_csv.open(newline="") as fh:
        for row in csv.DictReader(fh):
            ann_id = int(row["annotation_id"])
            if ann_id in scene.clipped:
                continue
            tx, ty = scene.truth[ann_id]
            errors.append(math.hypot(float(row["x"]) - tx, float(row["y"]) - ty))
    mean = float(np.mean(errors)) if errors else math.inf
    return Check(
        f"mean ground error ({obs_csv.parent.name})",
        mean < GROUND_TOL_M,
        f"{mean:.4f} m over {len(errors)} unclipped observations",
    )
