"""The three seeded workloads: how each builds its inputs and drives the chain.

Set-up is the load generator. It runs ``posmap simulate`` (and, for the clip
workload, splits the recording into clip files) in a fresh process, so its
time is measured alone and its memory never counts towards the chain's.
The chain then receives only the files set-up wrote.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, instrument_setup


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int  # frames of the simulated recording
    agents: int
    simulate_args: tuple[str, ...]
    iou_mode: str | None = None  # evaluation mode; None skips evaluation
    with_mapping: bool = False  # map and density in each pass
    clip_frames: int = 0  # > 0: the clips-incremental loop over clips of this length

    @property
    def clips(self) -> int:
        return self.frames // self.clip_frames if self.clip_frames else 0

    @property
    def frames_per_pass(self) -> int:
        return self.clip_frames or self.frames

    def simulate_argv(self, scene: Path, seed: int) -> list[str]:
        return [
            "simulate", "--out-dir", str(scene), "--frames", str(self.frames),
            "--agents", str(self.agents), "--seed", str(seed), *self.simulate_args,
        ]

    def clip_path(self, scene: Path, index: int) -> Path:
        return scene / "clips" / f"clip{index % self.clips:04d}.json"

    def chain_inputs(self, scene: Path) -> list[Path]:
        """Files the chain reads (the input size reported with each result)."""
        if self.clip_frames:
            clips = [self.clip_path(scene, i) for i in range(self.clips)]
            return [scene / "camera.json", scene / "extent.json", *clips]
        paths = [scene / "gt.json", scene / "detections.json"]
        if self.with_mapping:
            paths += [scene / "camera.json", scene / "extent.json"]
        return paths

    def pass_commands(self, scene: Path, out: Path, index: int, running: Path) -> list[list[str]]:
        """argv of each CLI command of pass ``index``, writing under ``out``."""
        if self.clip_frames:
            return [
                ["map", "--camera", str(scene / "camera.json"),
                 "--annotations", str(self.clip_path(scene, index)),
                 "--extent", str(scene / "extent.json"),
                 "--sample-rate", "1", "--out", str(out / "obs.csv")],
                ["density", "--observations", str(out / "obs.csv"),
                 "--extent", str(scene / "extent.json"), "--cell", "0.1",
                 "--out", str(out / "clip")],
                ["density", "--merge", str(running), str(out / "clip"),
                 "--out", str(running)],
            ]
        commands = []
        if self.with_mapping:
            commands += [
                ["map", "--camera", str(scene / "camera.json"),
                 "--annotations", str(scene / "gt.json"),
                 "--extent", str(scene / "extent.json"), "--out", str(out / "obs.csv")],
                ["density", "--observations", str(out / "obs.csv"),
                 "--extent", str(scene / "extent.json"), "--cell", "0.25",
                 "--out", str(out / "density")],
            ]
        gt_dets = ["--gt", str(scene / "gt.json"), "--detections", str(scene / "detections.json")]
        commands += [
            ["eval", *gt_dets, "--iou-mode", self.iou_mode,
             "--out", str(out / "eval.json"), "--pr-curves", str(out / "pr.csv")],
            ["diagnose", *gt_dets, "--iou-mode", self.iou_mode, "--out", str(out / "diag.json")],
        ]
        return commands


_NOISY = ("--noise", "1.5", "--miss", "0.1", "--confusion", "0.1")

WORKLOADS = {
    w.name: w
    for w in (
        # the README chain on a long, sparse 1 fps recording; bbox IoU only
        Workload("survey-bbox", frames=500, agents=10, simulate_args=(*_NOISY, "--cyclists", "0.3"),
                 iou_mode="bbox", with_mapping=True),
        # a short crowded scene scored on full-frame polygon masks; pedestrians
        # only, no misses and no class confusion, so every seed gives the same
        # number of masks and of mask pairs per pass
        Workload("crowd-segm", frames=4, agents=12, simulate_args=("--noise", "1.5"),
                 iou_mode="segm"),
        # 100 clips of 2 s at 5 fps, each mapped, rasterized and merged in turn
        Workload("clips-incremental", frames=1000, agents=8, clip_frames=10,
                 simulate_args=("--fps", "5", "--noise", "1.0", "--miss", "0.1",
                                "--cyclists", "0.2")),
    )
}


# ---------------------------------------------------------------------------
# set-up, run in a child process
# ---------------------------------------------------------------------------


def _write_clips(workload: Workload, scene: Path) -> None:
    from posmap.coco import Dataset, load_dataset, save_dataset
    from posmap.density import save_density, zero_raster
    from posmap.mapping import MapExtent

    ds = load_dataset(scene / "gt.json")
    images = sorted(ds.images, key=lambda im: im.id)
    by_image = ds.anns_by_image()
    (scene / "clips").mkdir()
    for c in range(workload.clips):
        part = images[c * workload.clip_frames:(c + 1) * workload.clip_frames]
        save_dataset(
            workload.clip_path(scene, c),
            Dataset(
                images=part,
                annotations=[a for im in part for a in by_image[im.id]],
                categories=ds.categories,
            ),
        )
    ext = json.loads((scene / "extent.json").read_text())
    extent = MapExtent(
        origin=tuple(ext["origin"]), rotation=ext["rotation"],
        width=ext["width"], length=ext["length"],
    )
    save_density(scene / "empty", zero_raster(extent, 0.1))


def _describe(workload: Workload, scene: Path, sim_result) -> dict:
    """Input sizes, per-class IoU pair counts and the simulator's truth.

    Runs after the timed set-up. The truth (ground position per ground-truth
    annotation id) is for the output checks only; the chain never reads it.
    """
    gt = json.loads((scene / "gt.json").read_text())
    dets = json.loads((scene / "detections.json").read_text())
    n_gt: dict[tuple[int, int], int] = {}
    for a in gt["annotations"]:
        key = (a["category_id"], a["image_id"])
        n_gt[key] = n_gt.get(key, 0) + 1
    n_det: dict[tuple[int, int], int] = {}
    for d in dets:
        key = (d["category_id"], d["image_id"])
        n_det[key] = n_det.get(key, 0) + 1
    pairs: dict[int, int] = {}
    for (cat, image), n in n_det.items():
        pairs[cat] = pairs.get(cat, 0) + min(n, 100) * n_gt.get((cat, image), 0)
    truth = {
        obs.annotation_id: [obs.x, obs.y]
        for frame in sim_result.frames
        for obs in frame.truth_observations
    }
    (scene / "truth_by_annotation.json").write_text(json.dumps(truth))
    return {
        "frames": len(gt["images"]),
        "gt_annotations": len(gt["annotations"]),
        "detections": len(dets),
        "input_mb": sum(p.stat().st_size for p in workload.chain_inputs(scene)) / 1e6,
        "pair_counts": pairs,
    }


def setup_child(workload: Workload, seed: int, scene: str, describe: bool, trace_id: str | None) -> dict:
    """Build one scene; return its set-up time (and, if asked, its description)."""
    import posmap.cli as cli

    scene_dir = Path(scene)
    captured = []
    simulate = cli.simulate

    def capturing_simulate(*args, **kwargs):
        captured.append(simulate(*args, **kwargs))
        return captured[-1]

    cli.simulate = capturing_simulate
    tracer = None
    if trace_id is not None:
        tracer = Tracer(trace_id)
        instrument_setup(tracer)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            rc = cli.main(workload.simulate_argv(scene_dir, seed))
            if rc == 0 and workload.clip_frames:
                _write_clips(workload, scene_dir)
            elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        cli.simulate = simulate
    if rc != 0:
        raise RuntimeError(f"posmap simulate exited with {rc}")
    message = {"setup_s": elapsed, "spans": tracer.spans if tracer else []}
    if describe:
        message["describe"] = _describe(workload, scene_dir, captured[-1])
    return message
