"""In-memory spans recorded around calls into posmap, from outside the package.

A :class:`Tracer` patches public functions at module boundaries with
wrappers that record one span per call: name, layer, start, end, parent
span and the run's trace id, plus counts read from the call's arguments and
result. Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines. Nothing under ``src/`` is modified; :meth:`Tracer.uninstall` puts the
original attributes back.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.pass_index = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "layer": layer,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "trace": self.trace_id,
                "pass": self.pass_index,
                "counts": {},
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` returns a dict of counts stored on
        the span; it runs after the span has ended.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"

        def wrapper(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index]["counts"] = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Children of one span run one after another (the program is
    single-threaded), so the covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [max(0.0, s["end"] - s["start"] - c) for s, c in zip(spans, child_time)]


# ---------------------------------------------------------------------------
# the boundaries the benchmark instruments
# ---------------------------------------------------------------------------


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _dataset_counts(args, kwargs, ds):
    return {
        "records": len(ds.images) + len(ds.annotations) + len(ds.categories),
        "mb": _file_mb(args[0]),
    }


def _detections_counts(args, kwargs, dets):
    return {"records": len(dets), "mb": _file_mb(args[0])}


def _map_frame_counts(args, kwargs, frame):
    return {
        "annotations_in": len(args[1]),
        "observations": len(frame.observations),
        "out_of_extent": len(frame.out_of_extent),
        "failures": len(frame.failures),
    }


def _kde_counts(args, kwargs, grid):
    # cells one kernel window touches: the truncation reach is 5 bandwidths
    cell = args[2]
    side = int(2 * 5.0 * grid.bandwidth / cell) + 1
    ny, nx = grid.values.shape
    return {
        "points": grid.total_count,
        "cells_computed": grid.total_count * min(side, ny) * min(side, nx),
    }


def _save_density_counts(args, kwargs, paths):
    return {"mb": sum(_file_mb(p) for p in paths.values())}


def _rasterize_counts(args, kwargs, mask):
    return {"mask_mb_computed": args[1] * args[2] / 1e6}


def _undistort_counts(args, kwargs, result):
    return {"nonconverged": 0 if result[2] else 1}


def _rows_counts(args, kwargs, result):
    return {"rows": result if isinstance(result, int) else len(result)}


def instrument_chain(tracer: Tracer, pair_counts: dict[int, int]) -> None:
    """Wrap the library calls the CLI chain makes, as bound in ``posmap.cli``.

    ``pair_counts`` maps category id to the sum over images of
    n_det * n_gt for that class; it is computed from the inputs, and
    evaluation spans carry it as ``iou_pairs_computed``.
    """
    import posmap.cli as cli
    import posmap.evaluation as evaluation
    from posmap.camera import CameraModel, Distortion

    all_pairs = sum(pair_counts.values())
    tracer.wrap(cli, "load_dataset", "coco", _dataset_counts)
    tracer.wrap(cli, "load_detections", "coco", _detections_counts)
    tracer.wrap(cli, "map_frame", "mapping", _map_frame_counts)
    tracer.wrap(cli, "save_observations", "mapping", _rows_counts)
    tracer.wrap(cli, "load_observations", "mapping", _rows_counts)
    tracer.wrap(cli, "kde_raster", "density", _kde_counts)
    tracer.wrap(cli, "merge_rasters", "density")
    tracer.wrap(cli, "save_density", "density", _save_density_counts)
    tracer.wrap(cli, "load_density", "density")
    tracer.wrap(
        cli, "evaluate_detections", "evaluation",
        lambda a, k, r: {"iou_pairs_computed": all_pairs},
    )
    tracer.wrap(
        cli, "pr_curve", "evaluation",
        lambda a, k, r: {"iou_pairs_computed": pair_counts.get(a[2], 0)},
    )
    tracer.wrap(
        cli, "diagnose_errors", "evaluation",
        lambda a, k, r: {"iou_pairs_computed": all_pairs},
    )
    tracer.wrap(evaluation, "rasterize_polygons", "geometry2d", _rasterize_counts)
    tracer.wrap(CameraModel, "back_project_ground", "camera")
    tracer.wrap(Distortion, "undistort", "camera", _undistort_counts)


def instrument_setup(tracer: Tracer) -> None:
    """Wrap the simulator call of ``posmap simulate``."""
    import posmap.cli as cli

    tracer.wrap(cli, "simulate", "simulate", lambda a, k, r: {"frames": len(r.frames)})
