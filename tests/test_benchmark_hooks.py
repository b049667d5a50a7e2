"""The benchmark in ``perfbench/`` wraps posmap names where they are bound.

``perfbench/spans.py`` patches functions in ``posmap.cli``,
``posmap.evaluation`` and two camera classes from outside the package. A
refactor that unbinds one of them should fail here, not in a traced
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import posmap.cli
import posmap.evaluation
from posmap.camera import CameraModel, Distortion

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (posmap.cli, posmap.evaluation, CameraModel, Distortion)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_instruments_the_cli_chain_and_restores_it():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer("hooks")
    try:
        spans.instrument_chain(tracer, {})
        spans.instrument_setup(tracer)
        wrapped = {
            (owner, name)
            for owner, snapshot in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if snapshot.get(name) is not value
        }
        for name in ("evaluate_detections", "pr_curve", "diagnose_errors", "simulate"):
            assert (posmap.cli, name) in wrapped
        assert (posmap.evaluation, "rasterize_polygons") in wrapped
        assert (Distortion, "undistort") in wrapped
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before
