"""Seeded benchmark of the posmap CLI chain.

    python3 perfbench/run.py --workload survey-bbox --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Set-up simulates the workload's
scene from ``--seed`` in a separate process; the chain then drives
``posmap.cli.main(argv)`` in this process, one command after another, for
``--seconds`` seconds. The outputs are checked after the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the ``end_to_end`` set of ``BENCHMARK.json``, measured with
no tracing. With ``--trace 1`` they are its ``per_layer`` set: every other
pass runs traced, and the untraced passes in between give the tracing
overhead. Results, the machine fingerprint and the spans are also written
under ``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

from checks import (
    Check,
    Scene,
    check_eval,
    check_ground_error,
    check_ladder,
    check_mass,
    check_merge,
)
from spans import Tracer, instrument_chain, self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
COMPUTED = ("evaluation.iou_pairs", "geometry2d.mask_mb", "density.kde_cells")
SETUP_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _in_child(*args) -> dict:
    """Run ``setup_child(*args)`` in a fresh Python process and return its result.

    A plain child process (not ``multiprocessing``, whose spawn method leaves
    a resource-tracker process behind) that is always waited for.
    """
    scene = Path(args[2])
    args_file = scene.with_name(scene.name + ".args.pickle")
    result_file = scene.with_name(scene.name + ".result.pickle")
    args_file.write_bytes(pickle.dumps(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(args_file), str(result_file)],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up process failed with exit code {proc.returncode}: {proc.stderr[-600:]}"
            )
        return pickle.loads(result_file.read_bytes())
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        raise RuntimeError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from None
    finally:
        args_file.unlink(missing_ok=True)
        result_file.unlink(missing_ok=True)


def _set_up(workload: Workload, seed: int, work: Path, trace_id: str | None) -> list[dict]:
    """Build the scene at least three times; keep the first copy as the input.

    Fast set-ups repeat until two seconds have passed (at most nine times),
    so their median is not one scheduler tick.
    """
    reps = [_in_child(workload, seed, str(work / "scene"), True, trace_id)]
    while len(reps) < 3 or (sum(r["setup_s"] for r in reps) < 2.0 and len(reps) < 9):
        spare = work / "scene-repeat"
        reps.append(_in_child(workload, seed, str(spare), False, trace_id))
        shutil.rmtree(spare)
    return reps


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------


def _call(main, argv: list[str], tracer: Tracer | None):
    """One CLI command; returns its exit code, or the error that ended it."""
    span = tracer.begin(f"cli.{argv[0]}", "cli") if tracer else None
    try:
        return main(argv)
    except SystemExit as e:
        return e.code
    except Exception as e:  # a crash is a failed operation; the run goes on
        return f"{type(e).__name__}: {e}"
    finally:
        if tracer:
            tracer.end(span)


def _run_chain(workload, scene, work, seconds, tracer, pair_counts) -> dict:
    """Passes until ``seconds`` have elapsed; with a tracer every other one is traced."""
    from posmap.cli import main

    running = work / "running"
    if workload.clip_frames:
        for suffix in (".csv", ".json"):
            shutil.copy(scene / f"empty{suffix}", running.with_suffix(suffix))
    min_passes = 2 if tracer else 1
    latency = {False: [], True: []}
    passes, errors = [], []
    commands = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            index = len(passes)
            out = work / f"pass{index:04d}"
            out.mkdir()
            argvs = workload.pass_commands(scene, out, index, running)
            commands += len(argvs)
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.pass_index = index
                instrument_chain(tracer, pair_counts)
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    t0 = time.perf_counter()
                    codes = [_call(main, argv, tracer if traced else None) for argv in argvs]
                    latency[traced].append(time.perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
            for argv, code in zip(argvs, codes):
                if code != 0:
                    errors.append(f"{out.name}: posmap {argv[0]} -> {code}: "
                                  f"{stderr.getvalue().strip()[-300:]}")
            passes.append(out)
    return {
        "passes": passes,
        "running": running,
        "latency": latency,
        "commands": commands,
        "errors": errors,
        # ru_maxrss is in KiB on Linux; set-up ran in other processes
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _run_checks(workload: Workload, scene_dir: Path, chain: dict) -> list[Check]:
    scene = Scene(scene_dir)
    reference = scene.reference(ROOT, workload.iou_mode) if workload.iou_mode else None
    loaded: dict = {}
    checks = []
    for out in chain["passes"]:
        if workload.iou_mode:
            checks.append(check_eval(out / "eval.json", reference, scene.names))
            checks.append(check_ladder(out / "diag.json"))
        if workload.with_mapping or workload.clip_frames:
            raster = out / ("clip" if workload.clip_frames else "density")
            checks.append(check_mass(raster, loaded))
            checks.append(check_ground_error(out / "obs.csv", scene))
    if workload.clip_frames:
        checks.append(check_mass(chain["running"], loaded))
        checks.append(check_merge(chain["running"], [p / "clip" for p in chain["passes"]], loaded))
    return checks


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _throughput(workload: Workload, latency: list[float]) -> float:
    """Frames over the summed time of the passes: unlike a median of per-pass
    rates it does not jump when the machine's speed flips between two levels."""
    return workload.frames_per_pass * len(latency) / sum(latency)


def _end_to_end(workload, reps, chain, ok_frac) -> dict:
    latency = chain["latency"][False]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "frames_per_s": _throughput(workload, latency),
        "peak_rss_mb": chain["peak_rss_mb"],
        "ok_frac": ok_frac,
        "update_ms_p50": statistics.median(latency) * 1e3,
        "update_ms_p90": _p90(latency) * 1e3,
    }


def _per_layer(workload, reps, chain, spans) -> dict:
    """Per-layer totals per traced pass (per update on clips-incremental)."""
    n = len(chain["latency"][True])
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span["name"]].append(span)
        layer_self[span["layer"]] += own

    def dur(*names):
        return sum(s["end"] - s["start"] for nm in names for s in by_name[nm]) / n

    def calls(*names):
        return sum(len(by_name[nm]) for nm in names) / n

    def total(key, *names):
        return sum(s["counts"].get(key, 0) for nm in names for s in by_name[nm]) / n

    coco = ("coco.load_dataset", "coco.load_detections")
    evals = ("evaluation.evaluate_detections", "evaluation.pr_curve", "evaluation.diagnose_errors")
    observations = total("observations", "mapping.map_frame")
    setup_spans = [r["spans"][0] for r in reps]
    setup_selfs = [self_times(r["spans"])[0] for r in reps]
    fps = {traced: _throughput(workload, chain["latency"][traced]) for traced in (False, True)}
    metrics = {
        "cli.commands": sum(calls(nm) for nm in by_name if nm.startswith("cli.")),
        "coco.load_s": dur(*coco),
        "coco.records": total("records", *coco),
        "coco.mb_read": total("mb", *coco),
        "evaluation.evaluate_s": dur("evaluation.evaluate_detections"),
        "evaluation.pr_curve_s": dur("evaluation.pr_curve"),
        "evaluation.pr_curve_calls": calls("evaluation.pr_curve"),
        "evaluation.diagnose_s": dur("evaluation.diagnose_errors"),
        "evaluation.iou_pairs": total("iou_pairs_computed", *evals),
        "geometry2d.rasterize_calls": calls("geometry2d.rasterize_polygons"),
        "geometry2d.rasterize_s": dur("geometry2d.rasterize_polygons"),
        "geometry2d.mask_mb": total("mask_mb_computed", "geometry2d.rasterize_polygons"),
        "camera.back_project_calls": calls("camera.back_project_ground"),
        "camera.back_project_s": dur("camera.back_project_ground"),
        "camera.undistort_nonconverged": total("nonconverged", "camera.undistort"),
        "mapping.map_frame_s": dur("mapping.map_frame"),
        "mapping.annotations_in": total("annotations_in", "mapping.map_frame"),
        "mapping.observations": observations,
        "mapping.out_of_extent": total("out_of_extent", "mapping.map_frame"),
        "mapping.failures": total("failures", "mapping.map_frame"),
        "mapping.decimation_keep_ratio": (
            total("rows", "mapping.save_observations") / observations if observations else 0.0
        ),
        "mapping.obs_io_s": dur("mapping.save_observations", "mapping.load_observations"),
        "density.kde_s": dur("density.kde_raster"),
        "density.kde_points": total("points", "density.kde_raster"),
        "density.kde_cells": total("cells_computed", "density.kde_raster"),
        "density.merge_s": dur("density.merge_rasters"),
        "density.io_s": dur("density.save_density", "density.load_density"),
        "density.mb_written": total("mb", "density.save_density"),
        "simulate.scene_s": statistics.median(s["end"] - s["start"] for s in setup_spans),
        "simulate.frames": statistics.median(s["counts"]["frames"] for s in setup_spans),
        "simulate.self_s": statistics.median(setup_selfs),
        "trace.frames_per_s_untraced": fps[False],
        "trace.frames_per_s_traced": fps[True],
        "trace.overhead_frac": fps[False] / fps[True] - 1.0,
    }
    for layer in ("cli", "coco", "evaluation", "geometry2d", "camera", "mapping", "density"):
        metrics[f"{layer}.self_s"] = layer_self[layer] / n
    return metrics


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, perturb=None) -> dict:
    """Set up, run the chain, check its outputs; return the full result.

    ``perturb(work_dir)``, when given, runs between the chain and the
    checks; the self-test uses it to corrupt an output on purpose.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    trace_id = f"{workload.name}-s{seed}-{uuid.uuid4().hex[:12]}"
    work = OUT / "work" / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(trace_id) if trace else None
    try:
        reps = _set_up(workload, seed, work, trace_id if trace else None)
        inputs = reps[0]["describe"]
        pair_counts = inputs.pop("pair_counts")
        chain = _run_chain(workload, work / "scene", work, seconds, tracer, pair_counts)
        if perturb is not None:
            perturb(work)
        checks = _run_checks(workload, work / "scene", chain)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = chain["commands"] + len(checks)
    failed = len(chain["errors"]) + sum(not c.ok for c in checks)
    ok_frac = 1.0 - failed / attempted
    if trace:
        values = _per_layer(workload, reps, chain, tracer.spans)
    else:
        values = _end_to_end(workload, reps, chain, ok_frac)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(values) ^ set(units))}"
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "trace_id": trace_id,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine": _machine(),
        "inputs": {**inputs, "clips": workload.clips, "frames_per_pass": workload.frames_per_pass},
        "setup_s_reps": [r["setup_s"] for r in reps],
        "pass_latency_s": {
            "untraced": chain["latency"][False], "traced": chain["latency"][True],
        },
        "labels": {name: "computed" if name in COMPUTED else "observed" for name in units},
        "failed_frac": failed / attempted,
        "errors": chain["errors"],
        "checks": [vars(c) for c in checks],
        "line": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    stem = f"{workload.name}-s{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        # set-up spans have no parent, so appending them keeps parent indices valid
        tracer.spans += [s for r in reps for s in r["spans"]]
        tracer.write(OUT / "results" / f"{stem}.spans.jsonl")
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines printed before the JSON line."""
    inputs = result["inputs"]
    machine = result["machine"]
    lines = [
        f"# perfbench {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']} trace_id={result['trace_id']}",
        f"# commit {result['git_commit']} source_sha256 {result['source_sha256'][:16]}",
        "# machine " + " ".join(f"{k}={v}" for k, v in machine.items()),
        "# inputs " + " ".join(f"{k}={v}" for k, v in inputs.items()),
        f"# passes untraced={len(result['pass_latency_s']['untraced'])} "
        f"traced={len(result['pass_latency_s']['traced'])} "
        f"setup_reps={len(result['setup_s_reps'])}",
    ]
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    lines += [f"# FAILED {c['name']}: {c['detail']}" for c in failed_checks]
    lines += [f"# FAILED {e}" for e in result["errors"]]
    line = result["line"]
    lines.append(
        f"# failed_frac = {result['failed_frac']} ({line['failed']} of {line['attempted']} "
        f"operations; {len(result['checks'])} output checks)"
    )
    for name, m in line["metrics"].items():
        label = " (computed)" if result["labels"][name] == "computed" else ""
        lines.append(f"# {name} = {m['value']} {m['unit']}{label}")
    return lines


def use_checkout() -> str | None:
    """Import posmap from this checkout's ``src/``; return what is missing, if anything."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "posmap" / "cli.py",
              ROOT / "tests" / "_reference_eval.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        return f"not a posmap source checkout, missing {missing}"
    sys.path.insert(0, str(ROOT / "src"))
    import posmap

    if Path(posmap.__file__).resolve().parent != (ROOT / "src" / "posmap").resolve():
        return f"imported posmap from {posmap.__file__}, not from the checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = use_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(report(result)))
    print(json.dumps(result["line"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
