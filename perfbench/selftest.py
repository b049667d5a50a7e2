"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in ``BENCHMARK.json`` is emitted with its unit and that no
operation fails (``failed_frac`` is 0). Then it corrupts one output on
purpose, one AP in ``eval.json`` off by 1e-3, and checks that the output
checks catch it and raise ``failed_frac``. Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run as bench
from workloads import WORKLOADS

TINY = {
    "survey-bbox": {"frames": 12, "agents": 4},
    "crowd-segm": {"frames": 2, "agents": 5},
    "clips-incremental": {"frames": 40, "agents": 4},  # four clips of ten frames
}
SEED = 7
SECONDS = 0.5


def _tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def _shift_one_ap(work) -> None:
    path = work / "pass0000" / "eval.json"
    doc = json.loads(path.read_text())
    metrics = next(m for m in doc["per_class"].values() if m["ap"] is not None)
    metrics["ap"] += 1e-3
    path.write_text(json.dumps(doc))


def main() -> int:
    problem = bench.use_checkout()
    if problem:
        print(f"selftest: {problem}", file=sys.stderr)
        return 2
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in TINY:
        for trace in (False, True):
            result = bench.run(_tiny(name), SEED, SECONDS, trace)
            metrics = result["line"]["metrics"]
            for m in declared["per_layer" if trace else "end_to_end"]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {m['name']} missing or without unit")
            if result["failed_frac"] != 0:
                problems.append(f"{name} trace={int(trace)}: failed_frac {result['failed_frac']}: "
                                f"{result['errors'] + [c for c in result['checks'] if not c['ok']]}")
            print(f"{name} trace={int(trace)}: {len(metrics)} metrics, "
                  f"{result['line']['attempted']} operations, failed_frac {result['failed_frac']}")

    result = bench.run(_tiny("survey-bbox"), SEED, SECONDS, False, perturb=_shift_one_ap)
    caught = [c["name"] for c in result["checks"] if not c["ok"]]
    print(f"perturbed eval.json: failed_frac {result['failed_frac']}, caught by {caught}")
    if result["failed_frac"] <= 0 or not any(n.startswith("eval matches reference") for n in caught):
        problems.append("an AP shifted by 1e-3 in eval.json was not caught")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
