"""Build one workload's scene in a process of its own.

    python3 perfbench/setup_child.py ARGS.pickle RESULT.pickle

ARGS holds ``(workload, seed, scene_dir, describe, trace_id)`` as pickled by
``run.py``; the set-up time, the spans and (if asked) the scene description
are pickled to RESULT. The process starts no other process.
"""

import pickle
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import setup_child  # noqa: E402

if __name__ == "__main__":
    args = pickle.loads(Path(sys.argv[1]).read_bytes())
    Path(sys.argv[2]).write_bytes(pickle.dumps(setup_child(*args)))
