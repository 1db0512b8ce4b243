"""Self-check of the benchmark: counts must repeat exactly.

Runs every workload twice, with different seeds and ``--trace 1`` (one
untraced and one traced pass each), and asserts that ``iterations``,
``cost_evals`` and every per-layer count repeat exactly.  Run from the
repository root::

    python3 benchmarks/selfcheck.py [workload ...]

Exits 0 when every count repeats, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
TIMEOUT = 600


def counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    name = f"{workload}-seed{seed}-trace1.json"
    result = json.loads((ROOT / ".bench_work" / "results" / name).read_text())
    out = {name: result["end_to_end"][name]
           for name in ("iterations", "cost_evals")}
    out.update((name, result["per_layer"][name])
               for name, unit in PER_LAYER if unit == "count")
    return out


def main(argv=None):
    workloads = (argv if argv else sys.argv[1:]) or WORKLOADS
    ok = True
    for workload in workloads:
        first, second = (counts(workload, seed) for seed in SEEDS)
        differ = {k: (first[k], second[k]) for k in first
                  if first[k] != second[k]}
        ok = ok and not differ
        status = "FAIL " + json.dumps(differ) if differ else "ok"
        print(f"{workload}: {len(first)} counts, seeds {SEEDS}: {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
