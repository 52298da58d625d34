"""Smoke test of the benchmark itself, on tiny versions of its workloads.

    python3 bench/selftest.py

For each workload, one untraced and two traced runs must pass every
output check and emit exactly the metric names BENCHMARK.json lists, and
the counts below must repeat exactly across the two traced runs. Takes
well under a minute; exits non-zero on the first failure.
"""
from __future__ import annotations

import dataclasses
import json
import shutil

import make_reference
import run

COUNTS = ("nodes.n", "neighbors.fallback_rows", "solve.factor_nnz", "solve.iterations", "elasticity.nnz")

TINY = {
    "hertz": dataclasses.replace(
        run.WORKLOADS["hertz"],
        args=("--case", "hertz", "--refine-levels", "3", "--secondary-levels", "0", "--n", "15", "--nx", "41"),
        nodes=2_429, seed_accuracy={}, samples=1,
    ),
    "cantilever-1e5": dataclasses.replace(
        run.WORKLOADS["cantilever-1e5"],
        args=("--case", "cantilever", "--n-target", "2000", "--n", "9", "--vtk"),
        nodes=2_109, seed_accuracy={}, samples=1,
    ),
    "drilled": run.WORKLOADS["drilled"],  # already small; keeps its seed checks
}


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    run.SCRATCH.mkdir(exist_ok=True)
    try:
        for name, wl in TINY.items():
            if wl is run.WORKLOADS[name]:
                reference = run.load_reference(name)
            elif make_reference.needs_reference(wl):
                reference = make_reference.solve_reference(wl)
            else:
                reference = None
            records = [run.run_workload(name, wl, 0, 0, trace, reference) for trace in (False, True, True)]
            traced = [r["result"] for r in records[1:]]
            for record, names in zip(records, (end_to_end, per_layer, per_layer)):
                result = record["result"]
                if not result["correct"]:
                    failures = [s["failures"] for s in record["samples"] if s["failures"]]
                    raise SystemExit(f"FAIL {name}: run not correct: {failures}")
                if set(result["metrics"]) != names:
                    raise SystemExit(f"FAIL {name}: metric names differ by {set(result['metrics']) ^ names}")
            for key in COUNTS:
                values = [t["metrics"][key]["value"] for t in traced]
                if values[0] != values[1]:
                    raise SystemExit(f"FAIL {name}: {key} differs across traced runs: {values}")
            print(f"PASS {name}: {wl.nodes} nodes, " + ", ".join(
                f"{k}={traced[0]['metrics'][k]['value']:g}" for k in COUNTS))
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
