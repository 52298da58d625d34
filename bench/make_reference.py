"""Rebuild bench/reference.npz, the reference solutions without a closed form.

    python3 bench/make_reference.py

The Hertz displacement field and both drilled-beam fields have no
closed-form reference. For those workloads this script solves the same
cloud with support size run.REFERENCE_N instead of the workload's, and
keeps the positions, displacements and stresses of the boundary nodes
(relaxation never moves them). The benchmark's e_inf_u / e_inf_sigma for
such a workload is the normalized max-norm difference from this
solution: a discretization-difference estimate that rounding-level or
solver changes do not move. Run it only when a workload's cloud changes
on purpose.
"""
from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

import run


def reference_args(wl: run.Workload) -> tuple[str, ...]:
    args = list(wl.args)
    args[args.index("--n") + 1] = run.REFERENCE_N
    return tuple(args)


def solve_reference(wl: run.Workload) -> dict[str, np.ndarray]:
    """Boundary-node positions and [u, v, sxx, syy, sxy] of the reference solve."""
    run.SCRATCH.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=run.SCRATCH))
    try:
        rec, stderr = run.run_child(False, (*reference_args(wl), "--out", str(outdir)), timeout=600)
        if rec is None or rec.get("rc") != 0:
            raise RuntimeError(f"reference solve failed: {stderr.strip()[-400:]}")
        out = run.read_outputs(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    fields = out["fields"][out["boundary"]]
    return {"pos": fields[:, :2], "fields": fields[:, 2:7]}


def needs_reference(wl: run.Workload) -> bool:
    return len(wl.from_sweep) < len(run.ACCURACY)


def main() -> None:
    arrays = {}
    for name, wl in run.WORKLOADS.items():
        if needs_reference(wl):
            ref = solve_reference(wl)
            arrays.update({f"{name}.{k}": v for k, v in ref.items()})
            print(f"{name}: {len(ref['pos'])} boundary nodes")
    np.savez_compressed(run.REFERENCE, **arrays)
    shutil.rmtree(run.SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
