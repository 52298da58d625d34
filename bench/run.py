"""Benchmark of mlsm2d: time to solution, memory and accuracy on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Load model: closed loop, one
client. Every sample is its own child process (bench/child.py) that calls
`mlsm2d.cli.main` with the workload's inputs and the BLAS pools pinned to
one thread; the next child starts only when the previous one has exited.
A run first measures the package import in SETUP_PROBES import-only
children, then takes at least the workload's `samples` samples and goes
on until the next one would end past --seconds. Each workload passes
every input that defines its problem (case, size, support size,
refinement schedule) and leaves the solver to the program's defaults.
The seed is recorded and passed on as --seed; no workload draws random
numbers.

Every sample's outputs are checked: exit code, exact node count, finite
fields, accuracy ceilings, and for `drilled` the tip deflection and the
von Mises peak position. A failing sample counts in `failed` and the
record's `failed_frac`. With --trace 0 the end-to-end metrics are medians
over the run's samples. With --trace 1 the run alternates untraced and
traced samples, starting untraced, and reports per-layer metrics (medians
over the traced samples) plus the tracing overhead (traced minus untraced
median wall time). The last stdout line is the result object; a record
of the run, with every raw sample, goes to .bench_records/ in the
checkout.

e_inf_u and e_inf_sigma are normalized max-norm errors against the
closed-form reference where the case has one (sweep.csv). Where it has
none (Hertz displacements, both drilled-beam fields) they are deviations
from the committed reference solution in reference.npz (see
make_reference.py).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import spans as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.npz"
RECORDS = ROOT / ".bench_records"
SCRATCH = ROOT / ".bench_out"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Import-only children per run; the first one is discarded because it
# also writes the bytecode cache of a fresh checkout.
SETUP_PROBES = 3
# Support size of the committed reference solutions (make_reference.py).
REFERENCE_N = "17"
# Relative band around the seed tip deflection of the drilled beam.
TIP_RTOL = 1e-3
# Span-versus-timing.csv disagreement that marks a missed wrapper.
XCHECK_ABS_S, XCHECK_REL = 0.05, 0.10

COMMON_LAYERS = (
    "cli.main", "cases.run", "nodes.build", "neighbors.build_supports",
    "shapes.build_shape_set", "shapes.svd", "elasticity.bcs", "elasticity.assemble",
    "elasticity.stress", "solve.solve", "solve.factor", "solve.iterate",
    "io.case_outputs", "io.nodes_csv", "io.fields_csv", "io.sweep_csv", "io.timing_csv",
)
ACCURACY = ("e_inf_u", "e_inf_sigma")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    nodes: int  # exact node count of the workload's cloud
    from_sweep: tuple[str, ...]  # accuracy metrics with a closed-form reference (sweep.csv)
    layers: tuple[str, ...]  # spans a traced sample must record beyond COMMON_LAYERS
    seed_accuracy: dict = field(default_factory=dict)  # values at the seed commit; ceilings
    seed_tip: float | None = None  # drilled only: v at the node nearest (0, 0)
    samples: int = 1  # minimum samples per run


# Single samples of the two large workloads spread by up to ~10% between
# runs on a shared 2-core machine, so they take two samples per run; the
# small drilled beam fills --seconds.
WORKLOADS = {
    # Refinement-heavy; supports fallback; WLS stencils with n > m.
    "hertz": Workload(
        ("--case", "hertz", "--refine-levels", "10", "--secondary-levels", "2", "--n", "15"),
        31_344, ("e_inf_sigma",), ("refine.levels", "neighbors.knn"),
        {"e_inf_u": 8.420383371919338e-2, "e_inf_sigma": 1.7738791190557664e-2},
        samples=2,
    ),
    # Large working set; square interpolation stencils on an exact grid; CSV+VTK output.
    "cantilever-1e5": Workload(
        ("--case", "cantilever", "--n-target", "100000", "--n", "9", "--vtk"),
        100_880, ACCURACY, ("io.vtk",),
        {"e_inf_u": 3.2292701879978013e-4, "e_inf_sigma": 1.1486830591426649e-3},
        samples=2,
    ),
    # Irregular relaxed cloud with holes; small factorization.
    "drilled": Workload(
        ("--case", "drilled-beam", "--n", "15"),
        4_285, (), ("refine.levels", "relax.relax"),
        {"e_inf_u": 4.8171163779616194e-2, "e_inf_sigma": 1.0434776914092994},
        seed_tip=-1.4998308112042119e-05,
    ),
}


def load_bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def read_outputs(outdir: Path) -> dict:
    """Parse the files a run leaves: fields, node kinds, sweep row, timing."""
    fields = np.loadtxt(outdir / "fields.csv", delimiter=",", skiprows=1, ndmin=2)
    with open(outdir / "nodes.csv") as fh:
        next(fh)
        boundary = np.array([line.split(",")[2] == "boundary" for line in fh])
    with open(outdir / "sweep.csv") as fh:
        header, row = fh.readline().strip().split(","), fh.readlines()[-1].strip().split(",")
    sweep = {k: float(v) for k, v in zip(header, row) if v}
    with open(outdir / "timing.csv") as fh:
        next(fh)
        phases = {k: float(v) for k, v in (line.strip().split(",") for line in fh)}
    return {"fields": fields, "boundary": boundary, "sweep": sweep, "phases": phases}


def reference_errors(fields: np.ndarray, ref_pos: np.ndarray, ref_fields: np.ndarray) -> dict[str, float]:
    """Normalized max-norm deviation from a reference solution on the same cloud.

    The reference holds boundary nodes only (they never move under
    relaxation); each is matched to the run's node at the same position.
    """
    pos = fields[:, :2]
    dist, idx = cKDTree(pos).query(ref_pos)
    scale = np.ptp(pos, axis=0).max()
    if np.any(dist > 1e-9 * scale):
        raise ValueError("reference nodes missing from the cloud (the cloud changed; rebuild the reference)")
    run = fields[idx, 2:7]

    def err(cols):
        return float(np.abs(run[:, cols] - ref_fields[:, cols]).max() / np.abs(ref_fields[:, cols]).max())

    return {"e_inf_u": err(slice(0, 2)), "e_inf_sigma": err(slice(2, 5))}


def check_sample(wl: Workload, out: dict, reference: dict | None, bounds: dict) -> tuple[dict, list[str]]:
    """Accuracy metrics of one sample and the checks it fails."""
    failures = []
    fields = out["fields"]
    if fields.shape[0] != wl.nodes or out["sweep"].get("N") != wl.nodes:
        failures.append(f"node count {fields.shape[0]} != {wl.nodes}")
    if not np.all(np.isfinite(fields)):
        failures.append("non-finite values in fields.csv")
    acc = {m: out["sweep"][m] for m in wl.from_sweep if m in out["sweep"]}
    if len(acc) < len(ACCURACY):
        if reference is None:
            failures.append("no reference solution for this workload")
        else:
            try:
                errs = reference_errors(fields, reference["pos"], reference["fields"])
            except ValueError as exc:
                failures.append(str(exc))
            else:
                acc = {**errs, **acc}
    for m in ACCURACY:
        if m not in acc:
            failures.append(f"{m} missing")
        elif m in wl.seed_accuracy and not acc[m] <= wl.seed_accuracy[m] * (1.0 + bounds[m]):
            failures.append(f"{m} {acc[m]:.4e} above {wl.seed_accuracy[m]:.4e} * (1 + {bounds[m]})")
    if wl.seed_tip is not None:
        tip = int(np.argmin(np.hypot(fields[:, 0], fields[:, 1])))
        if abs(fields[tip, 3] - wl.seed_tip) > TIP_RTOL * abs(wl.seed_tip):
            failures.append(f"tip deflection {fields[tip, 3]:.6e} off the seed {wl.seed_tip:.6e}")
        peak = int(np.argmax(fields[:, 7]))
        lo, hi = fields[:, :2].min(axis=0), fields[:, :2].max(axis=0)
        on_ring = out["boundary"][peak] and np.all((fields[peak, :2] > lo) & (fields[peak, :2] < hi))
        if not on_ring:
            failures.append(f"von Mises peak at {fields[peak, :2].tolist()} is not on a hole ring")
    return acc, failures


def run_child(trace: bool, argv: tuple[str, ...], timeout: float) -> tuple[dict | None, str]:
    """Run bench/child.py and return its record (None when it crashed) and stderr."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=SCRATCH)
    os.close(fd)
    env = {**os.environ, **THREAD_PINS}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), path, "1" if trace else "0", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
        text = Path(path).read_text()
        return (json.loads(text) if proc.returncode == 0 and text else None), proc.stderr
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        os.unlink(path)


def take_sample(name: str, wl: Workload, seed: int, trace: bool, reference, bounds) -> dict:
    outdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        t0 = time.perf_counter()
        rec, stderr = run_child(trace, (*wl.args, "--seed", str(seed), "--out", str(outdir)), timeout=170)
        sample = {"traced": trace, "elapsed_s": time.perf_counter() - t0, "failures": []}
        if rec is None or rec.get("rc") != 0:
            sample["rc"] = None if rec is None else rec.get("rc")
            sample["failures"].append(f"exit {sample['rc']}: {stderr.strip()[-400:]}")
            return sample
        sample.update({k: rec[k] for k in ("rc", "wall_s", "setup_s", "peak_rss_mb", "cpu_s")})
        try:
            out = read_outputs(outdir)
        except (OSError, ValueError, IndexError, StopIteration) as exc:
            sample["failures"].append(f"unreadable outputs: {exc!r}")
            return sample
        sample["accuracy"], sample["failures"] = check_sample(wl, out, reference, bounds)
        if trace:
            spans = rec["spans"]
            recorded = {s[tracing.NAME] for s in spans}
            missing = [n for n in COMMON_LAYERS + wl.layers if n not in recorded]
            if missing:
                sample["failures"].append(f"no spans recorded for {missing}")
            metrics = tracing.layer_metrics(spans)
            metrics["io.bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
            for phase, diff in tracing.phase_disagreement(spans, out["phases"]).items():
                metrics[f"xcheck.{phase}_s"] = diff
                if phase in tracing.EXACT_PHASES and abs(diff) > XCHECK_ABS_S + XCHECK_REL * out["phases"].get(phase, 0.0):
                    sample["failures"].append(f"spans disagree with timing.csv on {phase} by {diff:+.3f} s")
            sample["run"], sample["layers"] = rec["run"], metrics
        return sample
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool, reference) -> dict:
    """Take the run's samples and return its record, result object included."""
    bounds = load_bounds()
    start = time.perf_counter()
    probes = []
    for _ in range(SETUP_PROBES):
        rec, stderr = run_child(False, (), timeout=60)
        if rec is None:
            raise RuntimeError(f"import-only child failed: {stderr.strip()[-400:]}")
        probes.append(rec["setup_s"])
    probes = probes[1:]
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 1  # a traced run alternates untraced and traced
        samples.append(take_sample(name, wl, seed, traced, reference, bounds))
        elapsed = time.perf_counter() - start
        if len(samples) >= max(wl.samples, 2 if trace else 1) and elapsed + samples[-1]["elapsed_s"] > seconds:
            break

    ok = [s for s in samples if not s["failures"]]
    plain = [s for s in ok if not s["traced"]]
    failed = len(samples) - len(ok)
    metrics = {}
    if not trace and plain:
        metrics = {
            "wall_s": (median(s["wall_s"] for s in plain), "s"),
            "setup_s": (median(probes + [s["setup_s"] for s in plain]), "s"),
            "peak_rss_mb": (median(s["peak_rss_mb"] for s in plain), "MB"),
            **{m: (median(s["accuracy"][m] for s in plain), "ratio") for m in ACCURACY},
        }
    traced = [s for s in ok if s["traced"]]
    if trace and traced and plain:
        per_layer = {k: median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
        per_layer["trace.overhead_s"] = median(s["wall_s"] for s in traced) - median(s["wall_s"] for s in plain)
        metrics = {k: (v, layer_unit(k)) for k, v in per_layer.items()}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "workload": name,
        "inputs": list(wl.args),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_probes_s": probes,
        "samples": samples,
        "failed_frac": failed / len(samples),
        "environment": environment(),
        "result": result,
    }


def layer_unit(name: str) -> str:
    metric = name.rsplit(".", 1)[-1]
    if metric == "s" or metric.endswith("_s"):
        return "s"
    if metric == "bytes":
        return "B"
    return "ratio" if metric in ("vectorized_frac", "fill_ratio", "residual") else "count"


def environment() -> dict:
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return {
        **git,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def load_reference(name: str, path: Path = REFERENCE) -> dict | None:
    if not path.exists():
        return None
    with np.load(path) as data:
        if f"{name}.pos" not in data:
            return None
        return {"pos": data[f"{name}.pos"], "fields": data[f"{name}.fields"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mlsm2d" / "cli.py").is_file():
        print(f"no mlsm2d sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        record = run_workload(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            load_reference(args.workload),
        )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    RECORDS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RECORDS / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
