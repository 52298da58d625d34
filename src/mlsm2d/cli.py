"""Batch command-line front end.

Runs one named case (or a sweep over it), writing nodes.csv, fields.csv,
timing.csv, sweep.csv and optional fields.vtk / matrix.txt into the output
directory. Configuration comes from flags, optionally layered on top of a
JSON config file (flags win). A case receives only the values the user
set; every other default is the case function's own. A flag the selected
case ignores, or one that another flag or a sweep overrides, is a
configuration error. Exit codes: 0 success, 2 configuration error, 3
numerical failure.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

from . import io
from .cases import beam, drilled, hertz
from .nodes import Circle, Rect, build_drilled_domain
from .refine import RefineRegion, refine_levels
from .relax import RelaxConfig, relax
from .shapes import IllConditionedStencilError
from .solve import NonConvergenceError
from .timing import PhaseTimer

CASES = ("cantilever", "cantilever-perturbed", "drilled-beam", "hertz", "refine-demo")
BASES = {"m9": "monomial-9", "g9": "gaussian-9"}
SOLVERS = ("bicgstab-ilut", "direct")
OUT_ENV = "MLSM2D_OUT"

# Defaults of the inputs that only the CLI defines: the cantilever grid,
# the perturbed-cantilever variant and the node-positioning demo.
CLI_DEFAULTS = {
    "cantilever": {"nx": 60},
    "cantilever-perturbed": {"nx": 60, "perturb_sigma": 0.1, "n": 13},
    "refine-demo": {"spacing": 0.5, "refine_levels": 4, "relax_iterations": 20},
}

# Flags each case reads besides --case, --out and --seed.
_SOLVE_FLAGS = (
    "basis", "sigma_b", "n", "sigma_w", "solver", "tol", "max_iter", "fill_factor", "drop_tol", "vtk", "dump_matrix"
)
_GRID_FLAGS = _SOLVE_FLAGS + ("nx", "spacing", "n_target", "perturb_sigma", "sweep_n", "sweep_sigma")
CASE_FLAGS = {
    "cantilever": _GRID_FLAGS,
    "cantilever-perturbed": _GRID_FLAGS,
    "drilled-beam": _SOLVE_FLAGS + ("spacing", "refine_levels", "relax_iterations"),
    "hertz": _SOLVE_FLAGS + ("nx", "hertz_h", "refine_levels", "secondary_levels", "sweep_refine"),
    "refine-demo": ("spacing", "refine_levels", "relax_iterations"),
}
# Flags that decide, in every run, what the flags listed for them would.
OVERRIDES = {
    "sweep_sigma": ("perturb_sigma", "sweep_n"),
    "sweep_n": ("nx", "spacing", "n_target"),
    "sweep_refine": ("refine_levels",),
    "spacing": ("nx", "n_target"),
    "n_target": ("nx",),
}

# Lower bounds of the numeric flags.
_POSITIVE = ("sigma_w", "sigma_b", "spacing", "hertz_h")
_NONNEGATIVE = ("drop_tol", "refine_levels", "relax_iterations", "perturb_sigma")
_AT_LEAST = {"max_iter": 1, "fill_factor": 1, "nx": 2, "n_target": 4}


def _dashed(name: str) -> str:
    return name.replace("_", "-")


def _is_set(value) -> bool:
    return value is not None and value is not False and value != []


@dataclass
class RunConfig:
    case: str | None = None
    out: str | None = None
    seed: int | None = None

    nx: int | None = None
    spacing: float | None = None
    n_target: int | None = None

    basis: str | None = None
    sigma_b: float | None = None
    n: int | None = None
    sigma_w: float | None = None

    solver: str | None = None
    tol: float | None = None
    max_iter: int | None = None
    fill_factor: float | None = None
    drop_tol: float | None = None

    refine_levels: int | None = None
    secondary_levels: int | None = None
    relax_iterations: int | None = None
    perturb_sigma: float | None = None
    hertz_h: float | None = None

    sweep_n: list[int] = field(default_factory=list)
    sweep_sigma: list[float] = field(default_factory=list)
    sweep_refine: list[int] = field(default_factory=list)

    vtk: bool = False
    dump_matrix: bool = False

    def validate(self) -> list[str]:
        """Collect every configuration problem instead of stopping at the first."""
        problems = []
        if self.case is None:
            problems.append("no case selected (--case or config file 'case')")
        elif self.case not in CASES:
            problems.append(f"unknown case {self.case!r}; choose from {', '.join(CASES)}")
        if self.basis is not None and self.basis not in BASES:
            problems.append(f"unknown basis {self.basis!r}; choose from {', '.join(BASES)}")
        if self.solver is not None and self.solver not in SOLVERS:
            problems.append(f"unknown solver {self.solver!r}; choose from {', '.join(SOLVERS)}")
        if self.n is not None and self.n < 9:
            problems.append(f"support size n must be at least the basis size 9, got {self.n}")
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            problems.append(f"tol must be in (0, 1), got {self.tol}")
        for name in _POSITIVE:
            if (value := getattr(self, name)) is not None and value <= 0:
                problems.append(f"{_dashed(name)} must be positive, got {value}")
        for name in _NONNEGATIVE:
            if (value := getattr(self, name)) is not None and value < 0:
                problems.append(f"{_dashed(name)} must be nonnegative, got {value}")
        for name, bound in _AT_LEAST.items():
            if (value := getattr(self, name)) is not None and value < bound:
                problems.append(f"{_dashed(name)} must be at least {bound}, got {value}")
        if self.case == "hertz":
            n_primary, n_secondary = len(hertz.PRIMARY_FACTORS), len(hertz.SECONDARY_FACTORS)
            for lv in [self.refine_levels] + list(self.sweep_refine):
                if lv is not None and lv > n_primary:
                    problems.append(f"refine-levels for hertz capped at {n_primary}, got {lv}")
            if self.secondary_levels is not None and not 0 <= self.secondary_levels <= n_secondary:
                problems.append(
                    f"secondary-levels must be in [0, {n_secondary}], got {self.secondary_levels}"
                )
        if any(n < 4 for n in self.sweep_n):
            problems.append("sweep-n entries must be at least 4")
        if any(s < 0 for s in self.sweep_sigma):
            problems.append("sweep-sigma entries must be nonnegative")
        if any(lv < 0 for lv in self.sweep_refine):
            problems.append("sweep-refine entries must be nonnegative")
        if self.case in CASE_FLAGS:
            taken = CASE_FLAGS[self.case]
            given = [f.name for f in dataclass_fields(self) if _is_set(getattr(self, f.name))]
            problems += [
                f"--{_dashed(name)} is ignored by case {self.case}"
                for name in given
                if name not in ("case", "out", "seed") + taken
            ]
            problems += [
                f"--{_dashed(name)} is ignored next to --{_dashed(flag)}"
                for flag, overridden in OVERRIDES.items()
                if flag in given and flag in taken
                for name in overridden
                if name in given
            ]
        return problems

    @property
    def outdir(self) -> Path:
        if self.out is not None:
            return Path(self.out)
        return Path(os.environ.get(OUT_ENV, "mlsm2d-out"))


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlsm2d",
        description="Meshless strong-form elasticity benchmarks (batch runner).",
    )
    ap.add_argument("--config", type=str, help="JSON config file; flags override its values")
    ap.add_argument("--case", choices=CASES)
    ap.add_argument("--out", type=str, help=f"output directory (default ${OUT_ENV} or ./mlsm2d-out)")
    ap.add_argument("--seed", type=int, help="perturbation seed; accepted by every case, read by the cantilever cases")
    ap.add_argument("--nx", type=int, help="nodes along x for grid cases")
    ap.add_argument("--spacing", type=float, help="target node spacing (alternative to --nx)")
    ap.add_argument("--n-target", type=int, help="approximate node count (alternative to --nx)")
    ap.add_argument("--basis", choices=sorted(BASES))
    ap.add_argument("--sigma-b", type=float, help="gaussian-basis shape parameter")
    ap.add_argument("--n", type=int, help="support size")
    ap.add_argument("--sigma-w", type=float, help="weight shape parameter")
    ap.add_argument("--solver", choices=SOLVERS, help="direct (default): LU ordered on A^T+A with diagonal pivots; bicgstab-ilut: memory-bounded ILUT")
    ap.add_argument("--tol", type=float, help="relative residual tolerance")
    ap.add_argument("--max-iter", type=int)
    ap.add_argument("--fill-factor", type=float, help="ILUT fill factor; hertz fails as exactly singular at 10")
    ap.add_argument("--drop-tol", type=float, help="ILUT drop tolerance")
    ap.add_argument("--refine-levels", type=int)
    ap.add_argument("--secondary-levels", type=int, help="hertz edge-refinement levels")
    ap.add_argument("--relax-iterations", type=int)
    ap.add_argument("--perturb-sigma", type=float)
    ap.add_argument("--hertz-h", type=float, help="contact domain half-size in meters")
    ap.add_argument("--sweep-n", type=_int_list, help="comma-separated node counts")
    ap.add_argument("--sweep-sigma", type=_float_list, help="comma-separated perturbation sigmas")
    ap.add_argument("--sweep-refine", type=_int_list, help="comma-separated hertz refine levels")
    ap.add_argument("--vtk", action="store_true", default=None)
    ap.add_argument("--dump-matrix", action="store_true", default=None)
    return ap


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        known = {f.name for f in dataclass_fields(RunConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise ValueError(f"unknown config file keys: {', '.join(sorted(unknown))}")
        values.update(file_values)
    for f in dataclass_fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    problems = config.validate()
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    try:
        run(config)
    except (NonConvergenceError, IllConditionedStencilError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def _user_values(**values) -> dict:
    """The keyword arguments the user set, i.e. those that are not None."""
    return {k: v for k, v in values.items() if v is not None}


def _merged(default, **values):
    """A case's default config object with the user-set fields replaced."""
    values = _user_values(**values)
    return replace(default, **values) if values else None


def run(config: RunConfig) -> None:
    """Execute the configured case; artifacts land in config.outdir."""
    defaults = CLI_DEFAULTS.get(config.case, {})
    config = replace(config, **{k: v for k, v in defaults.items() if getattr(config, k) is None})
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    if config.case == "refine-demo":
        _run_refine_demo(config, outdir)
        return

    case_fn = {"hertz": hertz.hertz_case, "drilled-beam": drilled.drilled_cantilever_case}.get(
        config.case, beam.cantilever_case
    )
    signature = inspect.signature(case_fn).parameters
    kwargs = _user_values(
        basis=_merged(signature["basis"].default, kind=BASES.get(config.basis), sigma=config.sigma_b),
        weight=_merged(signature["weight"].default, sigma=config.sigma_w),
        solver=_merged(
            signature["solver"].default,
            method=config.solver,
            tolerance=config.tol,
            max_iterations=config.max_iter,
            fill_factor=config.fill_factor,
            drop_tol=config.drop_tol,
        ),
        support_n=config.n,
    )
    # Keyword overrides of each run of a sweep; one run without a sweep.
    runs: list[dict] = [{}]
    sweep_key = "N"

    if config.case in ("cantilever", "cantilever-perturbed"):
        kwargs.update(_user_values(perturb_sigma=config.perturb_sigma, seed=config.seed))
        if config.spacing is not None:
            kwargs["spacing"] = config.spacing
        elif config.n_target is not None:
            kwargs["n_target"] = config.n_target
        else:
            kwargs["spacing"] = signature["params"].default.length / (config.nx - 1)
        if config.sweep_sigma:
            sweep_key = "sigma"
            runs = [{"perturb_sigma": sig} for sig in config.sweep_sigma]
        elif config.sweep_n:
            runs = [{"spacing": None, "n_target": n_target} for n_target in config.sweep_n]

    elif config.case == "hertz":
        kwargs.update(_user_values(nx=config.nx))
        if config.hertz_h is not None:
            kwargs["params"] = hertz.HertzParams(half_size=config.hertz_h)
        if config.refine_levels is not None:
            kwargs["primary"] = hertz.PRIMARY_FACTORS[: config.refine_levels]
        if config.secondary_levels is not None:
            kwargs["secondary"] = hertz.SECONDARY_FACTORS[: config.secondary_levels]
        if config.sweep_refine:
            runs = [{"primary": hertz.PRIMARY_FACTORS[:lv]} for lv in config.sweep_refine]

    else:
        kwargs.update(_user_values(spacing=config.spacing, refine_level=config.refine_levels))
        if config.relax_iterations is not None:
            kwargs["relax_config"] = (
                RelaxConfig(iterations=config.relax_iterations) if config.relax_iterations > 0 else None
            )

    sweep_rows: list[dict] = []
    for overrides in runs:
        result = case_fn(**{**kwargs, **overrides})
        sweep_rows.append(_sweep_row(result, sigma=overrides.get("perturb_sigma")))
    io.write_case_outputs(outdir, result, vtk=config.vtk)
    io.write_sweep_csv(outdir / "sweep.csv", sweep_rows, key=sweep_key)
    if config.dump_matrix:
        result.extras["system"].export_matrix(outdir / "matrix.txt")


def _sweep_row(result, sigma: float | None = None) -> dict:
    row = {
        "N": result.n_nodes,
        "e_inf_u": result.errors.get("e_inf_u"),
        "e_inf_sigma": result.errors.get("e_inf_sigma"),
        "t_total": result.timings.total,
    }
    if sigma is not None:
        row["sigma"] = sigma
    return row


def _run_refine_demo(config: RunConfig, outdir: Path) -> None:
    """Node-positioning showcase: hole refinement plus relaxation, no solve."""
    spacing, levels, sweeps = config.spacing, config.refine_levels, config.relax_iterations

    timer = PhaseTimer()
    rect = Rect(0.0, 10.0, 0.0, 10.0)
    hole = Circle(5.0, 5.0, 1.0)
    with timer.phase("domain"):
        nodes = build_drilled_domain(rect, (hole,), spacing)
    if levels > 0:
        with timer.phase("refinement"):
            span = 1.6 * hole.radius
            region = RefineRegion(
                Rect(hole.cx - span, hole.cx + span, hole.cy - span, hole.cy + span),
                levels,
            )
            nodes = refine_levels(nodes, [region])
    if sweeps > 0:
        with timer.phase("relaxation"):
            nodes = relax(nodes, RelaxConfig(iterations=sweeps))
    nodes.to_csv(outdir / "nodes.csv")
    timer.report().to_csv(outdir / "timing.csv")


if __name__ == "__main__":
    raise SystemExit(main())
