"""Batch command-line front end.

Runs one named case (or a sweep over it), writing nodes.csv, fields.csv,
timing.csv, sweep.csv and optional fields.vtk / matrix.txt into the output
directory. Configuration comes from flags, optionally layered on top of a
JSON config file (flags win). A case receives only the values the user
set; every other default is the case function's own. Exit codes: 0
success, 2 configuration error, 3 numerical failure.
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
        if self.sigma_w is not None and self.sigma_w <= 0:
            problems.append(f"sigma-w must be positive, got {self.sigma_w}")
        if self.sigma_b is not None and self.sigma_b <= 0:
            problems.append(f"sigma-b must be positive, got {self.sigma_b}")
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            problems.append(f"tol must be in (0, 1), got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            problems.append(f"max-iter must be positive, got {self.max_iter}")
        if self.fill_factor is not None and self.fill_factor < 1:
            problems.append(f"fill-factor must be at least 1, got {self.fill_factor}")
        if self.drop_tol is not None and self.drop_tol < 0:
            problems.append(f"drop-tol must be nonnegative, got {self.drop_tol}")
        if self.nx is not None and self.nx < 2:
            problems.append(f"nx must be at least 2, got {self.nx}")
        if self.spacing is not None and self.spacing <= 0:
            problems.append(f"spacing must be positive, got {self.spacing}")
        if self.n_target is not None and self.n_target < 4:
            problems.append(f"n-target must be at least 4, got {self.n_target}")
        if self.refine_levels is not None and self.refine_levels < 0:
            problems.append(f"refine-levels must be nonnegative, got {self.refine_levels}")
        if self.case == "hertz":
            n_primary, n_secondary = len(hertz.PRIMARY_FACTORS), len(hertz.SECONDARY_FACTORS)
            for lv in [self.refine_levels] + list(self.sweep_refine):
                if lv is not None and lv > n_primary:
                    problems.append(f"refine-levels for hertz capped at {n_primary}, got {lv}")
            if self.secondary_levels is not None and not 0 <= self.secondary_levels <= n_secondary:
                problems.append(
                    f"secondary-levels must be in [0, {n_secondary}], got {self.secondary_levels}"
                )
        if self.relax_iterations is not None and self.relax_iterations < 0:
            problems.append(f"relax-iterations must be nonnegative, got {self.relax_iterations}")
        if self.perturb_sigma is not None and self.perturb_sigma < 0:
            problems.append(f"perturb-sigma must be nonnegative, got {self.perturb_sigma}")
        if self.hertz_h is not None and self.hertz_h <= 0:
            problems.append(f"hertz-h must be positive, got {self.hertz_h}")
        if any(n < 4 for n in self.sweep_n):
            problems.append("sweep-n entries must be at least 4")
        if any(s < 0 for s in self.sweep_sigma):
            problems.append("sweep-sigma entries must be nonnegative")
        if any(lv < 0 for lv in self.sweep_refine):
            problems.append("sweep-refine entries must be nonnegative")
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
    ap.add_argument("--seed", type=int)
    ap.add_argument("--nx", type=int, help="nodes along x for grid cases")
    ap.add_argument("--spacing", type=float, help="target node spacing (overrides --nx)")
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
