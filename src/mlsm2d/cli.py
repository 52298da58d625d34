"""Batch command-line front end.

Runs one named case (or a sweep over it), writing nodes.csv, fields.csv,
timing.csv, sweep.csv and optional fields.vtk / matrix.txt into the output
directory. The argument parser is the one list of options: `@FILE` reads
flags from a file, written as on the command line and quoted like shell
words, and a later flag wins over an earlier one. A case
function receives only the values the user set, so every default is the
case function's own. `validate` lists together what the command line alone
shows to be wrong: no case, a flag the case ignores, and a flag that the
sweep which runs leaves unused. Every other rule on a value belongs to the
case function or spec object that takes it (the cantilever takes at most
one of --nx, --spacing and --n-target; --sigma-b is read only with --basis
g9), whose ValueError is reported alone; the owners check every sweep
entry before the first run. The output directory is made only once the
case (or the last sweep run) returns: a rejected value leaves none, and
one that cannot be made is reported after the solve. Exit codes: 0
success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import inspect
import os
import shlex
import sys
from dataclasses import replace
from pathlib import Path

from . import io
from .cases import beam, drilled, hertz
from .shapes import IllConditionedStencilError
from .solve import METHODS, NonConvergenceError

# Each case's function as (module, name), looked up per run so that wrappers see it.
CASE_FUNCTIONS = {
    "cantilever": (beam, "cantilever_case"),
    "drilled-beam": (drilled, "drilled_cantilever_case"),
    "hertz": (hertz, "hertz_case"),
}
CASES = tuple(CASE_FUNCTIONS)
BASES = {"m9": "monomial-9", "g9": "gaussian-9"}
OUT_ENV = "MLSM2D_OUT"

# Flags passed to the case function under another name.
RENAMES = {"n": "support_n", "hertz_h": "half_size"}
# Each sweep flag and the case argument that takes its values in turn.
SWEEPS = {"sweep_n": "n_target", "sweep_sigma": "perturb_sigma", "sweep_refine": "refine_levels"}
# Flags that are no argument of a case function: those folded into a field
# of its default basis, weight or solver object, the outputs and the
# sweeps. Every other flag of a case is one, under RENAMES.
NOT_ARGUMENTS = ("basis", "sigma_b", "sigma_w", "solver", "tol", "vtk", "dump_matrix", *SWEEPS)

# Flags each case reads besides --case and --out; every case accepts --seed.
_SOLVE_FLAGS = (
    "basis", "sigma_b", "n", "sigma_w", "solver", "tol", "vtk", "dump_matrix"
)
CASE_FLAGS = {
    "cantilever": _SOLVE_FLAGS + ("nx", "spacing", "n_target", "perturb_sigma", "seed", "sweep_n", "sweep_sigma"),
    "drilled-beam": _SOLVE_FLAGS + ("spacing", "refine_levels", "relax_iterations"),
    "hertz": _SOLVE_FLAGS + ("nx", "hertz_h", "refine_levels", "secondary_levels", "sweep_refine"),
}


def _dashed(name: str) -> str:
    return name.replace("_", "-")


def _is_set(value) -> bool:
    return value is not None and value != []


def validate(config: argparse.Namespace) -> list[str]:
    """List every problem the command line alone shows; value bounds are their owners' checks."""
    problems = []
    if config.case is None:
        problems.append("no case selected (--case)")
    if config.case in CASE_FLAGS:
        taken = ("case", "out", "seed") + CASE_FLAGS[config.case]
        given = [name for name, value in vars(config).items() if _is_set(value)]
        problems += [f"--{_dashed(name)} is ignored by case {config.case}" for name in given if name not in taken]
        # run runs the first sweep given; its own argument and the other sweeps go unused
        sweep = next((flag for flag in SWEEPS if flag in given and flag in taken), None)
        problems += [
            f"--{_dashed(name)} is ignored next to --{_dashed(sweep)}"
            for name in given
            if name in taken and name != sweep and (name in SWEEPS or name == SWEEPS.get(sweep))
        ]
    return problems


def _list_of(kind):
    """The flag type of comma-separated `kind` values, as in --sweep-n 500,900."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlsm2d",
        description="Meshless strong-form elasticity benchmarks (batch runner). "
        "@FILE reads flags from FILE, written as on the command line; a later flag wins.",
        fromfile_prefix_chars="@",
    )
    ap.convert_arg_line_to_args = shlex.split
    ap.add_argument("--case", choices=CASES)
    ap.add_argument("--out", type=str, help=f"output directory (default ${OUT_ENV} or ./mlsm2d-out)")
    ap.add_argument("--seed", type=int, help="perturbation seed; accepted by every case, read by the cantilever case")
    ap.add_argument("--nx", type=int, help="nodes along x for grid cases")
    ap.add_argument("--spacing", type=float, help="target node spacing (alternative to --nx)")
    ap.add_argument("--n-target", type=int, help="approximate node count (alternative to --nx)")
    ap.add_argument("--basis", choices=BASES)
    ap.add_argument("--sigma-b", type=float, help="gaussian-basis shape parameter, read only with --basis g9")
    ap.add_argument("--n", type=int, help="support size")
    ap.add_argument("--sigma-w", type=float, help="weight shape parameter; no effect when --n is the basis size 9, where the fit interpolates")
    ap.add_argument("--solver", choices=METHODS, help="direct (default): LU with diagonal pivots, ordered by nested dissection where every support has at most 9 nodes and by minimum degree on A^T+A otherwise; bicgstab-ilut: memory-bounded ILUT")
    ap.add_argument("--tol", type=float, help="relative residual tolerance")
    ap.add_argument("--refine-levels", type=int)
    ap.add_argument("--secondary-levels", type=int, help="hertz edge-refinement levels")
    ap.add_argument("--relax-iterations", type=int)
    ap.add_argument("--perturb-sigma", type=float, help="scale of the random shift of each interior cantilever node, in units of its nearest-neighbor distance; needs --n 11 or more, since at --n 9 and 10 a boundary support is rank 8 and the run exits 3")
    ap.add_argument("--hertz-h", type=float, help="contact domain half-size in meters")
    ap.add_argument("--sweep-n", type=_list_of(int), help="comma-separated node counts")
    ap.add_argument("--sweep-sigma", type=_list_of(float), help="comma-separated perturbation sigmas; needs --n 11 or more, as --perturb-sigma does")
    ap.add_argument("--sweep-refine", type=_list_of(int), help="comma-separated hertz refine levels")
    ap.add_argument("--vtk", action="store_true", default=None)
    ap.add_argument("--dump-matrix", action="store_true", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    config = _build_parser().parse_args(argv)
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    try:
        run(config)
    except (NonConvergenceError, IllConditionedStencilError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # an unwritable output, or a value a case or spec rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def _user_values(**values) -> dict:
    """The keyword arguments the user set, i.e. those that are not None."""
    return {k: v for k, v in values.items() if v is not None}


def _merged(parameters, name: str, **values):
    """The case's default `name` object with the user-set fields replaced; None if none is set."""
    values = _user_values(**values)
    return replace(parameters[name].default, **values) if values else None


def run(config: argparse.Namespace) -> None:
    """Execute the configured case; artifacts land in the output directory."""
    case_fn = getattr(*CASE_FUNCTIONS[config.case])
    parameters = inspect.signature(case_fn).parameters
    arguments = [flag for flag in CASE_FLAGS[config.case] if flag not in NOT_ARGUMENTS]
    kwargs = _user_values(
        basis=_merged(parameters, "basis", kind=BASES.get(config.basis), sigma=config.sigma_b),
        weight=_merged(parameters, "weight", sigma=config.sigma_w),
        solver=_merged(parameters, "solver", method=config.solver, tolerance=config.tol),
        **{RENAMES.get(flag, flag): getattr(config, flag) for flag in arguments},
    )
    # Keyword overrides of each run of a sweep; one run without a sweep.
    sweep = next((flag for flag in SWEEPS if getattr(config, flag)), None)
    runs = [{SWEEPS[sweep]: value} for value in getattr(config, sweep)] if sweep else [{}]
    for value in getattr(config, sweep) if sweep else ():  # the owners' checks, before any run
        if sweep == "sweep_n":
            beam.grid_spacing_for(value)
        elif sweep == "sweep_sigma":
            beam.check_perturbation(value)
        elif sweep == "sweep_refine":  # its bounds do not depend on the half-width
            hertz.refinement_schedule(1.0, value, **_user_values(secondary_levels=config.secondary_levels))
    outdir = Path(config.out if config.out is not None else os.environ.get(OUT_ENV, "mlsm2d-out"))
    sweep_rows: list[dict] = []
    for overrides in runs:
        result = case_fn(**{**kwargs, **overrides})
        row = {"N": result.n_nodes, "sigma": overrides.get("perturb_sigma"), "t_total": result.timings.total}
        sweep_rows.append({**result.errors, **row})
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_case_outputs(outdir, result, vtk=config.vtk)
    io.write_sweep_csv(outdir / "sweep.csv", sweep_rows, key="sigma" if sweep == "sweep_sigma" else "N")
    if config.dump_matrix:
        result.extras["assemble"]().export_matrix(outdir / "matrix.txt")
