"""CSV and legacy-VTK writers for run artifacts.

Every artifact is text made by `_table`, which writes numbers with
repr-faithful %.17g formatting so identical runs produce identical bytes.
This module imports nothing from the package at run time, so the modules
that own an artifact (`nodes`, `timing`, `elasticity`) can use `_table`.
"""
from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cases.metrics import CaseResult
    from .elasticity import StressField
    from .nodes import NodeSet


class _Text(list):
    """A column already written as text, which `_table` takes as it is."""


def _table(columns, sep: str = ",", fmt: str | tuple[str, ...] = "%.17g") -> str:
    """One line per row of the equal-length columns, cells joined by sep.

    Numbers are written with fmt, which is one format for every column or
    one per column. A column of text or mixed values writes its strings as
    they are, None as an empty cell and numbers with the column's format;
    a `_Text` column (see `_text`) is taken without a copy.
    """
    fmts = (fmt,) * len(columns) if isinstance(fmt, str) else fmt
    cells = []
    for column, f in zip(columns, fmts):
        if not isinstance(column, _Text):
            column = np.asarray(column)
            if column.dtype.kind in "OU":
                column = ["" if v is None else v if isinstance(v, str) else f % v for v in column.tolist()]
            else:
                column = _text(column, f)
        cells.append(column)
    return "\n".join([*map(sep.join, zip(*cells)), ""])


# Leading values whose distinct count decides whether a column is deduplicated.
_PREFIX = 4096


def _text(values, fmt: str = "%.17g") -> _Text:
    """The numbers written with fmt, for one file or for several that share them.

    A column with at most half its values distinct, such as the x or y of a
    grid, writes each distinct bit pattern once (so -0.0 and 0.0 differ),
    about 20 times faster. Only a column whose first _PREFIX values are at
    most half distinct is counted in full, so a column of distinct values,
    such as a solution field, sorts only that prefix.
    """
    values = np.asarray(values, dtype=float)
    prefix = values[:_PREFIX]
    if 2 * np.unique(prefix.view(np.int64)).size <= prefix.size:
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        if 0 < 2 * bits.size <= values.size:
            return _Text(np.array(_text(bits.view(float), fmt), dtype=object)[inverse].tolist())
    return _Text(((fmt + "\n") * values.size % tuple(values.tolist())).split("\n")[:-1])


# The columns of fields.csv, which fields.vtk and nodes.csv share.
FIELDS = ("x", "y", "u", "v", "sxx", "syy", "sxy", "svm")


def field_columns(nodes: NodeSet, u, v, stress: StressField) -> dict[str, np.ndarray]:
    """The FIELDS of a solution by name."""
    return dict(zip(FIELDS, (*nodes.positions.T, u, v, stress.sxx, stress.syy, stress.sxy, stress.von_mises)))


def write_fields_csv(path, fields: dict) -> None:
    """fields.csv from the FIELDS columns, given as numbers or as their text."""
    with open(path, "w") as fh:
        fh.write(",".join(FIELDS) + "\n")
        fh.write(_table([fields[name] for name in FIELDS]))


def write_sweep_csv(path, rows: list[dict], key: str = "N") -> None:
    """Sweep table: one row per run, keyed by N or by the swept parameter."""
    names = (key, "e_inf_u", "e_inf_sigma", "t_total")
    # A list of Python objects keeps missing errors as None (empty cells).
    columns = [np.array([row.get(name) for row in rows], dtype=object) for name in names]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(_table(columns, fmt=("%.17g",) * 3 + ("%.6f",)))


def write_vtk(path, fields: dict) -> None:
    """Legacy-text VTK point cloud with displacement and stress point data.

    fields holds the FIELDS columns, as numbers or as their text.
    """
    n = len(fields["x"])
    fields = {name: column if isinstance(column, _Text) else _text(column) for name, column in fields.items()}
    zero = _Text(["0"] * n)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mlsm2d fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        fh.write(_table([fields["x"], fields["y"], zero], sep=" "))
        fh.write(f"VERTICES {n} {2 * n}\n")
        fh.write("1 %d\n" * n % tuple(range(n)))
        fh.write(f"POINT_DATA {n}\n")
        fh.write("VECTORS displacement double\n")
        fh.write(_table([fields["u"], fields["v"], zero], sep=" "))
        for name in ("sxx", "syy", "sxy", "svm"):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.write("\n".join([*fields[name], ""]))


def write_case_outputs(outdir, result: CaseResult, vtk: bool = False) -> None:
    """nodes.csv, fields.csv, optional fields.vtk, then timing.csv with their writing as the output phase."""
    timings = replace(result.timings, phases=dict(result.timings.phases))
    with timings.phase("output"):
        # Each field value is formatted once; every file that writes it reuses the text.
        columns = field_columns(result.nodes, result.u, result.v, result.stress)
        text = {name: _text(column) for name, column in columns.items()}
        result.nodes.to_csv(outdir / "nodes.csv", xy=(text["x"], text["y"]))
        write_fields_csv(outdir / "fields.csv", text)
        if vtk:
            write_vtk(outdir / "fields.vtk", text)
    timings.to_csv(outdir / "timing.csv")
