"""CSV and legacy-VTK writers for run artifacts.

Every artifact is text made by `_table`, which writes numbers with
repr-faithful %.17g formatting so identical runs produce identical bytes.
This module imports nothing from the package at run time, so the modules
that own an artifact (`nodes`, `timing`, `elasticity`) can use `_table`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cases.metrics import CaseResult
    from .elasticity import StressField
    from .nodes import NodeSet


def _table(columns, sep: str = ",", fmt: str | tuple[str, ...] = "%.17g") -> str:
    """One line per row of the equal-length columns, cells joined by sep.

    Numbers are written with fmt, which is one format for every column or
    one per column. A column of text or mixed values writes its strings as
    they are, None as an empty cell and numbers with the column's format.
    """
    fmts = (fmt,) * len(columns) if isinstance(fmt, str) else fmt
    cells, line = [], []
    for column, f in zip(columns, fmts):
        column = np.asarray(column)
        values = column.tolist()
        if column.dtype.kind in "OU":
            values = ["" if v is None else v if isinstance(v, str) else f % v for v in values]
            f = "%s"
        cells.append(values)
        line.append(f)
    return "".join(map((sep.join(line) + "\n").__mod__, zip(*cells)))


def write_fields_csv(path, nodes: NodeSet, u, v, stress: StressField) -> None:
    columns = [*nodes.positions.T, u, v, stress.sxx, stress.syy, stress.sxy, stress.von_mises]
    with open(path, "w") as fh:
        fh.write("x,y,u,v,sxx,syy,sxy,svm\n")
        fh.write(_table(columns))


def write_sweep_csv(path, rows: list[dict], key: str = "N") -> None:
    """Sweep table: one row per run, keyed by N or by the swept parameter."""
    names = (key, "e_inf_u", "e_inf_sigma", "t_total")
    # A list of Python objects keeps missing errors as None (empty cells).
    columns = [np.array([row.get(name) for row in rows], dtype=object) for name in names]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(_table(columns, fmt=("%.17g",) * 3 + ("%.6f",)))


def write_vtk(path, nodes: NodeSet, u, v, stress: StressField) -> None:
    """Legacy-text VTK point cloud with displacement and stress point data."""
    n = nodes.n
    zero = np.zeros(n)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mlsm2d fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        fh.write(_table([*nodes.positions.T, zero], sep=" "))
        fh.write(f"VERTICES {n} {2 * n}\n")
        fh.write(_table([np.ones(n, dtype=int), np.arange(n)], sep=" ", fmt="%d"))
        fh.write(f"POINT_DATA {n}\n")
        fh.write("VECTORS displacement double\n")
        fh.write(_table([u, v, zero], sep=" "))
        for name, arr in (
            ("sxx", stress.sxx),
            ("syy", stress.syy),
            ("sxy", stress.sxy),
            ("svm", stress.von_mises),
        ):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            fh.write(_table([arr]))


def write_case_outputs(outdir, result: CaseResult, vtk: bool = False) -> None:
    result.nodes.to_csv(outdir / "nodes.csv")
    write_fields_csv(outdir / "fields.csv", result.nodes, result.u, result.v, result.stress)
    result.timings.to_csv(outdir / "timing.csv")
    if vtk:
        write_vtk(outdir / "fields.vtk", result.nodes, result.u, result.v, result.stress)
