"""Span tracing of the mlsm2d pipeline from outside the package.

`Tracer.install()` wraps each function in `TARGETS` at every module binding
that refers to it: every `mlsm2d.*` module (all of them are imported first,
so a module the CLI loads lazily is covered too) plus the namespace the
function is defined or reached through. A call is therefore traced however
the caller reached the function, and a refactor that moves the calls into
another module keeps its spans. Nothing under `src/` is edited.

Spans stay in memory as `[id, parent, name, start, end, attrs]` lists and
are written out by the caller once the traced run ends. `layer_metrics`
turns them into the `<layer>.<metric>` numbers the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

ID, PARENT, NAME, START, END, ATTRS = range(6)

# Driver and configuration glue; every other span belongs to a pipeline layer.
GLUE = ("cli", "cases")


def _refine_attrs(args, kwargs, result):
    regions = args[1] if len(args) > 1 else kwargs.get("regions", ())
    # refine_levels runs one pass per level of its deepest region.
    passes = max((r.level for r in regions), default=0) if isinstance(regions, (list, tuple)) else 1
    return {"passes": passes, "added": result.n - args[0].n}


def _shape_attrs(args, kwargs, result):
    return {
        "ops": len(result.rows) * result.n_nodes,
        "deficient": int((result.ranks < result.basis.m).sum()),
    }


def _solve_attrs(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "residual": report.residual}


# (span name, module, attribute or Class.method, counts recorded on return)
TARGETS = (
    ("cli.main", "mlsm2d.cli", "main", None),
    ("cases.run", "mlsm2d.cases.beam", "cantilever_case", None),
    ("cases.run", "mlsm2d.cases.hertz", "hertz_case", None),
    ("cases.run", "mlsm2d.cases.drilled", "drilled_cantilever_case", None),
    ("elasticity.bcs", "mlsm2d.cases.beam", "cantilever_bcs", None),
    ("elasticity.bcs", "mlsm2d.cases.hertz", "hertz_bcs", None),
    ("elasticity.bcs", "mlsm2d.cases.drilled", "drilled_bcs", None),
    ("nodes.build", "mlsm2d.nodes", "build_rectangle_grid", None),
    ("nodes.build", "mlsm2d.nodes", "build_drilled_domain", None),
    ("refine.levels", "mlsm2d.refine", "refine_levels", _refine_attrs),
    ("refine.levels", "mlsm2d.refine", "refine_once", _refine_attrs),
    ("relax.relax", "mlsm2d.relax", "relax", None),
    ("neighbors.build_supports", "mlsm2d.neighbors", "build_supports",
     lambda a, k, r: {"rows": int(r.indices.shape[0])}),
    ("neighbors.knn", "mlsm2d.neighbors", "knn", None),
    ("shapes.build_shape_set", "mlsm2d.shapes", "build_shape_set", _shape_attrs),
    ("shapes.svd", "numpy.linalg", "svd", None),
    ("elasticity.assemble", "mlsm2d.elasticity", "assemble",
     lambda a, k, r: {"nnz": int(r.nnz), "dim": int(r.dim), "n": int(r.n_nodes)}),
    ("elasticity.stress", "mlsm2d.elasticity", "compute_stresses", None),
    ("solve.solve", "mlsm2d.solve", "solve", _solve_attrs),
    # Factor size comes from SuperLU.nnz: reading .L/.U would copy the factors.
    ("solve.factor", "scipy.sparse.linalg", "spilu",
     lambda a, k, r: {"factor_nnz": int(r.nnz), "matrix_nnz": int(a[0].nnz)}),
    ("solve.factor", "scipy.sparse.linalg", "splu",
     lambda a, k, r: {"factor_nnz": int(r.nnz), "matrix_nnz": int(a[0].nnz)}),
    ("solve.iterate", "scipy.sparse.linalg", "bicgstab", None),
    ("solve.iterate", "scipy.sparse.linalg", "gmres", None),
    ("solve.iterate", "scipy.sparse.linalg", "spsolve", None),
    ("io.case_outputs", "mlsm2d.io", "write_case_outputs", None),
    ("io.sweep_csv", "mlsm2d.io", "write_sweep_csv", None),
    ("io.fields_csv", "mlsm2d.io", "write_fields_csv", None),
    ("io.vtk", "mlsm2d.io", "write_vtk", None),
    ("io.nodes_csv", "mlsm2d.nodes", "NodeSet.to_csv", None),
    ("io.timing_csv", "mlsm2d.timing", "TimingReport.to_csv", None),
)


class Tracer:
    """Records one span per wrapped call; create one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding; raise if a target is gone."""
        import mlsm2d

        for info in pkgutil.walk_packages(mlsm2d.__path__, "mlsm2d."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        package = [m for n, m in sys.modules.items() if n == "mlsm2d" or n.startswith("mlsm2d.")]
        for name, module_name, attr, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, method, self._wrap(name, vars(cls)[method], attrs))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(name, fn, attrs)
            for ns in {id(m): m for m in package + [module]}.values():
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)


def _select(spans: list[list], name: str, parent_prefix: str | None = None) -> list[list]:
    """Spans called `name`, optionally only those whose parent's name starts with parent_prefix.

    A call nested in a call of the same name (build_drilled_domain builds
    its grid with build_rectangle_grid) is counted once.
    """
    out = []
    for s in spans:
        if s[NAME] != name:
            continue
        parent = "" if s[PARENT] is None else spans[s[PARENT]][NAME]
        if parent != name and (parent_prefix is None or parent.startswith(parent_prefix)):
            out.append(s)
    return out


def _secs(selected: list[list]) -> float:
    return sum(s[END] - s[START] for s in selected)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed `<layer>.<metric>`.

    Self time is a span minus the time its direct child spans cover, so
    supports built inside refinement count for neighbors, not refine.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)

    def secs(name, parent_prefix=None):
        return _secs(_select(spans, name, parent_prefix))

    def total(name, key):
        return sum(s[ATTRS][key] for s in _select(spans, name))

    def self_s(name):
        return sum(_secs([s]) - _secs(children.get(s[ID], [])) for s in _select(spans, name))

    factor_nnz = total("solve.factor", "factor_nnz")
    rows = total("neighbors.build_supports", "rows")
    fallback = len(_select(spans, "neighbors.knn", "neighbors.build_supports"))
    n_iterate = len(_select(spans, "solve.iterate"))
    n_solve = len(_select(spans, "solve.solve"))
    top_layers = [
        s for s in spans
        if s[NAME].split(".")[0] not in GLUE
        and (s[PARENT] is None or spans[s[PARENT]][NAME].split(".")[0] in GLUE)
    ]
    return {
        "solve.precond_s": secs("solve.factor"),
        "solve.factor_nnz": factor_nnz,
        "solve.fill_ratio": factor_nnz / max(total("solve.factor", "matrix_nnz"), 1),
        "solve.iter_s": secs("solve.iterate"),
        "solve.iterations": total("solve.solve", "iterations"),
        "solve.restarts": max(n_iterate - n_solve, 0),
        "solve.residual": max((s[ATTRS]["residual"] for s in _select(spans, "solve.solve")), default=0.0),
        "solve.self_s": self_s("solve.solve"),
        "neighbors.s": secs("neighbors.build_supports"),
        "neighbors.calls": len(_select(spans, "neighbors.build_supports")),
        "neighbors.rows": rows,
        "neighbors.fallback_rows": fallback,
        "neighbors.knn_s": secs("neighbors.knn", "neighbors.build_supports"),
        "neighbors.vectorized_frac": 1.0 - fallback / max(rows, 1),
        "refine.s": secs("refine.levels"),
        "refine.self_s": self_s("refine.levels"),
        "refine.passes": total("refine.levels", "passes"),
        "refine.nodes_added": total("refine.levels", "added"),
        "relax.s": secs("relax.relax"),
        "shapes.s": secs("shapes.build_shape_set"),
        "shapes.svd_s": secs("shapes.svd", "shapes.build_shape_set"),
        "shapes.ops_computed": total("shapes.build_shape_set", "ops"),
        "shapes.rank_deficient": total("shapes.build_shape_set", "deficient"),
        "elasticity.bcs_s": secs("elasticity.bcs"),
        "elasticity.assemble_s": secs("elasticity.assemble"),
        "elasticity.nnz": total("elasticity.assemble", "nnz"),
        "elasticity.dim": total("elasticity.assemble", "dim"),
        "elasticity.stress_s": secs("elasticity.stress"),
        "nodes.build_s": secs("nodes.build"),
        "nodes.n": total("elasticity.assemble", "n"),
        "io.s": _secs([s for s in top_layers if s[NAME].startswith("io.")]),
        "io.nodes_csv_s": secs("io.nodes_csv"),
        "io.fields_csv_s": secs("io.fields_csv"),
        "io.vtk_s": secs("io.vtk"),
        "cases.self_s": self_s("cases.run"),
        "cli.self_s": self_s("cli.main"),
        "trace.unattributed_s": secs("cli.main") - _secs(top_layers),
    }


# timing.csv phase -> span names whose time the phase should equal. Exact
# pairs time the same call; the solve and postprocess phases also hold
# true-residual checks and error norms that no span covers.
PHASE_SPANS = {
    "domain": (("nodes.build", "cases"),),
    "refinement": (("refine.levels", None),),
    "relaxation": (("relax.relax", None),),
    "supports": (("neighbors.build_supports", "cases"),),
    "shapes": (("shapes.build_shape_set", None),),
    "assembly": (("elasticity.bcs", None), ("elasticity.assemble", None)),
    "preconditioner": (("solve.factor", None),),
    "solve": (("solve.iterate", None),),
    "postprocess": (("elasticity.stress", None),),
}
EXACT_PHASES = ("domain", "refinement", "relaxation", "supports", "shapes", "assembly", "preconditioner")


def phase_disagreement(spans: list[list], phases: dict[str, float]) -> dict[str, float]:
    """Span time minus the program's own timing.csv figure, per phase."""
    return {
        phase: sum(_secs(_select(spans, name, prefix)) for name, prefix in pairs) - phases.get(phase, 0.0)
        for phase, pairs in PHASE_SPANS.items()
    }
