"""Batch runner: exit codes, artifacts and their bytes, config layering, reproducibility."""

import functools
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mlsm2d
import mlsm2d.solve
from mlsm2d import cli, io
from mlsm2d.cases import beam
from mlsm2d.cases.metrics import CaseResult
from mlsm2d.cli import CASES, main
from mlsm2d.elasticity import SparseSystem, StressField, assemble
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import DomainShape, NodeSet, Rect, build_rectangle_grid
from mlsm2d.shapes import BasisSpec, WeightSpec, build_shape_set
from mlsm2d.solve import METHODS, SolveReport, SolverConfig
from mlsm2d.timing import TimingReport


# The message of a Hertz level count outside the schedule, short of the counts.
LEVELS = "refine_levels must be in [0, 10] and secondary_levels in [0, 2], got"


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path]) == 0

    def test_missing_case_is_a_config_error(self, tmp_path, capsys):
        assert run_cli(["--out", tmp_path]) == 2
        assert "no case selected" in capsys.readouterr().err

    def test_all_problems_reported_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "basis": "x9"}))
        assert run_cli(["--config", cfg, "--refine-levels", 2, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown basis 'x9'; choose from m9, g9\n" in err
        assert "config error: --refine-levels is ignored by case cantilever\n" in err

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "mesh_size": 3}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        assert "mesh_size" in capsys.readouterr().err

    def test_unstable_stencils_are_a_numerical_failure(self, tmp_path, capsys):
        rc = run_cli(
            [
                "--case", "cantilever",
                "--perturb-sigma", 0.5,
                "--n", 9,
                "--nx", 40,
                "--out", tmp_path,
            ]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("n, rc", [(9, 3), (11, 0)])
    def test_perturbed_cantilever_needs_11_node_supports(self, tmp_path, capsys, n, rc):
        # The bound that --perturb-sigma's help states, on the default 60-node grid.
        assert run_cli(["--case", "cantilever", "--perturb-sigma", 0.1, "--n", n, "--out", tmp_path]) == rc
        if rc:
            expected = "numerical failure: rank-8 support does not determine the dx stencil at node 1"
            assert expected in capsys.readouterr().err

    def test_solver_breakdown_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mlsm2d.solve.spla, "bicgstab", lambda matrix, rhs, **kwargs: (np.full_like(rhs, np.nan), 0))
        assert run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: BiCGSTAB broke down")

    def test_grid_flags_on_drilled_beam_are_rejected(self, tmp_path, capsys):
        rc = run_cli(["--case", "drilled-beam", "--nx", 10, "--perturb-sigma", 0.3, "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--nx is ignored by case drilled-beam" in err
        assert "--perturb-sigma is ignored by case drilled-beam" in err

    def test_perturb_sigma_on_hertz_is_rejected(self, tmp_path, capsys):
        assert run_cli(["--case", "hertz", "--perturb-sigma", 0.1, "--out", tmp_path]) == 2
        assert "--perturb-sigma is ignored by case hertz" in capsys.readouterr().err

    def test_refine_levels_on_cantilever_is_rejected(self, tmp_path, capsys):
        assert run_cli(["--case", "cantilever", "--refine-levels", 2, "--out", tmp_path]) == 2
        assert "--refine-levels is ignored by case cantilever" in capsys.readouterr().err

    def test_refine_levels_next_to_a_refine_sweep_is_rejected(self, tmp_path, capsys):
        rc = run_cli(
            ["--case", "hertz", "--refine-levels", 4, "--sweep-refine", "2,3", "--out", tmp_path]
        )
        assert rc == 2
        assert "--refine-levels is ignored next to --sweep-refine" in capsys.readouterr().err

    def test_support_smaller_than_the_basis_is_rejected(self, tmp_path, capsys):
        assert run_cli(["--case", "cantilever", "--n", 8, "--out", tmp_path]) == 2
        assert "config error: support size 8 is below basis size 9\n" in capsys.readouterr().err

    def test_nx_next_to_spacing_is_rejected(self, tmp_path, capsys):
        # cantilever_case owns the rule, so its message is the one line reported
        out = tmp_path / "out"
        assert run_cli(["--case", "cantilever", "--nx", 31, "--spacing", 0.5, "--out", out]) == 2
        assert capsys.readouterr().err == "config error: give at most one of nx, spacing or n_target\n"
        assert not out.exists()

    def test_basis_sigma_without_the_gaussian_basis_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["--case", "cantilever", "--sigma-b", 3, "--out", out]) == 2
        assert capsys.readouterr().err == "config error: basis sigma is read only by gaussian-9\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, ignored",
        [
            (["--sweep-sigma", 0.1, "--sweep-n", 500], ["--sweep-sigma"]),
            (["--sweep-sigma", 0.1, "--perturb-sigma", 0.2], ["--perturb-sigma"]),
            (["--sweep-sigma", 0.1, "--n-target", 900, "--sweep-n", 500], ["--n-target", "--sweep-sigma"]),
        ],
        ids=["two-sweeps", "own-argument", "both"],
    )
    def test_flags_the_running_sweep_leaves_unused_are_rejected(self, tmp_path, capsys, args, ignored):
        # run runs the first sweep in SWEEPS order, whatever the order on the command line
        assert run_cli(["--case", "cantilever", *args, "--out", tmp_path]) == 2
        running = "--sweep-sigma" if "--sweep-n" not in args else "--sweep-n"
        assert capsys.readouterr().err == "".join(f"config error: {f} is ignored next to {running}\n" for f in ignored)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--case", "hertz", "--nx", 2], "nx must be at least 3, got 2"),
            (["--case", "cantilever", "--spacing", 10], "spacing 10.0 exceeds a rectangle side"),
            (["--case", "cantilever", "--nx", 2], "exceeds a rectangle side"),
            (["--case", "cantilever", "--nx", 1], "nx must be at least 2, got 1"),
            (["--case", "cantilever", "--sigma-w", -1], "weight sigma must be positive, got -1.0"),
            (["--case", "cantilever", "--sigma-w", "nan"], "weight sigma must be positive, got nan"),
            (["--case", "cantilever", "--basis", "g9", "--sigma-b", -1], "basis sigma must be positive, got -1.0"),
            (["--case", "cantilever", "--basis", "g9", "--sigma-b", "nan"], "basis sigma must be positive, got nan"),
            (["--case", "cantilever", "--tol", 1.5], "tolerance must be in (0, 1), got 1.5"),
            (["--case", "cantilever", "--tol", 0], "tolerance must be in (0, 1), got 0.0"),
            (["--case", "cantilever", "--spacing", -1], "spacing must be positive, got -1.0"),
            (["--case", "cantilever", "--spacing", "nan"], "spacing must be positive, got nan"),
            (["--case", "cantilever", "--n-target", 3], "need at least 4 nodes, got 3"),
            (["--case", "cantilever", "--perturb-sigma", -0.1], "sigma must be nonnegative, got -0.1"),
            (["--case", "cantilever", "--perturb-sigma", "nan"], "sigma must be nonnegative, got nan"),
            (["--case", "cantilever", "--sweep-n", "500,2"], "need at least 4 nodes, got 2"),
            (["--case", "cantilever", "--sweep-sigma", "0,-1"], "sigma must be nonnegative, got -1.0"),
            (["--case", "cantilever", "--sweep-sigma", "0,nan"], "sigma must be nonnegative, got nan"),
            (["--case", "hertz", "--refine-levels", 11], f"{LEVELS} 11 and 2"),
            (["--case", "hertz", "--refine-levels", -1], f"{LEVELS} -1 and 2"),
            (["--case", "hertz", "--secondary-levels", 3], f"{LEVELS} 10 and 3"),
            (["--case", "hertz", "--hertz-h", -1], "domain half-size -1.0 must exceed the contact half-width"),
            (["--case", "hertz", "--hertz-h", "nan"], "domain half-size nan must exceed the contact half-width"),
            (["--case", "hertz", "--hertz-h", "inf"], "domain half-size inf must be finite"),
            (["--case", "hertz", "--sweep-refine", "0,11"], f"{LEVELS} 11 and 2"),
            (["--case", "hertz", "--sweep-refine", "0,-1"], f"{LEVELS} -1 and 2"),
            (["--case", "drilled-beam", "--refine-levels", -1], "refine_levels must be nonnegative, got -1"),
            (["--case", "drilled-beam", "--relax-iterations", -1], "iterations must be nonnegative, got -1"),
            (["--case", "drilled-beam", "--spacing", 0], "spacing must be positive, got 0.0"),
            (["--case", "drilled-beam", "--sigma-w", "nan"], "weight sigma must be positive, got nan"),
        ],
        ids=[
            "hertz-nx", "cantilever-spacing", "cantilever-nx",
            "cantilever-nx-1", "cantilever-sigma-w", "cantilever-sigma-w-nan",
            "cantilever-sigma-b", "cantilever-sigma-b-nan", "cantilever-tol-1.5", "cantilever-tol-0",
            "cantilever-negative-spacing", "cantilever-nan-spacing", "cantilever-n-target",
            "cantilever-perturb-sigma", "cantilever-perturb-sigma-nan",
            "cantilever-sweep-n", "cantilever-sweep-sigma", "cantilever-sweep-sigma-nan",
            "hertz-refine-levels-11", "hertz-refine-levels--1", "hertz-secondary-levels", "hertz-h", "hertz-h-nan",
            "hertz-h-inf",
            "hertz-sweep-refine-11", "hertz-sweep-refine--1",
            "drilled-beam-refine-levels", "drilled-beam-relax-iterations", "drilled-beam-spacing",
            "drilled-beam-sigma-w-nan",
        ],
    )
    def test_value_the_case_rejects_is_a_config_error(self, tmp_path, capsys, args, message):
        # these pass validate; the case function, a spec object or a sweep entry's
        # owner raises ValueError, so the output directory is never made
        out = tmp_path / "out"
        assert run_cli(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [["--case", "cantilever", "--nx", 31]], ids=["cantilever"]
    )
    def test_output_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys, args):
        # --out names a regular file, so making the directory after the run raises OSError
        out = tmp_path / "out"
        out.write_text("kept")
        assert run_cli(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("flag, value", [("--sigma-w", -1), ("--sigma-b", -1), ("--tol", 1.5)])
    def test_spec_value_rejected_before_the_output_directory_is_made(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run_cli(["--case", "cantilever", flag, value, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--case", "hertz", "--sweep-refine", "1,11"], f"{LEVELS} 11 and 2"),
            (["--case", "hertz", "--secondary-levels", 3, "--sweep-refine", "1,2"], f"{LEVELS} 1 and 3"),
            (["--case", "cantilever", "--sweep-n", "500,2"], "need at least 4 nodes, got 2"),
            (["--case", "cantilever", "--n-target", 20000, "--sweep-sigma", "0.1,-1"], "sigma must be nonnegative, got -1.0"),
            (["--case", "cantilever", "--n", 13, "--sweep-sigma", "0.1,nan"], "sigma must be nonnegative, got nan"),
        ],
        ids=["refine", "refine-secondary", "n", "sigma", "sigma-nan"],
    )
    def test_bad_sweep_entry_stops_before_any_run(self, tmp_path, capsys, case_calls, args, message):
        # each entry meets its owner's check before the first run, not when its own run starts
        out = tmp_path / "out"
        assert run_cli(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert case_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--max-iter", "--fill-factor", "--drop-tol"])
    def test_fixed_solver_settings_are_not_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["--case", "cantilever", flag, 10, "--out", tmp_path])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_fixed_solver_settings_are_not_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "max_iter": 5, "fill_factor": 10.0, "drop_tol": 0.0}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        assert "unknown config file keys: drop_tol, fill_factor, max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("case", CASES)
    def test_seed_is_accepted_by_every_case(self, case):
        config = cli._build_parser().parse_args(["--case", case, "--seed", "3"])
        assert cli.validate(config) == []

    def test_removed_perturbed_alias_is_not_a_case(self, tmp_path, capsys):
        # The perturbed cantilever is --case cantilever --perturb-sigma S.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["--case", "cantilever-perturbed", "--out", tmp_path])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cantilever-perturbed'" in capsys.readouterr().err

    def test_removed_perturbed_alias_in_a_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever-perturbed"}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        expected = f"unknown case 'cantilever-perturbed'; choose from {', '.join(CASES)}"
        assert capsys.readouterr().err == f"config error: {expected}\n"  # and not also "no case selected"

    def test_file_choice_is_checked_only_where_the_file_value_is_used(self, tmp_path, case_calls):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever-perturbed", "basis": "x9"}))
        with pytest.raises(_Stop):
            run_cli(["--config", cfg, "--case", "cantilever", "--basis", "g9", "--out", tmp_path])
        assert case_calls == [((), {"basis": BasisSpec("gaussian-9")})]

    def test_threads_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "threads": 1}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        assert "threads" in capsys.readouterr().err


class TestConfigFileTypes:
    """Config-file values are typed like the flags; a wrong type exits 2."""

    def run_file(self, tmp_path, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        return run_cli(["--config", cfg, "--out", tmp_path])

    def test_string_for_an_integer_flag(self, tmp_path, capsys):
        assert self.run_file(tmp_path, {"case": "cantilever", "nx": "31"}) == 2
        assert "config error: config file key 'nx' must be typed like --nx" in capsys.readouterr().err

    def test_number_for_a_list_flag(self, tmp_path, capsys):
        assert self.run_file(tmp_path, {"case": "cantilever", "sweep_n": 500}) == 2
        assert "config error: config file key 'sweep_n' must be typed like --sweep-n" in capsys.readouterr().err

    def test_unknown_solver_lists_the_solve_methods(self, tmp_path, capsys):
        solver = next(a for a in cli._build_parser()._actions if a.dest == "solver")
        assert tuple(solver.choices) == METHODS
        assert self.run_file(tmp_path, {"case": "cantilever", "solver": "gmres"}) == 2
        assert f"unknown solver 'gmres'; choose from {', '.join(METHODS)}" in capsys.readouterr().err

    def test_top_level_list(self, tmp_path, capsys):
        assert self.run_file(tmp_path, ["case", "cantilever"]) == 2
        assert "config error: config file must hold a JSON object, got list" in capsys.readouterr().err

    def test_typed_values_are_read_like_flags(self, tmp_path):
        values = {"case": "cantilever", "sweep_n": [500, 900], "spacing": 1, "vtk": False, "seed": None}
        parser = cli._build_parser()
        config = parser.parse_args(["--config", str(tmp_path / "run.json")])
        (tmp_path / "run.json").write_text(json.dumps(values))
        assert cli._read_config_file(parser, config) == []
        assert config.sweep_n == [500, 900]
        assert config.spacing == 1.0 and isinstance(config.spacing, float)
        assert config.vtk is False
        assert config.seed is None  # null leaves the option unset


def test_cli_tables_name_real_flags():
    """A misspelt name in a table would silently skip its check, or reach a case as a TypeError."""
    options = {a.dest for a in cli._build_parser()._actions} - {"help"}
    assert set(cli.CASE_FLAGS) == set(CASES)
    tables = [*cli.CASE_FLAGS.values(), cli.RENAMES, cli.SWEEPS, cli.NOT_ARGUMENTS]
    for table in tables:
        assert set(table) <= options, set(table) - options
    for case, flags in cli.CASE_FLAGS.items():
        parameters = inspect.signature(getattr(*cli.CASE_FUNCTIONS[case])).parameters
        arguments = {cli.RENAMES.get(flag, flag) for flag in flags if flag not in cli.NOT_ARGUMENTS}
        assert arguments <= set(parameters), (case, arguments - set(parameters))
        sweeps = {cli.SWEEPS[flag] for flag in flags if flag in cli.SWEEPS}
        assert sweeps <= set(parameters), (case, sweeps - set(parameters))


class _Stop(Exception):
    pass


@pytest.fixture
def case_calls(monkeypatch):
    """Record the (args, kwargs) the CLI passes to each case function, then stop before solving."""
    calls = []

    def recorder(real):
        @functools.wraps(real)
        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise _Stop

        return record

    for module, name in cli.CASE_FUNCTIONS.values():
        monkeypatch.setattr(module, name, recorder(getattr(module, name)))
    return calls


class TestCaseDefaults:
    @pytest.mark.parametrize("case", CASES)
    def test_flagless_run_leaves_every_default_to_the_case(self, tmp_path, case_calls, case):
        with pytest.raises(_Stop):
            run_cli(["--case", case, "--out", tmp_path])
        assert case_calls == [((), {})]

    def test_flags_reach_the_case_by_name(self, tmp_path, case_calls):
        with pytest.raises(_Stop):
            run_cli(["--case", "hertz", "--n", 13, "--refine-levels", 4, "--hertz-h", 0.5, "--out", tmp_path])
        assert case_calls == [((), {"support_n": 13, "refine_levels": 4, "half_size": 0.5})]

    def test_hertz_solver_flag_keeps_the_case_tolerance(self, tmp_path, case_calls):
        with pytest.raises(_Stop):
            run_cli(["--case", "hertz", "--solver", "bicgstab-ilut", "--out", tmp_path])
        assert case_calls == [((), {"solver": SolverConfig(method="bicgstab-ilut")})]

    def test_hertz_sweep_passes_the_half_size(self, tmp_path, case_calls):
        with pytest.raises(_Stop):
            run_cli(["--case", "hertz", "--sweep-refine", "2,3", "--hertz-h", 0.5, "--out", tmp_path])
        assert case_calls == [((), {"half_size": 0.5, "refine_levels": 2})]

    def test_sweep_runs_its_values_through_the_case_argument(self, tmp_path, case_calls):
        with pytest.raises(_Stop):
            run_cli(["--case", "cantilever", "--sweep-n", "500,900", "--n", 13, "--out", tmp_path])
        assert case_calls == [((), {"support_n": 13, "n_target": 500})]


class TestArtifacts:
    def test_standard_files_and_headers(self, tmp_path):
        assert run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path]) == 0
        nodes = (tmp_path / "nodes.csv").read_text().splitlines()
        fields = (tmp_path / "fields.csv").read_text().splitlines()
        timing = (tmp_path / "timing.csv").read_text().splitlines()
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert nodes[0].startswith("x,y,kind")
        assert fields[0] == "x,y,u,v,sxx,syy,sxy,svm"
        assert timing[0] == "phase,seconds"
        assert sweep[0] == "N,e_inf_u,e_inf_sigma,t_total"
        assert len(fields) == len(nodes)
        assert len(sweep) == 2

    def test_timing_records_the_output_phase_outside_the_total(self, tmp_path):
        assert run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path, "--vtk"]) == 0
        timing = [line.split(",") for line in (tmp_path / "timing.csv").read_text().splitlines()[1:]]
        names = [name for name, _ in timing]
        # the rows follow the order the phases ran; a 9-node grid solve has an ordering phase
        assert names == [
            "domain", "supports", "shapes", "assembly", "ordering", "preconditioner", "solve", "postprocess",
            "output", "total",
        ]
        assert float(timing[-2][1]) > 0.0
        # total is the pipeline's time, the one sweep.csv reports
        t_total = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")[-1]
        assert timing[-1][1] == t_total

    def test_vtk_output(self, tmp_path):
        rc = run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path, "--vtk"])
        assert rc == 0
        vtk = (tmp_path / "fields.vtk").read_text().splitlines()
        assert vtk[0].startswith("# vtk DataFile")
        assert any(line.startswith("POINTS") for line in vtk)

    def test_matrix_dump(self, tmp_path):
        rc = run_cli(
            ["--case", "cantilever", "--nx", 31, "--out", tmp_path, "--dump-matrix"]
        )
        assert rc == 0
        # The run frees its system before the factorization, so the dump is
        # assembled again; it must be the system of an independent assembly.
        nodes = build_rectangle_grid(beam.RECT, beam.L / 30)
        shapes = build_shape_set(nodes, build_supports(nodes, 9), BasisSpec(), WeightSpec())
        system = assemble(nodes, shapes, beam.MATERIAL, beam.cantilever_bcs(nodes))
        system.export_matrix(tmp_path / "independent.txt")
        dumped = (tmp_path / "matrix.txt").read_bytes()
        assert dumped.count(b"\n") == system.nnz
        assert dumped == (tmp_path / "independent.txt").read_bytes()

    def test_sweep_rows_follow_the_requested_sizes(self, tmp_path):
        rc = run_cli(
            ["--case", "cantilever", "--sweep-n", "500,900", "--out", tmp_path]
        )
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        sizes = [float(r.split(",")[0]) for r in rows]
        assert len(sizes) == 2
        assert abs(sizes[0] - 500) <= 75
        assert abs(sizes[1] - 900) <= 120

    def test_perturbation_sweep_keyed_by_sigma(self, tmp_path):
        rc = run_cli(
            [
                "--case", "cantilever",
                "--nx", 31,
                "--n", 13,
                "--sweep-sigma", "0.0,0.05",
                "--out", tmp_path,
            ]
        )
        assert rc == 0
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("sigma,")


class TestWriterBytes:
    """Every writer's bytes against per-row f-string references on a hand-made cloud."""

    V = (-0.0, 0.1, 1.0 / 3.0, 1e-300, 1.7e308)

    @pytest.fixture
    def cloud(self):
        a, b, c, d, e = self.V
        positions = np.array([[a, b], [c, d], [e, a], [b, c], [d, e], [0.5, -c]])
        # Rows 0, 2 and 4 carry normals, so they are the boundary nodes.
        normals = np.zeros((6, 2))
        normals[[0, 2, 4]] = [[a, -1.0], [c, e], [d, b]]
        nodes = NodeSet(positions, normals, DomainShape(Rect(0.0, 1.0, 0.0, 1.0)))
        u = np.array([e, a, b, c, d, -e])
        v = np.array([d, c, b, a, -b, 2.0])
        stress = StressField(
            np.array([a, b, c, d, 7.0, -c]), np.array([c, d, a, b, -0.5, 3.0]), np.array([d, a, 1.0, b, c, a])
        )
        return nodes, u, v, stress

    def test_nodes_csv(self, tmp_path, cloud):
        nodes = cloud[0]
        nodes.to_csv(tmp_path / "nodes.csv")
        ref = "x,y,kind,nx,ny\n"
        for i in range(nodes.n):
            x, y = nodes.positions[i]
            if i in (0, 2, 4):
                nx, ny = nodes.normals[i]
                ref += f"{x:.17g},{y:.17g},boundary,{nx:.17g},{ny:.17g}\n"
            else:
                ref += f"{x:.17g},{y:.17g},interior,,\n"
        assert (tmp_path / "nodes.csv").read_text() == ref
        assert "-0,0.10000000000000001,boundary,-0,-1\n" in ref
        assert "1.6999999999999999e+308" in ref and "1e-300" in ref

    def test_fields_csv(self, tmp_path, cloud):
        nodes, u, v, stress = cloud
        io.write_fields_csv(tmp_path / "fields.csv", io.field_columns(nodes, u, v, stress))
        svm = stress.von_mises
        ref = "x,y,u,v,sxx,syy,sxy,svm\n"
        for i in range(nodes.n):
            ref += (
                f"{nodes.positions[i, 0]:.17g},{nodes.positions[i, 1]:.17g},"
                f"{u[i]:.17g},{v[i]:.17g},"
                f"{stress.sxx[i]:.17g},{stress.syy[i]:.17g},{stress.sxy[i]:.17g},"
                f"{svm[i]:.17g}\n"
            )
        assert (tmp_path / "fields.csv").read_text() == ref

    def test_vtk(self, tmp_path, cloud):
        nodes, u, v, stress = cloud
        io.write_vtk(tmp_path / "fields.vtk", io.field_columns(nodes, u, v, stress))
        n = nodes.n
        ref = f"# vtk DataFile Version 3.0\nmlsm2d fields\nASCII\nDATASET POLYDATA\nPOINTS {n} double\n"
        for p in nodes.positions:
            ref += f"{p[0]:.17g} {p[1]:.17g} 0\n"
        ref += f"VERTICES {n} {2 * n}\n"
        for i in range(n):
            ref += f"1 {i}\n"
        ref += f"POINT_DATA {n}\nVECTORS displacement double\n"
        for i in range(n):
            ref += f"{u[i]:.17g} {v[i]:.17g} 0\n"
        for name, arr in (("sxx", stress.sxx), ("syy", stress.syy), ("sxy", stress.sxy), ("svm", stress.von_mises)):
            ref += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
            for x in arr:
                ref += f"{x:.17g}\n"
        assert (tmp_path / "fields.vtk").read_text() == ref

    def test_case_outputs_format_once_with_the_same_bytes(self, tmp_path, cloud):
        # write_case_outputs shares each value's text among the files; each
        # file must equal what its own writer makes from the numbers
        nodes, u, v, stress = cloud
        report = SolveReport("direct", 0, 0.0)
        result = CaseResult(nodes, u, v, stress, {}, report, TimingReport(total=1.0))
        io.write_case_outputs(tmp_path, result, vtk=True)
        alone = tmp_path / "alone"
        alone.mkdir()
        nodes.to_csv(alone / "nodes.csv")
        io.write_fields_csv(alone / "fields.csv", io.field_columns(nodes, u, v, stress))
        io.write_vtk(alone / "fields.vtk", io.field_columns(nodes, u, v, stress))
        for name in ("nodes.csv", "fields.csv", "fields.vtk"):
            assert (tmp_path / name).read_bytes() == (alone / name).read_bytes()
        # the output phase is timed on a copy of the run's report, after its total
        assert [line.split(",")[0] for line in (tmp_path / "timing.csv").read_text().splitlines()] == [
            "phase", "output", "total",
        ]
        assert result.timings == TimingReport(total=1.0)

    def test_repeated_values_are_formatted_once_with_the_same_bytes(self, tmp_path, monkeypatch):
        # at most half the values are distinct, so each distinct bit pattern
        # is formatted once; -0.0 and 0.0 stay apart, nan and inf survive
        values = np.array([0.1, -0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, -0.0, 0.0, 0.1, np.inf, 1e-300, 0.1, 0.0])
        distinct = np.unique(values.view(np.int64)).size
        assert 2 * distinct <= values.size
        formatted = []
        text_of = io._text
        monkeypatch.setattr(io, "_text", lambda v, fmt="%.17g": formatted.append(len(v)) or text_of(v, fmt))
        text = io._text(values)
        assert formatted == [values.size, distinct]
        assert text == [f"{x:.17g}" for x in values]
        assert text[1] == "-0" and text[2] == "0" and text[3] == "nan" and text[5] == "-inf"
        assert io._text(values[:1]) == ["0.10000000000000001"] and io._text([]) == [] and io._table([[], []]) == ""
        fields = dict.fromkeys(io.FIELDS, values)
        io.write_fields_csv(tmp_path / "text.csv", {name: io._text(column) for name, column in fields.items()})
        io.write_fields_csv(tmp_path / "numbers.csv", fields)
        ref = "".join(",".join([f"{x:.17g}"] * len(io.FIELDS)) + "\n" for x in values)
        assert (tmp_path / "text.csv").read_text() == (tmp_path / "numbers.csv").read_text() == "x,y,u,v,sxx,syy,sxy,svm\n" + ref

    def test_sweep_csv_with_an_empty_error_cell(self, tmp_path):
        rows = [
            {"N": 6, "e_inf_u": self.V[1], "e_inf_sigma": self.V[4], "t_total": 1.0 / 3.0},
            {"N": 12, "e_inf_u": None, "e_inf_sigma": -0.0, "t_total": 2.5, "sigma": 0.1},
            {"N": 1000003, "e_inf_u": 1e-300, "e_inf_sigma": None, "t_total": 1e-7},
        ]
        io.write_sweep_csv(tmp_path / "sweep.csv", rows)
        ref = "N,e_inf_u,e_inf_sigma,t_total\n"
        for row in rows:
            e_u = row.get("e_inf_u")
            e_s = row.get("e_inf_sigma")
            ref += (
                f"{row['N']:.17g},"
                f"{'' if e_u is None else format(e_u, '.17g')},"
                f"{'' if e_s is None else format(e_s, '.17g')},"
                f"{row['t_total']:.6f}\n"
            )
        assert (tmp_path / "sweep.csv").read_text() == ref
        assert "12,,-0,2.500000\n" in ref

    def test_matrix_txt(self, tmp_path):
        rows, cols = [0, 0, 1, 3, 5, 4], [0, 5, 2, 3, 1, 4]
        data = [-0.0, 0.1, 1.0 / 3.0, 1e-300, 1.7e308, -2.0]
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(6, 6))
        SparseSystem(matrix, np.zeros(6), n_nodes=3).export_matrix(tmp_path / "matrix.txt")
        coo = matrix.tocoo()
        ref = "".join(f"{r} {c} {v:.17g}\n" for r, c, v in zip(coo.row, coo.col, coo.data))
        assert (tmp_path / "matrix.txt").read_text() == ref
        assert "0 0 -0\n" in ref

    def test_timing_csv(self, tmp_path):
        # rows in the order the phases were timed, whatever their names, then the total
        report = TimingReport(phases={"solve": 1.0 / 3.0, "output": 1e-300, "domain": 0.1}, total=2.0)
        report.to_csv(tmp_path / "timing.csv")
        ref = "phase,seconds\nsolve,0.333333\noutput,0.000000\ndomain,0.100000\ntotal,2.000000\n"
        assert (tmp_path / "timing.csv").read_text() == ref


class TestConfigLayering:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "nx": 31}))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(["--config", cfg, "--out", out_a]) == 0
        assert run_cli(["--config", cfg, "--out", out_b, "--nx", 61]) == 0
        rows_a = len((out_a / "nodes.csv").read_text().splitlines())
        rows_b = len((out_b / "nodes.csv").read_text().splitlines())
        assert rows_a != rows_b

    def test_output_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("MLSM2D_OUT", str(target))
        assert run_cli(["--case", "cantilever", "--nx", 31]) == 0
        assert (target / "fields.csv").exists()


class TestReproducibility:
    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        args = ["--case", "cantilever", "--perturb-sigma", 0.1, "--nx", 31, "--n", 13, "--seed", 7]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(args + ["--out", out_a]) == 0
        assert run_cli(args + ["--out", out_b]) == 0
        for name in ("nodes.csv", "fields.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_weight_sigma_has_no_effect_on_interpolating_supports(self, tmp_path):
        # with --n equal to the basis size 9 the fit interpolates, so the weights drop out
        args = ["--case", "cantilever", "--nx", 31]
        assert run_cli(args + ["--out", tmp_path / "a"]) == 0
        assert run_cli(args + ["--sigma-w", 2, "--out", tmp_path / "b"]) == 0
        for name in ("nodes.csv", "fields.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_actually_matters(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["--case", "cantilever", "--perturb-sigma", 0.1, "--nx", 31, "--n", 13]
        assert run_cli(base + ["--seed", 7, "--out", out_a]) == 0
        assert run_cli(base + ["--seed", 8, "--out", out_b]) == 0
        assert (out_a / "nodes.csv").read_bytes() != (out_b / "nodes.csv").read_bytes()


def test_package_names_leave_submodules_reachable():
    import mlsm2d.relax
    import mlsm2d.solve

    assert isinstance(mlsm2d.relax, types.ModuleType)
    assert isinstance(mlsm2d.solve, types.ModuleType)
    assert mlsm2d.relax.ITERATIONS > 0
    assert mlsm2d.solve.ILUT_FILL_FACTOR > 0
    assert mlsm2d.__version__ == "0.1.0"


def test_module_entry_point(tmp_path):
    # The subprocess must import the same package as this test, whether the
    # package is installed or only put on sys.path by the test runner.
    source = str(Path(mlsm2d.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "mlsm2d",
            "--case", "cantilever",
            "--nx", "31",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fields.csv").exists()
