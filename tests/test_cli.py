"""Batch runner: exit codes, artifacts, config layering, reproducibility."""

import functools
import inspect
import json
import subprocess
import sys

import pytest

from mlsm2d.cases import hertz
from mlsm2d.cli import CASES, RunConfig, main
from mlsm2d.solve import SolverConfig


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli(["--case", "cantilever", "--nx", 31, "--out", tmp_path]) == 0

    def test_missing_case_is_a_config_error(self, tmp_path, capsys):
        assert run_cli(["--out", tmp_path]) == 2
        assert "no case selected" in capsys.readouterr().err

    def test_all_problems_reported_at_once(self, tmp_path, capsys):
        rc = run_cli(
            ["--case", "cantilever", "--sigma-w", -1.0, "--nx", 1, "--out", tmp_path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma-w" in err
        assert "nx" in err

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "mesh_size": 3}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        assert "mesh_size" in capsys.readouterr().err

    def test_unstable_stencils_are_a_numerical_failure(self, tmp_path, capsys):
        rc = run_cli(
            [
                "--case", "cantilever-perturbed",
                "--perturb-sigma", 0.5,
                "--n", 9,
                "--nx", 40,
                "--out", tmp_path,
            ]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


    def test_hertz_level_caps_listed_with_other_problems(self, tmp_path, capsys):
        rc = run_cli(
            ["--case", "hertz", "--refine-levels", 11, "--sigma-w", -1.0, "--out", tmp_path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "capped at 10, got 11" in err
        assert "sigma-w" in err

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

    def test_nx_next_to_spacing_is_rejected(self, tmp_path, capsys):
        assert run_cli(["--case", "cantilever", "--nx", 31, "--spacing", 0.5, "--out", tmp_path]) == 2
        assert "--nx is ignored next to --spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("case", CASES)
    def test_seed_is_accepted_by_every_case(self, case):
        assert RunConfig(case=case, seed=3).validate() == []

    def test_threads_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"case": "cantilever", "threads": 1}))
        assert run_cli(["--config", cfg, "--out", tmp_path]) == 2
        assert "threads" in capsys.readouterr().err


class _Stop(Exception):
    pass


@pytest.fixture
def hertz_call(monkeypatch):
    """Record the arguments the CLI resolves for hertz_case, then stop before solving."""
    real = hertz.hertz_case
    calls = []

    @functools.wraps(real)
    def record(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Stop

    monkeypatch.setattr(hertz, "hertz_case", record)
    return calls


class TestCaseDefaults:
    def test_hertz_without_level_flags_runs_the_case_schedule(self, tmp_path, hertz_call):
        with pytest.raises(_Stop):
            run_cli(["--case", "hertz", "--out", tmp_path])
        (args,) = hertz_call
        assert args["primary"] == hertz.PRIMARY_FACTORS
        assert args["secondary"] == hertz.SECONDARY_FACTORS
        assert args["support_n"] == 15

    def test_hertz_solver_flag_keeps_the_case_tolerance(self, tmp_path, hertz_call):
        with pytest.raises(_Stop):
            run_cli(["--case", "hertz", "--solver", "bicgstab-ilut", "--out", tmp_path])
        (args,) = hertz_call
        assert args["solver"] == SolverConfig(method="bicgstab-ilut", tolerance=1e-8)


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
        assert (tmp_path / "matrix.txt").stat().st_size > 0

    def test_refine_demo_emits_nodes_only(self, tmp_path):
        rc = run_cli(
            [
                "--case", "refine-demo",
                "--spacing", 1.0,
                "--refine-levels", 2,
                "--relax-iterations", 5,
                "--out", tmp_path,
            ]
        )
        assert rc == 0
        assert (tmp_path / "nodes.csv").exists()
        assert (tmp_path / "timing.csv").exists()
        assert not (tmp_path / "fields.csv").exists()

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
                "--case", "cantilever-perturbed",
                "--nx", 31,
                "--n", 13,
                "--sweep-sigma", "0.0,0.05",
                "--out", tmp_path,
            ]
        )
        assert rc == 0
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("sigma,")


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
        args = ["--case", "cantilever-perturbed", "--nx", 31, "--n", 13, "--seed", 7]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(args + ["--out", out_a]) == 0
        assert run_cli(args + ["--out", out_b]) == 0
        for name in ("nodes.csv", "fields.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_actually_matters(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["--case", "cantilever-perturbed", "--nx", 31, "--n", 13]
        assert run_cli(base + ["--seed", 7, "--out", out_a]) == 0
        assert run_cli(base + ["--seed", 8, "--out", out_b]) == 0
        assert (out_a / "nodes.csv").read_bytes() != (out_b / "nodes.csv").read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "mlsm2d",
            "--case", "cantilever",
            "--nx", "31",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fields.csv").exists()
