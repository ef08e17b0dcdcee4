import json
import os

import numpy as np
import pytest

from elastoacoustic import cli
from elastoacoustic.adaptivity import AdaptiveHistory
from elastoacoustic.cli import main
from elastoacoustic.config import (ConfigError, RunConfig, load_config,
                                   parse_config)
from elastoacoustic.study import ConvergenceTable

CONFIG_TEXT = """
# vessel study setup
[geometry]
geometry = omega1
wall = 0.13
clamp = bottom

[discretization]
family = taylor-hood
levels = 1, 2

[materials]
e_modulus = 1.44e11
nu = 0.35

[eigensolver]
n_modes = 2
window = 400, 2800

[adaptivity]
theta = 0.5
max_dofs = 4000

[output]
out_dir = run1
"""


class TestConfig:
    def test_parse_sections(self):
        values = parse_config(CONFIG_TEXT)
        assert values["geometry"] == "omega1"
        assert values["levels"] == (1, 2)
        assert values["window"] == (400.0, 2800.0)
        assert values["theta"] == 0.5

    def test_load_and_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        cfg = load_config(path)
        assert cfg.family == "taylor-hood"
        assert cfg.rho_f == 1000.0  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[x]\nnot_a_key = 3\n")

    def test_shift_key_rejected(self, tmp_path):
        # the windowed solve places its own shifts at the window's lower
        # end, so a configured shift is no longer a setting; nor are the
        # quadrature and projection degrees, which the discretization
        # fixes
        path = tmp_path / "run.cfg"
        for line in ("[eigensolver]\nshift = 1e5",
                     "[discretization]\nassembly_degree = 4",
                     "[discretization]\nestimator_degree = 5",
                     "[discretization]\nprojection_degree = 1"):
            path.write_text(line + "\n")
            key = line.split("\n")[1].split(" = ")[0]
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(path)

    @pytest.mark.parametrize("line", ["levels = 1.5", "n_modes = x",
                                      "nu = abc", "levels = 1, x"])
    def test_unparsable_value_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"line 2: .*'{key}'"):
            parse_config(f"[x]\n{line}\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(theta=0.0)
        with pytest.raises(ConfigError):
            RunConfig(nu=0.6)
        with pytest.raises(ConfigError):
            RunConfig(family="p17")
        with pytest.raises(ConfigError):
            RunConfig(geometry="dodecahedron")

    @pytest.mark.parametrize("window", [(0.0, 2800.0), (-5.0, 2800.0),
                                        (2800.0, 400.0), (400.0,)])
    def test_window_must_start_above_zero(self, window):
        # kappa = 0 is the fluid's curl kernel, which no window may touch
        with pytest.raises(ConfigError, match="window"):
            RunConfig(window=window)

    @pytest.mark.parametrize("key, value", [
        ("n_modes", 0), ("initial_level", 0), ("mode_index", 0),
        ("max_dofs", 0), ("max_iterations", 0), ("levels", (2, 0)),
        ("assembly_degree", 0), ("assembly_degree", 9),
        ("estimator_degree", 0), ("estimator_degree", 9),
        ("projection_degree", -1), ("projection_degree", 2)])
    def test_out_of_range_count_or_degree_rejected(self, key, value,
                                                   tmp_path):
        # each of these failed late (or wrote an empty result) when a
        # command ran with it; the degrees are fixed by the
        # discretization, so a file that sets one is rejected by name
        if key in RunConfig.__dataclass_fields__:
            with pytest.raises(ConfigError, match=key):
                RunConfig(**{key: value})
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = "
                        + ", ".join(map(str, np.atleast_1d(value))) + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_overrides(self):
        cfg = RunConfig().with_overrides(nu=0.5, family="mini",
                                         n_modes=None)
        assert cfg.nu == 0.5
        assert cfg.family == "mini"
        assert cfg.n_modes == RunConfig().n_modes
        assert not hasattr(cfg, "shift")

    def test_out_dir_env_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ELASTOACOUSTIC_OUTDIR", str(tmp_path))
        cfg = RunConfig(out_dir="sub")
        assert cfg.resolved_out_dir() == os.path.join(str(tmp_path),
                                                      "sub")

    def test_geometry_spec_dimensions(self):
        cfg = RunConfig(geometry="omega1", wall=0.2, fluid_width=1.5)
        spec = cfg.geometry_spec()
        assert spec.xs[0] == pytest.approx(-0.2)
        assert spec.xs[-1] == pytest.approx(1.7)

    @pytest.mark.parametrize("geometry, key, value", [
        ("omega1", "step", 0.3),
        ("omega2", "wall_height", 1.2),
        ("unit_square_fluid", "clamp", "outer"),
    ])
    def test_geometry_key_foreign_to_preset_rejected(self, geometry, key,
                                                     value):
        with pytest.raises(ConfigError, match=f"{geometry}.*{key}"):
            RunConfig(geometry=geometry, **{key: value})


class TestCli:
    def test_mesh_subcommand(self, tmp_path, capsys):
        rc = main(["mesh", "--geometry", "omega1", "--level", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "triangles=" in out
        assert (tmp_path / "mesh.txt").exists()
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "mesh"
        assert "numpy" in manifest

    def test_mesh_refine_and_reload(self, tmp_path, capsys):
        rc = main(["mesh", "--geometry", "omega1", "--level", "1",
                   "--refine", "1", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["mesh", "--input", str(tmp_path / "mesh.txt"),
                   "--out", str(tmp_path / "again")])
        assert rc == 0

    def test_solve_subcommand(self, tmp_path, capsys):
        rc = main(["solve", "--geometry", "omega1", "--level", "1",
                   "--modes", "2", "--family", "mini", "--vtk",
                   "--matrices", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mode 1" in out
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "mode_1.vtk").exists()
        assert (tmp_path / "system_A.mtx").exists()
        header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
        assert header == "mode_index,kappa,omega,residual,kernel_flag"

    def test_solve_manifest_reports_window_work(self, tmp_path, capsys):
        rc = main(["solve", "--geometry", "omega1", "--level", "1",
                   "--modes", "2", "--family", "mini", "--out",
                   str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        work = manifest["window"]
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        omegas = [float(row.split(",")[2]) for row in spectrum]
        # exactly the modes of the default window (400, 2800) rad/s, as
        # counted
        assert len(omegas) == work["count"]
        assert all(400.0 <= w <= 2800.0 for w in omegas)
        assert work["count"] >= 2
        assert work["rungs"] >= 1
        # each shift is factored once for its runs and its count, and
        # the window's upper end once for its count
        assert work["factorizations"] == len(set(work["shifts"])) + 1
        assert work["inverse_applications"] > 0
        assert work["lu_nnz"] > 0
        # the first run sits at the window's lower end, and each later
        # run climbs above the one before it
        assert len(work["shifts"]) == len(work["asked"]) == work["rungs"]
        # two modes guessed, and the count read after the first run asks
        # for the rest on the same factor
        assert work["asked"][0] == 2
        assert work["dense_fallback"] is False and work["partial"] is False
        assert work["shifts"][0] == pytest.approx(400.0 ** 2, rel=1e-15)
        assert work["shifts"] == sorted(work["shifts"])
        residuals = [float(row.split(",")[3]) for row in spectrum
                     if 400.0 <= float(row.split(",")[2]) <= 2800.0]
        assert 0.0 < work["max_residual"] <= 1e-7
        assert work["max_residual"] == pytest.approx(max(residuals),
                                                     rel=1e-2)

    def test_study_subcommand_deterministic(self, tmp_path, capsys):
        args = ["study", "--geometry", "omega1", "--family", "mini",
                "--levels", "1,2,3", "--modes", "1"]
        rc = main(args + ["--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--out", str(tmp_path / "b")])
        assert rc == 0
        csv_a = next((tmp_path / "a").glob("study_*.csv")).read_bytes()
        csv_b = next((tmp_path / "b").glob("study_*.csv")).read_bytes()
        assert csv_a == csv_b

    def test_adapt_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "adapt.cfg"
        cfg.write_text("geometry = omega2\nfamily = mini\n"
                       "initial_level = 1\nmax_dofs = 2500\n"
                       "max_iterations = 4\nmode_index = 1\n"
                       "window = 400, 2800\n")
        rc = main(["adapt", "--config", str(cfg), "--out",
                   str(tmp_path)])
        assert rc == 0
        hist = next(tmp_path.glob("adapt_*.csv")).read_text()
        assert hist.startswith("iteration,dofs,cells")
        assert len(hist.splitlines()) >= 3

    @pytest.mark.parametrize("command", ["study", "adapt"])
    def test_nu_flag_replaces_config_nu_list(self, command, tmp_path,
                                             monkeypatch, capsys):
        # flags override file keys, so --nu is the only Poisson ratio run
        seen = []

        def study(config):
            seen.append(config.nu)
            return ConvergenceTable((1,), (10,), ((1.0,),), (), ())

        def adapt(config):
            seen.append(config.nu)
            history = AdaptiveHistory(config.geometry, config.family,
                                      config.nu, config.mode_index)
            history.append(iteration=0, dofs=10, cells=4, omega=1.0,
                           eta2=1.0, theta2=0.0, err=None, eff=None,
                           wall_time=0.0)
            return history

        monkeypatch.setattr(cli, "run_uniform_study", study)
        monkeypatch.setattr(cli, "adaptive_solve", adapt)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu_list = 0.35, 0.49\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0 and seen == [0.35, 0.49]
        seen.clear()
        rc = main([command, "--config", str(cfg), "--nu", "0.4", "--out",
                   str(tmp_path)])
        assert rc == 0 and seen == [0.4]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["nu"] == 0.4
        assert manifest["parameters"]["nu_list"] == []

    def test_fit_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "study.csv"
        rows = ["N,dofs,omega_1"]
        for N in (8, 10, 12, 14):
            rows.append(f"{N},0,{443.0 + 30.0 * N ** -2.0:.10f}")
        csv.write_text("\n".join(rows) + "\n")
        rc = main(["fit", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "omega_extr = 443.0" in out
        assert "order t = 2.0" in out

    def test_fit_constant_column(self, tmp_path, capsys):
        # omega_extr equals every omega of a constant column, so its
        # errors are zero: the rate is printed as n/a, not raised
        csv = tmp_path / "study.csv"
        csv.write_text("N,dofs,omega_1,omega_2\n"
                       + "".join(f"{N},0,3.3,{443.0 + 30.0 * N ** -2.0}\n"
                                 for N in (8, 10, 12)))
        rc = main(["fit", str(csv)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("omega_1: omega_extr = 3.3000")
        assert lines[0].endswith("eigenvalue-error rate = n/a")
        assert "n/a" not in lines[1]
