"""End-to-end command line runs: configs, modes, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import write_excess_table, write_kernel_table, write_linear_nonlin_table, write_nonlin_table

from convint import (ExpMixtureKernel, ExpSqrtWeight, GaussianKernel, Numerics,
                     PowerNonlin, PowerPhi, RationalWeight, RootPowerMeanNonlin,
                     SaturatingExpNonlin, TabulatedExcessWeight, TabulatedKernel,
                     TabulatedNonlin, TwoPowerMeanNonlin, cli, problem, solver)
from convint.algebra import a_priori_iterations, contraction_params
from convint.discretization import build_grid
from convint.errors import ConfigError
from convint.problem import validate_problem

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def run_cli(tmp_path, doc, *flags) -> int:
    """Exit code of the command line on config doc, written to and run in
    tmp_path with the given extra flags."""
    path = write_config(tmp_path / "config.json", doc)
    return cli.main(["--config", path, "--out-dir", str(tmp_path), *flags])


def scalar_config(mode="solve", eps=0.1, alpha=0.5, p=0.5, **numerics):
    doc = {
        "mode": mode,
        "kernel": {"variant": "gaussian", "coeffs": [[1.0]]},
        "weights": [{"variant": "exp_sqrt", "eps": eps}],
        "nonlins": [{"variant": "power", "alpha": alpha}],
        "phi": {"variant": "power", "p": p},
    }
    if numerics:
        doc["numerics"] = numerics
    return doc


class TestLoadConfig:
    def test_missing_section(self, tmp_path):
        doc = scalar_config()
        del doc["kernel"]
        path = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="missing the 'kernel' section"):
            cli.load_config(path)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli.load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            cli.load_config(tmp_path / "absent.json")

    def test_odd_n_cells(self, tmp_path):
        path = write_config(tmp_path / "c.json", scalar_config(n_cells=3))
        with pytest.raises(ConfigError, match="n_cells must be even"):
            cli.load_config(path)

    def test_sweep_needs_eps_list(self, tmp_path):
        path = write_config(tmp_path / "c.json", scalar_config(mode="sweep"))
        with pytest.raises(ConfigError, match="sweep_eps"):
            cli.load_config(path)

    def test_component_count_mismatch(self, tmp_path):
        doc = scalar_config()
        doc["nonlins"] = doc["nonlins"] * 2
        path = write_config(tmp_path / "c.json", doc)
        with pytest.raises(ConfigError, match="same length"):
            cli.load_config(path)

    def test_validate_only_alias(self, tmp_path):
        path = write_config(tmp_path / "c.json", scalar_config(mode="validate-only"))
        assert cli.load_config(path).mode == "validate"

    def test_null_defaults_and_integral_floats(self, tmp_path):
        doc = scalar_config(n_cells=None)
        assert cli.load_config(write_config(tmp_path / "c.json", doc)).numerics.n_cells is None
        doc = scalar_config(n_cells=512.0)
        num = cli.load_config(write_config(tmp_path / "c.json", doc)).numerics
        assert num.n_cells == 512 and isinstance(num.n_cells, int)


@pytest.fixture(scope="module")
def solve_outcome(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    return run_cli(tmp, scalar_config(n_cells=2048), "--quiet"), tmp


@pytest.fixture(scope="module")
def sweep_outcome(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    doc = scalar_config(mode="sweep", n_cells=2048)
    doc["sweep_eps"] = [0.2, 0.05, 0.1]
    return run_cli(tmp, doc, "--quiet"), tmp


class TestSolveMode:
    def test_exit_code(self, solve_outcome):
        assert solve_outcome[0] == 0

    def test_report_schema(self, solve_outcome):
        doc = json.loads((solve_outcome[1] / "report.json").read_text())
        assert doc["schema_version"] == 4
        assert doc["mode"] == "solve"
        assert doc["validation"]["passed"] is True
        assert len(doc["validation"]["checks"]) == 8
        assert doc["kernel_scale"] == pytest.approx(1.0, rel=1e-12)
        spectral = doc["spectral"]
        assert spectral["eta"] == [pytest.approx(1.0, rel=1e-12)]
        assert spectral["xi"] == [pytest.approx(1.44, abs=1e-10)]
        assert spectral["b"] == [[pytest.approx(0.2, abs=1e-10)]]
        assert spectral["excess_w"] == [pytest.approx(0.2 * np.sqrt(np.pi), rel=1e-12)]
        assert spectral["k"] == pytest.approx(0.6292253857193053, rel=1e-9)
        trunc = doc["truncation"]
        assert trunc["r"] == 32.0 and trunc["n_cells"] == 2048
        assert trunc["h"] == pytest.approx(64.0 / 2048, rel=1e-15)
        q = doc["quadrature_error"]
        assert set(q) == {"regular", "singular", "dropped_tail", "total", "mono_slack"}
        assert q["mono_slack"] == pytest.approx(10.0 * q["total"], rel=1e-12)

    def test_solve_block(self, solve_outcome):
        doc = json.loads((solve_outcome[1] / "report.json").read_text())
        s = doc["solve"]
        assert s["termination"] == "step_below_tol"
        assert s["residual_sup"] <= 1e-8 + doc["quadrature_error"]["mono_slack"]
        assert len(s["trace"]["d"]) == s["iterations"]
        assert s["probe_deviation"] is not None
        assert s["probe_deviation"] <= 2e-8 + doc["quadrature_error"]["mono_slack"]
        # tail decay assertions belong to the fine reference grid; here just
        # check the diagnostics block is present and sane
        asym = s["asymptotics"]
        assert set(asym) == {"edge_deviation", "tail_integral", "half_tail_ratio"}
        assert asym["tail_integral"][0] >= 0.0

    def test_profile_shape(self, solve_outcome):
        lines = (solve_outcome[1] / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,f_1,eta_gap_1"
        assert len(lines) == 1 + 2049
        x, f1, gap = map(float, lines[1025].split(","))
        assert x == 0.0
        assert f1 == pytest.approx(1.2807635, abs=1e-4)
        assert gap == pytest.approx(f1 - 1.0, rel=1e-12)

    def test_profile_cells_match_per_value_format(self, solve_outcome):
        # reference writer: format(value, ".17g") cell by cell, gap = f - eta
        out = solve_outcome[1]
        eta = json.loads((out / "report.json").read_text())["spectral"]["eta"][0]
        for line in (out / "profile.csv").read_text().splitlines()[1:]:
            x, f1, gap = line.split(",")
            assert [x, f1] == [format(float(x), ".17g"), format(float(f1), ".17g")]
            assert gap == format(float(f1) - eta, ".17g")

    def test_report_bytes_reproducible(self, tmp_path):
        path = write_config(tmp_path / "run.json", scalar_config(n_cells=512))
        for sub in ("a", "b"):
            assert cli.main(["--config", path, "--out-dir",
                             str(tmp_path / sub), "--quiet"]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestProfileWriter:
    @staticmethod
    def report(grid, n, eta, dip):
        x = grid.half_nodes
        values = np.vstack([1.0 + 0.1 * (i + 1) * np.exp(-(i + 1) * (x / grid.r) ** 2)
                            for i in range(n)])
        if dip:
            # the field crosses eta: negative gaps, and one gap of exactly 0
            values = eta[:, None] + 0.02 * np.cos(7.0 * x / grid.r) * values
            values[0, 1] = eta[0]
        return SimpleNamespace(grid=grid, field=values)

    # (n, r, n_cells, dip): more than one block, the last one partial; two
    # components; nodes so close to 0 that '%.17g' prints them in exponent
    # form; six components over several blocks, the last one partial; a
    # field that dips below eta; a non-dyadic h = 1/150
    @pytest.mark.parametrize("n, r, n_cells, dip", [
        pytest.param(1, 8.0, 4098, False, id="1-8.0-4098"),
        pytest.param(2, 8.0, 64, False, id="2-8.0-64"),
        pytest.param(2, 2e-5, 8, False, id="2-2e-05-8"),
        pytest.param(6, 8.0, 8000, False, id="6-8.0-8000"),
        pytest.param(3, 8.0, 512, True, id="3-8.0-512-dip"),
        pytest.param(1, 10.0, 3000, False, id="1-10.0-3000")])
    def test_bytes_match_savetxt_of_the_full_table(self, tmp_path, n, r, n_cells, dip):
        eta = np.linspace(0.99, 1.0, n)
        rep = self.report(build_grid(r, n_cells), n, eta, dip)
        cli.emit_profile(rep, eta, tmp_path / "profile.csv")
        f = rep.field
        header = ",".join(["x"] + [f"f_{i + 1}" for i in range(n)]
                          + [f"eta_gap_{i + 1}" for i in range(n)])
        full = np.concatenate([f[:, :0:-1], f], axis=1)
        table = np.column_stack([rep.grid.nodes, full.T, (full - eta[:, None]).T])
        if dip:
            assert np.any(table[:, n + 1:] < 0) and np.any(table[:, n + 1:] == 0)
        np.savetxt(tmp_path / "reference.csv", table, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        assert (tmp_path / "profile.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()


@pytest.fixture(scope="module", params=["coupled_pair", "tabulated", "radiative"])
def demo_solve(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    code = cli.main(["--config", str(DEMO_CONFIGS / f"{request.param}.json"),
                     "--out-dir", str(out), "--quiet"])
    return code, out


class TestDemoConfigs:
    def test_profile_bitwise_even(self, demo_solve):
        code, out = demo_solve
        assert code == 0
        data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], -data[::-1, 0])
        assert np.array_equal(data[:, 1:], data[::-1, 1:])

    def test_enclosure_width_recorded(self, demo_solve):
        # one width per iteration; the last is the reported probe_deviation
        # and closed below the step tolerance
        code, out = demo_solve
        doc = json.loads((out / "report.json").read_text())
        solve = doc["solve"]
        width = solve["trace"]["width"]
        assert len(width) == solve["iterations"]
        assert solve["termination"] == "step_below_tol"
        assert width[-1] <= doc["config"]["numerics"].get("tol_stop", Numerics.tol_stop)
        assert width[-1] == solve["probe_deviation"]


# every bundled config that solves: the solve and sweep modes
SOLVING_CONFIGS = sorted(path.stem for path in DEMO_CONFIGS.glob("*.json")
                         if json.loads(path.read_text())["mode"] in ("solve", "sweep"))


@pytest.mark.parametrize("name", SOLVING_CONFIGS)
def test_derived_solve_keys_match_the_trace_and_profile(tmp_path, name):
    # the report derives termination, iterations, probe_deviation,
    # alpha_plus and a_priori_n from what the solve measured; each entry's
    # keys agree with its trace, its profile's x = R row and its (sigma, k)
    assert cli.main(["--config", str(DEMO_CONFIGS / f"{name}.json"),
                     "--out-dir", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    tol_stop = doc["config"].get("numerics", {}).get("tol_stop", Numerics.tol_stop)
    entries = doc.get("entries", [doc])
    assert entries
    for entry in entries:
        solve = entry["solve"]
        trace = solve["trace"]
        assert solve["termination"] == "step_below_tol"
        assert solve["iterations"] == len(trace["d"])
        assert solve["probe_deviation"] == trace["width"][-1]
        spectral = entry["spectral"]
        assert solve["a_priori_n"] == a_priori_iterations(spectral["sigma"], spectral["k"],
                                                          tol_stop)
        last = (tmp_path / entry.get("profile", "profile.csv")).read_text().splitlines()[-1]
        cells = [float(cell) for cell in last.split(",")]
        n = len(solve["alpha_plus"])
        assert cells[0] == doc["truncation"]["r"]
        assert cells[1:1 + n] == solve["alpha_plus"]


class TestValidateMode:
    def test_healthy_instance_passes(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config(mode="validate")) == 0
        out = capsys.readouterr().out
        assert "all eight conditions pass" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["validation"]["passed"] is True
        assert "solve" not in doc

    def test_unit_weight_fails_condition_a(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config(mode="validate", eps=0.0)) == 2
        out = capsys.readouterr().out
        assert "validation failed: condition(s) a" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        failed = [c["condition"] for c in doc["validation"]["checks"]
                  if not c["passed"]]
        assert failed == ["a"]

    def test_linear_nonlinearity_fails_condition_iii(self, tmp_path, capsys):
        table = write_linear_nonlin_table(tmp_path / "linear_g.csv")
        doc = scalar_config(mode="validate", p=1.0)
        doc["nonlins"] = [{"variant": "tabulated", "path": table.name}]
        assert run_cli(tmp_path, doc) == 2
        out = capsys.readouterr().out
        assert "condition(s) III" in out

    def test_linear_map_config_names_the_majorant_failure(self, tmp_path):
        assert cli.main(["--config", str(DEMO_CONFIGS / "linear_map.json"),
                         "--out-dir", str(tmp_path), "--quiet"]) == 2
        doc = json.loads((tmp_path / "report.json").read_text())
        check = {c["condition"]: c for c in doc["validation"]["checks"]}["IV"]
        assert check["note"] == ("majorant solve failed (u beyond tabulated "
                                 "range [0, 3.0]); using 4 eta")

    def test_mismatched_scaling_fails_condition_iv(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config(mode="validate", alpha=0.9, p=0.01)) == 2
        out = capsys.readouterr().out
        assert "condition(s) IV" in out

    def test_solve_mode_refuses_invalid_instance(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config(eps=0.0, n_cells=512)) == 2
        err = capsys.readouterr().err
        assert "validation failed" in err and "condition(s) a" in err
        # the report still records which condition broke
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["validation"]["passed"] is False


class TestSweepMode:
    def test_exit_code_and_entries(self, sweep_outcome):
        code, out = sweep_outcome
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert [e["eps"] for e in doc["entries"]] == [0.05, 0.1, 0.2]
        for idx, entry in enumerate(doc["entries"]):
            assert entry["profile"] == f"profile_{idx:03d}.csv"
            assert (out / entry["profile"]).exists()
            assert entry["solve"]["termination"] == "step_below_tol"
            assert entry["validation"]["passed"] is True

    def test_grid_sized_for_largest_excess(self, sweep_outcome):
        doc = json.loads((sweep_outcome[1] / "report.json").read_text())
        # eps = 0.2 pushes the excess tail past the truncation tolerance at
        # R = 32, so the shared grid must take the next doubling
        assert doc["truncation"]["r"] == 64.0
        b_values = [e["spectral"]["b"][0][0] for e in doc["entries"]]
        assert b_values == sorted(b_values)

    def test_entry_matches_a_solve_of_the_same_eps(self, tmp_path, sweep_outcome):
        # a sweep entry and a plain solve run the same stage chain; at the
        # largest eps they also pick the same grid
        assert run_cli(tmp_path, scalar_config(eps=0.2, n_cells=2048), "--quiet") == 0
        sweep_dir = sweep_outcome[1]
        assert (tmp_path / "profile.csv").read_bytes() == \
            (sweep_dir / "profile_002.csv").read_bytes()
        solo = json.loads((tmp_path / "report.json").read_text())
        swept = json.loads((sweep_dir / "report.json").read_text())
        entry = swept["entries"][2]
        assert entry["eps"] == 0.2
        for block in ("spectral", "quadrature_error", "solve", "validation"):
            assert solo[block] == entry[block], block
        assert solo["truncation"] == swept["truncation"]

    def test_equal_eps_values_write_a_profile_each(self, tmp_path):
        doc = dict(scalar_config(mode="sweep", n_cells=512), sweep_eps=[0.1, 0.05, 0.1])
        assert run_cli(tmp_path, doc, "--quiet") == 0
        entries = json.loads((tmp_path / "report.json").read_text())["entries"]
        assert [(e["eps"], e["profile"]) for e in entries] == [
            (0.05, "profile_000.csv"), (0.1, "profile_001.csv"), (0.1, "profile_002.csv")]
        assert (tmp_path / "profile_001.csv").read_bytes() == \
            (tmp_path / "profile_002.csv").read_bytes()

    def test_sweep_rejects_nonparametric_weight(self, tmp_path, capsys):
        table = write_excess_table(tmp_path / "excess.csv")
        doc = scalar_config(mode="sweep", n_cells=512)
        doc["weights"] = [{"variant": "tabulated_excess", "path": table.name}]
        doc["sweep_eps"] = [0.1, 0.2]
        assert run_cli(tmp_path, doc) == 1
        assert "no eps parameter" in capsys.readouterr().err

    def test_configured_eps_is_validated_once(self, tmp_path, monkeypatch):
        # the entry whose eps the configured weights already have reuses the
        # configured validation; a configured eps outside sweep_eps costs one
        # validation more. The entries come out the same either way
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].weights[0].eps)
            return validate_problem(*args, **kwargs)

        # the configured instance is validated by the command line, each
        # other entry by run_sweep
        monkeypatch.setattr(cli, "validate_problem", counting)
        monkeypatch.setattr(solver, "validate_problem", counting)

        def sweep(configured):
            calls.clear()
            doc = scalar_config(mode="sweep", eps=configured, n_cells=512)
            doc["sweep_eps"] = [0.05, 0.1]
            out = tmp_path / str(configured)
            out.mkdir()
            assert run_cli(out, doc, "--quiet") == 0
            return list(calls), json.loads((out / "report.json").read_text())

        inside, doc_inside = sweep(0.1)
        outside, doc_outside = sweep(0.08)
        assert inside == [0.1, 0.05]
        assert outside == [0.08, 0.1, 0.05]
        assert doc_inside["entries"] == doc_outside["entries"]
        assert doc_inside["entries"][1]["validation"] == doc_inside["validation"]

    def test_contraction_derived_once_per_run(self, tmp_path, monkeypatch):
        # (sigma, k) is derived once per run_instance, from its report,
        # however many stages and report lines read it
        calls = []

        def counting(*args):
            calls.append(1)
            return contraction_params(*args)

        monkeypatch.setattr(problem, "contraction_params", counting)
        assert run_cli(tmp_path, scalar_config(n_cells=512), "--quiet") == 0
        assert len(calls) == 1
        calls.clear()
        doc = scalar_config(mode="sweep", n_cells=512)
        doc["sweep_eps"] = np.linspace(0.02, 0.2, 16).tolist()
        assert run_cli(tmp_path, doc, "--quiet") == 0
        assert len(calls) == 16


class TestProgressLines:
    # eps = 0.1 keeps R = 32, where the Gaussian reaches too far for the
    # compact layout to be shorter (folded); eps = 0.2 takes R = 64, where
    # it reaches 436 cells and the compact layout runs
    @pytest.mark.parametrize("eps, line", [
        (0.1, "operator: folded layout, transform length 2048 "
              "(kernel reaches 873 of 1024 half-grid cells)"),
        (0.2, "operator: compact layout, transform length 1920 "
              "(kernel reaches 436 of 1024 half-grid cells)"),
    ], ids=["0.1-folded", "0.2-compact"])
    def test_solve_names_the_transform(self, tmp_path, capsys, eps, line):
        path = write_config(tmp_path / "run.json", scalar_config(eps=eps, n_cells=2048))
        assert cli.main(["--config", path, "--out-dir", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[lines.index(line) - 1].startswith("truncation R = ")
        assert cli.main(["--config", path, "--out-dir", str(tmp_path / "quiet"),
                         "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "out" / "report.json").read_bytes() == \
            (tmp_path / "quiet" / "report.json").read_bytes()

    def test_sweep_names_the_transform(self, tmp_path, capsys):
        doc = scalar_config(mode="sweep", n_cells=2048)
        doc["sweep_eps"] = [0.05, 0.2]
        assert run_cli(tmp_path, doc) == 0
        lines = capsys.readouterr().out.splitlines()
        grid = lines.index("sweep grid: R = 64, n_cells = 2048 (sized for eps = 0.2)")
        assert lines[grid + 1] == \
            "operator: compact layout, transform length 1920 " \
            "(kernel reaches 436 of 1024 half-grid cells)"
        assert sum(line.startswith("operator: ") for line in lines) == 1

    def test_sweep_runs_largest_eps_first_and_quiet_keeps_the_report(self, tmp_path, capsys):
        doc = dict(scalar_config(mode="sweep", n_cells=512), sweep_eps=[0.1, 0.02, 0.05])
        assert run_cli(tmp_path, doc) == 0
        assert [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("-- sweep entry")] == [
            "-- sweep entry 2: eps = 0.1", "-- sweep entry 0: eps = 0.02",
            "-- sweep entry 1: eps = 0.05"]
        (tmp_path / "quiet").mkdir()
        assert run_cli(tmp_path / "quiet", doc, "--quiet") == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "report.json").read_bytes() == \
            (tmp_path / "quiet" / "report.json").read_bytes()


class TestFailureExitCodes:
    def test_unattainable_majorant_exits_4(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config(eps=10.0, alpha=0.99, p=0.99, n_cells=512)) == 4
        err = capsys.readouterr().err
        assert "majorant stage failed" in err
        assert "no supersolution found by doubling" in err

    def test_iteration_cap_exits_5(self, tmp_path, capsys):
        # no step reaches 1e-300, so the cap ends the run
        assert run_cli(tmp_path, scalar_config(n_cells=512, tol_stop=1e-300)) == 5
        err = capsys.readouterr().err
        assert "solve stage failed" in err and "iteration cap 400 reached" in err

    def test_unit_contraction_factor_exits_4_before_grid_sizing(self, tmp_path, capsys):
        # p = 1 passes condition IV for any concave map but gives k = 1;
        # that is refused before the grid is sized, which needs n_cells
        assert run_cli(tmp_path, scalar_config(p=1.0)) == 4
        err = capsys.readouterr().err
        assert "majorant stage failed: contraction factor k = 1 outside (0, 1)" in err

    def test_uncreatable_out_dir_exits_1(self, tmp_path):
        # an existing file, and a path below one, cannot be made a directory;
        # the run stops before any stage prints
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path / "run.json", scalar_config(n_cells=512))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for out in (taken, taken / "sub"):
            proc = subprocess.run(
                [sys.executable, "-m", "convint.cli", "--config", path, "--out-dir", str(out)],
                capture_output=True, text=True, cwd=tmp_path, env=env)
            assert proc.returncode == 1
            assert proc.stderr.startswith(f"config error: cannot create output directory {out}: ")
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    def test_overflowing_mixture_density_exits_1_without_warnings(self, tmp_path):
        # s^200 e^-s overflows on the mixture's own s rule; under -W error a
        # numpy warning would end the run with a traceback instead
        doc = scalar_config(n_cells=512)
        doc["kernel"] = {"variant": "exp_mixture", "coeffs": [[1.0]], "s_lo": 1.0,
                         "s_hi": "inf", "power": 200.0, "decay": 1.0}
        path = write_config(tmp_path / "run.json", doc)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "convint.cli", "--config", path,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 1
        assert proc.stderr == ("config error: kernel: mixture density s^power e^(-decay s) "
                               "is not finite on the s rule [1, 2048] (power 200, decay 1)\n")
        assert proc.stdout == ""
        assert not (tmp_path / "out" / "report.json").exists()

    def test_config_error_exits_1(self, tmp_path, capsys):
        assert run_cli(tmp_path, {"mode": "solve"}) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_variant_exits_1(self, tmp_path, capsys):
        doc = scalar_config(n_cells=512)
        doc["kernel"] = {"variant": "fourier"}
        assert run_cli(tmp_path, doc) == 1
        assert "unknown kernel variant" in capsys.readouterr().err

    # the last six were keys of earlier versions; their values are constants
    @pytest.mark.parametrize("key", ["tol_stp", "conv_method", "tol_eig", "tol_alg",
                                     "h_target", "max_iters", "mono_slack", "samples"])
    def test_unknown_numerics_key_exits_1(self, tmp_path, capsys, key):
        doc = scalar_config(n_cells=512, **{key: 1e-12})
        assert run_cli(tmp_path, doc) == 1
        err = capsys.readouterr().err
        assert f"unknown numerics key(s) '{key}'; " \
               "accepted keys: n_cells, tol_stop, tol_trunc, tol_validate" in err
        assert not (tmp_path / "report.json").exists()

    # a misspelt root key is refused before any stage runs, not dropped
    @pytest.mark.parametrize("key, value", [("mdoe", "validate"), ("numeric", {"n_cells": 512}),
                                            ("sweep_esp", [0.1, 0.2])])
    def test_unknown_root_key_exits_1(self, tmp_path, capsys, key, value):
        doc = {**scalar_config(n_cells=512), key: value}
        assert run_cli(tmp_path, doc) == 1
        out, err = capsys.readouterr()
        assert err == (f"config error: unknown key(s) '{key}'; accepted keys: mode, kernel, "
                       "weights, nonlins, phi, numerics, sweep_eps\n")
        assert out == ""
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, edit", [
        ("tol_stop", lambda d: d["numerics"].update(tol_stop="abc")),
        ("n_cells", lambda d: d["numerics"].update(n_cells="2048x")),
        ("n_cells", lambda d: d["numerics"].update(n_cells=2048.9)),
        ("max_iters", lambda d: d["numerics"].update(max_iters=None)),
        ("run_probe", lambda d: d["numerics"].update(run_probe="false")),
        ("sweep_eps", lambda d: d.update(mode="sweep", sweep_eps=["x"])),
        ("sweep_eps", lambda d: d.update(mode="sweep", sweep_eps=[-0.1, 0.1])),
        ("sweep_eps", lambda d: d.update(mode="sweep", sweep_eps=[float("nan"), 0.1])),
        ("sweep_eps", lambda d: d.update(mode="sweep", sweep_eps=[float("inf")])),
        ("eta", lambda d: d["nonlins"][0].update(eta="x")),
        ("weight 1", lambda d: d["weights"][0].update(eps=None)),
        ("nonlin 1", lambda d: d["nonlins"][0].update(alpha=None)),
        ("phi", lambda d: d["phi"].update(p=[1])),
        # the first half-moment of this coefficient underflows to zero
        ("kernel scalars", lambda d: d["kernel"].update(coeffs=[[5e-324]])),
        # a kernel whose size differs from the component count, both ways
        ("kernel is 2 x 2 but weights and nonlins have length 1",
         lambda d: d["kernel"].update(coeffs=[[0.5, 0.3], [0.3, 0.7]])),
        ("kernel is 1 x 1 but weights and nonlins have length 2",
         lambda d: d.update(weights=d["weights"] * 2, nonlins=d["nonlins"] * 2)),
        # labels was an optional root key of earlier versions, now refused
        ("unknown key(s) 'labels'; accepted keys: mode, kernel, weights, nonlins, phi, "
         "numerics, sweep_eps", lambda d: d.update(labels=["a", "b"])),
        # model parameters follow the numerics rules: JSON numbers, known keys
        ("weight 1: eps must be a number", lambda d: d["weights"][0].update(eps=True)),
        ("weight 1: eps must be a number", lambda d: d["weights"][0].update(eps="0.1")),
        ("phi: p must be a number", lambda d: d["phi"].update(p="0.5")),
        ("kernel: coeffs must be a number", lambda d: d["kernel"].update(coeffs=[[True]])),
        ("kernel: unknown key(s) 's_low'; accepted keys: variant, coeffs, s_lo",
         lambda d: d.update(kernel={"variant": "exp_mixture", "coeffs": [[1.0]],
                                    "s_low": 0.5})),
        ("nonlin 1: path must be a string",
         lambda d: d["nonlins"].__setitem__(0, {"variant": "tabulated", "path": 3})),
        # a mixture power or decay that is not finite, named
        ("kernel: mixture power must be finite",
         lambda d: d.update(kernel={"variant": "exp_mixture", "coeffs": [[1.0]],
                                    "power": float("inf")})),
        ("kernel: mixture power must be finite",
         lambda d: d.update(kernel={"variant": "exp_mixture", "coeffs": [[1.0]],
                                    "power": float("nan")})),
        ("kernel: mixture decay must be finite",
         lambda d: d.update(kernel={"variant": "exp_mixture", "coeffs": [[1.0]],
                                    "s_hi": "inf", "decay": float("inf")})),
        # a coefficient that is not finite, named before any symmetry test
        # (numpy warns of an infinite tolerance, and a NaN is never symmetric)
        ("kernel: coefficient entries must be finite and positive",
         lambda d: d["kernel"].update(coeffs=[[float("inf")]])),
        ("kernel: coefficient entries must be finite and positive",
         lambda d: d.update(kernel={"variant": "exp_mixture", "coeffs": [[float("inf")]]})),
        ("kernel: coefficient entries must be finite and positive",
         lambda d: d["kernel"].update(coeffs=[[float("nan")]])),
        # an infinite value fails its own rule, or, for a key of earlier
        # versions, is refused with the key
        *[(f"numerics.{key} must be finite" if key in ("tol_stop", "tol_trunc")
           else f"unknown numerics key(s) '{key}'",
           lambda d, key=key, v=v: d["numerics"].update({key: v}))
          for key in ("tol_stop", "tol_trunc", "tol_alg", "h_target", "mono_slack")
          for v in (float("inf"), float("-inf"))],
    ], ids=["tol_stop-str", "n_cells-str", "n_cells-frac", "max_iters-null",
            "run_probe-str", "sweep_eps-str", "sweep_eps-negative",
            "sweep_eps-nan", "sweep_eps-inf", "eta-str", "weight-eps-null",
            "nonlin-alpha-null", "phi-p-list", "kernel-scalars-zero",
            "kernel-2x2-one-weight", "kernel-1x1-two-weights", "labels-count",
            "eps-bool", "eps-str", "p-str", "coeffs-bool", "s_low-key", "path-number",
            "power-inf", "power-nan", "decay-inf", "coeffs-inf", "mixture-coeffs-inf",
            "coeffs-nan",
            *[f"{key}-{v}" for key in ("tol_stop", "tol_trunc", "tol_alg", "h_target",
                                       "mono_slack") for v in ("inf", "-inf")]])
    def test_malformed_value_exits_1(self, tmp_path, capsys, key, edit):
        doc = scalar_config(n_cells=512)
        edit(doc)
        assert run_cli(tmp_path, doc) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


# a minimal section of every variant a model section takes (the tables are
# written by the test), and the model class it builds
MINIMAL_SECTIONS = {
    ("kernel", "gaussian"): ({"coeffs": [[1.0]]}, GaussianKernel),
    ("kernel", "exp_mixture"): ({"coeffs": [[1.0]]}, ExpMixtureKernel),
    ("kernel", "tabulated"): ({"path": "kernel.csv"}, TabulatedKernel),
    ("weight", "exp_sqrt"): ({"eps": 0.1}, ExpSqrtWeight),
    ("weight", "rational"): ({"eps": 0.08, "alpha": 0.4}, RationalWeight),
    ("weight", "tabulated_excess"): ({"path": "excess.csv"}, TabulatedExcessWeight),
    ("nonlin", "power"): ({"alpha": 0.5}, PowerNonlin),
    ("nonlin", "root_power_mean"): ({"alpha": 0.3}, RootPowerMeanNonlin),
    ("nonlin", "two_power_mean"): ({"alpha": 0.4, "beta": 0.7}, TwoPowerMeanNonlin),
    ("nonlin", "saturating_exp"): ({"alpha": 0.6}, SaturatingExpNonlin),
    ("nonlin", "tabulated"): ({"path": "nonlin.csv"}, TabulatedNonlin),
    ("phi", "power"): ({"p": 0.5}, PowerPhi),
}


class TestVariantTable:
    def test_every_variant_has_a_minimal_section(self):
        assert set(MINIMAL_SECTIONS) == {(section, variant)
                                         for section, variants in cli._VARIANTS.items()
                                         for variant in variants}

    @pytest.mark.parametrize("section, variant", list(MINIMAL_SECTIONS),
                             ids=[f"{s}-{v}" for s, v in MINIMAL_SECTIONS])
    def test_minimal_section_builds(self, tmp_path, section, variant):
        write_kernel_table(tmp_path / "kernel.csv")
        write_excess_table(tmp_path / "excess.csv")
        write_nonlin_table(tmp_path / "nonlin.csv", eta=1.0)
        given, cls = MINIMAL_SECTIONS[section, variant]
        defaults = {"eta": 0.8} if section == "nonlin" else {}
        model = cli._build(section, {"variant": variant, **given}, section, tmp_path,
                           **defaults)
        assert type(model) is cls
        if section == "nonlin":
            # a closed form takes the run's eta, a table its file's
            assert model.eta == (1.0 if variant == "tabulated" else 0.8)
            declared = cli._build(section, {"variant": variant, **given, "eta": 0.9},
                                  section, tmp_path, **defaults)
            assert declared.eta == 0.9

    def test_exp_mixture_defaults_and_unbounded_support(self, tmp_path):
        # the defaults are the constructor's own
        kernel = cli._build("kernel", {"variant": "exp_mixture", "coeffs": [[1.0]]},
                            "kernel", tmp_path)
        assert (kernel.s_lo, kernel.s_hi, kernel.power, kernel.decay) == (1.0, 2.0, 0.0, 0.0)
        for s_hi in ("inf", "infinity"):
            section = {"variant": "exp_mixture", "coeffs": [[1.0]], "s_hi": s_hi, "decay": 2}
            assert cli._build("kernel", section, "kernel", tmp_path).s_hi == np.inf
        with pytest.raises(ConfigError, match="^kernel: s_hi must be a number"):
            cli._build("kernel", {"variant": "exp_mixture", "coeffs": [[1.0]], "s_hi": "big"},
                       "kernel", tmp_path)

    def test_null_eta_is_left_out_and_other_nulls_are_refused(self, tmp_path):
        nonlin = cli._build("nonlin", {"variant": "power", "alpha": 0.5, "eta": None},
                            "nonlin 1", tmp_path, eta=0.8)
        assert nonlin.eta == 0.8
        with pytest.raises(ConfigError, match="^kernel: s_lo must be a number"):
            cli._build("kernel", {"variant": "exp_mixture", "coeffs": [[1.0]], "s_lo": None},
                       "kernel", tmp_path)

    def test_missing_parameter_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="^weight 2: missing key 'alpha'$"):
            cli._build("weight", {"variant": "rational", "eps": 0.1}, "weight 2", tmp_path)
        with pytest.raises(ConfigError, match="^kernel: missing key 'path'$"):
            cli._build("kernel", {"variant": "tabulated"}, "kernel", tmp_path)


class TestGridSizing:
    def test_solve_needs_n_cells(self, tmp_path, capsys):
        assert run_cli(tmp_path, scalar_config()) == 1
        err = capsys.readouterr().err
        assert "config error: set numerics.n_cells\n" in err
        assert not (tmp_path / "report.json").exists()


class TestModeOverride:
    def test_validate_config_can_be_solved(self, tmp_path):
        doc = scalar_config(mode="validate", n_cells=512)
        assert run_cli(tmp_path, doc, "--mode", "solve", "--quiet") == 0
        assert (tmp_path / "profile.csv").exists()

    def test_sweep_override_needs_eps(self, tmp_path, capsys):
        # a solve config's sweep_eps is parsed too, so --mode sweep can use it
        for extra in ({}, {"sweep_eps": ["x", 0.1]}, {"sweep_eps": 0.1}):
            doc = {**scalar_config(n_cells=512), **extra}
            assert run_cli(tmp_path, doc, "--mode", "sweep") == 1, extra
            err = capsys.readouterr().err
            assert "config error:" in err and "sweep_eps" in err, extra
            assert "Traceback" not in err
            assert not (tmp_path / "report.json").exists()

    def test_override_follows_the_mode_rules(self, tmp_path):
        path = write_config(tmp_path / "c.json", scalar_config(n_cells=512))
        assert cli.load_config(path).mode == "solve"
        assert cli.load_config(path, "validate").mode == "validate"
        with pytest.raises(ConfigError, match="^sweep mode needs a nonempty sweep_eps list$"):
            cli.load_config(path, "sweep")
        # the config's own mode is checked even where the override replaces it
        bad = write_config(tmp_path / "bad.json", scalar_config(mode="slove"))
        with pytest.raises(ConfigError, match="got 'slove'"):
            cli.load_config(bad, "validate")


class TestTabulatedPipeline:
    # a malformed table is refused with the file's name, and with the line
    # when one row is at fault
    @pytest.mark.parametrize("section, variant, where, text, reason", [
        ("kernel", "tabulated", "kernel", "tau,k_1_1\n", "no data rows"),
        ("kernel", "tabulated", "kernel", "tau\n0\n1\n", "no k_i_j column"),
        ("weights", "tabulated_excess", "weight 1", "# gamma=0.5\nt,mu_minus_1\n",
         "no data rows"),
        ("nonlins", "tabulated", "nonlin 1", "# eta=1.0\nu,g\n", "no data rows"),
        ("nonlins", "tabulated", "nonlin 1", "# eta=1.0\nu,g\n0,0\n1\n2,1.4\n",
         "line 4: expected 2 numbers, got [1.0]"),
        ("weights", "tabulated_excess", "weight 1",
         "# gamma=0.5\nt,mu_minus_1\n0.1,1.0\n0.2\n1.0,0.1\n",
         "line 4: expected 2 numbers, got [0.2]"),
        ("kernel", "tabulated", "kernel", "tau,k_1_1\n0,1\n1\n2,0.5\n",
         "line 3: expected 2 numbers, got [1.0]"),
        ("kernel", "tabulated", "kernel", "tau,k_1_1\n0,1\n1,\n2,0.5\n",
         "line 3: expected 2 numbers, got [1.0, '']"),
        ("kernel", "tabulated", "kernel", "x,k_1_1\n0,1\n1,0.5\n",
         "first column must be 'tau'"),
        ("kernel", "tabulated", "kernel", "tau,k_a_1\n0,1\n1,0.5\n",
         "bad kernel column name 'k_a_1'; expected k_i_j"),
        ("kernel", "tabulated", "kernel", "tau,k_2_1\n0,1\n1,0.5\n",
         "kernel column 'k_2_1' must have i <= j"),
        ("kernel", "tabulated", "kernel", "tau,k_1_1,k_2_2\n0,1,1\n1,0.5,0.5\n",
         "kernel table must list every pair i <= j exactly once"),
        ("nonlins", "tabulated", "nonlin 1", "# eta=1.0\nu,g\n0,0\n1,x\n",
         "line 4: could not convert string to float: 'x'"),
        ("weights", "tabulated_excess", "weight 1",
         "# gamma=abc\nt,mu_minus_1\n0.1,1.0\n1.0,0.1\n",
         "line 1: could not convert string to float: 'abc'"),
        ("nonlins", "tabulated", "nonlin 1", "# eta=1.0\nu,g\n0,0\n2,1.4\n1,1\n",
         "u samples must be finite and strictly increasing, at least three"),
    ] + [
        # a NaN or infinite last sample coordinate is refused by the model's
        # constructor, not left to interpolation or validation
        (section, variant, where, text.format(bad), reason)
        for bad in ("nan", "inf")
        for section, variant, where, text, reason in [
            ("kernel", "tabulated", "kernel", "tau,k_1_1\n0,1\n1,0.5\n{},0.25\n",
             "tau samples must be finite, start at 0 and increase strictly"),
            ("weights", "tabulated_excess", "weight 1",
             "# gamma=0.5\nt,mu_minus_1\n0.1,1.0\n1.0,0.5\n{},0.1\n",
             "t samples must be finite and strictly increasing, at least two"),
            ("nonlins", "tabulated", "nonlin 1", "# eta=1.0\nu,g\n0,0\n1,1\n{},1.4\n",
             "u samples must be finite and strictly increasing, at least three")]
    ], ids=["kernel-header-only", "kernel-tau-only", "excess-header-only",
            "map-header-only", "map-short-row", "excess-short-row", "kernel-short-row",
            "kernel-empty-cell",
            "kernel-first-column", "kernel-column-name", "kernel-lower-pair",
            "kernel-missing-pair", "map-non-numeric", "excess-bad-gamma",
            "map-not-increasing", "kernel-nan-tau", "excess-nan-t", "map-nan-u",
            "kernel-inf-tau", "excess-inf-t", "map-inf-u"])
    def test_table_without_data_exits_1(self, tmp_path, capsys, section, variant,
                                        where, text, reason):
        table = tmp_path / "table.csv"
        table.write_text(text)
        doc = scalar_config(n_cells=512)
        model = {"variant": variant, "path": table.name}
        doc[section] = model if section == "kernel" else [model]
        assert run_cli(tmp_path, doc) == 1
        # one line, no traceback
        assert capsys.readouterr().err == f"config error: {where}: {table}: {reason}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("eta", [-1, 0])
    def test_config_eta_refused_without_the_file(self, tmp_path, capsys, eta):
        # the table is sound; the refused value is the config's own
        nl = write_nonlin_table(tmp_path / "good.csv")
        doc = scalar_config(n_cells=512)
        doc["nonlins"] = [{"variant": "tabulated", "path": nl.name, "eta": eta}]
        assert run_cli(tmp_path, doc) == 1
        assert capsys.readouterr().err == "config error: nonlin 1: eta must be finite and positive\n"
        assert not (tmp_path / "report.json").exists()

    def test_fully_tabulated_instance_solves(self, tmp_path):
        kern = write_kernel_table(tmp_path / "kernel.csv", n=2001)
        excess = write_excess_table(tmp_path / "excess.csv")
        nl = write_nonlin_table(tmp_path / "nonlin.csv")
        doc = {
            "mode": "solve",
            "kernel": {"variant": "tabulated", "path": kern.name},
            "weights": [{"variant": "tabulated_excess", "path": excess.name}],
            "nonlins": [{"variant": "tabulated", "path": nl.name}],
            "phi": {"variant": "power", "p": 0.55},
            "numerics": {"n_cells": 2048, "tol_trunc": 1e-6,
                         "tol_validate": 1e-5},
        }
        assert run_cli(tmp_path, doc, "--quiet") == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["validation"]["passed"] is True
        assert rep["solve"]["termination"] == "step_below_tol"
        # tabulated tables reproduce the closed-form instance to fidelity
        assert rep["spectral"]["xi"][0] == pytest.approx(1.44, abs=1e-3)

    def test_two_component_table_matches_the_gaussian_kernel(self, tmp_path):
        # a multi-entry table has no common profile, so the quadrature
        # budget probes each kernel entry on its own
        coeffs = [[0.5, 0.3], [0.3, 0.7]]
        write_kernel_table(tmp_path / "kernel.csv", coeffs=coeffs, n=2001)
        doc = scalar_config(n_cells=1024)
        doc["kernel"]["coeffs"] = coeffs
        doc["weights"] = [{"variant": "exp_sqrt", "eps": 0.12},
                          {"variant": "exp_sqrt", "eps": 0.08}]
        doc["nonlins"] = [{"variant": "root_power_mean", "alpha": 0.3},
                          {"variant": "saturating_exp", "alpha": 0.6}]
        doc["phi"]["p"] = 0.6
        reports, profiles = [], []
        for name, kernel in (("gaussian", doc["kernel"]),
                             ("table", {"variant": "tabulated", "path": "../kernel.csv"})):
            (tmp_path / name).mkdir()
            assert run_cli(tmp_path / name, dict(doc, kernel=kernel), "--quiet") == 0
            reports.append(json.loads((tmp_path / name / "report.json").read_text()))
            profiles.append(np.loadtxt(tmp_path / name / "profile.csv", delimiter=",",
                                       skiprows=1))
        budget = max(r["quadrature_error"]["total"] for r in reports)
        assert all(r["solve"]["termination"] == "step_below_tol" for r in reports)
        assert np.array_equal(profiles[0][:, 0], profiles[1][:, 0])
        assert np.max(np.abs(profiles[0][:, 1:3] - profiles[1][:, 1:3])) <= budget


# What pip's generated console-script wrapper does with a `module:attr` target.
SCRIPT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1].split(":")
main = getattr(importlib.import_module(module), attr)
sys.argv = sys.argv[2:]
sys.exit(main())
"""


class TestConsoleScript:
    def test_help_runs(self, tmp_path):
        # The declared `convint` command, run from the source tree in a
        # fresh interpreter, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        project = tomllib.loads((root / "pyproject.toml").read_text())
        entry = project["project"]["scripts"]["convint"]
        where = project["tool"]["setuptools"]["packages"]["find"]["where"]
        env = dict(os.environ)
        paths = [str(root / d) for d in where] + [env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT_WRAPPER, entry, "convint", "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "usage: convint" in proc.stdout
        assert "--config" in proc.stdout

    @pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate",
                                        "scipy.interpolate", "scipy.fft",
                                        "scipy.special", "scipy"])
    def test_import_leaves_heavy_scipy_unloaded(self, tmp_path, module):
        # each costs a cold start a large share of a second
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = f"import sys, convint.cli; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_package_import_loads_no_scipy(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = "import sys, convint; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_tabulated_runs_leave_heavy_scipy_unloaded(self, tmp_path):
        # a tabulated map interpolates without scipy.interpolate, and the
        # transform length needs no scipy.fft; solve and a refused validate
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys\n"
                "from convint import cli\n"
                "for name, code in (('tabulated', 0), ('linear_map', 2)):\n"
                "    argv = ['--config', f'{sys.argv[1]}/{name}.json',\n"
                "            '--out-dir', name, '--quiet']\n"
                "    assert cli.main(argv) == code, name\n"
                "    print(name, sorted(m for m in ('scipy.interpolate', 'scipy.fft')\n"
                "                       if m in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(DEMO_CONFIGS)],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["tabulated []", "linear_map []"]

    def test_bundled_configs_load_no_scipy(self, tmp_path):
        # the closed-form kernels and weights evaluate their special
        # functions with numpy alone: every bundled config, each in its own
        # mode (solve, sweep, and the validates that refuse), runs in one
        # process without loading any scipy module
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys\n"
                "from pathlib import Path\n"
                "from convint import cli\n"
                "for config in sorted(Path(sys.argv[1]).glob('*.json')):\n"
                "    code = cli.main(['--config', str(config), '--out-dir', config.stem,\n"
                "                     '--quiet'])\n"
                "    print(config.stem, code, sorted(m for m in sys.modules\n"
                "                                    if m == 'scipy' or m.startswith('scipy.')))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(DEMO_CONFIGS)],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        refused = {"linear_map", "mismatched_scaling", "unit_weight"}
        names = sorted(p.stem for p in DEMO_CONFIGS.glob("*.json"))
        assert proc.stdout.splitlines() == [
            f"{name} {2 if name in refused else 0} []" for name in names]
