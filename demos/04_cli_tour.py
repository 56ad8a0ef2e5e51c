"""Drive the convint command line over the bundled configs.

Runs a scalar solve, an excess-mass sweep, a fully tabulated instance, a
coupled pair, a radiative-transfer kernel, and the three deliberately
inadmissible configs, showing the exit code and the named failing
condition for each. Every solve, sweep entries included, must stop on the
step tolerance with its enclosure width at or below tol_stop, and its
derived report keys must agree with its trace, its profile and its
(sigma, k). A flagship run whose step tolerance no step reaches must stop
at the iteration cap with exit code 5. Output directories land under
demos/out/; the capped run writes to a temporary directory.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from convint import Numerics, a_priori_iterations

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"


def run(name, expect_code, config=None, out_dir=None):
    """Run the command line on demos/configs/<name>.json, or on config, into
    demos/out/<name>, or into out_dir; returns (out_dir, standard error)."""
    label = f"demos/configs/{name}.json" if config is None else config.name
    config = config or CONFIGS / f"{name}.json"
    out_dir = out_dir or OUT / name
    proc = subprocess.run(
        [sys.executable, "-m", "convint.cli",
         "--config", str(config), "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    banner = f"$ convint --config {label}"
    print(f"\n{banner}\n{'-' * len(banner)}")
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    print(f"  exit code {proc.returncode}")
    assert proc.returncode == expect_code, (name, proc.returncode)
    return out_dir, proc.stderr


def certified(out_dir):
    """The run's report, after checking that each of its solves stopped on
    the step tolerance with its enclosure width within tol_stop, and that
    the keys the report derives agree with what the solve measured: the
    iteration count and the width with the trace, alpha_plus with the
    profile's x = R row, a_priori_n with (sigma, k)."""
    report = json.loads((out_dir / "report.json").read_text())
    tol_stop = report["config"].get("numerics", {}).get("tol_stop", Numerics.tol_stop)
    for entry in report.get("entries", [report]):
        solve, where = entry["solve"], (out_dir.name, entry.get("eps"))
        trace = solve["trace"]
        assert solve["termination"] == "step_below_tol", where
        assert solve["iterations"] == len(trace["d"]), where
        assert solve["probe_deviation"] == trace["width"][-1] <= tol_stop, where
        sigma, k = entry["spectral"]["sigma"], entry["spectral"]["k"]
        assert solve["a_priori_n"] == a_priori_iterations(sigma, k, tol_stop), where
        last = (out_dir / entry.get("profile", "profile.csv")).read_text().splitlines()[-1]
        edge = [float(cell) for cell in last.split(",")][1:1 + len(solve["alpha_plus"])]
        assert edge == solve["alpha_plus"], where
    return report


def main():
    if not (HERE / "data" / "kernel_gaussian.csv").exists():
        subprocess.run([sys.executable, str(HERE / "make_tables.py")],
                       check=True)

    report = certified(run("flagship", expect_code=0)[0])
    print(f"  -> report.json: xi = {report['spectral']['xi'][0]:.6f}, "
          f"{report['solve']['iterations']} iterations, residual "
          f"{report['solve']['residual_sup']:.3e}")

    report = certified(run("eps_sweep", expect_code=0)[0])
    print("  -> per-eps majorants on one shared grid:")
    for entry in report["entries"]:
        print(f"     eps = {entry['eps']:.2f}: "
              f"xi = {entry['spectral']['xi'][0]:.6f}, "
              f"{entry['solve']['iterations']} iterations")

    certified(run("tabulated", expect_code=0)[0])
    certified(run("coupled_pair", expect_code=0)[0])
    certified(run("radiative", expect_code=0)[0])

    print("\nA step tolerance no step reaches ends the solve at the iteration cap:")
    capped = json.loads((CONFIGS / "flagship.json").read_text())
    capped["numerics"] = {"n_cells": 512, "tol_stop": 1e-300}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "flagship_capped.json"
        config.write_text(json.dumps(capped, indent=1) + "\n")
        _, err = run("flagship_capped", expect_code=5, config=config,
                     out_dir=Path(tmp) / "out")
    assert err.startswith("solve stage failed: iteration cap 400 reached before "
                          "the step tolerance 1e-300"), err

    print("\nInadmissible inputs are refused with the condition named:")
    for name in ("unit_weight", "linear_map", "mismatched_scaling"):
        out = run(name, expect_code=2)[0]
        report = json.loads((out / "report.json").read_text())
        failed = [c["condition"] for c in report["validation"]["checks"]
                  if not c["passed"]]
        print(f"  -> report.json records failing condition(s): {failed}")


if __name__ == "__main__":
    main()
