"""Drive the convint command line over the bundled configs.

Runs a scalar solve, an excess-mass sweep, a fully tabulated instance, a
coupled pair, a radiative-transfer kernel, and the three deliberately
inadmissible configs, showing the exit code and the named failing
condition for each. Every solve, sweep entries
included, must stop on the step tolerance with its enclosure width at or
below tol_stop. Output directories land under demos/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

from convint import Numerics

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
OUT = HERE / "out"


def run(name, expect_code):
    out_dir = OUT / name
    proc = subprocess.run(
        [sys.executable, "-m", "convint.cli",
         "--config", str(CONFIGS / f"{name}.json"),
         "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    banner = f"$ convint --config demos/configs/{name}.json"
    print(f"\n{banner}\n{'-' * len(banner)}")
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    print(f"  exit code {proc.returncode}")
    assert proc.returncode == expect_code, (name, proc.returncode)
    return out_dir


def certified(out_dir):
    """The run's report, after checking that each of its solves stopped on
    the step tolerance with its enclosure width within tol_stop."""
    report = json.loads((out_dir / "report.json").read_text())
    tol_stop = report["config"].get("numerics", {}).get("tol_stop", Numerics.tol_stop)
    for entry in report.get("entries", [report]):
        solve = entry["solve"]
        assert solve["termination"] == "step_below_tol", (out_dir.name, solve["termination"])
        assert solve["probe_deviation"] <= tol_stop, (out_dir.name, solve["probe_deviation"])
    return report


def main():
    if not (HERE / "data" / "kernel_gaussian.csv").exists():
        subprocess.run([sys.executable, str(HERE / "make_tables.py")],
                       check=True)

    report = certified(run("flagship", expect_code=0))
    print(f"  -> report.json: xi = {report['spectral']['xi'][0]:.6f}, "
          f"{report['solve']['iterations']} iterations, residual "
          f"{report['solve']['residual_sup']:.3e}")

    report = certified(run("eps_sweep", expect_code=0))
    print("  -> per-eps majorants on one shared grid:")
    for entry in report["entries"]:
        print(f"     eps = {entry['eps']:.2f}: "
              f"xi = {entry['spectral']['xi'][0]:.6f}, "
              f"{entry['solve']['iterations']} iterations")

    certified(run("tabulated", expect_code=0))
    certified(run("coupled_pair", expect_code=0))
    certified(run("radiative", expect_code=0))

    print("\nInadmissible inputs are refused with the condition named:")
    for name in ("unit_weight", "linear_map", "mismatched_scaling"):
        out = run(name, expect_code=2)
        report = json.loads((out / "report.json").read_text())
        failed = [c["condition"] for c in report["validation"]["checks"]
                  if not c["passed"]]
        print(f"  -> report.json records failing condition(s): {failed}")


if __name__ == "__main__":
    main()
