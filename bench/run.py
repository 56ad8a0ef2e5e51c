"""convint benchmark: end-to-end run cost and a traced per-module breakdown.

Usage, from the repository root:

    python3 bench/run.py --workload coupled|tabulated|sweep|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One closed-loop caller in one process drives the real entry point,
``convint.cli.main``, in-process on the workload's seeded configs, with
numerical libraries held to one thread. A run:

  1. writes the workload's inputs for the seed into a scratch directory;
  2. runs the bundled inadmissible configs, which must be refused by name;
  3. with ``--trace 0``, times ``SETUP_SAMPLES`` cold starts (a fresh
     interpreter importing ``convint.cli`` and loading the first config);
  4. runs the instance set once untimed and checks every output;
  5. repeats the instance set for ``--seconds`` seconds. Each repeat must
     reproduce the checked outputs byte for byte.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The run record (output digests, report numbers)
and, when traced, the spans of the last traced repeat are written under
``.bench_out/``. ``--workload all`` runs each workload in its own process
and prints a table.
"""

from __future__ import annotations

import os

# one thread for every numerical library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "demos" / "configs"
WORK = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPEATS = 3
SETUP_SAMPLES = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import convint.cli; "
              "convint.cli.load_config(sys.argv[2])")
SUBPROCESS_TIMEOUT_S = 60

# per-layer metric -> unit; the values come from layer_metrics()
LAYER_UNITS = {
    "cli.load_config_s": "s", "cli.emit_profile_s": "s", "cli.emit_report_s": "s",
    "cli.profile_bytes": "bytes",
    "problem.validate_s": "s", "problem.validate_calls": "count",
    "algebra.spectral_s": "s", "algebra.solve_xi_s": "s", "algebra.solve_xi_calls": "count",
    "kernels.scalars_s": "s", "kernels.scalars_calls": "count", "kernels.eval_s": "s",
    "kernels.tail_s": "s",
    "weights.cell_moments_s": "s", "weights.b_matrix_s": "s", "weights.tail_mass_s": "s",
    "nonlinearities.g_eval_s": "s", "nonlinearities.g_eval_calls": "count",
    "nonlinearities.condition_iv_s": "s",
    "discretization.apply_calls": "count", "discretization.apply_s": "s",
    "discretization.apply_ms": "ms", "discretization.apply_self_ms": "ms",
    "discretization.plan_s": "s", "discretization.plan_bytes": "bytes",
    "discretization.quad_budget_s": "s", "discretization.truncation_s": "s",
    "solver.solve_s": "s", "solver.solve_self_s": "s", "solver.iterations": "count",
    "solver.probe_s": "s", "solver.probe_applies": "count", "solver.residual_s": "s",
    "solver.asymptotics_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    # traced wall time, the part the spans' self times cover, and the rest
    "trace.wall_s": "s", "trace.accounted_s": "s", "trace.unaccounted_s": "s",
}


class Failure(Exception):
    """The program under test misbehaved; the run cannot be measured."""


def import_convint():
    """Import convint from this checkout's sources, never an installed copy."""
    if not (SRC / "convint" / "__init__.py").is_file():
        raise Failure(f"no convint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import convint.cli
    if Path(convint.cli.__file__).resolve().parent != (SRC / "convint").resolve():
        raise Failure(f"imported convint from {convint.cli.__file__}, not {SRC}")
    return convint.cli


class Runner:
    """Runs instances through ``convint.cli.main`` and keeps the counts."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.tracer = None

    def _call(self, config: Path, out: Path) -> int:
        return self.cli.main(["--config", str(config), "--out-dir", str(out), "--quiet"])

    def _fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)

    def refuse_inadmissible(self) -> None:
        for name, condition in checks.INADMISSIBLE.items():
            self.attempted += 1
            out = self.work / "refused" / name
            try:
                code = self._call(CONFIGS / f"{name}.json", out)
                problems = [] if code == checks.INADMISSIBLE_EXIT else [
                    f"exit code {code}, expected {checks.INADMISSIBLE_EXIT}"]
                if not problems:
                    report = json.loads((out / "report.json").read_text())
                    problems = checks.check_refused(report, condition)
            except Exception:  # the benchmark must report, not crash
                problems = [traceback.format_exc()]
            if problems:
                self._fail(name, problems)

    def run_set(self, instances, first: bool):
        """Run every instance once; returns the summed time of the
        ``cli.main`` calls, or None if any instance failed. The first pass
        checks outputs in full; later passes must reproduce its digests."""
        elapsed = 0.0
        ok = True
        for inst in instances:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.instance = self.attempted
            out = self.work / "out" / inst.name
            try:
                t0 = time.perf_counter()
                code = self._call(inst.config, out)
                elapsed += time.perf_counter() - t0
                problems = self._check(inst.name, code, out, first)
            except Exception:  # count the instance as failed and keep going
                problems = [traceback.format_exc()]
            if problems:
                self._fail(inst.name, problems)
                ok = False
        return elapsed if ok else None

    def _check(self, name: str, code: int, out: Path, first: bool) -> list:
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads((out / "report.json").read_text())
        digest = checks.digest(out, report)
        if first:
            self.reference[name] = (digest, report)
            return checks.check_solved(out, report)
        if digest != self.reference[name][0]:
            return ["outputs differ from the first run of this instance"]
        return []


def measure_setup(config: Path) -> list:
    """Cold-start times of fresh interpreters, spawned one at a time. The
    benchmark's own import of convint has already written the bytecode
    cache, so every start reads the same files."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise Failure(f"cold start failed: {proc.stderr.decode()[-2000:]}")
    return times


# ---- per-layer metrics ------------------------------------------------------

def _plan_bytes(tracer, args, plan):
    nbytes = sum(getattr(plan, f.name).nbytes for f in dataclasses.fields(plan)
                 if hasattr(getattr(plan, f.name), "nbytes"))
    tracer.count("plan_bytes", nbytes, max)


HOOKS = {
    "discretization.build_plan": _plan_bytes,
    "solver.solve": lambda tr, args, sol: tr.count("iterations", sol.iterations),
    "cli.emit_profile": lambda tr, args, _: tr.count(
        "profile_bytes", os.path.getsize(args[2])),
}


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass over the instance set, which
    took ``wall`` seconds."""
    recorded = tracer.spans
    selfs = spans.self_times(recorded)
    totals = spans.span_totals(recorded, selfs)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    applies = calls("discretization.apply_operator")
    per_apply_ms = 1e3 / applies if applies else 0.0
    m = {
        "cli.load_config_s": total("cli.load_config"),
        "cli.emit_profile_s": total("cli.emit_profile"),
        "cli.emit_report_s": total("cli.emit_report"),
        "cli.profile_bytes": tracer.counters.get("profile_bytes", 0),
        "problem.validate_s": total("problem.validate_problem"),
        "problem.validate_calls": calls("problem.validate_problem"),
        "algebra.spectral_s": total("algebra.spectral_radius", "algebra.perron_vector"),
        "algebra.solve_xi_s": total("algebra.solve_xi"),
        "algebra.solve_xi_calls": calls("algebra.solve_xi"),
        "kernels.scalars_s": total("kernels.kernel_scalars"),
        "kernels.scalars_calls": calls("kernels.kernel_scalars"),
        "kernels.eval_s": total("kernels.kernel_eval"),
        "kernels.tail_s": total("kernels.kernel_tail_one_sided", "kernels.kernel_tail_mass"),
        "weights.cell_moments_s": total("weights.cell_moments_batch"),
        "weights.b_matrix_s": total("weights.build_b_matrix"),
        "weights.tail_mass_s": total("weights.excess_tail_mass"),
        "nonlinearities.g_eval_s": total("nonlinearities.g_eval"),
        "nonlinearities.g_eval_calls": calls("nonlinearities.g_eval"),
        "nonlinearities.condition_iv_s": total("nonlinearities.check_condition_iv"),
        "discretization.apply_calls": applies,
        "discretization.apply_s": total("discretization.apply_operator"),
        "discretization.apply_ms": total("discretization.apply_operator") * per_apply_ms,
        "discretization.apply_self_ms": self_time("discretization.apply_operator") * per_apply_ms,
        "discretization.plan_s": total("discretization.build_plan"),
        "discretization.plan_bytes": tracer.counters.get("plan_bytes", 0),
        "discretization.quad_budget_s": total("discretization.estimate_quadrature_error"),
        "discretization.truncation_s": total("discretization.choose_truncation"),
        "solver.solve_s": total("solver.solve"),
        "solver.solve_self_s": self_time("solver.solve"),
        "solver.iterations": tracer.counters.get("iterations", 0),
        "solver.probe_s": total("solver.uniqueness_probe"),
        "solver.probe_applies": spans.count_within(
            recorded, "discretization.apply_operator", "solver.uniqueness_probe"),
        "solver.residual_s": total("solver.residual"),
        "solver.asymptotics_s": total("solver.asymptotics_report"),
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[k] for k, s in enumerate(recorded)
                                   if s.name.startswith(layer + "."))
    m["trace.wall_s"] = wall
    m["trace.accounted_s"] = sum(selfs)
    m["trace.unaccounted_s"] = wall - sum(selfs)
    return m


# ---- one workload -------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cli = import_convint()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        instances = workloads.generate(workload, seed, work / "inputs")
        runner = Runner(cli, work)
        runner.refuse_inadmissible()
        setup = [] if traced else measure_setup(instances[0].config)
        if runner.run_set(instances, first=True) is None:
            raise Failure("the first run of the instance set failed its checks")

        walls, per_rep = [], []
        tracer = spans.Tracer()
        t_start = time.perf_counter()
        while len(walls) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
            wall = runner.run_set(instances, first=False)
            if wall is None:
                break
            walls.append(wall)
            if traced:
                tracer.reset()
                tracer.install(HOOKS)
                runner.tracer = tracer
                try:
                    wall = runner.run_set(instances, first=False)
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                if wall is None:
                    break
                per_rep.append(layer_metrics(tracer, wall))
        if not walls or (traced and not per_rep):
            raise Failure("no repeat of the instance set succeeded")

        wall_s = statistics.median(walls)
        record = {"workload": workload, "seed": seed, "params": workloads.PARAMS[workload],
                  "instances": {name: {"digest": d, "report_numbers": checks.report_numbers(rep)}
                                for name, (d, rep) in runner.reference.items()}}
        OUT.mkdir(exist_ok=True)
        tag = f"{workload}_seed{seed}"
        (OUT / f"record_{tag}.json").write_text(json.dumps(record, sort_keys=True) + "\n")
        print(f"record: {OUT / f'record_{tag}.json'}")
        print(f"{workload}: {len(walls)} timed repeats of {len(instances)} instance(s), "
              f"{runner.failed} of {runner.attempted} attempted failed "
              f"(fail_rate {runner.failed / runner.attempted:g} ratio)")

        if traced:
            # counts repeat exactly; median_low keeps them whole numbers
            metrics = {name: _metric((statistics.median_low if unit in ("count", "bytes")
                                      else statistics.median)(r[name] for r in per_rep), unit)
                       for name, unit in LAYER_UNITS.items()}
            metrics["trace.overhead_s"] = _metric(
                metrics["trace.wall_s"]["value"] - wall_s, "s")
            rows = [dataclasses.astuple(s) for s in tracer.spans]
            (OUT / f"trace_{tag}.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "instance"],
                 "spans": rows}) + "\n")
            print(f"trace: {OUT / f'trace_{tag}.json'} ({len(rows)} spans)")
        else:
            metrics = {
                "wall_s": _metric(wall_s, "s"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            }
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---- all workloads ------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise Failure(f"{workload} run exited with code {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:34s}" + "".join(f"{r['metrics'][name]['value']:14.6g}"
                                      for r in results.values()) + f"  {unit}")
    print(f"{'fail_rate':34s}" + "".join(f"{r['failed'] / r['attempted']:14.6g}"
                                         for r in results.values()) + "  ratio")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
            correct = all(r["correct"] for r in result.values())
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            correct = result["correct"]
    except (Failure, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
