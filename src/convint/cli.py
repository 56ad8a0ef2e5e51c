"""Command-line front end: config parsing, problem setup, outputs.

One JSON document describes a run: the kernel, weights, nonlinearities and
scaling map by variant name with a parameters object, plus numeric controls.
The pipeline executes in dependency order

  kernel scalars -> spectral normalization -> eigenvector eta ->
  nonlinearities (eta filled in where not declared) -> excess masses ->
  majorant xi -> condition checks -> (sigma, k) -> truncation R -> grid ->
  operator plan -> quadrature error budget -> certified monotone solve ->
  emission

This module runs the stages up to the eigenvector and the emission. The
library does the rest: convint.problem.validate_problem computes the excess
masses and xi and checks the conditions on them, and
convint.solver.run_instance takes its report and runs the chain from
(sigma, k) to the solve, for solve mode and for every sweep entry.
Every failure maps to a distinct exit code with a message naming the
stage or condition: 1 config, 2 validation, 3 spectral, 4 majorant,
5 solve. Outputs are a report JSON (byte-reproducible: sorted keys, no
timestamps) and a profile CSV with one row per grid node.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import perron_vector, spectral_radius
from .errors import (ConfigError, ConvintError, MajorantError, SolveError,
                     SpectralError, ValidationFailure)
from .kernels import (ExpMixtureKernel, GaussianKernel, kernel_scalars,
                      load_tabulated_kernel)
from .nonlinearities import (PowerNonlin, PowerPhi, RootPowerMeanNonlin,
                             SaturatingExpNonlin, TwoPowerMeanNonlin,
                             load_tabulated_nonlin)
from .problem import ProblemSpec, validate_problem
# solve is unused here but stays bound as convint.cli.solve: the benchmark's
# tracer test (bench/tests) checks that a function bound under two module
# names is patched under both, using this name
from .solver import Numerics, RunResult, run_instance, solve  # noqa: F401
from .weights import ExpSqrtWeight, RationalWeight, load_tabulated_excess

__all__ = ["RunConfig", "load_config", "run", "emit_profile", "emit_report",
           "main"]

SCHEMA_VERSION = 4

# profile values formatted per call: bounds the writer's temporaries whatever
# the component count (8192 rows at one component, 1890 at six)
_PROFILE_BLOCK_VALUES = 24576


@dataclass(frozen=True)
class RunConfig:
    mode: str
    kernel: dict
    weights: list
    nonlins: list
    phi: dict
    numerics: Numerics
    sweep_eps: list
    labels: list
    base_dir: Path
    raw: dict


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _number(v, what: str, integer: bool = False):
    """A JSON number as float (or an integral one as int); else a ConfigError."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool)
    if integer:
        ok = ok and (isinstance(v, int) or v.is_integer())
    _require(ok, f"{what} must be {'an integer' if integer else 'a number'} (got {v!r})")
    return int(v) if integer else float(v)


def _parse_numerics(d: dict) -> Numerics:
    _require(isinstance(d, dict), "numerics must be an object")
    known = sorted(f.name for f in dataclasses.fields(Numerics))
    unknown = sorted(set(d) - set(known))
    _require(not unknown, f"unknown numerics key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted keys: {', '.join(known)}")
    kwargs = {}
    for name in ("tol_eig", "tol_alg", "tol_trunc", "tol_stop", "tol_validate"):
        if name in d:
            v = _number(d[name], f"numerics.{name}")
            _require(v > 0.0, f"numerics.{name} must be positive")
            kwargs[name] = v
    if d.get("n_cells") is not None:
        n = _number(d["n_cells"], "numerics.n_cells", integer=True)
        _require(n >= 2 and n % 2 == 0, "numerics.n_cells must be even and >= 2")
        kwargs["n_cells"] = n
    if d.get("h_target") is not None:
        h = _number(d["h_target"], "numerics.h_target")
        _require(h > 0.0, "numerics.h_target must be positive")
        kwargs["h_target"] = h
    if "max_iters" in d:
        m = _number(d["max_iters"], "numerics.max_iters", integer=True)
        _require(m >= 1, "numerics.max_iters must be at least 1")
        kwargs["max_iters"] = m
    if d.get("mono_slack") is not None:
        s = _number(d["mono_slack"], "numerics.mono_slack")
        _require(s >= 0.0, "numerics.mono_slack must be nonnegative")
        kwargs["mono_slack"] = s
    if "samples" in d:
        s = _number(d["samples"], "numerics.samples", integer=True)
        _require(s >= 2, "numerics.samples must be at least 2")
        kwargs["samples"] = s
    return Numerics(**kwargs)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")

    mode = raw.get("mode", "solve")
    if mode == "validate-only":
        mode = "validate"
    _require(mode in ("solve", "validate", "sweep"),
             f"mode must be solve, validate, or sweep (got {mode!r})")

    for key in ("kernel", "weights", "nonlins", "phi"):
        _require(key in raw, f"config is missing the {key!r} section")
    _require(isinstance(raw["weights"], list) and raw["weights"],
             "weights must be a nonempty list")
    _require(isinstance(raw["nonlins"], list) and raw["nonlins"],
             "nonlins must be a nonempty list")
    _require(len(raw["weights"]) == len(raw["nonlins"]),
             "weights and nonlins must have the same length")

    sweep_eps = raw.get("sweep_eps", [])
    if mode == "sweep":
        _require(isinstance(sweep_eps, list) and sweep_eps,
                 "sweep mode needs a nonempty sweep_eps list")
        sweep_eps = [_number(e, "sweep_eps entries") for e in sweep_eps]

    labels = raw.get("labels")
    if labels is not None:
        _require(isinstance(labels, list) and len(labels) == len(raw["weights"]),
                 "labels must list one name per component")

    return RunConfig(mode=mode, kernel=raw["kernel"], weights=raw["weights"],
                     nonlins=raw["nonlins"], phi=raw["phi"],
                     numerics=_parse_numerics(raw.get("numerics", {})),
                     sweep_eps=sweep_eps, labels=labels,
                     base_dir=path.parent, raw=raw)


def _build_kernel(cfg: dict, base_dir: Path):
    _require(isinstance(cfg, dict) and "variant" in cfg, "kernel needs a variant")
    v = cfg["variant"]
    try:
        if v == "gaussian":
            return GaussianKernel(cfg["coeffs"])
        if v == "exp_mixture":
            s_hi = cfg.get("s_hi", 2.0)
            if isinstance(s_hi, str):
                _require(s_hi in ("inf", "infinity"), f"bad s_hi {s_hi!r}")
                s_hi = math.inf
            return ExpMixtureKernel(cfg["coeffs"], s_lo=cfg.get("s_lo", 1.0),
                                    s_hi=s_hi, power=cfg.get("power", 0.0),
                                    decay=cfg.get("decay", 0.0))
        if v == "tabulated":
            return load_tabulated_kernel(base_dir / cfg["path"])
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    raise ConfigError(f"unknown kernel variant {v!r}")


def _build_weight(cfg: dict, base_dir: Path, idx: int):
    _require(isinstance(cfg, dict) and "variant" in cfg,
             f"weight {idx + 1} needs a variant")
    v = cfg["variant"]
    try:
        if v == "exp_sqrt":
            return ExpSqrtWeight(cfg["eps"])
        if v == "rational":
            return RationalWeight(cfg["eps"], cfg["alpha"])
        if v == "tabulated_excess":
            return load_tabulated_excess(base_dir / cfg["path"])
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"weight {idx + 1}: {exc}") from exc
    raise ConfigError(f"unknown weight variant {v!r} (weight {idx + 1})")


def _build_nonlin(cfg: dict, eta_default: float, base_dir: Path, idx: int):
    _require(isinstance(cfg, dict) and "variant" in cfg,
             f"nonlin {idx + 1} needs a variant")
    v = cfg["variant"]
    eta_cfg = cfg.get("eta")
    if eta_cfg is not None:
        eta_cfg = _number(eta_cfg, f"nonlin {idx + 1} eta")
    eta = eta_cfg if eta_cfg is not None else float(eta_default)
    try:
        if v == "power":
            return PowerNonlin(cfg["alpha"], eta)
        if v == "root_power_mean":
            return RootPowerMeanNonlin(cfg["alpha"], eta)
        if v == "two_power_mean":
            return TwoPowerMeanNonlin(cfg["alpha"], cfg["beta"], eta)
        if v == "saturating_exp":
            return SaturatingExpNonlin(cfg["alpha"], eta)
        if v == "tabulated":
            return load_tabulated_nonlin(base_dir / cfg["path"], eta=eta_cfg)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"nonlin {idx + 1}: {exc}") from exc
    raise ConfigError(f"unknown nonlin variant {v!r} (nonlin {idx + 1})")


def _build_phi(cfg: dict):
    _require(isinstance(cfg, dict) and "variant" in cfg, "phi needs a variant")
    if cfg["variant"] == "power":
        try:
            return PowerPhi(cfg["p"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"phi: {exc}") from exc
    raise ConfigError(f"unknown phi variant {cfg['variant']!r}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def emit_report(doc: dict, path):
    Path(path).write_text(json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n")


def emit_profile(report, eta, path):
    """CSV with x, the field components, and their gaps to eta, full precision.

    One row per grid node, x from -R to R; the bytes are those of
    np.savetxt(fmt="%.17g") on the full table. The field stores the x >= 0
    nodes: their rows are formatted once, in blocks, and each x < 0 row is
    written from its mirror's text with a '-' before x.
    """
    f = report.field
    eta = np.asarray(eta, dtype=float)
    half = f.grid.n_cells // 2
    table = np.column_stack([f.grid.half_nodes, f.values.T, (f.values - eta[:, None]).T])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    rows = max(1, _PROFILE_BLOCK_VALUES // table.shape[1])
    lines = []
    for start in range(0, half + 1, rows):
        block = table[start:start + rows]
        lines += (row * len(block) % tuple(block.ravel().tolist())).splitlines()
    header = ",".join(["x"] + [f"f_{i + 1}" for i in range(f.n)]
                      + [f"eta_gap_{i + 1}" for i in range(f.n)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for stop in range(half, 0, -rows):
            start = max(stop - rows, 0)
            fh.write("-" + "\n-".join(lines[stop:start:-1]) + "\n")
        for start in range(0, half + 1, rows):
            fh.write("\n".join(lines[start:start + rows]) + "\n")


def _prepare_spec(config: RunConfig, weights, say):
    """Normalize the kernel, compute eta, build nonlinearities, validate;
    returns the normalization factor and the validation report."""
    kernel_raw = _build_kernel(config.kernel, config.base_dir)
    try:
        scalars_raw = kernel_scalars(kernel_raw)
    except ValueError as exc:
        raise ConfigError(f"kernel scalars: {exc}") from exc
    rho = spectral_radius(scalars_raw.a, config.numerics.tol_eig)
    kernel = kernel_raw.rescaled(1.0 / rho)
    scalars = kernel_scalars(kernel)
    say(f"kernel integral matrix normalized by 1/{rho:.12g}")

    eta = perron_vector(scalars.a, config.numerics.tol_eig)
    say(f"eigenvector eta = {np.array2string(eta, precision=8)}")

    nonlins = [_build_nonlin(cfg, float(eta[j]), config.base_dir, j)
               for j, cfg in enumerate(config.nonlins)]
    try:
        spec = ProblemSpec(n=len(weights), kernel=kernel, weights=weights,
                           nonlins=nonlins, phi=_build_phi(config.phi),
                           labels=config.labels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return rho, _validate(spec, scalars, eta, config.numerics)


def _validate(spec, scalars, eta, num: Numerics):
    return validate_problem(spec, scalars, eta, samples=num.samples,
                            tol=num.tol_validate, tol_alg=num.tol_alg)


def _stage_blocks(res: RunResult) -> dict:
    """Report blocks of one run_instance result."""
    sp, q, sol = res.spectral, res.quad, res.sol
    return {
        "spectral": {"eta": sp.eta, "xi": sp.xi, "sigma": sp.sigma, "k": sp.k,
                     "excess_w": res.validation.excess.w, "b": sp.b},
        "quadrature_error": {"regular": q.regular, "singular": q.singular,
                             "dropped_tail": q.dropped_tail, "total": q.total,
                             "mono_slack": res.opts.mono_slack},
        "solve": {"iterations": sol.iterations, "termination": sol.termination,
                  "a_priori_n": sol.a_priori_n, "residual_sup": sol.residual_sup,
                  "alpha_plus": sol.alpha_plus,
                  "asymptotics": sol.asymptotics.as_dict(),
                  "trace": sol.trace.as_dict(),
                  "probe_deviation": sol.probe_deviation},
    }


def _say_stages(say, res: RunResult):
    sp, q, sol = res.spectral, res.quad, res.sol
    say(f"majorant xi = {np.array2string(sp.xi, precision=8)}; "
        f"sigma = {sp.sigma:.8g}, k = {sp.k:.8g}")
    say(f"quadrature error budget {q.total:.3e} "
        f"(regular {q.regular:.1e}, singular {q.singular:.1e}, "
        f"dropped tail {q.dropped_tail:.1e}); slack {res.opts.mono_slack:.3e}")
    say(f"solve: {sol.iterations} iterations ({sol.termination}), "
        f"residual {sol.residual_sup:.3e}, enclosure width {sol.probe_deviation:.3e}")


def _say_operator(say, plan):
    say(f"operator: transform length {plan.fft_len} (kernel reaches {plan.reach} "
        f"of {plan.grid.n_cells // 2} half-grid cells)")


def _truncation_block(grid) -> dict:
    return {"r": grid.r, "n_cells": grid.n_cells, "h": grid.h}


def run(config: RunConfig, out_dir=".", quiet: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    say = (lambda *a, **k: None) if quiet else print
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        weights = [_build_weight(cfg, config.base_dir, j)
                   for j, cfg in enumerate(config.weights)]
        rho, validation = _prepare_spec(config, weights, say)
        doc = {"schema_version": SCHEMA_VERSION, "mode": config.mode,
               "config": config.raw, "kernel_scale": rho,
               "validation": validation.as_dict()}
        if config.mode == "validate" or not validation.passed:
            emit_report(doc, out / "report.json")

        if config.mode == "validate":
            say(validation)
            if not validation.passed:
                say(f"validation failed: condition(s) "
                    f"{', '.join(validation.failing_ids)}")
                return 2
            say("all eight conditions pass")
            return 0

        num = config.numerics
        if config.mode == "solve":
            res = run_instance(validation, num)
            say(f"truncation R = {res.grid.r:g}, n_cells = {res.grid.n_cells}, "
                f"h = {res.grid.h:g}")
            _say_operator(say, res.plan)
            _say_stages(say, res)
            doc["truncation"] = _truncation_block(res.grid)
            doc.update(_stage_blocks(res))
            emit_report(doc, out / "report.json")
            emit_profile(res.sol, res.spectral.eta, out / "profile.csv")
            say(f"wrote {out / 'report.json'} and {out / 'profile.csv'}")
            return 0

        # sweep: the configured instance must pass too. The largest eps runs
        # first and sizes the grid that every other entry shares; each
        # entry's plan is dropped once its profile is written. An entry
        # whose eps every configured weight already has reuses the
        # configured validation instead of running it again
        validation.require_passed()
        sweeps = sorted(config.sweep_eps)

        def validate_entry(eps):
            if all(getattr(w, "eps", None) == eps for w in weights):
                return validation
            w_eps = [_swept(w, eps, j) for j, w in enumerate(weights)]
            spec_eps = dataclasses.replace(validation.spec, weights=w_eps)
            return _validate(spec_eps, validation.scalars, validation.eta, num)

        def solve_entry(idx, grid=None):
            eps = sweeps[idx]
            say(f"-- sweep entry {idx}: eps = {eps:g}")
            try:
                res = run_instance(validate_entry(eps), num, grid)
            except ValidationFailure as exc:
                raise ValidationFailure(f"sweep eps = {eps:g}: {exc}",
                                        report=exc.report) from None
            _say_stages(say, res)
            if grid is None:
                say(f"sweep grid: R = {res.grid.r:g}, n_cells = {res.grid.n_cells} "
                    f"(sized for eps = {eps:g})")
                _say_operator(say, res.plan)
            name = f"profile_{idx:03d}.csv"
            emit_profile(res.sol, res.spectral.eta, out / name)
            return res.grid, {"eps": eps, "profile": name,
                              "validation": res.validation.as_dict(),
                              **_stage_blocks(res)}

        grid, top = solve_entry(len(sweeps) - 1)
        entries = [solve_entry(idx, grid)[1] for idx in range(len(sweeps) - 1)]
        entries.append(top)
        doc["truncation"] = _truncation_block(grid)
        doc["entries"] = entries
        emit_report(doc, out / "report.json")
        say(f"wrote {out / 'report.json'} and {len(entries)} profiles")
        return 0

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        print(f"spectral stage failed: {exc}", file=sys.stderr)
        return 3
    except MajorantError as exc:
        print(f"majorant stage failed: {exc}", file=sys.stderr)
        return 4
    except SolveError as exc:
        print(f"solve stage failed: {exc}", file=sys.stderr)
        return 5


def _swept(weight, eps: float, idx: int):
    if not hasattr(weight, "with_eps"):
        raise ConfigError(
            f"weight {idx + 1} ({type(weight).__name__}) has no eps parameter; "
            "sweep mode needs parametric weights")
    return weight.with_eps(eps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convint",
        description="Solve systems of nonlinear convolution integral equations "
                    "on the line with singular weights by monotone iteration.")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--mode", choices=["solve", "validate", "sweep"],
                        help="override the mode given in the config")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.mode and args.mode != config.mode:
            if args.mode == "sweep" and not config.sweep_eps:
                raise ConfigError("sweep mode needs a sweep_eps list in the config")
            config = dataclasses.replace(config, mode=args.mode)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    return run(config, out_dir=args.out_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
