"""Command-line front end: config parsing, model building, outputs.

One JSON document describes a run: the kernel, weights, nonlinearities and
scaling map by variant name with a parameters object, plus numeric controls.
The pipeline executes in dependency order

  kernel scalars -> spectral normalization -> eigenvector eta ->
  nonlinearities (eta filled in where not declared) -> excess masses ->
  majorant xi -> condition checks -> (sigma, k) -> truncation R -> grid ->
  operator plan -> quadrature error budget -> certified monotone solve ->
  emission

This module parses the config, builds the models and emits the outputs;
the library runs every stage. convint.problem.normalize takes the kernel
to unit spectral radius and computes eta, convint.problem.validate_problem
computes the excess masses and xi and checks the conditions on them,
convint.solver.run_instance runs the chain from (sigma, k) to the solve on
its report, and convint.solver.run_sweep runs that chain per sweep entry.
Every failure maps to a distinct exit code with a message naming the
stage or condition: 1 config, 2 validation, 3 spectral, 4 majorant,
5 solve. Outputs are a report JSON (byte-reproducible: sorted keys, no
timestamps) and a profile CSV with one row per grid node.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._g17 import format_rows
from .algebra import a_priori_iterations
from .errors import (ConfigError, MajorantError, SolveError, SpectralError,
                     ValidationFailure)
from .kernels import ExpMixtureKernel, GaussianKernel, load_tabulated_kernel
from .nonlinearities import (PowerNonlin, PowerPhi, RootPowerMeanNonlin,
                             SaturatingExpNonlin, TwoPowerMeanNonlin,
                             load_tabulated_nonlin)
from .problem import ProblemSpec, normalize, validate_problem
# solve is unused here but stays bound as convint.cli.solve: the benchmark's
# tracer test (bench/tests) checks that a function bound under two module
# names is patched under both, using this name
from .solver import Numerics, RunResult, run_instance, run_sweep, solve  # noqa: F401
from .weights import ExpSqrtWeight, RationalWeight, load_tabulated_excess

__all__ = ["RunConfig", "load_config", "run", "emit_profile", "emit_report",
           "main"]

SCHEMA_VERSION = 4

# profile values joined per write: bounds the writer's temporaries whatever
# the component count (8192 rows at one component, 1890 at six)
_PROFILE_BLOCK_VALUES = 24576


@dataclass(frozen=True)
class RunConfig:
    mode: str
    numerics: Numerics
    sweep_eps: list
    base_dir: Path
    raw: dict  # the document as read; the model sections are taken from it


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _number(v, what: str) -> float:
    """A JSON number as float; else a ConfigError."""
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"{what} must be a number (got {v!r})")
    return float(v)


def _parse_numerics(d: dict) -> Numerics:
    """Numerics from the JSON block, each key a field; Numerics checks and
    converts the values."""
    _require(isinstance(d, dict), "numerics must be an object")
    known = sorted(f.name for f in dataclasses.fields(Numerics))
    unknown = sorted(set(d) - set(known))
    _require(not unknown, f"unknown numerics key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted keys: {', '.join(known)}")
    try:
        return Numerics(**d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, mode=None) -> RunConfig:
    """The run config at path; mode, when given, overrides the config's own
    (which is checked all the same)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    unknown = sorted(set(raw) - set(_ROOT_KEYS))
    _require(not unknown, f"unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted keys: {', '.join(_ROOT_KEYS)}")

    own = raw.get("mode", "solve")
    mode = own if mode is None else mode
    for value in (own, mode):
        _require(value in ("solve", "validate", "validate-only", "sweep"),
                 f"mode must be solve, validate, or sweep (got {value!r})")
    if mode == "validate-only":
        mode = "validate"

    for key in ("kernel", "weights", "nonlins", "phi"):
        _require(key in raw, f"config is missing the {key!r} section")
    _require(isinstance(raw["weights"], list) and raw["weights"],
             "weights must be a nonempty list")
    _require(isinstance(raw["nonlins"], list) and raw["nonlins"],
             "nonlins must be a nonempty list")
    _require(len(raw["weights"]) == len(raw["nonlins"]),
             "weights and nonlins must have the same length")

    # parsed whenever present: --mode sweep may use it in any config
    sweep_eps = raw.get("sweep_eps", [])
    _require(isinstance(sweep_eps, list), f"sweep_eps must be a list (got {sweep_eps!r})")
    sweep_eps = [_number(e, "sweep_eps entries") for e in sweep_eps]
    _require(all(0.0 <= e < math.inf for e in sweep_eps),
             f"sweep_eps entries must be finite and nonnegative (got {sweep_eps!r})")
    _require(mode != "sweep" or sweep_eps, "sweep mode needs a nonempty sweep_eps list")

    return RunConfig(mode=mode, numerics=_parse_numerics(raw.get("numerics", {})),
                     sweep_eps=sweep_eps, base_dir=path.parent, raw=raw)


# the keys a config's root may hold
_ROOT_KEYS = ("mode", "kernel", "weights", "nonlins", "phi", "numerics", "sweep_eps")

# each model section's variants: the constructor or table loader, and the
# keys besides "variant" a section may hold, each one of its parameters
_VARIANTS = {
    "kernel": {
        "gaussian": (GaussianKernel, ("coeffs",)),
        "exp_mixture": (ExpMixtureKernel, ("coeffs", "s_lo", "s_hi", "power", "decay")),
        "tabulated": (load_tabulated_kernel, ("path",)),
    },
    "weight": {
        "exp_sqrt": (ExpSqrtWeight, ("eps",)),
        "rational": (RationalWeight, ("eps", "alpha")),
        "tabulated_excess": (load_tabulated_excess, ("path",)),
    },
    "nonlin": {
        "power": (PowerNonlin, ("alpha", "eta")),
        "root_power_mean": (RootPowerMeanNonlin, ("alpha", "eta")),
        "two_power_mean": (TwoPowerMeanNonlin, ("alpha", "beta", "eta")),
        "saturating_exp": (SaturatingExpNonlin, ("alpha", "eta")),
        "tabulated": (load_tabulated_nonlin, ("path", "eta")),
    },
    "phi": {"power": (PowerPhi, ("p",))},
}


def _build(section: str, cfg, where: str, base_dir: Path, **defaults):
    """The model a config section describes, named `where` in messages: the
    variant's constructor or table loader called with the section's keys,
    each a JSON number but a path (resolved against the config's directory),
    coeffs (rows of numbers) and an s_hi of "inf" or "infinity". A left-out
    key takes defaults' value (the run's eta for a closed-form map), else
    the constructor's own; a loader, the variant with a path, reads it from
    its file. A null stands for a key left out only where defaults names it,
    and a key the constructor needs that neither gives is a ConfigError."""
    _require(isinstance(cfg, dict) and "variant" in cfg, f"{where} needs a variant")
    v = cfg["variant"]
    _require(isinstance(v, str) and v in _VARIANTS[section],
             f"unknown {section} variant {v!r}" + (f" ({where})" if where != section else ""))
    make, keys = _VARIANTS[section][v]
    unknown = sorted(set(cfg) - {"variant", *keys})
    _require(not unknown, f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted keys: variant, {', '.join(keys)}")
    args = {} if "path" in keys else dict(defaults)
    for key in keys:
        value, what = cfg.get(key), f"{where}: {key}"
        if value is None and (key not in cfg or key in defaults):
            continue
        if key == "path":
            _require(isinstance(value, str), f"{what} must be a string (got {value!r})")
            args[key] = base_dir / value
        elif key == "coeffs":
            _require(isinstance(value, list) and all(isinstance(row, list) for row in value),
                     f"{what} must be a list of rows (got {value!r})")
            args[key] = [[_number(x, what) for x in row] for row in value]
        elif key == "s_hi" and value in ("inf", "infinity"):
            args[key] = math.inf
        else:
            args[key] = _number(value, what)
    missing = next((name for name, param in inspect.signature(make).parameters.items()
                    if param.default is param.empty and name not in args), None)
    _require(missing is None, f"{where}: missing key {missing!r}")
    try:
        return make(**args)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def emit_report(doc: dict, path):
    """Write doc as JSON with sorted keys: a dataclass record as its fields, a
    numpy array or scalar as the Python values tolist() gives."""
    text = json.dumps(doc, indent=2, sort_keys=True,
                      default=lambda v: vars(v) if dataclasses.is_dataclass(v) else v.tolist())
    Path(path).write_text(text + "\n")


def emit_profile(report, eta, path):
    """CSV with x, the field components, and their gaps to eta, full precision.

    One row per grid node, x from -R to R; the bytes are those of
    np.savetxt(fmt="%.17g") on the full table. The field stores the x >= 0
    nodes: their rows are formatted once, and each x < 0 row is written from
    its mirror's text with a '-' before x.

    The digits come from convint._g17, byte-identical to
    np.savetxt(fmt="%.17g"). '%.17g' itself prints, one at a time, each
    value outside 1e-30 <= |v| < 1e16 (zero, inf, nan, tiny or huge) and
    the few near a tie or a power of ten that _g17's error bound leaves open.
    """
    f, grid = report.field, report.grid
    eta = np.asarray(eta, dtype=float)
    half = grid.n_cells // 2
    table = np.column_stack([grid.half_nodes, f.T, (f - eta[:, None]).T])
    lines = format_rows(table)
    rows = max(1, _PROFILE_BLOCK_VALUES // table.shape[1])
    header = ",".join(["x"] + [f"f_{i + 1}" for i in range(len(f))]
                      + [f"eta_gap_{i + 1}" for i in range(len(f))])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for stop in range(half, 0, -rows):
            start = max(stop - rows, 0)
            fh.write(b"-" + b"\n-".join(lines[stop:start:-1]) + b"\n")
        for start in range(0, half + 1, rows):
            fh.write(b"\n".join(lines[start:start + rows]) + b"\n")


def _validation_block(v) -> dict:
    return {"passed": v.passed, "checks": v.checks}


def _stage_blocks(res: RunResult) -> dict:
    """Report blocks of one run_instance result. A returned solve met the
    stopping rule; alpha_plus is its field at x = R."""
    v, q, sol = res.validation, res.quad, res.sol
    sigma, k = v.contraction
    return {
        "spectral": {"eta": v.eta, "xi": v.xi, "sigma": sigma, "k": k,
                     "excess_w": v.excess.w, "b": v.excess.b},
        "quadrature_error": {"regular": q.regular, "singular": q.singular,
                             "dropped_tail": q.dropped_tail, "total": q.total,
                             "mono_slack": q.slack},
        "solve": {"iterations": sol.iterations, "termination": "step_below_tol",
                  "a_priori_n": a_priori_iterations(sigma, k, res.numerics.tol_stop),
                  "residual_sup": sol.residual_sup, "alpha_plus": sol.field[:, -1],
                  "asymptotics": sol.asymptotics, "trace": sol.trace,
                  "probe_deviation": sol.probe_deviation},
    }


def _say_stages(say, res: RunResult):
    q, sol = res.quad, res.sol
    sigma, k = res.validation.contraction
    say(f"majorant xi = {np.array2string(res.validation.xi, precision=8)}; "
        f"sigma = {sigma:.8g}, k = {k:.8g}")
    say(f"quadrature error budget {q.total:.3e} "
        f"(regular {q.regular:.1e}, singular {q.singular:.1e}, "
        f"dropped tail {q.dropped_tail:.1e}); slack {q.slack:.3e}")
    say(f"solve: {sol.iterations} iterations (step_below_tol), "
        f"residual {sol.residual_sup:.3e}, enclosure width {sol.probe_deviation:.3e}")


def _say_operator(say, plan):
    layout = "compact" if plan.hankel is None else "folded"
    say(f"operator: {layout} layout, transform length {plan.fft_len} (kernel reaches "
        f"{plan.reach} of {plan.grid.n_cells // 2} half-grid cells)")


def _truncation_block(grid) -> dict:
    return {"r": grid.r, "n_cells": grid.n_cells, "h": grid.h}


# exit code and message prefix of each failure stage
_FAILURES = {ConfigError: (1, "config error"), ValidationFailure: (2, "validation failed"),
             SpectralError: (3, "spectral stage failed"),
             MajorantError: (4, "majorant stage failed"),
             SolveError: (5, "solve stage failed")}


def run(config: RunConfig, out_dir=".", quiet: bool = False) -> int:
    """Execute the configured pipeline; returns the process exit code."""
    say = (lambda *a, **k: None) if quiet else print
    out = Path(out_dir)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{exc.strerror or exc}") from exc
        base = config.base_dir
        weights = [_build("weight", cfg, f"weight {j + 1}", base)
                   for j, cfg in enumerate(config.raw["weights"])]
        try:
            kernel, scalars, eta, rho = normalize(
                _build("kernel", config.raw["kernel"], "kernel", base))
        except ValueError as exc:
            raise ConfigError(f"kernel scalars: {exc}") from exc
        _require(kernel.n == len(weights),
                 f"kernel is {kernel.n} x {kernel.n} but weights and nonlins "
                 f"have length {len(weights)}")
        say(f"kernel integral matrix normalized by 1/{rho:.12g}")
        say(f"eigenvector eta = {np.array2string(eta, precision=8)}")
        nonlins = [_build("nonlin", cfg, f"nonlin {j + 1}", base, eta=float(eta[j]))
                   for j, cfg in enumerate(config.raw["nonlins"])]
        try:
            spec = ProblemSpec(kernel=kernel, weights=weights,
                               nonlins=nonlins, phi=_build("phi", config.raw["phi"], "phi", base))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        validation = validate_problem(spec, scalars, eta, tol=config.numerics.tol_validate)
        doc = {"schema_version": SCHEMA_VERSION, "mode": config.mode,
               "config": config.raw, "kernel_scale": rho,
               "validation": _validation_block(validation)}
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

        if config.mode == "solve":
            res = run_instance(validation, config.numerics)
            grid = res.plan.grid
            say(f"truncation R = {grid.r:g}, n_cells = {grid.n_cells}, h = {grid.h:g}")
            _say_operator(say, res.plan)
            _say_stages(say, res)
            doc["truncation"] = _truncation_block(grid)
            doc.update(_stage_blocks(res))
            emit_report(doc, out / "report.json")
            emit_profile(res.sol, validation.eta, out / "profile.csv")
            say(f"wrote {out / 'report.json'} and {out / 'profile.csv'}")
            return 0

        # sweep: run_sweep yields each entry with its position in the sorted
        # eps values, the largest first, on the grid it sizes for all; each
        # result is dropped once written, so one entry's plan is alive at a time
        sweeps = sorted(config.sweep_eps)
        entries = [None] * len(sweeps)
        for idx, res in run_sweep(validation, sweeps, config.numerics):
            eps = sweeps[idx]
            say(f"-- sweep entry {idx}: eps = {eps:g}")
            _say_stages(say, res)
            if idx == len(sweeps) - 1:
                grid = res.plan.grid
                say(f"sweep grid: R = {grid.r:g}, n_cells = {grid.n_cells} "
                    f"(sized for eps = {eps:g})")
                _say_operator(say, res.plan)
                doc["truncation"] = _truncation_block(grid)
            name = f"profile_{idx:03d}.csv"
            emit_profile(res.sol, res.validation.eta, out / name)
            entries[idx] = {"eps": eps, "profile": name,
                            "validation": _validation_block(res.validation),
                            **_stage_blocks(res)}
            del res
        doc["entries"] = entries
        emit_report(doc, out / "report.json")
        say(f"wrote {out / 'report.json'} and {len(entries)} profiles")
        return 0

    except tuple(_FAILURES) as exc:
        code, what = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(f"{what}: {exc}", file=sys.stderr)
        return code


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
        config = load_config(args.config, args.mode)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    return run(config, out_dir=args.out_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
