"""Seeded inputs for the benchmark workloads.

Each workload is a set of convint run configs (plus the CSV tables they
reference) drawn from the workload's generator parameters and a seed. The
same seed writes byte-identical files: parameters come from a string-seeded
``random.Random`` and every float is written with 17 significant digits.
convint only ever sees the files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Generator parameters, one block per workload. The "why" of each workload
# is in BENCHMARK.json; the cost figures are from the baseline record.
PARAMS = {
    # N^2 convolutions per operator application dominate (about 80%).
    "coupled": {
        "n": 6, "n_cells": 16384, "tol_stop": 1e-8,
        "tol_trunc": 1e-4, "diag": (0.65, 0.75), "offdiag": (0.1, 0.14),
        "exp_sqrt_eps": (0.085, 0.095), "rational_eps": (0.065, 0.075),
        "rational_alpha": (0.58, 0.62), "map_alpha": (0.43, 0.47),
        "maps": ("power", "root_power_mean", "saturating_exp"),
    },
    # Per-cell and per-node Python loops in the plan and PCHIP evaluation.
    "tabulated": {
        "n_cells": 32768, "tol_stop": 1e-8,
        "tol_trunc": 1e-6, "tol_validate": 1e-5, "kernel_width": (0.97, 1.03),
        "kernel_samples": 2001, "excess_eps": (0.097, 0.103),
        "excess_gamma": (0.49, 0.51), "excess_scale": (0.97, 1.03),
        "map_alpha": (0.49, 0.51), "map_u_top": 8.0, "phi_margin": 0.05,
    },
    # Many short solves on one shared grid: per-entry fixed costs dominate.
    "sweep": {
        "n_cells": 4096, "tol_stop": 1e-8, "entries": 16,
        "eps": (0.02, 0.2), "map_alpha": (0.49, 0.51),
    },
}

WORKLOADS = tuple(PARAMS)


@dataclass(frozen=True)
class Instance:
    """One convint invocation: a name and the config file it runs."""

    name: str
    config: Path


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _uniform(rng: random.Random, bounds) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * rng.random()


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header_lines, rows) -> None:
    lines = list(header_lines)
    lines += [",".join(_g(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _geomspace(lo: float, hi: float, n: int):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(n)]


def _coupled(rng: random.Random, out: Path, p: dict):
    n = p["n"]
    coeffs = [[0.0] * n for _ in range(n)]
    for i in range(n):
        coeffs[i][i] = _uniform(rng, p["diag"])
        for j in range(i + 1, n):
            coeffs[i][j] = coeffs[j][i] = _uniform(rng, p["offdiag"])
    weights, nonlins, exponents = [], [], []
    for j in range(n):
        if j % 2 == 0:
            weights.append({"variant": "exp_sqrt",
                            "eps": _uniform(rng, p["exp_sqrt_eps"])})
        else:
            weights.append({"variant": "rational",
                            "eps": _uniform(rng, p["rational_eps"]),
                            "alpha": _uniform(rng, p["rational_alpha"])})
        variant = p["maps"][j % len(p["maps"])]
        alpha = _uniform(rng, p["map_alpha"])
        nonlins.append({"variant": variant, "alpha": alpha})
        # the exponent condition IV needs from phi for this map family
        exponents.append(max(0.5, alpha) if variant == "root_power_mean" else alpha)
    config = {
        "mode": "solve",
        "kernel": {"variant": "gaussian", "coeffs": coeffs},
        "weights": weights, "nonlins": nonlins,
        "phi": {"variant": "power", "p": max(exponents)},
        "numerics": {"n_cells": p["n_cells"], "tol_stop": p["tol_stop"],
                     "tol_trunc": p["tol_trunc"]},
    }
    _write_json(out / "coupled.json", config)
    return [Instance("coupled", out / "coupled.json")]


def _tabulated(rng: random.Random, out: Path, p: dict):
    width = _uniform(rng, p["kernel_width"])
    eps = _uniform(rng, p["excess_eps"])
    gamma = _uniform(rng, p["excess_gamma"])
    scale = _uniform(rng, p["excess_scale"])
    alpha = _uniform(rng, p["map_alpha"])

    # Gaussian kernel of seeded width; convint normalizes its integral
    m = p["kernel_samples"]
    tau = [10.0 * width * k / (m - 1) for k in range(m)]
    _write_rows(out / "kernel.csv", ["tau,k_1_1"],
                [(t, math.exp(-(t / width) ** 2) / (width * math.sqrt(math.pi)))
                 for t in tau])

    # mu - 1 = eps e^(-t/scale) / t^gamma on a grid dense toward the blowup.
    # The table ends at a fixed t = 40: validation samples the excess on a
    # log grid whose last point can round past a less tidy endpoint.
    t = _geomspace(1e-7, 0.5, 160) + _geomspace(0.505, 40.0, 360)
    _write_rows(out / "excess.csv", [f"# gamma={_g(gamma)}", "t,mu_minus_1"],
                [(x, eps * math.exp(-x / scale) / x ** gamma) for x in t])

    # g(u) = u^alpha pins eta = 1 (the eigenvector of a 1 x 1 unit kernel);
    # u = 1 is a sample so the table reproduces g(eta) = eta exactly
    u = sorted(set([0.0, 1.0] + _geomspace(1e-8, p["map_u_top"], 241)))
    _write_rows(out / "map.csv", ["# eta=1.0", "u,g"], [(x, x ** alpha) for x in u])

    config = {
        "mode": "solve",
        "kernel": {"variant": "tabulated", "path": "kernel.csv"},
        "weights": [{"variant": "tabulated_excess", "path": "excess.csv"}],
        "nonlins": [{"variant": "tabulated", "path": "map.csv"}],
        "phi": {"variant": "power", "p": alpha + p["phi_margin"]},
        "numerics": {"n_cells": p["n_cells"], "tol_stop": p["tol_stop"],
                     "tol_trunc": p["tol_trunc"],
                     "tol_validate": p["tol_validate"]},
    }
    _write_json(out / "tabulated.json", config)
    return [Instance("tabulated", out / "tabulated.json")]


def _sweep(rng: random.Random, out: Path, p: dict):
    alpha = _uniform(rng, p["map_alpha"])
    # one eps per equal slice of the range, so every seed covers all of it
    lo, hi = p["eps"]
    k = p["entries"]
    eps = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    config = {
        "mode": "sweep",
        "kernel": {"variant": "gaussian", "coeffs": [[1.0]]},
        "weights": [{"variant": "exp_sqrt", "eps": eps[0]}],
        "nonlins": [{"variant": "power", "alpha": alpha}],
        "phi": {"variant": "power", "p": alpha},
        "numerics": {"n_cells": p["n_cells"], "tol_stop": p["tol_stop"]},
        "sweep_eps": eps,
    }
    _write_json(out / "sweep.json", config)
    return [Instance("sweep", out / "sweep.json")]


_GENERATORS = {"coupled": _coupled, "tabulated": _tabulated, "sweep": _sweep}


def generate(workload: str, seed: int, out_dir) -> list:
    """Write the workload's inputs for ``seed`` into ``out_dir``; returns the
    instances to run, in order."""
    if workload not in PARAMS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"convint-bench:{workload}:{int(seed)}")
    return _GENERATORS[workload](rng, out, PARAMS[workload])
