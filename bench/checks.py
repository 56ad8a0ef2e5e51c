"""Output checks and digests for one convint run.

A solve writes ``report.json`` and ``profile.csv``; a sweep writes one
report with an ``entries`` list and one profile per entry. Every solved
profile must:

  * come from a solve that stopped with ``step_below_tol``;
  * have ``n_cells + 1`` rows on a grid symmetric about 0;
  * stay in the slab [eta, xi] up to the report's ``mono_slack``;
  * be even, f(x) = f(-x) to ``EVEN_TOL``;
  * meet the residual and probe bounds the acceptance tests use:
    residual_sup <= tol_stop + mono_slack and
    probe_deviation <= 2 tol_stop + mono_slack.

The digest of a run is the SHA-256 of every profile's bytes plus the
report's numeric fields (everything but the echoed config), so a later
change can show its outputs are unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EVEN_TOL = 1e-12

# Bundled configs that must be refused, with the condition each must name.
INADMISSIBLE = {"linear_map": "III", "mismatched_scaling": "IV", "unit_weight": "a"}
INADMISSIBLE_EXIT = 2


def _solved_entries(report: dict):
    """(label, solve-stage block, profile file name) for each solved problem."""
    if "entries" in report:
        return [(f"eps={e['eps']:.6g}", e, e["profile"]) for e in report["entries"]]
    return [("solve", report, "profile.csv")]


def check_profile(text: str, n_cells: int, eta, xi, slack: float) -> list:
    """Problems with one profile's shape, slab bounds and evenness."""
    rows = text.splitlines()
    n = len(eta)
    header = ["x"] + [f"f_{i + 1}" for i in range(n)] + [f"eta_gap_{i + 1}" for i in range(n)]
    if not rows or rows[0].split(",") != header:
        return [f"profile header is not {','.join(header)!r}"]
    if len(rows) - 1 != n_cells + 1:
        return [f"profile has {len(rows) - 1} rows, expected {n_cells + 1}"]
    try:
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    except ValueError as exc:
        return [f"profile has a non-numeric field: {exc}"]
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        return ["profile rows are ragged or not finite"]
    problems = []
    x, f = data[:, 0], data[:, 1:1 + n].T
    if not np.array_equal(x, -x[::-1]):
        problems.append("profile grid is not symmetric about 0")
    eta = np.asarray(eta, dtype=float)[:, None]
    xi = np.asarray(xi, dtype=float)[:, None]
    below = float(np.max(eta - slack - f))
    above = float(np.max(f - xi - slack))
    if below > 0.0 or above > 0.0:
        problems.append(f"profile leaves [eta, xi] by {max(below, above):.3e} "
                        f"beyond mono_slack {slack:.3e}")
    odd = float(np.max(np.abs(f - f[:, ::-1])))
    if odd > EVEN_TOL:
        problems.append(f"profile is not even: |f(x) - f(-x)| = {odd:.3e}")
    return problems


def check_solved(out_dir, report: dict) -> list:
    """Problems with a solve or sweep run's report and profiles."""
    out_dir = Path(out_dir)
    n_cells = report["truncation"]["n_cells"]
    tol_stop = report["config"]["numerics"]["tol_stop"]
    problems = []
    for label, entry, profile in _solved_entries(report):
        solve = entry["solve"]
        slack = entry["quadrature_error"]["mono_slack"]
        spectral = entry["spectral"]
        if solve["termination"] != "step_below_tol":
            problems.append(f"{label}: termination {solve['termination']!r}")
        if not solve["residual_sup"] <= tol_stop + slack:
            problems.append(f"{label}: residual {solve['residual_sup']:.3e} "
                            f"> tol_stop + mono_slack {tol_stop + slack:.3e}")
        probe = solve["probe_deviation"]
        if probe is None or not probe <= 2.0 * tol_stop + slack:
            problems.append(f"{label}: probe deviation {probe} "
                            f"> 2 tol_stop + mono_slack {2.0 * tol_stop + slack:.3e}")
        text = (out_dir / profile).read_text()
        problems += [f"{label}: {p}" for p in check_profile(
            text, n_cells, spectral["eta"], spectral["xi"], slack)]
    return problems


def check_refused(report: dict, condition: str) -> list:
    """Problems with a validate run that must fail on ``condition``."""
    failing = [c["condition"] for c in report["validation"]["checks"] if not c["passed"]]
    if condition not in failing:
        return [f"expected condition {condition} to fail, failing: {failing}"]
    return []


def numeric_fields(doc, prefix=""):
    """Flatten every number in ``doc`` to {dotted.path: value}."""
    out = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            out.update(numeric_fields(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            out.update(numeric_fields(v, f"{prefix}{k}."))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix[:-1]] = doc
    return out


def report_numbers(report: dict) -> dict:
    """The report's numeric fields, leaving out the echoed config."""
    return numeric_fields({k: v for k, v in report.items() if k != "config"})


def digest(out_dir, report: dict) -> dict:
    """Hashes of a solved run's profile bytes and report numeric fields."""
    out_dir = Path(out_dir)
    blob = json.dumps(report_numbers(report), sort_keys=True).encode()
    profiles = [p for _, _, p in _solved_entries(report)]
    return {
        "report_numbers_sha256": hashlib.sha256(blob).hexdigest(),
        "profile_sha256": {p: hashlib.sha256((out_dir / p).read_bytes()).hexdigest()
                           for p in profiles},
    }
