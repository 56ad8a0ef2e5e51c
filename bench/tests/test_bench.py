"""Tests of the benchmark's own parts. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    c = workloads.generate(workload, 8, tmp_path / "c")
    assert [i.name for i in a] == [i.name for i in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_self_time_subtracts_child_coverage():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 6.5] -> b1 [5.5, 6]
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("a1", 2.0, 3.0, 1, 1),
        spans.Span("b", 5.0, 6.5, 0, 1),
        spans.Span("b1", 5.5, 6.0, 3, 1),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([5.5, 2.0, 1.0, 1.0, 0.5])
    # self times partition the top-level span
    assert sum(selfs) == pytest.approx(10.0)


def test_self_time_counts_a_child_only_inside_its_parent():
    tree = [
        spans.Span("p", 0.0, 2.0, -1, 1),
        spans.Span("c", 1.0, 3.0, 0, 1),
        spans.Span("d", 1.5, 2.5, 0, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([1.0, 2.0, 1.0])


def test_totals_do_not_double_count_recursion():
    tree = [
        spans.Span("f", 0.0, 4.0, -1, 1),
        spans.Span("f", 1.0, 2.0, 0, 1),
        spans.Span("g", 2.5, 3.0, 0, 1),
    ]
    totals = spans.span_totals(tree, spans.self_times(tree))
    assert totals["f"] == pytest.approx((2, 4.0, 3.5))
    assert totals["g"] == pytest.approx((1, 0.5, 0.5))
    assert spans.count_within(tree, "g", "f") == 1
    assert spans.count_within(tree, "f", "g") == 0


def _profile(n_cells=8, eta=1.0, peak=0.3):
    x = [(-1.0 + 2.0 * k / n_cells) for k in range(n_cells + 1)]
    f = [eta + peak / (1.0 + 4.0 * v * v) for v in x]
    rows = ["x,f_1,eta_gap_1"]
    rows += [f"{a!r},{b!r},{b - eta!r}" for a, b in zip(x, f)]
    return "\n".join(rows) + "\n"


def test_profile_check_accepts_a_valid_profile():
    assert checks.check_profile(_profile(), 8, [1.0], [1.5], 1e-9) == []


def test_profile_check_rejects_corruption():
    good = _profile().splitlines()

    odd = list(good)
    x, f, gap = odd[3].split(",")
    odd[3] = f"{x},{float(f) + 1e-9!r},{gap}"
    assert any("not even" in p for p in
               checks.check_profile("\n".join(odd), 8, [1.0], [1.5], 1e-9))

    short = "\n".join(good[:-1])
    assert any("rows" in p for p in checks.check_profile(short, 8, [1.0], [1.5], 1e-9))

    # the peak 1.3 sits above xi = 1.2
    assert any("leaves [eta, xi]" in p for p in
               checks.check_profile("\n".join(good), 8, [1.0], [1.2], 1e-9))

    garbled = list(good)
    garbled[5] = garbled[5].replace(",", ",nan-ish", 1)
    assert checks.check_profile("\n".join(garbled), 8, [1.0], [1.5], 1e-9)


def test_solved_check_applies_the_acceptance_bounds(tmp_path):
    (tmp_path / "profile.csv").write_text(_profile())
    report = {
        "config": {"numerics": {"tol_stop": 1e-8}},
        "truncation": {"n_cells": 8},
        "spectral": {"eta": [1.0], "xi": [1.5]},
        "quadrature_error": {"mono_slack": 1e-6},
        "solve": {"termination": "step_below_tol", "residual_sup": 1e-7,
                  "probe_deviation": 1e-7},
    }
    assert checks.check_solved(tmp_path, report) == []
    report["solve"]["residual_sup"] = 2e-6
    report["solve"]["termination"] = "iteration_cap"
    problems = checks.check_solved(tmp_path, report)
    assert len(problems) == 2


def test_tracer_wraps_every_name_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import convint.cli
    import convint.solver

    solve, cli_solve = convint.solver.solve, convint.cli.solve
    assert solve is cli_solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert convint.cli.solve is convint.solver.solve is not solve
        assert convint.solver.apply_operator is convint.discretization.apply_operator
        convint.discretization.build_grid(1.0, 4)
    finally:
        tracer.uninstall()
    assert convint.solver.solve is solve and convint.cli.solve is cli_solve
    assert [s.name for s in tracer.spans] == ["discretization.build_grid"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
