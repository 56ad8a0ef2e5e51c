"""validate_problem: all eight admission conditions, positive and negative,
and the report's handoff to run_instance."""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from convint import (
    ExpSqrtWeight,
    GaussianKernel,
    KernelScalars,
    Numerics,
    PowerNonlin,
    PowerPhi,
    ProblemSpec,
    ValidationFailure,
    kernel_scalars,
    load_tabulated_excess,
    load_tabulated_nonlin,
    problem,
    run_instance,
    validate_problem,
)
from convint.problem import CONDITION_IDS

from conftest import write_excess_table, write_linear_nonlin_table, write_nonlin_table

ETA_GAP_NOTE = "table does not cover the computed eta"


def validate(spec, normalize=True, eta_scale=1.0, **kwargs):
    """validate_problem on spec with the run's inputs: the kernel rescaled to
    a unit-radius integral matrix, its kernel scalars, and eta_scale times
    the matrix's eigenvector. When normalize is False the kernel is kept as
    is and eta is one: every such case here is scalar."""
    if not normalize:
        return validate_problem(spec, kernel_scalars(spec.kernel),
                                eta_scale * np.ones(spec.n), **kwargs)
    kernel, scalars, eta, _ = problem.normalize(spec.kernel)
    return validate_problem(dataclasses.replace(spec, kernel=kernel), scalars,
                            eta_scale * eta, **kwargs)


def scalar_spec(weights=None, nonlins=None, phi=None, kernel=None):
    return ProblemSpec(
        n=1,
        kernel=kernel or GaussianKernel([[1.0]]),
        weights=weights or (ExpSqrtWeight(0.1),),
        nonlins=nonlins or (PowerNonlin(alpha=0.5, eta=1.0),),
        phi=phi or PowerPhi(0.5),
    )


class TestReportShape:
    def test_conditions_come_in_canonical_order(self):
        report = validate(scalar_spec())
        assert [c.condition for c in report.checks] == list(CONDITION_IDS)
        assert report.passed
        assert report.failing_ids == []

    def test_as_dict_and_str(self):
        report = validate(scalar_spec())
        doc = report.as_dict()
        assert doc["passed"] is True
        assert len(doc["checks"]) == 8
        for check in doc["checks"]:
            assert set(check) == {"condition", "passed", "worst_point",
                                  "worst_value", "tol", "note"}
        text = str(report)
        assert text.count("pass") == 8 and "FAIL" not in text

    def test_samples_floor(self):
        with pytest.raises(ValueError):
            validate(scalar_spec(), samples=1)


class TestNegativeCases:
    def test_unit_weight_fails_only_condition_a(self):
        report = validate(scalar_spec(weights=(ExpSqrtWeight(0.0),)))
        assert report.failing_ids == ["a"]

    def test_linear_nonlinearity_fails_condition_iii(self, tmp_path):
        lin = load_tabulated_nonlin(write_linear_nonlin_table(tmp_path / "lin.csv"))
        report = validate(scalar_spec(nonlins=(lin,), phi=PowerPhi(1.0)))
        assert "III" in report.failing_ids
        assert "IV" not in report.failing_ids

    def test_mismatched_phi_fails_condition_iv(self):
        report = validate(
            scalar_spec(nonlins=(PowerNonlin(alpha=0.9, eta=1.0),),
                        phi=PowerPhi(0.01)))
        assert report.failing_ids == ["IV"]

    def test_off_critical_kernel_fails_condition_2(self):
        report = validate(scalar_spec(kernel=GaussianKernel([[2.0]])),
                          normalize=False)
        assert "2" in report.failing_ids

    def test_scaled_eta_fails_condition_2(self):
        # 1.1 eta is still an eigenvector, but not the one with max entry 1
        report = validate(scalar_spec(), eta_scale=1.1)
        assert "2" in report.failing_ids
        check = {c.condition: c for c in report.checks}["2"]
        assert check.worst_value == pytest.approx(0.1, rel=1e-12)

    def test_uneven_kernel_fails_condition_1(self):
        class ShiftedKernel:
            n = 1

            def eval(self, i, j, tau):
                tau = np.asarray(tau, dtype=float)
                out = np.exp(-np.square(tau - 0.3)) / np.sqrt(np.pi)
                return out if out.ndim else float(out)

            def scalars(self):
                one = np.ones((1, 1))
                return KernelScalars(a=one, sup=one / np.sqrt(np.pi),
                                     first_moment=one / 2.0)

            def sample_span(self):
                return 8.0

            def one_sided_tail(self, i, j, y):
                return np.zeros_like(np.asarray(y, dtype=float))

        report = validate(scalar_spec(kernel=ShiftedKernel()), normalize=False)
        assert "1" in report.failing_ids

    def test_nonsummable_excess_fails_condition_b(self):
        class HeavyWeight:
            gamma_exponent = 0.0

            def excess(self, t):
                t = np.asarray(t, dtype=float)
                out = 0.1 / (1.0 + np.abs(t))
                return out if out.ndim else float(out)

            def excess_integral_closed(self):
                return float("inf")

            def excess_tail(self, t_from):
                return float("inf")

            def cell_moments_batch(self, edges):
                raise NotImplementedError

        report = validate(scalar_spec(weights=(HeavyWeight(),)))
        assert "b" in report.failing_ids

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_response_map_fails_conditions_i_iii_iv(self, nan_first):
        # a NaN sample must become the worst value and stay it, whichever
        # component it belongs to
        class HoleyPower(PowerNonlin):
            def g(self, u):
                out = np.asarray(super().g(u), dtype=float)
                out = np.where((out > 1.05) & (out < 1.1), np.nan, out)
                return out if out.ndim else float(out)

        maps = [HoleyPower(alpha=0.5, eta=1.0), PowerNonlin(alpha=0.5, eta=1.0)]
        spec = ProblemSpec(n=2, kernel=GaussianKernel([[0.5, 0.5], [0.5, 0.5]]),
                           weights=(ExpSqrtWeight(0.1), ExpSqrtWeight(0.1)),
                           nonlins=maps if nan_first else maps[::-1], phi=PowerPhi(0.5))
        report = validate(spec)
        assert report.failing_ids == ["I", "III", "IV"]
        for check in report.checks:
            if check.condition in ("I", "III", "IV"):
                assert np.isnan(check.worst_value)

    def test_nan_excess_fails_condition_a(self):
        class HoleyWeight(ExpSqrtWeight):
            def excess(self, t):
                out = np.asarray(super().excess(t), dtype=float)
                out = np.where(np.abs(t) > 10.0, np.nan, out)
                return out if out.ndim else float(out)

        report = validate(scalar_spec(weights=(HoleyWeight(0.1),)))
        assert report.failing_ids == ["a"]
        assert np.isnan({c.condition: c for c in report.checks}["a"].worst_value)

    def test_nan_kernel_fails_condition_1(self):
        # the scalars come from the unit-radius kernel itself; only its
        # sampled values carry the NaN
        unit = problem.normalize(GaussianKernel([[1.0]]))[0]

        class HoleyKernel(GaussianKernel):
            def eval(self, i, j, tau):
                out = np.asarray(super().eval(i, j, tau), dtype=float)
                out = np.where(out < 0.3, np.nan, out)
                return out if out.ndim else float(out)

        report = validate(scalar_spec(kernel=HoleyKernel(unit.coeffs)), normalize=False)
        assert report.failing_ids == ["1"]
        assert np.isnan({c.condition: c for c in report.checks}["1"].worst_value)

    def test_nan_at_zero_fails_conditions_i_ii_iv(self):
        class NanAtZero(PowerNonlin):
            def g(self, u):
                out = np.asarray(super().g(u), dtype=float)
                out = np.where(np.asarray(u) == 0.0, np.nan, out)
                return out if out.ndim else float(out)

        report = validate(scalar_spec(nonlins=(NanAtZero(alpha=0.5, eta=1.0),)))
        assert report.failing_ids == ["I", "II", "IV"]
        for check in report.checks:
            if not check.passed:
                assert np.isnan(check.worst_value)

    def test_declared_eta_disagreement_fails_condition_ii(self):
        report = validate(
            scalar_spec(nonlins=(PowerNonlin(alpha=0.5, eta=1.3),)))
        assert "II" in report.failing_ids
        check = {c.condition: c for c in report.checks}["II"]
        assert check.worst_value == pytest.approx(0.3, rel=1e-12)

    def test_short_table_reports_eta_not_covered(self, tmp_path):
        # table tops out below the kernel eigenvector value
        p = tmp_path / "short.csv"
        p.write_text("# eta=0.5\nu,g\n0,0\n0.25,0.353553\n0.5,0.5\n0.7,0.59\n")
        nl = load_tabulated_nonlin(p)
        report = validate(scalar_spec(nonlins=(nl,)))
        check = {c.condition: c for c in report.checks}["II"]
        assert not check.passed
        assert check.note == ETA_GAP_NOTE
        # the coverage gap is reported whole, although the declared eta is
        # further (0.5) from the computed one
        assert check.worst_value == pytest.approx(0.3, rel=1e-12)
        assert check.worst_point == "u=eta computed (1, nonlin 1)"

    def test_reported_defect_keeps_its_own_point_and_note(self):
        class Raised(PowerNonlin):
            # G(eta) = 1.01 eta
            def g(self, u):
                return 1.01 * super().g(u)

        # nonlin 1 is off by 1e-3 in its declared eta, nonlin 2 by 1e-2 in
        # G(eta); the larger defect brings its own point and no note
        spec = ProblemSpec(n=2, kernel=GaussianKernel([[0.6, 0.4], [0.4, 0.6]]),
                           weights=(ExpSqrtWeight(0.1), ExpSqrtWeight(0.1)),
                           nonlins=(PowerNonlin(alpha=0.5, eta=1.001),
                                    Raised(alpha=0.5, eta=1.0)),
                           phi=PowerPhi(0.5))
        report = validate(spec)
        assert report.eta.tolist() == [1.0, 1.0]
        check = {c.condition: c for c in report.checks}["II"]
        assert not check.passed
        assert check.worst_value == pytest.approx(1e-2, rel=1e-12)
        assert check.worst_point == "u=eta declared (1, nonlin 2)"
        assert check.note == ""


class TestHandoff:
    def test_report_carries_what_it_checked(self):
        report = validate(scalar_spec())
        assert report.eta.tolist() == [1.0]
        assert report.excess.b[0, 0] == pytest.approx(0.2, abs=1e-10)
        assert report.xi[0] == pytest.approx(1.44, abs=1e-10)
        assert report.majorant_error is None

    def test_run_instance_refuses_the_unit_weight_report(self):
        report = validate(scalar_spec(weights=(ExpSqrtWeight(0.0),)))
        with pytest.raises(ValidationFailure) as info:
            run_instance(report, Numerics(n_cells=512))
        assert info.value.report is report
        assert str(info.value) == "condition(s) a failed"


class TestTabulatedWorkflow:
    def test_sqrt_table_passes_with_supportable_exponent(self, tmp_path):
        # a pchip interpolant is linear near zero, so the declared scaling
        # exponent must sit below the underlying 1/2 and the tolerance at
        # the table's own fidelity
        nl = load_tabulated_nonlin(write_nonlin_table(tmp_path / "g.csv"))
        spec = scalar_spec(nonlins=(nl,), phi=PowerPhi(0.55))
        report = validate(spec, tol=1e-5)
        assert report.passed, str(report)

    def test_same_table_fails_at_exact_exponent_and_tight_tol(self, tmp_path):
        nl = load_tabulated_nonlin(write_nonlin_table(tmp_path / "g.csv"))
        spec = scalar_spec(nonlins=(nl,), phi=PowerPhi(0.5))
        report = validate(spec, tol=1e-12)
        assert "IV" in report.failing_ids

    def test_excess_table_end_between_round_numbers_passes(self, tmp_path):
        # the last log-spaced |t| sample must not round past the table's
        # end, where the excess reads 0 and condition a would fail
        w = load_tabulated_excess(write_excess_table(tmp_path / "mu.csv", t_max=55.5))
        report = validate(scalar_spec(weights=(w,)))
        assert report.failing_ids == [], str(report)


def test_problem_spec_shape_enforced():
    with pytest.raises(ValueError, match="expected 2 weights, got 1"):
        ProblemSpec(n=2, kernel=GaussianKernel([[0.5, 0.3], [0.3, 0.7]]),
                    weights=(ExpSqrtWeight(0.1),),
                    nonlins=(PowerNonlin(0.5, 1.0), PowerNonlin(0.5, 1.0)),
                    phi=PowerPhi(0.5))
    # a kernel whose size differs from the component count, both ways
    with pytest.raises(ValueError, match="expected a 1-component kernel, got 2"):
        ProblemSpec(n=1, kernel=GaussianKernel([[0.5, 0.3], [0.3, 0.7]]),
                    weights=(ExpSqrtWeight(0.1),),
                    nonlins=(PowerNonlin(0.5, 1.0),),
                    phi=PowerPhi(0.5))
    with pytest.raises(ValueError, match="expected a 2-component kernel, got 1"):
        ProblemSpec(n=2, kernel=GaussianKernel([[1.0]]),
                    weights=(ExpSqrtWeight(0.1), ExpSqrtWeight(0.1)),
                    nonlins=(PowerNonlin(0.5, 1.0), PowerNonlin(0.5, 1.0)),
                    phi=PowerPhi(0.5))


def test_normalize_gives_unit_radius_and_its_eigenvector():
    kernel, scalars, eta, rho = problem.normalize(GaussianKernel([[0.5, 0.3], [0.3, 0.7]]))
    # a Gaussian kernel's integral matrix is its coefficient matrix
    assert rho == pytest.approx(0.6 + np.sqrt(0.1), rel=1e-12)
    assert np.array_equal(scalars.a, kernel_scalars(kernel).a)
    tol = Numerics.tol_eig
    assert inspect.signature(problem.normalize).parameters["tol_eig"].default == tol
    assert abs(float(np.max(np.linalg.eigvalsh(scalars.a))) - 1.0) <= tol
    assert float(np.max(np.abs(scalars.a @ eta - eta))) <= tol
    assert np.max(eta) == 1.0
