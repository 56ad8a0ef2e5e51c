"""validate_problem: all eight admission conditions, positive and negative,
and the report's handoff to run_instance."""

from __future__ import annotations

import dataclasses

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
    perron_vector,
    run_instance,
    spectral_radius,
    validate_problem,
)
from convint.problem import CONDITION_IDS

from conftest import write_excess_table, write_linear_nonlin_table, write_nonlin_table

ETA_GAP_NOTE = "table does not cover the computed eta"


def validate(spec, normalize=True, eta_scale=1.0, **kwargs):
    """validate_problem on spec with the run's inputs: the kernel rescaled to
    a unit-radius integral matrix (kept as is when normalize is False), its
    kernel scalars, and eta_scale times the matrix's eigenvector."""
    scalars = kernel_scalars(spec.kernel)
    rho = spectral_radius(scalars.a)
    if normalize:
        spec = dataclasses.replace(spec, kernel=spec.kernel.rescaled(1.0 / rho))
        scalars, rho = kernel_scalars(spec.kernel), 1.0
    eta = eta_scale * perron_vector(scalars.a / rho)
    return validate_problem(spec, scalars, eta, **kwargs)


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
    with pytest.raises(ValueError):
        ProblemSpec(n=2, kernel=GaussianKernel([[1.0]]),
                    weights=(ExpSqrtWeight(0.1),),
                    nonlins=(PowerNonlin(0.5, 1.0), PowerNonlin(0.5, 1.0)),
                    phi=PowerPhi(0.5))
    with pytest.raises(ValueError):
        ProblemSpec(n=1, kernel=GaussianKernel([[1.0]]),
                    weights=(ExpSqrtWeight(0.1),),
                    nonlins=(PowerNonlin(0.5, 1.0),),
                    phi=PowerPhi(0.5), labels=("a", "b"))


def test_labels_normalized_to_strings():
    spec = ProblemSpec(n=1, kernel=GaussianKernel([[1.0]]),
                       weights=(ExpSqrtWeight(0.1),),
                       nonlins=(PowerNonlin(0.5, 1.0),),
                       phi=PowerPhi(0.5), labels=[7])
    assert spec.labels == ("7",)
