"""Spectral stage and the algebraic majorant: oracles and failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from convint import (
    MajorantError,
    PowerNonlin,
    PowerPhi,
    SpectralError,
    a_priori_iterations,
    algebra,
    contraction_params,
    perron_vector,
    solve_xi,
    spectral_radius,
)


def random_spd_like(rng, n):
    """Random symmetric entrywise-positive matrix (not necessarily PSD)."""
    m = rng.uniform(0.2, 2.0, size=(n, n))
    return 0.5 * (m + m.T)


class TestSpectral:
    def test_radius_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            m = random_spd_like(rng, n)
            want = float(np.max(np.abs(np.linalg.eigvalsh(m))))
            assert spectral_radius(m) == pytest.approx(want, rel=1e-11)

    def test_perron_identity_random_matrices(self):
        rng = np.random.default_rng(20260816)
        for n in range(2, 9):
            m = random_spd_like(rng, n)
            a = m / spectral_radius(m)
            eta = perron_vector(a)
            assert float(np.max(eta)) == pytest.approx(1.0, abs=1e-15)
            assert np.all(eta > 0.0)
            assert float(np.max(np.abs(a @ eta - eta))) <= 1e-10

    def test_perron_rejects_unnormalized(self, monkeypatch):
        monkeypatch.setattr(algebra, "STEP_CAP", 50)
        with pytest.raises(SpectralError, match="radius estimate 2 "):
            perron_vector(np.array([[2.0]]))

    def test_structural_rejects(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, 0.5]]))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, -0.1], [-0.1, 1.0]]))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, 0.2], [0.4, 1.0]]))


class TestMajorant:
    def test_scalar_closed_form(self):
        # fixed point of tau = (1 + b) eta^(1-alpha) tau^alpha is
        # eta (1 + b)^(1/(1-alpha))
        for alpha, b in ((0.5, 0.2), (0.3, 0.7), (0.8, 0.05)):
            nl = (PowerNonlin(alpha=alpha, eta=1.0),)
            xi = solve_xi(np.array([[1.0]]), np.array([[b]]), nl, np.ones(1))
            assert xi[0] == pytest.approx((1.0 + b) ** (1.0 / (1.0 - alpha)),
                                          rel=1e-12)

    def test_dominates_eta(self):
        a = np.array([[0.6, 0.4], [0.4, 0.6]])
        eta = perron_vector(a)
        b = np.array([[0.1, 0.05], [0.1, 0.05]])
        nls = (PowerNonlin(0.5, float(eta[0])), PowerNonlin(0.4, float(eta[1])))
        xi = solve_xi(a, b, nls, eta)
        assert np.all(xi > eta)
        # fixed point identity
        g = np.array([float(nls[j].g(xi[j])) for j in range(2)])
        np.testing.assert_allclose((a + b) @ g, xi, rtol=1e-11)

    def test_map_is_never_evaluated_twice_at_one_point(self):
        # the image of the accepted supersolution s * eta is the iteration's
        # first step, not evaluated again there
        seen = []

        class Recorded(PowerNonlin):
            def g(self, u):
                seen.append(float(u))
                return super().g(u)

        xi = solve_xi(np.array([[1.0]]), np.array([[0.2]]), (Recorded(0.5, 1.0),), np.ones(1))
        assert len(seen) == len(set(seen))
        assert xi[0] == pytest.approx(1.2 ** 2, rel=1e-12)

    def test_zero_excess_returns_eta(self):
        nl = (PowerNonlin(alpha=0.5, eta=1.0),)
        xi = solve_xi(np.array([[1.0]]), np.zeros((1, 1)), nl, np.ones(1))
        assert xi[0] == pytest.approx(1.0, abs=1e-12)

    def test_superlinear_growth_refused(self):
        # quadratic growth outruns every doubled start, so the supersolution
        # search must give up instead of looping forever
        class Quadratic:
            eta = 1.0

            def g(self, u):
                return np.square(np.asarray(u, dtype=float)) * 2.0

        with pytest.raises(MajorantError):
            solve_xi(np.array([[1.0]]), np.array([[0.2]]), (Quadratic(),), np.ones(1))

    def test_huge_excess_mass_refused_without_overflow_warnings(self):
        # sqrt growth is concave, but b = 1e306 puts every image s * eta up
        # to s = 2^60 above it, most beyond the float range
        with pytest.raises(MajorantError, match=r"^no supersolution found by doubling s \* eta "
                                                r"up to s = 2\^60; .* an excess mass be too "
                                                r"large$"):
            solve_xi(np.array([[1.0]]), np.array([[1e306]]), (PowerNonlin(0.5, 1.0),),
                     np.ones(1))

    def test_input_validation(self):
        nl = (PowerNonlin(0.5, 1.0),)
        with pytest.raises(ValueError):
            solve_xi(np.array([[1.0]]), np.array([[-0.1]]), nl, np.ones(1))
        with pytest.raises(ValueError):
            solve_xi(np.array([[1.0]]), np.array([[0.1]]), nl, np.zeros(1))


class TestContraction:
    def test_flagship_values(self):
        eta = np.ones(1)
        xi = np.array([1.44])
        sigma, k = contraction_params(eta, xi, PowerPhi(0.5))
        assert sigma == pytest.approx(1.0 / 1.44, rel=1e-15)
        want_k = (1.0 - (sigma / 2.0) ** 0.5) / (1.0 - sigma / 2.0)
        assert k == pytest.approx(want_k, rel=1e-15)
        assert k == pytest.approx(0.6292253857193053, rel=1e-12)

    def test_sigma_outside_unit_interval(self):
        with pytest.raises(MajorantError):
            contraction_params(np.ones(1), np.ones(1), PowerPhi(0.5))
        with pytest.raises(MajorantError):
            contraction_params(np.array([2.0]), np.ones(1), PowerPhi(0.5))

    def test_identity_phi_gives_no_contraction(self):
        with pytest.raises(MajorantError):
            contraction_params(np.ones(1), np.array([1.44]), PowerPhi(1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            contraction_params(np.ones(2), np.ones(1), PowerPhi(0.5))


class TestAPriori:
    def test_definition_is_tight(self):
        for sigma, k, tol in ((0.69, 0.63, 1e-8), (0.74, 0.71, 1e-6),
                              (0.2, 0.9, 1e-10)):
            n = a_priori_iterations(sigma, k, tol)
            bound = lambda m: k ** m * (1.0 - sigma) / (1.0 - k)
            assert bound(n) <= tol
            assert n == 1 or bound(n - 1) > tol

    def test_flagship_count(self):
        sigma = 1.0 / 1.44
        k = (1.0 - (sigma / 2.0) ** 0.5) / (1.0 - sigma / 2.0)
        assert a_priori_iterations(sigma, k, 1e-8) == 40

    def test_input_validation(self):
        with pytest.raises(ValueError):
            a_priori_iterations(0.0, 0.5, 1e-8)
        with pytest.raises(ValueError):
            a_priori_iterations(0.5, 1.0, 1e-8)
        with pytest.raises(ValueError):
            a_priori_iterations(0.5, 0.5, 0.0)
