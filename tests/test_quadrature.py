import math
from unittest import mock

import numpy as np
import pytest

from debye_screen import quadrature
from debye_screen.errors import ConvergenceError, IntegrandError, SamplerMismatchError
from debye_screen.quadrature import (
    CubicBallSampler,
    integrate_radial_angular,
    integrate_semi_infinite,
    monte_carlo_6d,
    sine_transform_radial,
)
from debye_screen.quadrature import TestProfile as GaussianTestProfile
from debye_screen.quadrature import _quad, _sine_transform_diag


class TestSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: math.exp(-x), 1.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_three(self):
        res = integrate_semi_infinite(lambda x: x * x * math.exp(-x), 1.0, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_power_tail(self):
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x) ** 2, 1.0, 1e-9)
        assert res.value == pytest.approx(math.pi / 4.0, abs=1e-9)
        assert res.converged

    @pytest.mark.parametrize("f, tol, exact", [
        (lambda x: 1.0 / (1.0 + x) ** 2, 1e-8, 1.0),
        (lambda x: 1.0 / (1.0 + x) ** 1.5, 1e-10, 2.0),
    ])
    def test_algebraic_tail_reports_convergence_honestly(self, f, tol, exact):
        # the tail beyond any cutoff is part of the error estimate, so a
        # slowly decaying integrand is either reached or flagged
        res = integrate_semi_infinite(f, 1.0, tol)
        assert res.converged
        assert abs(res.value - exact) <= tol
        assert abs(res.value - exact) <= res.error_estimate

    def test_bessel_integral_representation(self):
        # 2*int_1^inf sqrt(x^2-1)e^-x dx + int_1^inf e^-x/sqrt(x^2-1) dx
        # equals K2(1); the second integrand has an integrable endpoint
        # singularity handled by the substitution x = 1 + u^2
        first = integrate_semi_infinite(
            lambda u: math.sqrt(u * (u + 2.0)) * math.exp(-(1.0 + u)), 1.0, 1e-10
        )
        second = integrate_semi_infinite(
            lambda u: 2.0 * math.exp(-(1.0 + u * u)) / math.sqrt(u * u + 2.0), 1.0, 1e-10
        )
        total = 2.0 * first.value + second.value
        assert total == pytest.approx(1.6248388986351774828, rel=1e-8)

    def test_nan_names_abscissa(self):
        def bad(x):
            return math.nan if 2.0 < x < 3.0 else math.exp(-x)

        with pytest.raises(IntegrandError) as exc:
            integrate_semi_infinite(bad, 1.0, 1e-8)
        assert 2.0 < exc.value.abscissa < 3.0

    def test_unreachable_tolerance_flagged_not_raised(self):
        # 1e-20 is below the rounding level of an integral of order one
        res = integrate_semi_infinite(lambda x: math.exp(-x), 1.0, 1e-20)
        assert not res.converged
        assert res.error_estimate > 1e-20

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: math.exp(-x), 1.0, 0.0)


class TestGaussKronrod:
    """The package's own adaptive rule against scipy's QUADPACK as oracle."""

    def test_breakpoints_on_finite_interval(self):
        from scipy.integrate import quad

        def f(x):
            return math.exp(-abs(x - 0.3)) * math.cos(3.0 * x) + (x > 1.1)

        ref = quad(f, -1.0, 2.0, points=[0.3, 1.1], epsabs=0.0, epsrel=1e-13, limit=200)[0]
        val, err = _quad(f, -1.0, 2.0, epsabs=0.0, epsrel=1e-12, limit=200, points=[1.1, 0.3])
        assert err <= 1e-12 * abs(val)
        assert val == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a", [3.0, 1.0e4])
    def test_semi_infinite_from_nonzero_start(self, a):
        from scipy.integrate import quad

        def f(s):
            return s * s * (1.0 + s) ** -3 * (1.0 + 0.5 * s) ** -1.5

        ref = quad(f, a, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        val, err = _quad(f, a, math.inf, epsabs=0.0, epsrel=1e-10)
        assert err <= 1e-10 * abs(val)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_limit_cap_reports_honest_error(self):
        # sqrt has an endpoint singularity in its derivative, so three
        # panels cannot reach 1e-14; the error must say so and still bound
        # the true error, and more panels must then get there
        val, err = _quad(math.sqrt, 0.0, 1.0, epsabs=1e-14, epsrel=0.0, limit=3)
        assert err > 1e-14
        assert abs(val - 2.0 / 3.0) <= err
        val, err = _quad(math.sqrt, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, limit=200)
        assert err <= 1e-10
        assert abs(val - 2.0 / 3.0) <= 1e-10


class TestRadialAngular:
    def test_gaussian_ball(self):
        res = integrate_radial_angular(lambda p, t: np.exp(-p * p), 1e-9)
        assert res.value == pytest.approx(math.pi ** 1.5, abs=1e-9)

    def test_odd_angular_vanishes(self):
        res = integrate_radial_angular(lambda p, t: t * np.exp(-p), 1e-10)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_angle_weighted(self):
        res = integrate_radial_angular(lambda p, t: np.exp(-p * p) * (1.0 + t * t), 1e-9)
        assert res.value == pytest.approx(math.pi ** 1.5 * 4.0 / 3.0, abs=1e-8)

    def test_evaluations_count_the_kernel_abscissae(self):
        seen = []

        def kernel(p, t):
            seen.append(np.broadcast(p, t).size)
            return np.exp(-p * p) * (1.0 + t * t)

        res = integrate_radial_angular(kernel, 1e-9, inner_points=lambda p: (-0.4, 0.3))
        assert res.evaluations == sum(seen) > 0

    def test_nonfinite_kernel_names_the_abscissa(self):
        def kernel(p, t):
            return np.where(t > 0.5, np.nan, np.exp(-p * p))

        with pytest.raises(IntegrandError) as exc:
            integrate_radial_angular(kernel, 1e-9)
        p, t = exc.value.abscissa
        assert p > 0.0 and t > 0.5


class TestSineTransform:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 5.0])
    def test_yukawa_pair(self, mu):
        r_grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
        vals = sine_transform_radial(lambda p: 1.0 / (p * p + mu * mu), r_grid, 1e-7)
        for r, v in zip(r_grid, vals):
            exact = math.exp(-mu * r) / (4.0 * math.pi * r)
            assert v == pytest.approx(exact, rel=1e-6)

    def test_spot_values(self):
        # closed forms frozen to 20 digits
        v = sine_transform_radial(lambda p: 1.0 / (p * p + 1.0), [1.0], 1e-9)[0]
        assert v == pytest.approx(0.029274915762159580345, rel=1e-9)
        v = sine_transform_radial(lambda p: 1.0 / (p * p + 4.0), [2.0], 1e-9)[0]
        assert v == pytest.approx(0.00072875611625704839808, rel=1e-8)

    def test_zero_function(self):
        vals = sine_transform_radial(lambda p: np.zeros_like(p), [0.5, 1.0, 2.0], 1e-10)
        assert vals == [0.0, 0.0, 0.0]

    def test_gaussian_pair(self):
        for r in (0.3, 1.0, 3.0):
            v = sine_transform_radial(lambda p: np.exp(-0.5 * p * p), [r], 1e-10)[0]
            exact = math.exp(-0.5 * r * r) / (2.0 * math.pi) ** 1.5
            assert v == pytest.approx(exact, rel=1e-7)

    def test_linearity(self):
        f = lambda p: 1.0 / (p * p + 1.0)
        g = lambda p: np.exp(-p * p)
        both = lambda p: 2.0 * f(p) + 0.5 * g(p)
        a = sine_transform_radial(both, [1.5], 1e-10)[0]
        b = sine_transform_radial(f, [1.5], 1e-10)[0]
        c = sine_transform_radial(g, [1.5], 1e-10)[0]
        assert a == pytest.approx(2.0 * b + 0.5 * c, abs=1e-10)

    def test_scalar_integrand_raises(self):
        # no per-abscissa fallback: a float-only integrand fails on the
        # first array it is handed
        calls = []

        def f(p):
            calls.append(p)
            return math.exp(-p * p)

        with pytest.raises(TypeError):
            sine_transform_radial(f, [1.0], 1e-8)
        assert len(calls) == 1

    def test_underflowed_lobes_stop_at_the_rounding_floor(self):
        # Coulomb profile of a unit Gaussian source; beyond p ~ 25 the
        # integrand has underflowed, and those lobes must not be bisected
        radii = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals, _errs, evals = _sine_transform_diag(
            lambda p: np.exp(-0.5 * p * p) / (p * p), radii, 1e-9)
        for r, v in zip(radii, vals):
            exact = math.erf(r / math.sqrt(2.0)) / (4.0 * math.pi * r)
            assert v == pytest.approx(exact, rel=1e-12)
        assert evals <= 5000 * len(radii)

    def test_nonfinite_integrand_names_the_abscissa(self):
        # NaN at the sixth Gauss-Legendre node of the fourth lobe at r = 1
        node = 3.5 * math.pi + 0.5 * math.pi * np.polynomial.legendre.leggauss(16)[0][5]

        def f(p):
            return np.where(np.abs(p - node) < 1e-9, np.nan, np.exp(-p * p))

        with pytest.raises(IntegrandError) as info:
            sine_transform_radial(f, [1.0], 1e-8)
        assert info.value.abscissa == pytest.approx(node, abs=1e-12)

    @pytest.mark.parametrize("patch, fake, match", [
        # a lobe sum that missed tol by truncation
        ("_osc_integral", (1.0, 0.5, 0, 1.0), "did not converge"),
        # a deep cancellation whose big-float rerun gave up
        ("_osc_integral_mp", (0.0, math.inf, 0, False), "big-float rerun"),
    ])
    def test_unconverged_value_raises(self, monkeypatch, patch, fake, match):
        monkeypatch.setattr(quadrature, patch, lambda *args: fake)
        with pytest.raises(ConvergenceError, match=match):
            sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [10.0], 1e-7)

    @pytest.mark.parametrize("r", [10.0, 20.0])
    def test_big_float_rerun_is_bounded(self, r):
        # e^{-mu r} sits 22 and 44 digits below the lobe mass
        vals, _errs, evals = _sine_transform_diag(lambda p: 1.0 / (p * p + 25.0), [r], 1e-7)
        assert vals[0] == pytest.approx(math.exp(-5.0 * r) / (4.0 * math.pi * r), rel=1e-6)
        assert evals < 10_000

    def test_big_float_rerun_restores_precision(self):
        from mpmath import mp

        def f_hat(p):
            # maps mpmath floats at the decay probes, fails inside the rerun
            if isinstance(p, mp.mpf) and p < 1:
                raise ArithmeticError("no big floats below p = 1")
            return 1.0 / (p * p + 25.0)

        before = mp.dps
        sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [10.0], 1e-7)
        assert mp.dps == before
        with pytest.raises(ArithmeticError):
            sine_transform_radial(f_hat, [10.0], 1e-7)
        assert mp.dps == before

    def test_big_float_passes_must_agree(self, monkeypatch):
        # a confirming rule whose weights are 1e-5 off cannot confirm
        # the first pass to tol 1e-7
        rule = quadrature._mp_gauss_legendre

        def skewed(degree, prec):
            nodes = rule(degree, prec)
            return [(x, w * 1.00001) for x, w in nodes] if degree == 4 else nodes

        monkeypatch.setattr(quadrature, "_mp_gauss_legendre", skewed)
        with pytest.raises(ConvergenceError, match="big-float rerun at r = 10.0"):
            sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [10.0], 1e-7)

    def test_slow_decay_rejected(self):
        with pytest.raises(ValueError):
            sine_transform_radial(lambda p: 1.0 / (1.0 + p), [1.0], 1e-6)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            sine_transform_radial(lambda p: math.exp(-p * p), [1.0, 0.0], 1e-6)


class TestProfileShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianTestProfile(width=0.0)
        with pytest.raises(ValueError):
            GaussianTestProfile(support_radius=-1.0)
        with pytest.raises(ValueError):
            GaussianTestProfile(kind="tophat")

    def test_momentum_profile_fast_decay(self):
        prof = GaussianTestProfile(width=1.0)
        p = np.array([1.0, 5.0, 10.0, 20.0])
        f = prof.f_hat(p)
        # faster than any power: ratio test against p^8
        assert f[3] * 20.0 ** 8 < f[0]


class TestMonteCarlo:
    def test_gaussian_product(self):
        s = CubicBallSampler()
        res = monte_carlo_6d(
            lambda x, y: np.exp(-np.sum(x * x, axis=1) - np.sum(y * y, axis=1)),
            s, 400_000, seed=42,
        )
        assert abs(res.value - math.pi ** 3) < 3.0 * res.error_estimate

    def test_ball_volumes(self):
        s = CubicBallSampler()
        res = monte_carlo_6d(
            lambda x, y: np.where(np.sum(x * x, axis=1) < 1.0, 1.0, 0.0)
            * np.where(np.sum(y * y, axis=1) < 1.0, 1.0, 0.0),
            s, 400_000, seed=7,
        )
        assert abs(res.value - (4.0 * math.pi / 3.0) ** 2) < 3.0 * res.error_estimate

    def test_per_sample_integrand_rejected(self):
        # a pair-of-3-vectors integrand reduces a whole block to one number
        s = CubicBallSampler()
        with pytest.raises(ValueError, match=r"shape \(20000,\), got \(\)"):
            monte_carlo_6d(
                lambda x, y: math.exp(-np.dot(x[0], x[0]) - np.dot(y[0], y[0])),
                s, 20_000, seed=3,
            )

    def test_seed_reproducible(self):
        s = CubicBallSampler()
        f = lambda x, y: np.exp(-np.sum(x * x, axis=1) - np.sum(y * y, axis=1))
        a = monte_carlo_6d(f, s, 300_000, seed=11)
        b = monte_carlo_6d(f, s, 300_000, seed=11)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_worker_count_invariance(self):
        s = CubicBallSampler()
        f = lambda x, y: np.exp(-np.sum(x * x, axis=1) - np.sum(y * y, axis=1))
        with mock.patch("os.cpu_count", return_value=1):
            a = monte_carlo_6d(f, s, 600_000, seed=5)
        with mock.patch("os.cpu_count", return_value=4):
            b = monte_carlo_6d(f, s, 600_000, seed=5)
        assert a.value == b.value

    def test_zero_density_sampler_rejected(self):
        class Degenerate:
            def draw(self, rng, n):
                x = rng.normal(size=(n, 3))
                return x, x.copy(), np.zeros(n)

        with pytest.raises(SamplerMismatchError):
            monte_carlo_6d(lambda x, y: np.ones(len(x)), Degenerate(), 1000, seed=0)

    def test_negative_integrand_rejected(self):
        s = CubicBallSampler()
        with pytest.raises(ValueError):
            monte_carlo_6d(lambda x, y: -np.ones(len(x)), s, 1000, seed=0)


class TestCubicBallSampler:
    def test_radial_law(self):
        s = CubicBallSampler()
        rng = np.random.default_rng(0)
        x = s._draw_vectors(rng, 100_000)
        r = np.linalg.norm(x, axis=1)
        # P(r<1) for density prop to (1+r)^{-3}: ratio of radial masses
        from scipy.integrate import quad

        num = quad(lambda t: t * t / (1 + t) ** 3, 0, 1)[0]
        den = quad(lambda t: t * t / (1 + t) ** 3, 0, s.radius)[0]
        frac = np.mean(r < 1.0)
        assert frac == pytest.approx(num / den, abs=4.0 * math.sqrt(0.01 / 100_000) + 2e-3)

    def test_truncation_bias_small(self):
        s = CubicBallSampler()
        assert 0.0 < s.truncation_bias_bound() < 1e-3
