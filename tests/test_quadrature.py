import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from debye_screen import quadrature
from debye_screen.errors import ConvergenceError, IntegrandError, SamplerMismatchError
from debye_screen.quadrature import (
    CubicBallSampler,
    integrate_radial_angular,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    monte_carlo_6d,
    sine_transform_radial,
)
from debye_screen.quadrature import TestProfile as GaussianTestProfile
from debye_screen.quadrature import _qag


def _one(f, edges, epsabs, epsrel, limit=50, scale=1.0):
    """One _qag integral of f(x) over the panels between ``edges``: (value, error, evaluations)."""
    return _qag(lambda x, _: f(x), [edges], [scale], [epsabs], epsrel, limit)[0]


class TestSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_three(self):
        res = integrate_semi_infinite(lambda x: x * x * np.exp(-x), 1.0, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_power_tail(self):
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x) ** 2, 1.0, 1e-9)
        assert res.value == pytest.approx(math.pi / 4.0, abs=1e-9)

    @pytest.mark.parametrize("f, tol, exact", [
        (lambda x: 1.0 / (1.0 + x) ** 2, 1e-8, 1.0),
        (lambda x: 1.0 / (1.0 + x) ** 1.5, 1e-10, 2.0),
    ])
    def test_algebraic_tail_reports_convergence_honestly(self, f, tol, exact):
        # the tail beyond any cutoff is part of the error estimate, so a
        # slowly decaying integrand is either reached or raises
        res = integrate_semi_infinite(f, 1.0, tol)
        assert abs(res.value - exact) <= tol
        assert abs(res.value - exact) <= res.error_estimate

    def test_bessel_integral_representation(self):
        # 2*int_1^inf sqrt(x^2-1)e^-x dx + int_1^inf e^-x/sqrt(x^2-1) dx
        # equals K2(1); the second integrand has an integrable endpoint
        # singularity handled by the substitution x = 1 + u^2
        first = integrate_semi_infinite(
            lambda u: np.sqrt(u * (u + 2.0)) * np.exp(-(1.0 + u)), 1.0, 1e-10
        )
        second = integrate_semi_infinite(
            lambda u: 2.0 * np.exp(-(1.0 + u * u)) / np.sqrt(u * u + 2.0), 1.0, 1e-10
        )
        total = 2.0 * first.value + second.value
        assert total == pytest.approx(1.6248388986351774828, rel=1e-8)

    def test_nan_names_abscissa(self):
        def bad(x):
            return np.where((2.0 < x) & (x < 3.0), math.nan, np.exp(-x))

        with pytest.raises(IntegrandError) as exc:
            integrate_semi_infinite(bad, 1.0, 1e-8)
        assert 2.0 < exc.value.abscissa < 3.0

    def test_unreachable_tolerance_raises(self):
        # 1e-20 is below the rounding level of an integral of order one;
        # the error carries the value and error the integral reached
        with pytest.raises(ConvergenceError, match="missed relative tol 1.0e-20") as exc:
            integrate_semi_infinite(lambda x: np.exp(-x), 1.0, 1e-20)
        assert exc.value.estimate == pytest.approx(1.0, rel=1e-12)
        assert exc.value.error_estimate > 1e-20

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda x: np.exp(-x), 1.0, 0.0)

    def test_evaluations_count_the_abscissae_received(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x * x * np.exp(-x)

        res = integrate_semi_infinite(f, 1.0, 1e-10)
        # one call for the first panel, then one per bisection for both halves
        assert sizes[0] == 21 and len(sizes) > 1 and set(sizes[1:]) == {42}
        assert res.evaluations == sum(sizes)
        assert res.evaluations % 21 == 0

    @pytest.mark.parametrize("call", [
        lambda f: integrate_semi_infinite(f, 1.0, 1e-8),
        lambda f: _one(f, (0.0, 1.0), 1.49e-8, 1.49e-8),
    ], ids=["semi_infinite", "finite"])
    def test_scalar_integrand_raises(self, call):
        # integrands get their abscissae as an array; there is no scalar
        # fallback
        calls = []

        def scalar_only(x):
            calls.append(x)
            return math.exp(-x)

        with pytest.raises(TypeError):
            call(scalar_only)
        assert len(calls) == 1


class TestSemiInfiniteBatch:
    """K integrals in lockstep, each the integral it is alone."""

    RATES = (0.3, 1.0, 2.5, 7.0)

    @staticmethod
    def integrand(rates):
        rates = np.asarray(rates)
        return lambda x, k: x * x * np.exp(-rates[k] * x) / (1.0 + x)

    def test_each_integral_is_its_own_call_to_the_bit(self):
        batch = integrate_semi_infinite_batch(self.integrand(self.RATES), [1.0, 0.5, 2.0, 1.0],
                                              1e-10, points=[[1.0], None, [0.2, 3.0], None])
        for res, rate, scale, pts in zip(batch, self.RATES, [1.0, 0.5, 2.0, 1.0],
                                         [[1.0], None, [0.2, 3.0], None]):
            alone = integrate_semi_infinite_batch(self.integrand([rate]), [scale], 1e-10,
                                                  points=[pts])
            assert [res] == alone

    def test_one_call_a_round_with_the_owner_of_each_abscissa(self):
        calls = []
        f = self.integrand(self.RATES)

        def recorded(x, k):
            calls.append(np.bincount(k, minlength=len(self.RATES)))
            return f(x, k)

        batch = integrate_semi_infinite_batch(recorded, [1.0] * 4, 1e-10)
        rounds = len(calls)
        # every integral takes one panel, then two per round while it runs
        assert list(calls[0]) == [21] * 4
        assert all(set(c.tolist()) <= {0, 42} for c in calls[1:])
        assert [res.evaluations for res in batch] == np.sum(calls, axis=0).tolist()
        assert rounds == 1 + max(res.evaluations for res in batch) // 42

    def test_a_failing_integral_stops_no_other(self):
        # a NaN in the second integral and a missed tolerance in the third
        # come back in their places; the others are their own calls
        f = self.integrand(self.RATES)

        def bad(x, k):
            out = f(x, k)
            return np.where((k == 1) & (x > 2.0), np.nan, np.where(k == 2, 1.0 / (1.0 + x), out))

        batch = integrate_semi_infinite_batch(bad, [1.0] * 4, 1e-10)
        assert isinstance(batch[1], IntegrandError) and batch[1].abscissa > 2.0
        assert isinstance(batch[2], ConvergenceError)
        for j in (0, 3):
            assert batch[j] == integrate_semi_infinite(
                lambda x: self.integrand([self.RATES[j]])(x, 0), 1.0, 1e-10)

    def test_bad_scales_rejected(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite_batch(self.integrand(self.RATES), [1.0, 0.0], 1e-8)


class TestGaussKronrod:
    """The package's own adaptive rule against scipy's QUADPACK as oracle."""

    def test_breakpoints_on_finite_interval(self):
        from scipy.integrate import quad

        def f(x):
            return np.exp(-abs(x - 0.3)) * np.cos(3.0 * x) + (x > 1.1)

        ref = quad(f, -1.0, 2.0, points=[0.3, 1.1], epsabs=0.0, epsrel=1e-13, limit=200)[0]
        val, err, _ = _one(f, [-1.0, 0.3, 1.1, 2.0], epsabs=0.0, epsrel=1e-12, limit=200)
        assert err <= 1e-12 * abs(val)
        assert val == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a", [3.0, 1.0e4])
    def test_semi_infinite_from_nonzero_start(self, a):
        from scipy.integrate import quad

        def f(s):
            return s * s * (1.0 + s) ** -3 * (1.0 + 0.5 * s) ** -1.5

        ref = quad(f, a, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        val, err, _ = _one(f, (a, math.inf), epsabs=0.0, epsrel=1e-10)
        assert err <= 1e-10 * abs(val)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_limit_cap_reports_honest_error(self):
        # sqrt has an endpoint singularity in its derivative, so three
        # panels cannot reach 1e-14; the error must say so and still bound
        # the true error, and more panels must then get there
        val, err, _ = _one(np.sqrt, (0.0, 1.0), epsabs=1e-14, epsrel=0.0, limit=3)
        assert err > 1e-14
        assert abs(val - 2.0 / 3.0) <= err
        val, err, _ = _one(np.sqrt, (0.0, 1.0), epsabs=1e-10, epsrel=0.0, limit=200)
        assert err <= 1e-10
        assert abs(val - 2.0 / 3.0) <= 1e-10

    def test_each_integral_keeps_its_own_absolute_target(self):
        # K finite integrals in one lockstep call, each to its own epsabs,
        # give the bits of their K = 1 calls
        edges = [(0.0, 1.0), (-1.0, 0.2, 2.0), (0.0, 3.0), (0.5, 4.0)]
        epsabs = [1e-6, 1e-13, 1e-9, 1e-11]
        freqs = np.array([3.0, 5.0, 9.0, 2.0])

        def f(x, k):
            return np.sqrt(np.abs(x)) * np.cos(freqs[k] * x)

        batch = _qag(f, edges, [1.0] * 4, epsabs, 0.0, 200)
        for j, (res, e, target) in enumerate(zip(batch, edges, epsabs)):
            assert res == _one(lambda x: f(x, j), e, target, 0.0, 200)
            assert res[1] <= target
        assert len({res[2] for res in batch}) > 1


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

    def test_one_kernel_call_per_angular_round(self):
        # every shell of a radial round shares each angular round's call,
        # with the value and evaluations of one angular integral per shell
        calls, shells = 0, set()

        def kernel(p, t):
            nonlocal calls
            calls += 1
            shells.update(np.ravel(p).tolist())
            return np.exp(-p * p) * (1.0 + t * t)

        res = integrate_radial_angular(kernel, 1e-9, inner_points=lambda p: (-0.4, 0.3))
        assert calls < len(shells)
        assert repr(res.value) == "7.424437329108944"
        assert res.evaluations == 11907

    def test_overflowing_shell_names_the_radial_abscissa(self):
        # each angular integral of 1e308 overflows to inf: the radial panel
        # is not finite, and its IntegrandError is raised as it is
        def kernel(p, t):
            return np.full(np.broadcast(p, t).shape, 1e308) * np.exp(-p)

        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrandError) as exc:
            integrate_radial_angular(kernel, 1e-9)
        assert isinstance(exc.value.abscissa, float) and exc.value.abscissa > 0.0

    def test_nonfinite_kernel_names_the_abscissa(self):
        def kernel(p, t):
            return np.where(t > 0.5, np.nan, np.exp(-p * p))

        with pytest.raises(IntegrandError) as exc:
            integrate_radial_angular(kernel, 1e-9)
        p, t = exc.value.abscissa
        assert p > 0.0 and t > 0.5

    def test_unreachable_tolerance_raises(self):
        # the error estimate stops near 7e-14 on a value of order one
        with pytest.raises(ConvergenceError, match="missed absolute tol 1.0e-30") as exc:
            integrate_radial_angular(lambda p, t: np.exp(-p * p), 1e-30)
        assert exc.value.estimate == pytest.approx(math.pi ** 1.5, rel=1e-12)
        assert 1e-30 < exc.value.error_estimate < 1e-12


def counted(f_hat):
    """f_hat, and a list that collects the number of abscissae of each call."""
    sizes = []

    def wrapped(p):
        sizes.append(np.size(p))
        return f_hat(p)

    return wrapped, sizes


def lobe_passes(monkeypatch):
    """The (digits, degree) of each _mp_lobe_sum pass, as they run."""
    passes = []
    lobe_sum = quadrature._mp_lobe_sum

    def spy(g, r, dps, degree, tol):
        passes.append((dps, degree))
        return lobe_sum(g, r, dps, degree, tol)

    monkeypatch.setattr(quadrature, "_mp_lobe_sum", spy)
    return passes


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
        f_hat, evals = counted(lambda p: np.exp(-0.5 * p * p) / (p * p))
        vals = sine_transform_radial(f_hat, radii, 1e-9)
        for r, v in zip(radii, vals):
            exact = math.erf(r / math.sqrt(2.0)) / (4.0 * math.pi * r)
            assert v == pytest.approx(exact, rel=1e-12)
        assert sum(evals) <= 5000 * len(radii)

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("r", [0.3, 1.0, 3.0])
    def test_lobe_sum_closed_forms(self, kind, r):
        # int_0^inf e^{-p^2/2} cos(pr) dp = sqrt(pi/2) e^{-r^2/2}, and its
        # r-derivative gives the sin transform of p e^{-p^2/2}
        g = (lambda p: np.exp(-0.5 * p * p)) if kind == "cos" else (
            lambda p: p * np.exp(-0.5 * p * p))
        exact = math.sqrt(0.5 * math.pi) * math.exp(-0.5 * r * r) * (1.0 if kind == "cos" else r)
        g, evals = counted(g)
        value, _, n = quadrature._osc_integral(g, r, kind, 1e-12)
        assert abs(value - exact) <= 2e-14
        assert n == sum(evals) <= 1400

    def test_nonfinite_integrand_names_the_abscissa(self):
        # NaN at the sixth Gauss-Kronrod abscissa of the fourth lobe at r = 1
        node = 3.5 * math.pi + 0.5 * math.pi * quadrature._XK[5]

        def f(p):
            return np.where(np.abs(p - node) < 1e-9, np.nan, np.exp(-p * p))

        with pytest.raises(IntegrandError) as info:
            sine_transform_radial(f, [1.0], 1e-8)
        assert info.value.abscissa == pytest.approx(node, abs=1e-12)

    @pytest.mark.parametrize("patch, fake, match", [
        # a lobe sum that missed tol by truncation
        ("_osc_integral", ConvergenceError("sin transform did not converge", 1.0, 0.5),
         "did not converge"),
        # a deep cancellation whose big-float rerun gave up
        ("_osc_integral_mp", ConvergenceError("big-float rerun gave up", 1.0, 0.5),
         "big-float rerun"),
    ])
    def test_unconverged_value_raises(self, monkeypatch, patch, fake, match):
        # a miss of either lobe sum reaches the caller as it was raised:
        # neither is caught, retried or rescaled on the way
        def missed(*args):
            raise fake

        monkeypatch.setattr(quadrature, patch, missed)
        with pytest.raises(ConvergenceError, match=match) as exc:
            sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [10.0], 1e-7)
        assert (exc.value.estimate, exc.value.error_estimate) == (1.0, 0.5)

    def test_lobe_sum_past_its_rounding_floor_raises(self):
        # the chirp sin(p^2) defeats the Euler acceleration: the error stays
        # near 1e-8, far above both tol and 2e-15 of the lobe mass
        with pytest.raises(ConvergenceError, match="sin transform at r = 1.0 did not") as exc:
            quadrature._osc_integral(lambda p: np.sin(p * p), 1.0, "sin", 1e-10)
        assert exc.value.error_estimate > 1e-10 * abs(exc.value.estimate) > 0.0

    def test_big_float_rerun_beyond_its_digits_raises(self):
        # e^{-300} sits about 118 digits below the lobe mass; with tol and
        # the margin a rerun needs 135 digits, past the 120 it may take
        with pytest.raises(ConvergenceError, match="r = 60.0 did not converge: it needs 135"):
            sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [60.0], 1e-7)

    @pytest.mark.parametrize("r", [10.0, 20.0])
    def test_big_float_rerun_is_bounded(self, r):
        # e^{-mu r} sits 22 and 44 digits below the lobe mass
        f_hat, evals = counted(lambda p: 1.0 / (p * p + 25.0))
        vals = sine_transform_radial(f_hat, [r], 1e-7)
        assert vals[0] == pytest.approx(math.exp(-5.0 * r) / (4.0 * math.pi * r), rel=1e-6)
        assert sum(evals) < 10_000

    def test_big_float_rerun_measures_once(self, monkeypatch):
        # 22 digits of cancellation fit the first pass's 60 digits: one
        # measuring pass, then one confirming pass at 10 digits more
        passes = lobe_passes(monkeypatch)
        sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [10.0], 1e-7)
        assert passes == [(60, 3), (70, 4)]

    def test_big_float_rerun_past_the_first_pass(self, monkeypatch):
        # e^{-125} sits about 54 digits below the lobe mass; with tol and the
        # margin that needs more than 60 digits, so the pass is rerun at
        # the measured digits before it is confirmed
        passes = lobe_passes(monkeypatch)
        vals = sine_transform_radial(lambda p: 1.0 / (p * p + 25.0), [25.0], 1e-7)
        assert vals[0] == pytest.approx(math.exp(-125.0) / (100.0 * math.pi), rel=1e-6)
        assert passes[0] == (60, 3)
        assert [deg for _, deg in passes[1:]] == [3] * (len(passes) - 2) + [4]
        assert 60 < passes[1][0] and passes[-1][0] == passes[-2][0] + 10 <= 130

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_rejected(self, bad):
        # NaN slips past a sign test and inf makes an infinite estimate
        def f(x, y):
            out = np.ones(len(x))
            out[17] = bad
            return out

        with pytest.raises(IntegrandError, match="sample 17"):
            monte_carlo_6d(f, CubicBallSampler(), 1000, seed=0)

    def test_stacked_rows_match_single_calls(self):
        s = CubicBallSampler()
        f1 = lambda x, y: np.exp(-np.sum(x * x, axis=1) - np.sum(y * y, axis=1))
        f2 = lambda x, y: 1.0 / (1.0 + np.sum(x * x, axis=1) * np.sum(y * y, axis=1)) ** 2
        both = monte_carlo_6d(lambda x, y: np.stack([f1(x, y), f2(x, y)]), s, 600_000, seed=5)
        assert len(both) == 2
        for f, res in zip((f1, f2), both):
            one = monte_carlo_6d(f, s, 600_000, seed=5)
            assert res.value == one.value
            assert res.error_estimate == one.error_estimate
            assert res.evaluations == one.evaluations

    @pytest.mark.parametrize("shape", [lambda n: (n, 2), lambda n: (2, 2, n)],
                             ids=["n_by_k", "three_axes"])
    def test_misshapen_rows_rejected(self, shape):
        s = CubicBallSampler()
        with pytest.raises(ValueError, match=r"shape \(k, 1000\) or shape \(1000,\)"):
            monte_carlo_6d(lambda x, y: np.ones(shape(len(x))), s, 1000, seed=0)

    def test_row_count_must_hold_across_chunks(self):
        # a (2, n) chunk and an (n,) chunk would otherwise broadcast into both rows
        def f(x, y):
            ones = np.ones(len(x))
            return np.stack([ones, ones]) if len(x) == 1 << 18 else ones

        with pytest.raises(ValueError, match="number of rows"):
            monte_carlo_6d(f, CubicBallSampler(), 300_000, seed=0)

    def test_integrand_values_left_unchanged(self):
        seen = []

        def f(x, y):
            out = np.stack([np.exp(-np.sum(x * x, axis=1)), np.exp(-np.sum(y * y, axis=1))])
            seen.append((out, out.copy()))
            return out

        monte_carlo_6d(f, CubicBallSampler(), 1000, seed=0)
        (out, before), = seen
        assert np.array_equal(out, before)


class TestCubicBallSampler:
    def test_radial_law(self):
        s = CubicBallSampler()
        rng = np.random.default_rng(0)
        x, r = s._draw_vectors(rng, 100_000)
        assert np.allclose(np.linalg.norm(x, axis=1), r, rtol=1e-14, atol=0.0)
        # P(r<1) for density prop to (1+r)^{-3}: ratio of radial masses
        from scipy.integrate import quad

        num = quad(lambda t: t * t / (1 + t) ** 3, 0, 1)[0]
        den = quad(lambda t: t * t / (1 + t) ** 3, 0, s.radius)[0]
        frac = np.mean(r < 1.0)
        assert frac == pytest.approx(num / den, abs=4.0 * math.sqrt(0.01 / 100_000) + 2e-3)

    def test_inverse_cdf_matches_root_finder(self):
        from scipy.optimize import brentq

        s = CubicBallSampler()
        us = np.concatenate([
            [1e-15, 1e-10, 1e-6, 1e-3, 0.5, 1.0 - 1e-6, 1.0 - 1e-12],
            np.random.default_rng(4).random(500),
        ])
        r = s._invert(us.copy())
        assert np.all(r <= s.radius)
        eps = np.finfo(float).eps
        for u, ri in zip(us, r):
            t = u * s._norm
            ref = brentq(lambda q: float(s._cdf_raw(q)) - t, 0.0, s.radius,
                         xtol=1e-30, rtol=4.0 * eps, maxiter=500)
            # _cdf_raw keeps relative accuracy down to r -> 0, so the
            # root is pinned relatively at the small-t end too
            assert abs(ri - ref) <= 1e-14 * ref, u

    def test_draw_inverts_without_root_finding(self):
        s = CubicBallSampler()
        with mock.patch.object(CubicBallSampler, "_newton") as newton, \
                mock.patch.object(CubicBallSampler, "_cdf_raw") as cdf:
            x, y, q = s.draw(np.random.default_rng(0), 10_000)
        assert not newton.called and not cdf.called
        assert np.all(np.isfinite(q)) and np.all(q > 0.0)

    @pytest.mark.parametrize("r", [1e-5, 1e-4, 1e-3, 1e-2, 0.1])
    def test_cdf_keeps_relative_accuracy_near_the_origin(self, r):
        # the closed form log1p(r) + 2/u - 1/(2u^2) - 3/2 is O(1) terms
        # cancelling to O(r^3); it was 3.8e-2 to 4e-13 off at these radii
        from mpmath import mp, mpf
        with mp.workdps(40):
            x = mpf(r)
            u = 1 + x
            exact = mp.log1p(x) + 2 / u - 1 / (2 * u * u) - mpf(3) / 2
            got = CubicBallSampler._cdf_raw(r)
            assert abs((got - exact) / exact) <= 1e-14

    def test_inverse_cdf_endpoints(self):
        s = CubicBallSampler()
        # rng.random can return 0, and cbrt rounds its largest values up to 1
        r = s._invert(np.array([0.0, np.nextafter(1.0, 0.0), 1.0]))
        assert r[0] == 0.0
        assert r[1] == pytest.approx(s.radius, rel=1e-12) and r[1] <= s.radius
        assert r[2] == s.radius

    def test_draw_memory(self):
        # tracemalloc sees numpy's buffers; 28.1 MiB was the peak of the
        # earlier log-grid sampler
        s = CubicBallSampler()
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            s.draw(rng, 1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28.1 * 2 ** 20

    def test_truncation_bias_small(self):
        s = CubicBallSampler()
        assert 0.0 < s.truncation_bias_bound() < 1e-3
