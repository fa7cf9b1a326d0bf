import math

import pytest
from hypothesis import given, settings, strategies as st

from debye_screen import debye
from debye_screen.debye import (
    debye_length,
    debye_mass_sq,
    debye_mass_sq_integral,
    debye_mass_sq_massless,
    debye_mass_sq_series,
)
from debye_screen.errors import ConvergenceError
from debye_screen.specfun import ThermalParams, bessel_k

BETA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
MASS_GRID = (0.1, 0.5, 1.0, 2.0)


class TestSeriesRoute:
    def test_ground_state_vanishes(self):
        res = debye_mass_sq_series(ThermalParams(beta=math.inf, mass=1.0))
        assert res.m_d_sq == 0.0
        assert res.lambda_d == math.inf

    def test_unit_point(self):
        # frozen 20-digit reference for beta=1, m=1, e=1
        res = debye_mass_sq_series(ThermalParams(beta=1.0, mass=1.0), 1e-13)
        assert res.m_d_sq == pytest.approx(0.14379717259228775, rel=1e-11)

    def test_first_terms_dominate_cold(self):
        res = debye_mass_sq_series(ThermalParams(beta=10.0, mass=1.0), 1e-14)
        two_terms = (bessel_k(2, 10.0) - bessel_k(2, 20.0)) / math.pi ** 2
        assert res.m_d_sq == pytest.approx(two_terms, rel=1e-8)

    def test_massless_rejected(self):
        with pytest.raises(ValueError):
            debye_mass_sq_series(ThermalParams(beta=1.0, mass=0.0))

    def test_diagnostics_carry_truncation(self):
        res = debye_mass_sq_series(ThermalParams(beta=2.0, mass=1.0), 1e-12)
        assert res.diagnostics.terms_used >= 2
        assert res.diagnostics.remainder_bound >= 0.0


class TestIntegralRoute:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
    def test_massless_closed_form(self, beta):
        res = debye_mass_sq_integral(ThermalParams(beta=beta, mass=0.0), 1e-9)
        assert res.m_d_sq == pytest.approx(1.0 / (6.0 * beta * beta), rel=1e-8)

    def test_beta_two(self):
        res = debye_mass_sq_integral(ThermalParams(beta=2.0, mass=0.0), 1e-9)
        assert res.m_d_sq == pytest.approx(1.0 / 24.0, rel=1e-8)

    def test_agrees_with_series(self):
        tp = ThermalParams(beta=1.0, mass=1.0)
        a = debye_mass_sq_series(tp, 1e-13).m_d_sq
        b = debye_mass_sq_integral(tp, 1e-11).m_d_sq
        assert b == pytest.approx(a, rel=1e-6)

    def test_ground_state(self):
        res = debye_mass_sq_integral(ThermalParams(beta=math.inf, mass=0.5))
        assert res.m_d_sq == 0.0

    @pytest.mark.parametrize("beta_m", [20.0, 30.0, 100.0])
    def test_suppressed_mass_takes_one_pass(self, monkeypatch, beta_m):
        # tol is relative, so a mass term that suppresses m_D^2 by
        # e^{-beta m} needs no second, rescaled pass
        calls = []
        inner = debye.integrate_semi_infinite

        def counted(f, decay_scale, tol, **kwargs):
            calls.append(tol)
            return inner(f, decay_scale, tol, **kwargs)

        monkeypatch.setattr(debye, "integrate_semi_infinite", counted)
        tp = ThermalParams(beta=20.0, mass=beta_m / 20.0)
        got = debye_mass_sq_integral(tp, 1e-10).m_d_sq
        assert calls == [1e-10]
        assert got == pytest.approx(debye_mass_sq_series(tp, 1e-13).m_d_sq, rel=1e-10)

    def test_unconverged_integral_raises(self):
        # 1e-20 is below the rounding level; the error carries the
        # integral's own value, m_D^2 without its prefactor e^2 beta/pi^2
        with pytest.raises(ConvergenceError) as exc:
            debye_mass_sq_integral(ThermalParams(beta=1.0, mass=0.0), 1e-20)
        assert exc.value.estimate == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
        assert exc.value.error_estimate > 1e-20 * exc.value.estimate


class TestCrossMethod:
    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("mass", MASS_GRID)
    def test_grid_agreement(self, beta, mass):
        tp = ThermalParams(beta=beta, mass=mass)
        a = debye_mass_sq_series(tp, 1e-13).m_d_sq
        b = debye_mass_sq_integral(tp, 1e-11).m_d_sq
        assert b == pytest.approx(a, rel=1e-6)

    def test_massless_consistency_tiny_mass(self):
        for beta in (0.5, 1.0, 2.0):
            tiny = debye_mass_sq_integral(ThermalParams(beta=beta, mass=1e-4), 1e-10).m_d_sq
            closed = debye_mass_sq_massless(ThermalParams(beta=beta, mass=0.0)).m_d_sq
            assert tiny / closed == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_beta_and_mass(self):
        for mass in MASS_GRID:
            vals = [debye_mass_sq(ThermalParams(beta=b, mass=mass), 1e-12).m_d_sq
                    for b in BETA_GRID]
            assert all(x > y for x, y in zip(vals, vals[1:]))
        for beta in BETA_GRID:
            vals = [debye_mass_sq(ThermalParams(beta=beta, mass=m), 1e-12).m_d_sq
                    for m in MASS_GRID]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    @given(beta_m=st.floats(0.5, 100.0), beta=st.floats(0.2, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_at_default_tolerance(self, beta_m, beta):
        # the integral route's tail is inside its error estimate, so the
        # two routes meet far below their 1e-10 default tolerance
        tp = ThermalParams(beta=beta, mass=beta_m / beta)
        a = debye_mass_sq_series(tp).m_d_sq
        b = debye_mass_sq_integral(tp).m_d_sq
        assert b == pytest.approx(a, rel=1e-12)

    @given(beta=st.floats(0.2, 20.0), mass=st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_positivity(self, beta, mass):
        res = debye_mass_sq(ThermalParams(beta=beta, mass=mass), 1e-10)
        assert res.m_d_sq >= 0.0


class TestMasslessRoute:
    def test_unit(self):
        res = debye_mass_sq_massless(ThermalParams(beta=1.0, mass=0.0))
        assert res.m_d_sq == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_high_temperature_growth(self):
        res = debye_mass_sq_massless(ThermalParams(beta=0.1, mass=0.0))
        assert res.m_d_sq == pytest.approx(100.0 / 6.0, rel=1e-15)

    def test_charge_scaling(self):
        res = debye_mass_sq_massless(ThermalParams(beta=1.0, mass=0.0, charge_e=2.0))
        assert res.m_d_sq == pytest.approx(4.0 / 6.0, rel=1e-15)


class TestDebyeLength:
    def test_massless_unit(self):
        lam = debye_length(ThermalParams(beta=1.0, mass=0.0))
        assert lam == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_ground_state_infinite(self):
        assert debye_length(ThermalParams(beta=math.inf, mass=1.0)) == math.inf

    def test_reciprocal_root(self):
        tp = ThermalParams(beta=1.0, mass=1.0)
        res = debye_mass_sq(tp, 1e-12)
        assert debye_length(tp, 1e-12) == pytest.approx(res.m_d_sq ** -0.5, rel=1e-12)


class TestColdChain:
    def test_strictly_decreasing_to_deep_suppression(self):
        vals = [debye_mass_sq(ThermalParams(beta=b, mass=1.0), 1e-10).m_d_sq
                for b in (5.0, 10.0, 20.0, 50.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-19
