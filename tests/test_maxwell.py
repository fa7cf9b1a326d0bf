"""Screened-potential solver: sources, profiles, Yukawa limits, mode consistency."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as _scipy_quad
from scipy.special import erf, erfc

from debye_screen import maxwell
from debye_screen.debye import debye_mass_sq
from debye_screen.errors import ConvergenceError, PoleDetectedError
from debye_screen.maxwell import (
    DeltaLimitReport,
    RadialProfile,
    SourceSpec,
    default_r_grid,
    delta_family_limit,
    screening_profile,
    source_fourier,
    yukawa_reference,
)
from debye_screen.specfun import ThermalParams

UNIT = ThermalParams(beta=1.0, mass=1.0)
# massless gas at beta = 1/sqrt(6) has square Debye mass exactly 1
UNIT_MD = ThermalParams(beta=6 ** -0.5, mass=0.0)
COULOMB = ThermalParams(beta=6 ** -0.5, mass=0.0, lam=0.0)


def mollified_yukawa(q, mu, eps, r):
    """Closed form for a Gaussian-smeared Yukawa potential."""
    a = eps * mu / math.sqrt(2.0)
    b = r / (eps * math.sqrt(2.0))
    return q / (8.0 * math.pi * r) * math.exp(0.5 * eps * eps * mu * mu) * (
        math.exp(-mu * r) * erfc(a - b) - math.exp(mu * r) * erfc(a + b))


class TestSourceSpec:
    def test_constructors(self):
        s = SourceSpec.smoothed_point(0.1, charge_q=2.0)
        assert s.family == "smoothed_point" and s.width == 0.1 and s.charge_q == 2.0
        assert SourceSpec.uniform_ball(3.0).family == "uniform_ball"

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec("lorentzian", 1.0)
        with pytest.raises(ValueError):
            # the same transform as smoothed_point, so it is not a second family
            SourceSpec("gaussian", 1.0)
        with pytest.raises(ValueError):
            SourceSpec.smoothed_point(0.0)
        with pytest.raises(ValueError):
            SourceSpec.smoothed_point(-1.0)
        with pytest.raises(ValueError):
            SourceSpec.smoothed_point(math.inf)
        with pytest.raises(ValueError):
            SourceSpec.smoothed_point(1.0, charge_q=math.nan)


class TestSourceFourier:
    @pytest.mark.parametrize("src", [
        SourceSpec.smoothed_point(0.3, 1.7),
        SourceSpec.smoothed_point(2.0, -0.4),
        SourceSpec.uniform_ball(5.0, 3.0),
    ])
    def test_total_charge_at_zero_momentum(self, src):
        assert source_fourier(src, 0.0) == src.charge_q

    def test_gaussian_closed_form(self):
        s = SourceSpec.smoothed_point(1.0, 1.0)
        assert source_fourier(s, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_ball_small_momentum_taylor(self):
        # 1 - (pR)^2/10 + ...: extract the quadratic coefficient
        s = SourceSpec.uniform_ball(1.0)
        x = 1e-3
        coeff = (1.0 - source_fourier(s, x)) / (x * x)
        assert coeff == pytest.approx(0.1, rel=1e-6)

    def test_ball_series_matches_closed_form_at_switch(self):
        # closed form cancels ~10 digits here; the series branch is the
        # accurate one, so only demand agreement at the closed form's level
        s = SourceSpec.uniform_ball(1.0)
        lo = source_fourier(s, 0.0099999)
        hi = source_fourier(s, 0.0100001)
        assert lo == pytest.approx(hi, rel=1e-8)

    def test_ball_oscillatory_tail(self):
        s = SourceSpec.uniform_ball(1.0)
        x = 9.0
        want = 3.0 * (math.sin(x) - x * math.cos(x)) / x ** 3
        assert source_fourier(s, x) == pytest.approx(want, rel=1e-14)

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            source_fourier(SourceSpec.smoothed_point(1.0), -0.1)
        with pytest.raises(ValueError):
            source_fourier(SourceSpec.smoothed_point(1.0), np.array([0.5, -0.1]))

    @pytest.mark.parametrize("src", [
        SourceSpec.smoothed_point(0.3, 1.7),
        SourceSpec.smoothed_point(2.0, -0.4),
        SourceSpec.uniform_ball(5.0, 3.0),
    ])
    def test_array_matches_scalar(self, src):
        # p * width from 1e-5 to 20, across the ball's series switch at 1e-2
        p = np.concatenate([[0.0], np.geomspace(1e-5, 20.0, 400)]) / src.width
        got = source_fourier(src, p)
        assert got.shape == p.shape
        for x, v in zip(p, got):
            one = source_fourier(src, float(x))
            assert type(one) is float
            assert v == pytest.approx(one, rel=1e-15, abs=1e-300)


class TestYukawaReference:
    def test_spot_value(self):
        assert yukawa_reference(1.0, 1.0, 1.0, 1.0) == pytest.approx(
            0.029274915762159584, rel=1e-14)

    def test_coulomb_limit(self):
        assert yukawa_reference(1.0, 0.0, 7.3, 2.0) == pytest.approx(
            1.0 / (8.0 * math.pi), rel=1e-15)

    def test_linear_in_charge(self):
        assert yukawa_reference(2.0, 1.0, 1.0, 1.3) == pytest.approx(
            2.0 * yukawa_reference(1.0, 1.0, 1.0, 1.3), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            yukawa_reference(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            yukawa_reference(1.0, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            yukawa_reference(1.0, 1.0, -1.0, 1.0)


class TestDefaultGrid:
    def test_span_and_density(self):
        g = default_r_grid(1.0)
        assert g[0] == pytest.approx(0.05) and g[-1] == pytest.approx(20.0)
        assert len(g) == 168  # 64 per decade over 2.6 decades
        assert all(a < b for a, b in zip(g, g[1:]))

    def test_scales_with_screening_length(self):
        g = default_r_grid(4.0)
        assert g[0] == pytest.approx(0.025) and g[-1] == pytest.approx(10.0)


class TestRadialProfileValidation:
    def test_rejects_bad_grids(self):
        src = SourceSpec.smoothed_point(1.0)
        with pytest.raises(ValueError):
            RadialProfile((2.0, 1.0), (0.1, 0.2), "zeroth_order", src, UNIT)
        with pytest.raises(ValueError):
            RadialProfile((0.0, 1.0), (0.1, 0.2), "zeroth_order", src, UNIT)
        with pytest.raises(ValueError):
            RadialProfile((1.0, 2.0), (0.1,), "zeroth_order", src, UNIT)
        with pytest.raises(ValueError):
            RadialProfile((1.0,), (math.nan,), "zeroth_order", src, UNIT)
        with pytest.raises(ValueError):
            RadialProfile((1.0,), (0.1,), "first_order", src, UNIT)


class TestZerothOrderProfiles:
    def test_point_source_matches_mollified_closed_form(self):
        rs = [0.1, 0.5, 1.0, 3.0, 8.0, 15.0]
        prof = screening_profile(
            SourceSpec.smoothed_point(0.01), UNIT_MD, "zeroth_order", rs, 1e-7)
        for r, v in zip(prof.r_grid, prof.values):
            assert v == pytest.approx(mollified_yukawa(1.0, 1.0, 0.01, r), rel=1e-6)

    def test_small_width_approaches_yukawa(self):
        # criterion shape: narrow source within 1e-4 of the ideal point form
        rs = list(np.geomspace(0.1, 15.0, 24))
        prof = screening_profile(
            SourceSpec.smoothed_point(0.005), UNIT_MD, "zeroth_order", rs, 1e-7)
        for r, v in zip(prof.r_grid, prof.values):
            assert v == pytest.approx(yukawa_reference(1.0, 1.0, 1.0, r), rel=1e-4)

    def test_fitted_rate_is_screening_mass(self):
        md2 = debye_mass_sq(UNIT, 1e-10).m_d_sq
        md = math.sqrt(md2)
        rg = list(np.linspace(5.0 / md, 15.0 / md, 16))
        prof = screening_profile(
            SourceSpec.smoothed_point(0.01), UNIT, "zeroth_order", rg, 1e-8)
        slope = np.polyfit(rg, [math.log(r * v) for r, v in
                                zip(rg, prof.values)], 1)[0]
        assert -slope == pytest.approx(md, rel=1e-3 * 0.1)

    def test_exhausted_double_precision_raises_quickly(self):
        # the value sits below its rounding floor, and the profile's
        # float64 integrand cannot gain digits in a big-float rerun
        hot = ThermalParams(beta=0.2, mass=1.0)
        m_d = math.sqrt(debye_mass_sq(hot, 1e-8).m_d_sq)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="double precision is exhausted at r = 19.6"):
            screening_profile(SourceSpec.smoothed_point(0.5), hot, "zeroth_order", [40.0 / m_d], 1e-7)
        assert time.perf_counter() - start < 10.0

    def test_unscreened_gaussian_is_erf_profile(self):
        prof = screening_profile(
            SourceSpec.smoothed_point(1.0), COULOMB, "zeroth_order", [0.5, 2.0, 10.0], 1e-8)
        for r, v in zip(prof.r_grid, prof.values):
            want = erf(r / math.sqrt(2.0)) / (4.0 * math.pi * r)
            assert v == pytest.approx(want, rel=1e-8)
        # charge recovery far outside the core
        assert 4.0 * math.pi * 10.0 * prof.values[2] == pytest.approx(1.0, rel=1e-4)

    def test_screened_ball_matches_convolution_oracle(self):
        # direct 1D radial convolution with the Yukawa Green function
        R, mu = 1.0, 1.0
        rho = 1.0 / ((4.0 / 3.0) * math.pi * R ** 3)

        def oracle(r):
            f = lambda rp: rp * rho * (math.exp(-mu * abs(r - rp))
                                       - math.exp(-mu * (r + rp)))
            val = _scipy_quad(f, 0.0, R, limit=200, epsabs=0.0, epsrel=1e-12)[0]
            return val / (2.0 * mu * r)

        prof = screening_profile(
            SourceSpec.uniform_ball(R), UNIT_MD, "zeroth_order", [0.5, 2.0, 5.0], 1e-8)
        for r, v in zip(prof.r_grid, prof.values):
            assert v == pytest.approx(oracle(r), rel=1e-5)

    def test_unscreened_poisson_residual_ladder(self):
        # (r A)'' = -r j for the Laplacian of a radial field; the finite
        # difference residual must shrink under grid refinement
        sigma = 1.0
        src = SourceSpec.smoothed_point(sigma)

        def residual(n):
            rg = list(np.linspace(0.4, 4.0, n))
            h = rg[1] - rg[0]
            prof = screening_profile(src, COULOMB, "zeroth_order", rg, 1e-9)
            u = np.array([r * v for r, v in zip(rg, prof.values)])
            lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
            j = np.array([math.exp(-0.5 * (r / sigma) ** 2)
                          / ((2.0 * math.pi) ** 1.5 * sigma ** 3) for r in rg])
            res = lap + np.array(rg[1:-1]) * j[1:-1]
            return float(np.max(np.abs(res))) / float(np.max(np.abs(np.array(rg) * j)))

        ladder = [residual(n) for n in (17, 33, 65)]
        assert ladder[1] < 0.5 * ladder[0]
        assert ladder[2] < 0.5 * ladder[1]
        assert ladder[2] < 1e-3

    def test_linearity_in_charge(self):
        p1 = screening_profile(SourceSpec.smoothed_point(0.5, charge_q=1.0),
                               UNIT, "zeroth_order", [1.0, 3.0], 1e-9)
        p2 = screening_profile(SourceSpec.smoothed_point(0.5, charge_q=2.5),
                               UNIT, "zeroth_order", [1.0, 3.0], 1e-9)
        for a, b in zip(p1.values, p2.values):
            assert 2.5 * a == pytest.approx(b, rel=1e-10)

    def test_screened_tail_decays(self):
        prof = screening_profile(SourceSpec.smoothed_point(0.05), UNIT_MD,
                                 "zeroth_order", [1.0, 4.0, 12.0], 1e-7)
        assert prof.values[0] > prof.values[1] > prof.values[2] > 0.0

    def test_domain_errors(self):
        src = SourceSpec.smoothed_point(1.0)
        with pytest.raises(ValueError):
            screening_profile(src, UNIT, "half_order", [1.0], 1e-7)
        with pytest.raises(ValueError):
            screening_profile(src, ThermalParams(beta=math.inf, mass=0.0),
                              "zeroth_order", [1.0], 1e-7)
        with pytest.raises(ValueError):
            screening_profile(src, UNIT, "zeroth_order", [1.0], 0.0)


class TestFullKernelProfiles:
    def test_fitted_rate_close_to_screening_mass(self):
        md = math.sqrt(debye_mass_sq(UNIT, 1e-10).m_d_sq)
        rg = list(np.linspace(5.0 / md, 15.0 / md, 16))
        prof = screening_profile(
            SourceSpec.smoothed_point(0.01), UNIT, "full_kernel", rg, 1e-8)
        slope = np.polyfit(rg, [math.log(r * v) for r, v in
                                zip(rg, prof.values)], 1)[0]
        assert -slope == pytest.approx(md, rel=0.02)
        assert prof.tolerances["scan_points"] == 65

    def test_agrees_with_zeroth_order_far_away_at_weak_coupling(self):
        weak = ThermalParams(beta=1.0, mass=1.0, lam=0.1)
        md = math.sqrt(debye_mass_sq(weak, 1e-10).m_d_sq)
        rs = [10.0 / md, 20.0 / md, 30.0 / md]
        src = SourceSpec.smoothed_point(0.02)
        full = screening_profile(src, weak, "full_kernel", rs, 1e-7)
        zer = screening_profile(src, weak, "zeroth_order", rs, 1e-7)
        for a, b in zip(full.values, zer.values):
            assert a == pytest.approx(b, rel=0.05)

    def test_short_distance_screens_less_than_static_kernel(self):
        # kernel magnitude falls with momentum, so the full solution sits
        # above the frozen-kernel one near the core
        md = math.sqrt(debye_mass_sq(UNIT, 1e-10).m_d_sq)
        src = SourceSpec.smoothed_point(0.02)
        full = screening_profile(src, UNIT, "full_kernel", [0.5 / md], 1e-7)
        zer = screening_profile(src, UNIT, "zeroth_order", [0.5 / md], 1e-7)
        assert full.values[0] > zer.values[0]

    def test_denominator_scanned_once_per_kernel(self, monkeypatch):
        # the model depends on the kernel, not on the source, so a width
        # ladder scans once; a fresh build gives the same values
        scans = []
        real_scan = maxwell.scan_kernel
        monkeypatch.setattr(maxwell, "scan_kernel",
                            lambda *args: scans.append(args) or real_scan(*args))
        maxwell._full_denominator_model.cache_clear()
        radii = [1.0, 3.0]
        ladder = [screening_profile(SourceSpec.smoothed_point(w), UNIT, "full_kernel",
                                    radii, 1e-7) for w in (0.2, 0.1)]
        assert len(scans) == 1
        maxwell._full_denominator_model.cache_clear()
        fresh = screening_profile(SourceSpec.smoothed_point(0.1), UNIT, "full_kernel",
                                  radii, 1e-7)
        assert len(scans) == 2
        assert fresh.values == ladder[1].values
        assert fresh.tolerances == ladder[1].tolerances

    def test_pole_propagates(self):
        strong = ThermalParams(beta=1.0, mass=1.0, a1=2.0)
        with pytest.raises(PoleDetectedError):
            screening_profile(SourceSpec.smoothed_point(0.1), strong,
                              "full_kernel", [1.0], 1e-7)

    def test_massless_far_tail_goes_power_law_negative(self):
        # the massless kernel carries a p^2 log p branch point at p = 0
        # (coefficient -1/(12 pi^2), fit to 7 digits), so beyond the
        # screened region the profile is not Yukawa at all: it crosses
        # zero near r ~ 12.4 and settles into an r^-5 tail with
        # coefficient -3 g / (2 pi m_D^4), g = lam/(12 pi^2). Checked
        # against an analytic-structure toy denominator to 4 digits.
        prof = screening_profile(SourceSpec.smoothed_point(0.01), UNIT_MD,
                                 "full_kernel", [15.0, 20.0], 1e-8)
        v15, v20 = prof.values
        assert v15 == pytest.approx(-5.287446e-09, rel=2e-3)
        assert v20 == pytest.approx(-1.400785e-09, rel=2e-3)
        asym = -1.0 / (8.0 * math.pi ** 3)
        for r, v in zip(prof.r_grid, prof.values):
            assert v * r ** 5 / asym == pytest.approx(1.0, abs=0.15)


class TestDeltaFamilyLimit:
    def test_point_limit_at_one_screening_length(self):
        md = math.sqrt(debye_mass_sq(UNIT, 1e-10).m_d_sq)
        rep = delta_family_limit([0.4, 0.2, 0.1, 0.05], UNIT, [1.0 / md], 1e-7)
        assert isinstance(rep, DeltaLimitReport)
        assert rep.monotone == (True,)
        assert rep.converged == (True,)
        assert rep.final_gap[0] < 1e-3
        gaps = rep.gaps[0]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_tracks_smearing_factor(self):
        # relative gap of a Gaussian-smeared screened source is
        # e^{eps^2 mu^2 / 2} - 1 wherever the probe sits far from the core
        rep = delta_family_limit([0.4, 0.2, 0.1, 0.05], UNIT_MD, [10.0], 1e-8)
        for eps, gap in zip(rep.epsilons, rep.gaps[0]):
            assert gap == pytest.approx(math.exp(0.5 * eps * eps) - 1.0, rel=1e-3)
        # 1.25e-3 at the last width: honestly flagged as not converged
        assert rep.monotone == (True,)
        assert rep.converged == (False,)

    def test_coulomb_control(self):
        rep = delta_family_limit([0.4, 0.2, 0.1, 0.05], COULOMB, [2.0], 1e-8)
        assert rep.converged == (True,)
        assert rep.yukawa[0] == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)
        assert rep.final_gap[0] < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_family_limit([0.1, 0.2], UNIT, [1.0], 1e-7)   # increasing
        with pytest.raises(ValueError):
            delta_family_limit([0.4], UNIT, [1.0], 1e-7)        # too short
        with pytest.raises(ValueError):
            delta_family_limit([0.4, 0.2], UNIT, [1.0], 1e-7)   # 0.2 > r/10
        with pytest.raises(ValueError):
            delta_family_limit([0.4, 0.01], UNIT, [], 1e-7)
        with pytest.raises(ValueError):
            delta_family_limit([0.4, 0.01], UNIT, [-1.0], 1e-7)


@settings(max_examples=8, deadline=None)
@given(r=st.floats(min_value=0.3, max_value=6.0),
       q=st.floats(min_value=-2.0, max_value=2.0))
def test_profile_scales_linearly_with_charge(r, q):
    base = screening_profile(SourceSpec.smoothed_point(0.5, charge_q=1.0),
                             UNIT_MD, "zeroth_order", [r], 1e-8).values[0]
    scaled = screening_profile(SourceSpec.smoothed_point(0.5, charge_q=q),
                               UNIT_MD, "zeroth_order", [r], 1e-8).values[0]
    assert scaled == pytest.approx(q * base, rel=1e-10, abs=1e-14)


class TestSmearedYukawaReference:
    @pytest.mark.parametrize("mu, w, r", [
        (1.0, 0.05, 3.0), (5.0, 0.5, 10.0), (0.3, 2.0, 0.1),
        (50.0, 1.0, 30.0), (2000.0, 0.02, 0.5)])
    def test_matches_forty_digits(self, mu, w, r):
        # the last two have mu r > 700, where e^{mu r} alone overflows
        import mpmath as mp
        with mp.workdps(40):
            s = mp.sqrt(2) * w
            exact = (mp.exp(mu * mu * w * w / 2) / (8 * mp.pi * r)
                     * (mp.exp(-mu * r) * mp.erfc((mu * w * w - r) / s)
                        - mp.exp(mu * r) * mp.erfc((mu * w * w + r) / s)))
        got = maxwell.smeared_yukawa_reference(1.0, 1.0, mu * mu, w, r)
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_coulomb_limit_is_the_smeared_charge(self):
        # lam = 0: the charge inside r of a Gaussian cloud, q erf(r / sqrt(2) w) / (4 pi r)
        for r in (0.01, 0.3, 2.0):
            want = 2.5 * math.erf(r / (math.sqrt(2.0) * 0.4)) / (4.0 * math.pi * r)
            assert maxwell.smeared_yukawa_reference(2.5, 0.0, 0.7, 0.4, r) == pytest.approx(
                want, rel=1e-14)
