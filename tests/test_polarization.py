"""Kernel channels, static limits, vacuum pieces, and the screened denominator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as _scipy_quad

from debye_screen import polarization
from debye_screen.debye import debye_mass_sq
from debye_screen.errors import (
    ConvergenceError,
    InfraredDivergenceError,
    PoleDetectedError,
    ScanError,
)
from debye_screen.polarization import (
    KernelScan,
    ScanPoint,
    b_hat,
    effective_denominator,
    f_hat_spatial,
    f_hat_temporal,
    scan_kernel,
)
from debye_screen.quadrature import QuadratureResult, integrate_radial_angular
from debye_screen.specfun import ThermalParams

UNIT = ThermalParams(beta=1.0, mass=1.0)
# square Debye mass at beta = m = e = 1, frozen from the series route
MD2_UNIT = 0.14379717259228775


def midpoint_kernel_oracle(channel, pt, beta, m, e=1.0, cut=45.0, n_p=3000, n_t=1500):
    """Brute-force midpoint-rule evaluation of the kernel integral.

    Fixed rectangular grid in (p, cos angle), fully vectorized, sharing no
    code with the adaptive path. Positive-definite quotient entries where
    the two mode energies coincide are simply masked out; the grid measure
    of that set vanishes and the midpoint offsets keep it rare.
    """
    p = (np.arange(n_p) + 0.5) * (cut / n_p)
    t = -1.0 + (np.arange(n_t) + 0.5) * (2.0 / n_t)
    pp, tt = np.meshgrid(p, t, indexing="ij")
    wp2 = m * m + pp * pp
    wp = np.sqrt(wp2)
    dot = pt * pp * tt
    wk2 = wp2 + pt * pt + 2.0 * dot
    wk = np.sqrt(wk2)
    e_shared = wp2 + dot
    fp = 1.0 / (1.0 + np.exp(np.minimum(beta * wp, 700.0)))
    fk = 1.0 / (1.0 + np.exp(np.minimum(beta * wk, 700.0)))
    if channel == "temporal":
        num = (wp2 + e_shared) * fp / wp - (wk2 + e_shared) * fk / wk
        sign = 1.0
    else:
        num = (wp2 - e_shared) * fp / wp - (wk2 - e_shared) * fk / wk
        sign = -1.0
    den = wp2 - wk2
    safe = np.abs(den) > 1e-12
    q = np.where(safe, num / np.where(safe, den, 1.0), 0.0)
    total = np.sum(pp * pp * q) * (cut / n_p) * (2.0 / n_t)
    return sign * 2.0 * np.pi * total * e * e / (4.0 * math.pi ** 3)


def kernel_quotient(p, t, p_tilde, params, sign):
    """Fermi-weighted difference quotient of the 2D kernel integrand.

    sign=+1 selects numerators w^2 + E (temporal), sign=-1 selects
    w^2 - E (spatial), E = m^2 + p^2 + p_tilde*p*t shared by both halves
    of the bracket. The denominator w_p^2 - w_k^2 = -pt*(pt + 2 p t) is
    used in its exact factored form, and near the coincidence set the
    quotient switches to its first-order limit, where the stable mean of
    the two exact spatial numerators is pt^2/2.
    """
    beta, m = params.beta, params.mass
    pt = p_tilde
    wp2 = m * m + p * p
    wp = np.sqrt(wp2)
    dot = pt * p * t
    wk2 = wp2 + pt * pt + 2.0 * dot
    wk = np.sqrt(wk2)
    e_shared = wp2 + dot
    ep, ek = np.exp(-beta * wp), np.exp(-beta * wk)
    fp_, fk_ = ep / (1.0 + ep), ek / (1.0 + ek)
    if sign > 0.0:
        num_p = (wp2 + e_shared) * fp_ / wp
        num_k = (wk2 + e_shared) * fk_ / wk
    else:
        # w^2 - E collapses exactly: wp2-E = -pt*p*t, wk2-E = pt*(pt+p*t)
        num_p = -dot * fp_ / wp
        num_k = pt * (pt + p * t) * fk_ / wk
    den = -pt * (pt + 2.0 * p * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (num_p - num_k) / den
    near = np.abs(wp - wk) < 1e-6 * (wp + wk)
    if near.any():
        wb = (0.5 * (wp + wk))[near]
        e = np.exp(-beta * wb)
        f = e / (1.0 + e)
        fp = -beta * e / (1.0 + e) ** 2
        nu = 0.5 * pt * pt  # mean of the exact numerators w^2 -+ E
        if sign > 0.0:
            es = e_shared[near]
            out[near] = nu * f / (wb * wb) / (2.0 * wb) + (wb + es / wb) * fp / (2.0 * wb)
        else:
            out[near] = nu * (fp / wb - f / (wb * wb)) / (2.0 * wb) + f / wb
    return out


def f_hat_2d(channel, pt, params, tol):
    """The kernel as the 2D integral over (p, cos angle) of the quotient,
    split at its coincidence angle t* = -pt/(2p): the route that the
    closed-angle form replaced, and independent of it."""
    sign = 1.0 if channel == "temporal" else -1.0
    c_f = params.charge_e ** 2 / (4.0 * math.pi ** 3)

    def breakpoints(p):
        ts = -pt / (2.0 * p)
        return (ts,) if -1.0 < ts < 1.0 else ()

    res = integrate_radial_angular(
        lambda p, t: kernel_quotient(p, t, pt, params, sign), tol / c_f,
        decay_scale=(1.0 + params.mass) / params.beta, inner_points=breakpoints)
    return sign * c_f * res.value


class TestClosedAngleForm:
    @pytest.mark.parametrize("channel, beta, mass, pt", [
        ("temporal", 6.0 ** -0.5, 0.0, 0.7),
        ("temporal", 1.0, 0.0, 1.3),
        ("temporal", 1.0, 1.0, 0.4),
        ("spatial", 1.0, 1.0, 0.9),
        ("temporal", 0.1, 1.0, 2.2),
    ], ids=["hot_massless", "massless", "massive", "spatial", "hot_massive"])
    def test_matches_2d_reference(self, channel, beta, mass, pt):
        params = ThermalParams(beta=beta, mass=mass)
        got = polarization._f_hat(channel, pt, params, 1e-10)
        assert abs(got - f_hat_2d(channel, pt, params, 1e-10)) <= 1e-11

    @pytest.mark.parametrize("fraction", [0.2, 0.1])
    def test_cold_kernel_keeps_relative_accuracy(self, fraction):
        # m_D^2 ~ 6e-11 here, and the thermal momenta are ~1e5 times pt;
        # panels that are not split down to scale pt miss this at 1e-7
        cold = ThermalParams(beta=20.0, mass=1.0)
        m_d_sq = debye_mass_sq(cold, 1e-12).m_d_sq
        got = f_hat_temporal(fraction * math.sqrt(m_d_sq), cold)
        assert abs(got + m_d_sq) <= 1e-9 * m_d_sq

    def test_unconverged_integral_raises(self, monkeypatch):
        def unconverged(*args, **kwargs):
            return QuadratureResult(value=2.0, error_estimate=0.5, evaluations=21,
                                    converged=False)

        monkeypatch.setattr(polarization, "integrate_semi_infinite", unconverged)
        with pytest.raises(ConvergenceError) as exc:
            f_hat_spatial(0.5, UNIT, 1e-8)
        assert exc.value.estimate == pytest.approx(-2.0 / math.pi ** 2)
        assert exc.value.error_estimate == pytest.approx(0.5 / math.pi ** 2)


class TestTemporalKernel:
    def test_zero_momentum_is_minus_square_debye_mass(self):
        got = f_hat_temporal(0.0, UNIT, 1e-10)
        want = -debye_mass_sq(UNIT, 1e-10).m_d_sq
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(-MD2_UNIT, rel=1e-10)

    def test_static_limit_convergence(self):
        # gap to the zero-momentum value shrinks at least linearly
        grid = [0.2, 0.1, 0.05, 0.025]
        gaps = [abs(f_hat_temporal(p, UNIT, 1e-9) + MD2_UNIT) / MD2_UNIT for p in grid]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert all(o >= 1.0 for o in orders)
        assert gaps[-1] < 1e-4

    @pytest.mark.parametrize("beta, mass", [(20.0, 1.0), (0.1, 1.0), (1.0, 0.0)],
                             ids=["cold", "hot", "massless"])
    def test_static_identity_in_every_regime(self, beta, mass):
        # f_hat(0+) by Richardson extrapolation, as the CLI checks it; in
        # the cold regime f_hat ~ 6e-11 sits far below the absolute tol
        params = ThermalParams(beta=beta, mass=mass)
        m_d_sq = debye_mass_sq(params, 1e-8).m_d_sq
        h = 0.2 * math.sqrt(m_d_sq)
        f1 = f_hat_temporal(h, params, 1e-8)
        f2 = f_hat_temporal(h / 2.0, params, 1e-8)
        assert abs((4.0 * f2 - f1) / 3.0 + m_d_sq) <= 1e-4 * m_d_sq

    def test_matches_fixed_grid_oracle(self):
        got = f_hat_temporal(0.5, UNIT, 1e-8)
        want = midpoint_kernel_oracle("temporal", 0.5, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-4)
        assert got == pytest.approx(-0.1415757768, rel=1e-7)

    def test_negative_on_moderate_momenta(self):
        for p in (0.1, 0.7, 1.5):
            assert f_hat_temporal(p, UNIT, 1e-7) < 0.0

    def test_magnitude_decreases_with_momentum(self):
        vals = [abs(f_hat_temporal(p, UNIT, 1e-8)) for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ground_state_vanishes(self):
        cold = ThermalParams(beta=math.inf, mass=1.0)
        assert f_hat_temporal(0.8, cold, 1e-8) == 0.0

    def test_negative_momentum_rejected(self):
        with pytest.raises(ValueError):
            f_hat_temporal(-0.3, UNIT, 1e-8)


class TestSpatialKernel:
    def test_zero_momentum_vanishes(self):
        assert f_hat_spatial(0.0, UNIT, 1e-8) == 0.0

    def test_matches_fixed_grid_oracle(self):
        got = f_hat_spatial(0.5, UNIT, 1e-8)
        want = midpoint_kernel_oracle("spatial", 0.5, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-4)
        assert got == pytest.approx(-0.0529450363, rel=1e-7)

    def test_small_relative_to_temperature_scale(self):
        # stays far below e^2/beta^2 across a momentum sweep
        for p in (0.25, 0.5, 1.0):
            assert abs(f_hat_spatial(p, UNIT, 1e-8)) < 0.1

    def test_ground_state_vanishes(self):
        cold = ThermalParams(beta=math.inf, mass=1.0)
        assert f_hat_spatial(1.2, cold, 1e-8) == 0.0


class TestVacuumPiece:
    def test_temporal_contact_term(self):
        # e^2 a1 |pt|^2 and nothing else
        tp = ThermalParams(beta=1.0, mass=1.0, a1=0.5)
        assert b_hat("temporal", 2.0, tp, 1e-10) == pytest.approx(2.0, rel=1e-14)
        tp2 = ThermalParams(beta=3.0, mass=0.2, a1=1.5, charge_e=2.0)
        assert b_hat("temporal", 0.5, tp2, 1e-10) == pytest.approx(1.5, rel=1e-14)

    def test_zero_momentum_vanishes_exactly(self):
        tp = ThermalParams(beta=1.0, mass=1.0, a1=0.7)
        assert b_hat("temporal", 0.0, tp, 1e-10) == 0.0
        assert b_hat("spatial", 0.0, tp, 1e-10) == 0.0

    @pytest.mark.parametrize("pt", [0.5, 2.0])
    def test_spatial_matches_spectral_oracle(self, pt):
        # threshold-form integral over invariant mass squared, independent
        # quadrature machinery
        m = 1.0
        m2, pt2 = m * m, pt * pt
        pref = 16.0 * pt ** 4 / (3.0 * (2.0 * math.pi) ** 5)
        raw = _scipy_quad(
            lambda s: math.sqrt(s - 4 * m2) * (0.5 * m2 + 0.25 * s)
            / (s ** 2.5 * (pt2 + s)),
            4 * m2, math.inf, limit=400, epsabs=0.0, epsrel=1e-13,
        )[0]
        got = b_hat("spatial", pt, UNIT, 1e-12)
        assert got == pytest.approx(0.5 * pref * raw, rel=1e-10)

    def test_spatial_positive_and_growing(self):
        vals = [b_hat("spatial", p, UNIT, 1e-12) for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(v > 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_massless_spatial_refused(self):
        with pytest.raises(InfraredDivergenceError):
            b_hat("spatial", 1.0, ThermalParams(beta=1.0, mass=0.0), 1e-10)

    def test_survives_ground_state(self):
        # vacuum pieces carry no temperature dependence
        warm = ThermalParams(beta=1.0, mass=1.0, a1=0.7)
        cold = ThermalParams(beta=math.inf, mass=1.0, a1=0.7)
        for ch in ("temporal", "spatial"):
            assert b_hat(ch, 1.5, cold, 1e-11) == pytest.approx(
                b_hat(ch, 1.5, warm, 1e-11), rel=1e-12)


class TestEffectiveDenominator:
    def test_free_field_reduces_to_momentum_squared(self):
        tp = ThermalParams(beta=1.0, mass=1.0, lam=0.0)
        assert effective_denominator("temporal", 0.7, tp, 1e-10) == pytest.approx(
            0.49, rel=1e-14)

    def test_static_limit_sees_square_debye_mass(self):
        pt = 0.02
        den = effective_denominator("temporal", pt, UNIT, 1e-9)
        assert den == pytest.approx(MD2_UNIT + pt * pt, rel=1e-4)

    def test_positive_for_weak_coupling(self):
        for p in (0.05, 0.3, 0.9, 2.0, 5.0):
            assert effective_denominator("temporal", p, UNIT, 1e-8) > 0.0
            assert effective_denominator("spatial", p, UNIT, 1e-8) > 0.0

    def test_pole_detected_for_strong_contact_term(self):
        # a1 = 2 drags the denominator through zero; bracket the crossing
        # by bisection on the same combination, then demand the guard fires
        tp = ThermalParams(beta=1.0, mass=1.0, a1=2.0)

        def f(p):
            return p * p - (f_hat_temporal(p, tp, 1e-10) + 2.0 * p * p)

        lo, hi = 0.2, 0.6
        flo = f(lo)
        assert flo > 0.0 > f(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if (f(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        with pytest.raises(PoleDetectedError) as exc:
            effective_denominator("temporal", root, tp, 1e-6)
        assert exc.value.p_tilde == pytest.approx(root)

    def test_nonpositive_momentum_rejected(self):
        with pytest.raises(ValueError):
            effective_denominator("temporal", 0.0, UNIT, 1e-8)


class TestKernelScan:
    def test_points_match_single_evaluations(self):
        grid = [0.0, 0.5, 1.0]
        scan = scan_kernel("temporal", grid, UNIT, 1e-8)
        assert [p.p_tilde_mag for p in scan.points] == grid
        for pt in scan.points:
            assert pt.f_hat == f_hat_temporal(pt.p_tilde_mag, UNIT, 1e-8)
            assert pt.b_hat == b_hat("temporal", pt.p_tilde_mag, UNIT, 1e-8)
            assert pt.denominator == pytest.approx(
                pt.p_tilde_mag ** 2 - UNIT.lam * (pt.f_hat + pt.b_hat), abs=1e-15)
        assert scan.metadata["tol"] == 1e-8
        assert scan.params_snapshot == UNIT

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_kernel("temporal", [0.5, 0.5], UNIT, 1e-8)
        with pytest.raises(ValueError):
            scan_kernel("temporal", [0.5, 0.2], UNIT, 1e-8)
        with pytest.raises(ValueError):
            scan_kernel("temporal", [-0.1, 0.2], UNIT, 1e-8)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            scan_kernel("timelike", [0.1], UNIT, 1e-8)
        with pytest.raises(ValueError):
            KernelScan(channel="timelike", points=(), params_snapshot=UNIT)

    def test_scan_result_ordering_enforced(self):
        bad = (ScanPoint(0.5, 0.0, 0.0, 0.25), ScanPoint(0.2, 0.0, 0.0, 0.04))
        with pytest.raises(ValueError):
            KernelScan(channel="temporal", points=bad, params_snapshot=UNIT)

    def test_abort_carries_partial_points(self):
        # massless spatial vacuum piece fails at the second grid point;
        # the first completed point must ride along for diagnosis
        massless = ThermalParams(beta=1.0, mass=0.0)
        with pytest.raises(ScanError) as exc:
            scan_kernel("spatial", [0.0, 0.5], massless, 1e-8)
        assert exc.value.partial == (ScanPoint(0.0, 0.0, 0.0, 0.0),)


@settings(max_examples=10, deadline=None)
@given(p=st.floats(min_value=0.05, max_value=3.0))
def test_temporal_denominator_positive_under_unit_coupling(p):
    assert effective_denominator("temporal", p, UNIT, 1e-7) > 0.0
