"""Kernel channels, static limits, vacuum pieces, and the screened denominator."""

import itertools
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
    IntegrandError,
    ScanError,
)
from debye_screen.polarization import (
    KernelScan,
    ScanPoint,
    b_hat,
    f_hat_spatial,
    f_hat_temporal,
    scan_kernel,
)
from debye_screen.quadrature import integrate_radial_angular
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


def f_hat_mp(channel, pt, beta, m, dps=30):
    """The closed-angle kernel at ``dps`` digits by mpmath's tanh-sinh rule,
    which takes the log point pt/2 as an endpoint singularity (e = 1)."""
    from mpmath import mp, mpf

    with mp.workdps(dps):
        pt, beta, m = mpf(pt), mpf(beta), mpf(m)

        def g(k):
            e = mp.sqrt(k * k + m * m)
            log = mp.log(abs((2 * k + pt) / (2 * k - pt)))
            if channel == "temporal":
                b = 1 + (4 * e * e - pt * pt) / (4 * k * pt) * log
            else:
                b = 1 - pt / (4 * k) * log
            return k * k / e / (mp.exp(beta * e) + 1) * b

        cuts = [j / beta for j in (10, 40) if j / beta > pt]
        return -mp.quad(g, [0, pt / 2, pt, *cuts, mp.inf]) / mp.pi ** 2


def f_hat_scipy(channel, pt, params):
    """The closed-angle kernel by QUADPACK, split at pt/2 and pt, to 1e-11 relative."""
    beta, m = params.beta, params.mass

    def g(k):
        e = math.hypot(k, m)
        log = math.log(abs((2.0 * k + pt) / (2.0 * k - pt)))
        if channel == "temporal":
            b = 1.0 + (4.0 * e * e - pt * pt) / (4.0 * k * pt) * log
        else:
            b = 1.0 - pt / (4.0 * k) * log
        return k * k / e / (math.exp(min(beta * e, 700.0)) + 1.0) * b

    # one QUADPACK call a piece: a single call over [0, pt] with pt/2 as an
    # interior point was seen to extrapolate 2e-9 off at a 1e-18 estimate
    opts = dict(epsabs=0.0, epsrel=1e-11, limit=400)
    pieces = [(0.0, 0.5 * pt), (0.5 * pt, pt), (pt, math.inf)]
    return -params.charge_e ** 2 / math.pi ** 2 * sum(_scipy_quad(g, a, b, **opts)[0] for a, b in pieces)


def b_hat_spectral_oracle(pt, m):
    """Spatial vacuum piece as the threshold-form integral over invariant
    mass squared, by QUADPACK (e = 1, a1 = 0). The integral runs over
    s / m^2 from 4, so that QUADPACK sees the same scales at every mass."""
    q2 = (pt / m) ** 2
    pref = 16.0 * pt ** 4 / (3.0 * (2.0 * math.pi) ** 5)
    raw = _scipy_quad(
        lambda s: math.sqrt(s - 4.0) * (0.5 + 0.25 * s) / (s ** 2.5 * (q2 + s)),
        4.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-13,
    )[0]
    return 0.5 * pref * raw / (m * m)


class TestRelativeTolerance:
    def test_hot_kernel_meets_a_tight_request(self):
        # the absolute target of earlier versions could not reach 1e-12 here
        got = f_hat_temporal(1.56, ThermalParams(beta=0.1, mass=1.0), 1e-12)
        assert abs(got / float(f_hat_mp("temporal", 1.56, 0.1, 1.0)) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(channel=st.sampled_from(["temporal", "spatial"]),
           beta=st.floats(0.1, 20.0),
           mass=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
           pt=st.floats(0.05, 5.0))
    def test_matches_quadpack_to_relative_tol(self, channel, beta, mass, pt):
        params = ThermalParams(beta=beta, mass=mass)
        got = polarization._f_hat(channel, pt, params, 1e-9)
        want = f_hat_scipy(channel, pt, params)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_spatial_vacuum_piece_is_relative(self):
        # a target of tol / prefactor left this 1.4e-6 off
        got = b_hat("spatial", 0.1, ThermalParams(beta=1.0, mass=0.3))
        want = b_hat_spectral_oracle(0.1, 0.3)
        assert abs(got - want) <= 1e-8 * want

    @pytest.mark.parametrize("channel, mass", [
        ("temporal", 0.0), ("temporal", 0.3), ("temporal", 1.0),
        ("spatial", 0.0), ("spatial", 1.0)])
    @pytest.mark.parametrize("pt", [0.3, 0.9, 1.7, 3.1])
    def test_node_cost_is_capped(self, monkeypatch, channel, mass, pt):
        # the log point pt/2 is integrated in closed form; bisecting
        # towards it cost up to 2,205 evaluations a node
        calls = []
        inner = polarization.integrate_semi_infinite_batch

        def counted(*args, **kwargs):
            res = inner(*args, **kwargs)
            calls.extend(r.evaluations for r in res)
            return res

        monkeypatch.setattr(polarization, "integrate_semi_infinite_batch", counted)
        polarization._f_hat(channel, pt, ThermalParams(beta=1.0, mass=mass), 1e-8)
        assert len(calls) == 1 and calls[0] <= 1100


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

    def test_unconverged_integral_raises(self):
        # 1e-20 is below the rounding level; the error carries the
        # integral's own value, f_hat without its prefactor -e^2/pi^2
        with pytest.raises(ConvergenceError) as exc:
            f_hat_spatial(0.5, UNIT, 1e-20)
        assert exc.value.estimate == pytest.approx(
            -math.pi ** 2 * f_hat_spatial(0.5, UNIT, 1e-12), rel=1e-11)
        assert exc.value.error_estimate > 1e-20 * abs(exc.value.estimate)


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
        assert b_hat("temporal", 2.0, tp) == pytest.approx(2.0, rel=1e-14)
        tp2 = ThermalParams(beta=3.0, mass=0.2, a1=1.5, charge_e=2.0)
        assert b_hat("temporal", 0.5, tp2) == pytest.approx(1.5, rel=1e-14)

    def test_zero_momentum_vanishes_exactly(self):
        tp = ThermalParams(beta=1.0, mass=1.0, a1=0.7)
        assert b_hat("temporal", 0.0, tp) == 0.0
        assert b_hat("spatial", 0.0, tp) == 0.0

    @pytest.mark.parametrize("pt", [0.5, 2.0])
    def test_spatial_matches_spectral_oracle(self, pt):
        # threshold-form integral over invariant mass squared, independent
        # quadrature machinery
        got = b_hat("spatial", pt, UNIT)
        assert got == pytest.approx(b_hat_spectral_oracle(pt, 1.0), rel=1e-10)

    @pytest.mark.parametrize("mass", [1e-2, 0.3, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("ratio", [1e-3, 0.1, 1.0, 1.9, 2.1, 10.0, 1e4])
    def test_closed_form_matches_spectral_oracle(self, mass, ratio):
        # pt / m = 2 is x = 1/2, where the series hands over to the closed
        # form; pt / m = 1e4 takes the log near x = 1
        pt = ratio * mass
        got = b_hat("spatial", pt, ThermalParams(beta=1.0, mass=mass))
        assert abs(got / b_hat_spectral_oracle(pt, mass) - 1.0) <= 1e-12

    def test_series_and_closed_form_meet_at_half(self):
        below = math.nextafter(0.5, 0.0)
        series = polarization._h(below, math.sqrt(1.0 - below))
        closed = polarization._h(0.5, math.sqrt(0.5))
        assert abs(closed - series) <= 4 * math.ulp(closed)

    def test_spatial_positive_and_growing(self):
        vals = [b_hat("spatial", p, UNIT) for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(v > 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mass", [1e20, 1e60, 1e100])
    def test_spatial_heavy_mass_stays_finite(self, mass):
        # for m >> pt, 1/(pt^2 + s) -> 1/s and the integral in t = tanh u is
        # int_0^1 t^2 (1.5 - 0.5 t^2) dt = 0.4, so m^2 b_hat -> 0.4 pref / 16;
        # the form with s^2.5 overflowed here
        got = b_hat("spatial", 1.0, ThermalParams(beta=1.0, mass=mass))
        assert mass * mass * got == pytest.approx(0.4 / (3.0 * (2.0 * math.pi) ** 5), rel=1e-12)

    def test_massless_spatial_refused(self):
        with pytest.raises(InfraredDivergenceError):
            b_hat("spatial", 1.0, ThermalParams(beta=1.0, mass=0.0))

    def test_survives_ground_state(self):
        # vacuum pieces carry no temperature dependence
        warm = ThermalParams(beta=1.0, mass=1.0, a1=0.7)
        cold = ThermalParams(beta=math.inf, mass=1.0, a1=0.7)
        for ch in ("temporal", "spatial"):
            assert b_hat(ch, 1.5, cold) == pytest.approx(
                b_hat(ch, 1.5, warm), rel=1e-12)


class TestEffectiveDenominator:
    """The denominator |pt|^2 - lambda (f_hat + b_hat) that scan_kernel
    returns at each node; maxwell's pole guard is tested in test_maxwell."""

    @staticmethod
    def denominators(channel, grid, params, tol):
        return [pt.denominator for pt in scan_kernel(channel, grid, params, tol).points]

    def test_free_field_reduces_to_momentum_squared(self):
        tp = ThermalParams(beta=1.0, mass=1.0, lam=0.0)
        assert self.denominators("temporal", [0.7], tp, 1e-10) == [0.7 * 0.7]

    def test_static_limit_sees_square_debye_mass(self):
        pt = 0.02
        [den] = self.denominators("temporal", [pt], UNIT, 1e-9)
        assert den == pytest.approx(MD2_UNIT + pt * pt, rel=1e-4)

    def test_positive_for_weak_coupling(self):
        grid = (0.05, 0.3, 0.9, 2.0, 5.0)
        for channel in ("temporal", "spatial"):
            assert all(den > 0.0 for den in self.denominators(channel, grid, UNIT, 1e-8))


class TestKernelScan:
    def test_points_match_single_evaluations(self):
        grid = [0.0, 0.5, 1.0]
        scan = scan_kernel("temporal", grid, UNIT, 1e-8)
        assert [p.p_tilde_mag for p in scan.points] == grid
        for pt in scan.points:
            assert pt.f_hat == f_hat_temporal(pt.p_tilde_mag, UNIT, 1e-8)
            assert pt.b_hat == b_hat("temporal", pt.p_tilde_mag, UNIT)
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

    def test_abort_names_the_failed_node(self, monkeypatch):
        # a kernel miss at one interior node: the message names that node,
        # and the points before it ride along
        f_hat_nodes = polarization._f_hat_nodes

        def missed_at_half(channel, pts, params, tol):
            return [ConvergenceError("semi-infinite integral missed", 1.0, 0.5) if pt == 0.5 else v
                    for pt, v in zip(pts, f_hat_nodes(channel, pts, params, tol))]

        monkeypatch.setattr(polarization, "_f_hat_nodes", missed_at_half)
        with pytest.raises(ScanError, match=r"aborted at \|pt\| = 0.5: semi-infinite") as exc:
            scan_kernel("temporal", [0.25, 0.5, 1.0], UNIT, 1e-8)
        assert isinstance(exc.value.__cause__, ConvergenceError)
        assert [pt.p_tilde_mag for pt in exc.value.partial] == [0.25]
        assert exc.value.partial[0] == scan_kernel("temporal", [0.25], UNIT, 1e-8).points[0]

    def test_f_hat_error_comes_first_where_both_fail(self, monkeypatch):
        # the massless spatial vacuum piece diverges at every pt > 0; where
        # the kernel also misses, the kernel's error is the cause
        f_hat_nodes = polarization._f_hat_nodes

        def missed_at_half(channel, pts, params, tol):
            return [ConvergenceError("semi-infinite integral missed", 1.0, 0.5) if pt == 0.5 else v
                    for pt, v in zip(pts, f_hat_nodes(channel, pts, params, tol))]

        monkeypatch.setattr(polarization, "_f_hat_nodes", missed_at_half)
        with pytest.raises(ScanError, match=r"aborted at \|pt\| = 0.5: semi-infinite") as exc:
            scan_kernel("spatial", [0.0, 0.5], ThermalParams(beta=1.0, mass=0.0), 1e-8)
        assert isinstance(exc.value.__cause__, ConvergenceError)

    def test_nan_integrand_names_its_node(self, monkeypatch):
        # the second node's integrand turns NaN: that integral alone ends,
        # so the scan names its node, and the first node, which shared
        # every integrand call with it, keeps the value it has alone
        alone = scan_kernel("temporal", [0.25], UNIT, 1e-8).points[0]
        batch = polarization.integrate_semi_infinite_batch

        def nan_at_second(f, scales, tol, **kwargs):
            return batch(lambda x, k: np.where(k == 1, np.nan, f(x, k)), scales, tol, **kwargs)

        monkeypatch.setattr(polarization, "integrate_semi_infinite_batch", nan_at_second)
        with pytest.raises(ScanError,
                           match=r"aborted at \|pt\| = 0.5: integrand returned nan") as exc:
            scan_kernel("temporal", [0.25, 0.5, 1.0], UNIT, 1e-8)
        assert isinstance(exc.value.__cause__, IntegrandError)
        assert exc.value.__cause__.abscissa >= 0.0
        assert exc.value.partial == (alone,)


@settings(max_examples=25, deadline=None)
@given(channel=st.sampled_from(["temporal", "spatial"]),
       beta=st.floats(0.1, 20.0),
       mass=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
       gaps=st.lists(st.floats(0.02, 1.5), min_size=1, max_size=6))
def test_scan_points_equal_single_node_calls(channel, beta, mass, gaps):
    # a scan integrates all its nodes in one lockstep batch; each point
    # must still be, to the bit, what the single-node calls give
    grid = [0.0, *itertools.accumulate(gaps)]
    params = ThermalParams(beta=beta, mass=mass)
    single = [(polarization._f_hat(channel, pt, params, 1e-8), pt) for pt in grid]
    if channel == "spatial" and mass == 0.0:
        # the massless spatial vacuum piece diverges at every pt > 0, so
        # the scan stops at grid[1]; the f_hat batch is compared directly
        with pytest.raises(ScanError, match=rf"aborted at \|pt\| = {grid[1]}:") as exc:
            scan_kernel(channel, grid, params, 1e-8)
        assert exc.value.partial == (ScanPoint(0.0, 0.0, 0.0, 0.0),)
        assert polarization._f_hat_nodes(channel, grid, params, 1e-8) == [f for f, _ in single]
        return
    scan = scan_kernel(channel, grid, params, 1e-8)
    for point, (fh, pt) in zip(scan.points, single):
        bh = b_hat(channel, pt, params)
        assert point == (pt, fh, bh, pt * pt - params.lam * (fh + bh))


@settings(max_examples=10, deadline=None)
@given(p=st.floats(min_value=0.05, max_value=3.0))
def test_temporal_denominator_positive_under_unit_coupling(p):
    assert scan_kernel("temporal", [p], UNIT, 1e-7).points[0].denominator > 0.0
