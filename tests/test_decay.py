"""Kernel decay fits, graph bounds, and the 6D convergence Monte Carlo."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k0, k1

from debye_screen import decay
from debye_screen.decay import (
    BoundConfig,
    GraphSet,
    KernelConfig,
    enumerate_connected_graphs,
    fit_decay,
    graph_bound,
    lemma2_check,
    lemma2_divergence_control,
    thermal_kernel_imag,
    verify_bound_ratio,
)
from debye_screen.errors import ConvergenceError, StripViolationError
from debye_screen.quadrature import CubicBallSampler, TestProfile
from debye_screen.specfun import ThermalParams

PROF = TestProfile(kind="gaussian", width=1.0, support_radius=3.0)
TP = ThermalParams(beta=2.0, mass=1.0)
GROUND = ThermalParams(beta=math.inf, mass=1.0)

# kernel values at u = 0.7, beta = 2, m = 1, unit-width gaussian profile,
# frozen from quad oracles agreeing with the lobed integrator to ~2e-16
FROZEN = {
    ("forward", 0.0, "scalar_m"): 0.10862945221748196,
    ("forward", 0.0, "temporal_omega"): 0.1753184461481221,
    ("forward", 3.0, "scalar_m"): 0.0105739719680994,
    ("forward", 3.0, "temporal_omega"): 0.00825511122559109,
    ("forward", 3.0, "spatial_p"): 0.013930162042476268,
    ("kms", 0.0, "scalar_m"): 0.1434775711160944,
    ("kms", 0.0, "temporal_omega"): 0.22933361783559067,
    ("kms", 3.0, "scalar_m"): 0.014769076165135836,
    ("kms", 3.0, "temporal_omega"): 0.011834705438347219,
    ("kms", 3.0, "spatial_p"): 0.019278387941821178,
}


def midpoint_kernel_oracle(u, z, channel, beta, m, weight="forward",
                           cut=40.0, n=400000):
    """Dense midpoint sum of the radial integrand, no lobe splitting."""
    h = cut / n
    p = (np.arange(n) + 0.5) * h
    w = np.sqrt(m * m + p * p)
    if weight == "forward" or math.isinf(beta):
        wt = np.exp(-u * w)
    else:
        wt = (np.exp(-u * w) + np.exp(-(beta - u) * w)) / (1.0 + np.exp(-beta * w))
    cf = {"scalar_m": m, "temporal_omega": w, "spatial_p": p}[channel]
    core = p * p / (2.0 * w) * wt * np.exp(-p * p / 2.0) * cf
    if z == 0.0:
        bessel = 0.0 if channel == "spatial_p" else 1.0
    else:
        x = p * z
        if channel == "spatial_p":
            bessel = np.sin(x) / (x * x) - np.cos(x) / x
        else:
            bessel = np.sin(x) / x
    return float(np.sum(core * bessel) * h)


class TestKernel:
    @pytest.mark.parametrize("weight,z,channel", list(FROZEN))
    def test_frozen_values(self, weight, z, channel):
        got = thermal_kernel_imag(0.7, z, channel, PROF, TP, 1e-11,
                                  weight=weight)
        assert got == pytest.approx(FROZEN[(weight, z, channel)], rel=1e-9)

    @pytest.mark.parametrize("channel", ["scalar_m", "temporal_omega",
                                         "spatial_p"])
    def test_matches_midpoint_oracle(self, channel):
        got = thermal_kernel_imag(0.7, 3.0, channel, PROF, TP, 1e-11)
        want = midpoint_kernel_oracle(0.7, 3.0, channel, 2.0, 1.0)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("channel", ["scalar_m", "temporal_omega", "spatial_p"])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_closed_forms_at_zero_temperature(self, channel, m):
        # differentiating int_0^inf e^{-u w} cos(p z) / w dp = K_0(m R),
        # R = sqrt(u^2 + z^2) (Gradshteyn & Ryzhik 3.961.2), gives each
        # channel in closed form; a width-1e5 profile has f_hat ~ 1. The
        # gap is at most 2.6e-9 at z = 0 (the profile's bias) and 5.4e-10
        # beyond; mR ~ 20 is left out, where the lobe sum sits at its
        # rounding floor (README, third caveat)
        prof = TestProfile(width=1e5)
        params = ThermalParams(beta=math.inf, mass=m)
        for u in (0.5, 1.0):
            for z in (0.0, 1.0, 2.0, 5.0, 10.0):
                r = math.hypot(u, z)
                if m * r > 10.0:
                    continue
                if channel == "scalar_m":
                    want = m * m * k1(m * r) / (2.0 * r)
                else:
                    t = u if channel == "temporal_omega" else z
                    want = m * t * (m * r * k0(m * r) + 2.0 * k1(m * r)) / (2.0 * r ** 3)
                got = thermal_kernel_imag(u, z, channel, prof, params, 1e-12)
                assert got == pytest.approx(want, rel=1e-8, abs=0.0), (u, z)

    def test_spatial_vanishes_at_origin(self):
        assert thermal_kernel_imag(0.7, 0.0, "spatial_p", PROF, TP) == 0.0

    def test_ground_state_weights_coincide(self):
        a = thermal_kernel_imag(0.7, 2.5, "scalar_m", PROF, GROUND, 1e-11)
        b = thermal_kernel_imag(0.7, 2.5, "scalar_m", PROF, GROUND, 1e-11,
                                weight="kms")
        assert a == b
        assert a == pytest.approx(0.019966770334469655, rel=1e-9)

    def test_strip_violations(self):
        for u in (0.0, 2.0, -0.3, 2.5):
            with pytest.raises(StripViolationError):
                thermal_kernel_imag(u, 1.0, "scalar_m", PROF, TP)
        with pytest.raises(StripViolationError):
            thermal_kernel_imag(0.0, 1.0, "scalar_m", PROF, GROUND)
        # any positive u is inside the ground-state strip
        thermal_kernel_imag(17.0, 1.0, "scalar_m", PROF, GROUND, 1e-6)

    @pytest.mark.parametrize("channel, kind", [
        ("scalar_m", "sin"), ("temporal_omega", "sin"), ("spatial_p", "sin"), ("spatial_p", "cos")])
    def test_unconverged_transform_raises(self, monkeypatch, channel, kind):
        # a lobe sum that misses raises; the kernel passes it on unchanged
        def lobes(g, z, k, tol):
            if k == kind:
                raise ConvergenceError(f"{k} transform did not converge", 1.0, 0.5)
            return 1.0, 0.0, 0

        monkeypatch.setattr(decay, "_osc_integral", lobes)
        with pytest.raises(ConvergenceError) as info:
            thermal_kernel_imag(0.7, 1.0, channel, PROF, TP)
        assert (info.value.estimate, info.value.error_estimate) == (1.0, 0.5)

    def test_unconverged_contact_value_raises(self):
        # 1e-20 is below the rounding level; the error carries the
        # integral's own value, which is the kernel at z = 0
        with pytest.raises(ConvergenceError) as info:
            thermal_kernel_imag(0.7, 0.0, "scalar_m", PROF, TP, 1e-20)
        assert info.value.estimate == pytest.approx(
            thermal_kernel_imag(0.7, 0.0, "scalar_m", PROF, TP, 1e-10), rel=1e-9)
        assert info.value.error_estimate > 1e-20 * abs(info.value.estimate)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            thermal_kernel_imag(0.7, 1.0, "vector_q", PROF, TP)
        with pytest.raises(ValueError):
            thermal_kernel_imag(0.7, 1.0, "scalar_m", PROF, TP, weight="full")
        with pytest.raises(ValueError):
            thermal_kernel_imag(0.7, -1.0, "scalar_m", PROF, TP)
        with pytest.raises(ValueError):
            thermal_kernel_imag(0.7, 1.0, "scalar_m", PROF, TP, tol=0.0)


class TestFitDecay:
    def test_recovers_exponential(self):
        rs = np.linspace(2.0, 9.0, 10)
        fit = fit_decay([(r, 0.4 * math.exp(-1.7 * r)) for r in rs],
                        "log_linear")
        assert fit.slope == pytest.approx(-1.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(0.4), abs=1e-11)
        assert fit.max_residual < 1e-12
        assert fit.window == (2.0, 9.0)

    def test_recovers_power_law(self):
        rs = np.geomspace(1.0, 40.0, 12)
        fit = fit_decay([(r, 2.0 * (1.0 + r) ** -3) for r in rs],
                        "loglog_linear")
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)

    def test_negative_values_allowed_single_sign(self):
        rs = np.linspace(1.0, 5.0, 8)
        fit = fit_decay([(r, -math.exp(-r)) for r in rs], "log_linear")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_rejections(self):
        good = [(float(r), math.exp(-r)) for r in range(1, 9)]
        with pytest.raises(ValueError):
            fit_decay(good, "spline")
        with pytest.raises(ValueError):
            fit_decay(good[:7], "log_linear")
        with pytest.raises(ValueError):
            fit_decay(good[:4] + [(4.0, 1e-3)] + good[5:], "log_linear")
        bad = list(good)
        bad[3] = (bad[3][0], 0.0)
        with pytest.raises(ValueError):
            fit_decay(bad, "log_linear")
        bad[3] = (bad[3][0], -1e-5)
        with pytest.raises(ValueError, match="sign change"):
            fit_decay(bad, "log_linear")

    @given(rate=st.floats(min_value=0.1, max_value=3.0),
           amp=st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_exact_recovery_property(self, rate, amp):
        rs = np.linspace(1.0, 12.0, 9)
        fit = fit_decay([(r, amp * math.exp(-rate * r)) for r in rs],
                        "log_linear")
        assert fit.slope == pytest.approx(-rate, rel=1e-9, abs=1e-12)


class TestMassiveRates:
    # diagonal of the (beta, m) grid; the full grid runs in the
    # acceptance suite
    @pytest.mark.parametrize("beta,m", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
    def test_thermal_rate_at_least_mass(self, beta, m):
        tp = ThermalParams(beta=beta, mass=m)
        rs = np.linspace(6.0 / m, 14.0 / m, 12)
        vals = [thermal_kernel_imag(beta / 2.0, r, "scalar_m", PROF, tp, 1e-10)
                for r in rs]
        fit = fit_decay(list(zip(rs, vals)), "log_linear")
        assert -fit.slope >= 0.95 * m

    def test_ground_rate_in_spacetime_distance(self):
        u = 1.0
        zs = np.linspace(6.0, 14.0, 12)
        vals = [thermal_kernel_imag(u, z, "scalar_m", PROF, GROUND, 1e-10)
                for z in zs]
        fit = fit_decay([(math.hypot(u, z), v) for z, v in zip(zs, vals)],
                        "log_linear")
        assert -fit.slope >= 0.95


class TestMasslessEnvelope:
    def test_thermal_cubic_envelope(self):
        tp = ThermalParams(beta=1.0, mass=0.0)
        kc = KernelConfig(channel="spatial_p", u=0.5, profile=PROF,
                          params=tp, tol=1e-10)
        bc = BoundConfig(regime="thermal_spatial", mass=0.0)
        rep = verify_bound_ratio(kc, bc, np.geomspace(2.0, 50.0, 12))
        assert rep.bounded
        assert rep.trend_slope <= 0.01
        assert 0.0 < rep.sup_ratio < 10.0
        assert rep.excluded == ()

    def test_ground_cubic_envelope(self):
        tg = ThermalParams(beta=math.inf, mass=0.0)
        kc = KernelConfig(channel="spatial_p", u=1.0, profile=PROF,
                          params=tg, tol=1e-10)
        bc = BoundConfig(regime="ground_spacetime", mass=0.0)
        rep = verify_bound_ratio(kc, bc, np.geomspace(2.0, 50.0, 12))
        assert rep.bounded
        assert rep.sup_ratio < 10.0


class TestGraphs:
    def test_connected_counts(self):
        counts = {k: len(enumerate_connected_graphs(k).graphs)
                  for k in range(2, 7)}
        assert counts == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

    def test_vertex_range(self):
        for k in (1, 7, 2.0):
            with pytest.raises(ValueError):
                enumerate_connected_graphs(k)

    def test_graph_set_validation(self):
        with pytest.raises(ValueError):
            GraphSet(vertex_count=3, graphs=(((0, 3),),))
        with pytest.raises(ValueError):
            GraphSet(vertex_count=3, graphs=(((0, 1), (0, 1), (1, 2)),))
        with pytest.raises(ValueError):
            GraphSet(vertex_count=3, graphs=(((0, 1),),))  # vertex 2 stranded
        with pytest.raises(ValueError):
            GraphSet(vertex_count=2, graphs=(((0, 1),), ((0, 1),)))

    def test_single_edge_value(self):
        gs = enumerate_connected_graphs(2)
        got = graph_bound([(0.0, [1.0, 0.0, 0.0])], 0.0, gs, "thermal_spatial")
        assert got == 0.125

    def test_coincident_points_count_graphs(self):
        gs = enumerate_connected_graphs(4)
        pts = [(0.0, [0.0, 0.0, 0.0])] * 3
        assert graph_bound(pts, 0.0, gs, "thermal_spatial") == 38.0

    def test_three_vertex_hand_value(self):
        # origin, (1,0,0), (0,1,0): two unit edges and one sqrt(2) edge;
        # three trees plus the triangle
        gs = enumerate_connected_graphs(3)
        a = b = 0.125
        c = (1.0 + math.sqrt(2.0)) ** -3
        want = a * b + a * c + b * c + a * b * c
        got = graph_bound([(0.0, [1.0, 0.0, 0.0]), (0.0, [0.0, 1.0, 0.0])],
                          0.0, gs, "thermal_spatial")
        assert got == pytest.approx(want, rel=1e-14)

    def test_massive_closed_form(self):
        gs = enumerate_connected_graphs(3)
        pts = [(0.4, [1.0, 2.0, 2.0]), (0.0, [0.0, 3.0, 4.0])]
        r_sp = math.sqrt(9.0 + 25.0)
        want = 4.0 * math.exp(-1.5 / math.sqrt(2.0) * r_sp)
        got = graph_bound(pts, 1.5, gs, "thermal_spatial")
        assert got == pytest.approx(want, rel=1e-14)
        r_st = math.sqrt(0.16 + 9.0 + 25.0)
        want = 4.0 * math.exp(-1.5 / math.sqrt(2.0) * r_st)
        got = graph_bound(pts, 1.5, gs, "ground_spacetime")
        assert got == pytest.approx(want, rel=1e-14)

    def test_spacetime_separation_uses_offsets(self):
        gs = enumerate_connected_graphs(2)
        spatial = graph_bound([(0.8, [1.0, 0.0, 0.0])], 0.0, gs,
                              "thermal_spatial")
        spacetime = graph_bound([(0.8, [1.0, 0.0, 0.0])], 0.0, gs,
                                "ground_spacetime")
        assert spatial == 0.125
        assert spacetime == pytest.approx((1.0 + math.hypot(0.8, 1.0)) ** -3,
                                          rel=1e-14)

    def test_brute_force_cross_check(self):
        rng = np.random.default_rng(7)
        for trial in range(8):
            k = int(rng.integers(2, 5))
            regime = ("thermal_spatial", "ground_spacetime")[trial % 2]
            mass = 0.0 if trial % 3 == 0 else float(rng.uniform(0.3, 2.0))
            pts = [(float(rng.uniform(0.0, 2.0)), rng.uniform(-3.0, 3.0, 3))
                   for _ in range(k - 1)]
            gs = enumerate_connected_graphs(k)
            got = graph_bound(pts, mass, gs, regime)
            want = _brute_bound(pts, mass, k, regime)
            assert got == pytest.approx(want, rel=1e-12)

    def test_argument_validation(self):
        gs = enumerate_connected_graphs(3)
        pts = [(0.0, [1.0, 0.0, 0.0]), (0.0, [0.0, 1.0, 0.0])]
        with pytest.raises(ValueError):
            graph_bound(pts, 0.0, gs, "euclidean")
        with pytest.raises(ValueError):
            graph_bound(pts, -1.0, gs, "thermal_spatial")
        with pytest.raises(ValueError):
            graph_bound(pts[:1], 0.0, gs, "thermal_spatial")
        with pytest.raises(ValueError):
            graph_bound([(0.0, [1.0, 0.0])] * 2, 0.0, gs, "thermal_spatial")

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.tuples(*[st.floats(min_value=-4.0, max_value=4.0)] * 3)),
        min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance_property(self, pts):
        gs = enumerate_connected_graphs(4)
        pts = [(u, list(z)) for u, z in pts]
        base = graph_bound(pts, 0.0, gs, "ground_spacetime")
        perm = [pts[2], pts[0], pts[1]]
        assert graph_bound(perm, 0.0, gs, "ground_spacetime") == \
            pytest.approx(base, rel=1e-12)
        # massless factors are each <= 1, so the count bounds the sum
        assert 0.0 < base <= 38.0


def _brute_bound(points, mass, k, regime):
    coords = [(0.0, np.zeros(3))] + [(float(u), np.asarray(z, float))
                                     for u, z in points]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def connected(edges):
        adj = {i: [] for i in range(k)}
        for s, r in edges:
            adj[s].append(r)
            adj[r].append(s)
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == k

    def sep(i, j):
        (ui, zi), (uj, zj) = coords[i], coords[j]
        dz = zi - zj
        d2 = float(dz @ dz)
        if regime == "ground_spacetime":
            d2 += (ui - uj) ** 2
        return math.sqrt(d2)

    total = 0.0
    n_conn = 0
    for mask in range(1, 1 << len(pairs)):
        edges = [e for b, e in enumerate(pairs) if (mask >> b) & 1]
        if not connected(edges):
            continue
        n_conn += 1
        total += math.prod((1.0 + sep(s, r)) ** -3 for s, r in edges)
    if mass > 0.0:
        r_e = math.sqrt(sum(
            (u * u if regime == "ground_spacetime" else 0.0) + float(z @ z)
            for u, z in coords[1:]))
        return n_conn * math.exp(-mass / math.sqrt(k - 1) * r_e)
    return total


class TestRatioReports:
    def test_massive_thermal_bounded(self):
        tp = ThermalParams(beta=1.0, mass=1.0)
        kc = KernelConfig(channel="scalar_m", u=0.5, profile=PROF,
                          params=tp, tol=1e-10)
        bc = BoundConfig(regime="thermal_spatial", mass=1.0)
        rep = verify_bound_ratio(kc, bc, np.linspace(6.0, 14.0, 10))
        assert rep.bounded
        assert rep.trend_slope < 0.0  # kernel falls faster than e^{-m r}
        assert len(rep.separations) == len(rep.ratios) == 10

    def test_massive_ground_bounded(self):
        kc = KernelConfig(channel="scalar_m", u=1.0, profile=PROF,
                          params=GROUND, tol=1e-10)
        bc = BoundConfig(regime="ground_spacetime", mass=1.0)
        rep = verify_bound_ratio(kc, bc, np.linspace(6.0, 14.0, 10))
        assert rep.bounded
        # separations are hypot(u, z), not z itself
        assert rep.separations[0] == pytest.approx(math.hypot(1.0, 6.0))

    def test_underflowing_bound_is_excluded(self):
        tp = ThermalParams(beta=1.0, mass=2.0)
        kc = KernelConfig(channel="scalar_m", u=0.5, profile=PROF,
                          params=tp, tol=1e-6)
        bc = BoundConfig(regime="thermal_spatial", mass=2.0)
        sched = [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 400.0]
        rep = verify_bound_ratio(kc, bc, sched)
        assert rep.excluded == (400.0,)
        assert len(rep.ratios) == 7
        assert rep.bounded

    def test_regime_parameter_mismatches(self):
        kc = KernelConfig(channel="scalar_m", u=0.5, profile=PROF,
                          params=ThermalParams(beta=1.0, mass=1.0))
        with pytest.raises(ValueError):
            verify_bound_ratio(kc, BoundConfig("ground_spacetime", 1.0),
                               np.linspace(6.0, 14.0, 10))
        with pytest.raises(ValueError):
            verify_bound_ratio(kc, BoundConfig("thermal_spatial", 0.5),
                               np.linspace(6.0, 14.0, 10))
        kg = KernelConfig(channel="scalar_m", u=0.5, profile=PROF,
                          params=GROUND)
        with pytest.raises(ValueError):
            verify_bound_ratio(kg, BoundConfig("thermal_spatial", 1.0),
                               np.linspace(6.0, 14.0, 10))
        with pytest.raises(ValueError):
            verify_bound_ratio(kc, BoundConfig("thermal_spatial", 1.0),
                               [1.0, 2.0, 3.0])

    def test_bound_config_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(regime="planar", mass=1.0)
        with pytest.raises(ValueError):
            BoundConfig(regime="thermal_spatial", mass=-0.5)


class TestLemma2:
    # deterministic 3D reduction of the same integral by nested QUADPACK
    # (benchmark/lemma2_reference.py): over the radii rx, ry and the
    # separation d = |x - y|, 8 pi^2 int rx ry d (1+rx)^-3 (1+ry)^-3 (1+d)^-3
    # with |rx - ry| <= d <= rx + ry
    ORACLE = 1.7040776561593323

    def test_deterministic_and_seed_sensitive(self):
        a = lemma2_check(100000, 42)
        b = lemma2_check(100000, 42)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        c = lemma2_check(100000, 43)
        assert c.value != a.value

    def test_matches_quad_oracle(self):
        res = lemma2_check(200000, 2026)
        assert abs(res.value - self.ORACLE) <= 3.0 * res.error_estimate

    def test_estimates_pinned(self):
        # values of the earlier log-grid sampler; a real change to the sample
        # stream or to the chunking would move them at the 1e-2 level
        res = lemma2_check(200000, 2026)
        assert res.value == pytest.approx(1.7020642168079911, rel=1e-12)
        assert res.error_estimate == pytest.approx(0.0821398959183877, rel=1e-12)
        rep = lemma2_divergence_control()
        assert rep.estimates == pytest.approx(
            (183.5705102205596, 1540.997094747554, 4610.410566498356), rel=1e-12)

    def test_memory(self):
        # tracemalloc sees numpy's buffers; 34.1 MiB was the peak of one
        # single-worker chunk with the earlier log-grid sampler, and the
        # ladder's three rows on one draw stay under it too
        for run in (lambda: lemma2_check(1 << 18, 3),
                    lambda: lemma2_divergence_control(n_samples=1 << 18)):
            tracemalloc.start()
            try:
                with mock.patch("os.cpu_count", return_value=1):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 34.1 * 2 ** 20

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lemma2_check(99999, 1)

    def test_divergence_ladder(self):
        rep = lemma2_divergence_control(n_samples=400000, seed=20260822)
        assert rep.growing
        assert rep.radii == (10.0, 100.0, 1000.0)

        def truncated(r):
            # (4 pi int_0^R r^2 (1+r)^-3 dr)^2 in closed form
            s = 1.0 + r
            return (4.0 * math.pi
                    * (math.log(s) + 2.0 / s - 0.5 / s ** 2 - 1.5)) ** 2

        # the weight is a constant times the indicator of both points
        # inside r, so each rung is a scaled binomial mean
        full = truncated(CubicBallSampler().radius)
        for est, r in zip(rep.estimates, rep.radii):
            assert est == pytest.approx(truncated(r), rel=0.05)
            frac = truncated(r) / full
            assert abs(est - truncated(r)) <= 4.0 * full * math.sqrt(frac * (1.0 - frac) / 400000)

    def test_divergence_ladder_draws_once(self):
        with mock.patch.object(decay, "monte_carlo_6d", wraps=decay.monte_carlo_6d) as mc:
            rep = lemma2_divergence_control(n_samples=100000)
        assert mc.call_count == 1
        assert len(rep.estimates) == 3

    def test_divergence_control_validation(self):
        with pytest.raises(ValueError):
            lemma2_divergence_control(radii=(100.0, 10.0))
        with pytest.raises(ValueError):
            lemma2_divergence_control(radii=(10.0,))
        with pytest.raises(ValueError):
            lemma2_divergence_control(radii=(10.0, 1e6))
