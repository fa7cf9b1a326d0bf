"""End-to-end acceptance: one test per headline behavior.

Each test prints a single summary line and asserts at the tolerance it
states; run with -v to get one pass/fail line per criterion. Runtime
budgets are asserted too, so a silent performance regression fails the
gate rather than slipping through.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from debye_screen import (
    BoundConfig,
    KernelConfig,
    SourceSpec,
    TestProfile,
    ThermalParams,
    b_hat,
    bessel_k,
    debye_mass_sq_integral,
    debye_mass_sq_massless,
    debye_mass_sq_series,
    delta_family_limit,
    enumerate_connected_graphs,
    f_hat_spatial,
    f_hat_temporal,
    fit_decay,
    graph_bound,
    lemma2_check,
    lemma2_divergence_control,
    screening_profile,
    thermal_kernel_imag,
    verify_bound_ratio,
    yukawa_reference,
)
from debye_screen.polarization import debye_mass_sq

UNIT = ThermalParams(beta=1.0, mass=1.0)
UNIT_MD = ThermalParams(beta=6 ** -0.5, mass=0.0)   # m_D exactly 1
PROF = TestProfile(kind="gaussian", width=1.0, support_radius=3.0)

# same 24-point cross-check grid as the debye module tests
BETA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
MASS_GRID = (0.1, 0.5, 1.0, 2.0)


def report(name, ok, detail, elapsed, budget):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_01_massless_mass_closed_form():
    t0 = time.time()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 5.0):
        v = debye_mass_sq_integral(ThermalParams(beta=beta, mass=0.0), 1e-8).m_d_sq
        ref = 1.0 / (6.0 * beta * beta)
        worst = max(worst, abs(v - ref) / ref)
    report("massless mass equals 1/(6 beta^2)", worst < 1e-6,
           f"worst rel {worst:.2e} (tol 1e-6)", time.time() - t0, 1.0)


def test_02_series_vs_integral_on_grid():
    t0 = time.time()
    worst = 0.0
    for beta in BETA_GRID:
        for m in MASS_GRID:
            p = ThermalParams(beta=beta, mass=m)
            a = debye_mass_sq_series(p, 1e-10).m_d_sq
            b = debye_mass_sq_integral(p, 1e-8).m_d_sq
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    report("series and integral mass routes agree", worst < 1e-6,
           f"24 points, worst rel {worst:.2e} (tol 1e-6)", time.time() - t0, 10.0)


def test_03_ground_state_limit():
    t0 = time.time()
    vals = [debye_mass_sq_series(ThermalParams(beta=b, mass=1.0), 1e-8).m_d_sq
            for b in (5.0, 10.0, 20.0, 50.0)]
    mono = all(a > b for a, b in zip(vals, vals[1:]))
    ok = mono and vals[-1] < 1e-19
    report("square mass dies toward the ground state", ok,
           f"monotone {mono}, m_D^2(beta=50) = {vals[-1]:.1e} (< 1e-19)",
           time.time() - t0, 1.0)


def test_04_static_kernel_identity():
    t0 = time.time()
    md2 = debye_mass_sq(UNIT, 1e-10).m_d_sq
    gaps = [abs(f_hat_temporal(p, UNIT, 1e-11) + md2) / md2
            for p in (0.2, 0.1, 0.05, 0.025)]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    ok = min(orders) >= 1.0 and gaps[-1] < 1e-4
    report("temporal kernel pins minus the square mass at zero momentum", ok,
           f"orders {['%.2f' % o for o in orders]}, final gap {gaps[-1]:.2e} "
           "(tol 1e-4)", time.time() - t0, 60.0)


def test_05_channel_zeros():
    t0 = time.time()
    worst_f = 0.0
    ok_b = True
    for p in (UNIT, UNIT_MD):
        worst_f = max(worst_f, abs(f_hat_spatial(0.0, p, 1e-10)) * p.beta ** 2)
        for ch in ("temporal", "spatial"):
            ok_b = ok_b and b_hat(ch, 0.0, p) == 0.0
    ok = worst_f < 1e-6 and ok_b
    report("spatial kernel and vacuum term vanish at zero momentum", ok,
           f"|f_spatial(0)| beta^2 = {worst_f:.1e} (< 1e-6), b_hat exact {ok_b}",
           time.time() - t0, 10.0)


def test_06_yukawa_screening_zeroth_order():
    t0 = time.time()
    md2 = debye_mass_sq(UNIT_MD, 1e-10).m_d_sq
    rg = list(np.geomspace(0.1, 15.0, 14))
    # epsilon small enough that the mollifier bias e^{eps^2/2} - 1 ~ 1e-5
    # sits well under the stated tolerance
    prof = screening_profile(SourceSpec.smoothed_point(0.0045), UNIT_MD,
                             "zeroth_order", rg, 1e-6)
    worst = max(abs(v - yukawa_reference(1.0, 1.0, md2, r))
                / yukawa_reference(1.0, 1.0, md2, r)
                for r, v in zip(rg, prof.values))
    rate = -fit_decay([(r, 4.0 * math.pi * r * v)
                       for r, v in zip(rg, prof.values)], "log_linear").slope
    ok = worst < 1e-4 and abs(rate - 1.0) < 1e-3
    report("frozen-kernel profile is Yukawa", ok,
           f"worst rel {worst:.2e} (tol 1e-4), rate {rate:.6f} (tol 0.1%)",
           time.time() - t0, 30.0)


def test_07_delta_family_limit():
    t0 = time.time()
    md = math.sqrt(UNIT.lam * debye_mass_sq(UNIT, 1e-10).m_d_sq)
    rep = delta_family_limit([0.4, 0.2, 0.1, 0.05], UNIT, [1.0 / md], 1e-7)
    ok = all(rep.monotone) and rep.final_gap[0] < 1e-3
    report("mollified sources converge to the point charge", ok,
           f"monotone {all(rep.monotone)}, final gap {rep.final_gap[0]:.2e} "
           "(tol 1e-3)", time.time() - t0, 60.0)


def test_08_massive_decay_rate():
    t0 = time.time()
    worst = math.inf
    for beta in (0.5, 1.0, 2.0):
        for m in (0.5, 1.0, 2.0):
            p = ThermalParams(beta=beta, mass=m)
            zs = np.linspace(6.0 / m, 14.0 / m, 8)
            pts = [(z, abs(thermal_kernel_imag(beta / 2.0, z, "scalar_m",
                                               PROF, p, 1e-9)))
                   for z in zs]
            rate = -fit_decay(pts, "log_linear").slope
            worst = min(worst, rate / m)
    report("massive kernel decays at least at rate 0.95 m", worst >= 0.95,
           f"9 parameter pairs, worst rate/m {worst:.3f}",
           time.time() - t0, 120.0)


def test_09_massless_decay_envelope():
    t0 = time.time()
    worst_slope = -math.inf
    bounded = True
    for beta in (0.5, 1.0, 2.0):
        p = ThermalParams(beta=beta, mass=0.0)
        kc = KernelConfig(channel="spatial_p", u=beta / 2.0, profile=PROF,
                          params=p, tol=1e-9)
        rep = verify_bound_ratio(kc, BoundConfig(regime="thermal_spatial",
                                                 mass=0.0),
                                 list(np.geomspace(2.0, 50.0, 10)))
        worst_slope = max(worst_slope, rep.trend_slope)
        bounded = bounded and rep.bounded
    ok = bounded and worst_slope <= 0.01
    report("massless kernel stays under the cubic envelope", ok,
           f"bounded {bounded}, worst trend slope {worst_slope:+.4f} "
           "(tol +0.01)", time.time() - t0, 120.0)


def _oracle_count(k):
    edges = list(combinations(range(k), 2))
    count = 0
    for bits in range(1 << len(edges)):
        adj = {i: set() for i in range(k)}
        for j, (a, b) in enumerate(edges):
            if bits >> j & 1:
                adj[a].add(b), adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb), stack.append(nb)
        count += len(seen) == k
    return count


def _oracle_bound(points, mass, gs, regime):
    coords = [(0.0, np.zeros(3))] + [(float(u), np.asarray(z, float))
                                     for u, z in points]
    if mass > 0.0:
        if regime == "thermal_spatial":
            r_e = math.sqrt(sum(float(z @ z) for _, z in coords[1:]))
        else:
            r_e = math.sqrt(sum(u * u + float(z @ z) for u, z in coords[1:]))
        return len(gs.graphs) * math.exp(-mass / math.sqrt(len(points)) * r_e)
    total = 0.0
    for g in gs.graphs:
        prod = 1.0
        for s, r in g:
            us, zs = coords[s]
            ur, zr = coords[r]
            d2 = float((zs - zr) @ (zs - zr))
            if regime == "ground_spacetime":
                d2 += (us - ur) ** 2
            prod *= (1.0 + math.sqrt(d2)) ** -3
        total += prod
    return total


def test_10_graph_machinery():
    t0 = time.time()
    counts_ok = all(len(enumerate_connected_graphs(k).graphs) == _oracle_count(k)
                    for k in (2, 3, 4, 5))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        pts = [(float(rng.uniform(0, 2)), tuple(rng.uniform(-4, 4, 3)))
               for _ in range(k - 1)]
        gs = enumerate_connected_graphs(k)
        for mass in (0.0, 1.3):
            for regime in ("thermal_spatial", "ground_spacetime"):
                mine = graph_bound(pts, mass, gs, regime)
                ref = _oracle_bound(pts, mass, gs, regime)
                worst = max(worst, abs(mine - ref) / max(abs(ref), 1e-300))
    ok = counts_ok and worst < 1e-12
    report("graph counts and bounds match brute enumeration", ok,
           f"counts exact {counts_ok}, 20 point sets worst rel {worst:.1e} "
           "(tol 1e-12)", time.time() - t0, 5.0)


def test_11_collision_integral():
    t0 = time.time()
    a = lemma2_check(1_000_000, 42)
    b = lemma2_check(4_000_000, 43)
    sigma = math.hypot(a.error_estimate, b.error_estimate)
    gap = abs(a.value - b.value)
    dc = lemma2_divergence_control()
    ok = gap <= 3.0 * sigma and dc.growing
    report("6D collision integral is stable and its control diverges", ok,
           f"gap {gap / sigma:.2f} sigma (<= 3), ladder growing {dc.growing}",
           time.time() - t0, 60.0)


def test_12_bessel_base():
    t0 = time.time()
    from scipy.integrate import quad
    import mpmath as mp

    def rep_a(z):
        v, _ = quad(lambda x: x ** 4 / math.sqrt(1 + x * x)
                    * math.exp(-z * math.sqrt(1 + x * x)),
                    0.0, math.inf, epsabs=1e-15, epsrel=1e-12, limit=200)
        return z * z / 3.0 * v

    def rep_b(z):
        f = lambda x: x ** 4 / mp.sqrt(1 + x * x) * mp.exp(-z * mp.sqrt(1 + x * x))
        return float(mp.mpf(z) ** 2 / 3 * mp.quad(f, [0, mp.inf]))

    worst = 0.0
    for z in (0.5, 1.0, 2.0, 5.0, 10.0):
        a, b = rep_a(z), rep_b(z)
        assert a == pytest.approx(b, rel=1e-10)   # the two quadratures agree
        worst = max(worst, abs(bessel_k(2, z) - a) / a)
    report("K2 matches its momentum-integral representation", worst < 1e-8,
           f"worst rel {worst:.1e} (tol 1e-8)", time.time() - t0, 5.0)


def _cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "debye_screen.cli", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_13_cli_determinism_and_exit_codes(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["debye", "--out-json", "o.json", "--out-csv", "o.csv", "--quiet"]
    ok = _cli(args, a).returncode == 0 and _cli(args, b).returncode == 0
    same = ((a / "o.json").read_bytes() == (b / "o.json").read_bytes()
            and (a / "o.csv").read_bytes() == (b / "o.csv").read_bytes())

    zeros = all(_cli([name, "--quiet"], tmp_path).returncode == 0
                for name in ("screening", "polarization", "decay", "limits"))

    bad = tmp_path / "bad.cfg"
    bad.write_text("subcommand=debye\nparams.beta=warm\n")
    two = _cli(["debye", "--config", str(bad)], tmp_path).returncode == 2

    ir = tmp_path / "ir.cfg"
    ir.write_text("subcommand=polarization\nkernel.channel=spatial\n"
                  "params.mass=0.0\n")
    one = _cli(["polarization", "--config", str(ir)], tmp_path).returncode == 1

    all_ok = ok and same and zeros and two and one
    report("CLI bytes reproduce and exit codes hold", all_ok,
           f"byte-identical {same}, exit0 {ok and zeros}, exit2 {two}, "
           f"exit1 {one}", time.time() - t0, 10.0)
