"""Decay checks for the imaginary-time two-point kernel and graph bounds.

The kernel here is the analytic continuation of the smeared two-point
function to imaginary time offset u, radially reduced: one oscillatory
momentum integral per spatial separation. Its large-distance behavior is
checked against the advertised envelopes (exponential rate m when m > 0,
cubic power law when m = 0), the combinatorial side enumerates connected
labeled graphs and evaluates the bound expressions, and a Monte Carlo
pass confirms the convergence of the triple-cubic 6D integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, StripViolationError
from .quadrature import (
    CubicBallSampler,
    QuadratureResult,
    TestProfile,
    _osc_integral,
    _past_rounding,
    integrate_semi_infinite,
    monte_carlo_6d,
)
from .specfun import ThermalParams, dispersion

__all__ = [
    "GraphSet",
    "DecayFit",
    "KernelConfig",
    "BoundConfig",
    "RatioReport",
    "DivergenceControl",
    "thermal_kernel_imag",
    "fit_decay",
    "enumerate_connected_graphs",
    "graph_bound",
    "verify_bound_ratio",
    "lemma2_check",
    "lemma2_divergence_control",
]

_CHANNELS = ("scalar_m", "temporal_omega", "spatial_p")
_REGIMES = ("thermal_spatial", "ground_spacetime")


_WEIGHTS = ("forward", "kms")


def _weight_factory(u: float, beta: float, weight: str):
    """Imaginary-time weight of the two-point kernel at offset u.

    "forward" is the bare continuation factor e^{-u w} of the
    one-ordering kernel; "kms" symmetrizes both orderings with their
    Fermi factors, (e^{-u w} + e^{-(beta-u) w}) / (1 + e^{-beta w}).
    The kms form is even in w, which closes the branch cut carrying the
    e^{-m r} falloff; only the forward kernel exhibits the mass rate.
    """
    if weight == "forward" or not math.isfinite(beta):
        def w_of(omega):
            return np.exp(-u * omega)
    else:
        def w_of(omega):
            return (np.exp(-u * omega) + np.exp(-(beta - u) * omega)) / (
                1.0 + np.exp(-beta * omega))
    return w_of


def thermal_kernel_imag(u: float, z_mag: float, channel: str,
                        profile: TestProfile, params: ThermalParams,
                        tol: float = 1e-9, weight: str = "forward") -> float:
    """Radially reduced kernel int dp p^2/(2w) W(u,w) f_hat(p) c(w,p) j_l(pz).

    c is m, w, or p by channel; l = 0 for the first two and 1 for the
    momentum channel (whose angular average is along the separation).
    W is e^{-u w} by default; weight="kms" folds in the Fermi factors of
    the finite-temperature two-point function.
    """
    if channel not in _CHANNELS:
        raise ValueError(f"channel must be one of {_CHANNELS}, got {channel!r}")
    if weight not in _WEIGHTS:
        raise ValueError(f"weight must be one of {_WEIGHTS}, got {weight!r}")
    if z_mag < 0.0:
        raise ValueError(f"z_mag must be >= 0, got {z_mag}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    beta = params.beta
    if math.isfinite(beta):
        if not (0.0 < u < beta):
            raise StripViolationError(
                f"u = {u} outside the analyticity strip (0, {beta})")
    elif not (u > 0.0):
        raise StripViolationError(f"u = {u} outside the strip (0, inf)")

    m = params.mass
    w_of = _weight_factory(u, beta, weight)

    def core(p):
        w = dispersion(p, m)
        return 0.5 * p / np.maximum(w, 1e-300) * w_of(w) * profile.f_hat(p)

    if z_mag == 0.0:
        if channel == "spatial_p":
            return 0.0  # odd integrand, j_1(0) = 0

        def g(p):
            w = dispersion(p, m)
            fac = m if channel == "scalar_m" else w
            return p * core(p) * fac

        u_eff = u
        if weight == "kms" and math.isfinite(beta):
            u_eff = min(u, beta - u)
        scale = min(profile.width, 1.0 / u_eff)
        res = integrate_semi_infinite(g, scale, 1e-300, rel_tol=tol)
        if not res.converged:
            raise ConvergenceError(
                f"kernel at z = 0 did not converge: error {res.error_estimate:.3e} "
                f"on value {res.value:.3e}", estimate=res.value,
                error_estimate=res.error_estimate)
        return res.value

    if channel == "spatial_p":
        # p j_1(pz) reduction: sin and cos lobes with different powers
        v1 = _converged_osc(core, z_mag, "sin", tol)
        v2 = _converged_osc(lambda p: p * core(p), z_mag, "cos", tol)
        return v1 / (z_mag * z_mag) - v2 / z_mag

    if channel == "scalar_m":
        def g(p):
            return m * core(p)
    else:
        def g(p):
            return dispersion(p, m) * core(p)

    return _converged_osc(g, z_mag, "sin", tol) / z_mag


def _converged_osc(g, z_mag: float, kind: str, tol: float) -> float:
    """_osc_integral's value; raises when it missed tol and its rounding floor."""
    v, err, _n, acc = _osc_integral(g, z_mag, kind, tol)
    if err > tol * abs(v) and _past_rounding(err, acc):
        raise ConvergenceError(
            f"{kind} transform at |z| = {z_mag} did not converge: "
            f"error {err:.3e} on value {v:.3e}", estimate=v, error_estimate=err)
    return v


@dataclass(frozen=True)
class DecayFit:
    window: tuple
    slope: float
    intercept: float
    max_residual: float
    model: str

    def __post_init__(self):
        if not (self.window[0] < self.window[1]):
            raise ValueError("fit window must have r_min < r_max")


def fit_decay(samples, model: str) -> DecayFit:
    """Least squares of log|value| against r or log(1+r).

    Demands at least 8 strictly increasing radii, nonzero values, and a
    single sign throughout; envelopes with sign changes belong in
    absolute-value form before fitting.
    """
    if model not in ("log_linear", "loglog_linear"):
        raise ValueError(f"unknown fit model {model!r}")
    pts = [(float(r), float(v)) for r, v in samples]
    if len(pts) < 8:
        raise ValueError("need >= 8 samples for a decay fit")
    rs = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    if any(a >= b for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be strictly increasing")
    if any(v == 0.0 or not math.isfinite(v) for v in vs):
        raise ValueError("values must be finite and nonzero on the window")
    if any(v * vs[0] < 0.0 for v in vs):
        raise ValueError("sign change inside the fit window")
    x = np.array(rs) if model == "log_linear" else np.log1p(np.array(rs))
    y = np.log(np.abs(np.array(vs)))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(window=(rs[0], rs[-1]), slope=float(slope),
                    intercept=float(intercept), max_residual=resid, model=model)


@dataclass(frozen=True)
class GraphSet:
    vertex_count: int
    graphs: tuple
    connected: bool = True

    def __post_init__(self):
        k = self.vertex_count
        seen = set()
        for g in self.graphs:
            for s, r in g:
                if not (0 <= s < r < k):
                    raise ValueError(f"edge ({s},{r}) invalid for {k} vertices")
            if len(set(g)) != len(g):
                raise ValueError("parallel edges in a graph")
            if g in seen:
                raise ValueError("duplicate graph in enumeration")
            seen.add(g)
            if not _is_connected(k, g):
                raise ValueError("disconnected graph in a connected set")


def _is_connected(k: int, edges) -> bool:
    if k == 1:
        return True
    adj = [[] for _ in range(k)]
    for s, r in edges:
        adj[s].append(r)
        adj[r].append(s)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


def enumerate_connected_graphs(k: int) -> GraphSet:
    """All connected labeled simple graphs on k vertices, k in [2, 6]."""
    if not (isinstance(k, int) and 2 <= k <= 6):
        raise ValueError(f"unsupported vertex count {k}; need an int in [2, 6]")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    found = []
    for mask in range(1, 1 << len(pairs)):
        edges = tuple(e for b, e in enumerate(pairs) if (mask >> b) & 1)
        if _is_connected(k, edges):
            found.append(edges)
    return GraphSet(vertex_count=k, graphs=tuple(found))


def graph_bound(points, mass: float, graphs: GraphSet, regime: str) -> float:
    """Bound expression over a connected-graph set, origin vertex implicit.

    Massless: sum over graphs of per-edge cubic factors (1+d)^-3 with d
    the spatial (or Euclidean spacetime) separation. Massive: the graph
    count times e^{-(m/sqrt(n)) r_e} with r_e the root sum of squared
    displacements.
    """
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
    if mass < 0.0:
        raise ValueError(f"mass must be >= 0, got {mass}")
    pts = [(float(p[0]), np.asarray(p[1], dtype=float)) for p in points]
    if any(z.shape != (3,) for _, z in pts):
        raise ValueError("each point is (u, 3-vector)")
    if len(pts) != graphs.vertex_count - 1:
        raise ValueError(
            f"{graphs.vertex_count}-vertex graphs need {graphs.vertex_count - 1} "
            f"points beyond the origin, got {len(pts)}")

    coords = [(0.0, np.zeros(3))] + pts
    if mass > 0.0:
        n = len(pts)
        if regime == "thermal_spatial":
            r_e = math.sqrt(sum(float(z @ z) for _, z in pts))
        else:
            r_e = math.sqrt(sum(u * u + float(z @ z) for u, z in pts))
        return len(graphs.graphs) * math.exp(-mass / math.sqrt(n) * r_e)

    total = 0.0
    for g in graphs.graphs:
        prod = 1.0
        for s, r in g:
            us, zs = coords[s]
            ur, zr = coords[r]
            dz = zs - zr
            if regime == "thermal_spatial":
                d = math.sqrt(float(dz @ dz))
            else:
                d = math.sqrt((us - ur) ** 2 + float(dz @ dz))
            prod *= (1.0 + d) ** -3
        total += prod
    return total


@dataclass(frozen=True)
class KernelConfig:
    channel: str
    u: float
    profile: TestProfile
    params: ThermalParams
    tol: float = 1e-9
    weight: str = "forward"


@dataclass(frozen=True)
class BoundConfig:
    regime: str
    mass: float

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if self.mass < 0.0:
            raise ValueError("mass must be >= 0")


@dataclass(frozen=True)
class RatioReport:
    separations: tuple
    ratios: tuple
    sup_ratio: float
    trend_slope: float
    excluded: tuple
    bounded: bool


def verify_bound_ratio(kernel_config: KernelConfig, bound_config: BoundConfig,
                       r_schedule) -> RatioReport:
    """Sup of |kernel| / bound over a separation schedule, with trend fit.

    The regimes must match the parameter set: spacetime bounds demand the
    ground state, spatial ones a finite temperature, and the bound mass
    must be the kernel's. A growing trend (slope of log ratio against the
    separation above 0.01) marks the bound as violated.
    """
    kc, bc = kernel_config, bound_config
    if bc.regime == "ground_spacetime" and math.isfinite(kc.params.beta):
        raise ValueError("spacetime regime needs the ground state (beta = inf)")
    if bc.regime == "thermal_spatial" and not math.isfinite(kc.params.beta):
        raise ValueError("spatial regime needs finite beta")
    if bc.mass != kc.params.mass:
        raise ValueError("bound mass must match the kernel mass")
    zs = [float(z) for z in r_schedule]
    if len(zs) < 8 or any(a >= b for a, b in zip(zs, zs[1:])) or zs[0] <= 0.0:
        raise ValueError("schedule must be >= 8 strictly increasing positive radii")

    def one(z):
        k = thermal_kernel_imag(kc.u, z, kc.channel, kc.profile, kc.params,
                                kc.tol, weight=kc.weight)
        sep = z if bc.regime == "thermal_spatial" else math.hypot(kc.u, z)
        b = math.exp(-bc.mass * sep) if bc.mass > 0.0 else (1.0 + sep) ** -3
        return sep, abs(k), b

    rows = [one(z) for z in zs]

    seps, ratios, excluded = [], [], []
    for sep, k_abs, b in rows:
        if b == 0.0 or k_abs == 0.0:
            excluded.append(sep)
            continue
        seps.append(sep)
        ratios.append(k_abs / b)
    if len(ratios) < 2:
        raise ValueError("schedule left fewer than 2 usable ratio samples")
    slope = float(np.polyfit(np.array(seps), np.log(np.array(ratios)), 1)[0])
    return RatioReport(
        separations=tuple(seps), ratios=tuple(ratios),
        sup_ratio=max(ratios), trend_slope=slope,
        excluded=tuple(excluded), bounded=slope <= 0.01)


def _norms(a: np.ndarray) -> np.ndarray:
    """Row lengths of an (n, 3) block."""
    r = np.einsum("ij,ij->i", a, a)
    return np.sqrt(r, out=r)


def lemma2_check(n_samples: int, seed: int) -> QuadratureResult:
    """Monte Carlo value of the triple-cubic 6D integral with its stderr."""
    if n_samples < 100000:
        raise ValueError("need n_samples >= 1e5 for a stable estimate")
    sampler = CubicBallSampler()

    def integrand(xs, ys):
        p = 1.0 + _norms(xs)
        p *= 1.0 + _norms(ys)
        p *= 1.0 + _norms(xs - ys)
        return 1.0 / (p * p * p)

    return monte_carlo_6d(integrand, sampler, n_samples, seed)


@dataclass(frozen=True)
class DivergenceControl:
    radii: tuple
    estimates: tuple
    growing: bool


def lemma2_divergence_control(radii=(10.0, 100.0, 1000.0),
                              n_samples: int = 400000,
                              seed: int = 20260822) -> DivergenceControl:
    """Drop the cross factor and watch the truncated integral diverge.

    With only the two single-point cubic factors the 6D integral grows
    like log^2 of the truncation radius; a flat ladder here would mean
    the convergence check above is vacuous. All radii are estimated on
    one draw.
    """
    rads = [float(r) for r in radii]
    if len(rads) < 2 or any(a >= b for a, b in zip(rads, rads[1:])):
        raise ValueError("radii must be strictly increasing with >= 2 entries")
    sampler = CubicBallSampler()
    if rads[-1] > sampler.radius:
        raise ValueError("truncation radius beyond the sampler support")

    cuts = np.array(rads)[:, None]

    def integrand(xs, ys):
        rx = _norms(xs)
        ry = _norms(ys)
        outer = np.maximum(rx, ry)
        p = (1.0 + rx) * (1.0 + ry)
        del rx, ry
        p = 1.0 / (p * p * p)
        return (outer < cuts) * p   # one row per truncation radius

    estimates = [res.value for res in monte_carlo_6d(integrand, sampler, n_samples, seed)]
    growing = all(a < b for a, b in zip(estimates, estimates[1:]))
    return DivergenceControl(radii=tuple(rads), estimates=tuple(estimates),
                             growing=growing)
