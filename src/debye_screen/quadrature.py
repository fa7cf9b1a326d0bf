"""Controlled numerical integration.

Four workhorses:

* adaptive semi-infinite integrals whose last Gauss-Kronrod panel
  is mapped onto [c, inf), so the tail is inside the error estimate,
* 2D radial-angular momentum integrals, one adaptive angular integral
  per radial shell, with removable-singularity handling delegated to
  the caller's kernel (the polarization kernel no longer runs on it; the
  tests use it as that kernel's 2D reference),
* oscillatory radial sine transforms, partitioned at the trig zeros and
  accelerated by repeated averaging of the alternating partial sums
  (Euler transformation), with a big-float rerun where the value is
  too deeply cancelled for double precision,
* plain Monte Carlo in 6 dimensions with a deterministic, chunked
  importance sampler.

Every integrand takes numpy arrays: a Gauss-Kronrod integrand gets a
1-D array of abscissae, 21 per panel, an oscillatory one a 1-D array of
momenta, and a radial-angular kernel a float p with a 1-D array of
angles t, its values broadcast to the shape of t. The Monte Carlo
integrand maps two (n, 3) blocks of points to n values, or to a (k, n)
array of k integrands estimated on one draw. There is no scalar
fallback, so a float-only integrand raises, and a non-finite value
raises IntegrandError at the abscissa that produced it.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrandError, SamplerMismatchError

__all__ = [
    "QuadratureResult",
    "TestProfile",
    "integrate_semi_infinite",
    "integrate_radial_angular",
    "sine_transform_radial",
    "monte_carlo_6d",
    "CubicBallSampler",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, work counter and convergence flag."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class TestProfile:
    """Fast-decaying momentum-space test profile.

    ``width`` is the momentum-space Gaussian width w, so
    f_hat(p) = exp(-p^2 / (2 w^2)); ``support_radius`` records the
    nominal position-space localization (~3/w) that asymptotic fit
    windows should clear.
    """

    __test__ = False  # not a pytest class despite the name

    kind: str = "gaussian"
    width: float = 1.0
    support_radius: float = 3.0

    def __post_init__(self):
        if self.kind != "gaussian":
            raise ValueError(f"unsupported profile kind {self.kind!r}")
        if not (self.width > 0.0):
            raise ValueError(f"width must be > 0, got {self.width}")
        if not (self.support_radius > 0.0):
            raise ValueError(f"support_radius must be > 0, got {self.support_radius}")

    def f_hat(self, p):
        """Momentum profile, numpy-elementwise."""
        p = np.asarray(p, dtype=float)
        out = np.exp(-0.5 * (p / self.width) ** 2)
        return out if out.shape else float(out)


# QUADPACK qk21 rule (Piessens et al. 1983) on [-1, 1]: the positive
# Kronrod abscissae with their weights, and the weight of the 10-point
# Gauss rule at the same abscissa (0.0 where the node is Kronrod-only)
_GK21_HALF = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
)
_GK21_CENTRE = 0.149445554002916905664936468389821
# the same rule over all 21 abscissae in ascending order; the Gauss
# nodes are the odd entries, and _WG holds their weights
_XK = np.array([*(-x for x, _, _ in _GK21_HALF), 0.0, *(x for x, _, _ in reversed(_GK21_HALF))])
_WK = np.array([*(w for _, w, _ in _GK21_HALF), _GK21_CENTRE,
                *(w for _, w, _ in reversed(_GK21_HALF))])
_WG = np.array([*(g for _, _, g in _GK21_HALF if g), *(g for _, _, g in reversed(_GK21_HALF) if g)])
_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308


# the same abscissae mapped onto [0, inf) by x = (1+t)/(1-t), and the
# Jacobian 2/(1-t)^2 of that map
_XK_INF = (1.0 + _XK) / (1.0 - _XK)
_JK_INF = 2.0 / (1.0 - _XK) ** 2


def _gk21(f, panels, s=1.0):
    """The 21-point Gauss-Kronrod rule on each (a, b) of ``panels``, with
    one call of f for all of them: a list of (value, error, a, b, resasc).

    f gets the 1-D array of the panels' abscissae, 21 a panel in panel
    order, and its values broadcast to that shape; a NaN or inf value
    raises IntegrandError at the first abscissa that produced one. Only
    the last panel may have b = inf. It is mapped onto t in [-1, 1) by
    x = a + s (1+t)/(1-t), so its abscissae are the constants
    a + s _XK_INF and its values carry the Jacobian s _JK_INF.
    The error estimate is QUADPACK's: the Kronrod-Gauss difference,
    rescaled against resasc (the panel's integral of |f - mean|) and
    floored at the rounding level of the integral of |f|.
    """
    mapped = panels[-1][1] == math.inf
    hs = [s if b == math.inf else 0.5 * (b - a) for a, b in panels]
    x = np.multiply.outer(hs, _XK)
    x += np.array([a if b == math.inf else 0.5 * (a + b) for a, b in panels])[:, None]
    if mapped:
        x[-1] = panels[-1][0] + s * _XK_INF
    x = x.ravel()
    fx = np.empty_like(x)
    fx[:] = f(x)   # a copy, broadcast to the abscissae
    if not np.isfinite(fx).all():
        i = np.flatnonzero(~np.isfinite(fx))[0]
        raise IntegrandError(f"integrand returned {fx[i]} at x={x[i]}", abscissa=float(x[i]))
    fx = fx.reshape(len(panels), _XK.size)
    if mapped:
        fx[-1] *= _JK_INF
    kronrod = fx @ _WK
    sums = zip(kronrod.tolist(), (fx[:, 1::2] @ _WG).tolist(), (np.abs(fx) @ _WK).tolist(),
               (np.abs(fx - 0.5 * kronrod[:, None]) @ _WK).tolist())
    out = []
    for (a, b), h, (resk, resg, resabs, resasc) in zip(panels, hs, sums):
        ah = abs(h)
        resabs *= ah
        resasc *= ah
        err = abs((resk - resg) * h)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        if resabs > _TINY / (50.0 * _EPS):
            err = max(50.0 * _EPS * resabs, err)
        out.append((resk * h, err, a, b, resasc))
    return out


def _quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50, points=None, scale=1.0):
    """Adaptive Gauss-Kronrod integral of f over [a, b]; b may be inf.

    QUADPACK QAG style: the interval, split first at ``points``, is
    covered by 21-point panels, and the panel with the largest error is
    bisected until the summed error is below max(epsabs, epsrel*|value|),
    ``limit`` panels exist, or rounding stalls the refinement (QUADPACK's
    iroff counters, or a panel too narrow to bisect). When b = inf the
    last panel [c, inf) is mapped with length scale ``scale`` (see
    _gk21); its bisection gives a plain panel [c, c + s] and the mapped
    panel [c + s, inf) of scale 2s, so the tail stays inside the error
    estimate. Returns (value, error, evaluations); the error is the
    summed panel estimate also when the loop stops short, so callers can
    judge convergence themselves, and evaluations counts the abscissae f
    got, 21 a panel. f is called once for the first panels and once per
    bisection, for both halves (see _gk21).
    """
    edges = [a, *sorted(p for p in (points or ()) if a < p < b), b]
    panels = _gk21(f, list(zip(edges, edges[1:])), scale)
    area = sum(p[0] for p in panels)
    errsum = sum(p[1] for p in panels)
    if errsum == 0.0 or (errsum <= max(epsabs, epsrel * abs(area))
                         and all(p[1] != p[4] for p in panels)):
        return area, errsum, _XK.size * len(panels)

    # left edges are unique, so they break ties in the error key
    heap = [(-p[1], p[2], p) for p in panels]
    heapq.heapify(heap)
    n = len(panels)
    iroff1 = iroff2 = 0
    while n < limit:
        _, _, (val, err, lo, hi, _) = heapq.heappop(heap)
        if hi == math.inf:
            # only the last panel is infinite, so one scale suffices
            mid = lo + scale
            scale *= 2.0
        else:
            mid = 0.5 * (lo + hi)
        left, right = _gk21(f, [(lo, mid), (mid, hi)], scale)
        area12 = left[0] + right[0]
        err12 = left[1] + right[1]
        area += area12 - val
        errsum += err12 - err
        if left[1] != left[4] and right[1] != right[4]:
            if abs(val - area12) <= 1e-5 * abs(area12) and err12 >= 0.99 * err:
                iroff1 += 1
            if n >= 10 and err12 > err:
                iroff2 += 1
        heapq.heappush(heap, (-left[1], lo, left))
        heapq.heappush(heap, (-right[1], mid, right))
        n += 1
        if errsum <= max(epsabs, epsrel * abs(area)):
            break
        if iroff1 >= 6 or iroff2 >= 20:
            break
        if max(abs(lo), abs(hi)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            break
    # each bisection evaluated two new panels
    return math.fsum(e[2][0] for e in heap), errsum, _XK.size * (2 * n - len(panels))


def integrate_semi_infinite(
    f,
    decay_scale: float,
    tol: float,
    *,
    rel_tol: float | None = None,
    points=None,
) -> QuadratureResult:
    """Integrate f over [0, inf) to absolute tolerance ``tol``.

    f maps a 1-D numpy array of abscissae to their values, 21 for each
    Gauss-Kronrod panel; it is called once for the first panels and once
    per bisection, and ``evaluations`` counts the abscissae.
    One adaptive Gauss-Kronrod integral: finite panels between the
    ``points``, then one mapped panel reaching to infinity whose first
    length scale is ``decay_scale``. The tail is part of the adaptive
    error estimate, so no decay law is assumed. When ``rel_tol`` is
    given, convergence is also granted at err <= rel_tol * |value|,
    which is the right notion for integrals whose scale is not known a
    priori. An unreached tolerance is reported by ``converged``, not
    raised.
    """
    if not (decay_scale > 0.0):
        raise ValueError(f"decay_scale must be > 0, got {decay_scale}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    epsrel = 1e-12 if rel_tol is None else max(1e-12, 0.25 * rel_tol)
    val, err, n = _quad(f, 0.0, math.inf, epsabs=0.25 * tol, epsrel=epsrel, limit=500,
                        points=points, scale=decay_scale)
    converged = err <= tol or (rel_tol is not None and err <= rel_tol * abs(val))
    return QuadratureResult(value=val, error_estimate=err, evaluations=n, converged=converged)


def integrate_radial_angular(
    kernel,
    tol: float,
    *,
    decay_scale: float = 1.0,
    inner_points=None,
    rel_tol: float | None = None,
) -> QuadratureResult:
    """2pi * int_0^inf dp p^2 int_{-1}^{1} dt kernel(p, t), to ~tol.

    ``kernel`` must accept numpy arrays: it is called with a float shell
    momentum p and a 1-D array of angular abscissae t, and its values are
    broadcast to the shape of t. Each shell's angular integral runs on
    the adaptive Gauss-Kronrod rule to an absolute target 1e-4 tol /
    max(p^2, 1), one kernel call per refinement step, and the radial
    integral runs one such integral at each shell momentum it gets. The
    azimuthal 2pi is applied internally. ``inner_points``, if given, maps
    a float p to a list of interior t-breakpoints (e.g. the removable
    coincidence point of a difference-quotient kernel) that the angular
    panels should honor. ``evaluations`` counts the kernel's abscissae.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    inner_evals = 0

    def shell(p):
        nonlocal inner_evals
        try:
            val, _, n = _quad(functools.partial(kernel, p), -1.0, 1.0,
                              epsabs=1e-4 * tol / max(p * p, 1.0), epsrel=1e-10, limit=200,
                              points=inner_points(p) if inner_points else None)
        except IntegrandError as exc:
            at = (p, exc.abscissa)
            raise IntegrandError(f"kernel not finite at (p, t) = {at}", abscissa=at) from exc
        inner_evals += n
        return p * p * val

    outer = integrate_semi_infinite(lambda ps: [shell(p) for p in ps.tolist()], decay_scale,
                                    tol / (2.0 * math.pi) * 0.5, rel_tol=rel_tol)
    err = 2.0 * math.pi * outer.error_estimate + 0.01 * tol
    value = 2.0 * math.pi * outer.value
    converged = err <= tol or (rel_tol is not None and err <= rel_tol * abs(value))
    return QuadratureResult(value=value, error_estimate=err,
                            evaluations=inner_evals, converged=converged)


# ---------------------------------------------------------------------------
# Oscillatory lobes + Euler acceleration
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _past_rounding(err: float, abs_accum: float) -> bool:
    """Whether an oscillatory error exceeds rounding: 2e-15 of the lobe mass."""
    return err > 2e-15 * abs_accum


def _euler_tail(terms: np.ndarray) -> tuple[float, float]:
    """Sum an alternating tail by repeated averaging of partial sums."""
    row = np.cumsum(terms)
    diag = [row[-1]]
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
        diag.append(row[-1])
    if len(diag) >= 2:
        return diag[-1], abs(diag[-1] - diag[-2])
    return diag[-1], abs(diag[-1])


def _osc_integral(g, r: float, kind: str, tol: float) -> tuple[float, float, int, float]:
    """int_0^inf g(p) * sin(p r) dp (kind="sin") or cos (kind="cos").

    Lobes between consecutive zeros of the trig factor, 16-point
    Gauss-Legendre each; the first block of lobes is summed directly and
    the alternating remainder is Euler-accelerated. A lobe is bisected,
    down to depth 10, until its halves agree with the coarser rule to
    5e-15 of the halves' mass plus the mass summed before the lobe: an
    absolute rounding floor, so lobes where g has underflowed stop at
    once. Each block of lobes costs one g call for the lobes, then one per
    bisection round for the halves of every panel still open; g always
    gets a 1-D array of momenta. Returns (value, error_estimate,
    evaluations, abs_accumulation); the last entry is the unsigned mass
    the lobe sums moved through, which sets the rounding floor of the
    cancellation.
    """
    half = math.pi / r
    # cos lobes are centred on the multiples of pi/r, and the first is half a lobe
    shift = 0.0 if kind == "sin" else 0.5
    trig = np.sin if kind == "sin" else np.cos
    evals = 0

    def gl16(a, b):
        nonlocal evals
        hw = 0.5 * (b - a)[:, None]
        x = (0.5 * (a + b)[:, None] + hw * _GL_NODES).ravel()
        vals = np.asarray(g(x), dtype=float) * trig(x * r)
        if not np.all(np.isfinite(vals)):
            bad = x[~np.isfinite(vals)][0]
            raise IntegrandError(f"oscillatory integrand not finite near p={bad}", abscissa=bad)
        evals += x.size
        w, vals = hw * _GL_WEIGHTS, vals.reshape(-1, _GL_NODES.size)
        return np.sum(w * vals, axis=1), np.sum(w * np.abs(vals), axis=1)

    def block(lo, hi, accum):
        # the first lobes can be much wider than the integrand's own
        # scale, so bisect every panel whose halves disagree, all open
        # panels of the block together
        j = np.arange(lo, hi, dtype=float)
        a, b = np.maximum(j - shift, 0.0) * half, (j + 1.0 - shift) * half
        coarse, mass = gl16(a, b)
        # the absolute floor: the mass summed before each lobe
        before = accum + np.cumsum(mass) - mass
        owner = np.arange(hi - lo)
        value, swept = np.zeros(hi - lo), 0.0
        for depth in range(11):
            mid = 0.5 * (a + b)
            v, m = gl16(np.concatenate((a, mid)), np.concatenate((mid, b)))
            n = a.size
            fine, mass = v[:n] + v[n:], m[:n] + m[n:]
            done = (np.abs(coarse - fine) <= 5e-15 * (mass + before[owner])) | (depth == 10)
            value += np.bincount(owner[done], fine[done], hi - lo)
            swept += float(np.sum(mass[done]))
            if done.all():
                break
            open_ = ~done
            a, b = np.concatenate((a[open_], mid[open_])), np.concatenate((mid[open_], b[open_]))
            coarse = np.concatenate((v[:n][open_], v[n:][open_]))
            owner = np.concatenate((owner[open_], owner[open_]))
        return value, swept

    lobes = np.empty(0)
    abs_accum = 0.0
    for n_direct, n_euler in ((16, 32), (32, 64), (96, 128)):
        contrib, mass = block(lobes.size, n_direct + n_euler, abs_accum)
        lobes = np.concatenate((lobes, contrib))
        abs_accum += mass
        floor = 5e-16 * abs_accum
        head = float(np.sum(lobes[:n_direct]))
        tail_terms = lobes[n_direct:n_direct + n_euler]
        scale = max(np.max(np.abs(lobes)), 1e-300)
        if np.all(np.abs(tail_terms[-3:]) < 1e-3 * tol * scale + floor):
            # integrand effectively dead: plain sum is already exact
            value = head + float(np.sum(tail_terms))
            err = float(np.abs(tail_terms[-1])) + floor
        else:
            tail, terr = _euler_tail(tail_terms)
            value = head + float(tail)
            err = float(terr) + floor
        if err <= tol * max(abs(value), 1e-300) or not _past_rounding(err, abs_accum):
            return value, err, evals, abs_accum
    return value, err, evals, abs_accum


_MP_MAX_DPS = 120


@functools.lru_cache(maxsize=32)
def _mp_gauss_legendre(degree: int, prec: int):
    """mpmath's Gauss-Legendre rule of 3 * 2^(degree-1) nodes on [-1, 1], at prec bits."""
    from mpmath import mp
    from mpmath.calculus.quadrature import GaussLegendre
    return GaussLegendre(mp).get_nodes(-1, 1, degree, prec)


def _mp_lobe_sum(g, r: float, dps: int, degree: int, tol: float):
    """int_0^inf g(p) sin(p r) dp at ``dps`` digits: (value, error, lobe mass, evaluations).

    Each lobe [k pi/r, (k+1) pi/r] gets one fixed Gauss-Legendre rule;
    on it sin(p r) = (-1)^k cos(pi x / 2) at the standard node x, so the
    trig factor folds into the weights. The alternating lobe series is
    summed by the Cohen-Villegas-Zagier transform, one lobe at a time,
    until two successive estimates differ by at most tol/10 of the
    estimate or by the rounding floor of the lobe mass at this precision.
    The transform gains about 0.77 digits a lobe on smooth alternating
    terms, so 4 * dps + 40 lobes end a sum that converges more slowly.
    The error is the last difference of estimates.
    """
    from mpmath import mp
    with mp.workdps(dps):
        nodes = _mp_gauss_legendre(degree, mp.prec)
        lobe = mp.pi / r
        shifts = [(1 + x) / 2 for x, _ in nodes]
        weights = [lobe / 2 * w * mp.cos(mp.pi * x / 2) for x, w in nodes]
        floor = mp.mpf(10) ** (3 - dps)
        cvz = mp.cohen_alt()
        terms, mass = [], mp.zero
        for k in range(4 * dps + 40):
            t = mp.fsum(w * g((k + u) * lobe) for u, w in zip(shifts, weights))
            terms.append(-t if k % 2 else t)
            mass += abs(t)
            value, err = cvz.update(terms)
            if k >= 2 and err <= max(0.1 * tol * abs(value), floor * mass):
                break
    return value, err, mass, len(terms) * len(nodes)


def _osc_integral_mp(g, r: float, tol: float):
    """Big-float rerun of int_0^inf g(p) sin(p r) dp for deep cancellations.

    When the answer is exponentially smaller than the lobe mass (mu*r
    large in a screened profile), double precision cannot resolve it.
    A first pass of _mp_lobe_sum at 30 digits measures the value v
    against the lobe mass M; the digits needed are the cancellation
    plus a margin, d = ceil(log10(M/|v|) - log10(tol)) + 10, and the pass
    is repeated at d until the pass that measured v had d digits. One
    confirming pass at d + 10 digits with the next Gauss-Legendre degree
    (24 nodes a lobe in place of 12) follows. The value is accepted only
    if the two passes agree to tol relative and both lobe sums have an
    error estimate below tol relative; a d above 120 is not tried. Needs
    g to map big floats to big floats; returns (value, error_estimate,
    evaluations, accepted), the value from the confirming pass.
    """
    from mpmath import mp
    dps = 30
    value, err, mass, evals = _mp_lobe_sum(g, r, dps, 3, tol)
    while True:
        if not 0 < abs(value) < mp.inf:
            return 0.0, math.inf, evals, False
        need = math.ceil(mp.log10(mass / abs(value)) - math.log10(tol)) + 10
        if need <= dps:
            break
        if need > _MP_MAX_DPS:
            return float(value), abs(float(value)), evals, False
        dps = need
        value, err, mass, n = _mp_lobe_sum(g, r, dps, 3, tol)
        evals += n
    check, check_err, _, n = _mp_lobe_sum(g, r, dps + 10, 4, tol)
    bound = tol * abs(check)
    diff = abs(value - check)
    accepted = bool(diff <= bound and err <= bound and check_err <= bound)
    return float(check), float(max(diff, err, check_err)), evals + n, accepted


def _maps_mpf(f_hat, p: float) -> bool:
    """Whether f_hat maps an mpmath float to one."""
    from mpmath import mp
    try:
        return isinstance(f_hat(mp.mpf(p)), mp.mpf)
    except TypeError:
        return False


def sine_transform_radial(f_hat, r_grid, tol: float) -> list[float]:
    """Radial inverse 3D Fourier transform of a radial function.

    A(r) = (1/(2 pi^2 r)) int_0^inf p sin(p r) f_hat(p) dp for each r in
    ``r_grid``. f_hat must be bounded, continuous on (0, inf) and decay
    at least like p^-2; a probe at two large momenta rejects slower
    decay up front. f_hat is called with numpy arrays of momenta. Where
    a value is far below the lobe mass that cancels to it, double
    precision is exhausted and the transform is rerun in mpmath floats
    (_osc_integral_mp): with the digits that the measured cancellation
    and tol need plus 10, confirmed once at 10 digits more with a finer
    lobe rule. That needs f_hat to map an mpmath float to one.
    ConvergenceError is raised where a value misses tol and no rerun can
    mend it, or where the two big-float passes do not agree to tol.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    rg = [float(r) for r in r_grid]
    if any(r <= 0.0 for r in rg):
        raise ValueError("all radii must be > 0")
    p1, p2 = 1.0e4, 1.0e6
    probe = np.asarray(f_hat(np.array([p1, p2])), dtype=float)
    if not np.all(np.isfinite(probe)):
        raise IntegrandError("f_hat not finite at the decay probes", abscissa=p1)
    if abs(probe[1]) * p2 * p2 > 4.0 * (abs(probe[0]) * p1 * p1) + 1e-290:
        raise ValueError(
            "f_hat does not decay at least like p^-2 "
            f"(|f|p^2 grew from {abs(probe[0]) * p1 * p1:.3e} to {abs(probe[1]) * p2 * p2:.3e})"
        )

    values = []
    for r in rg:
        v, e, _, acc = _osc_integral(lambda p: np.asarray(f_hat(p)) * p, r, "sin", tol)
        c = 1.0 / (2.0 * math.pi ** 2 * r)
        if e > tol * abs(v):
            if _past_rounding(e, acc):
                raise ConvergenceError(
                    f"radial transform at r = {r} did not converge: error {c * e:.3e}"
                    f" on value {c * v:.3e}", estimate=c * v, error_estimate=c * e)
            # the error is the rounding floor of a deep cancellation, not
            # a truncation artifact: double precision is exhausted, and
            # big floats gain digits only if f_hat computes in them
            if not _maps_mpf(f_hat, p1):
                raise ConvergenceError(
                    f"double precision is exhausted at r = {r}: value {c * v:.3e} has a"
                    f" rounding error of {c * e:.3e}, and f_hat does not return mpmath"
                    " floats for a big-float rerun", estimate=c * v, error_estimate=c * e)
            v_mp, _, _, ok = _osc_integral_mp(lambda p: f_hat(p) * p, r, tol)
            if not ok:
                raise ConvergenceError(
                    f"big-float rerun at r = {r} did not converge", estimate=c * v,
                    error_estimate=c * e)
            v = v_mp
        values.append(c * v)
    return values


# ---------------------------------------------------------------------------
# 6D Monte Carlo
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 18
# 1/k for k = 60 down to 3: Horner coefficients of sum_{k>=3} s^k/k at s < 1/2
_CDF_SERIES = tuple(1.0 / k for k in range(60, 2, -1))


class CubicBallSampler:
    """Importance sampler: two iid 3-vectors with density ~ (1+r)^-3.

    The radial density r^2 (1+r)^-3 is normalizable only on a truncated
    ball; ``radius`` defaults to 1e4 and the induced truncation bias for
    the triple-cubic integrand is available as a closed-form upper
    estimate from :meth:`truncation_bias_bound`.

    A radius inverts the radial CDF at a uniform target u. The inverse
    r(v), v = u^(1/3), is tabulated at 2^12 + 1 nodes uniform in v with
    its first two derivatives, and read in cell int(v 2^12) as the
    quintic Hermite interpolant of the cell's two end nodes; no Newton
    step or CDF evaluation runs per draw. Near the origin
    r ~ (3 u norm)^(1/3) is nearly linear in v, so the table needs no
    small-radius branch. Each sampler builds its table once: node radii
    by the log-grid inversion polished by Newton steps, derivatives in
    closed form. Per vector, a draw consumes ``rng.random(n)`` and then
    ``rng.standard_normal((n, 3))``, first for x and then for y; that
    fixed order keeps Monte Carlo estimates the same across versions up
    to rounding.
    """

    _CELLS = 1 << 12

    def __init__(self, radius: float = 1.0e4):
        if not (radius > 0.0):
            raise ValueError(f"radius must be > 0, got {radius}")
        self.radius = float(radius)
        self._norm = float(self._cdf_raw(self.radius))
        v = np.linspace(0.0, 1.0, self._CELLS + 1)
        t = v ** 3 * self._norm
        rs = np.concatenate([[0.0], np.logspace(-6, math.log10(self.radius), 4096)])
        r = np.interp(t, self._cdf_raw(rs), rs)
        small = t < 1e-9
        r[small] = np.cbrt(3.0 * t[small])
        self._newton(r, t, 4)
        r[-1] = self.radius
        # t = norm v^3 and phi = dr/dt = (1+r)^3/r^2, so r_v = 3 norm v^2 phi
        # and r_vv = phi' phi (3 norm v^2)^2 + 6 norm v phi; at v = 0,
        # r = a v + (3/4) a^2 v^2 + ... with a = (3 norm)^(1/3). Both are
        # scaled to the cell coordinate s = v 2^12 - j in [0, 1].
        a = np.cbrt(3.0 * self._norm)
        q, w, h = r[1:], v[1:], 1.0 / self._CELLS
        phi = (1.0 + q) ** 3 / (q * q)
        tv = 3.0 * self._norm * w * w
        d = h * np.append(a, tv * phi)
        e = h * h * np.append(1.5 * a * a, (1.0 + q) ** 2 * (q - 2.0) / (q * q * q) * phi * tv * tv
                              + 6.0 * self._norm * w * phi)
        jump, d0, d1, e0, e1 = np.diff(r), d[:-1], d[1:], e[:-1], e[1:]
        coef = (r[:-1], d0, 0.5 * e0,   # quintic Hermite, lowest degree first
                10.0 * jump - 6.0 * d0 - 4.0 * d1 - 1.5 * e0 + 0.5 * e1,
                -15.0 * jump + 8.0 * d0 + 7.0 * d1 + 1.5 * e0 - e1,
                6.0 * jump - 3.0 * (d0 + d1) - 0.5 * (e0 - e1))
        # one extra cell, the constant radius, serves v = 1, to which
        # cbrt rounds the largest targets below 1
        self._coef = tuple(np.append(c, 0.0) for c in coef)
        self._coef[0][-1] = self.radius

    @staticmethod
    def _cdf_raw(r):
        """int_0^r x^2/(1+x)^3 dx, exact antiderivative.

        The closed form is a difference of O(1) terms, so below r = 1,
        where the value is O(r^3), the series sum_{k>=3} s^k/k in
        s = r/(1+r) < 1/2 is summed instead; it has no cancellation.
        """
        r = np.asarray(r, dtype=float)
        u = 1.0 + r
        out = np.asarray(np.log1p(r) + 2.0 / u - 0.5 / (u * u) - 1.5)
        small = r < 1.0
        if small.any():
            s = r[small] / u[small]
            acc = np.full_like(s, _CDF_SERIES[0])
            for c in _CDF_SERIES[1:]:
                acc *= s
                acc += c
            out[small] = acc * s * s * s
        return out if out.ndim else float(out)

    def _newton(self, r: np.ndarray, t: np.ndarray, steps: int) -> None:
        """Newton steps on cdf(r) = t in place, keeping r in [0, radius]."""
        for _ in range(steps):
            f = self._cdf_raw(r)
            f -= t
            u = r + 1.0
            f *= u   # f / cdf'(r) = f (1+r)^3 / r^2
            f *= u
            f *= u
            np.multiply(r, r, out=u)
            np.maximum(u, 1e-300, out=u)
            f /= u
            del u   # before the next step's temporaries
            r -= f
            np.clip(r, 0.0, self.radius, out=r)

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """Radii at uniform targets u in [0, 1]; overwrites u."""
        s = np.cbrt(u, out=u)
        s *= self._CELLS
        j = s.astype(np.intp)
        s -= j
        r = np.take(self._coef[5], j)
        for c in self._coef[4::-1]:   # Horner in s, one 1-D gather per degree
            r *= s
            r += np.take(c, j)
        return np.clip(r, 0.0, self.radius, out=r)

    def _draw_vectors(self, rng, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n vectors as an (n, 3) array, and their radii."""
        r = self._invert(rng.random(n))
        g = rng.standard_normal((n, 3))
        s = np.einsum("ij,ij->i", g, g)
        np.sqrt(s, out=s)
        np.maximum(s, 1e-300, out=s)   # an all-zero direction stays at the origin
        np.divide(r, s, out=s)
        g *= s[:, None]
        return g, r

    def draw(self, rng, n: int):
        """n joint samples: returns (x, y, joint_density)."""
        x, rx = self._draw_vectors(rng, n)
        y, q = self._draw_vectors(rng, n)
        rx += 1.0
        q += 1.0
        q *= rx
        np.multiply(q, q, out=rx)
        q *= rx
        c = 1.0 / (4.0 * math.pi * self._norm)
        np.divide(c * c, q, out=q)   # c^2 / ((1+rx)(1+ry))^3
        return x, y, q

    def truncation_bias_bound(self) -> float:
        """Upper estimate of the mass of the triple-cubic integrand outside the ball.

        Uses inner-integral bound
        B(s) <= (1+s/2)^-3 * 4 pi (ln(1+s/2) + 2) + C* (1+s/2)^-3/2
        with C* = 1.92 from a Hoelder bound, integrated over both tail
        regions (factor 2 by x<->y symmetry).
        """
        c_star = 1.92

        def outer(s):
            half = 1.0 + 0.5 * s
            inner = (half ** -3) * 4.0 * math.pi * (np.log(half) + 2.0) + c_star * half ** -1.5
            return 4.0 * math.pi * s * s * (1.0 + s) ** -3 * inner

        val, _, _ = _quad(outer, self.radius, np.inf, epsabs=1e-12, epsrel=1e-8)
        return 2.0 * val


def monte_carlo_6d(integrand, sampler, n_samples: int,
                   seed: int) -> QuadratureResult | list[QuadratureResult]:
    """Importance-sampled MC estimate of int int d3x d3y integrand(x, y).

    ``integrand(xs, ys)`` is called once per chunk with two (n, 3) blocks
    of points and returns shape (n,), for one QuadratureResult, or
    (k, n), for k integrands on the same draw and a list of k results,
    row by row; any other shape raises ValueError, a non-finite value
    IntegrandError and a negative one ValueError. A row's result is the
    one that integrand alone would give, to the bit. Chunks run on one
    thread per CPU, up to the chunk count.
    The result is deterministic for a fixed seed regardless of that
    count: the sample range is partitioned into fixed-size chunks, each
    driven by its own spawned SeedSequence, and the per-chunk partials
    are combined in index order. Within a chunk the sampler fixes which
    random numbers make which point (see :class:`CubicBallSampler`), so
    an estimate moves between versions only by rounding as long as the
    chunk size, the spawning and that draw order stay the same.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_chunks = (n_samples + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)

    def run_chunk(i):
        n = min(_MC_CHUNK, n_samples - i * _MC_CHUNK)
        rng = np.random.Generator(np.random.PCG64(children[i]))
        x, y, q = sampler.draw(rng, n)
        if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
            raise SamplerMismatchError("sampler density not strictly positive on its own draw")
        f = np.asarray(integrand(x, y), dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != n:
            raise ValueError(
                f"integrand must map two ({n}, 3) blocks to shape (k, {n}) or "
                f"shape ({n},), got {f.shape}")
        finite = np.isfinite(f)
        if not finite.all():
            j = int(np.flatnonzero(~finite)[0] % n)
            raise IntegrandError(f"Monte Carlo integrand not finite at sample {j}",
                                 abscissa=(x[j].tolist(), y[j].tolist()))
        if np.any(f < 0.0):
            raise ValueError("integrand must be nonnegative")
        w = f / q   # a new array: the integrand's own is left as it was
        del x, y, q, f
        s1 = np.sum(w, axis=-1)
        w *= w
        return s1, np.sum(w, axis=-1)

    workers = min(os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(i) for i in range(n_chunks)]
    if len({a.shape for a, _ in partials}) > 1:
        raise ValueError("integrand changed its number of rows between chunks")

    s1 = 0.0
    s2 = 0.0
    for a, b in partials:   # fixed combination order
        s1 = s1 + a
        s2 = s2 + b
    results = []
    for t1, t2 in zip(np.atleast_1d(s1).tolist(), np.atleast_1d(s2).tolist()):
        mean = t1 / n_samples
        var = max(t2 / n_samples - mean * mean, 0.0)
        results.append(QuadratureResult(value=mean, error_estimate=math.sqrt(var / n_samples),
                                        evaluations=n_samples, converged=True))
    return results if partials[0][0].ndim else results[0]
