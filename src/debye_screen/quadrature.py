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

Oscillatory integrands must accept numpy arrays elementwise, and a
radial-angular kernel gets a float p with a 1-D array of angles t, its
values broadcast to the shape of t; there is no scalar fallback, so a
float-only integrand raises. The Monte Carlo integrand maps two (n, 3)
blocks of points to n values. The semi-infinite routine feeds floats.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
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


class _Counted:
    """Wrap an integrand: count calls, trap NaN/inf.

    A scalar f is called once per abscissa; with ``batch`` f maps a numpy
    array of abscissae to their values in one call.
    """

    __slots__ = ("f", "n", "batch")

    def __init__(self, f, batch=False):
        self.f = f
        self.n = 0
        self.batch = batch

    def many(self, xs):
        """f at each abscissa of xs; one finiteness test per batch."""
        if self.batch:
            vals = self.f(np.array(xs, dtype=float)).tolist()
        else:
            vals = list(map(self.f, xs))
        self.n += len(vals)
        if not math.isfinite(sum(vals)):
            for x, v in zip(xs, vals):
                if not math.isfinite(v):
                    raise IntegrandError(f"integrand returned {v} at x={x}", abscissa=x)
        return vals


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
_XK = (*(-x for x, _, _ in _GK21_HALF), 0.0, *(x for x, _, _ in reversed(_GK21_HALF)))
_WK = (*(w for _, w, _ in _GK21_HALF), _GK21_CENTRE, *(w for _, w, _ in reversed(_GK21_HALF)))
_WG = (*(g for _, _, g in _GK21_HALF if g), *(g for _, _, g in reversed(_GK21_HALF) if g))
_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308


# the same abscissae mapped onto [0, inf) by x = (1+t)/(1-t), and the
# Jacobian 2/(1-t)^2 of that map
_XK_INF = tuple((1.0 + x) / (1.0 - x) for x in _XK)
_JK_INF = tuple(2.0 / (1.0 - x) ** 2 for x in _XK)


def _gk21(cf, a, b, s=1.0):
    """One 21-point Gauss-Kronrod panel of a _Counted: (value, error, a, b, resasc).

    A panel with b = inf is mapped onto t in [-1, 1) by
    x = a + s (1+t)/(1-t), so its abscissae are the constants
    a + s _XK_INF and its values carry the Jacobian s _JK_INF.
    The error estimate is QUADPACK's: the Kronrod-Gauss difference,
    rescaled against resasc (the panel's integral of |f - mean|) and
    floored at the rounding level of the integral of |f|.
    """
    if b == math.inf:
        h = s
        fx = list(map(operator.mul, cf.many([a + s * x for x in _XK_INF]), _JK_INF))
    else:
        h = 0.5 * (b - a)
        c = 0.5 * (a + b)
        fx = cf.many([c + h * x for x in _XK])
    resk = resabs = 0.0
    for w, v in zip(_WK, fx):
        resk += w * v
        resabs += w * abs(v)
    resg = sum(map(operator.mul, _WG, fx[1::2]))
    mean = 0.5 * resk
    resasc = 0.0
    for w, v in zip(_WK, fx):
        resasc += w * abs(v - mean)
    ah = abs(h)
    resabs *= ah
    resasc *= ah
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * h, err, a, b, resasc


def _quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50, points=None, scale=1.0):
    """Adaptive Gauss-Kronrod integral of a scalar f over [a, b]; b may be inf.

    QUADPACK QAG style: the interval, split first at ``points``, is
    covered by 21-point panels, and the panel with the largest error is
    bisected until the summed error is below max(epsabs, epsrel*|value|),
    ``limit`` panels exist, or rounding stalls the refinement (QUADPACK's
    iroff counters, or a panel too narrow to bisect). When b = inf the
    last panel [c, inf) is mapped with length scale ``scale`` (see
    _gk21); its bisection gives a plain panel [c, c + s] and the mapped
    panel [c + s, inf) of scale 2s, so the tail stays inside the error
    estimate. Returns (value, error); the error is the summed panel
    estimate also when the loop stops short, so callers can judge
    convergence themselves. f is called one abscissa at a time through
    a _Counted, so a NaN/inf is reported at the abscissa that produced it.
    """
    cf = f if isinstance(f, _Counted) else _Counted(f)
    edges = [a, *sorted(p for p in (points or ()) if a < p < b), b]
    panels = [_gk21(cf, lo, hi, scale) for lo, hi in zip(edges, edges[1:])]
    area = sum(p[0] for p in panels)
    errsum = sum(p[1] for p in panels)
    if errsum == 0.0 or (errsum <= max(epsabs, epsrel * abs(area))
                         and all(p[1] != p[4] for p in panels)):
        return area, errsum

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
        left, right = _gk21(cf, lo, mid), _gk21(cf, mid, hi, scale)
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
    return math.fsum(e[2][0] for e in heap), errsum


def integrate_semi_infinite(
    f,
    decay_scale: float,
    tol: float,
    *,
    rel_tol: float | None = None,
    points=None,
) -> QuadratureResult:
    """Integrate f over [0, inf) to absolute tolerance ``tol``.

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
    cf = f if isinstance(f, _Counted) else _Counted(f)
    epsrel = 1e-12 if rel_tol is None else max(1e-12, 0.25 * rel_tol)
    val, err = _quad(cf, 0.0, math.inf, epsabs=0.25 * tol, epsrel=epsrel, limit=500,
                     points=points, scale=decay_scale)
    converged = err <= tol or (rel_tol is not None and err <= rel_tol * abs(val))
    return QuadratureResult(value=val, error_estimate=err, evaluations=cf.n, converged=converged)


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
    max(p^2, 1), one kernel call per 21-point panel. The azimuthal 2pi is
    applied internally. ``inner_points``, if given, maps a float p to a
    list of interior t-breakpoints (e.g. the removable coincidence point
    of a difference-quotient kernel) that the angular panels should
    honor. ``evaluations`` counts the kernel's abscissae.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    inner_evals = 0

    def shell(p):
        nonlocal inner_evals
        cf = _Counted(lambda t: np.broadcast_to(kernel(p, t), t.shape), batch=True)
        try:
            val, _ = _quad(cf, -1.0, 1.0, epsabs=1e-4 * tol / max(p * p, 1.0), epsrel=1e-10,
                           limit=200, points=inner_points(p) if inner_points else None)
        except IntegrandError as exc:
            at = (p, exc.abscissa)
            raise IntegrandError(f"kernel not finite at (p, t) = {at}", abscissa=at) from exc
        inner_evals += cf.n
        return p * p * val

    outer = integrate_semi_infinite(shell, decay_scale, tol / (2.0 * math.pi) * 0.5,
                                    rel_tol=rel_tol)
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
    vals, _errs, _n = _sine_transform_diag(f_hat, r_grid, tol)
    return vals


def _sine_transform_diag(f_hat, r_grid, tol: float):
    """sine_transform_radial plus per-radius error estimates and work count."""
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

    values, errs = [], []
    total_evals = 0
    for r in rg:
        v, e, n, acc = _osc_integral(lambda p: np.asarray(f_hat(p)) * p, r, "sin", tol)
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
            v2, e2, n2, ok = _osc_integral_mp(lambda p: f_hat(p) * p, r, tol)
            n += n2
            if not ok:
                raise ConvergenceError(
                    f"big-float rerun at r = {r} did not converge", estimate=c * v,
                    error_estimate=c * e)
            v, e = v2, e2
        values.append(c * v)
        errs.append(c * e)
        total_evals += n
    return values, errs, total_evals


# ---------------------------------------------------------------------------
# 6D Monte Carlo
# ---------------------------------------------------------------------------

_MC_CHUNK = 1 << 18


class CubicBallSampler:
    """Importance sampler: two iid 3-vectors with density ~ (1+r)^-3.

    The radial density r^2 (1+r)^-3 is normalizable only on a truncated
    ball; ``radius`` defaults to 1e4 and the induced truncation bias for
    the triple-cubic integrand is available as a closed-form upper
    estimate from :meth:`truncation_bias_bound`.
    """

    def __init__(self, radius: float = 1.0e4):
        if not (radius > 0.0):
            raise ValueError(f"radius must be > 0, got {radius}")
        self.radius = float(radius)
        self._norm = self._cdf_raw(self.radius)
        # inversion table on a log grid, polished by Newton below
        rs = np.concatenate([[0.0], np.logspace(-6, math.log10(self.radius), 4096)])
        self._tab_r = rs
        self._tab_c = self._cdf_raw(rs)

    @staticmethod
    def _cdf_raw(r):
        """int_0^r s^2/(1+s)^3 ds, exact antiderivative."""
        r = np.asarray(r, dtype=float)
        u = 1.0 + r
        return np.log1p(r) + 2.0 / u - 0.5 / (u * u) - 1.5

    def _invert(self, targets: np.ndarray) -> np.ndarray:
        t = targets * self._norm
        r = np.interp(t, self._tab_c, self._tab_r)
        small = t < 1e-9
        if np.any(small):
            r[small] = np.cbrt(3.0 * t[small])
        for _ in range(3):
            u = 1.0 + r
            fr = np.log1p(r) + 2.0 / u - 0.5 / (u * u) - 1.5 - t
            dr = r * r / (u * u * u)
            step = np.where(dr > 0.0, fr / np.maximum(dr, 1e-300), 0.0)
            r = np.clip(r - step, 0.0, self.radius)
        return r

    def _draw_vectors(self, rng, n: int) -> np.ndarray:
        radii = self._invert(rng.random(n))
        g = rng.standard_normal((n, 3))
        norm = np.linalg.norm(g, axis=1)
        # resample the (measure-zero) degenerate directions deterministically
        norm = np.where(norm < 1e-12, 1.0, norm)
        return g / norm[:, None] * radii[:, None]

    def draw(self, rng, n: int):
        """n joint samples: returns (x, y, joint_density)."""
        x = self._draw_vectors(rng, n)
        y = self._draw_vectors(rng, n)
        c = 1.0 / (4.0 * math.pi * self._norm)
        qx = c * (1.0 + np.linalg.norm(x, axis=1)) ** -3
        qy = c * (1.0 + np.linalg.norm(y, axis=1)) ** -3
        return x, y, qx * qy

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
            inner = (half ** -3) * 4.0 * math.pi * (math.log(half) + 2.0) + c_star * half ** -1.5
            return 4.0 * math.pi * s * s * (1.0 + s) ** -3 * inner

        val, _ = _quad(outer, self.radius, np.inf, epsabs=1e-12, epsrel=1e-8)
        return 2.0 * val


def monte_carlo_6d(integrand, sampler, n_samples: int, seed: int) -> QuadratureResult:
    """Importance-sampled MC estimate of int int d3x d3y integrand(x, y).

    ``integrand(xs, ys)`` is called once per chunk with two (n, 3) blocks
    of points and must return shape (n,); anything else raises
    ValueError. Chunks run on one thread per CPU, up to the chunk count.
    The result is deterministic for a fixed seed regardless of that
    count: the sample range is partitioned into fixed-size chunks, each
    driven by its own spawned SeedSequence, and the per-chunk partials
    are combined in index order.
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
        if f.shape != (n,):
            raise ValueError(
                f"integrand must map two ({n}, 3) blocks to shape ({n},), got {f.shape}")
        if np.any(f < 0.0):
            raise ValueError("integrand must be nonnegative")
        w = f / q
        return float(np.sum(w)), float(np.sum(w * w)), n

    workers = min(os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(i) for i in range(n_chunks)]

    s1 = 0.0
    s2 = 0.0
    for a, b, _ in partials:   # fixed combination order
        s1 += a
        s2 += b
    mean = s1 / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    stderr = math.sqrt(var / n_samples)
    return QuadratureResult(value=mean, error_estimate=stderr,
                            evaluations=n_samples, converged=True)
