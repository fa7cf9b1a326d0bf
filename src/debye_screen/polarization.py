"""Momentum-dependent polarization kernels and the screened denominator.

Two channels of the one-loop kernel against a static external potential:
the temporal one carries the whole screening effect (its zero-momentum
value is minus the square Debye mass), the spatial one vanishes at zero
momentum and picks up a vacuum Kallen-Lehmann piece at finite momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .debye import debye_mass_sq
from .errors import ConvergenceError, InfraredDivergenceError, PoleDetectedError, ScanError
# integrate_radial_angular stays importable here: the benchmark trace wraps it by this name
from .quadrature import integrate_radial_angular, integrate_semi_infinite  # noqa: F401
from .specfun import ThermalParams, dispersion, fermi_factor

__all__ = [
    "KernelScan",
    "ScanPoint",
    "f_hat_temporal",
    "f_hat_spatial",
    "b_hat",
    "effective_denominator",
    "scan_kernel",
]

_CHANNELS = ("temporal", "spatial")


class ScanPoint(NamedTuple):
    p_tilde_mag: float
    f_hat: float
    b_hat: float
    denominator: float


@dataclass(frozen=True)
class KernelScan:
    channel: str
    points: tuple
    params_snapshot: ThermalParams
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.channel not in _CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        mags = [pt.p_tilde_mag for pt in self.points]
        if any(a >= b for a, b in zip(mags, mags[1:])):
            raise ValueError("scan points must be strictly increasing in momentum")


def _check_channel(channel: str) -> None:
    if channel not in _CHANNELS:
        raise ValueError(f"channel must be one of {_CHANNELS}, got {channel!r}")


def _f_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float) -> float:
    """Thermal kernel of either channel, as one integral over the loop momentum.

    With the angle integrated in closed form (Kapusta & Gale 2006, ch. 5-6;
    Le Bellac 1996),

        f_hat = -(e^2/pi^2) int_0^inf k^2/E n_F(E) B(k) dk,  E = sqrt(k^2 + m^2),

    where L = ln|(2k + pt)/(2k - pt)| and B = 1 + (4E^2 - pt^2)/(4 k pt) L
    in the temporal channel, B = 1 - (pt/4k) L in the spatial one. The
    integral is split at the logarithmic point pt/2, at pt, and at pt 8^j
    while below the thermal scale (1+m)/beta, so that panels far wider
    than pt still resolve the structure at scale pt. The absolute target
    is tol; a result too small for it to carry relative accuracy is
    computed again to tol * |value|. Raises ConvergenceError when the
    integral misses its target.
    """
    _check_channel(channel)
    if p_tilde_mag < 0.0:
        raise ValueError(f"momentum magnitude must be >= 0, got {p_tilde_mag}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    if params.is_ground:
        return 0.0
    if p_tilde_mag == 0.0:
        # the dedicated zero-momentum formulas; the spatial kernel's
        # pointwise integrand limit does NOT integrate to this value,
        # the channel zero is the defining boundary value
        if channel == "temporal":
            return -debye_mass_sq(params, tol).m_d_sq
        return 0.0
    beta, m, pt = params.beta, params.mass, p_tilde_mag
    temporal = channel == "temporal"
    c = params.charge_e ** 2 / math.pi ** 2
    scale = (1.0 + m) / beta
    points = [0.5 * pt, pt]
    while 8.0 * points[-1] < scale:
        points.append(8.0 * points[-1])

    def integrand(k):
        e = dispersion(k, m)
        # log1p keeps L accurate for k far from pt/2 on either side; k = pt/2
        # itself is met only by a tail probe, where a large finite L moves the
        # cutoff on instead of raising
        log = math.log1p(2.0 * min(pt, 2.0 * k) / (abs(2.0 * k - pt) or math.ulp(pt)))
        if temporal:
            bracket = 1.0 + (4.0 * e * e - pt * pt) / (4.0 * k * pt) * log
        else:
            bracket = 1.0 - pt / (4.0 * k) * log
        return k * k / e * fermi_factor(beta, e) * bracket

    def integral(target):
        res = integrate_semi_infinite(integrand, scale, target / c, points=points)
        if not res.converged:
            raise ConvergenceError(
                f"{channel} kernel at |pt| = {pt} did not converge: error "
                f"{c * res.error_estimate:.3e} on value {-c * res.value:.3e}",
                estimate=-c * res.value, error_estimate=c * res.error_estimate)
        return -c * res.value

    value = integral(tol)
    if 0.0 < abs(value) < 1e3 * tol:
        # the absolute target leaves a kernel this small (the cold regime)
        # without relative accuracy; rescale it, as debye_mass_sq_integral does
        value = integral(tol * abs(value))
    return value


def f_hat_temporal(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Temporal-channel thermal kernel; -m_D^2 at zero momentum."""
    return _f_hat("temporal", p_tilde_mag, params, tol)


def f_hat_spatial(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Spatial-channel thermal kernel; 0 at zero momentum."""
    return _f_hat("spatial", p_tilde_mag, params, tol)


def b_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float = 1e-10) -> float:
    """Vacuum piece: e^2 a1 |pt|^2, plus the Kallen-Lehmann integral for
    the spatial channel.

    The spectral integral runs over invariant mass squared from the pair
    threshold (2m)^2; the substitution s = 4m^2 (cosh u)^2 removes the
    square-root edge and turns the 1/(4 v^3) tail exponential in u.
    """
    _check_channel(channel)
    if p_tilde_mag < 0.0:
        raise ValueError(f"momentum magnitude must be >= 0, got {p_tilde_mag}")
    if p_tilde_mag == 0.0:
        return 0.0
    pt2 = p_tilde_mag * p_tilde_mag
    base = params.charge_e ** 2 * params.a1 * pt2
    if channel == "temporal":
        return base
    m = params.mass
    if m == 0.0:
        raise InfraredDivergenceError(
            "massless spatial vacuum kernel: the spectral integral diverges "
            "logarithmically at the lower endpoint; refusing to guess a cutoff"
        )
    m2 = m * m

    def integrand(u):
        if u > 300.0:  # integrand ~ e^{-2u}, dead long before sinh overflows
            return 0.0
        v = 2.0 * m * math.sinh(u)
        s = 4.0 * m2 + v * v
        jac = 2.0 * m * math.cosh(u)
        return jac * v * v * (1.5 * m2 + 0.25 * v * v) / (s ** 2.5 * (pt2 + s))

    pref = 16.0 * params.charge_e ** 2 * pt2 * pt2 / (3.0 * (2.0 * math.pi) ** 5)
    quad = integrate_semi_infinite(
        integrand, 0.5, tol / max(pref, 1e-300), tail="exp", rel_tol=1e-10,
    )
    return base + pref * quad.value


def effective_denominator(channel: str, p_tilde_mag: float, params: ThermalParams,
                          tol: float = 1e-8) -> float:
    """|pt|^2 - lambda (f_hat + b_hat); raises when it crosses zero."""
    _check_channel(channel)
    if not (p_tilde_mag > 0.0):
        raise ValueError(f"momentum magnitude must be > 0, got {p_tilde_mag}")
    fh = _f_hat(channel, p_tilde_mag, params, tol)
    bh = b_hat(channel, p_tilde_mag, params, tol)
    den = p_tilde_mag ** 2 - params.lam * (fh + bh)
    scale = p_tilde_mag ** 2 + abs(params.lam) * (abs(fh) + abs(bh))
    if abs(den) < 10.0 * tol * max(scale, 1.0):
        raise PoleDetectedError(
            f"screened denominator vanishes near |pt| = {p_tilde_mag}",
            p_tilde=p_tilde_mag,
        )
    return den


def scan_kernel(channel: str, p_grid, params: ThermalParams, tol: float = 1e-8) -> KernelScan:
    """Evaluate both kernels and the denominator over a momentum grid.

    Points evaluate in grid order; any failure aborts the scan carrying
    the completed points as diagnostic.
    """
    _check_channel(channel)
    grid = [float(p) for p in p_grid]
    if any(p < 0.0 for p in grid):
        raise ValueError("momentum grid must be nonnegative")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("momentum grid must be strictly increasing")

    points = []
    try:
        for pt in grid:
            fh = _f_hat(channel, pt, params, tol)
            bh = b_hat(channel, pt, params, tol)
            points.append(ScanPoint(pt, fh, bh, pt * pt - params.lam * (fh + bh)))
    except Exception as exc:
        raise ScanError(f"kernel scan aborted: {exc}", partial=tuple(points)) from exc
    return KernelScan(channel=channel, points=tuple(points), params_snapshot=params,
                      metadata={"tol": tol})
