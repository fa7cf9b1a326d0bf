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

import numpy as np

from .debye import debye_mass_sq
from .errors import InfraredDivergenceError, PoleDetectedError, ScanError
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

        f_hat = -(e^2/pi^2) int_0^inf (w(k) + a(k) L(k)) dk,  w = k^2/E n_F(E),

    where E = sqrt(k^2 + m^2), L = ln|(2k + pt)/(2k - pt)|, and
    a = w (4E^2 - pt^2)/(4 k pt) in the temporal channel, a = -w pt/(4k)
    in the spatial one. The log singularity at pt/2 is integrated in
    closed form: with a(k) ~ a0 + a1 (k - pt/2) there, a0 = a(pt/2), the
    integrand on [0, pt] is w + (a - a0 - a1 (k - pt/2)) L plus the
    constant a0 (3 ln 3)/2 + a1 pt (2 - (3 ln 3)/2)/4, whose integral is
    int_0^pt (a0 + a1 (k - pt/2)) L dk. The split is exact for any a1; a
    central difference leaves only a (k - pt/2)^2 L kink, which the
    21-point error estimate does not underrate as it can (k - pt/2) L.
    The integral is split at pt/2, at pt, and at pt 8^j while below the
    thermal scale (1+m)/beta, so that panels far wider than pt still
    resolve the structure at scale pt. tol is relative: one integral to
    tol * |f_hat|. Raises ConvergenceError when it misses that target.
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

    def parts(k):
        e = dispersion(k, m)
        w = k * k / e * fermi_factor(beta, e)
        if temporal:
            return w, w * (4.0 * e * e - pt * pt) / (4.0 * k * pt)
        return w, -w * pt / (4.0 * k)

    dk = 1e-4 * pt
    a0 = parts(0.5 * pt)[1]   # 0 in the massless temporal channel
    a1 = (parts(0.5 * pt + dk)[1] - parts(0.5 * pt - dk)[1]) / (2.0 * dk)
    log_mean = 1.5 * math.log(3.0)   # (1/pt) int_0^pt L dk
    # (1/pt) int_0^pt (a0 + a1 (k - pt/2)) L dk
    sub_mean = a0 * log_mean + a1 * pt * (2.0 - log_mean) / 4.0

    def integrand(k):
        w, a = parts(k)
        # log1p keeps L accurate for k far from pt/2 on either side; pt/2 is
        # a breakpoint, so only a node rounded onto it meets k = pt/2, where
        # a large finite L keeps the panel sum finite instead of raising
        k2 = 2.0 * k
        gap = np.abs(k2 - pt)
        gap[gap == 0.0] = math.ulp(pt)
        log = np.log1p(2.0 * np.minimum(pt, k2) / gap)
        # the subtraction applies on [0, pt) only; beyond, w + a L exactly
        inner = k < pt
        sub = np.where(inner, a0 + a1 * (k - 0.5 * pt), 0.0)
        return w + (a - sub) * log + np.where(inner, sub_mean, 0.0)

    return -c * integrate_semi_infinite(integrand, scale, tol, points=points).value


def f_hat_temporal(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Temporal-channel thermal kernel to relative tol; -m_D^2 at zero momentum."""
    return _f_hat("temporal", p_tilde_mag, params, tol)


def f_hat_spatial(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Spatial-channel thermal kernel to relative tol; 0 at zero momentum."""
    return _f_hat("spatial", p_tilde_mag, params, tol)


def b_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float = 1e-10) -> float:
    """Vacuum piece: e^2 a1 |pt|^2, plus the Kallen-Lehmann integral for
    the spatial channel.

    The spectral integral runs over invariant mass squared from the pair
    threshold (2m)^2; the substitution s = 4m^2 (cosh u)^2 removes the
    square-root edge and turns the 1/(4 v^3) tail exponential in u.
    tol is relative to the spectral integral, met in one integral.
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

    def integrand(u):
        out = np.zeros_like(u)
        live = u <= 100.0  # beyond, the integrand ~ e^{-2u} is dead and sinh would overflow
        sh, ch = np.sinh(u[live]), np.cosh(u[live])
        th = sh / ch
        # sqrt(s) = 2m cosh u cancels the powers of m, and dividing by pt^2 + s
        # on its own keeps 4 cosh^2 u (pt^2 + s) from overflowing at heavy masses
        out[live] = th * th * (1.5 + sh * sh) / (4.0 * ch * ch) / (pt2 + 4.0 * m * m * ch * ch)
        return out

    pref = 16.0 * params.charge_e ** 2 * pt2 * pt2 / (3.0 * (2.0 * math.pi) ** 5)
    return base + pref * integrate_semi_infinite(integrand, 0.5, tol).value


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

    tol is relative for each kernel value. Points evaluate in grid
    order; any failure aborts the scan with a ScanError that names the
    failed |pt| and carries the completed points as diagnostic.
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
        raise ScanError(f"kernel scan aborted at |pt| = {pt}: {exc}", partial=tuple(points)) from exc
    return KernelScan(channel=channel, points=tuple(points), params_snapshot=params,
                      metadata={"tol": tol})
