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
from .quadrature import integrate_radial_angular, integrate_semi_infinite
from .specfun import ThermalParams

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


def _kernel_quotient(p, t, p_tilde: float, params: ThermalParams, sign: float):
    """Fermi-weighted difference quotient at broadcast (p, cos theta) arrays.

    sign=+1 selects numerators w^2 + E (temporal), sign=-1 selects
    w^2 - E (spatial), E = m^2 + p^2 + p_tilde*p*t shared by both halves
    of the bracket. The denominator w_p^2 - w_k^2 = -pt*(pt + 2 p t) is
    supplied in its exact factored form, and near the coincidence set
    the quotient switches to its first-order limit, where the stable
    mean of the two exact spatial numerators is pt^2/2. The Fermi
    factors are e/(1+e), e = exp(-beta w), so params must be thermal.
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


def _f_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float) -> float:
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
    sign = 1.0 if channel == "temporal" else -1.0
    c_f = params.charge_e ** 2 / (4.0 * math.pi ** 3)
    pt = p_tilde_mag

    def kernel(p, t):
        return _kernel_quotient(p, t, pt, params, sign)

    def breakpoints(p):
        ts = -pt / (2.0 * p)
        return (ts,) if -1.0 < ts < 1.0 else ()

    def integral(target):
        res = integrate_radial_angular(
            kernel,
            target / c_f,
            decay_scale=(1.0 + params.mass) / params.beta,
            inner_points=breakpoints,
        )
        return sign * c_f * res.value

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
