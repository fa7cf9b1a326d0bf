"""Momentum-dependent polarization kernels and the screened denominator.

Two channels of the one-loop kernel against a static external potential:
the temporal one carries the whole screening effect (its zero-momentum
value is minus the square Debye mass), the spatial one vanishes at zero
momentum and picks up a vacuum Kallen-Lehmann piece at finite momentum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .debye import debye_mass_sq
from .errors import DebyeScreenError, InfraredDivergenceError, ScanError
# integrate_radial_angular stays importable here: the benchmark trace wraps it by this name
from .quadrature import integrate_radial_angular, integrate_semi_infinite_batch  # noqa: F401
from .specfun import ThermalParams, _fermi

__all__ = [
    "KernelScan",
    "ScanPoint",
    "f_hat_temporal",
    "f_hat_spatial",
    "b_hat",
    "scan_kernel",
]

_CHANNELS = ("temporal", "spatial")


class ScanPoint(NamedTuple):
    p_tilde_mag: float
    f_hat: float
    b_hat: float
    denominator: float


class _Points(Sequence):
    """A scan's points as one read-only (n, 4) float array, read as a
    sequence of ScanPoint; a tuple of ScanPoint holds each value as its
    own float object, in five times the memory. Equality and repr are
    those of the tuple of points."""

    __slots__ = ("rows",)

    def __init__(self, points):
        self.rows = np.array(points, dtype=float).reshape(-1, 4)
        self.rows.flags.writeable = False

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(ScanPoint(*row) for row in self.rows[i].tolist())
        return ScanPoint(*self.rows[i].tolist())

    def __iter__(self):
        return (ScanPoint(*row) for row in self.rows.tolist())

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class KernelScan:
    """A kernel scan; ``points`` is given as any sequence of ScanPoint and
    kept as a read-only sequence of them."""

    channel: str
    points: Sequence
    params_snapshot: ThermalParams
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.channel not in _CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        object.__setattr__(self, "points", _Points(self.points))
        mags = self.points.rows[:, 0]
        if np.any(mags[1:] <= mags[:-1]):
            raise ValueError("scan points must be strictly increasing in momentum")


def _check_channel(channel: str) -> None:
    if channel not in _CHANNELS:
        raise ValueError(f"channel must be one of {_CHANNELS}, got {channel!r}")


def _check_node(channel: str, p_tilde_mag: float, tol: float) -> None:
    _check_channel(channel)
    if p_tilde_mag < 0.0:
        raise ValueError(f"momentum magnitude must be >= 0, got {p_tilde_mag}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")


def _value(result):
    if isinstance(result, Exception):
        raise result
    return result


def _f_hat_nodes(channel: str, pts: list, params: ThermalParams, tol: float) -> list:
    """Thermal kernel of either channel at each momentum of ``pts``, each
    as one integral over the loop momentum, all in one lockstep batch.

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
    Each integral is split at pt/2, at pt, and at pt 8^j while below the
    thermal scale (1+m)/beta, so that panels far wider than pt still
    resolve the structure at scale pt. tol is relative: each integral to
    tol * |f_hat|. pt = 0 takes the defined boundary values, -m_D^2 and
    0. The momenta share each integrand call, which looks up the pt, a0,
    a1 and closed-form mean of each abscissa's node, and each node's
    value is the one it has alone, to the bit (integrate_semi_infinite_batch).
    Returns one entry per momentum: the value, or the ConvergenceError or
    IntegrandError its integral ended with.
    """
    if params.is_ground:
        return [0.0] * len(pts)
    temporal = channel == "temporal"
    out = [None] * len(pts)
    for i, pt in enumerate(pts):
        if pt == 0.0:
            # the dedicated zero-momentum formulas; the spatial kernel's
            # pointwise integrand limit does NOT integrate to this value,
            # the channel zero is the defining boundary value
            try:
                out[i] = -debye_mass_sq(params, tol).m_d_sq if temporal else 0.0
            except DebyeScreenError as exc:
                out[i] = exc
    live = [i for i, pt in enumerate(pts) if pt != 0.0]
    if not live:
        return out
    beta, m = params.beta, params.mass
    c = params.charge_e ** 2 / math.pi ** 2
    scale = (1.0 + m) / beta
    breaks = []
    for i in live:
        points = [0.5 * pts[i], pts[i]]
        while 8.0 * points[-1] < scale:
            points.append(8.0 * points[-1])
        breaks.append(points)

    def parts(k, pt):
        # k >= 0 by construction, so the energies need no checks
        e = np.hypot(k, m)
        w = k * k / e * _fermi(beta, e)
        if temporal:
            return w, w * (4.0 * e * e - pt * pt) / (4.0 * k * pt)
        return w, -w * pt / (4.0 * k)

    pt = np.array([pts[i] for i in live])
    dk = 1e-4 * pt
    # a0 = a(pt/2), 0 in the massless temporal channel, and the two sides
    # of a1's central difference, in one call
    a = parts(np.concatenate((0.5 * pt, 0.5 * pt + dk, 0.5 * pt - dk)),
              np.concatenate((pt, pt, pt)))[1].reshape(3, -1)
    a0, a1 = a[0], (a[1] - a[2]) / (2.0 * dk)
    log_mean = 1.5 * math.log(3.0)   # (1/pt) int_0^pt L dk
    # (1/pt) int_0^pt (a0 + a1 (k - pt/2)) L dk
    sub_mean = a0 * log_mean + a1 * pt * (2.0 - log_mean) / 4.0
    node = np.array((pt, a0, a1, sub_mean, np.spacing(pt)))

    def integrand(k, j):
        p, s0, s1, mean, ulp = node[:, j]
        w, a = parts(k, p)
        # log1p keeps L accurate for k far from pt/2 on either side; pt/2 is
        # a breakpoint, so only a node rounded onto it meets k = pt/2, where
        # a large finite L keeps the panel sum finite instead of raising
        k2 = 2.0 * k
        gap = np.abs(k2 - p)
        log = np.log1p(2.0 * np.minimum(p, k2) / np.where(gap == 0.0, ulp, gap))
        # the subtraction applies on [0, pt) only; beyond, w + a L exactly
        inner = k < p
        sub = np.where(inner, s0 + s1 * (k - 0.5 * p), 0.0)
        return w + (a - sub) * log + np.where(inner, mean, 0.0)

    results = integrate_semi_infinite_batch(integrand, [scale] * len(live), tol, points=breaks)
    for i, res in zip(live, results):
        out[i] = res if isinstance(res, Exception) else -c * res.value
    return out


def _f_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float) -> float:
    """Thermal kernel of either channel at one momentum (see _f_hat_nodes);
    raises ConvergenceError when its integral misses tol relative."""
    _check_node(channel, p_tilde_mag, tol)
    return _value(_f_hat_nodes(channel, [p_tilde_mag], params, tol)[0])


def f_hat_temporal(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Temporal-channel thermal kernel to relative tol; -m_D^2 at zero momentum."""
    return _f_hat("temporal", p_tilde_mag, params, tol)


def f_hat_spatial(p_tilde_mag: float, params: ThermalParams, tol: float = 1e-8) -> float:
    """Spatial-channel thermal kernel to relative tol; 0 at zero momentum."""
    return _f_hat("spatial", p_tilde_mag, params, tol)


def _b_hat_nodes(channel: str, pts: list, params: ThermalParams, tol: float) -> list:
    """b_hat at each momentum of ``pts``, the spatial spectral integrals in
    one lockstep batch; one entry per momentum, the value or the error
    that node raised."""
    out = [params.charge_e ** 2 * params.a1 * pt * pt if pt != 0.0 else 0.0 for pt in pts]
    if channel == "temporal":
        return out
    live = [i for i, pt in enumerate(pts) if pt != 0.0]
    m = params.mass
    if m == 0.0:
        for i in live:
            out[i] = InfraredDivergenceError(
                "massless spatial vacuum kernel: the spectral integral diverges "
                "logarithmically at the lower endpoint; refusing to guess a cutoff")
        return out
    pt2 = np.array([pts[i] * pts[i] for i in live])

    def integrand(u, j):
        # beyond u = 100 the integrand ~ e^{-2u} is dead and sinh would overflow
        v = np.minimum(u, 100.0)
        sh, ch = np.sinh(v), np.cosh(v)
        th = sh / ch
        # sqrt(s) = 2m cosh u cancels the powers of m, and dividing by pt^2 + s
        # on its own keeps 4 cosh^2 u (pt^2 + s) from overflowing at heavy masses
        val = th * th * (1.5 + sh * sh) / (4.0 * ch * ch) / (pt2[j] + 4.0 * m * m * ch * ch)
        return np.where(u <= 100.0, val, 0.0)

    results = integrate_semi_infinite_batch(integrand, [0.5] * len(live), tol) if live else []
    for i, res in zip(live, results):
        if isinstance(res, Exception):
            out[i] = res
        else:
            p2 = pts[i] * pts[i]
            pref = 16.0 * params.charge_e ** 2 * p2 * p2 / (3.0 * (2.0 * math.pi) ** 5)
            out[i] += pref * res.value
    return out


def b_hat(channel: str, p_tilde_mag: float, params: ThermalParams, tol: float = 1e-10) -> float:
    """Vacuum piece: e^2 a1 |pt|^2, plus the Kallen-Lehmann integral for
    the spatial channel.

    The spectral integral runs over invariant mass squared from the pair
    threshold (2m)^2; the substitution s = 4m^2 (cosh u)^2 removes the
    square-root edge and turns the 1/(4 v^3) tail exponential in u.
    tol is relative to the spectral integral, met in one integral.
    """
    _check_node(channel, p_tilde_mag, tol)
    return _value(_b_hat_nodes(channel, [p_tilde_mag], params, tol)[0])


def scan_kernel(channel: str, p_grid, params: ThermalParams, tol: float = 1e-8) -> KernelScan:
    """Evaluate both kernels and the denominator over a momentum grid.

    tol is relative for each kernel value. All f_hat nodes run as one
    lockstep integral batch and all spatial b_hat nodes as another, and
    each point is the one that the single-node calls f_hat_temporal or
    f_hat_spatial and b_hat give for its momentum, to the bit. A node
    whose f_hat or b_hat fails (a missed tolerance, a non-finite
    integrand, a divergent vacuum piece) aborts the scan with a ScanError
    that names the first failed |pt| in grid order, has that node's
    error as its cause, and carries the points before it as diagnostic.
    """
    _check_channel(channel)
    grid = [float(p) for p in p_grid]
    if any(p < 0.0 for p in grid):
        raise ValueError("momentum grid must be nonnegative")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("momentum grid must be strictly increasing")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")

    points = []
    fhs = _f_hat_nodes(channel, grid, params, tol)
    bhs = _b_hat_nodes(channel, grid, params, tol)
    for pt, fh, bh in zip(grid, fhs, bhs):
        failed = next((r for r in (fh, bh) if isinstance(r, Exception)), None)
        if failed is not None:
            raise ScanError(f"kernel scan aborted at |pt| = {pt}: {failed}",
                            partial=tuple(points)) from failed
        points.append(ScanPoint(pt, fh, bh, pt * pt - params.lam * (fh + bh)))
    return KernelScan(channel=channel, points=tuple(points), params_snapshot=params,
                      metadata={"tol": tol})
