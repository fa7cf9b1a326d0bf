"""Stationary screened potentials of radially symmetric classical sources.

The field equation in Lorenz gauge reduces, for a static source, to a
division in momentum space: A(p) = j(p) / D(p) with D the effective
denominator. Back in position space that is one radial sine transform
per radius. Two modes of the denominator are supported: the zeroth-order
one (momentum-independent screening, p^2 + lambda m_D^2, exactly a
Yukawa propagator) and the full momentum-dependent kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .debye import debye_mass_sq
from .errors import PoleDetectedError
from .polarization import scan_kernel
from .quadrature import sine_transform_radial
from .specfun import ThermalParams

__all__ = [
    "SourceSpec",
    "RadialProfile",
    "DeltaLimitReport",
    "source_fourier",
    "screening_profile",
    "yukawa_reference",
    "delta_family_limit",
    "default_r_grid",
]

_FAMILIES = ("smoothed_point", "gaussian", "uniform_ball")
_MODES = ("zeroth_order", "full_kernel")


@dataclass(frozen=True)
class SourceSpec:
    """Radially symmetric classical charge density (a temporal source) of total charge q.

    ``width`` is the family parameter: the mollifier width epsilon, the
    Gaussian sigma, or the ball radius.
    """

    family: str
    width: float
    charge_q: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if not (self.width > 0.0 and math.isfinite(self.width)):
            raise ValueError(f"family width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.charge_q):
            raise ValueError("charge_q must be finite")

    @classmethod
    def smoothed_point(cls, epsilon: float, charge_q: float = 1.0) -> "SourceSpec":
        return cls("smoothed_point", epsilon, charge_q)

    @classmethod
    def gaussian(cls, sigma: float, charge_q: float = 1.0) -> "SourceSpec":
        return cls("gaussian", sigma, charge_q)

    @classmethod
    def uniform_ball(cls, radius: float, charge_q: float = 1.0) -> "SourceSpec":
        return cls("uniform_ball", radius, charge_q)


@dataclass(frozen=True)
class RadialProfile:
    r_grid: tuple
    values: tuple
    mode: str
    source: SourceSpec
    params_snapshot: ThermalParams
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        rg = tuple(float(r) for r in self.r_grid)
        if not rg or rg[0] <= 0.0:
            raise ValueError("r_grid must be nonempty with positive radii")
        if any(a >= b for a, b in zip(rg, rg[1:])):
            raise ValueError("r_grid must be strictly increasing")
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(rg):
            raise ValueError("values and r_grid length mismatch")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "r_grid", rg)
        object.__setattr__(self, "values", vals)


def source_fourier(source: SourceSpec, p_mag):
    """Radial Fourier transform of the source density; q at zero momentum.

    Elementwise over a numpy array of momenta; a scalar gives a float.
    """
    p = np.asarray(p_mag, dtype=float)
    if np.any(p < 0.0):
        raise ValueError(f"p_mag must be >= 0, got {p_mag}")
    q = source.charge_q
    w = source.width
    if source.family == "smoothed_point" or source.family == "gaussian":
        # Gaussian mollifier of width w in both cases
        out = q * np.exp(-0.5 * w * w * p * p)
    else:
        x = p * w
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            closed = 3.0 * (np.sin(x) - x * np.cos(x)) / (x * x * x)
        # series of 3(sin x - x cos x)/x^3; next term ~ x^6/15120
        out = q * np.where(x < 1e-2, 1.0 - x2 / 10.0 + x2 * x2 / 280.0, closed)
    return out if out.ndim else float(out)


def yukawa_reference(q: float, lam: float, m_d_sq: float, r: float) -> float:
    """q e^{-sqrt(lam m_d_sq) r} / (4 pi r); Coulomb at lam = 0."""
    if not (r > 0.0):
        raise ValueError(f"r must be > 0, got {r}")
    if lam < 0.0 or m_d_sq < 0.0:
        raise ValueError("lam and m_d_sq must be >= 0")
    return q * math.exp(-math.sqrt(lam * m_d_sq) * r) / (4.0 * math.pi * r)


def default_r_grid(m_d_sq: float) -> list[float]:
    """Logarithmic grid, 64 points per decade, 0.05 to 20 screening lengths."""
    scale = 1.0 / math.sqrt(m_d_sq) if m_d_sq > 0.0 else 1.0
    lo, hi = 0.05 * scale, 20.0 * scale
    n = int(math.ceil(64.0 * math.log10(hi / lo))) + 1
    return list(np.geomspace(lo, hi, n))


@functools.lru_cache(maxsize=8)
def _full_denominator_model(params: ThermalParams, m_d_sq: float, tol: float):
    """Momentum-dependent denominator as a cheap callable.

    The thermal kernel is scanned once at Chebyshev points in
    u = sqrt(p/P) on [0, P] and replaced by the global polynomial
    through them; a piecewise model would leave curvature kinks whose
    algebraic transform tail drowns the exponential screening tail at
    large radius, and fitting directly in p stalls on the massless
    kernel's p^2 log p endpoint singularity, leaving ~1e-6 wiggles with
    the same effect. Beyond the cutoff the kernel is continued by an
    a/p^2 + b/p^4 tail matched in value and slope at P; the contact term
    stays exact. Any nonpositive denominator on the probe set aborts.
    The model does not depend on the source, so it is built once per
    (params, m_d_sq, tol) and shared by every profile that asks for it;
    its diagnostics are read-only for that reason.
    """
    beta_scale = 1.0 / params.beta if math.isfinite(params.beta) else 0.0
    cut = 12.0 * max(math.sqrt(m_d_sq), beta_scale, 0.25)
    n_nodes = 65
    t_nodes = -np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1.0))
    u_nodes = 0.5 * (t_nodes + 1.0)
    grid = cut * u_nodes * u_nodes
    grid[0], grid[-1] = 0.0, cut
    scan = scan_kernel("temporal", list(grid), params, tol)
    f_nodes = np.array([pt.f_hat for pt in scan.points])
    coef = np.polynomial.chebyshev.chebfit(t_nodes, f_nodes, n_nodes - 1)
    f_cut = float(np.polynomial.chebyshev.chebval(1.0, coef))
    # df/dp at the cutoff: dt/dp = 1/sqrt(P p) is 1/P there
    d_cut = float(np.polynomial.chebyshev.chebval(
        1.0, np.polynomial.chebyshev.chebder(coef))) / cut
    tail_x = 0.5 * (4.0 * f_cut + d_cut * cut)   # coefficient of (P/p)^2
    tail_y = -0.5 * (2.0 * f_cut + d_cut * cut)  # coefficient of (P/p)^4

    lam = params.lam
    contact = params.charge_e ** 2 * params.a1

    def den(p):
        a = np.asarray(p, dtype=float)
        fh = np.empty_like(a)
        inside = a <= cut
        fh[inside] = np.polynomial.chebyshev.chebval(
            2.0 * np.sqrt(a[inside] / cut) - 1.0, coef)
        out = a[~inside]
        if out.size:
            s = (cut / out) ** 2
            fh[~inside] = (tail_x + tail_y * s) * s
        return a * a - lam * (fh + contact * a * a)

    # pole guard: scan nodes, their midpoints, and the continued tail
    probes = np.concatenate([
        grid,
        0.5 * (grid[:-1] + grid[1:]),
        cut * np.array([1.5, 2.0, 4.0, 16.0, 256.0]),
    ])
    vals = den(probes[probes > 0.0])
    if np.any(vals <= 0.0):
        bad = float(probes[probes > 0.0][np.argmax(vals <= 0.0)])
        raise PoleDetectedError(
            f"effective denominator nonpositive near p = {bad:.6g}", p_tilde=bad)
    return den, MappingProxyType({"cutoff": cut, "scan_points": n_nodes})


def screening_profile(source: SourceSpec, params: ThermalParams, mode: str,
                      r_grid=None, tol: float = 1e-7) -> RadialProfile:
    """Screened potential A(r) of a classical source by spectral division.

    ``zeroth_order`` freezes the kernel at its zero-momentum value, so the
    propagator is exactly Yukawa; ``full_kernel`` uses the scanned
    momentum-dependent denominator.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    if params.mass == 0.0 and not math.isfinite(params.beta):
        raise ValueError("need m > 0 or finite beta for a screened solution")

    kernel_tol = min(tol, 1e-8)
    m_d_sq = debye_mass_sq(params, kernel_tol).m_d_sq
    if r_grid is None:
        r_grid = default_r_grid(m_d_sq)

    diagnostics = {"profile_tol": tol, "kernel_tol": kernel_tol}
    if mode == "zeroth_order":
        shift = params.lam * m_d_sq

        def den(p):
            a = np.asarray(p, dtype=float)
            return a * a + shift
    else:
        den, extra = _full_denominator_model(params, m_d_sq, kernel_tol)
        diagnostics.update(extra)

    def integrand(p):
        return source_fourier(source, p) / den(p)

    values = sine_transform_radial(integrand, r_grid, tol)
    return RadialProfile(
        r_grid=tuple(r_grid), values=tuple(values), mode=mode,
        source=source, params_snapshot=params, tolerances=diagnostics)


@dataclass(frozen=True)
class DeltaLimitReport:
    """Convergence of mollified point sources toward the Yukawa form."""

    epsilons: tuple
    r_probe: tuple
    yukawa: tuple
    gaps: tuple          # per probe radius, one relative gap per epsilon
    monotone: tuple
    final_gap: tuple
    converged: tuple


def delta_family_limit(epsilons, params: ThermalParams, r_probe,
                       tol: float = 1e-7) -> DeltaLimitReport:
    """Shrink the mollifier and track the distance to the ideal point source.

    Zeroth-order profiles of unit-charge smoothed points against their
    Yukawa limit; the relative gaps do not depend on the charge. The widths
    must decrease to at most a tenth of the closest probe radius. A probe
    whose gaps fail to shrink monotonically below 1e-3 is flagged, not fatal.
    """
    eps = [float(e) for e in epsilons]
    if len(eps) < 2 or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing with >= 2 entries")
    if any(e <= 0.0 for e in eps):
        raise ValueError("epsilons must be > 0")
    radii = sorted(float(r) for r in r_probe)
    if not radii or radii[0] <= 0.0:
        raise ValueError("r_probe must be nonempty with positive radii")
    if eps[-1] > radii[0] / 10.0:
        raise ValueError("smallest epsilon must sit below min(r_probe)/10")

    m_d_sq = debye_mass_sq(params, min(tol, 1e-8)).m_d_sq
    reference = [yukawa_reference(1.0, params.lam, m_d_sq, r) for r in radii]

    gap_rows = []
    for e in eps:
        prof = screening_profile(
            SourceSpec.smoothed_point(e), params, "zeroth_order", radii, tol)
        gap_rows.append([abs(v - ref) / abs(ref)
                         for v, ref in zip(prof.values, reference)])

    per_probe = list(zip(*gap_rows))
    # below the floor the gap is transform noise; don't demand ordering there
    floor = max(1e-10, 10.0 * tol)
    monotone = tuple(all(b < max(a, floor) for a, b in zip(g, g[1:]))
                     for g in per_probe)
    final = tuple(g[-1] for g in per_probe)
    converged = tuple(m and f < 1e-3 for m, f in zip(monotone, final))
    return DeltaLimitReport(
        epsilons=tuple(eps), r_probe=tuple(radii), yukawa=tuple(reference),
        gaps=tuple(tuple(g) for g in per_probe), monotone=monotone,
        final_gap=final, converged=converged)
