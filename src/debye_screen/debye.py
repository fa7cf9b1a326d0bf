"""Square Debye mass and screening length by three routes.

The square photon mass generated by a thermal fermion loop admits a
Bessel-series form, a direct momentum-space integral, and a massless
closed form; the three must agree where their domains overlap, which is
the main correctness lever of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_semi_infinite
from .specfun import SeriesResult, ThermalParams, _fermi, alternating_sum, bessel_k

__all__ = [
    "DebyeResult",
    "debye_mass_sq_series",
    "debye_mass_sq_integral",
    "debye_mass_sq_massless",
    "debye_mass_sq",
    "debye_length",
]


@dataclass(frozen=True)
class DebyeResult:
    m_d_sq: float
    lambda_d: float
    method: str
    diagnostics: object = None

    def __post_init__(self):
        if self.m_d_sq < 0.0:
            raise ValueError(f"square mass must be >= 0, got {self.m_d_sq}")
        if self.method not in ("series", "integral", "massless"):
            raise ValueError(f"unknown method {self.method!r}")


def _result(m_d_sq: float, method: str, diagnostics=None) -> DebyeResult:
    lam = m_d_sq ** -0.5 if m_d_sq > 0.0 else math.inf
    return DebyeResult(m_d_sq=m_d_sq, lambda_d=lam, method=method, diagnostics=diagnostics)


def _ground_result(method: str) -> DebyeResult:
    # thermal effect only: the vacuum state generates no photon mass
    return _result(0.0, method, SeriesResult(value=0.0, terms_used=0, remainder_bound=0.0))


def debye_mass_sq_series(params: ThermalParams, tol: float = 1e-12) -> DebyeResult:
    """(e^2 m^2 / pi^2) * sum_n (-1)^n K2((n+1) beta m).

    The alternating K2 terms decay like e^{-(n+1) beta m}, so this route
    is efficient for beta*m >= 0.5 and slow below. From beta*m ~ 687 the
    first term is under the sum's 5e-300 floor: m_D^2 = 0.0, terms_used 0.
    """
    if params.is_ground:
        return _ground_result("series")
    if params.mass == 0.0:
        raise ValueError("mass = 0 has no series form; use the massless route")
    bm = params.beta * params.mass
    pref = params.charge_e ** 2 * params.mass ** 2 / math.pi ** 2
    # keep relative accuracy even deep in the suppressed regime, where the
    # requested absolute tol would otherwise swallow the whole first term
    t0 = bessel_k(2, bm)
    eff_tol = min(tol / max(pref, 1e-300), max(1e-13 * t0, 5e-300))
    series = alternating_sum(
        lambda n: bessel_k(2, (n + 1) * bm),
        tol=eff_tol,
        max_terms=int(2000 / min(bm, 1.0)) + 50,
    )
    return _result(pref * series.value, "series", series)


def debye_mass_sq_integral(params: ThermalParams, tol: float = 1e-10) -> DebyeResult:
    """(e^2 beta / pi^2) * int_0^inf dp p^2 e^{beta w}/(1+e^{beta w})^2, w = w(p).

    Direct radial form of the momentum integral defining the square
    mass; valid for any mass, canonical for m = 0 and small beta*m.
    tol is relative: one integral to tol * m_D^2, in every regime.
    """
    if params.is_ground:
        return _ground_result("integral")
    beta, m = params.beta, params.mass
    pref = params.charge_e ** 2 * beta / math.pi ** 2

    def integrand(p):
        # p >= 0 on the integration range, so the energies need no checks
        f = _fermi(beta, np.hypot(p, m))
        return p * p * f * (1.0 - f)

    quad = integrate_semi_infinite(integrand, 1.0 / beta, tol)
    return _result(max(pref * quad.value, 0.0), "integral", quad)


def debye_mass_sq_massless(params: ThermalParams) -> DebyeResult:
    """Closed form e^2/(6 beta^2) of the massless limit."""
    if params.is_ground:
        return _ground_result("massless")
    value = params.charge_e ** 2 / (6.0 * params.beta ** 2)
    return _result(value, "massless")


def _route(params: ThermalParams) -> str:
    """The route debye_mass_sq takes at params."""
    if params.is_ground:
        return "series"
    if params.mass == 0.0:
        return "massless"
    return "integral" if params.beta * params.mass < 0.5 else "series"


def debye_mass_sq(params: ThermalParams, tol: float = 1e-10) -> DebyeResult:
    """Canonical dispatch: massless closed form, integral for small beta*m,
    series otherwise."""
    route = _route(params)
    if route == "massless":
        return debye_mass_sq_massless(params)
    return (debye_mass_sq_integral if route == "integral" else debye_mass_sq_series)(params, tol)


def debye_length(params: ThermalParams, tol: float = 1e-10) -> float:
    """Screening length 1/sqrt(m_D^2); +inf when the mass vanishes."""
    return debye_mass_sq(params, tol).lambda_d
