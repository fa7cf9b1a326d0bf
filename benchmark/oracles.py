"""Reference values computed apart from the program.

Each function here uses scipy's QUADPACK or scipy.special, closed forms,
or formulas in other variables than the program's. None imports
debye_screen. scipy is imported on first use, after the timed rounds.
"""

from __future__ import annotations

import math


def _quad(f, a, b, **kw):
    from scipy import integrate
    kw.setdefault("epsabs", 0.0)
    kw.setdefault("epsrel", 1e-12)
    kw.setdefault("limit", 200)
    return integrate.quad(f, a, b, **kw)[0]


def _fermi(beta: float, energy: float) -> float:
    x = beta * energy
    return 0.0 if x > 700.0 else 1.0 / (math.exp(x) + 1.0)


def debye_mass_sq(beta: float, mass: float, charge: float = 1.0) -> float:
    """(e^2 beta / pi^2) int_0^inf p^2 n_F (1 - n_F) dp."""
    def g(p):
        n = _fermi(beta, math.hypot(p, mass))
        return p * p * n * (1.0 - n)
    return charge ** 2 * beta / math.pi ** 2 * _quad(g, 0.0, math.inf, epsrel=1e-13)


def f_hat_temporal(p: float, beta: float, mass: float, charge: float = 1.0) -> float:
    """Static temporal kernel as one integral over the loop momentum k.

    -(e^2/pi^2) int k^2/E n_F(E) [1 + (4E^2 - p^2)/(4kp) ln|(2k+p)/(2k-p)|] dk,
    E = sqrt(k^2 + m^2); at m = 0 this is the massless reduction
    -(e^2/pi^2) int k n_F(k) [1 + (k/p - p/4k) ln|(2k+p)/(2k-p)|] dk.
    Split at the logarithmic point k = p/2.
    """
    def g(k):
        if k == 0.0:
            return 0.0
        e = math.hypot(k, mass)
        log = math.log(abs((2.0 * k + p) / (2.0 * k - p)))
        return k * k / e * _fermi(beta, e) * (1.0 + (4.0 * e * e - p * p) / (4.0 * k * p) * log)

    total = (_quad(g, 0.0, 0.5 * p, epsabs=1e-15, epsrel=1e-13)
             + _quad(g, 0.5 * p, p, epsabs=1e-15, epsrel=1e-13)
             + _quad(g, p, math.inf, epsabs=1e-15, epsrel=1e-13))
    return -charge ** 2 / math.pi ** 2 * total


def b_hat_spatial(p: float, mass: float, charge: float = 1.0, a1: float = 0.0) -> float:
    """Spatial vacuum piece as a Kallen-Lehmann integral over s itself.

    e^2 a1 p^2 + 16 e^2 p^4/(3 (2 pi)^5) int_{4m^2}^inf
        v (3m^2/2 + v^2/4) / (2 s^{5/2} (p^2 + s)) ds,  v = sqrt(s - 4m^2).
    """
    m2, p2 = mass * mass, p * p

    def g(s):
        v2 = s - 4.0 * m2
        return math.sqrt(v2) * (1.5 * m2 + 0.25 * v2) / (2.0 * s ** 2.5 * (p2 + s))

    pref = 16.0 * charge ** 2 * p2 * p2 / (3.0 * (2.0 * math.pi) ** 5)
    return charge ** 2 * a1 * p2 + pref * _quad(g, 4.0 * m2, math.inf)


def smeared_yukawa(r: float, mu: float, eps: float, q: float = 1.0) -> float:
    """Potential of a Gaussian-smeared charge (width eps) with screening mu.

    (q/8 pi r) e^{mu^2 eps^2/2} [e^{-mu r} erfc((mu eps^2 - r)/(sqrt2 eps))
                                 - e^{mu r} erfc((mu eps^2 + r)/(sqrt2 eps))]
    """
    from scipy.special import erfc
    s = math.sqrt(2.0) * eps
    return (q / (8.0 * math.pi * r) * math.exp(0.5 * mu * mu * eps * eps)
            * (math.exp(-mu * r) * erfc((mu * eps * eps - r) / s)
               - math.exp(mu * r) * erfc((mu * eps * eps + r) / s)))


def kernel_imag(u: float, z: float, channel: str, mass: float, width: float) -> float:
    """(1/z) int_0^inf c(w) p/(2w) e^{-u w} e^{-p^2/(2 width^2)} sin(p z) dp.

    c = m for scalar_m and w for temporal_omega; the forward weight and a
    Gaussian test profile, done by QUADPACK's Fourier rule (QAWF).
    """
    from scipy import integrate

    def g(p):
        w = math.hypot(p, mass)
        c = mass if channel == "scalar_m" else w
        core = 0.5 * p / w if w > 0.0 else 0.0
        return c * core * math.exp(-u * w) * math.exp(-0.5 * (p / width) ** 2)

    val = integrate.quad(g, 0.0, math.inf, weight="sin", wvar=z,
                         epsabs=1e-15, limlst=200)[0]
    return val / z


def truncated_pair_integral(radius: float) -> float:
    """(4 pi int_0^R s^2 (1+s)^-3 ds)^2, the cross-factor-free 6D integral."""
    u = 1.0 + radius
    cdf = math.log1p(radius) + 2.0 / u - 0.5 / (u * u) - 1.5
    return (4.0 * math.pi * cdf) ** 2


def truncated_pair_stderr(radius: float, sampler_radius: float, n: int) -> float:
    """Standard error of that integral under the cubic-ball sampler.

    The importance weight is a constant times the indicator of both
    points inside the radius, so the estimate is a scaled binomial mean.
    """
    full = truncated_pair_integral(sampler_radius)
    frac = truncated_pair_integral(radius) / full
    return full * math.sqrt(frac * (1.0 - frac) / n)
