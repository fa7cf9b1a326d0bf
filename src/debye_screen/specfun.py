"""Special functions shared by all numerics.

Relativistic dispersion, Fermi occupation factors (with a ground-state
sentinel at beta = +inf), modified Bessel functions of the second kind
K_0..K_3, and controlled alternating-series summation.

All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "ThermalParams",
    "SeriesResult",
    "dispersion",
    "fermi_factor",
    "fermi_factor_prime",
    "bessel_k",
    "alternating_sum",
]

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class ThermalParams:
    """Physical inputs for a thermal run.

    Parameters
    ----------
    beta : float
        Inverse temperature in natural units; ``math.inf`` is the
        ground-state sentinel.
    mass : float
        Fermion mass, >= 0.
    charge_e : float
        Electric charge, > 0.
    lam : float
        Formal coupling multiplying the induced-current response, >= 0.
    a1 : float
        Renormalization constant (dimensionless), free sign.
    """

    beta: float
    mass: float
    charge_e: float = 1.0
    lam: float = 1.0
    a1: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0.0):  # also rejects NaN
            raise ValueError(f"beta must be > 0 or +inf, got {self.beta}")
        if not (self.mass >= 0.0):
            raise ValueError(f"mass must be >= 0, got {self.mass}")
        if not (self.charge_e > 0.0):
            raise ValueError(f"charge_e must be > 0, got {self.charge_e}")
        if not (self.lam >= 0.0):
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not math.isfinite(self.a1):
            raise ValueError(f"a1 must be finite, got {self.a1}")

    @property
    def is_ground(self) -> bool:
        """True when beta is the +inf ground-state sentinel."""
        return math.isinf(self.beta)


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a controlled series summation."""

    value: float
    terms_used: int
    remainder_bound: float


def dispersion(p_mag, mass: float):
    """Relativistic single-particle energy sqrt(p^2 + m^2).

    Elementwise over a numpy array of momenta; a scalar gives a float.
    Computed with ``hypot`` so it is exact for Pythagorean inputs and
    monotone, 1-Lipschitz in ``p_mag``.
    """
    p = np.asarray(p_mag, dtype=float)
    if (p < 0.0).any() or mass < 0.0:
        raise ValueError(f"dispersion needs p_mag >= 0 and mass >= 0, got ({p_mag}, {mass})")
    out = np.hypot(p, mass)
    return out if out.ndim else float(out)


def fermi_factor(beta: float, omega):
    """Thermal occupation 1/(1 + e^{beta*omega}).

    Elementwise over a numpy array of energies; a scalar gives a float.
    Evaluated as e^{-x}/(1 + e^{-x}) so that any beta*omega neither
    overflows nor loses the leading exponential: e^{-x} is 0 in double
    precision from x = 746 on, so x is capped there. At the ground-state
    sentinel beta = +inf this is 0 for omega > 0 and the symmetric value
    1/2 at omega = 0.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be > 0, got {beta}")
    w = np.asarray(omega, dtype=float)
    if (w < 0.0).any():
        raise ValueError(f"omega must be >= 0, got {omega}")
    if math.isinf(beta):
        out = np.where(w > 0.0, 0.0, 0.5)
    else:
        e = np.exp(-beta * np.minimum(w, 746.0 / beta))
        out = e / (1.0 + e)
    return out if out.ndim else float(out)


def fermi_factor_prime(beta: float, omega: float) -> float:
    """d/d(omega) of the Fermi factor: -beta e^{beta w}/(1+e^{beta w})^2.

    Always <= 0; vanishes at the ground-state sentinel for omega > 0.
    The double-exponential form keeps it finite for large beta*omega.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be > 0, got {beta}")
    if omega < 0.0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if math.isinf(beta):
        return 0.0
    e = math.exp(-beta * omega)
    return -beta * e / (1.0 + e) ** 2


# ---------------------------------------------------------------------------
# Modified Bessel functions of the second kind, integer order 0..3.
#
# z < 2: ascending series (the small-argument expansion with harmonic-number
#        coefficients), which converges in ~20 terms at double precision.
# z >= 2: Thompson-Barnett continued fraction for K_0, K_1 evaluated by
#        modified Lentz recursion; uniformly ~1e-15 relative down to z = 2.
# Orders 2 and 3 follow from the (upward-stable for K) three-term recurrence
#        K_{n+1} = K_{n-1} + (2n/z) K_n.
# ---------------------------------------------------------------------------


def _k01_series(z: float) -> tuple[float, float]:
    """(K_0, K_1) by the ascending series; intended for 0 < z < 2."""
    q = 0.25 * z * z
    lg = math.log(0.5 * z)

    # I_0, I_1 and the companion log-free sums, accumulated together.
    term_i0 = 1.0
    i0 = 1.0
    s0 = 0.0          # sum (q^k / k!^2) H_k
    term_i1 = 1.0     # q^k / (k! (k+1)!)
    i1sum = 1.0
    s1 = 1.0          # sum (q^k / (k!(k+1)!)) (H_k + H_{k+1})  with H_0 = 0
    hk = 0.0
    k = 0
    while True:
        k += 1
        hk += 1.0 / k
        term_i0 *= q / (k * k)
        i0 += term_i0
        s0 += term_i0 * hk
        term_i1 *= q / (k * (k + 1))
        i1sum += term_i1
        s1 += term_i1 * (2.0 * hk + 1.0 / (k + 1))
        if term_i0 < 1e-18 * i0 and k > 3:
            break
        if k > 60:
            break
    i1 = 0.5 * z * i1sum
    k0 = -(lg + _EULER_GAMMA) * i0 + s0
    k1 = 1.0 / z + lg * i1 - 0.25 * z * (s1 - 2.0 * _EULER_GAMMA * i1sum)
    return k0, k1


def _k01_cf(z: float) -> tuple[float, float]:
    """(K_0, K_1) by the Thompson-Barnett CF2; intended for z >= 2."""
    eps = 1e-16
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25            # 1/4 - mu^2 at order mu = 0
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < eps:
            break
    else:
        raise ConvergenceError(f"K_nu continued fraction failed to converge at z={z}")
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z) / s
    k1 = k0 * (z + 0.5 - h) / z
    return k0, k1


def bessel_k(order: int, z: float) -> float:
    """Modified Bessel function of the second kind K_order(z), order in 0..3.

    Relative accuracy ~1e-13 or better over z in [1e-6, 700]; underflows
    cleanly to 0 once e^{-z} is subnormal.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"unsupported order {order}; supported orders are 0..3")
    if not (z > 0.0):
        raise ValueError(f"z must be > 0, got {z}")
    if z < 2.0:
        k0, k1 = _k01_series(z)
    else:
        k0, k1 = _k01_cf(z)
    if order == 0:
        return k0
    if order == 1:
        return k1
    k2 = k0 + 2.0 * k1 / z
    if order == 2:
        return k2
    return k1 + 4.0 * k2 / z


def alternating_sum(term, tol: float, max_terms: int = 400) -> SeriesResult:
    """Sum of sum_j (-1)^j term(j) for eventually-decreasing |term(j)|.

    Stops once the upcoming term magnitude is <= tol and no longer
    growing; for an alternating series with monotonically decreasing
    terms the reported ``remainder_bound`` (the first omitted term) is a
    rigorous truncation bound.

    Raises
    ------
    ConvergenceError
        If ``max_terms`` terms never bring the term magnitude below
        ``tol``; the error carries the best partial sum.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    total = 0.0
    prev_mag = math.inf
    for j in range(max_terms):
        t = term(j)
        mag = abs(t)
        if mag <= tol and mag <= prev_mag:
            return SeriesResult(value=total, terms_used=j, remainder_bound=mag)
        total += t if (j % 2 == 0) else -t
        prev_mag = mag
    raise ConvergenceError(
        f"alternating series not below tol={tol} after {max_terms} terms",
        estimate=total,
        error_estimate=prev_mag,
    )
