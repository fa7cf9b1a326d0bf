"""Recompute the triple-cubic 6D integral by nested scipy quadrature.

    I = int d3x d3y [(1+|x|) (1+|y|) (1+|x-y|)]^-3

Rotational symmetry leaves three variables: the radii r_x, r_y and the
separation d = |x - y|, whose measure is 8 pi^2 r_x r_y d over
|r_x - r_y| <= d <= r_x + r_y. Each level is a QUADPACK call; the middle
one is split at r_y = r_x, where the inner range has a kink.

    python3 benchmark/lemma2_reference.py

prints the value that ``workloads.LEMMA2_REFERENCE`` holds (about 4 s).
"""

from __future__ import annotations

import math

from scipy import integrate


def _separation(rx: float, ry: float) -> float:
    return integrate.quad(lambda d: d * (1.0 + d) ** -3, abs(rx - ry), rx + ry,
                          epsabs=0.0, epsrel=1e-12)[0]


def _middle(rx: float) -> float:
    def g(ry):
        return ry * (1.0 + ry) ** -3 * _separation(rx, ry)
    return (integrate.quad(g, 0.0, rx, epsabs=0.0, epsrel=1e-11, limit=200)[0]
            + integrate.quad(g, rx, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0])


def lemma2_integral() -> float:
    outer = integrate.quad(lambda rx: rx * (1.0 + rx) ** -3 * _middle(rx),
                           0.0, math.inf, epsabs=0.0, epsrel=1e-10, limit=200)[0]
    return 8.0 * math.pi ** 2 * outer


if __name__ == "__main__":
    print(repr(lemma2_integral()))
