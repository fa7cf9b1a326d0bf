"""Screened potential of a smoothed point charge, two propagators.

Solves the radial profile with the momentum-frozen (Yukawa) denominator
and with the full scanned kernel, prints both together with the fitted
decay rates. At massless parameters the full-kernel tail eventually
leaves the Yukawa form: the kernel's p^2 log p branch point feeds an
unscreened ~r^-5 component that flips the sign of the profile around
twelve screening lengths, so keep the fit window inside that.
"""

import argparse
import math
import sys

import numpy as np

from debye_screen import (
    SourceSpec,
    ThermalParams,
    debye_mass_sq,
    fit_decay,
    screening_profile,
)


def fitted_rate(profile, q):
    pts = [(r, 4.0 * math.pi * r * v / q)
           for r, v in zip(profile.r_grid, profile.values) if v > 0.0]
    return -fit_decay(pts).slope


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--r-lo", type=float, default=5.0,
                    help="fit window in screening lengths")
    ap.add_argument("--r-hi", type=float, default=12.0)
    ap.add_argument("--count", type=int, default=14)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args()

    p = ThermalParams(beta=args.beta, mass=args.mass)
    md = math.sqrt(p.lam * debye_mass_sq(p, 1e-10).m_d_sq)
    rg = list(np.linspace(args.r_lo / md, args.r_hi / md, args.count))
    src = SourceSpec.smoothed_point(args.epsilon)

    zer = screening_profile(src, p, "zeroth_order", rg, args.tol)
    full = screening_profile(src, p, "full_kernel", rg, args.tol)

    print(f"screening mass sqrt(lam m_D^2) = {md:.8f}")
    print(f"{'r':>10} {'zeroth':>14} {'full':>14} {'full/zeroth':>12}")
    for r, a, b in zip(rg, zer.values, full.values):
        print(f"{r:10.4f} {a:14.6e} {b:14.6e} {b / a:12.6f}")

    rz = fitted_rate(zer, src.charge_q)
    rf = fitted_rate(full, src.charge_q)
    print(f"\nfitted rates: zeroth {rz:.6f}  full {rf:.6f}  "
          f"(reference {md:.6f})")
    ok = abs(rz - md) < 0.01 * md and abs(rf - md) < 0.03 * md
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
