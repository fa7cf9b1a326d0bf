"""Decay-envelope report: kernel bound ratios and the 6D collision check.

Three quick verifications in one place: the massive kernel stays under
its exponential envelope with the right rate, the massless kernel stays
under the cubic envelope with a flat-or-falling trend, and the 6D
Monte Carlo estimate of the triple-cubic collision integral agrees with
its nested-quadrature value within 4 standard errors plus the sampler's
truncation bias.
"""

import argparse
import sys

from debye_screen import (
    BoundConfig,
    CubicBallSampler,
    KernelConfig,
    TestProfile,
    ThermalParams,
    lemma2_check,
    verify_bound_ratio,
)
from debye_screen.decay import LEMMA2_REFERENCE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--samples", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    prof = TestProfile(kind="gaussian", width=1.0, support_radius=3.0)
    failures = 0

    p = ThermalParams(beta=args.beta, mass=args.mass)
    kc = KernelConfig(channel="scalar_m", u=args.beta / 2.0, profile=prof,
                      params=p, tol=1e-9)
    sched = [x / args.mass for x in (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.5, 14.0)]
    rep = verify_bound_ratio(kc, BoundConfig(regime="thermal_spatial",
                                             mass=args.mass), sched)
    print(f"massive  sup ratio {rep.sup_ratio:.4e}  bounded {rep.bounded}")
    failures += not rep.bounded

    pm = ThermalParams(beta=args.beta, mass=0.0)
    kcm = KernelConfig(channel="spatial_p", u=args.beta / 2.0, profile=prof,
                       params=pm, tol=1e-9)
    schedm = [2.0, 3.0, 4.0, 5.0, 7.0, 9.0, 13.0, 18.0]
    repm = verify_bound_ratio(kcm, BoundConfig(regime="thermal_spatial",
                                               mass=0.0), schedm)
    print(f"massless sup ratio {repm.sup_ratio:.4e}  "
          f"trend slope {repm.trend_slope:+.3e}  bounded {repm.bounded}")
    failures += not repm.bounded

    mc = lemma2_check(args.samples, args.seed)
    allowed = 4.0 * mc.error_estimate + CubicBallSampler().truncation_bias_bound()
    gap = abs(mc.value - LEMMA2_REFERENCE)
    print(f"collision integral {mc.value:.6f} +- {mc.error_estimate:.6f}  "
          f"(reference {LEMMA2_REFERENCE:.6f}, gap {gap / allowed:.2f} of the tolerance)")
    failures += gap > allowed

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
