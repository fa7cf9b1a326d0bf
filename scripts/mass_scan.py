"""Sweep the square Debye mass over temperature and fermion mass.

Runs the spectral series and the momentum integral side by side and
reports the relative gap, which should sit at or below the quadrature
tolerance everywhere. Useful as a quick health check after touching
either route.
"""

import argparse
import math
import sys

from debye_screen import (
    ThermalParams,
    debye_length,
    debye_mass_sq_integral,
    debye_mass_sq_massless,
    debye_mass_sq_series,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--betas", type=float, nargs="+",
                    default=[0.5, 1.0, 2.0, 4.0])
    ap.add_argument("--masses", type=float, nargs="+",
                    default=[0.0, 0.5, 1.0, 2.0])
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--out-csv", help="also write the table here")
    args = ap.parse_args()

    rows = []
    print(f"{'beta':>8} {'mass':>8} {'m_D^2 series':>16} "
          f"{'m_D^2 integral':>16} {'rel gap':>10} {'lambda_D':>12}")
    for beta in args.betas:
        for m in args.masses:
            p = ThermalParams(beta=beta, mass=m)
            if m == 0.0:
                a = debye_mass_sq_massless(p).m_d_sq
            else:
                a = debye_mass_sq_series(p, min(args.tol, 1e-10)).m_d_sq
            b = debye_mass_sq_integral(p, args.tol).m_d_sq
            gap = abs(a - b) / max(abs(a), abs(b))
            lam_d = debye_length(p, args.tol)
            rows.append((beta, m, a, b, gap, lam_d))
            print(f"{beta:8.3f} {m:8.3f} {a:16.10e} {b:16.10e} "
                  f"{gap:10.2e} {lam_d:12.6f}")

    worst = max(r[4] for r in rows)
    print(f"\nworst cross-route gap: {worst:.2e}")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write("beta,mass,m_d_sq_series,m_d_sq_integral,gap,lambda_d\n")
            for r in rows:
                fh.write(",".join(f"{v:.12g}" for v in r) + "\n")
    return 0 if worst < 100.0 * args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
