"""Tabulate the plane's ball-restricted FA values and its area-radius pair.

Usage: python scripts/z2_tables.py [--max-n 8] [--ball 5]
"""

import argparse
import sys
import time
from pathlib import Path

from homfill import fa_estimate, measure_ar_pair
from homfill.cayley import build_ball
from homfill.cli import load_group

GROUPS = Path(__file__).resolve().parent.parent / "groups"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--ball", type=int, default=5)
    args = parser.parse_args()

    group = load_group(str(GROUPS / "z2.grp"))
    pres, backend = group.hom_pres, group.backend
    t0 = time.time()
    ball = build_ball(backend, pres, args.ball)
    fa = fa_estimate(backend, pres, args.max_n, args.ball, ball=ball)
    ar = measure_ar_pair(backend, pres, args.max_n, args.ball, ball=ball)
    print(f"# Z^2, ball radius {args.ball} ({time.time() - t0:.1f}s)")
    print(f"{'n':>3} {'FA(n)':>6} {'f(n)':>5} {'g(n)':>5}  witness")
    for n in range(args.max_n + 1):
        witness = fa.values[n].witness or "-"
        print(f"{n:>3} {fa.values[n].fa_value:>6} {ar.f_table[n]:>5} {ar.g_table[n]:>5}  {witness}")
    print(f"# {fa.truncation_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
