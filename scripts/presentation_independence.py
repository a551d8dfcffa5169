"""Measure AR pairs for two presentations of the plane and check the
finite-range equivalences between them.

Usage: python scripts/presentation_independence.py [--max-n 8] [--ball 5]
"""

import argparse
import sys
from pathlib import Path

from homfill.cli import load_group
from homfill.experiments import compare_presentations

GROUPS = Path(__file__).resolve().parent.parent / "groups"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--ball", type=int, default=5)
    args = parser.parse_args()

    a = load_group(str(GROUPS / "z2.grp"))
    b = load_group(str(GROUPS / "z2_redundant.grp"))
    # the dictionaries a -> a, b -> b and a -> a, b -> b, c -> a b
    result = compare_presentations(
        a.hom_pres,
        b.hom_pres,
        a.backend,
        b.backend,
        args.max_n,
        {0: (1,), 1: (2,)},
        {0: (1,), 1: (2,), 2: (1, 2)},
        args.ball,
    )
    print(f"standard presentation:  f={result.report_a.f_table} g={result.report_a.g_table}")
    print(f"redundant presentation: f={result.report_b.f_table} g={result.report_b.g_table}")
    for label, check in (
        ("f forward ", result.f_forward),
        ("f backward", result.f_backward),
        ("g forward ", result.g_forward),
        ("g backward", result.g_backward),
    ):
        status = f"holds with C={check.constant}" if check.holds else "fails"
        print(f"{label}: {status} ({check.checked} checked, {check.skipped} skipped; {check.note})")
    print("equivalent" if result.equivalent else "NOT equivalent")
    return 0 if result.equivalent else 1


if __name__ == "__main__":
    sys.exit(main())
