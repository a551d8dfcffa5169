"""Route a kernel loop's filling through stable-letter cosets and push it
back down, printing the audited trace.

Usage: python scripts/pushdown_demo.py [--pres groups/heis_ext.grp] [--word "a b a' b'"] [--route "t1 t1"]
"""

import argparse
import sys
from pathlib import Path

from homfill.cayley import build_ball, loop_to_cycle
from homfill.cli import load_group
from homfill.extension import (
    compute_constants,
    kernel_cycle_to_extension,
    push_down,
    route_filling,
    verify_theorem_bound,
)
from homfill.words import parse_word

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pres",
        default="groups/z3_ext.grp",
        help="the extension's group file, relative to the repository root unless absolute"
        " (groups/heis_ext.grp has the a -> ab lift)",
    )
    parser.add_argument("--word", default="a b a' b'")
    parser.add_argument("--route", default="t1")
    parser.add_argument("--h-ball", type=int, default=7)
    parser.add_argument("--k-ball", type=int, default=10)
    args = parser.parse_args()

    group = load_group(str(ROOT / args.pres))
    if group.k_backend is None:
        parser.error(f"{args.pres} is not a 'backend: extension' group file")
    k_pres, h_pres = group.k_pres, group.hom_pres
    k_ball = build_ball(group.k_backend, k_pres, args.k_ball)
    h_ball = build_ball(group.backend, h_pres, args.h_ball)
    constants = compute_constants(k_ball, group.layout, group.lifts, h_pres.base.relators)
    print(
        f"constants: C={constants.C} C'={constants.C_prime} C''={constants.C_double_prime} "
        f"rho={constants.rho} M={constants.M}"
    )

    k_names = {g: i for i, g in enumerate(k_pres.generators)}
    gamma_k = loop_to_cycle(k_ball, 0, parse_word(args.word, k_names))
    route = parse_word(args.route, group.name_index) if args.route else ()
    chain = route_filling(h_ball, k_ball, constants, gamma_k, route)
    gamma_h = kernel_cycle_to_extension(h_ball, k_ball, gamma_k)
    f_table = [max(n, n * n) for n in range(gamma_h.length() + 1)]
    trace = push_down(h_ball, gamma_h, chain, constants, f_table, "quadratic pair")

    print(f"loop '{args.word}' routed via '{args.route}': area {trace.initial_area}")
    for step in trace.steps:
        print(
            f"  eliminate K·{step.coset_word or 'e'} [{step.direction}]: "
            f"{step.area_before} -> {step.area_after} "
            f"(|outer boundary| {step.out_boundary_length} <= bound {step.out_boundary_bound})"
        )
    print(f"final kernel filling: area {trace.final_area} at coset {trace.surviving_coset}")
    report = verify_theorem_bound(trace, f_table, g_value=max(1, trace.max_coset_length))
    print(
        f"bounds: per-step {'ok' if trace.all_steps_ok else 'VIOLATED'}, "
        f"final {trace.final_area} <= {report.final_bound}, "
        f"theorem {trace.final_area} <= {report.theorem_bound}: "
        f"{'ok' if report.overall else 'VIOLATED'}"
    )
    return 0 if report.overall else 1


if __name__ == "__main__":
    sys.exit(main())
