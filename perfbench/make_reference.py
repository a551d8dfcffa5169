"""Regenerate perfbench/reference.json, the expected outputs of every workload
at both sizes, from the independent ``brute_force`` oracle.

Every ``harea_fill`` call made through homfill's module namespaces is
redirected to ``solver="brute_force"`` while the references are computed,
so no expected value comes from the exact ILP path.

Usage (from the repository root):  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def brute_references(groups: Path) -> dict:
    from homfill import filling
    from homfill.words import format_word
    from tracing import patch_everywhere, restore
    from workloads import CompareZ2, FaZ3Ext, PushdownExt, constants_doc

    exact_fill = filling.harea_fill

    def brute_fill(ball, gamma, solver="exact_ilp", **_budgets):
        return exact_fill(ball, gamma, solver="brute_force")

    undo = patch_everywhere(exact_fill, brute_fill)
    try:
        out: dict = {FaZ3Ext.name: {}, CompareZ2.name: {}, PushdownExt.name: {}}
        for size in ("full", "small"):
            fa = FaZ3Ext(groups, size, 0)
            st = fa.setup()
            doc = fa.output(filling.fa_estimate(st.group.backend, st.group.hom_pres, fa.n_max, fa.radius, ball=st.ball))
            doc["cycles"] = len(filling.enumerate_identity_cycles(st.ball, fa.n_max))
            out[fa.name][size] = doc

            cmp = CompareZ2(groups, size, 0)
            st = cmp.setup()
            doc = cmp.output(cmp.run_pass(st)[1][0])
            doc["cycles"] = {
                label: len(filling.enumerate_identity_cycles(ball, cmp.n_max))
                for label, ball in (("z2", st.ball_a), ("z2_redundant", st.ball_b))
            }
            out[cmp.name][size] = doc

            push = PushdownExt(groups, size, 0)
            contexts = push.setup()
            out[push.name][size] = {
                "ops": sum(len(c.loops) * len(c.routes) for c in contexts),
                "contexts": {
                    ctx.name: {
                        "constants": constants_doc(ctx.constants),
                        "areas": {
                            format_word(word, ctx.k_ball.generators): brute_fill(ctx.k_ball, cycle).area
                            for cycle, word in ctx.loops
                        },
                    }
                    for ctx in contexts
                },
            }
        return out
    finally:
        restore(undo)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    refs = brute_references(ROOT / "groups")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
