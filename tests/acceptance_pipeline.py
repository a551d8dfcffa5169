"""One seeded run of everything the acceptance criteria measure.

Each criterion's results are serialized to a canonical JSON string so two
runs with the same seed can be compared byte for byte (criterion 9), and so
the criterion tests can assert on parsed values.  Wall-clock timings are
reported separately (they are not part of the artifacts).
"""

from __future__ import annotations

import json
import random
import time

from homfill.backends import ExtensionBackend, FreeAbelianBackend, FreeBackend
from homfill.cayley import TwoChain, boundary_2, build_ball, loop_to_cycle, vertex_incidence
from homfill.extension import (
    compute_constants,
    detect_t_cycles,
    kernel_cycle_to_extension,
    lift_image_cycle,
    pull_back_filling,
    push_down,
    push_forward_filling,
    route_filling,
)
from homfill.experiments import (
    compare_presentations,
    hyperbolic_ar_pair,
    measure_ar_pair,
    polynomial_degree_report,
)
from homfill.filling import enumerate_identity_cycles, fa_estimate, harea_fill
from homfill.presentation import (
    AutLift,
    HomPresentation,
    Presentation,
    apply_lift,
    build_extension_presentation,
)
from homfill.surface import assemble_surface, measure, project_boundary, verify_surface
from homfill.words import format_word, parse_word

NI = {"a": 0, "b": 1}
NI3 = {"a": 0, "b": 1, "c": 2}

QUAD_F = [max(n, n * n) for n in range(64)]


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def z2_group():
    pres = HomPresentation.mark_all(
        Presentation(("a", "b"), (parse_word("a b a' b'", NI),))
    )
    return pres, FreeAbelianBackend(2)


def f2_triangle_group():
    pres = HomPresentation.mark_all(
        Presentation(("a", "b", "c"), (parse_word("c' a b", NI3),))
    )
    return pres, FreeBackend(3, {2: (1, 2)}, base_rank=2)


def z2_redundant_group():
    pres = HomPresentation.mark_all(
        Presentation(
            ("a", "b", "c"), (parse_word("a b a' b'", NI3), parse_word("c' a b", NI3))
        )
    )
    return pres, FreeAbelianBackend(2, [(1, 0), (0, 1), (1, 1)])


class ExtensionContext:
    def __init__(self, lift: AutLift, h_radius: int, k_radius: int):
        self.lift = lift
        self.k_pres, self.k_backend = z2_group()
        self.h_pres, self.layout = build_extension_presentation(
            self.k_pres, [lift], k_normal_form=self.k_backend.normal_form
        )
        self.h_backend = ExtensionBackend(self.k_backend, [lift])
        self.k_ball = build_ball(self.k_backend, self.k_pres, k_radius)
        self.h_ball = build_ball(self.h_backend, self.h_pres, h_radius)
        self.constants = compute_constants(
            self.k_ball, self.layout, [lift], self.h_pres.base.relators
        )


def criterion_1(z2_pres, z2_backend, z2_ball5):
    ilp = fa_estimate(z2_backend, z2_pres, 8, 5, ball=z2_ball5)
    brute = fa_estimate(z2_backend, z2_pres, 8, 5, solver="brute_force", ball=z2_ball5)
    return {
        "fa": [e.fa_value for e in ilp.values],
        "fa_brute_oracle": [e.fa_value for e in brute.values],
        "witness_8": ilp.values[8].witness,
        "ball_radius": ilp.ball_radius,
        "gaps": ilp.gaps + brute.gaps,
    }


def criterion_2(z2_pres, z2_backend, z2_ball4):
    rows = []
    discrepancies = 0
    for key, cycle, word in enumerate_identity_cycles(z2_ball4, 8):
        ilp = harea_fill(z2_ball4, cycle)
        brute = harea_fill(z2_ball4, cycle, solver="brute_force")
        ok = ilp.status == brute.status == "optimal" and ilp.area == brute.area
        if not ok:
            discrepancies += 1
        rows.append(
            {
                "word": format_word(word, ("a", "b")),
                "length": cycle.length(),
                "ilp": ilp.area,
                "brute": brute.area,
            }
        )
    return {"cycles": rows, "count": len(rows), "discrepancies": discrepancies}


def criterion_3(rng, balls):
    rows = []
    failures = 0
    for name, ball, count in balls:
        produced = 0
        while produced < count:
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                coeffs[rng.randrange(len(ball.cells))] = rng.randint(-3, 3)
            chain = TwoChain(coeffs)
            if not chain:
                continue
            produced += 1
            diagram = assemble_surface(ball, chain)
            report = verify_surface(diagram)
            metrics = measure(diagram)
            area_ok = metrics.area == chain.area()
            boundary_ok = project_boundary(diagram) == boundary_2(ball, chain)
            if not (report.ok and area_ok and boundary_ok):
                failures += 1
            rows.append(
                {
                    "ball": name,
                    "area": metrics.area,
                    "boundary_length": metrics.boundary_length,
                    "chi": metrics.euler_characteristic,
                    "components": metrics.component_count,
                    "ok": report.ok and area_ok and boundary_ok,
                }
            )
    return {"chains": len(rows), "failures": failures, "rows": rows}


def _corpus_cycles(ctx, rng, max_len, count, image_cap):
    """Seeded sample of kernel cycles whose lift images stay embeddable."""
    pool = []
    for _key, cycle, word in enumerate_identity_cycles(ctx.k_ball, max_len):
        if cycle.length() > max_len:
            continue
        reach = 0
        for edge in cycle.coeffs:
            for v in (ctx.k_ball.edges[edge][0], ctx.k_ball.edges[edge][2]):
                image = apply_lift(ctx.lift, "forward", ctx.k_ball.vertices[v])
                image2 = apply_lift(ctx.lift, "forward", image)
                reach = max(reach, len(image), len(image2))
        if reach <= image_cap:
            pool.append((cycle, word))
    rng.shuffle(pool)
    return pool[:count]


def criteria_4_5_6(rng, contexts):
    tcycle_rows = []
    transfer_rows = []
    pushdown_rows = []
    t_failures = transfer_failures = push_failures = 0
    for name, ctx, loops, routes in contexts:
        for (cycle, word), route in zip(loops, routes):
            gamma_h = kernel_cycle_to_extension(ctx.h_ball, ctx.k_ball, cycle)
            chain = route_filling(ctx.h_ball, ctx.k_ball, ctx.constants, cycle, route)

            # criterion 4: t-cycle partition on the assembled diagram, each
            # t-cycle's inner and outer boundary closed
            diagram = assemble_surface(ctx.h_ball, chain)
            tcycles = detect_t_cycles(diagram, ctx.layout)
            conj_faces = [
                f
                for f, face in enumerate(diagram.faces)
                if ctx.layout.is_conj_relator(ctx.h_ball.cells[face.provenance[0]].relator)
            ]
            seen = [f for tc in tcycles for f in tc.faces]
            partition_ok = sorted(seen) == sorted(conj_faces) and not any(
                vertex_incidence(ctx.h_ball, cycle)
                for tc in tcycles
                for cycle in (tc.inner_boundary, tc.outer_boundary)
            )
            if not partition_ok:
                t_failures += 1
            tcycle_rows.append(
                {
                    "group": name,
                    "word": format_word(word, ctx.k_ball.generators),
                    "route": format_word(route, ctx.h_ball.generators),
                    "t_cycles": len(tcycles),
                    "conj_faces": len(conj_faces),
                    "ok": partition_ok,
                }
            )

            # criterion 6: push-down audit
            trace = push_down(
                ctx.h_ball, gamma_h, chain, ctx.constants, QUAD_F, "supplied quadratic pair"
            )
            final_in_kernel = all(
                ctx.h_ball.coset_labels[ctx.h_ball.cells[c].base] == ()
                and not ctx.layout.is_conj_relator(ctx.h_ball.cells[c].relator)
                for c in trace.final_chain.coeffs
            )
            boundary_ok = boundary_2(ctx.h_ball, trace.final_chain) == gamma_h
            push_ok = (
                trace.all_steps_ok
                and trace.final_bound_ok
                and final_in_kernel
                and boundary_ok
                and trace.surviving_coset == "e"
            )
            if not push_ok:
                push_failures += 1
            pushdown_rows.append(
                {
                    "group": name,
                    "word": format_word(word, ctx.k_ball.generators),
                    "route": format_word(route, ctx.h_ball.generators),
                    "initial_area": trace.initial_area,
                    "final_area": trace.final_area,
                    "steps": len(trace.steps),
                    "max_depth": trace.max_coset_length,
                    "ok": push_ok,
                }
            )

    # criterion 5: transfer bounds on the distinct kernel cycles of the corpus
    for name, ctx, loops, _routes in contexts:
        done = set()
        for cycle, word in loops:
            key = cycle.key()
            if key in done:
                continue
            done.add(key)
            c_k = harea_fill(ctx.k_ball, cycle).chain
            fwd = push_forward_filling(ctx.k_ball, c_k, ctx.lift, ctx.constants)
            fwd_ok = (
                boundary_2(ctx.k_ball, fwd)
                == lift_image_cycle(ctx.k_ball, cycle, ctx.lift, "forward")
                and fwd.area() <= ctx.constants.C * c_k.area()
            )
            back = pull_back_filling(ctx.k_ball, fwd, cycle, ctx.lift, ctx.constants)
            back_ok = (
                boundary_2(ctx.k_ball, back) == cycle
                and back.area()
                <= ctx.constants.C_prime * fwd.area()
                + ctx.constants.C_double_prime * cycle.length()
            )
            if not (fwd_ok and back_ok):
                transfer_failures += 1
            transfer_rows.append(
                {
                    "group": name,
                    "word": format_word(word, ctx.k_ball.generators),
                    "input_area": c_k.area(),
                    "forward_area": fwd.area(),
                    "pulled_back_area": back.area(),
                    "ok": fwd_ok and back_ok,
                }
            )

    constants_doc = {
        name: {
            "C": ctx.constants.C,
            "C_prime": ctx.constants.C_prime,
            "C_double_prime": ctx.constants.C_double_prime,
            "rho": ctx.constants.rho,
            "M": ctx.constants.M,
        }
        for name, ctx, _l, _r in contexts
    }
    return (
        {"instances": tcycle_rows, "failures": t_failures},
        {"instances": transfer_rows, "failures": transfer_failures, "constants": constants_doc},
        {"instances": pushdown_rows, "failures": push_failures},
    )


def worked_example(ctx_z3):
    gamma_k = loop_to_cycle(ctx_z3.k_ball, 0, parse_word("a b a' b'", NI))
    chain = route_filling(ctx_z3.h_ball, ctx_z3.k_ball, ctx_z3.constants, gamma_k, (3,))
    gamma_h = kernel_cycle_to_extension(ctx_z3.h_ball, ctx_z3.k_ball, gamma_k)
    fa_h = fa_estimate(ctx_z3.h_backend, ctx_z3.h_pres, 8, 4)
    f_values = [e.fa_value for e in fa_h.values]
    trace = push_down(
        ctx_z3.h_ball,
        gamma_h,
        chain,
        ctx_z3.constants,
        f_values,
        f_source=f"computed FA table (ball radius {fa_h.ball_radius})",
    )
    from homfill.extension import verify_theorem_bound

    report = verify_theorem_bound(trace, f_values, g_value=1)
    return {
        "initial_area": trace.initial_area,
        "steps": len(trace.steps),
        "final_area": trace.final_area,
        "direction": trace.steps[0].direction if trace.steps else None,
        "f_source": trace.f_source,
        "fa_h": [e.fa_value for e in fa_h.values],
        "bound_report_overall": report.overall,
        "theorem_bound": report.theorem_bound,
    }


def criterion_7():
    hyp = hyperbolic_ar_pair(1, 1, 1024)
    d1 = polynomial_degree_report(1, hyp)
    d2 = polynomial_degree_report(2, hyp)
    expected = [0] + [n * ((n - 1).bit_length() + 1) for n in range(1, 1025)]
    return {
        "composite_m1": d1.composite,
        "expected_ceilings": expected,
        "degree_m1": d1.degree,
        "degree_m2": d2.degree,
        "kappa_m2": d2.kappa,
        "f_dominates_n": hyp.f_dominates_n,
    }


def criterion_8():
    pres_a, backend_a = z2_group()
    pres_b, backend_b = z2_redundant_group()
    result = compare_presentations(
        pres_a,
        pres_b,
        backend_a,
        backend_b,
        8,
        {0: (1,), 1: (2,)},
        {0: (1,), 1: (2,), 2: (1, 2)},
        5,
    )
    return {
        "equivalent": result.equivalent,
        "f_forward_C": result.f_forward.constant,
        "f_backward_C": result.f_backward.constant,
        "g_forward_C": result.g_forward.constant,
        "g_backward_C": result.g_backward.constant,
        "f_a": result.report_a.f_table,
        "g_a": result.report_a.g_table,
        "f_b": result.report_b.f_table,
        "g_b": result.report_b.g_table,
    }


def run_criteria(seed: int):
    artifacts: dict[str, str] = {}
    timings: dict[str, float] = {}
    rng = random.Random(seed)

    z2_pres, z2_backend = z2_group()
    z2_ball4 = build_ball(z2_backend, z2_pres, 4)
    z2_ball5 = build_ball(z2_backend, z2_pres, 5)

    t0 = time.time()
    artifacts["criterion_1"] = dumps(criterion_1(z2_pres, z2_backend, z2_ball5))
    timings["criterion_1"] = time.time() - t0

    t0 = time.time()
    artifacts["criterion_2"] = dumps(criterion_2(z2_pres, z2_backend, z2_ball4))
    timings["criterion_2"] = time.time() - t0

    t0 = time.time()
    f2t_pres, f2t_backend = f2_triangle_group()
    f2t_ball = build_ball(f2t_backend, f2t_pres, 4)
    ctx_z3 = ExtensionContext(AutLift.identity(2), h_radius=7, k_radius=10)
    ctx_heis = ExtensionContext(
        AutLift(((1, 2), (2,)), ((1, -2), (2,)), 0), h_radius=8, k_radius=12
    )
    timings["setup_extensions"] = time.time() - t0

    t0 = time.time()
    artifacts["criterion_3"] = dumps(
        criterion_3(
            rng,
            [
                ("z2", z2_ball4, 400),
                ("f2_triangle", f2t_ball, 300),
                ("z3_extension", ctx_z3.h_ball, 320),
            ],
        )
    )
    timings["criterion_3"] = time.time() - t0

    t0 = time.time()
    z3_loops = _corpus_cycles(ctx_z3, rng, max_len=8, count=80, image_cap=4)
    heis_loops = _corpus_cycles(ctx_heis, rng, max_len=8, count=30, image_cap=5)
    z3_routes = [[(3,), (-3,), (3, 3), (-3, -3), ()][i % 5] for i in range(len(z3_loops) * 2)]
    heis_routes = [[(3,), (-3,)][i % 2] for i in range(len(heis_loops) * 2)]
    contexts = [
        ("z3", ctx_z3, (z3_loops * 2)[: len(z3_routes)], z3_routes),
        ("heis", ctx_heis, (heis_loops * 2)[: len(heis_routes)], heis_routes),
    ]
    c4, c5, c6 = criteria_4_5_6(rng, contexts)
    c6["worked_example"] = worked_example(ctx_z3)
    artifacts["criterion_4"] = dumps(c4)
    artifacts["criterion_5"] = dumps(c5)
    artifacts["criterion_6"] = dumps(c6)
    timings["criteria_4_5_6"] = time.time() - t0

    t0 = time.time()
    artifacts["criterion_7"] = dumps(criterion_7())
    timings["criterion_7"] = time.time() - t0

    t0 = time.time()
    artifacts["criterion_8"] = dumps(criterion_8())
    timings["criterion_8"] = time.time() - t0

    return artifacts, timings
