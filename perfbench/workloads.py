"""The three benchmark workloads.

Each workload drives homfill's public API the way the CLI does and has four
parts: ``setup`` (load presentations, build balls, and for push-downs the
transfer constants and loop corpus), ``run_pass`` (the timed work, returning
each op's (start, end) on the clock it is given, and the outputs), ``check``
(outputs against the reference values, outside the timed phase) and
``audit`` (re-solve a seeded sample of fills with the ``brute_force`` oracle
and count the workload's input properties, also outside the timed phase).

Calls go through module attributes (``filling.fa_estimate``), so the
tracer's wrappers see them.

Why these three:
  fa-z3ext      FA table on the Z^3 extension ball: the HiGHS proposer and
                exact-dual path; no surfaces.
  compare-z2    criterion 8's presentation comparison: ball queries, peeling
                and surface diagrams; no HiGHS call.
  pushdown-ext  routed fillings pushed down in the Z^3 and Heisenberg
                extensions: heavy ball building in set-up, the extension
                layer, and per-op latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random

from homfill import cayley, experiments, extension, filling, surface
from homfill.cli import load_group
from homfill.presentation import apply_lift
from homfill.words import format_word, inverse_word, parse_word

ORACLE_SAMPLE = 24  # brute-force re-solves per run


def cyclic_class(word: tuple[int, ...]) -> tuple[int, ...]:
    """Minimum rotation over a closed word and its inverse."""
    forms = []
    for w in (tuple(word), inverse_word(word)):
        forms += [w[i:] + w[:i] for i in range(len(w))] or [w]
    return min(forms)


def ball_size(ball) -> dict[str, int]:
    return {"vertices": len(ball.vertices), "edges": len(ball.edges), "cells": len(ball.cells)}


def oracle_fill(ball, cycle, expected: int | None = None) -> str | None:
    """Exact and brute-force fills of one cycle must agree with each other
    and, when given, with the reference area.  Returns a failure or None."""
    exact = filling.harea_fill(ball, cycle)
    brute = filling.harea_fill(ball, cycle, solver="brute_force")
    if exact.status != "optimal" or brute.status != "optimal":
        return f"fill not optimal: exact {exact.status}, brute_force {brute.status}"
    if exact.area != brute.area:
        return f"exact area {exact.area} != brute_force area {brute.area}"
    if expected is not None and brute.area != expected:
        return f"brute_force area {brute.area} != reference {expected}"
    return None


def audit_ball(ball, n_max: int, rng: Random, sample_size: int, expected_cycles: int):
    """Re-solve a seeded sample of the ball's identity cycles with the oracle,
    and count the cycles and their cyclic-word classes."""
    cycles = filling.enumerate_identity_cycles(ball, n_max)
    sample = rng.sample(cycles, min(sample_size, len(cycles)))
    failures = [f for _, cycle, _ in sample if (f := oracle_fill(ball, cycle))]
    failures += _diff("cycles", len(cycles), expected_cycles)
    properties = {
        "ball": ball_size(ball),
        "cycles": len(cycles),
        "word_classes": len({cyclic_class(w) for _, _, w in cycles}),
    }
    return properties, len(sample), failures


def _diff(label: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{label}: got {got!r}, expected {expected!r}"]


class TableWorkload:
    """A workload whose op is one whole table, checked key by key."""

    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, groups: Path, size: str, seed: int):
        self.groups = groups
        self.radius = self.sizes[size]["radius"]
        self.n_max = self.sizes[size]["n_max"]
        self.seed = seed

    def check(self, st, outputs, expected: dict) -> list[str]:
        failures = []
        for table in outputs:
            got = self.output(table)
            diffs = [f for key in got for f in _diff(key, got[key], expected[key])]
            if diffs:
                failures.append("; ".join(diffs))
        return failures


@dataclass
class Loaded:
    group: object
    ball: object


class FaZ3Ext(TableWorkload):
    """``fa_estimate`` on groups/z3_ext.grp, scope loops_only; one table per op."""

    name = "fa-z3ext"
    sizes = {"full": {"radius": 4, "n_max": 6}, "small": {"radius": 3, "n_max": 4}}

    def setup(self) -> Loaded:
        group = load_group(str(self.groups / "z3_ext.grp"))
        return Loaded(group, cayley.build_ball(group.backend, group.hom_pres, self.radius))

    def run_pass(self, st: Loaded, clock):
        t0 = clock()
        table = filling.fa_estimate(
            st.group.backend, st.group.hom_pres, self.n_max, self.radius, scope="loops_only", ball=st.ball
        )
        return [(t0, clock())], [table]

    def output(self, table) -> dict:
        return {
            "fa": [e.fa_value for e in table.values],
            "witness": table.values[-1].witness,
            "gaps": table.gaps,
        }

    def audit(self, st: Loaded, expected: dict):
        return audit_ball(st.ball, self.n_max, Random(self.seed), ORACLE_SAMPLE, expected["cycles"])


@dataclass
class Pair:
    a: object
    b: object
    ball_a: object
    ball_b: object


class CompareZ2(TableWorkload):
    """``compare_presentations`` on z2.grp vs z2_redundant.grp with the
    dictionaries a->a, b->b / a->a, b->b, c->ab and the default policy."""

    name = "compare-z2"
    sizes = {"full": {"radius": 5, "n_max": 8}, "small": {"radius": 3, "n_max": 6}}
    dict_ab = {0: (1,), 1: (2,)}
    dict_ba = {0: (1,), 1: (2,), 2: (1, 2)}

    def setup(self) -> Pair:
        a = load_group(str(self.groups / "z2.grp"))
        b = load_group(str(self.groups / "z2_redundant.grp"))
        return Pair(
            a,
            b,
            cayley.build_ball(a.backend, a.hom_pres, self.radius),
            cayley.build_ball(b.backend, b.hom_pres, self.radius),
        )

    def run_pass(self, st: Pair, clock):
        t0 = clock()
        report = experiments.compare_presentations(
            st.a.hom_pres,
            st.b.hom_pres,
            st.a.backend,
            st.b.backend,
            self.n_max,
            self.dict_ab,
            self.dict_ba,
            self.radius,
        )
        return [(t0, clock())], [report]

    def output(self, report) -> dict:
        return {
            "equivalent": report.equivalent,
            "constants": {
                "f_forward": report.f_forward.constant,
                "f_backward": report.f_backward.constant,
                "g_forward": report.g_forward.constant,
                "g_backward": report.g_backward.constant,
            },
            "f_a": report.report_a.f_table,
            "g_a": report.report_a.g_table,
            "f_b": report.report_b.f_table,
            "g_b": report.report_b.g_table,
            "gaps": report.report_a.gaps + report.report_b.gaps,
        }

    def audit(self, st: Pair, expected: dict):
        rng = Random(self.seed)
        properties, attempted, failures = {}, 0, []
        for label, ball in (("z2", st.ball_a), ("z2_redundant", st.ball_b)):
            props, n, fails = audit_ball(ball, self.n_max, rng, ORACLE_SAMPLE // 2, expected["cycles"][label])
            properties[label] = props
            attempted += n
            failures += [f"{label}: {f}" for f in fails]
        return properties, attempted, failures


QUAD_F = [max(n, n * n) for n in range(64)]


@dataclass
class Context:
    name: str
    group: object
    k_ball: object
    h_ball: object
    constants: object
    loops: list  # (cycle, word) kernel loops whose lift images stay embeddable
    routes: list


class PushdownExt:
    """Routed fillings of kernel loops pushed down to the kernel, with the
    quadratic table and the full audit, in two extension contexts."""

    name = "pushdown-ext"
    # (label, file, h radius, k radius, lift-image cap, routes)
    contexts = (
        ("z3", "z3_ext.grp", 7, 10, 4, ("t1", "t1'", "t1 t1", "t1' t1'", "")),
        ("heis", "heis_ext.grp", 8, 12, 5, ("t1", "t1'")),
    )
    sizes = {"full": {"max_len": 10, "shrink": 0}, "small": {"max_len": 6, "shrink": 2}}

    def __init__(self, groups: Path, size: str, seed: int):
        self.groups = groups
        self.max_len = self.sizes[size]["max_len"]
        self.shrink = self.sizes[size]["shrink"]
        self.seed = seed

    def _context(self, label, file, h_radius, k_radius, cap, routes) -> Context:
        group = load_group(str(self.groups / file))
        k_ball = cayley.build_ball(group.k_backend, group.k_pres, k_radius - self.shrink)
        h_ball = cayley.build_ball(group.backend, group.hom_pres, h_radius - self.shrink)
        constants = extension.compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
        lift = group.lifts[0]
        loops = []
        for _, cycle, word in filling.enumerate_identity_cycles(k_ball, self.max_len):
            reach = 0
            for edge in cycle.coeffs:
                for v in (k_ball.edges[edge][0], k_ball.edges[edge][2]):
                    image = apply_lift(lift, "forward", k_ball.vertices[v])
                    reach = max(reach, len(image), len(apply_lift(lift, "forward", image)))
            if reach <= cap:
                loops.append((cycle, word))
        route_words = [parse_word(r, group.name_index) for r in routes]
        return Context(label, group, k_ball, h_ball, constants, loops, route_words)

    def setup(self) -> list[Context]:
        return [self._context(*spec) for spec in self.contexts]

    def ops(self, contexts: list[Context]):
        """Every (context, loop, route) in a seeded loop order."""
        rng = Random(self.seed)
        out = []
        for ctx in contexts:
            order = list(range(len(ctx.loops)))
            rng.shuffle(order)
            out += [(ctx, i, route) for i in order for route in ctx.routes]
        return out

    @staticmethod
    def op(ctx: Context, cycle, route) -> tuple[int, int, bool]:
        """One push-down with its audit: (initial area, final area, ok)."""
        h, layout = ctx.h_ball, ctx.group.layout
        gamma = extension.kernel_cycle_to_extension(h, ctx.k_ball, cycle)
        chain = extension.route_filling(h, ctx.k_ball, ctx.constants, cycle, route)
        diagram = surface.assemble_surface(h, chain)
        tcycles = extension.detect_t_cycles(diagram, layout)
        trace = extension.push_down(h, gamma, chain, ctx.constants, QUAD_F, "quadratic table max(n, n^2)")
        conj_faces = sorted(
            f for f, face in enumerate(diagram.faces) if layout.is_conj_relator(h.cells[face.provenance[0]].relator)
        )
        in_kernel = all(
            h.coset_labels[h.cells[c].base] == () and not layout.is_conj_relator(h.cells[c].relator)
            for c in trace.final_chain.coeffs
        )
        ok = (
            sorted(f for tc in tcycles for f in tc.faces) == conj_faces
            and in_kernel
            and cayley.boundary_2(h, trace.final_chain) == gamma
            and trace.all_steps_ok
            and trace.final_bound_ok
            and trace.surviving_coset == "e"
        )
        return trace.initial_area, trace.final_area, ok

    def run_pass(self, contexts: list[Context], clock):
        spans, outputs = [], []
        for ctx, i, route in self.ops(contexts):
            t0 = clock()
            try:
                result = self.op(ctx, ctx.loops[i][0], route)
            except Exception as exc:  # a failed op is counted, not fatal
                result = repr(exc)
            spans.append((t0, clock()))
            outputs.append((ctx, i, route, result))
        return spans, outputs

    def check(self, contexts: list[Context], outputs, expected: dict) -> list[str]:
        failures = []
        for ctx in contexts:
            ref = expected["contexts"][ctx.name]
            failures += _diff(f"{ctx.name} constants", constants_doc(ctx.constants), ref["constants"])
        for ctx, i, route, result in outputs:
            word = format_word(ctx.loops[i][1], ctx.k_ball.generators)
            where = f"{ctx.name} '{word}' via '{format_word(route, ctx.h_ball.generators)}'"
            if isinstance(result, str):
                failures.append(f"{where}: {result}")
                continue
            initial, final, ok = result
            area = expected["contexts"][ctx.name]["areas"].get(word)
            if area is None:
                failures.append(f"{where}: loop missing from the reference")
            elif not ok:
                failures.append(f"{where}: audit failed")
            elif final < area or (not route and initial != area):
                failures.append(f"{where}: areas {initial} -> {final} against minimal area {area}")
        return failures

    def audit(self, contexts: list[Context], expected: dict):
        rng = Random(self.seed)
        properties, attempted, failures = {}, 0, []
        for ctx in contexts:
            ref = expected["contexts"][ctx.name]
            sample = rng.sample(ctx.loops, min(ORACLE_SAMPLE // 2, len(ctx.loops)))
            attempted += len(sample)
            for cycle, word in sample:
                text = format_word(word, ctx.k_ball.generators)
                if f := oracle_fill(ctx.k_ball, cycle, ref["areas"].get(text, -1)):
                    failures.append(f"{ctx.name} '{text}': {f}")
            failures += _diff(f"{ctx.name} loops", len(ctx.loops), len(ref["areas"]))
            properties[ctx.name] = {
                "k_ball": ball_size(ctx.k_ball),
                "h_ball": ball_size(ctx.h_ball),
                "loops": len(ctx.loops),
                "word_classes": len({cyclic_class(w) for _, w in ctx.loops}),
                "routes": len(ctx.routes),
            }
        properties["ops"] = sum(len(c.loops) * len(c.routes) for c in contexts)
        failures += _diff("ops", properties["ops"], expected["ops"])
        return properties, attempted, failures


def constants_doc(constants) -> dict[str, int]:
    return {
        "C": constants.C,
        "C_prime": constants.C_prime,
        "C_double_prime": constants.C_double_prime,
        "rho": constants.rho,
        "M": constants.M,
    }


WORKLOADS = {w.name: w for w in (FaZ3Ext, CompareZ2, PushdownExt)}
