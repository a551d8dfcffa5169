"""Command-line surface: parse presentation files, dispatch subcommands,
write reports atomically with a reproducibility header.

Exit codes: 0 success (also ``--help`` and ``--version``), 1 domain/resource
problems (usage errors, bad input, infeasible, budget), 2 invariant
violations (these signal bugs, not bad input).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .backends import (
    ExtensionBackend,
    FreeAbelianBackend,
    FreeBackend,
    GroupBackend,
)
from .cayley import CayleyBall, OneCycle, ball_to_json, build_ball, loop_to_cycle
from .errors import DomainError, HomfillError, InvariantError, ParseError
from .extension import (
    TransferConstants,
    compute_constants,
    kernel_cycle_to_extension,
    push_down,
    route_filling,
)
from .experiments import POLICIES, hyperbolic_ar_pair, measure_ar_pair, polynomial_degree_report
from .filling import TRUNCATION_NOTE, FillingResult, fa_estimate, harea_fill
from .presentation import (
    ExtensionLayout,
    HomPresentation,
    Presentation,
    PresentationFile,
    build_extension_presentation,
    parse_presentation_file,
    read_text,
)
from .surface import (
    assemble_surface,
    diagram_from_json,
    diagram_to_dot,
    diagram_to_json,
    measure,
    verify_surface,
)
from .words import format_word, parse_word


@dataclass
class LoadedGroup:
    hom_pres: HomPresentation
    backend: GroupBackend
    source: str
    k_pres: HomPresentation | None = None
    k_backend: GroupBackend | None = None
    layout: ExtensionLayout | None = None
    lifts: tuple = ()

    @property
    def name_index(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.hom_pres.generators)}


def _base_backend(kind: str, pf: PresentationFile) -> GroupBackend:
    """The ``kind`` backend of ``pf``'s generators; ParseError when the file
    does not define one, has a word or vector line it cannot use, or has a
    relator that is not trivial in it."""
    gens = pf.generators
    lines = {"free": ("word", pf.gen_words), "free_abelian": ("vector", pf.gen_vectors)}
    if kind not in lines:
        raise ParseError(f"unsupported backend kind {kind!r}")
    for owner, (line, images) in lines.items():
        for name in images:
            if owner != kind:
                raise ParseError(f"{line} line for {name!r} needs backend {owner}, not {kind}")
            if name not in gens:
                raise ParseError(f"{line} image for unknown generator {name!r}")
    if kind == "free":
        images = {gens.index(name): w for name, w in pf.gen_words.items()}
        base_rank = len(gens) - len(images)
        for idx in images:
            if idx < base_rank:
                raise ParseError("generators with word images must come last")
        backend = FreeBackend(len(gens), images, base_rank=base_rank)
    else:
        plain = [g for g in gens if g not in pf.gen_vectors]
        dim = len(plain)
        for g in gens[:dim]:
            if g in pf.gen_vectors:
                raise ParseError("generators with vectors must come after the basis generators")
        vectors = []
        for i, g in enumerate(gens):
            if g in pf.gen_vectors:
                vec = pf.gen_vectors[g]
                if len(vec) != dim:
                    raise ParseError(f"vector for {g!r} must have {dim} entries")
                vectors.append(vec)
            else:
                vectors.append(tuple(1 if k == i else 0 for k in range(dim)))
        backend = FreeAbelianBackend(dim, vectors)
    for rel in pf.relators:
        if not backend.is_identity(rel):
            raise ParseError(f"relator {format_word(rel, gens)!r} is not trivial in backend {kind}")
    return backend


def load_group(path: str) -> LoadedGroup:
    pf = parse_presentation_file(path)
    if pf.backend_kind in ("free", "free_abelian"):
        if pf.lifts:
            raise ParseError("lift lines are only valid with backend: extension")
        backend = _base_backend(pf.backend_kind, pf)
        pres = Presentation(pf.generators, pf.relators)
        return LoadedGroup(HomPresentation.mark_all(pres), backend, path)
    if pf.backend_kind == "extension":
        if pf.k_backend_kind is None:
            raise ParseError("backend: extension needs a k-backend: line")
        if not pf.lifts:
            raise ParseError("backend: extension needs at least one lift")
        k_backend = _base_backend(pf.k_backend_kind, pf)
        k_pres = HomPresentation.mark_all(Presentation(pf.generators, pf.relators))
        hom, layout = build_extension_presentation(
            k_pres, pf.lifts, pf.stable_names, k_normal_form=k_backend.normal_form
        )
        backend = ExtensionBackend(k_backend, pf.lifts)
        return LoadedGroup(
            hom, backend, path, k_pres=k_pres, k_backend=k_backend, layout=layout, lifts=pf.lifts
        )
    raise ParseError(f"unknown backend {pf.backend_kind!r} (free, free_abelian, extension)")


# ---------------------------------------------------------------------------
# artifacts


def _write_text(path: str, text: str) -> None:
    """Atomic write through a temporary file, removed again when it cannot
    replace ``path``; a path that cannot be written raises DomainError."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_artifact(path: str, payload: dict, config_echo: dict) -> None:
    """Atomic write; volatile metadata goes to a sidecar so reruns with one
    seed stay byte-identical."""
    doc = {
        "tool": {"name": "homfill", "version": __version__},
        "config": config_echo,
        "truncation_note": TRUNCATION_NOTE,
    }
    doc.update(payload)
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _write_text(path + ".meta.json", json.dumps({"written_at": datetime.datetime.now().isoformat()}) + "\n")


def write_table(path: str, rows: list[tuple[int, int]]) -> None:
    _write_text(path, "".join(f"{n}\t{v}\n" for n, v in rows))


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _chain_json(chain) -> list[list[int]]:
    return [[cell, coeff] for cell, coeff in sorted(chain.coeffs.items())]


# ---------------------------------------------------------------------------
# subcommands


def _fill_word(args) -> tuple[CayleyBall, OneCycle, str, FillingResult]:
    """Load --pres, build the ball, trace --word from the identity and fill
    it with --solver: (ball, cycle, solver name, result)."""
    group = load_group(args.pres)
    ball = build_ball(group.backend, group.hom_pres, args.ball, args.budget_vertices)
    gamma = loop_to_cycle(ball, 0, parse_word(args.word, group.name_index))
    solver = {"ilp": "exact_ilp", "brute": "brute_force"}[args.solver]
    return ball, gamma, solver, harea_fill(ball, gamma, solver=solver)


def cmd_fill(args) -> int:
    ball, gamma, solver, result = _fill_word(args)
    payload = {
        "cycle": args.word,
        "cycle_length": gamma.length(),
        "area": result.area,
        "status": result.status,
        "chain": _chain_json(result.chain),
        "ball_radius": result.ball_radius,
        "solver": solver,
        "ball": ball_to_json(ball),
    }
    write_artifact(args.out, payload, _config_echo(args))
    if args.verbose:
        print(f"fill: {result.status}, area {result.area}")
    return 0 if result.status == "optimal" else 1


def cmd_fa(args) -> int:
    group = load_group(args.pres)
    ball = build_ball(group.backend, group.hom_pres, args.ball, args.budget_vertices)
    table = fa_estimate(group.backend, group.hom_pres, args.max_n, args.ball, scope=args.scope, ball=ball)
    payload = {
        "values": [
            {"n": n, "fa": e.fa_value, "witness": e.witness, "cycles_examined": e.cycles_examined}
            for n, e in enumerate(table.values)
        ],
        "ball_radius": table.ball_radius,
        "enumeration_scope": table.enumeration_scope,
        "gaps": table.gaps,
        "seed": args.seed,
    }
    write_artifact(args.out, payload, _config_echo(args))
    write_table(os.path.splitext(args.out)[0] + ".txt", table.as_rows())
    if args.verbose:
        print("fa:", [e.fa_value for e in table.values])
    return 1 if table.gaps else 0


def cmd_surface(args) -> int:
    ball, _gamma, _solver, result = _fill_word(args)
    if result.status != "optimal":
        raise DomainError(f"filling is {result.status}; no surface to assemble")
    diagram = assemble_surface(ball, result.chain)
    metrics = measure(diagram)
    payload = diagram_to_json(diagram, metrics)
    payload["cycle"] = args.word
    payload["ball_radius"] = ball.radius
    payload["ball"] = ball_to_json(ball)
    write_artifact(args.out, payload, _config_echo(args))
    if args.dot:
        _write_text(args.dot, diagram_to_dot(diagram) + "\n")
    if args.verbose:
        print(f"surface: area {metrics.area}, radius {metrics.radius}")
    return 0


def _transfer_constants(args, group: LoadedGroup) -> TransferConstants:
    """Transfer constants over the kernel ball of radius --k-ball (default
    --ball); the kernel ball is ``constants.k_ball``."""
    if group.layout is None:
        raise DomainError("this subcommand needs an extension presentation")
    k_radius = args.k_ball if args.k_ball is not None else args.ball
    k_ball = build_ball(group.k_backend, group.k_pres, k_radius, args.budget_vertices)
    return compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)


def cmd_constants(args) -> int:
    constants = _transfer_constants(args, load_group(args.pres))
    write_artifact(args.out, constants.as_json(), _config_echo(args))
    if args.verbose:
        print(f"constants: C={constants.C} C'={constants.C_prime} C''={constants.C_double_prime} M={constants.M}")
    return 0


def cmd_pushdown(args) -> int:
    group = load_group(args.pres)
    constants = _transfer_constants(args, group)
    k_ball = constants.k_ball
    h_ball = build_ball(group.backend, group.hom_pres, args.ball, args.budget_vertices)
    k_names = {g: i for i, g in enumerate(group.k_pres.generators)}
    word = parse_word(args.word, k_names)
    gamma_k = loop_to_cycle(k_ball, 0, word)
    route = parse_word(args.route, group.name_index) if args.route else ()
    chain = route_filling(h_ball, k_ball, constants, gamma_k, route)
    gamma = kernel_cycle_to_extension(h_ball, k_ball, gamma_k)
    if args.f_table == "computed":
        fa = fa_estimate(group.backend, group.hom_pres, gamma.length(), args.ball, ball=h_ball)
        table = [e.fa_value for e in fa.values]
        f_source = f"computed FA table (ball radius {h_ball.radius})"
    else:
        table = [max(n, n * n) for n in range(gamma.length() + 1)]
        f_source = "default quadratic table max(n, n^2)"
    trace = push_down(h_ball, gamma, chain, constants, table, f_source=f_source)
    payload = {
        "input_cycle": args.word,
        "route": args.route or "",
        "ball_radius": h_ball.radius,
        "k_ball_radius": k_ball.radius,
        "gamma_length": trace.gamma_length,
        "initial_area": trace.initial_area,
        "final_area": trace.final_area,
        "max_coset_length": trace.max_coset_length,
        "M": trace.M,
        "f_value": trace.f_value,
        "f_source": trace.f_source,
        "surviving_coset": trace.surviving_coset,
        "all_steps_ok": trace.all_steps_ok,
        "final_bound_ok": trace.final_bound_ok,
        "final_chain": _chain_json(trace.final_chain),
        "steps": [
            {
                "coset": s.coset_word,
                "direction": s.direction,
                "area_before": s.area_before,
                "area_after": s.area_after,
                "out_boundary_length": s.out_boundary_length,
                "out_boundary_bound": s.out_boundary_bound,
                "t_cycle_area": s.t_cycle_area,
                "outer_filling_area": s.outer_filling_area,
                "inner_filling_area": s.inner_filling_area,
                "step_bound_ok": s.step_bound_ok,
            }
            for s in trace.steps
        ],
    }
    write_artifact(args.trace, payload, _config_echo(args))
    if args.verbose:
        print(f"pushdown: {len(trace.steps)} steps, area {trace.initial_area} -> {trace.final_area}")
    return 0 if trace.all_steps_ok and trace.final_bound_ok else 1


def cmd_arpair(args) -> int:
    group = load_group(args.pres)
    ball = build_ball(group.backend, group.hom_pres, args.ball, args.budget_vertices)
    report = measure_ar_pair(group.backend, group.hom_pres, args.max_n, args.ball, args.policy, ball=ball)
    payload = {
        "f_table": report.f_table,
        "g_table": report.g_table,
        "witnesses_f": report.witnesses_f,
        "witnesses_g": report.witnesses_g,
        "policy": report.filling_policy,
        "ball_radius": report.ball_radius,
        "gaps": report.gaps,
        "samples": [
            {"word": s.word, "length": s.cycle_length, "area": s.area, "radius": s.radius}
            for s in report.samples
        ],
        "seed": args.seed,
    }
    write_artifact(args.out, payload, _config_echo(args))
    stem = os.path.splitext(args.out)[0]
    write_table(stem + ".area.txt", list(enumerate(report.f_table)))
    write_table(stem + ".radius.txt", list(enumerate(report.g_table)))
    if args.verbose:
        print("arpair f:", report.f_table)
        print("arpair g:", report.g_table)
    return 1 if report.gaps else 0


def _read_json(path: str, what: str):
    """The JSON document in ``path``; ParseError when it cannot be read, is
    not JSON, nests deeper than Python's recursion limit or holds an
    integer longer than Python's digit limit for int()."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError(f"{what} nests too deeply to read") from None
    except ValueError:
        raise ParseError(f"{what} holds an integer too long to read") from None


def read_constants_M(path: str) -> int:
    """The integer "M" of a constants JSON file (``homfill constants``'s
    artifact); ParseError when the file has none."""
    doc = _read_json(path, "constants file")
    M = doc.get("M") if isinstance(doc, dict) else None
    if not isinstance(M, int) or isinstance(M, bool):
        raise ParseError(f"constants file {path!r} needs an integer \"M\"")
    return M


def cmd_degree(args) -> int:
    M = read_constants_M(args.constants) if args.constants else args.M
    hyp = hyperbolic_ar_pair(args.B, args.C, args.max_n)
    report = polynomial_degree_report(M, hyp)
    payload = {
        "M": M,
        "B": str(hyp.B),
        "C": str(hyp.C),
        "degree": report.degree,
        "kappa": report.kappa,
        "f_dominates_n": hyp.f_dominates_n,
        "composite": report.composite,
        "f_table": hyp.f_table,
        "g_table": hyp.g_table,
        "note": report.note,
    }
    write_artifact(args.out, payload, _config_echo(args))
    if args.verbose:
        print(f"degree: d={report.degree}, kappa={report.kappa}")
    return 0


def cmd_verify(args) -> int:
    doc = _read_json(args.diagram, "diagram")
    ball = None
    if args.pres:
        group = load_group(args.pres)
        ball = build_ball(group.backend, group.hom_pres, args.ball, args.budget_vertices)
    diagram = diagram_from_json(doc, ball)
    report = verify_surface(diagram)
    payload = {"ok": report.ok, "violations": report.violations}
    if args.out:
        write_artifact(args.out, payload, _config_echo(args))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def _fraction_text(text: str) -> str:
    """``text`` unchanged when it reads as an exact fraction such as 3/2;
    otherwise a usage error that names the flag."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
    return text


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError, so that they
    exit 1 with the structured error of any other bad input; its
    subcommand parsers are of the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homfill",
        description="homological fillings, surface diagrams and push-down bounds in Cayley complexes",
    )
    parser.add_argument("--version", action="version", version=f"homfill {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        """The flags of every subcommand."""
        p.add_argument("--seed", type=int, default=0, help="seed recorded in artifacts")
        p.add_argument("--json-errors", action="store_true")
        p.add_argument("--verbose", action="store_true")

    def common(p):
        """The flags of every subcommand that builds a ball from --pres."""
        p.add_argument("--pres", required=True, help="presentation file")
        p.add_argument("--ball", type=int, required=True, help="ball radius")
        p.add_argument("--budget-vertices", type=int, default=None, help="vertex budget override")
        shared(p)

    p = sub.add_parser("fill", help="minimal filling of a loop")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--solver", choices=("ilp", "brute"), default="ilp")
    p.add_argument("--out", default="result.json")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("fa", help="ball-restricted FA table")
    common(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--scope", choices=("loops_only", "loops_plus_superadditive"), default="loops_only")
    p.add_argument("--out", default="fa.json")
    p.set_defaults(func=cmd_fa)

    p = sub.add_parser("surface", help="assemble a surface diagram for a loop's minimal filling")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--solver", choices=("ilp", "brute"), default="ilp")
    p.add_argument("--out", default="diagram.json")
    p.add_argument("--dot", default=None, help="also export the 1-skeleton as DOT")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("constants", help="transfer constants with certificate areas")
    common(p)
    p.add_argument("--k-ball", type=int, default=None, help="kernel ball radius (default: --ball)")
    p.add_argument("--out", default="constants.json")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("pushdown", help="push a routed extension filling down to the kernel")
    common(p)
    p.add_argument("--word", required=True, help="kernel loop (over the kernel generators)")
    p.add_argument("--route", default="", help="stable-letter route, e.g. \"t1 t1\"")
    p.add_argument("--k-ball", type=int, default=None)
    p.add_argument("--f-table", choices=("default", "computed"), default="default")
    p.add_argument("--trace", default="trace.json")
    p.set_defaults(func=cmd_pushdown)

    p = sub.add_parser("arpair", help="measured homological area-radius pair")
    common(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--policy",
        choices=POLICIES,
        default="min_area_then_measure_radius",
    )
    p.add_argument("--out", default="arpair.json")
    p.set_defaults(func=cmd_arpair)

    p = sub.add_parser("degree", help="polynomial degree report for the composite bound")
    p.add_argument("--constants", default=None, help="constants JSON (for M)")
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--B", type=_fraction_text, default="1")
    p.add_argument("--C", type=_fraction_text, default="1")
    p.add_argument("--max-n", type=int, default=1024)
    p.add_argument("--out", default="degree.json")
    shared(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("verify", help="verify a surface diagram JSON")
    p.add_argument("--diagram", required=True)
    p.add_argument("--pres", default=None)
    p.add_argument("--ball", type=int, default=3)
    p.add_argument("--budget-vertices", type=int, default=None)
    p.add_argument("--out", default=None)
    shared(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:  # a usage error: no namespace to read the flag from
        # argparse also accepts a unique prefix such as --json
        _emit_error(any(len(a) > 2 and "--json-errors".startswith(a) for a in argv), exc)
        return 1
    try:
        return args.func(args)
    except InvariantError as exc:
        _emit_error(args.json_errors, exc)
        return 2
    except HomfillError as exc:
        _emit_error(args.json_errors, exc)
        return 1
    except Exception as exc:  # a bug or an exhausted resource, never bad input
        _emit_error(args.json_errors, exc)
        return 2


def _emit_error(json_errors: bool, exc: Exception) -> None:
    if json_errors:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
    else:
        print(f"homfill: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
