"""Free-extension machinery: certified transfer of fillings along an
automorphism, t-cycle detection on surface diagrams, and the push-down
algorithm that converts a filling in the extension into one supported in
the kernel, with audited area bounds.

Conventions.  The kernel coset of a vertex is its reduced stable-letter
word w (element = k * w).  Each coset pair {Kw', Kw} with w = w' t^e joins
through conjugation cells; the cycle those cells cut out on the kernel
side of w' is the inner boundary, the one on the w side the outer
boundary.  Eliminating a maximal coset ending in t uses the pull-back
transfer, one ending in t^-1 uses the push-forward transfer, exactly the
two affine area caps with constants C, C', C''.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import ExtensionBackend
from .cayley import (
    CayleyBall,
    OneCycle,
    TwoChain,
    boundary_2,
    loop_to_cycle,
    trace_word,
    translate_chain,
    vertex_incidence,
)
from .errors import DomainError, InvariantError, ResourceError
from .filling import FATable, harea_fill
from .presentation import AutLift, ExtensionLayout, apply_lift
from .surface import SurfaceDiagram, project_boundary
from .words import Word, format_word, inverse_word


@dataclass
class Certificate:
    loop_word: Word
    chain: TwoChain
    area: int


@dataclass
class TransferConstants:
    C: int
    C_prime: int
    C_double_prime: int
    rho: int
    M: int
    k_ball: CayleyBall
    layout: ExtensionLayout
    lifts: tuple[AutLift, ...]
    # certificates per (stable letter, relator index) and per generator
    phi_certs: dict[tuple[int, int], Certificate]
    psi_certs: dict[tuple[int, int], Certificate]
    psi_phi_certs: dict[tuple[int, int], Certificate]
    collar_psi_phi: dict[tuple[int, int], Certificate]  # fills a * PsiPhi(a)^-1
    collar_phi_psi: dict[tuple[int, int], Certificate]  # fills a * PhiPsi(a)^-1

    def as_json(self) -> dict:
        names = self.k_ball.generators

        def certmap(certs):
            return {
                f"t{i + 1}/{key}": {
                    "loop": format_word(cert.loop_word, names) or "e",
                    "area": cert.area,
                }
                for (i, key), cert in sorted(certs.items())
            }

        return {
            "C": self.C,
            "C_prime": self.C_prime,
            "C_double_prime": self.C_double_prime,
            "rho": self.rho,
            "M": self.M,
            "k_ball_radius": self.k_ball.radius,
            "certificates": {
                "phi_relator": certmap(self.phi_certs),
                "psi_relator": certmap(self.psi_certs),
                "psi_phi_relator": certmap(self.psi_phi_certs),
                "collar_psi_phi": certmap(self.collar_psi_phi),
                "collar_phi_psi": certmap(self.collar_phi_psi),
            },
        }


def _certificate(k_ball: CayleyBall, loop_word: Word, what: str) -> Certificate:
    try:
        cycle = loop_to_cycle(k_ball, 0, loop_word)
    except DomainError as exc:
        raise DomainError(
            f"certificate loop for {what} leaves the kernel ball; rebuild with a larger radius"
        ) from exc
    result = harea_fill(k_ball, cycle)
    if result.status != "optimal":
        raise DomainError(
            f"certificate loop for {what} is {result.status}; rebuild with a larger radius"
        )
    return Certificate(loop_word, result.chain, result.area)


def compute_constants(
    k_ball: CayleyBall,
    layout: ExtensionLayout,
    lifts: tuple[AutLift, ...] | list[AutLift],
    ext_relators: tuple[Word, ...],
) -> TransferConstants:
    """Fill every certificate loop inside the kernel ball and assemble the
    transfer constants C, C', C'' and M = max(C, C', C''(2 rho + 1), 1).

    C' is taken over both the inverse-lift relator certificates (used by the
    substitution the pull-back actually performs) and the round-trip relator
    certificates; with the supported lifts these coincide."""
    lifts = tuple(lifts)
    marked = [(ri, k_ball.hom_pres.base.relators[ri]) for ri in k_ball.hom_pres.marked_relators]
    phi_certs = {}
    psi_certs = {}
    psi_phi_certs = {}
    collar_psi_phi = {}
    collar_phi_psi = {}
    for i, lift in enumerate(lifts):
        for ri, rel in marked:
            phi_r = apply_lift(lift, "forward", rel)
            psi_r = apply_lift(lift, "backward", rel)
            round_trip = apply_lift(lift, "backward", phi_r)
            phi_certs[(i, ri)] = _certificate(k_ball, phi_r, f"forward image of relator {ri}")
            psi_certs[(i, ri)] = _certificate(k_ball, psi_r, f"backward image of relator {ri}")
            psi_phi_certs[(i, ri)] = _certificate(
                k_ball, round_trip, f"round-trip image of relator {ri}"
            )
        for j in range(layout.k_rank):
            a = (j + 1,)
            psi_phi_a = apply_lift(lift, "backward", apply_lift(lift, "forward", a))
            phi_psi_a = apply_lift(lift, "forward", apply_lift(lift, "backward", a))
            collar_psi_phi[(i, j)] = _certificate(
                k_ball, a + inverse_word(psi_phi_a), f"collar of generator {j + 1}"
            )
            collar_phi_psi[(i, j)] = _certificate(
                k_ball, a + inverse_word(phi_psi_a), f"reverse collar of generator {j + 1}"
            )
    C = max((c.area for c in phi_certs.values()), default=1)
    C_prime = max(
        (c.area for c in list(psi_certs.values()) + list(psi_phi_certs.values())), default=1
    )
    C_dbl = max((c.area for c in collar_psi_phi.values()), default=0)
    rho = max((len(r) for r in ext_relators), default=1)
    M = max(C, C_prime, C_dbl * (2 * rho + 1), 1)
    return TransferConstants(
        C=C,
        C_prime=C_prime,
        C_double_prime=C_dbl,
        rho=rho,
        M=M,
        k_ball=k_ball,
        layout=layout,
        lifts=lifts,
        phi_certs=phi_certs,
        psi_certs=psi_certs,
        psi_phi_certs=psi_phi_certs,
        collar_psi_phi=collar_psi_phi,
        collar_phi_psi=collar_phi_psi,
    )


def lift_image_cycle(k_ball: CayleyBall, cycle: OneCycle, lift: AutLift, direction: str) -> OneCycle:
    """Image of a 1-cycle under a lift: each vertex x maps to its image word,
    each edge to the traced image path of its label."""
    acc: dict[int, int] = {}
    for edge, coeff in cycle.coeffs.items():
        source, g, _target = k_ball.edges[edge]
        base_word = apply_lift(lift, direction, k_ball.vertices[source])
        base = k_ball.vertex_of(base_word)
        steps, _ = trace_word(k_ball, base, lift.letter_image(g, direction))
        for e, s in steps:
            acc[e] = acc.get(e, 0) + coeff * s
    return OneCycle(acc)


def push_forward_filling(
    k_ball: CayleyBall,
    chain: TwoChain,
    lift: AutLift,
    constants: TransferConstants,
) -> TwoChain:
    """Filling of the forward image of the chain's boundary, by replacing
    each cell with its fixed forward certificate translated to the image of
    the cell's base vertex.  Area grows by at most the factor C."""
    i = lift.stable_letter_index
    out = TwoChain()
    for cell_id, coeff in sorted(chain.coeffs.items()):
        cell = k_ball.cells[cell_id]
        cert = constants.phi_certs[(i, cell.relator)]
        base_image = apply_lift(lift, "forward", k_ball.vertices[cell.base])
        try:
            out = out + translate_chain(k_ball, base_image, cert.chain).scale(coeff)
        except DomainError as exc:
            raise ResourceError(f"forward image leaves the kernel ball: {exc}") from exc
    if out.area() > constants.C * chain.area():
        raise InvariantError("push-forward area exceeded its certified bound")
    expected = lift_image_cycle(k_ball, boundary_2(k_ball, chain), lift, "forward")
    if boundary_2(k_ball, out) != expected:
        raise InvariantError("push-forward output does not bound the image cycle")
    return out


def pull_back_filling(
    k_ball: CayleyBall,
    c_prime: TwoChain,
    gamma: OneCycle,
    lift: AutLift,
    constants: TransferConstants,
) -> TwoChain:
    """Filling of gamma from a filling of its forward image: substitute the
    backward certificates through c', then attach one collar per edge of
    gamma to bridge gamma and its round-trip image.  Area is bounded by
    C' Area(c') + C'' |gamma|."""
    i = lift.stable_letter_index
    if boundary_2(k_ball, c_prime) != lift_image_cycle(k_ball, gamma, lift, "forward"):
        raise DomainError("pull-back input does not bound the forward image of gamma")
    out = TwoChain()
    for cell_id, coeff in sorted(c_prime.coeffs.items()):
        cell = k_ball.cells[cell_id]
        cert = constants.psi_certs[(i, cell.relator)]
        base_image = apply_lift(lift, "backward", k_ball.vertices[cell.base])
        try:
            out = out + translate_chain(k_ball, base_image, cert.chain).scale(coeff)
        except DomainError as exc:
            raise ResourceError(f"backward image leaves the kernel ball: {exc}") from exc
    for edge, coeff in sorted(gamma.coeffs.items()):
        source, g, _ = k_ball.edges[edge]
        collar = constants.collar_psi_phi[(i, g - 1)]
        if not collar.chain:
            continue
        try:
            out = out + translate_chain(k_ball, k_ball.vertices[source], collar.chain).scale(coeff)
        except DomainError as exc:
            raise ResourceError(f"collar leaves the kernel ball: {exc}") from exc
    if out.area() > constants.C_prime * c_prime.area() + constants.C_double_prime * gamma.length():
        raise InvariantError("pull-back area exceeded its certified bound")
    if boundary_2(k_ball, out) != gamma:
        raise InvariantError("pull-back output does not bound gamma")
    return out


# ---------------------------------------------------------------------------
# coset bookkeeping in the extension ball


def _require_extension(ball: CayleyBall) -> ExtensionBackend:
    backend = ball.backend
    if not isinstance(backend, ExtensionBackend):
        raise DomainError("this operation needs a ball over an extension backend")
    return backend


def conj_cell_cosets(ball: CayleyBall, layout: ExtensionLayout, cell_id: int):
    """(stable letter i, lower coset word, sign) for a conjugation cell:
    the cell joins K(lower) to K(lower * t_i^sign)."""
    cell = ball.cells[cell_id]
    i, _j = layout.conj_info(cell.relator)
    base_label = ball.coset_labels[cell.base]
    other_label = ball.coset_labels[cell.vertex_path[1]]  # after the t^-1 step
    if len(other_label) < len(base_label):
        return i, other_label, 1  # based in the upper coset, upper = lower * t_i
    return i, base_label, -1  # based in the lower coset, upper = lower * t_i^-1


def chain_coset_words(ball: CayleyBall, layout: ExtensionLayout, chain: TwoChain) -> set[Word]:
    words: set[Word] = set()
    for cell_id in chain.coeffs:
        cell = ball.cells[cell_id]
        if layout.is_conj_relator(cell.relator):
            i, lower, sign = conj_cell_cosets(ball, layout, cell_id)
            words.add(lower)
            t = layout.stable_letter(i)
            words.add(lower + ((t,) if sign > 0 else (-t,)))
        else:
            words.add(ball.coset_labels[cell.base])
    return words


def _edge_coset(ball: CayleyBall, layout: ExtensionLayout, edge: int) -> Word | None:
    source, g, _ = ball.edges[edge]
    if g > layout.k_rank:
        return None  # stable-letter edge, lives between cosets
    return ball.coset_labels[source]


def restrict_to_coset(ball: CayleyBall, layout: ExtensionLayout, cycle: OneCycle, coset: Word) -> OneCycle:
    return OneCycle(
        {e: c for e, c in cycle.coeffs.items() if _edge_coset(ball, layout, e) == coset}
    )


def chart_cycle(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word, cycle: OneCycle) -> OneCycle:
    """Carry a cycle lying in the K(coset) subcomplex to the kernel ball via
    left translation by coset^-1."""
    backend = _require_extension(h_ball)
    acc: dict[int, int] = {}
    inv = inverse_word(coset)
    for edge, coeff in cycle.coeffs.items():
        source, g, _ = h_ball.edges[edge]
        word = backend.split(inv + h_ball.vertices[source]).k_part
        try:
            ke = k_ball.succ[k_ball.vertex_of(word)][g][0]
        except (DomainError, KeyError) as exc:
            raise ResourceError(
                f"kernel ball radius {k_ball.radius} too small to chart the coset cycle; "
                f"needs at least {len(word) + 1}"
            ) from exc
        acc[ke] = acc.get(ke, 0) + coeff
    return OneCycle(acc)


def chart_chain(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word, chain: TwoChain) -> TwoChain:
    backend = _require_extension(h_ball)
    inv = inverse_word(coset)
    acc: dict[int, int] = {}
    for cell_id, coeff in chain.coeffs.items():
        cell = h_ball.cells[cell_id]
        word = backend.split(inv + h_ball.vertices[cell.base]).k_part
        try:
            kv = k_ball.vertex_of(word)
            kc = k_ball.cell_index[(kv, cell.relator)]
        except (DomainError, KeyError) as exc:
            raise ResourceError(
                f"kernel ball radius {k_ball.radius} too small to chart the coset chain; "
                f"needs at least {len(word) + 1}"
            ) from exc
        acc[kc] = acc.get(kc, 0) + coeff
    return TwoChain(acc)


def embed_chain(h_ball: CayleyBall, coset: Word, k_ball: CayleyBall, chain: TwoChain) -> TwoChain:
    """Left-translate a kernel-ball chain into the K(coset) subcomplex."""
    acc: dict[int, int] = {}
    for cell_id, coeff in chain.coeffs.items():
        cell = k_ball.cells[cell_id]
        word = tuple(coset) + k_ball.vertices[cell.base]
        try:
            hv = h_ball.vertex_of(word)
            hc = h_ball.cell_index[(hv, cell.relator)]
        except (DomainError, KeyError) as exc:
            raise ResourceError(
                f"extension ball radius {h_ball.radius} too small to embed at coset "
                f"{format_word(coset, h_ball.generators) or 'e'}; "
                f"needs at least {len(word) + 1}"
            ) from exc
        acc[hc] = acc.get(hc, 0) + coeff
    return TwoChain(acc)


# ---------------------------------------------------------------------------
# t-cycles on surface diagrams


@dataclass
class TCycle:
    stable_letter: int  # 0-based lift index
    coset_word: Word  # the kernel-side (shorter) coset word w
    sign: int  # the pair is {Kw, Kw t^sign}
    faces: tuple[int, ...]
    inner_boundary: OneCycle  # restriction to K(coset_word)
    outer_boundary: OneCycle  # restriction to the longer coset


def detect_t_cycles(diagram: SurfaceDiagram, layout: ExtensionLayout) -> list[TCycle]:
    """Group the diagram's conjugation-relator faces by the coset pair they
    join; checks that both boundaries of every group close up."""
    ball = diagram.ball
    if ball is None:
        raise DomainError("t-cycle detection needs ball provenance")
    _require_extension(ball)
    boundary = project_boundary(diagram)
    for edge in boundary.coeffs:
        if ball.edges[edge][1] > layout.k_rank:
            raise DomainError("diagram boundary contains stable-letter edges; t-cycles undefined")
    groups: dict[tuple[int, Word, int], list[int]] = {}
    for f, face in enumerate(diagram.faces):
        if face.provenance is None:
            raise DomainError("t-cycle detection needs face provenance")
        cell_id, _orient = face.provenance
        if not layout.is_conj_relator(ball.cells[cell_id].relator):
            continue
        key = conj_cell_cosets(ball, layout, cell_id)
        groups.setdefault(key, []).append(f)
    out = []
    for (i, lower, sign) in sorted(groups):
        faces = groups[(i, lower, sign)]
        t = layout.stable_letter(i)
        upper = lower + ((t,) if sign > 0 else (-t,))
        total: dict[int, int] = {}
        for f in faces:
            cell_id, orient = diagram.faces[f].provenance
            for e, s in ball.cells[cell_id].boundary:
                total[e] = total.get(e, 0) + orient * s
        chain_boundary = OneCycle(total)
        inner = restrict_to_coset(ball, layout, chain_boundary, lower)
        outer = restrict_to_coset(ball, layout, chain_boundary, upper)
        for name, cyc in (("inner", inner), ("outer", outer)):
            if vertex_incidence(ball, cyc):
                raise InvariantError(f"{name} boundary of a t-cycle is not closed")
        out.append(TCycle(i, lower, sign, tuple(faces), inner, outer))
    return out


# ---------------------------------------------------------------------------
# push-down


@dataclass
class PushdownStep:
    coset_word: str
    direction: str  # "forward" (coset ends in t^-1) | "backward" (ends in t)
    area_before: int
    area_after: int
    out_boundary_length: int
    out_boundary_bound: int  # |gamma| + 2 rho * area_before, must dominate
    t_cycle_area: int
    outer_filling_area: int
    inner_filling_area: int
    step_bound_ok: bool  # area_after <= M * area_before + M * f(|gamma|)


@dataclass
class PushdownTrace:
    steps: list[PushdownStep]
    final_chain: TwoChain
    input_cycle: OneCycle
    gamma_length: int
    initial_area: int
    final_area: int
    max_coset_length: int
    M: int
    f_value: int
    f_source: str
    surviving_coset: str
    all_steps_ok: bool
    final_bound_ok: bool  # final_area <= M^(k+1) * f(|gamma|)


def _f_lookup(f_table, n: int) -> int:
    if isinstance(f_table, FATable):
        if n >= len(f_table.values):
            raise DomainError(f"f table does not cover n = {n}")
        return f_table.value(n)
    if n >= len(f_table):
        raise DomainError(f"f table does not cover n = {n}")
    return f_table[n]


def push_down(
    h_ball: CayleyBall,
    gamma: OneCycle,
    chain: TwoChain,
    constants: TransferConstants,
    f_table,
    f_source: str = "f_table",
) -> PushdownTrace:
    """Eliminate cosets from deepest to shallowest until the filling lives in
    the kernel subcomplex, exchanging each maximal coset's filling plus its
    t-cycle for a filling of the inner boundary.

    Deterministic order: among maximal-length coset words, lexicographically
    smallest first.  Every step and the final chain are audited against the
    affine bounds with the aggregate constant M."""
    layout = constants.layout
    k_ball = constants.k_ball
    _require_extension(h_ball)
    if boundary_2(h_ball, chain) != gamma:
        raise DomainError("push-down input chain does not bound gamma")
    for edge in gamma.coeffs:
        if _edge_coset(h_ball, layout, edge) != ():
            raise DomainError("gamma must be supported in the kernel subcomplex")
    gamma_len = gamma.length()
    f_value = _f_lookup(f_table, gamma_len)
    M = constants.M

    current = chain
    steps: list[PushdownStep] = []
    initial_area = chain.area()
    k_max = 0
    while True:
        cosets = chain_coset_words(h_ball, layout, current)
        cosets.discard(())
        if not cosets:
            break
        depth = max(len(w) for w in cosets)
        k_max = max(k_max, depth)
        w = min(w for w in cosets if len(w) == depth)
        last = w[-1]
        i = abs(last) - layout.k_rank - 1
        sign = 1 if last > 0 else -1
        w_prime = w[:-1]
        lift = constants.lifts[i]

        t_cells: dict[int, int] = {}
        out_cells: dict[int, int] = {}
        for cell_id, coeff in current.coeffs.items():
            cell = h_ball.cells[cell_id]
            if layout.is_conj_relator(cell.relator):
                key = conj_cell_cosets(h_ball, layout, cell_id)
                if key == (i, w_prime, sign):
                    t_cells[cell_id] = coeff
                elif w in (key[1], key[1] + ((layout.stable_letter(key[0]),) if key[2] > 0 else (-layout.stable_letter(key[0]),))):
                    raise InvariantError("a second t-cycle touches the maximal coset")
            elif h_ball.coset_labels[cell.base] == w:
                out_cells[cell_id] = coeff
        T = TwoChain(t_cells)
        S_out = TwoChain(out_cells)

        t_boundary = boundary_2(h_ball, T)
        outer_restr = restrict_to_coset(h_ball, layout, t_boundary, w)
        inner_restr = restrict_to_coset(h_ball, layout, t_boundary, w_prime)
        if OneCycle({e: -c for e, c in outer_restr.coeffs.items()}) != boundary_2(h_ball, S_out):
            raise InvariantError("outer filling does not bound the t-cycle's outer boundary")

        gamma_out = chart_cycle(h_ball, k_ball, w, OneCycle({e: -c for e, c in outer_restr.coeffs.items()}))
        gamma_in = chart_cycle(h_ball, k_ball, w_prime, inner_restr)
        s_out_chart = chart_chain(h_ball, k_ball, w, S_out)

        if sign > 0:
            if gamma_out != lift_image_cycle(k_ball, gamma_in, lift, "forward"):
                raise InvariantError("outer boundary is not the forward image of the inner boundary")
            s_in_chart = pull_back_filling(k_ball, s_out_chart, gamma_in, lift, constants)
            direction = "backward"
        else:
            if gamma_in != lift_image_cycle(k_ball, gamma_out, lift, "forward"):
                raise InvariantError("inner boundary is not the forward image of the outer boundary")
            s_in_chart = push_forward_filling(k_ball, s_out_chart, lift, constants)
            direction = "forward"

        s_in = embed_chain(h_ball, w_prime, k_ball, s_in_chart)
        new_chain = current - S_out - T + s_in
        if boundary_2(h_ball, new_chain) != gamma:
            raise InvariantError("push-down step changed the boundary")

        area_before = current.area()
        area_after = new_chain.area()
        out_len = gamma_out.length()
        out_bound = gamma_len + 2 * constants.rho * area_before
        if out_len > out_bound:
            raise InvariantError("outer boundary length exceeded its combinatorial bound")
        step_ok = area_after <= M * area_before + M * f_value
        steps.append(
            PushdownStep(
                coset_word=format_word(w, h_ball.generators),
                direction=direction,
                area_before=area_before,
                area_after=area_after,
                out_boundary_length=out_len,
                out_boundary_bound=out_bound,
                t_cycle_area=T.area(),
                outer_filling_area=S_out.area(),
                inner_filling_area=s_in.area(),
                step_bound_ok=step_ok,
            )
        )
        current = new_chain

    for cell_id in current.coeffs:
        cell = h_ball.cells[cell_id]
        if layout.is_conj_relator(cell.relator) or h_ball.coset_labels[cell.base] != ():
            raise InvariantError("push-down terminated with cells outside the kernel")
    final_area = current.area()
    final_ok = final_area <= M ** (k_max + 1) * f_value
    return PushdownTrace(
        steps=steps,
        final_chain=current,
        input_cycle=gamma,
        gamma_length=gamma_len,
        initial_area=initial_area,
        final_area=final_area,
        max_coset_length=k_max,
        M=M,
        f_value=f_value,
        f_source=f_source,
        surviving_coset="e",
        all_steps_ok=all(s.step_bound_ok for s in steps),
        final_bound_ok=final_ok,
    )


@dataclass
class BoundReport:
    step_checks: list[tuple[str, int, int, bool]]  # (label, lhs, rhs bound, ok)
    final_area: int
    final_bound: int
    final_ok: bool
    theorem_bound: int  # (M^2)^g * f(|gamma|)
    theorem_ok: bool
    f_geq_n: bool
    overall: bool


def verify_theorem_bound(trace: PushdownTrace, f_table, g_value: int) -> BoundReport:
    """Numeric instantiation of the per-step and final area inequalities."""
    if g_value < trace.max_coset_length:
        raise DomainError(
            f"g value {g_value} below the trace's maximal coset depth {trace.max_coset_length}"
        )
    f_value = _f_lookup(f_table, trace.gamma_length)
    M = trace.M
    checks = []
    ok_all = True
    for step in trace.steps:
        rhs = M * step.area_before + M * f_value
        ok = step.area_after <= rhs
        ok_all = ok_all and ok
        checks.append((f"eliminate {step.coset_word} ({step.direction})", step.area_after, rhs, ok))
    final_bound = M ** (trace.max_coset_length + 1) * f_value
    final_ok = trace.final_area <= final_bound
    theorem_bound = (M * M) ** g_value * f_value
    theorem_ok = trace.final_area <= theorem_bound
    f_geq = all(
        _f_lookup(f_table, n) >= n for n in range(1, trace.gamma_length + 1)
    )
    return BoundReport(
        step_checks=checks,
        final_area=trace.final_area,
        final_bound=final_bound,
        final_ok=final_ok,
        theorem_bound=theorem_bound,
        theorem_ok=theorem_ok,
        f_geq_n=f_geq,
        overall=ok_all and final_ok and theorem_ok,
    )


# ---------------------------------------------------------------------------
# routed fillings (the push-up construction): used to build extension-side
# fillings of kernel cycles with prescribed coset support


def route_filling(
    h_ball: CayleyBall,
    k_ball: CayleyBall,
    constants: TransferConstants,
    gamma: OneCycle,
    route: Word,
) -> TwoChain:
    """Fill a kernel cycle through the coset path described by ``route`` (a
    reduced stable-letter word): push the cycle up coset by coset with
    conjugation cells (plus collars where the round trip is not literal) and
    close with a minimal kernel filling at the far end."""
    layout = constants.layout
    for pos, letter in enumerate(route):
        if abs(letter) <= layout.k_rank:
            raise DomainError("route must use stable letters only")
        if pos and route[pos - 1] == -letter:
            raise DomainError("route must be a reduced stable-letter word")

    def recurse(prefix: Word, cycle_k: OneCycle, rest: Word) -> TwoChain:
        if not rest:
            result = harea_fill(k_ball, cycle_k)
            if result.status != "optimal":
                raise DomainError(f"kernel filling at route end is {result.status}")
            return embed_chain(h_ball, prefix, k_ball, result.chain)
        t = rest[0]
        i = abs(t) - layout.k_rank - 1
        lift = constants.lifts[i]
        cells: dict[int, int] = {}
        collars = TwoChain()
        if t > 0:
            for edge, coeff in sorted(cycle_k.coeffs.items()):
                source, g, _ = k_ball.edges[edge]
                base_word = prefix + (t,) + apply_lift(lift, "forward", k_ball.vertices[source])
                hv = h_ball.vertex_of(base_word)
                rel = layout.k_relator_count + i * layout.k_rank + (g - 1)
                cell = h_ball.cell_index.get((hv, rel))
                if cell is None:
                    raise ResourceError("extension ball too small to route the cycle up")
                cells[cell] = cells.get(cell, 0) + coeff
            next_cycle = lift_image_cycle(k_ball, cycle_k, lift, "forward")
        else:
            delta = lift_image_cycle(k_ball, cycle_k, lift, "backward")
            for edge, coeff in sorted(delta.coeffs.items()):
                source, g, _ = k_ball.edges[edge]
                base_word = prefix + apply_lift(lift, "forward", k_ball.vertices[source])
                hv = h_ball.vertex_of(base_word)
                rel = layout.k_relator_count + i * layout.k_rank + (g - 1)
                cell = h_ball.cell_index.get((hv, rel))
                if cell is None:
                    raise ResourceError("extension ball too small to route the cycle down")
                cells[cell] = cells.get(cell, 0) - coeff
            # bridge gamma with its phi(psi(.)) image inside the current coset
            k_collars = TwoChain()
            for edge, coeff in sorted(cycle_k.coeffs.items()):
                source, g, _ = k_ball.edges[edge]
                collar = constants.collar_phi_psi[(i, g - 1)]
                if collar.chain or collar.loop_word:
                    k_collars = k_collars + translate_chain(
                        k_ball, k_ball.vertices[source], collar.chain
                    ).scale(coeff)
            collars = embed_chain(h_ball, prefix, k_ball, k_collars)
            next_cycle = delta
        return TwoChain(cells) + collars + recurse(prefix + (t,), next_cycle, rest[1:])

    chain = recurse((), gamma if isinstance(gamma, OneCycle) else OneCycle(gamma), tuple(route))
    if boundary_2(h_ball, chain) != kernel_cycle_to_extension(h_ball, k_ball, gamma):
        raise InvariantError("routed filling does not bound the input cycle")
    return chain


def kernel_cycle_to_extension(h_ball: CayleyBall, k_ball: CayleyBall, gamma: OneCycle) -> OneCycle:
    """Embed a kernel-ball cycle into the extension ball's kernel subcomplex."""
    acc: dict[int, int] = {}
    for e, c in gamma.coeffs.items():
        source, g, _ = k_ball.edges[e]
        hop = h_ball.succ[h_ball.vertex_of(k_ball.vertices[source])].get(g)
        if hop is None:
            raise ResourceError("extension ball too small to hold the kernel cycle")
        acc[hop[0]] = acc.get(hop[0], 0) + c
    return OneCycle(acc)
