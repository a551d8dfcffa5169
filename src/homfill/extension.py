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

Cosets are read off the ball: ``CayleyBall.cell_cosets`` lists the cosets
each cell touches (one, or the pair a conjugation cell joins), and an edge
lies in K(w) when both its endpoints carry the label w.  Chains and cycles
move between the extension ball and the kernel ball with
``carry_chain``/``carry_cycle``: ``chart`` translates a coset's piece by
w^-1 into the kernel ball, ``embed_chain`` translates a kernel chain into
K(w).

Vertices are placed through tables (``cayley.Placement``) indexed by vertex
number, kept on the extension ball (the coset tables) or the kernel ball
(the lift tables) and built on first use:

- per coset w, extension vertex -> kernel vertex of w^-1 x, for ``chart``;
- per coset w, kernel vertex -> extension vertex of w x, for
  ``embed_chain``, ``kernel_cycle_to_extension`` (w = e) and the
  conjugation cells of ``route_filling`` (w = the cell's lead coset, after
  the lift table);
- per lift and direction, kernel vertex -> kernel vertex of its image, plus
  each edge's traced image steps, for ``lift_image_cycle``.

A breadth-first walk along the kernel letters fills a table without normal
forms: translation by w commutes with them, and a lift sends a step along a
letter to the traced image of that letter.  The walk records None where a
step leaves the destination ball.  An entry the walk does not reach falls
back to the normal-form placement it replaces, so every value, error type
and error message is the normal form's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backends import ExtensionBackend
from .cayley import (
    NO_ENTRY,
    CayleyBall,
    OneCycle,
    Placement,
    TwoChain,
    boundary_2,
    carry_chain,
    carry_cycle,
    loop_to_cycle,
    trace_word,
    translate_chain,
    vertex_incidence,
    walk_placement,
    walk_word,
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


def _kernel_letters(k_ball: CayleyBall) -> tuple[int, ...]:
    return tuple(letter for j in range(1, k_ball.backend.rank + 1) for letter in (j, -j))


def lift_placement(k_ball: CayleyBall, lift: AutLift, direction: str) -> tuple[Placement, list]:
    """The lift's placement of the kernel ball in itself, x -> the vertex of
    its image word, and each edge's traced image steps (None until first
    traced), kept on the ball.  The walk starts at the identity, which the
    lift fixes, and sends a step along a letter to the traced image of that
    letter."""
    key = ("lift", lift, direction)
    tables = k_ball.placements.get(key)
    if tables is None:

        def hop(v: int, letter: int) -> int:
            v = walk_word(k_ball, v, lift.letter_image(letter, direction))
            return NO_ENTRY if v is None else v

        def word(x: int) -> Word:
            return apply_lift(lift, direction, k_ball.vertices[x])

        table = walk_placement(k_ball, (0, 0), _kernel_letters(k_ball), hop)
        tables = k_ball.placements[key] = (Placement(table, k_ball, word), [None] * len(k_ball.edges))
    return tables


def lift_image_cycle(k_ball: CayleyBall, cycle: OneCycle, lift: AutLift, direction: str) -> OneCycle:
    """Image of a 1-cycle under a lift: each vertex x maps to its image word,
    each edge to the traced image path of its label."""
    place, traced = lift_placement(k_ball, lift, direction)
    acc: dict[int, int] = {}
    for edge, coeff in cycle.coeffs.items():
        steps = traced[edge]
        if steps is None:
            source, g, _target = k_ball.edges[edge]
            base = place(source)
            if base is None:
                k_ball.vertex_of(place.word(source))  # raises the outside-ball error
            steps = traced[edge] = trace_word(k_ball, base, lift.letter_image(g, direction))[0]
        for e, s in steps:
            acc[e] = acc.get(e, 0) + coeff * s
    return OneCycle(acc)


def _substitute(
    k_ball: CayleyBall, chain: TwoChain, lift: AutLift, direction: str, certs: dict
) -> TwoChain:
    """Replace each cell of the chain with its certificate in ``certs``,
    translated to the ``direction`` image of the cell's base vertex."""
    i = lift.stable_letter_index
    out = TwoChain()
    for cell_id, coeff in sorted(chain.coeffs.items()):
        cell = k_ball.cells[cell_id]
        base_image = apply_lift(lift, direction, k_ball.vertices[cell.base])
        try:
            out = out + translate_chain(k_ball, base_image, certs[(i, cell.relator)].chain).scale(coeff)
        except DomainError as exc:
            raise ResourceError(f"{direction} image leaves the kernel ball: {exc}") from exc
    return out


def _collars(k_ball: CayleyBall, cycle: OneCycle, i: int, certs: dict) -> TwoChain:
    """One collar certificate per edge of the cycle, translated to the
    edge's source vertex."""
    out = TwoChain()
    for edge, coeff in sorted(cycle.coeffs.items()):
        source, g, _ = k_ball.edges[edge]
        collar = certs[(i, g - 1)].chain
        if collar:
            out = out + translate_chain(k_ball, k_ball.vertices[source], collar).scale(coeff)
    return out


def push_forward_filling(
    k_ball: CayleyBall,
    chain: TwoChain,
    lift: AutLift,
    constants: TransferConstants,
) -> TwoChain:
    """Filling of the forward image of the chain's boundary, by replacing
    each cell with its fixed forward certificate translated to the image of
    the cell's base vertex.  Area grows by at most the factor C."""
    out = _substitute(k_ball, chain, lift, "forward", constants.phi_certs)
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
    if boundary_2(k_ball, c_prime) != lift_image_cycle(k_ball, gamma, lift, "forward"):
        raise DomainError("pull-back input does not bound the forward image of gamma")
    out = _substitute(k_ball, c_prime, lift, "backward", constants.psi_certs)
    try:
        out = out + _collars(k_ball, gamma, lift.stable_letter_index, constants.collar_psi_phi)
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


def chain_coset_words(ball: CayleyBall, chain: TwoChain) -> set[Word]:
    """Every coset some cell of the chain touches."""
    words: set[Word] = set()
    for cell_id in chain.coeffs:
        words.update(ball.cell_cosets[cell_id])
    return words


def restrict_to_coset(ball: CayleyBall, cycle: OneCycle, coset: Word) -> OneCycle:
    """The part of the cycle on edges whose both endpoints lie in K(coset)."""
    labels = ball.coset_labels
    return OneCycle(
        {
            e: c
            for e, c in cycle.coeffs.items()
            if labels[ball.edges[e][0]] == coset == labels[ball.edges[e][2]]
        }
    )


def _coset_placement(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word, to_kernel: bool, word) -> Placement:
    """The placement under translation by coset^-1 from the extension ball
    to the kernel ball (``to_kernel``), or by coset the other way.  It is
    kept on the extension ball, so that a kernel ball shared by several
    extension balls keeps none of them alive.  The walk pairs the coset's
    vertex in the extension ball with the identity in the kernel ball and
    steps along the kernel letters, which come first in both balls and
    commute with left translation; from the extension side it therefore
    covers only K(coset)."""
    src, dst = (h_ball, k_ball) if to_kernel else (k_ball, h_ball)
    key = (k_ball, coset, to_kernel)
    placement = h_ball.placements.get(key)
    if placement is None:
        coset_vertex = walk_word(h_ball, 0, coset)

        def hop(v: int, letter: int) -> int | None:
            step = dst.hop(v, letter)
            return None if step is None else step[2]

        roots = (coset_vertex, 0) if to_kernel else (0, coset_vertex)
        table = walk_placement(src, roots, _kernel_letters(k_ball), hop)
        placement = h_ball.placements[key] = Placement(table, dst, word)
    return placement


def chart_placement(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word) -> Placement:
    """Where ``chart`` sends each extension-ball vertex x: the kernel part
    of coset^-1 x."""
    backend = _require_extension(h_ball)
    inv = inverse_word(coset)

    def word(x: int) -> Word:
        return backend.split(inv + h_ball.vertices[x]).k_part

    return _coset_placement(h_ball, k_ball, tuple(coset), True, word)


def embed_placement(h_ball: CayleyBall, coset: Word, k_ball: CayleyBall) -> Placement:
    """Where ``embed_chain`` sends each kernel-ball vertex x: coset x."""
    coset = tuple(coset)

    def word(x: int) -> Word:
        return coset + k_ball.vertices[x]

    return _coset_placement(h_ball, k_ball, coset, False, word)


def _carry(carry, src: CayleyBall, item, place: Placement, too_small: str):
    """Carry a chain or cycle from src to ``place``'s ball; a vertex, cell
    or edge missing there raises ResourceError naming the radius it needs."""
    try:
        return carry(src, place.dst, item, place)
    except KeyError as exc:
        raise ResourceError(f"{too_small}; needs at least {len(place.word(exc.args[0])) + 1}") from exc


def chart(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word, item):
    """Carry a chain or cycle lying in the K(coset) subcomplex to the kernel
    ball via left translation by coset^-1."""
    what, carry = ("cycle", carry_cycle) if isinstance(item, OneCycle) else ("chain", carry_chain)
    too_small = f"kernel ball radius {k_ball.radius} too small to chart the coset {what}"
    return _carry(carry, h_ball, item, chart_placement(h_ball, k_ball, coset), too_small)


def embed_chain(h_ball: CayleyBall, coset: Word, k_ball: CayleyBall, chain: TwoChain) -> TwoChain:
    """Left-translate a kernel-ball chain into the K(coset) subcomplex."""
    too_small = (
        f"extension ball radius {h_ball.radius} too small to embed at coset "
        f"{format_word(coset, h_ball.generators) or 'e'}"
    )
    return _carry(carry_chain, k_ball, chain, embed_placement(h_ball, coset, k_ball), too_small)


def kernel_cycle_to_extension(h_ball: CayleyBall, k_ball: CayleyBall, gamma: OneCycle) -> OneCycle:
    """Embed a kernel-ball cycle into the extension ball's kernel subcomplex."""
    embed = embed_placement(h_ball, (), k_ball)

    def place(x: int) -> int:
        v = embed(x)
        return h_ball.vertex_of(embed.word(x)) if v is None else v  # raises when None

    try:
        return carry_cycle(k_ball, h_ball, gamma, place)
    except KeyError:
        raise ResourceError("extension ball too small to hold the kernel cycle") from None


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
    groups: dict[tuple[int, Word, int, Word], list[int]] = {}
    for f, face in enumerate(diagram.faces):
        if face.provenance is None:
            raise DomainError("t-cycle detection needs face provenance")
        cell_id, _orient = face.provenance
        cosets = ball.cell_cosets[cell_id]
        if len(cosets) == 1:
            continue
        lower, upper = cosets
        t = upper[-1]
        groups.setdefault((layout.stable_index(t), lower, 1 if t > 0 else -1, upper), []).append(f)
    out = []
    for (i, lower, sign, upper), faces in sorted(groups.items()):
        chain_boundary = boundary_2(ball, TwoChain([diagram.faces[f].provenance for f in faces]))
        inner = restrict_to_coset(ball, chain_boundary, lower)
        outer = restrict_to_coset(ball, chain_boundary, upper)
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
    if restrict_to_coset(h_ball, gamma, ()) != gamma:
        raise DomainError("gamma must be supported in the kernel subcomplex")
    gamma_len = gamma.length()
    f_value = _f_lookup(f_table, gamma_len)
    M = constants.M

    current = chain
    steps: list[PushdownStep] = []
    initial_area = chain.area()
    k_max = 0
    while True:
        cosets = chain_coset_words(h_ball, current)
        cosets.discard(())
        if not cosets:
            break
        depth = max(len(w) for w in cosets)
        k_max = max(k_max, depth)
        w = min(w for w in cosets if len(w) == depth)
        last = w[-1]
        i = layout.stable_index(last)
        sign = 1 if last > 0 else -1
        w_prime = w[:-1]
        lift = constants.lifts[i]

        t_cells: dict[int, int] = {}
        out_cells: dict[int, int] = {}
        for cell_id, coeff in current.coeffs.items():
            cell_cosets = h_ball.cell_cosets[cell_id]
            if cell_cosets == (w_prime, w):
                t_cells[cell_id] = coeff
            elif cell_cosets == (w,):
                out_cells[cell_id] = coeff
            elif w in cell_cosets:
                raise InvariantError("a second t-cycle touches the maximal coset")
        T = TwoChain(t_cells)
        S_out = TwoChain(out_cells)

        t_boundary = boundary_2(h_ball, T)
        outer = -restrict_to_coset(h_ball, t_boundary, w)
        inner = restrict_to_coset(h_ball, t_boundary, w_prime)
        if outer != boundary_2(h_ball, S_out):
            raise InvariantError("outer filling does not bound the t-cycle's outer boundary")

        gamma_out = chart(h_ball, k_ball, w, outer)
        gamma_in = chart(h_ball, k_ball, w_prime, inner)
        s_out_chart = chart(h_ball, k_ball, w, S_out)

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
        if h_ball.cell_cosets[cell_id] != ((),):
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

    def conj_cells(cycle: OneCycle, lead: Word, i: int, sign: int, way: str) -> dict[int, int]:
        """The conjugation cell of each edge (x, a_j) of the cycle: the one
        with relator (i, j) based at lead * phi_i(x), with the edge's
        coefficient times ``sign``."""
        lift = constants.lifts[i]
        image, _ = lift_placement(k_ball, lift, "forward")
        embed = embed_placement(h_ball, lead, k_ball)
        cells: dict[int, int] = {}
        for edge, coeff in sorted(cycle.coeffs.items()):
            source, g, _ = k_ball.edges[edge]
            kv = image(source)
            hv = None if kv is None else embed(kv)
            if hv is None:  # placed by the normal form, which raises when outside
                hv = h_ball.vertex_of(lead + apply_lift(lift, "forward", k_ball.vertices[source]))
            cell = h_ball.cell_index.get((hv, layout.k_relator_count + i * layout.k_rank + (g - 1)))
            if cell is None:
                raise ResourceError(f"extension ball too small to route the cycle {way}")
            cells[cell] = cells.get(cell, 0) + sign * coeff
        return cells

    def recurse(prefix: Word, cycle_k: OneCycle, rest: Word) -> TwoChain:
        if not rest:
            result = harea_fill(k_ball, cycle_k)
            if result.status != "optimal":
                raise DomainError(f"kernel filling at route end is {result.status}")
            return embed_chain(h_ball, prefix, k_ball, result.chain)
        t = rest[0]
        i = layout.stable_index(t)
        lift = constants.lifts[i]
        if t > 0:
            cells = conj_cells(cycle_k, prefix + (t,), i, 1, "up")
            next_cycle = lift_image_cycle(k_ball, cycle_k, lift, "forward")
            collars = TwoChain()
        else:
            next_cycle = lift_image_cycle(k_ball, cycle_k, lift, "backward")
            cells = conj_cells(next_cycle, prefix, i, -1, "down")
            # bridge gamma with its phi(psi(.)) image inside the current coset
            k_collars = _collars(k_ball, cycle_k, i, constants.collar_phi_psi)
            collars = embed_chain(h_ball, prefix, k_ball, k_collars)
        return TwoChain(cells) + collars + recurse(prefix + (t,), next_cycle, rest[1:])

    chain = recurse((), gamma if isinstance(gamma, OneCycle) else OneCycle(gamma), tuple(route))
    if boundary_2(h_ball, chain) != kernel_cycle_to_extension(h_ball, k_ball, gamma):
        raise InvariantError("routed filling does not bound the input cycle")
    return chain

