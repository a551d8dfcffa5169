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

Those constants are the largest areas in one certificate table,
``TransferConstants.certs``: family -> key -> minimal filling, keyed by the
family names of the constants JSON.  The ``RELATOR_CERTS`` fill the forward,
backward and round-trip images of each (lift, marked relator); the
``COLLAR_CERTS`` fill the two collar loops of each (lift, generator).  C is
the largest forward area, C' the largest backward or round-trip one, C'' the
largest ``collar_psi_phi`` one.

Cosets are read off the ball: ``CayleyBall.cell_cosets`` lists the cosets
each cell touches (one, or the pair a conjugation cell joins), and
``CayleyBall.edge_cosets`` gives the coset an edge lies in, the label both
its endpoints carry (None for an edge between two cosets).  Chains and
cycles move between the extension ball and the kernel ball with
``carry_chain``/``carry_cycle``: ``chart`` translates a coset's piece by
w^-1 into the kernel ball, ``embed_chain`` translates a kernel chain into
K(w).

Pieces are placed through tables (``cayley.Placement``) built on first
use, each of which keeps the edge and cell that every carried edge and cell
went to (``Placement.edges``/``cells``), so carrying a piece again is one
lookup and a vertex is placed, through ``vertex_of``, only when a piece is
first carried:

- per coset w, extension vertex x -> kernel vertex of w^-1 x, for ``chart``;
- per coset w, kernel vertex x -> extension vertex of w x, for
  ``embed_chain`` and ``kernel_cycle_to_extension`` (w = e);
- per lead coset w and lift phi, kernel vertex x -> extension vertex of
  w phi(x), whose ``cells`` keep the conjugation cell of each kernel edge
  for ``route_filling``.

Per lift and direction, ``lift_placement`` keeps each kernel edge's traced
image steps, for ``lift_image_cycle``.  The transfers keep each certificate
translated to f(x) as its list of (cell, coefficient) in
``TransferConstants.translates``, keyed by family, lift, direction,
certificate key and x: a certificate cell based at y goes to the cell with
the same relator based at f(x) y, f being the lift's image (the identity
for collars).  A table keeps only lookups that succeeded: a piece the ball
lacks raises again when asked again.

The lift tables are kept on the kernel ball, the translates on the
constants (which hold only the kernel ball) and the others on the extension
ball, so that a kernel ball shared by several extension balls keeps none of
them alive.

A ball too small for a transfer raises the ``cayley`` lookup's ResourceError
unchanged, and a loop that does not fill inside the kernel ball is one too.
DomainError is for input no larger ball fixes, such as an item charted from
a coset it does not lie in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import ExtensionBackend
from .cayley import (
    CayleyBall,
    OneCycle,
    Placement,
    TwoChain,
    boundary_2,
    carry_chain,
    carry_cycle,
    loop_to_cycle,
    trace_word,
)
from .errors import DomainError, InvariantError, ResourceError
from .filling import harea_fill
from .presentation import AutLift, ExtensionLayout, apply_lift
from .surface import SurfaceDiagram, _valid
from .words import Word, format_word, inverse_word


# certificate families by their constants-JSON names: the forward, backward
# and round-trip images of a relator, the loops a psi(phi(a))^-1, a phi(psi(a))^-1
RELATOR_CERTS = ("phi_relator", "psi_relator", "psi_phi_relator")
COLLAR_CERTS = ("collar_psi_phi", "collar_phi_psi")


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
    # certificate family (RELATOR_CERTS, COLLAR_CERTS) -> (lift, marked
    # relator) or (lift, generator) -> its certificate
    certs: dict[str, dict[tuple[int, int], Certificate]]
    # (family, lift, direction) -> (certificate key, x) -> the certificate's
    # (cell, coefficient) pairs translated to x (see ``_transfer``), kept on
    # first use
    translates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def as_json(self) -> dict:
        names, stable = self.k_ball.generators, self.layout.stable_names
        return {
            "C": self.C,
            "C_prime": self.C_prime,
            "C_double_prime": self.C_double_prime,
            "rho": self.rho,
            "M": self.M,
            "k_ball_radius": self.k_ball.radius,
            "certificates": {
                family: {
                    f"{stable[i]}/{key}": {"loop": format_word(cert.loop_word, names) or "e", "area": cert.area}
                    for (i, key), cert in sorted(certs.items())
                }
                for family, certs in self.certs.items()
            },
        }


def _certificate(k_ball: CayleyBall, loop_word: Word, what: str) -> Certificate:
    try:
        cycle = loop_to_cycle(k_ball, 0, loop_word)
    except ResourceError as exc:
        raise ResourceError(f"certificate loop for {what}: {exc}") from exc
    result = harea_fill(k_ball, cycle)
    if result.status != "optimal":
        raise ResourceError(
            f"certificate loop for {what} is {result.status} in the radius-{k_ball.radius} kernel ball"
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
    certs: dict[str, dict] = {family: {} for family in RELATOR_CERTS + COLLAR_CERTS}
    for i, lift in enumerate(lifts):
        for ri, rel in marked:
            phi_r = apply_lift(lift, "forward", rel)
            loops = (phi_r, apply_lift(lift, "backward", rel), apply_lift(lift, "backward", phi_r))
            for family, loop, what in zip(RELATOR_CERTS, loops, ("forward", "backward", "round-trip")):
                certs[family][(i, ri)] = _certificate(k_ball, loop, f"{what} image of relator {ri}")
        for j in range(layout.k_rank):
            a = (j + 1,)
            psi_phi_a = apply_lift(lift, "backward", apply_lift(lift, "forward", a))
            phi_psi_a = apply_lift(lift, "forward", apply_lift(lift, "backward", a))
            loops = (a + inverse_word(psi_phi_a), a + inverse_word(phi_psi_a))
            for family, loop, what in zip(COLLAR_CERTS, loops, ("collar", "reverse collar")):
                certs[family][(i, j)] = _certificate(k_ball, loop, f"{what} of generator {j + 1}")

    def largest(families, default):
        return max((c.area for family in families for c in certs[family].values()), default=default)

    C = largest(["phi_relator"], 1)
    C_prime = largest(["psi_relator", "psi_phi_relator"], 1)
    C_dbl = largest(["collar_psi_phi"], 0)
    rho = max((len(r) for r in ext_relators), default=1)
    M = max(C, C_prime, C_dbl * (2 * rho + 1), 1)
    return TransferConstants(C, C_prime, C_dbl, rho, M, k_ball, layout, lifts, certs)


def lift_placement(k_ball: CayleyBall, lift: AutLift, direction: str) -> list:
    """Where the lift sends each kernel-ball edge: its traced image steps,
    None until first traced, kept on the ball."""
    key = ("lift", lift, direction)
    steps = k_ball.placements.get(key)
    if steps is None:
        steps = k_ball.placements[key] = [None] * len(k_ball.edges)
    return steps


def lift_image_cycle(k_ball: CayleyBall, cycle: OneCycle, lift: AutLift, direction: str) -> OneCycle:
    """Image of a 1-cycle under a lift: each vertex x maps to its image word,
    each edge to the traced image path of its label."""
    traced = lift_placement(k_ball, lift, direction)
    acc: dict[int, int] = {}
    for edge, coeff in cycle.coeffs.items():
        steps = traced[edge]
        if steps is None:
            source, g, _ = k_ball.edges[edge]
            base = k_ball.vertex_of(apply_lift(lift, direction, k_ball.vertices[source]))
            steps = traced[edge] = trace_word(k_ball, base, lift.images[direction][g])[0]
        for e, s in steps:
            acc[e] = acc.get(e, 0) + coeff * s
    return OneCycle(acc)


def _kept(owner: CayleyBall, key, dst: CayleyBall, word) -> Placement:
    """The placement in dst by ``word``, kept on ``owner`` under ``key`` and
    built on first use."""
    place = owner.placements.get(key)
    if place is None:
        place = owner.placements[key] = Placement(dst, word)
    return place


def _transfer(
    constants: TransferConstants, family: str, items, lift: AutLift | None, direction: str | None
) -> TwoChain:
    """The sum of coeff * ``constants.certs[family][key]`` over the (x, key,
    coeff) items, each certificate translated to f(x), f being the lift's
    ``direction`` image, or the identity when ``lift`` is None: its cell
    based at y goes to the cell with the same relator based at f(x) y.
    Each translate is kept in ``constants.translates`` once all its cells
    are found."""
    k_ball, certs = constants.k_ball, constants.certs[family]
    vertices = k_ball.vertices
    kept = constants.translates.setdefault((family, lift, direction), {})
    out: dict[int, int] = {}
    get = out.get
    for x, key, coeff in items:
        translate = kept.get((key, x))
        if translate is None:
            fx = vertices[x] if lift is None else apply_lift(lift, direction, vertices[x])
            translate = []
            for cell_id, c in certs[key].chain.coeffs.items():
                cell = k_ball.cells[cell_id]
                base = k_ball.vertex_of(fx + vertices[cell.base])
                translate.append((k_ball.cell_at(base, cell.relator), c))
            kept[key, x] = translate
        for target, c in translate:
            total = get(target, 0) + coeff * c
            if total:
                out[target] = total
            else:
                del out[target]
    return TwoChain(out)


def _substitute(constants: TransferConstants, family: str, chain: TwoChain, lift: AutLift, direction: str) -> TwoChain:
    """Replace each cell of the chain with its certificate in ``family``,
    translated to the ``direction`` image of the cell's base vertex."""
    i, cells = lift.stable_letter_index, constants.k_ball.cells
    items = ((cells[c].base, (i, cells[c].relator), coeff) for c, coeff in sorted(chain.coeffs.items()))
    return _transfer(constants, family, items, lift, direction)


def _collars(constants: TransferConstants, family: str, cycle: OneCycle, i: int) -> TwoChain:
    """One collar certificate of ``family`` per edge of the cycle,
    translated to the edge's source vertex."""
    edges = constants.k_ball.edges
    items = ((edges[e][0], (i, edges[e][1] - 1), coeff) for e, coeff in sorted(cycle.coeffs.items()))
    return _transfer(constants, family, items, None, None)


def push_forward_filling(
    k_ball: CayleyBall,
    chain: TwoChain,
    lift: AutLift,
    constants: TransferConstants,
) -> TwoChain:
    """Filling of the forward image of the chain's boundary, by replacing
    each cell with its fixed forward certificate translated to the image of
    the cell's base vertex.  Area grows by at most the factor C."""
    out = _substitute(constants, "phi_relator", chain, lift, "forward")
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
    out = _substitute(constants, "psi_relator", c_prime, lift, "backward")
    out = out + _collars(constants, "collar_psi_phi", gamma, lift.stable_letter_index)
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
    cosets = ball.edge_cosets
    return OneCycle({e: c for e, c in cycle.coeffs.items() if cosets[e] == coset})


def chart_placement(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word) -> Placement:
    """Where ``chart`` sends each extension-ball vertex x: the kernel part
    of coset^-1 x."""
    backend = _require_extension(h_ball)
    inv = inverse_word(coset)

    def word(x: int) -> Word:
        return backend.split(inv + h_ball.vertices[x]).k_part

    return _kept(h_ball, ("chart", k_ball, tuple(coset)), k_ball, word)


def embed_placement(h_ball: CayleyBall, coset: Word, k_ball: CayleyBall) -> Placement:
    """Where ``embed_chain`` sends each kernel-ball vertex x: coset x."""
    coset = tuple(coset)

    def word(x: int) -> Word:
        return coset + k_ball.vertices[x]

    return _kept(h_ball, ("embed", k_ball, coset), h_ball, word)


def conj_placement(h_ball: CayleyBall, lead: Word, k_ball: CayleyBall, lift: AutLift) -> Placement:
    """Where ``route_filling`` bases the conjugation cell of a kernel-ball
    edge from x: lead phi(x), with phi the lift's forward image.  The
    placement carries no chain, so its ``cells`` table keeps the
    conjugation cell of each kernel edge instead, once found."""
    lead = tuple(lead)

    def word(x: int) -> Word:
        return lead + apply_lift(lift, "forward", k_ball.vertices[x])

    return _kept(h_ball, ("conj", k_ball, lead, lift), h_ball, word)


def chart(h_ball: CayleyBall, k_ball: CayleyBall, coset: Word, item):
    """Carry a chain or cycle lying in the K(coset) subcomplex to the kernel
    ball via left translation by coset^-1; DomainError when an edge or cell
    of the item lies outside K(coset), which no larger ball fixes."""
    coset = tuple(coset)
    if isinstance(item, OneCycle):
        what, carry, cosets = "cycle", carry_cycle, h_ball.edge_cosets
        inside = all(cosets[e] == coset for e in item.coeffs)
    else:
        what, carry = "chain", carry_chain
        inside = all(h_ball.cell_cosets[c] == (coset,) for c in item.coeffs)
    if not inside:
        name = format_word(coset, h_ball.generators) or "e"
        raise DomainError(f"the {what} to chart leaves the coset K({name})")
    return carry(h_ball, k_ball, item, chart_placement(h_ball, k_ball, coset))


def embed_chain(h_ball: CayleyBall, coset: Word, k_ball: CayleyBall, chain: TwoChain) -> TwoChain:
    """Left-translate a kernel-ball chain into the K(coset) subcomplex."""
    return carry_chain(k_ball, h_ball, chain, embed_placement(h_ball, coset, k_ball))


def kernel_cycle_to_extension(h_ball: CayleyBall, k_ball: CayleyBall, gamma: OneCycle) -> OneCycle:
    """Embed a kernel-ball cycle into the extension ball's kernel subcomplex."""
    return carry_cycle(k_ball, h_ball, gamma, embed_placement(h_ball, (), k_ball))


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
    join.  The diagram must be valid and each face must have provenance;
    the boundary of the diagram's chain (the sum of its faces' provenance)
    must have no stable-letter edge.

    Both boundaries of every group are closed.  Only the faces of one coset
    pair touch the t-edges between its two cosets, and the chain's boundary
    has none, so each group's boundary has none either: it is its inner
    plus its outer cycle, which lie in two cosets with no common vertex,
    and as a boundary it is closed.  On an assembled diagram the chain's
    boundary is ``project_boundary``'s."""
    ball = diagram.ball
    if ball is None:
        raise DomainError("t-cycle detection needs ball provenance")
    _require_extension(ball)
    _valid(diagram, "detect t-cycles on")
    if any(face.provenance is None for face in diagram.faces):
        raise DomainError("t-cycle detection needs face provenance")
    for edge in boundary_2(ball, TwoChain([face.provenance for face in diagram.faces])).coeffs:
        if ball.edges[edge][1] > layout.k_rank:
            raise DomainError("diagram boundary contains stable-letter edges; t-cycles undefined")
    groups: dict[tuple[int, Word, int, Word], list[int]] = {}
    for f, face in enumerate(diagram.faces):
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


def _f_lookup(f_table: list[int], n: int) -> int:
    if n >= len(f_table):
        raise DomainError(f"f table does not cover n = {n}")
    return f_table[n]


def push_down(
    h_ball: CayleyBall,
    gamma: OneCycle,
    chain: TwoChain,
    constants: TransferConstants,
    f_table: list[int],
    f_source: str = "f_table",
) -> PushdownTrace:
    """Eliminate cosets from deepest to shallowest until the filling lives in
    the kernel subcomplex, exchanging each maximal coset's filling plus its
    t-cycle for a filling of the inner boundary.

    Deterministic order: among maximal-length coset words, lexicographically
    smallest first.  Every step and the final chain are audited against the
    affine bounds with the aggregate constant M.

    Each step checks only the cells it changes.  The input check makes the
    chain bound gamma, and while it does: w has the greatest length among
    the chain's cosets, so the only cells touching K(w) are the t-cycle T,
    whose cosets are (w', w), and the outer filling S_out, inside K(w); and
    T is the only piece with t-edges between K(w') and K(w), which gamma,
    in the kernel subcomplex, does not have.  So T's t-edges cancel and
    dT = inner - outer, and as gamma has no edge in K(w), dS_out = outer:
    dT + dS_out = inner.  The step replaces T + S_out by s_in, so it keeps
    the boundary exactly when ds_in = inner.  The loop stops only when no
    cell touches a coset other than the kernel's, so the final chain lies
    in the kernel subcomplex."""
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

        # one pass splits the chain into the t-cycle T, the outer filling
        # S_out and the rest, which the step keeps
        t_cells: dict[int, int] = {}
        out_cells: dict[int, int] = {}
        rest: dict[int, int] = {}
        t_pair, w_only = (w_prime, w), (w,)
        for cell_id, coeff in current.coeffs.items():
            cell_cosets = h_ball.cell_cosets[cell_id]
            if cell_cosets == t_pair:
                t_cells[cell_id] = coeff
            elif cell_cosets == w_only:
                out_cells[cell_id] = coeff
            else:
                rest[cell_id] = coeff
        T = TwoChain(t_cells)
        S_out = TwoChain(out_cells)

        t_boundary = boundary_2(h_ball, T)
        outer = -restrict_to_coset(h_ball, t_boundary, w)
        inner = restrict_to_coset(h_ball, t_boundary, w_prime)

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
        if boundary_2(h_ball, s_in) != inner:
            raise InvariantError("push-down step changed the boundary")
        new_chain = TwoChain(rest) + s_in

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


def verify_theorem_bound(trace: PushdownTrace, f_table: list[int], g_value: int) -> BoundReport:
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

    def conj_cells(cycle: OneCycle, lead: Word, i: int, sign: int) -> dict[int, int]:
        """The conjugation cell of each edge (x, a_j) of the cycle: the one
        with relator (i, j) based at lead * phi_i(x), with the edge's
        coefficient times ``sign``."""
        place = conj_placement(h_ball, lead, k_ball, constants.lifts[i])
        kept = place.cells
        cells: dict[int, int] = {}
        for edge, coeff in sorted(cycle.coeffs.items()):
            cell = kept.get(edge)
            if cell is None:
                source, g, _ = k_ball.edges[edge]
                cell = kept[edge] = h_ball.cell_at(place.vertex(source), layout.conj_relator(i, g - 1))
            cells[cell] = cells.get(cell, 0) + sign * coeff
        return cells

    def recurse(prefix: Word, cycle_k: OneCycle, rest: Word) -> TwoChain:
        if not rest:
            result = harea_fill(k_ball, cycle_k)
            if result.status != "optimal":
                raise ResourceError(
                    f"kernel filling at route end is {result.status} in the radius-{k_ball.radius} kernel ball"
                )
            return embed_chain(h_ball, prefix, k_ball, result.chain)
        t = rest[0]
        i = layout.stable_index(t)
        lift = constants.lifts[i]
        if t > 0:
            cells = conj_cells(cycle_k, prefix + (t,), i, 1)
            next_cycle = lift_image_cycle(k_ball, cycle_k, lift, "forward")
            collars = TwoChain()
        else:
            next_cycle = lift_image_cycle(k_ball, cycle_k, lift, "backward")
            cells = conj_cells(next_cycle, prefix, i, -1)
            # bridge gamma with its phi(psi(.)) image inside the current coset
            k_collars = _collars(constants, "collar_phi_psi", cycle_k, i)
            collars = embed_chain(h_ball, prefix, k_ball, k_collars)
        return TwoChain(cells) + collars + recurse(prefix + (t,), next_cycle, rest[1:])

    chain = recurse((), gamma, tuple(route))
    if boundary_2(h_ball, chain) != kernel_cycle_to_extension(h_ball, k_ball, gamma):
        raise InvariantError("routed filling does not bound the input cycle")
    return chain

