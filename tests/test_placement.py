"""The extension layer's placement tables against the normal-form placements
they memoise.

Every chart, embed, lift, conjugation and certificate entry must equal the
normal-form placement, None exactly where that leaves the destination ball;
the balls are small enough that many placements leave.  An entry takes one
normal form, on first read, and ``Placement.vertex`` raises ``vertex_of``'s
error where the entry is None, so a push-down repeated on the same balls
takes no normal form at all.  Placements also keep each edge and cell they
carried and the transfers each certificate translate, so that push-down
asks no ball for an edge or cell either; a lookup that failed is never
kept.  The tables are kept on the extension ball, except the lift and
certificate tables, so a kernel ball shared by several extension balls
keeps none alive.
"""

import gc
import re
import weakref
from pathlib import Path

import pytest

from homfill.cayley import (
    CayleyBall,
    OneCycle,
    Placement,
    TwoChain,
    build_ball,
    carry_chain,
    carry_cycle,
    loop_to_cycle,
    trace_word,
)
from homfill.cli import load_group
from homfill.errors import ResourceError
from homfill.extension import (
    _substitute,
    cert_placement,
    chart,
    chart_placement,
    compute_constants,
    conj_placement,
    embed_chain,
    embed_placement,
    kernel_cycle_to_extension,
    lift_image_cycle,
    lift_placement,
    push_down,
    route_filling,
)
from homfill.filling import enumerate_identity_cycles, harea_fill
from homfill.presentation import apply_lift
from homfill.surface import assemble_surface, oriented_face, verify_surface
from homfill.words import format_word, inverse_word, parse_word

GROUPS = Path(__file__).resolve().parent.parent / "groups"
CASES = ("z3_ext", "heis_ext", "z2_by_f2")


def _balls(name, h_radius, k_radius):
    group = load_group(str(GROUPS / f"{name}.grp"))
    h_ball = build_ball(group.backend, group.hom_pres, h_radius)
    return group, h_ball, build_ball(group.k_backend, group.k_pres, k_radius)


@pytest.fixture(scope="module", params=CASES)
def balls(request):
    """A fresh extension ball and kernel ball, so no table is built yet."""
    return (request.param, *_balls(request.param, 4, 3))


def _normal_form_place(ball, word):
    return ball.vertex_index.get(ball.backend.normal_form(word))


def _check(placement, expected):
    """Every entry agrees with the normal form, and ``vertex`` raises the
    destination's outside-ball message exactly where it is None; returns
    the number of entries outside."""
    assert [placement(x) for x in range(len(expected))] == expected
    dst = placement.dst
    for x, v in enumerate(expected):
        if v is not None:
            assert placement.vertex(x) == v
            continue
        nf = dst.backend.normal_form(placement.word(x))
        message = (
            f"vertex {format_word(nf, dst.generators)} is outside the radius-{dst.radius} ball"
            f" over {' '.join(dst.generators)}; radius {len(nf)} holds it"
        )
        with pytest.raises(ResourceError, match="^" + re.escape(message) + "$"):
            placement.vertex(x)
    return expected.count(None)


def test_chart_tables(balls):
    _, group, h_ball, k_ball = balls
    cosets = sorted({w for w in h_ball.coset_labels if len(w) <= 2})
    assert len(cosets) > 1
    outside = 0
    for coset in cosets:
        inv = inverse_word(coset)
        expected = [
            _normal_form_place(k_ball, group.backend.split(inv + word).k_part) for word in h_ball.vertices
        ]
        outside += _check(chart_placement(h_ball, k_ball, coset), expected)
    assert outside


def test_embed_tables(balls):
    _, _, h_ball, k_ball = balls
    outside = 0
    for coset in sorted(set(h_ball.coset_labels)):
        expected = [_normal_form_place(h_ball, coset + word) for word in k_ball.vertices]
        outside += _check(embed_placement(h_ball, coset, k_ball), expected)
    assert outside


def test_lift_tables(balls):
    _, group, _, k_ball = balls
    for lift in group.lifts:
        for direction in ("forward", "backward"):
            expected = [_normal_form_place(k_ball, apply_lift(lift, direction, w)) for w in k_ball.vertices]
            placement, traced = lift_placement(k_ball, lift, direction)
            _check(placement, expected)
            for edge, (source, g, _) in enumerate(k_ball.edges):
                try:
                    base = k_ball.vertex_of(apply_lift(lift, direction, k_ball.vertices[source]))
                    want = trace_word(k_ball, base, getattr(lift, direction)[g - 1])[0]
                except ResourceError as exc:
                    with pytest.raises(ResourceError, match="^" + re.escape(str(exc)) + "$"):
                        lift_image_cycle(k_ball, OneCycle({edge: 1}), lift, direction)
                    assert traced[edge] is None
                    continue
                assert lift_image_cycle(k_ball, OneCycle({edge: 1}), lift, direction) == OneCycle(want)
                assert traced[edge] == want


def test_cert_tables(balls):
    """A certificate cell based at y goes to f(x) y: the lift's image in
    either direction, or x itself for a collar (no lift)."""
    _, group, _, k_ball = balls
    bases = [y for y, d in enumerate(k_ball.distance) if d <= 1]
    outside = 0
    for lift, direction in [(None, None)] + [(lift, d) for lift in group.lifts for d in ("forward", "backward")]:
        for y in bases:
            tail = k_ball.vertices[y]
            expected = [
                _normal_form_place(k_ball, (w if lift is None else apply_lift(lift, direction, w)) + tail)
                for w in k_ball.vertices
            ]
            place = cert_placement(k_ball, lift, direction, y)
            outside += _check(place, expected)
            assert cert_placement(k_ball, lift, direction, y) is place
    assert outside


def test_conj_tables_are_embed_after_lift(balls):
    """The conjugation placement x -> lead phi(x) is the normal form's, and
    the embedding of the lift's image wherever both of those are inside."""
    _, group, h_ball, k_ball = balls
    both = outside = 0
    for lead in sorted({w for w in h_ball.coset_labels if len(w) <= 2}):
        for lift in group.lifts:
            expected = [
                _normal_form_place(h_ball, lead + apply_lift(lift, "forward", w)) for w in k_ball.vertices
            ]
            place = conj_placement(h_ball, lead, k_ball, lift)
            outside += _check(place, expected)
            image, _ = lift_placement(k_ball, lift, "forward")
            embed = embed_placement(h_ball, lead, k_ball)
            for x in range(len(k_ball.vertices)):
                kv = image(x)
                hv = None if kv is None else embed(kv)
                if hv is not None:
                    assert place(x) == hv
                    both += 1
    assert both and outside


class _Counted:
    """Stands in for a placement's destination ball and counts the normal
    forms the placement asks of its backend."""

    def __init__(self, ball):
        self.vertex_index = ball.vertex_index
        self.backend = self
        self.normal_forms = 0
        self._normal_form = ball.backend.normal_form

    def normal_form(self, word):
        self.normal_forms += 1
        return self._normal_form(word)


@pytest.mark.parametrize("name", CASES)
def test_each_entry_takes_one_normal_form(name):
    """Reading every entry of fresh tables twice takes one normal form per
    entry."""
    group, h_ball, k_ball = _balls(name, 3, 2)
    coset = next(w for w in h_ball.coset_labels if w)
    lift = group.lifts[0]
    tables = [
        chart_placement(h_ball, k_ball, coset),
        embed_placement(h_ball, coset, k_ball),
        conj_placement(h_ball, coset, k_ball, lift),
        lift_placement(k_ball, lift, "backward")[0],
        cert_placement(k_ball, lift, "forward", 1),
        cert_placement(k_ball, None, None, 1),
    ]
    for table in tables:
        table.dst = counted = _Counted(table.dst)
        entries = len(table.table)
        for _ in range(2):
            for x in range(entries):
                table(x)
        assert counted.normal_forms == entries


@pytest.mark.parametrize("route, direction", [("t1", "backward"), ("t1'", "forward")])
def test_repeated_pushdown_takes_no_normal_form(route, direction, monkeypatch):
    """Routing and pushing down the same loop a second time reads every
    placement, certificate cells included, from the kept tables: the kernel
    backend (which the extension backend's normal form also calls) is asked
    for no normal form, the second push-down asks neither ball for an edge
    (``step``) or a cell (``cell_at``), and the second routing, conjugation
    cells included, asks for no cell and no placed vertex
    (``Placement.vertex``) either."""
    group = load_group(str(GROUPS / "heis_ext.grp"))
    k_ball = build_ball(group.k_backend, group.k_pres, 6)
    h_ball = build_ball(group.backend, group.hom_pres, 5)
    constants = compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    names = {g: i for i, g in enumerate(group.k_pres.generators)}
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", names))
    route = parse_word(route, group.name_index)
    quadratic = [max(n, n * n) for n in range(64)]
    asked = []
    normal_form = k_ball.backend.normal_form
    monkeypatch.setattr(k_ball.backend, "normal_form", lambda w: asked.append(w) or normal_form(w))
    lookups = {"step": 0, "cell_at": 0, "vertex": 0}
    for name in lookups:
        owner = Placement if name == "vertex" else CayleyBall

        def counted(obj, *args, _name=name, _lookup=getattr(owner, name)):
            lookups[_name] += 1
            return _lookup(obj, *args)

        monkeypatch.setattr(owner, name, counted)
    counts, route_lookups, pushdown_lookups = [], [], []
    for _ in range(2):
        before = len(asked)
        looked_up = dict(lookups)
        chain = route_filling(h_ball, k_ball, constants, gamma, route)
        route_lookups.append({name: lookups[name] - looked_up[name] for name in lookups})
        gamma_h = kernel_cycle_to_extension(h_ball, k_ball, gamma)
        looked_up = dict(lookups)
        trace = push_down(h_ball, gamma_h, chain, constants, quadratic)
        pushdown_lookups.append({name: lookups[name] - looked_up[name] for name in lookups})
        assert [s.direction for s in trace.steps] == [direction]
        assert trace.all_steps_ok and trace.final_bound_ok
        counts.append(len(asked) - before)
    assert counts[0] > 0
    assert counts[1] == 0
    # the second routing and push-down read every vertex, edge, cell and
    # certificate translate from the kept tables: no ball lookup at all
    assert route_lookups[0]["vertex"] and route_lookups[0]["cell_at"]
    assert route_lookups[1] == {"step": 0, "cell_at": 0, "vertex": 0}
    assert pushdown_lookups[0]["step"] and pushdown_lookups[0]["cell_at"]
    assert pushdown_lookups[1] == {"step": 0, "cell_at": 0, "vertex": 0}


def _raises_alike(carry) -> bool:
    """Whether ``carry()`` raises a ResourceError; if it does, a second call
    raises the same one."""
    try:
        carry()
    except ResourceError as exc:
        with pytest.raises(ResourceError, match="^" + re.escape(str(exc)) + "$"):
            carry()
        return True
    return False


def test_missing_pieces_are_never_kept():
    """Carrying an edge or cell that the destination ball lacks, routing a
    loop whose conjugation cell it lacks, or transferring a certificate
    whose translate leaves the kernel ball, raises the same ResourceError
    each time, and no table keeps it; every piece that carries is kept."""
    group, h_ball, k_ball = _balls("heis_ext", 3, 5)
    place = embed_placement(h_ball, (), k_ball)
    stepped = 0
    for edge, (source, _, _) in enumerate(k_ball.edges):
        failed = _raises_alike(lambda: carry_cycle(k_ball, h_ball, OneCycle({edge: 1}), place))
        assert (edge in place.edges) is not failed
        # a placed source whose edge leaves the ball fails in ``step``
        stepped += failed and place(source) is not None
    based = 0
    for cell, c in enumerate(k_ball.cells):
        failed = _raises_alike(lambda: carry_chain(k_ball, h_ball, TwoChain({cell: 1}), place))
        assert (cell in place.cells) is not failed
        based += failed and place(c.base) is not None
    assert stepped and based

    constants = compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    # routing up t1 looks up the conjugation cells first, each based at
    # t1 phi(x) for a vertex x of the loop
    t1 = group.hom_pres.generators.index("t1") + 1
    i = group.layout.stable_index(t1)
    lift = group.lifts[i]
    missing = set()
    for _, cycle, _word in enumerate_identity_cycles(k_ball, 6):
        try:
            route_filling(h_ball, k_ball, constants, cycle, (t1,))
        except ResourceError as exc:
            if str(exc).startswith("cell of relator"):
                assert _raises_alike(lambda: route_filling(h_ball, k_ball, constants, cycle, (t1,)))
                missing.add(str(exc))
    place = conj_placement(h_ball, (t1,), k_ball, lift)
    for edge, cell in place.cells.items():
        source, g, _ = k_ball.edges[edge]
        assert cell == h_ball.cell_at(place(source), group.layout.conj_relator(i, g - 1))
    assert missing and place.cells

    kept = failed_cells = 0
    for cell, c in enumerate(k_ball.cells):
        failed = _raises_alike(lambda: _substitute(constants, "phi_relator", TwoChain({cell: 1}), lift, "forward"))
        translates = constants.translates[("phi_relator", lift, "forward")]
        assert (((0, c.relator), c.base) in translates) is not failed
        kept += not failed
        failed_cells += failed
    assert kept and failed_cells


def test_tables_keep_no_extension_ball_alive():
    """Two extension balls share one kernel ball; after charting, embedding,
    routing and assembling surface diagrams on both, dropping one and its
    diagrams frees it."""
    group = load_group(str(GROUPS / "heis_ext.grp"))
    k_ball = build_ball(group.k_backend, group.k_pres, 6)
    constants = compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    names = group.k_pres.generators
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", {g: i for i, g in enumerate(names)}))
    filling = harea_fill(k_ball, gamma).chain
    t = group.hom_pres.generators.index("t1") + 1
    refs = []
    for radius in (4, 5):
        h_ball = build_ball(group.backend, group.hom_pres, radius)
        assert chart(h_ball, k_ball, (), kernel_cycle_to_extension(h_ball, k_ball, gamma)) == gamma
        assert chart(h_ball, k_ball, (t,), embed_chain(h_ball, (t,), k_ball, filling)) == filling
        chain = route_filling(h_ball, k_ball, constants, gamma, (t,))
        assert h_ball.placements
        # two diagrams on one ball share the face of each (cell, orientation)
        diagrams = [assemble_surface(h_ball, c) for c in (chain, chain.scale(2), chain.scale(-1))]
        for diagram in diagrams:
            assert verify_surface(diagram).ok
            for face in diagram.faces:
                assert face is oriented_face(h_ball, *face.provenance)
        assert {id(face) for face in diagrams[0].faces} == {id(face) for face in diagrams[1].faces}
        assert not {id(face) for face in diagrams[0].faces} & {id(face) for face in diagrams[2].faces}
        refs.append(weakref.ref(h_ball))
        del h_ball, diagrams
    assert k_ball.placements
    keep = refs[1]()
    gc.collect()
    assert refs[0]() is None
    assert keep is not None and keep.placements
