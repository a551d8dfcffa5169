"""The extension layer's placement tables against the normal-form placements
they stand for.

Every chart, embed, lift, conjugation and certificate placement must equal
the normal-form placement, and raise ``vertex_of``'s error exactly where
that leaves the destination ball; the balls are small enough that many
placements leave.  Placements keep each edge and cell they carried and the
transfers each certificate translate, so that a push-down repeated on the
same balls takes no normal form and asks no ball for an edge or cell; a
lookup that failed is never kept.  The tables are kept on the extension
ball, except the lift tables and the translates, so a kernel ball shared by
several extension balls keeps none alive.
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
    _collars,
    _substitute,
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


def _outside(ball, word) -> str:
    """The exact ResourceError message of ``vertex_of`` for a word outside
    the ball, as a pattern."""
    nf = ball.backend.normal_form(word)
    message = (
        f"vertex {format_word(nf, ball.generators)} is outside the radius-{ball.radius} ball"
        f" over {' '.join(ball.generators)}; radius {len(nf)} holds it"
    )
    return "^" + re.escape(message) + "$"


def _check(placement, expected):
    """``vertex`` agrees with the normal form, and raises the destination's
    outside-ball message exactly where that is None; returns the number of
    entries outside."""
    dst = placement.dst
    for x, v in enumerate(expected):
        if v is not None:
            assert placement.vertex(x) == v
            continue
        with pytest.raises(ResourceError, match=_outside(dst, placement.word(x))):
            placement.vertex(x)
    return expected.count(None)


def _inside(placement, x) -> bool:
    """Whether ``placement`` places x inside its destination ball."""
    try:
        placement.vertex(x)
    except ResourceError:
        return False
    return True


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
    """An edge from x goes to the traced image of its label from the normal
    form's place of x's image, and raises ``vertex_of``'s error where that
    is outside the ball; only traced edges are kept."""
    name, group, _, k_ball = balls
    outside = 0
    for lift in group.lifts:
        for direction in ("forward", "backward"):
            expected = [_normal_form_place(k_ball, apply_lift(lift, direction, w)) for w in k_ball.vertices]
            traced = lift_placement(k_ball, lift, direction)
            for edge, (source, g, _) in enumerate(k_ball.edges):
                cycle = OneCycle({edge: 1})
                base = expected[source]
                if base is None:
                    image = apply_lift(lift, direction, k_ball.vertices[source])
                    with pytest.raises(ResourceError, match=_outside(k_ball, image)):
                        lift_image_cycle(k_ball, cycle, lift, direction)
                    assert traced[edge] is None
                    outside += 1
                    continue
                try:
                    want = trace_word(k_ball, base, getattr(lift, direction)[g - 1])[0]
                except ResourceError as exc:
                    with pytest.raises(ResourceError, match="^" + re.escape(str(exc)) + "$"):
                        lift_image_cycle(k_ball, cycle, lift, direction)
                    assert traced[edge] is None
                    continue
                assert lift_image_cycle(k_ball, cycle, lift, direction) == OneCycle(want)
                assert traced[edge] == want
            assert lift_placement(k_ball, lift, direction) is traced
    # only heis_ext's lift moves vertices; the others are the identity
    assert outside or name != "heis_ext"


def _expected_translate(k_ball, cert, fx):
    """The certificate translated to f(x) = fx by normal forms: each cell
    based at y as the cell with its relator based at f(x) y, or None when
    some such vertex or cell is outside the ball."""
    translate = []
    width = len(k_ball.hom_pres.base.relators)
    for cell_id, c in cert.chain.coeffs.items():
        cell = k_ball.cells[cell_id]
        base = _normal_form_place(k_ball, fx + k_ball.vertices[cell.base])
        target = -1 if base is None else k_ball.cell_ids[base * width + cell.relator]
        if target < 0:
            return None
        translate.append((target, c))
    return translate


def test_cert_tables(balls):
    """A certificate cell based at y goes to the cell with its relator based
    at f(x) y: the lift's image in either direction for a relator
    substitution, x itself for a collar.  Each translate that lies inside
    the kernel ball is kept in ``constants.translates``; one that leaves it
    raises and is not kept."""
    name, group, _, k_ball = balls
    constants = compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    cells, edges, vertices = k_ball.cells, k_ball.edges, k_ball.vertices
    inside = outside = 0
    for i, lift in enumerate(group.lifts):
        runs = [
            (family, lift, direction, (i, cell.relator), cell.base, TwoChain({c: 1}))
            for family, direction in (("phi_relator", "forward"), ("psi_relator", "backward"))
            for c, cell in enumerate(cells)
        ]
        runs += [
            ("collar_psi_phi", None, None, (i, g - 1), source, OneCycle({e: 1}))
            for e, (source, g, _) in enumerate(edges)
        ]
        for family, f, direction, key, x, item in runs:
            fx = vertices[x] if f is None else apply_lift(f, direction, vertices[x])
            expected = _expected_translate(k_ball, constants.certs[family][key], fx)
            try:
                if f is None:
                    _collars(constants, family, item, i)
                else:
                    _substitute(constants, family, item, f, direction)
            except ResourceError:
                assert expected is None
                assert (key, x) not in constants.translates.get((family, f, direction), {})
                outside += 1
                continue
            assert constants.translates[(family, f, direction)][(key, x)] == expected
            inside += 1
    # under an identity lift every translate of a cell the ball has stays
    # inside it; heis_ext's lift moves vertices
    assert inside and (outside or name != "heis_ext")


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
            embed = embed_placement(h_ball, lead, k_ball)
            for x, w in enumerate(k_ball.vertices):
                kv = _normal_form_place(k_ball, apply_lift(lift, "forward", w))
                if kv is not None and _inside(embed, kv):
                    assert place.vertex(x) == embed.vertex(kv)
                    both += 1
    assert both and outside


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
        stepped += failed and _inside(place, source)
    based = 0
    for cell, c in enumerate(k_ball.cells):
        failed = _raises_alike(lambda: carry_chain(k_ball, h_ball, TwoChain({cell: 1}), place))
        assert (cell in place.cells) is not failed
        based += failed and _inside(place, c.base)
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
        assert cell == h_ball.cell_at(place.vertex(source), group.layout.conj_relator(i, g - 1))
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
