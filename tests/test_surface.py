import random
from pathlib import Path

import pytest

from homfill.cayley import TwoChain, boundary_2, build_ball, hop_distances, loop_to_cycle
from homfill.cli import load_group
from homfill.errors import DomainError
from homfill.filling import enumerate_identity_cycles, harea_fill
from homfill.surface import (
    Face,
    SurfaceDiagram,
    assemble_surface,
    boundary_paths,
    diagram_from_json,
    diagram_to_dot,
    diagram_to_json,
    measure,
    project_boundary,
    verify_surface,
)
from homfill.words import parse_word

NI = {"a": 0, "b": 1}


def test_single_cell_disk(z2_ball4):
    diagram = assemble_surface(z2_ball4, TwoChain({0: 1}))
    metrics = measure(diagram)
    assert metrics.area == 1
    assert metrics.radius == 0
    assert metrics.boundary_length == 4
    assert metrics.euler_characteristic == 1
    assert metrics.boundary_path_count == 1
    assert project_boundary(diagram) == boundary_2(z2_ball4, TwoChain({0: 1}))


def test_grid_disk(z2_ball4):
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a a b b a' a' b' b'", NI))
    chain = harea_fill(z2_ball4, gamma).chain
    diagram = assemble_surface(z2_ball4, chain)
    metrics = measure(diagram)
    assert metrics.area == 4
    assert metrics.radius == 1
    assert metrics.boundary_length == 8
    assert metrics.euler_characteristic == 1  # V=9 E=12 F=4
    assert metrics.component_count == 1
    assert metrics.orientable
    assert project_boundary(diagram) == gamma
    (path,) = boundary_paths(diagram)
    assert len(path) == 8
    # exactly one interior vertex
    classes = diagram.index.classes
    assert len(classes) == 9
    assert sum(1 for cls in classes if len(cls) == 4) == 1


def test_doubled_cell_two_disks(z2_ball4):
    diagram = assemble_surface(z2_ball4, TwoChain({0: 2}))
    metrics = measure(diagram)
    assert metrics.area == 2
    assert metrics.component_count == 2
    assert metrics.euler_characteristic == 2
    assert project_boundary(diagram) == boundary_2(z2_ball4, TwoChain({0: 2}))


def test_disjoint_union_additivity(z2_ball4):
    far = z2_ball4.cell_index[(z2_ball4.vertex_of((1, 1)), 0)]
    diagram = assemble_surface(z2_ball4, TwoChain({0: 1, far: 1}))
    metrics = measure(diagram)
    assert metrics.component_count == 2
    assert metrics.euler_characteristic == 2


def test_opposite_cells_cancel_to_sphereless_pair(z2_ball4):
    # sigma + (-sigma translated) share no boundary: orientation-reversed copy
    diagram = assemble_surface(z2_ball4, TwoChain({0: 1, 1: -1}))
    metrics = measure(diagram)
    assert metrics.area == 2
    assert project_boundary(diagram) == boundary_2(z2_ball4, TwoChain({0: 1, 1: -1}))


def test_assemble_rejects_empty(z2_ball4):
    with pytest.raises(DomainError):
        assemble_surface(z2_ball4, TwoChain())


def test_closed_component_radius_none(z3_setup):
    # boundary of a unit cube in the Z^3 complex is a closed 2-cycle
    from itertools import product

    from homfill.cayley import OneCycle

    ball = z3_setup.h_ball

    def cell_at(word, relator):
        return ball.cell_index[(ball.vertex_of(word), relator)]

    # six faces of the unit cube at the origin (relators: 0 = [a,b], 1 and 2
    # the two conjugation squares); find the orientation signs by search
    faces = [
        cell_at((), 0),
        cell_at((3,), 0),
        cell_at((3,), 1),
        cell_at((2, 3), 1),
        cell_at((3,), 2),
        cell_at((1, 3), 2),
    ]
    chain = None
    for signs in product((1, -1), repeat=6):
        candidate = TwoChain(dict(zip(faces, signs)))
        if boundary_2(ball, candidate) == OneCycle():
            chain = candidate
            break
    assert chain is not None, "no orientation of the six cube faces closes up"
    diagram = assemble_surface(ball, chain)
    metrics = measure(diagram)
    assert metrics.boundary_length == 0
    assert metrics.radius is None
    assert metrics.euler_characteristic == 2  # a sphere
    assert metrics.orientable
    assert project_boundary(diagram) == OneCycle()


def test_verify_detects_double_matching(z2_ball4):
    good = assemble_surface(z2_ball4, TwoChain({0: 1, 1: 1}))
    # corrupt: match one slot twice
    if good.gluing:
        a, b, flip = good.gluing[0]
        bad = SurfaceDiagram(good.faces, good.gluing + [(a, (1, 3), flip)], z2_ball4)
        report = verify_surface(bad)
        assert any("matched twice" in v for v in report.violations)


def test_verify_detects_disconnected_link(z2_ball4):
    # two separate faces, vertex classes declaring their corners identified:
    # the link at the merged vertex is two disjoint paths
    diagram = assemble_surface(z2_ball4, TwoChain({0: 1}))
    far = z2_ball4.cell_index[(z2_ball4.vertex_of((1, 1)), 0)]
    two = assemble_surface(z2_ball4, TwoChain({0: 1, far: 1}))
    merged = [tuple(sorted([(0, 0), (1, 0)]))]
    for f in (0, 1):
        for p in range(1, 4):
            merged.append(((f, p),))
    bad = SurfaceDiagram(two.faces, two.gluing, z2_ball4, declared_classes=merged)
    report = verify_surface(bad)
    assert any("not a single path" in v or "free sides" in v for v in report.violations)
    assert diagram  # anchor


def test_verify_detects_label_mismatch(z2_ball4):
    faces = [
        Face(slots=((0, 1), (1, 1))),
        Face(slots=((0, 1), (2, -1))),
    ]
    bad = SurfaceDiagram(faces, [((0, 0), (1, 0), False)], None)
    report = verify_surface(bad)
    assert any("equal signs" in v for v in report.violations)


BIGON = Face(slots=((0, 1), (1, 1)))
# glued to BIGON along both edges it closes up into a sphere whose two
# vertex classes are {(0, 0), (1, 0)} and {(0, 1), (1, 1)}
BIGON_BACK = Face(slots=((1, -1), (0, -1)))
SPHERE = [((0, 0), (1, 1), False), ((0, 1), (1, 0), False)]


def _cell_face(ball, flip_slot=None, length=None):
    """Cell 0 of the ball as a face with provenance, optionally with one
    slot's sign flipped or cut to its first ``length`` slots."""
    slots = list(ball.cells[0].boundary[:length])
    if flip_slot is not None:
        e, s = slots[flip_slot]
        slots[flip_slot] = (e, -s)
    return Face(slots=tuple(slots), provenance=(0, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda ball: SurfaceDiagram([BIGON], [((0, 0), (0, 0), False)]), "slot (0, 0) glued to itself"),
        (
            lambda ball: SurfaceDiagram([BIGON, Face(slots=((2, -1), (1, -1)))], [((0, 0), (1, 0), False)]),
            "glued slots (0, 0),(1, 0) lie over different edges",
        ),
        (
            lambda ball: SurfaceDiagram([BIGON, BIGON_BACK], [((0, 0), (1, 1), True)]),
            "flipped gluing (0, 0),(1, 1) needs equal traversal signs",
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),), ((0, 0), (0, 1))]),
            "corner (0, 0) appears in two vertex classes",
        ),
        # a corner listed twice within one class is caught by the same check
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0), (0, 0)), ((0, 1),)]),
            "corner (0, 0) appears in two vertex classes",
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),)]),
            "corner (0, 1) missing from vertex classes",
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK], SPHERE, declared_classes=[((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
            ),
            "gluing (0, 0),(1, 1) identifies corners (0, 0),(1, 0) across distinct classes",
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),), ((0, 1),), ()]),
            "vertex class 2 is empty",
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK], SPHERE, declared_classes=[((0, 0), (0, 1), (1, 0), (1, 1))]
            ),
            "link of vertex class 0 is not a single cycle",
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK, Face(slots=((2, 1), (3, 1)))],
                SPHERE,
                declared_classes=[((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)), ((2, 1),)],
            ),
            "link of vertex class 0 is not a single path",
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, Face(slots=((2, 1), (3, 1)))], [], declared_classes=[((0, 0), (1, 0)), ((0, 1),), ((1, 1),)]
            ),
            "vertex class 0 has 4 free sides (needs 0 or 2)",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, length=2)], [], ball),
            "face 0 length disagrees with its provenance cell",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, flip_slot=2)], [], ball),
            "face 0 slot 2 disagrees with its provenance cell",
        ),
    ],
    ids=[
        "glued-to-itself",
        "different-edges",
        "flipped-signs",
        "two-classes",
        "corner-twice-in-class",
        "missing-corner",
        "across-classes",
        "empty-class",
        "not-single-cycle",
        "not-single-path",
        "free-sides",
        "provenance-length",
        "provenance-slot",
    ],
)
def test_verify_reports_each_violation(z2_ball4, build, message):
    diagram = build(z2_ball4)
    assert message in verify_surface(diagram).violations
    with pytest.raises(DomainError, match="cannot measure"):
        measure(diagram)
    with pytest.raises(DomainError, match="cannot draw an invalid diagram"):
        diagram_to_dot(diagram)


def test_measure_refuses_invalid(z2_ball4):
    faces = [Face(slots=((0, 1), (1, 1)))]
    bad = SurfaceDiagram(faces, [((0, 0), (0, 0), False)], None)
    with pytest.raises(DomainError, match="cannot measure"):
        measure(bad)


def test_monogon_and_bigon_faces():
    from homfill.backends import TableBackend
    from homfill.cayley import build_ball
    from homfill.presentation import HomPresentation, Presentation

    # Z/2 with relator a^2: bigon cells (boundary traverses two distinct edges)
    pres = HomPresentation.mark_all(Presentation(("a",), ((1, 1),)))
    backend = TableBackend([[1, 0]])
    ball = build_ball(backend, pres, 1)
    assert len(ball.cells) == 2
    diagram = assemble_surface(ball, TwoChain({0: 1, 1: -1}))
    metrics = measure(diagram)
    assert metrics.area == 2
    assert project_boundary(diagram) == boundary_2(ball, TwoChain({0: 1, 1: -1}))


def test_json_roundtrip_and_dot(z2_ball4):
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a a b a' a' b'", NI))
    chain = harea_fill(z2_ball4, gamma).chain
    diagram = assemble_surface(z2_ball4, chain)
    doc = diagram_to_json(diagram, measure(diagram))
    back = diagram_from_json(doc, z2_ball4)
    assert verify_surface(back).ok
    assert measure(back).area == measure(diagram).area
    dot = diagram_to_dot(diagram)
    assert dot.startswith("graph surface {") and "color=red" in dot


def _random_chain(rng, ball, max_cells=6, max_coeff=3):
    coeffs = {}
    for _ in range(rng.randint(1, max_cells)):
        coeffs[rng.randrange(len(ball.cells))] = rng.randint(-max_coeff, max_coeff)
    return TwoChain(coeffs)


def test_randomized_invariants(z2_ball4, f2tri_ball4, z3_setup):
    rng = random.Random(20240809)
    balls = [z2_ball4, f2tri_ball4, z3_setup.h_ball]
    checked = 0
    for ball in balls:
        for _ in range(120):
            chain = _random_chain(rng, ball)
            if not chain:
                continue
            diagram = assemble_surface(ball, chain)
            assert verify_surface(diagram).ok
            metrics = measure(diagram)
            # a decoded copy builds its own index and must measure the same
            assert measure(diagram_from_json(diagram_to_json(diagram), ball)) == metrics
            assert metrics.area == chain.area()
            assert project_boundary(diagram) == boundary_2(ball, chain)
            assert metrics.euler_characteristic <= 2 * metrics.component_count
            # orientable components: chi = 2 - 2g - b with g >= 0
            for chi, b in zip(metrics.component_euler, metrics.component_boundary_paths):
                g2 = 2 - b - chi
                assert g2 >= 0 and g2 % 2 == 0
            # radius-zero criterion
            if metrics.radius == 0:
                boundary_corners = set()
                for f, p in diagram.index.unmatched:
                    boundary_corners.add((f, p))
                    boundary_corners.add((f, (p + 1) % diagram.face_len(f)))
                for cls in diagram.index.classes:
                    assert any(c in boundary_corners for c in cls)
            checked += 1
    assert checked >= 300


def _rescan_gluing(faces):
    """Reference for assemble_surface's gluing rule, as a rescan of every
    placed face per step: glue the least open slot, by (least corner root of
    its vertex, slot), that has a partner; unplaced partner copies first,
    each kind least first; a new component starts at the least unplaced face."""
    placed = [False] * len(faces)
    matched, parent, copies = {}, {}, {}
    for f, face in enumerate(faces):
        for p, slot in enumerate(face.slots):
            copies.setdefault(slot, []).append((f, p))

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    def head(s):
        return (s[0], (s[1] + 1) % len(faces[s[0]].slots))

    def partner(s):
        e, sign = faces[s[0]].slots[s[1]]
        row = copies.get((e, -sign), [])
        unplaced = [c for c in row if not placed[c[0]]]
        return min(unplaced or [c for c in row if placed[c[0]] and c not in matched], default=None)

    for seed in range(len(faces)):
        if placed[seed]:
            continue
        placed[seed] = True
        while True:
            at_vertex = {}
            for f in (f for f in range(len(faces)) if placed[f]):
                for s in ((f, p) for p in range(len(faces[f].slots))):
                    if s not in matched:
                        for corner in (s, head(s)):
                            at_vertex.setdefault(find(corner), set()).add(s)
            gluable = (s for root in sorted(at_vertex) for s in sorted(at_vertex[root]) if partner(s))
            a = next(gluable, None)
            if a is None:
                break
            b = partner(a)
            placed[b[0]] = True
            matched[a], matched[b] = b, a
            for x, y in ((a, head(b)), (head(a), b)):
                rx, ry = find(x), find(y)
                parent[max(rx, ry)] = min(rx, ry)
    return [(a, b, False) for a, b in sorted(matched.items()) if a < b]


GROUP_FILES = sorted((Path(__file__).resolve().parent.parent / "groups").glob("*.grp"))


def _clustered_chain(rng, ball):
    """Cells based within one step of one or two random vertices, with
    coefficients in +-3: dense gluing, multiplicities, and often several
    components."""
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        dist = hop_distances(ball, [rng.randrange(len(ball.vertices))])
        near = [c for c, cell in enumerate(ball.cells) if dist[cell.base] <= 1]
        for _ in range(rng.randint(1, 8) if near else 0):
            coeffs[rng.choice(near)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return TwoChain(coeffs)


@pytest.mark.parametrize("path", GROUP_FILES, ids=lambda p: p.stem)
def test_gluing_matches_the_rescan_rule(path):
    group = load_group(str(path))
    ball = build_ball(group.backend, group.hom_pres, 3)
    if not ball.cells:  # f2: nothing to glue
        with pytest.raises(DomainError):
            assemble_surface(ball, TwoChain())
        return
    rng = random.Random(path.stem)
    chains = [_random_chain(rng, ball, max_cells=10) for _ in range(40)]
    chains += [_clustered_chain(rng, ball) for _ in range(40)]
    cycles = enumerate_identity_cycles(ball, 8)
    for _, cycle, _ in rng.sample(cycles, min(15, len(cycles))):
        fill = harea_fill(ball, cycle).chain
        chains += [fill, fill.scale(2) + _clustered_chain(rng, ball)]
    multi_component = multiple = 0
    for chain in filter(None, chains):
        diagram = assemble_surface(ball, chain)
        assert diagram.gluing == _rescan_gluing(diagram.faces)
        multi_component += measure(diagram).component_count > 1
        multiple += any(abs(c) > 1 for c in chain.coeffs.values())
    assert multi_component and multiple
