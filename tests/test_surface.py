import copy
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.cayley import TwoChain, boundary_2, build_ball, loop_to_cycle
from homfill.cli import load_group
from homfill.errors import DomainError, HomfillError
from homfill.filling import enumerate_identity_cycles, harea_fill
from homfill.surface import (
    Face,
    SurfaceDiagram,
    assemble_surface,
    diagram_from_json,
    diagram_radius,
    diagram_to_dot,
    diagram_to_json,
    measure,
    oriented_face,
    project_boundary,
    verify_surface,
)
from homfill.words import parse_word
from oracles import boundary_paths, contested, hop_distances, link_reference

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


def test_integer_readers_derive_no_views(z2_ball4):
    # measurement, the radius, projection and DOT read the index's integer
    # fields, so none of them derives a (face, position) view
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a a b b a' a' b' b'", NI))
    diagram = assemble_surface(z2_ball4, harea_fill(z2_ball4, gamma).chain)
    assert diagram_radius(diagram) == measure(diagram).radius == 1
    project_boundary(diagram)
    diagram_to_dot(diagram)
    index = diagram.index
    assert not {"unmatched", "classes"} & index.__dict__.keys() and "refs" not in index.slots.__dict__
    assert len(index.unmatched) == 8 and len(index.classes) == 9


def test_doubled_cell_two_disks(z2_ball4):
    diagram = assemble_surface(z2_ball4, TwoChain({0: 2}))
    metrics = measure(diagram)
    assert metrics.area == 2
    assert metrics.component_count == 2
    assert metrics.euler_characteristic == 2
    assert project_boundary(diagram) == boundary_2(z2_ball4, TwoChain({0: 2}))


def test_disjoint_union_additivity(z2_ball4):
    far = z2_ball4.cell_at(z2_ball4.vertex_of((1, 1)), 0)
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


@pytest.mark.parametrize("with_ball", [False, True], ids=["bare", "ball"])
def test_diagram_without_faces_is_invalid(z2_ball4, with_ball):
    # assembly refuses the empty chain, and verification the empty diagram
    diagram = diagram_from_json({"faces": []}, z2_ball4 if with_ball else None)
    assert verify_surface(diagram).violations == ["diagram has no faces"]
    for read in (measure, diagram_radius):
        with pytest.raises(DomainError, match="cannot measure an invalid diagram: diagram has no faces"):
            read(diagram)
    with pytest.raises(DomainError, match="cannot draw an invalid diagram: diagram has no faces"):
        diagram_to_dot(diagram)


def test_closed_component_radius_none(z3_setup):
    # boundary of a unit cube in the Z^3 complex is a closed 2-cycle
    from itertools import product

    from homfill.cayley import OneCycle

    ball = z3_setup.h_ball

    def cell_at(word, relator):
        return ball.cell_at(ball.vertex_of(word), relator)

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


# the class-stage line for declared classes the gluing does not generate
NOT_GENERATED = "declared vertex classes are not the classes the gluing generates"


def test_verify_detects_disconnected_link(z2_ball4):
    # two separate faces, vertex classes declaring their corners identified:
    # the link at the merged vertex would be two disjoint paths, which the
    # gluing does not generate
    far = z2_ball4.cell_at(z2_ball4.vertex_of((1, 1)), 0)
    two = assemble_surface(z2_ball4, TwoChain({0: 1, far: 1}))
    merged = [tuple(sorted([(0, 0), (1, 0)]))]
    for f in (0, 1):
        for p in range(1, 4):
            merged.append(((f, p),))
    bad = SurfaceDiagram(two.faces, two.gluing, z2_ball4, declared_classes=merged)
    assert verify_surface(bad).violations == [NOT_GENERATED]
    # the classes the gluing generates, declared in any order, verify
    shuffled = [tuple(reversed(cls)) for cls in reversed(two.index.classes)]
    assert verify_surface(SurfaceDiagram(two.faces, two.gluing, z2_ball4, declared_classes=shuffled)).ok


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


def _cell_face(ball, flip_slot=None, length=None, orient=1, corners=None):
    """Cell 0 of the ball as a face with provenance, optionally with one
    slot's sign flipped, cut to its first ``length`` slots, with another
    provenance orientation or with the given corner images."""
    slots = list(ball.cells[0].boundary[:length])
    if flip_slot is not None:
        e, s = slots[flip_slot]
        slots[flip_slot] = (e, -s)
    return Face(slots=tuple(slots), provenance=(0, orient), corner_images=corners)


def _bare_cell_face(ball, corners=None, length=None, sign_slot=None):
    """Cell 0 of the ball as a face without provenance, cut to its first
    ``length`` slots, with the given corner images, or with one slot's sign
    set to 2."""
    slots = list(ball.cells[0].boundary[:length])
    if sign_slot is not None:
        slots[sign_slot] = (slots[sign_slot][0], 2)
    return Face(slots=tuple(slots), corner_images=corners)


def _reversed_cell_face(ball, orient):
    """The face that assembly makes of cell 0 with coefficient -1, with its
    provenance orientation replaced."""
    face = assemble_surface(ball, TwoChain({0: -1})).faces[0]
    return Face(slots=face.slots, provenance=(0, orient), corner_images=face.corner_images)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda ball: SurfaceDiagram([Face(slots=())], []), "face 0 has no slots"),
        (lambda ball: SurfaceDiagram([BIGON], [((0, 0), (0, 0), False)]), "slot (0, 0) glued to itself"),
        (
            lambda ball: SurfaceDiagram([BIGON, Face(slots=((2, -1), (1, -1)))], [((0, 0), (1, 0), False)]),
            "glued slots (0, 0),(1, 0) lie over different edges",
        ),
        (
            lambda ball: SurfaceDiagram([BIGON, BIGON_BACK], [((0, 0), (1, 1), True)]),
            "flipped gluing (0, 0),(1, 1) needs equal traversal signs",
        ),
        # declared classes that are not the generated ones: a corner in two
        # classes or twice in one, a missing corner, an identified pair split,
        # an empty class, and links joined into a cycle, a path or a vertex
        # with four free sides
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),), ((0, 0), (0, 1))]),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0), (0, 0)), ((0, 1),)]),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),)]),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK], SPHERE, declared_classes=[((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
            ),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram([BIGON], [], declared_classes=[((0, 0),), ((0, 1),), ()]),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK], SPHERE, declared_classes=[((0, 0), (0, 1), (1, 0), (1, 1))]
            ),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, BIGON_BACK, Face(slots=((2, 1), (3, 1)))],
                SPHERE,
                declared_classes=[((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)), ((2, 1),)],
            ),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram(
                [BIGON, Face(slots=((2, 1), (3, 1)))], [], declared_classes=[((0, 0), (1, 0)), ((0, 1),), ((1, 1),)]
            ),
            NOT_GENERATED,
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, length=2)], [], ball),
            "face 0 length disagrees with its provenance cell",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, flip_slot=2)], [], ball),
            "face 0 slot 2 disagrees with its provenance cell",
        ),
        # provenance orientations other than 1 and -1, on a reversed and a forward face
        (
            lambda ball: SurfaceDiagram([_reversed_cell_face(ball, 0)], [], ball),
            "face 0 provenance orientation must be 1 or -1",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, orient=7)], [], ball),
            "face 0 provenance orientation must be 1 or -1",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, corners=(0, 0, 0, 0))], [], ball),
            "face 0 corner images disagree with its provenance cell",
        ),
        (
            lambda ball: SurfaceDiagram([_cell_face(ball, corners=ball.cell_vertices(0)[:3])], [], ball),
            "face 0 corner images disagree with its provenance cell",
        ),
        (
            lambda ball: SurfaceDiagram(
                [_cell_face(ball, corners=ball.cell_vertices(0)[:3] + (len(ball.vertices),))], [], ball
            ),
            "face 0 corner images disagree with its provenance cell",
        ),
        # a face without provenance is checked against its own slots
        (
            lambda ball: SurfaceDiagram([_bare_cell_face(ball, corners=(0, 0, 0, 0))], [], ball),
            "face 0 corner 1 is not where slot 1 starts",
        ),
        (
            lambda ball: SurfaceDiagram(
                [_bare_cell_face(ball, corners=ball.cell_vertices(0)[1:] + ball.cell_vertices(0)[:1])], [], ball
            ),
            "face 0 corner 0 is not where slot 0 starts",
        ),
        (
            lambda ball: SurfaceDiagram([_bare_cell_face(ball, corners=ball.cell_vertices(0)[:3])], [], ball),
            "face 0 has 3 corner images for 4 slots",
        ),
        (
            lambda ball: SurfaceDiagram([_bare_cell_face(ball, length=3)], [], ball),
            "face 0 slots do not close",
        ),
        (
            lambda ball: SurfaceDiagram([_bare_cell_face(ball, sign_slot=1)], [], ball),
            "face 0 slot 1 sign must be 1 or -1",
        ),
    ],
    ids=[
        "empty-face",
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
        "provenance-orientation-0",
        "provenance-orientation-7",
        "corner-images",
        "corner-images-length",
        "corner-images-outside",
        "bare-zero-corners",
        "bare-rotated-corners",
        "bare-corner-count",
        "bare-open-slots",
        "bare-slot-sign",
    ],
)
def test_verify_reports_each_violation(z2_ball4, build, message):
    diagram = build(z2_ball4)
    assert message in verify_surface(diagram).violations
    with pytest.raises(DomainError, match="cannot measure"):
        measure(diagram)
    with pytest.raises(DomainError, match="cannot measure"):
        diagram_radius(diagram)
    with pytest.raises(DomainError, match="cannot draw an invalid diagram"):
        diagram_to_dot(diagram)


def test_faces_without_provenance_that_follow_their_slots_verify(z2_ball4, f2tri_ball4, z3_setup):
    # every cell of a ball in either orientation, with its provenance
    # dropped, with or without its corner images, verifies against the
    # ball; with its corners rotated by one it does not
    for ball in (z2_ball4, f2tri_ball4, z3_setup.h_ball):
        for cell in range(len(ball.cells)):
            for orient in (1, -1):
                face = oriented_face(ball, cell, orient)
                corners = face.corner_images
                for bare in (Face(face.slots, None, corners), Face(face.slots)):
                    assert verify_surface(SurfaceDiagram([bare], [], ball)).ok
                rotated = Face(face.slots, None, corners[1:] + corners[:1])
                assert not verify_surface(SurfaceDiagram([rotated], [], ball)).ok


def test_measure_refuses_invalid(z2_ball4):
    faces = [Face(slots=((0, 1), (1, 1)))]
    bad = SurfaceDiagram(faces, [((0, 0), (0, 0), False)], None)
    with pytest.raises(DomainError, match="cannot measure"):
        measure(bad)


def test_boundary_paths_need_only_a_matching():
    # an empty face stops verification, but its gluing is a matching
    empty = SurfaceDiagram([Face(slots=())], [])
    assert verify_surface(empty).violations == ["face 0 has no slots"]
    assert boundary_paths(empty) == []
    with pytest.raises(DomainError, match="cannot measure"):
        measure(empty)
    self_glued = SurfaceDiagram([BIGON], [((0, 0), (0, 0), False)])
    with pytest.raises(DomainError, match="not a partial matching"):
        boundary_paths(self_glued)


def test_monogon_and_bigon_faces(tmp_path):
    # Z with b = a and relator a b': a bigon on the edges a, b from each
    # vertex whose a-edge stays in the ball; Z with c = 0 and relator c: a
    # monogon on the loop c at every vertex
    files = {
        "bigon": ("backend: free_abelian\ngenerators: a b\nvector b: 1\nrelator: a b'\n", 2, 2),
        "monogon": ("backend: free_abelian\ngenerators: a c\nvector c: 0\nrelator: c\n", 1, 3),
    }
    for name, (text, sides, cells) in files.items():
        path = tmp_path / f"{name}.grp"
        path.write_text(text)
        group = load_group(str(path))
        ball = build_ball(group.backend, group.hom_pres, 1)
        assert len(ball.cells) == cells
        for cell in ball.cells:
            assert len(cell.boundary) == sides
            assert len({ball.edges[e][0::2] for e, _ in cell.boundary}) == 1  # one endpoint pair
        if name == "monogon":
            ((e, sign),) = ball.cells[0].boundary
            assert sign == 1 and ball.edges[e][0] == ball.edges[e][2]  # a loop edge
        chain = TwoChain({0: 1, 1: -1})
        diagram = assemble_surface(ball, chain)
        assert verify_surface(diagram).ok
        metrics = measure(diagram)
        assert metrics.area == 2
        assert metrics.boundary_length == 2 * sides
        assert project_boundary(diagram) == boundary_2(ball, chain)


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


def _without_provenance(doc, corners=None, first_edge=None):
    """A copy of a diagram document whose face 0 has no provenance, with the
    given corner images, or with its first slot moved to ``first_edge`` and
    every gluing of its slots dropped."""
    faces = [dict(face) for face in doc["faces"]]
    faces[0]["provenance"] = None
    gluing = doc["gluing"]
    if corners is not None:
        faces[0]["corner_images"] = corners
    if first_edge is not None:
        faces[0]["slots"] = [[first_edge, faces[0]["slots"][0][1]], *faces[0]["slots"][1:]]
        gluing = [g for g in gluing if g[0][0] != 0 and g[1][0] != 0]
    return {**doc, "faces": faces, "gluing": gluing}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"corners": [0, 0, 0, 99999]}, "face 0 corner 3 names vertex 99999, which the ball does not have"),
        ({"first_edge": 99999}, "face 0 slot 0 names edge 99999, which the ball does not have"),
    ],
    ids=["corner-image", "slot-edge"],
)
def test_face_without_provenance_stays_in_the_ball(z2_ball5, change, message):
    gamma = loop_to_cycle(z2_ball5, 0, parse_word("a a b b a' a' b' b'", NI))
    doc = diagram_to_json(assemble_surface(z2_ball5, harea_fill(z2_ball5, gamma).chain))
    # the untouched copy still verifies
    assert verify_surface(diagram_from_json(_without_provenance(doc), z2_ball5)).ok
    bad = _without_provenance(doc, **change)
    # without a ball there is nothing to check the face against
    assert verify_surface(diagram_from_json(bad)).ok
    with pytest.raises(DomainError, match=message):
        verify_surface(diagram_from_json(bad, z2_ball5))


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
                    boundary_corners.add((f, (p + 1) % len(diagram.faces[f].slots)))
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


GROUPS = Path(__file__).resolve().parent.parent / "groups"
GROUP_FILES = sorted(GROUPS.glob("*.grp"))

INDEX_FIELDS = ("mate", "flipped", "unmatched", "classes", "class_of", "free_sides")


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
    paths = Counter()
    for chain in filter(None, chains):
        diagram = assemble_surface(ball, chain)
        assert diagram.gluing == _rescan_gluing(diagram.faces)
        # the index built from the assembler's corner partition is the one a
        # decoded copy derives for itself
        fresh = diagram_from_json(diagram_to_json(diagram), ball).index
        built = diagram.index
        assert [getattr(built, name) for name in INDEX_FIELDS] == [getattr(fresh, name) for name in INDEX_FIELDS]
        multi_component += measure(diagram).component_count > 1
        multiple += any(abs(c) > 1 for c in chain.coeffs.values())
        paths[contested(diagram)] += 1
    assert multi_component and multiple
    # both gluing paths run: the forced matching, and the heap loop wherever
    # a label can meet its opposite, which needs two slots over one edge
    slots = [e for cell in ball.cells for e, _ in cell.boundary]
    assert paths[False] and (paths[True] or len(set(slots)) == len(slots)), paths


# the group files with 2-cells, whose diagrams the fuzzer mutates
FUZZ_FILES = ("z2", "z2_redundant", "f2_triangle", "z3_ext", "heis_ext", "z2_by_f2")


def _fuzz_base(ball, diagram):
    return ball, diagram_to_json(diagram), [[list(corner) for corner in cls] for cls in diagram.index.classes]


@lru_cache(maxsize=None)
def _fuzz_bases():
    """The diagrams the fuzzer mutates, as (ball, JSON, derived classes):
    the assembled diagram of the contested loop a a a c' b c' a' b on the
    radius-5 z2_redundant ball, and on the radius-3 ball of every file of
    FUZZ_FILES a seeded one-face diagram and the assembled fill of largest
    area among eight seeded identity loops of length <= 8."""
    group = load_group(str(GROUPS / "z2_redundant.grp"))
    ball = build_ball(group.backend, group.hom_pres, 5)
    gamma = loop_to_cycle(ball, 0, parse_word("a a a c' b c' a' b", group.name_index))
    bases = [_fuzz_base(ball, assemble_surface(ball, harea_fill(ball, gamma).chain))]
    for stem in FUZZ_FILES:
        group = load_group(str(GROUPS / f"{stem}.grp"))
        ball = build_ball(group.backend, group.hom_pres, 3)
        rng = random.Random(stem)
        cell = TwoChain({rng.randrange(len(ball.cells)): rng.choice((1, -1))})
        cycles = [cycle for _, cycle, _ in enumerate_identity_cycles(ball, 8)]
        fills = [harea_fill(ball, cycle).chain for cycle in rng.sample(cycles, 8)]
        fill = max(fills, key=lambda chain: (chain.area(), chain.key()))
        bases += [_fuzz_base(ball, assemble_surface(ball, chain)) for chain in (cell, fill)]
    return bases


# values of the wrong type or shape, for the decoder to refuse
JUNK = st.sampled_from([None, "x", 1.5, True, [], [0], {}])


def _number(lo, hi):
    """Mostly an integer in [lo, hi], sometimes junk."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), JUNK)


def _mutate(data, doc, classes, ball):
    """Apply one drawn mutation to the diagram document or to the declared
    classes, in place."""
    faces, gluing = doc["faces"], doc["gluing"]
    kind = data.draw(
        st.sampled_from(
            ["slot", "corner", "provenance", "glued", "flip", "drop", "truncate", "pop", "add", "merge", "empty"]
        )
    )
    face = faces[data.draw(st.integers(0, len(faces) - 1))]
    if kind == "slot" and face["slots"]:
        p = data.draw(st.integers(0, len(face["slots"]) - 1))
        face["slots"][p] = data.draw(
            st.one_of(st.tuples(_number(-1, len(ball.edges)), _number(-2, 2)).map(list), JUNK)
        )
    elif kind == "corner":
        corners = face["corner_images"]
        if isinstance(corners, list) and corners and data.draw(st.booleans()):
            corners[data.draw(st.integers(0, len(corners) - 1))] = data.draw(_number(-1, len(ball.vertices)))
        else:
            face["corner_images"] = data.draw(st.one_of(JUNK, st.lists(st.integers(-1, 3), max_size=5)))
    elif kind == "provenance":
        face["provenance"] = data.draw(
            st.one_of(st.tuples(_number(-1, len(ball.cells)), _number(-2, 2)).map(list), JUNK)
        )
    elif kind in ("glued", "flip", "drop") and gluing:
        k = data.draw(st.integers(0, len(gluing) - 1))
        if kind == "glued":
            end = data.draw(st.integers(0, 1))
            gluing[k][end] = data.draw(
                st.one_of(st.tuples(_number(-1, len(faces)), _number(-1, 5)).map(list), JUNK)
            )
        elif kind == "flip":
            gluing[k][2] = data.draw(st.one_of(st.just(not gluing[k][2]), JUNK))
        else:
            del gluing[k]
    elif kind == "truncate" and face["slots"]:
        del face["slots"][data.draw(st.integers(0, len(face["slots"]) - 1)) :]
    elif kind == "pop" and classes:
        classes.pop(data.draw(st.integers(0, len(classes) - 1)))
    elif kind == "add" and classes:
        corner = [data.draw(st.integers(-1, len(faces))), data.draw(st.integers(-1, 4))]
        classes[data.draw(st.integers(0, len(classes) - 1))].append(corner)
    elif kind == "merge" and len(classes) > 1:
        i, j = sorted(data.draw(st.lists(st.integers(0, len(classes) - 1), min_size=2, max_size=2, unique=True)))
        classes[i] += classes.pop(j)
    elif kind == "empty":
        classes.insert(data.draw(st.integers(0, len(classes))), [])


def _check_links(index):
    """Where verification got past the class stage, each class has 0 or 2
    free sides, and its link is one path from one free side to the other
    or one cycle, through all its corners."""
    if not index.free_sides:  # stopped before the class stage
        return
    size = Counter(index.class_of)
    for k, (free, walk) in enumerate(zip(index.free_sides, link_reference(index))):
        assert len(free) in (0, 2)
        assert walk == (size[k], free[1] if free else -1)


def _checked(doc, ball):
    """The decoded diagram and its report, or (None, None) when decoding or
    verification raises a HomfillError; check the links of its classes and,
    on a valid diagram, measure, draw and project it.  Any other exception
    escapes."""
    try:
        diagram = diagram_from_json(doc, ball)
        report = verify_surface(diagram)
        _check_links(diagram.index)
        if report.ok:
            measure(diagram)
            diagram_to_dot(diagram)
            project_boundary(diagram)
    except HomfillError:
        return None, None
    return diagram, report


def _partition(classes) -> list:
    return sorted(sorted(map(tuple, cls)) for cls in classes)


def _check_mutated_diagram(data):
    """Mutate one base diagram's JSON and its derived classes, then check
    that only HomfillError escapes decoding, verification and the readers
    of a valid diagram; that wherever verification got past the class
    stage each class has 0 or 2 free sides and its link is one path from
    one free side to the other or one cycle through all its corners; and
    that declared classes verify exactly when the diagram without them does
    and they are its derived classes, in any order."""
    bases = _fuzz_bases()
    ball, base, derived = bases[data.draw(st.integers(0, len(bases) - 1))]
    doc, classes = copy.deepcopy(base), copy.deepcopy(derived)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, doc, classes, ball)
    if data.draw(st.booleans()):  # declared in another order
        classes = [data.draw(st.permutations(cls)) for cls in data.draw(st.permutations(classes))]
    diagram, report = _checked(doc, ball)
    _, claimed_report = _checked({**doc, "vertex_classes": classes}, ball)
    generated = report is not None and report.ok and _partition(classes) == _partition(diagram.index.classes)
    assert (claimed_report is not None and claimed_report.ok) == generated


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_diagrams_fail_cleanly_and_declared_classes_are_a_claim(data):
    _check_mutated_diagram(data)
