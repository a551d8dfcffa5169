"""Golden outputs of the surface and extension layers.

Each section below runs a fixed corpus through one part of the public API and
hashes a canonical JSON record of every result, or of the exception type and
message of every failure.  The hashes pin the exact outputs, so a refactor of
``build_ball``, ``harea_fill``, ``assemble_surface`` or of the extension
layer's vertex placement that changes any ball, filling, diagram, chain,
trace or error message fails here.

Corpus:
  surface:<file>   ``diagram_to_json`` of ``assemble_surface`` on seeded chains
                   (coefficients in +-2) of every groups/*.grp at radius 3;
                   this section, surface-index:<file> and routed:* also
                   check that each assembled diagram's index equals that of
                   its decoded JSON copy, and this section that its corpus
                   holds diagrams of both gluing paths (forced and heap)
                   wherever a label can meet its opposite.
  surface-index:<file>
                   ``verify_surface`` of assembled diagrams of every
                   groups/*.grp at radius 3 and of variants of each: one face
                   re-entered reversed (the same surface, glued with flips),
                   the diagram glued to its mirror image (a closed surface),
                   a dropped, flipped, doubled or cross-edge gluing, a flipped
                   one on a face with the wrong provenance, a slot no face
                   has, and declared classes that are exact or drop,
                   repeat, merge or split corners or add an empty class; for
                   valid ones also ``measure``, the test oracle
                   ``boundary_paths`` (flip-free only), ``diagram_to_dot``,
                   ``project_boundary`` and the index's classes and
                   unmatched slots.
  surface-index:handmade
                   the same records for ball-free diagrams that assembly
                   does not make: closed, non-orientable, self-glued and
                   pinched surfaces and a sign error.
  surface-views:<file>, surface-views:handmade
                   the index's unmatched slots and classes, and whether its
                   gluing is a matching, for every invalid diagram of the
                   surface-index section of that name whose index builds:
                   the values verification stopped with.
  routed:<ctx>     routed fillings of kernel loops of length <= 6 on the
                   push-down benchmark's balls and routes, their assembled
                   diagrams and their push-downs.
  ball:<file>      ``dump_ball``, the neighbour table, the distances and the
                   coset labels of the ball of every groups/*.grp at radii
                   1-5, and of the kernel ball of each extension file at
                   radii 1-5.
  fill:<file>      (word, status, area, chain) of ``harea_fill`` for every
                   identity cycle of length <= 6 of every groups/*.grp at
                   radius 3; the node count is left out.
  fill:<file>:r<R> the same records at radius R: z3_ext at radius 4, the
                   benchmark's FA ball, where no fill peels.
  fill-area:<file>[:r<R>]
                   (word, status, area) of the same fills as the fill:
                   section of that name, so a change that only picks
                   another minimal chain moves fill:* and holds fill-area:*.
  tight:<ctx>:*    ``chart``, ``embed_chain``, ``kernel_cycle_to_extension``,
                   ``lift_image_cycle``, ``route_filling`` and ``push_down`` on
                   a radius-3 extension ball and a radius-3 kernel ball, where
                   many placements leave the ball.
  arpair:<file>:r<R>
                   ``measure_ar_pair`` at radius R with n <= 8: every sample's
                   (word, length, area, radius), the area and radius tables
                   and the gaps; z2 and z2_redundant at radius 5, the balls of
                   the benchmark's presentation comparison.

To regenerate after an intended output change, run this file as a script;
it prints the new hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from homfill import extension
from homfill.cayley import OneCycle, TwoChain, boundary_2, build_ball, dump_ball
from homfill.cli import load_group
from homfill.errors import HomfillError
from homfill.experiments import measure_ar_pair
from homfill.filling import enumerate_identity_cycles, harea_fill
from homfill.presentation import apply_lift
from homfill.surface import (
    Face,
    SurfaceDiagram,
    assemble_surface,
    diagram_from_json,
    diagram_radius,
    diagram_to_dot,
    diagram_to_json,
    measure,
    project_boundary,
    verify_surface,
)
from homfill.words import parse_word
from oracles import boundary_paths, contested, hop_distances, radius_reference

GROUPS = Path(__file__).resolve().parent.parent / "groups"
QUAD_F = [max(n, n * n) for n in range(64)]
# (file, h radius, k radius, lift-image cap, routes), as in the push-down benchmark
ROUTED = {
    "z3": ("z3_ext.grp", 7, 10, 4, ("t1", "t1'", "t1 t1", "t1' t1'", "")),
    "heis": ("heis_ext.grp", 8, 12, 5, ("t1", "t1'")),
}

GOLDEN = {
    "ball:f2": "f017be84ed424ead8104240eb9b8c7ce6c54be660be2c346c7f551166b74f52c",
    "ball:f2_triangle": "f5d50b3ee8cfa093bb299cc218c601872a20fb8bb75e316d1ec17a968fe90c7d",
    "ball:heis_ext": "9904a8cbc52ee5c49ae1fe6ff387c235e6753ab91e304c4f7172b0792295ac51",
    "ball:z2": "7457219ad6dd7427074dbbcc6d019e9641bd12220eaaae884a3935afac304544",
    "ball:z2_by_f2": "e016c791e5ccbc7c0d562fa76f710ae98c6ae501dc37795686950562f04e18dc",
    "ball:z2_redundant": "f3ba02ade81bb6fc6fffac3c54b04b52d21276bacd7b47beb3dce49df08ee3d9",
    "ball:z3_ext": "2a6ecd7e85cc5d5d0fea5f31a9bedac62de25bbbf6673ad1b3399ab7dd2bddd2",
    "fill:f2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fill:f2_triangle": "91610ecb158a83657821e077d779751aa61083e61bd26039c8a886d544abb901",
    "fill:heis_ext": "3b47d6eab54c8f99adde4e3c10f83a2505f7f37cb838c4309b81a2963ed94d4e",
    "fill:z2": "209370444605d5b7c1a3d493ce343636e39cbc422d8fa1b5eb774d6c4fede97f",
    "fill:z2_by_f2": "884b6a4f71ae758514315252c8207ebf07faa2ae10adec666f97ef5442c8a9a8",
    "fill:z2_redundant": "a3c75f806984a23c2b0db4ee57dbdfd27c94bc19414f10cd72200d3bf396ebb8",
    "fill:z3_ext": "74369b982314e47758ceafa39cb0339c256e95c456515fe7e761b48746fd3c16",
    "fill:z3_ext:r4": "23b94413395d403da6c5006f3ecf5df640e3d8386d3d7eab6d251349bdc47837",
    "fill-area:f2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fill-area:f2_triangle": "a5f1a68396f3361a4ae9444004c52c7e5c7b0259ae5676c897e7aa076e5d33d7",
    "fill-area:heis_ext": "ac9636906db5c2da76e45e79735035d5c45294d49578f00ab9529ada3d8b9a1d",
    "fill-area:z2": "2c97f0c14be71450ceb82cb2b4b428cddaaa02153fd19ea25d7a9495dd3956d0",
    "fill-area:z2_by_f2": "8ead365c0035326b62327c843140d531a13e3a9c9801adafecb5684b2631a0a0",
    "fill-area:z2_redundant": "9205528ebad8885054cd708d8b905cbb27532887f358fb4578c41b83fffd9fec",
    "fill-area:z3_ext": "fb122599e76b04099419ed1fccea4da466d2f315192aaff42cefb00cf8d8bb28",
    "fill-area:z3_ext:r4": "fb122599e76b04099419ed1fccea4da466d2f315192aaff42cefb00cf8d8bb28",
    "surface:f2": "8745a6180c5f1fcba11786d658a42ef983101e93d75b47d490ff2679944916cb",
    "surface:f2_triangle": "9b3480017eb1d1bacdb2daa457c6b7e5658e782796139833b287c4b262fdde1b",
    "surface:heis_ext": "c61832fe004f11fcdf48b22ffb799ba782959d543fe336d0c5e917395ad82ecc",
    "surface:z2": "4e89322e626d2d11d26541386bc826d876b6bd10963515711f4df6606baaae71",
    "surface:z2_by_f2": "c17595134e39763b26523919d5c842ef273b14ce2763b0fa65f86eac510b4fc0",
    "surface:z2_redundant": "b8bce1ba67513ff5460f81f2e2460a29f2849f856fd1dfd96d3ef8dcf5894804",
    "surface:z3_ext": "49c1c9758f290d15298854f3904476df029c760ae5df09d60431d519109b2b8f",
    "surface-index:f2": "e0f799e87fad0b26ef055d50b9ca006c5ecd067805e5c339086fb90c059adde0",
    "surface-index:f2_triangle": "f3ac8dd1301b1bd0321410ad1fe3e92d0c08a2a56a365928558ea7614d4b6165",
    "surface-index:handmade": "f1805cc476ac373f2b51a414574b8941472a3a61d9cbf0ce6437e85265060216",
    "surface-index:heis_ext": "be8dcc45adcab534f65297ca231c9bfe812fbde44e1b6aa7603b44f3e3df47af",
    "surface-index:z2": "5b7450ad8e399b1238d8eb407387681acbf2e5a728f18abe75e8fa73bb51a75a",
    "surface-index:z2_by_f2": "5db4195e4e74e2066843f983520aee30c6ba9f5a6d70daf14ad3dfc292b7e9f3",
    "surface-index:z2_redundant": "3ba9122c0778509db2aaaa53cab126c4730caa57323c3702b307b26270029d5d",
    "surface-index:z3_ext": "f70bcd7e57e2928c9c9d38683ba7210df643592853639eab3d2d8684f795b115",
    "surface-views:f2": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "surface-views:f2_triangle": "066dfba05c4fed927876642152df099a6441163d164cddd7571ae62541c3be59",
    "surface-views:handmade": "0ce651b2cec5a1df07bb205f46cf07e98f0b2f5ee1a59ed40fcf9d0c5506f058",
    "surface-views:heis_ext": "068885da155d5c9bdab13fdd1ad006520a37f22f7fd01784703444eedacc3606",
    "surface-views:z2": "0aa7bbdf8d632a7ad567176285f1541adcb0cb06fc0a6eba2be5aebb29cad613",
    "surface-views:z2_by_f2": "b09839bfcd9c9506b010144e947c769994ce74f6f1322693a709e0cd10a46755",
    "surface-views:z2_redundant": "83a3c83c0d29497be5a1d448b7fff8006958c5c1de74697d0a43901090a8815b",
    "surface-views:z3_ext": "d9ec7f0b3c416d4b70c63768ebf8d8f3fe9bbf60543a1cec917ab955bc04ec13",
    "routed:z3": "fedbd6ca556438527b37ea19ff5124bfa330da911c864741ad1e49f638345a45",
    "routed:heis": "655f7c7d009aaf738e7bd09da09a249f64e51160a1a0e080b5abc4a67e78406e",
    "tight:z3:chart": "9ea52fe56f3d5645bbf013c6c4ea5a198a20d31f2df25df2676fee022d70a650",
    "tight:z3:embed": "47f3d9b7ce435c2ead76fa076a85ce9f40ab19741b911e94a1d2875066ba7d8b",
    "tight:z3:lift": "653b4f6306520172e8d1fdbbdcf5e6ea6338f2d9a48e8de99e99ffb573350cc9",
    "tight:z3:route": "31d1f6c737dacca01637644ee9fd283c4f32bff3fc21f274a278d1adf4548bfb",
    "tight:heis:chart": "76936d3c7c0c611f5a6e89a788772cf4cd81c260346037e4f1954dcd263b2d4f",
    "tight:heis:embed": "b9cdacf700674ac63d342233c51ed9d76e5251515504fb74d3d4992ebc447545",
    "tight:heis:lift": "4068341267f900cfeff285966c8a31dad22ec9997af5807682879e107c9021b0",
    "tight:heis:route": "f3a412c8cff6443cfed1b1aa9611e29eb9c5bcfcab41df89be94ef3e26960b0f",
    "arpair:z2:r5": "a2dda3aba66ab43da6c9846f3456cff4087baceabf4bd3fa9434d37622eea44d",
    "arpair:z2_redundant:r5": "ab4a67991352e36d6c2dbc0fc83f31caee8f3c4295fadf5966afb7b065a59749",
}


def _plain(value):
    """A JSON-ready copy: chains and cycles as sorted pairs, dataclasses as
    field dicts."""
    if isinstance(value, (OneCycle, TwoChain)):
        return [list(pair) for pair in value.key()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _attempt(fn, *args):
    """The call's result, or its HomfillError as (type, message)."""
    try:
        return fn(*args), None
    except HomfillError as exc:
        return None, [type(exc).__name__, str(exc)]


def _record(fn, *args):
    result, error = _attempt(fn, *args)
    return {"error": error} if error else {"ok": _plain(result)}


@lru_cache(maxsize=None)
def _group(file: str):
    return load_group(str(GROUPS / file))


@lru_cache(maxsize=None)
def _balls(file: str, h_radius: int, k_radius: int):
    group = _group(file)
    h_ball = build_ball(group.backend, group.hom_pres, h_radius)
    k_ball = build_ball(group.k_backend, group.k_pres, k_radius)
    constants, error = _attempt(
        extension.compute_constants, k_ball, group.layout, group.lifts, group.hom_pres.base.relators
    )
    return group, h_ball, k_ball, constants, error


@lru_cache(maxsize=None)
def _radius_balls(file: str) -> tuple:
    """(name, ball) for the balls of one group file at radii 1-5, then its
    kernel balls when it is an extension."""
    group = _group(file)
    out = [(f"r{r}", build_ball(group.backend, group.hom_pres, r)) for r in range(1, 6)]
    if group.k_backend is not None:
        out += [(f"k{r}", build_ball(group.k_backend, group.k_pres, r)) for r in range(1, 6)]
    return tuple(out)


def _ball(file: str) -> list:
    return [
        [name, dump_ball(ball), _plain(ball.succ), ball.distance, _plain(ball.coset_labels)]
        for name, ball in _radius_balls(file)
    ]


INDEX_FIELDS = ("mate", "flipped", "unmatched", "classes", "class_of", "free_sides")


def _assembled(ball, chain):
    """``assemble_surface``'s diagram, or the error record of its failure.
    The index that assembly built must be the index a decoded copy of the
    diagram builds for itself."""
    diagram, error = _attempt(assemble_surface, ball, chain)
    if diagram is not None:
        built, fresh = diagram.index, diagram_from_json(diagram_to_json(diagram), ball).index
        assert [getattr(built, name) for name in INDEX_FIELDS] == [getattr(fresh, name) for name in INDEX_FIELDS]
        assert built.report.violations == fresh.report.violations == []
    return diagram, error


def _surface_corpus(file: str) -> tuple:
    """(ball, [(chain, diagram, error)]) of the surface:<file> section."""
    group = _group(file)
    ball = build_ball(group.backend, group.hom_pres, 3)
    rng = Random(file)
    corpus = []
    for _ in range(100):
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            if ball.cells:
                coeffs[rng.randrange(len(ball.cells))] = rng.choice((-2, -1, 1, 2))
        chain = TwoChain(coeffs)
        corpus.append((chain, *_assembled(ball, chain)))
    return ball, corpus


def _surface(file: str) -> list:
    ball, corpus = _surface_corpus(file)
    out = [
        {"chain": _plain(chain), "error": error} if error else diagram_to_json(diagram)
        for chain, diagram, error in corpus
    ]
    paths = {contested(diagram) for _, diagram, _ in corpus if diagram is not None}
    # the index comparison in ``_assembled`` sees both gluing paths wherever
    # a label can meet its opposite (two slots over one edge)
    slots = [e for cell in ball.cells for e, _ in cell.boundary]
    assert paths == {False, True} or (paths <= {False} and len(set(slots)) == len(slots)), paths
    return out


@lru_cache(maxsize=None)
def _fills(file: str, radius: int) -> tuple:
    """(ball, [(word, cycle, result)]) of ``harea_fill`` on every identity
    cycle of length <= 6 of one group file's ball."""
    group = _group(file)
    ball = build_ball(group.backend, group.hom_pres, radius)
    return ball, [(word, cycle, harea_fill(ball, cycle)) for _, cycle, word in enumerate_identity_cycles(ball, 6)]


def _fill(file: str, radius: int, chains: bool) -> list:
    return [
        [list(word), result.status, result.area] + ([_plain(result.chain)] if chains else [])
        for word, _, result in _fills(file, radius)[1]
    ]


def _reversed(face: Face) -> Face:
    """The face entered orientation-reversed; its slot p becomes L-1-p."""
    L = len(face.slots)
    return Face(
        slots=tuple((e, -s) for e, s in reversed(face.slots)),
        provenance=(face.provenance[0], -face.provenance[1]),
        corner_images=tuple(face.corner_images[(L - p) % L] for p in range(L)),
    )


def _reoriented(diagram: SurfaceDiagram, f: int) -> SurfaceDiagram:
    """The same surface with face f reversed and each gluing with one slot
    on it flipped."""
    L = len(diagram.faces[f].slots)
    faces = list(diagram.faces)
    faces[f] = _reversed(faces[f])

    def moved(ref):
        return (f, L - 1 - ref[1]) if ref[0] == f else ref

    gluing = [(moved(a), moved(b), flip != ((a[0] == f) != (b[0] == f))) for a, b, flip in diagram.gluing]
    return SurfaceDiagram(faces, gluing, diagram.ball)


def _mirrored(diagram: SurfaceDiagram) -> SurfaceDiagram:
    """The closed surface made of the diagram and its mirror image, glued
    along every boundary slot."""
    n = len(diagram.faces)
    faces = diagram.faces + [_reversed(face) for face in diagram.faces]

    def mirror(ref):
        return (ref[0] + n, len(diagram.faces[ref[0]].slots) - 1 - ref[1])

    gluing = diagram.gluing + [(mirror(a), mirror(b), flip) for a, b, flip in diagram.gluing]
    gluing += [(s, mirror(s), False) for s in diagram.index.unmatched]
    return SurfaceDiagram(faces, gluing, diagram.ball)


def _variants(rng: Random, diagram: SurfaceDiagram) -> list:
    """(name, diagram) pairs derived from one valid assembled diagram."""
    faces, gluing, ball = diagram.faces, diagram.gluing, diagram.ball
    slots = [(f, p) for f, face in enumerate(faces) for p in range(len(face.slots))]
    out = [("assembled", diagram), ("reoriented", _reoriented(diagram, rng.randrange(len(faces))))]
    out.append(("mirrored", _mirrored(diagram)))
    out.append(("outside", SurfaceDiagram(faces, gluing + [((len(faces), 0), (0, 0), False)], ball)))
    if gluing:
        k = rng.randrange(len(gluing))
        a, b, flip = gluing[k]
        rest = gluing[:k] + gluing[k + 1 :]
        out.append(("dropped", SurfaceDiagram(faces, rest, ball)))
        out.append(("flipped", SurfaceDiagram(faces, rest + [(a, b, not flip)], ball)))
        # the sign error stops verification before the provenance checks
        misplaced = list(faces)
        cell, orient = faces[a[0]].provenance
        misplaced[a[0]] = dataclasses.replace(faces[a[0]], provenance=(cell, -orient))
        out.append(("flipped-misplaced", SurfaceDiagram(misplaced, rest + [(a, b, not flip)], ball)))
        out.append(("double", SurfaceDiagram(faces, gluing + [(a, rng.choice(slots), False)], ball)))
        glued = {ref for pair in gluing for ref in pair[:2]}
        edge = diagram.slot(a)[0]
        other = [s for s in slots if diagram.slot(s)[0] != edge]
        free = [s for s in other if s not in glued]
        if other:
            c = rng.choice(free or other)
            out.append(("across", SurfaceDiagram(faces, rest + [(a, c, flip)], ball)))
    classes = [list(cls) for cls in diagram.index.classes]

    def declared(name, cls):
        out.append((name, SurfaceDiagram(faces, gluing, ball, [tuple(c) for c in cls])))

    declared("declared", classes)
    i = rng.randrange(len(classes))
    cls = [list(c) for c in classes]
    cls[i].pop(rng.randrange(len(cls[i])))
    declared("drop", cls)
    cls = [list(c) for c in classes]
    cls[i].append(rng.choice(slots))
    declared("repeat", cls)
    if len(classes) > 1:
        j = rng.choice([j for j in range(len(classes)) if j != i])
        cls = [list(c) for c in classes]
        cls[min(i, j)] = sorted(cls[i] + cls[j])
        del cls[max(i, j)]
        declared("merge", cls)
    big = [j for j, c in enumerate(classes) if len(c) > 1]
    if big:
        j = rng.choice(big)
        cut = rng.randrange(1, len(classes[j]))
        cls = [list(c) for c in classes]
        cls[j:j + 1] = [cls[j][:cut], cls[j][cut:]]
        declared("split", cls)
    cls = [list(c) for c in classes]
    cls.insert(rng.randrange(len(cls) + 1), [])
    declared("empty", cls)
    return out


def _index_record(diagram: SurfaceDiagram) -> dict:
    report, error = _attempt(verify_surface, diagram)
    if error:
        return {"error": error}
    record = {"violations": report.violations}
    if report.ok:
        record["measure"] = _plain(measure(diagram))
        if not any(flip for _, _, flip in diagram.gluing):
            record["paths"] = _plain(boundary_paths(diagram))
        record["dot"] = diagram_to_dot(diagram)
        record["projection"] = _record(project_boundary, diagram)
        record["classes"] = _plain(diagram.index.classes)
        record["unmatched"] = _plain(diagram.index.unmatched)
    return record


BIGON = Face(slots=((0, 1), (1, 1)))
SQUARE = Face(slots=((0, 1), (1, 1), (0, -1), (1, -1)))
# diagrams without a ball that no assembled one is: closed, non-orientable,
# self-glued and pinched surfaces, and sign errors
HANDMADE = {
    "projective-plane": ([Face(slots=((0, 1), (0, 1)))], [((0, 0), (0, 1), True)], None),
    "moebius": ([Face(slots=((0, 1), (1, 1), (0, 1), (2, 1)))], [((0, 0), (0, 2), True)], None),
    "klein": ([Face(slots=((0, 1), (1, 1), (0, 1), (1, -1)))], [((0, 0), (0, 2), True), ((0, 1), (0, 3), False)], None),
    "torus": ([SQUARE], [((0, 0), (0, 2), False), ((0, 1), (0, 3), False)], None),
    "torus-cut": ([SQUARE], [((0, 0), (0, 2), False)], None),
    "folded": ([Face(slots=((0, 1), (0, -1)))], [((0, 0), (0, 1), False)], None),
    "sphere": ([BIGON, Face(slots=((1, -1), (0, -1)))], [((0, 0), (1, 1), False), ((0, 1), (1, 0), False)], None),
    "sphere-flipped": ([BIGON, BIGON], [((0, 0), (1, 0), True), ((0, 1), (1, 1), True)], None),
    "sphere-one-class": (
        [BIGON, Face(slots=((1, -1), (0, -1)))],
        [((0, 0), (1, 1), False), ((0, 1), (1, 0), False)],
        [((0, 0), (0, 1), (1, 0), (1, 1))],
    ),
    "equal-signs": ([BIGON, BIGON], [((0, 0), (1, 0), False)], None),
    "pinched": ([BIGON, Face(slots=((2, 1), (3, 1)))], [], [((0, 0), (1, 0)), ((0, 1),), ((1, 1),)]),
    "three-disks": ([BIGON, SQUARE, BIGON], [], None),
}


def _handmade() -> list:
    """(name, diagram) of every handmade diagram."""
    return [(name, SurfaceDiagram(faces, gluing, declared_classes=declared))
            for name, (faces, gluing, declared) in HANDMADE.items()]


def _surface_index_corpus(file: str) -> list:
    """(chain, error, [(name, variant)]) per chain of the
    surface-index:<file> section; no variants when assembly failed."""
    group = _group(file)
    ball = build_ball(group.backend, group.hom_pres, 3)
    rng = Random("surface-index:" + file)
    out = []
    for k in range(60):
        coeffs = {}
        if ball.cells and k % 3:
            # cells based near one vertex, of one sign on every third chain:
            # dense gluing with interior vertices
            dist = hop_distances(ball, [rng.randrange(len(ball.vertices))])
            near = [c for c, cell in enumerate(ball.cells) if dist[cell.base] <= k % 3] or [0]
            signs = (1, 2) if k % 3 == 2 else (-2, -1, 1, 2)
            for _ in range(rng.randint(1, 10)):
                coeffs[rng.choice(near)] = rng.choice(signs)
        elif ball.cells:
            for _ in range(rng.randint(1, 8)):
                coeffs[rng.randrange(len(ball.cells))] = rng.choice((-2, -1, 1, 2))
        chain = TwoChain(coeffs)
        diagram, error = _assembled(ball, chain)
        out.append((chain, error, [] if error else _variants(rng, diagram)))
    return out


def _surface_index(file: str) -> list:
    if file == "handmade":
        return [[name, _index_record(diagram)] for name, diagram in _handmade()]
    return [
        {"chain": _plain(chain), "error": error} if error else [[name, _index_record(v)] for name, v in variants]
        for chain, error, variants in _surface_index_corpus(file + ".grp")
    ]


def _index_diagrams(rest: str) -> list:
    """(name, diagram) of every diagram of the surface-index:<rest> section."""
    if rest == "handmade":
        return _handmade()
    return [pair for _, _, variants in _surface_index_corpus(rest + ".grp") for pair in variants]


def _views(rest: str) -> list:
    """(name, whether the gluing is a matching, unmatched, classes) of every
    invalid diagram of the surface-index:<rest> section whose index builds."""
    out = []
    for name, diagram in _index_diagrams(rest):
        report, error = _attempt(verify_surface, diagram)
        if not error and not report.ok:
            index = diagram.index
            out.append([name, index.mate is not None, _plain(index.unmatched), _plain(index.classes)])
    return out


def _loops(k_ball, lift, max_len: int, cap: int | None):
    """Identity loops of length <= max_len whose forward lift images (and
    their images) stay within ``cap`` letters, as the benchmark picks them."""
    loops = []
    for _, cycle, word in enumerate_identity_cycles(k_ball, max_len):
        reach = 0
        for edge in cycle.coeffs:
            for v in (k_ball.edges[edge][0], k_ball.edges[edge][2]):
                image = apply_lift(lift, "forward", k_ball.vertices[v])
                reach = max(reach, len(image), len(apply_lift(lift, "forward", image)))
        if cap is None or reach <= cap:
            loops.append((cycle, word))
    return loops


def _routes(group, names) -> list:
    return [parse_word(r, group.name_index) for r in names]


def _push(h_ball, k_ball, constants, cycle, route):
    """The routed filling and its push-down as a record, and the chain."""
    chain, error = _attempt(extension.route_filling, h_ball, k_ball, constants, cycle, route)
    if error:
        return {"route": error}, None
    gamma = extension.kernel_cycle_to_extension(h_ball, k_ball, cycle)
    record = {"route": _plain(chain)}
    record["push_down"] = _record(extension.push_down, h_ball, gamma, chain, constants, QUAD_F, "quadratic")
    return record, chain


def _routed_corpus(ctx: str) -> list:
    """(word, route, record, assembled diagram or None) per routed fill of
    the routed:<ctx> section."""
    file, h_radius, k_radius, cap, names = ROUTED[ctx]
    group, h_ball, k_ball, constants, _ = _balls(file, h_radius, k_radius)
    out = []
    for cycle, word in _loops(k_ball, group.lifts[0], 6, cap):
        for route in _routes(group, names):
            record, chain = _push(h_ball, k_ball, constants, cycle, route)
            diagram = None if chain is None else _assembled(h_ball, chain)[0]
            out.append((word, route, record, diagram))
    return out


def _routed(ctx: str) -> list:
    out = []
    for word, route, record, diagram in _routed_corpus(ctx):
        if diagram is not None:
            record["diagram"] = diagram_to_json(diagram)
        out.append([list(word), list(route), record])
    return out


def _diagrams(name: str) -> list:
    """Every diagram of the surface:*, surface-index:* or routed:* section
    ``name``."""
    kind, _, rest = name.partition(":")
    if kind == "surface":
        return [diagram for _, diagram, _ in _surface_corpus(rest + ".grp")[1] if diagram is not None]
    if kind == "routed":
        return [diagram for *_, diagram in _routed_corpus(rest) if diagram is not None]
    return [diagram for _, diagram in _index_diagrams(rest)]


def _tight(ctx: str, part: str) -> list:
    file, _, _, _, names = ROUTED[ctx]
    group, h_ball, k_ball, constants, error = _balls(file, 3, 3)
    cosets = sorted(set(h_ball.coset_labels), key=lambda w: (len(w), w))
    out = []
    if part == "chart":
        for coset in (c for c in cosets if len(c) <= 2):
            for e in range(len(h_ball.edges)):
                out.append(_record(extension.chart, h_ball, k_ball, coset, OneCycle({e: 1})))
            for c in range(len(h_ball.cells)):
                out.append(_record(extension.chart, h_ball, k_ball, coset, TwoChain({c: 1})))
    elif part == "embed":
        for coset in cosets:
            for c in range(len(k_ball.cells)):
                out.append(_record(extension.embed_chain, h_ball, coset, k_ball, TwoChain({c: 1})))
        for e in range(len(k_ball.edges)):
            out.append(_record(extension.kernel_cycle_to_extension, h_ball, k_ball, OneCycle({e: 1})))
    elif part == "lift":
        for lift in group.lifts:
            for direction in ("forward", "backward"):
                for e in range(len(k_ball.edges)):
                    out.append(_record(extension.lift_image_cycle, k_ball, OneCycle({e: 1}), lift, direction))
    else:
        out.append({"constants": error or _plain(constants.as_json())})
        if constants is not None:
            for cycle, word in _loops(k_ball, group.lifts[0], 6, None):
                for route in _routes(group, names):
                    out.append([list(word), list(route), _push(h_ball, k_ball, constants, cycle, route)[0]])
    return out


def _arpair(file: str, radius: int) -> list:
    group = _group(file)
    report = measure_ar_pair(group.backend, group.hom_pres, 8, radius)
    samples = [[s.word, s.cycle_length, s.area, s.radius] for s in report.samples]
    return [samples, report.f_table, report.g_table, report.gaps]


def _fill_args(rest: str) -> tuple[str, int]:
    """(group file, radius) of a section named <kind>:<rest>, where rest is
    <file> or <file>:r<R>; the radius defaults to 3."""
    file, _, radius = rest.partition(":")
    return file + ".grp", int(radius[1:]) if radius else 3


def _section(name: str) -> list:
    kind, _, rest = name.partition(":")
    if kind == "ball":
        return _ball(rest + ".grp")
    if kind == "surface":
        return _surface(rest + ".grp")
    if kind in ("fill", "fill-area"):
        return _fill(*_fill_args(rest), chains=kind == "fill")
    if kind == "surface-index":
        return _surface_index(rest)
    if kind == "surface-views":
        return _views(rest)
    if kind == "routed":
        return _routed(rest)
    if kind == "arpair":
        return _arpair(*_fill_args(rest))
    ctx, part = rest.split(":")
    return _tight(ctx, part)


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_group_file_is_covered():
    files = {p.stem for p in GROUPS.glob("*.grp")}
    assert files == {name.split(":")[1] for name in GOLDEN if name.startswith("surface:")}
    assert files | {"handmade"} == {name.split(":")[1] for name in GOLDEN if name.startswith("surface-index:")}
    assert files | {"handmade"} == {name.split(":")[1] for name in GOLDEN if name.startswith("surface-views:")}
    assert files == {name.split(":")[1] for name in GOLDEN if name.startswith("ball:")}
    assert files == {name.split(":")[1] for name in GOLDEN if name.startswith("fill:")}
    fills = {name.partition(":")[2] for name in GOLDEN if name.startswith("fill:")}
    assert fills == {name.partition(":")[2] for name in GOLDEN if name.startswith("fill-area:")}


@pytest.mark.parametrize("file", sorted(p.name for p in GROUPS.glob("*.grp")))
def test_ball_distance_is_hop_distance(file):
    for _, ball in _radius_balls(file):
        assert ball.distance == hop_distances(ball, [0])


@pytest.mark.parametrize("rest", sorted(name.partition(":")[2] for name in GOLDEN if name.startswith("fill:")))
def test_golden_fill_chains_bound_their_cycles(rest):
    # the fill:* hashes pin chains, the fill-area:* hashes their areas: each
    # chain bounds its cycle and its L1 norm is the area it reports
    ball, fills = _fills(*_fill_args(rest))
    for word, cycle, result in fills:
        if result.optimal():
            assert boundary_2(ball, result.chain) == cycle, word
            assert sum(map(abs, result.chain.coeffs.values())) == result.area, word


# the messages of the first group of checks, which stops verification
# before the class stage
FIRST_STAGE = ("has no slots", "glued to itself", "matched twice")


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("surface-index:")))
def test_views_keep_the_stage_verification_stopped_at(name):
    # on an invalid diagram, ``unmatched`` is [] exactly when the gluing is
    # not a matching (or glues every slot) and ``classes`` exactly when
    # verification stopped before the class stage; the surface-views:*
    # hashes pin the values
    invalid = 0
    for diagram in _diagrams(name):
        report, error = _attempt(verify_surface, diagram)
        if error or report.ok:
            continue
        index = diagram.index
        assert (index.unmatched == []) == (index.mate is None or -1 not in index.mate)
        stopped = any(part in line for line in report.violations for part in FIRST_STAGE)
        assert (index.classes == []) == stopped
        invalid += 1
    assert invalid or name.endswith(":f2")  # f2 has no cells


@pytest.mark.parametrize(
    "name", sorted(name for name in GOLDEN if name.partition(":")[0] in ("surface", "surface-index", "routed"))
)
def test_diagram_radius_matches_the_reference(name):
    radii = []
    for diagram in _diagrams(name):
        report, error = _attempt(verify_surface, diagram)
        if error or not report.ok:
            continue
        radii.append(diagram_radius(diagram))
        assert radii[-1] == radius_reference(diagram) == measure(diagram).radius
    assert radii or name.endswith(":f2")  # f2 has no cells
    # the closed surfaces, handmade and mirrored, have no radius
    assert (None in radii) == (name.startswith("surface-index:") and not name.endswith(":f2"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    assert _digest(_section(name)) == GOLDEN[name]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{_digest(_section(name))}",')
