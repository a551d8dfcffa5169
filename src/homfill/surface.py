"""Surface diagrams: punctured-surface 2-complexes assembled from 2-chains,
their verification, and the area/radius/Euler measurements.

A diagram is a multiset of oriented polygon faces (one per unit of chain
coefficient, negative units entering orientation-reversed) plus a partial
matching on boundary slots.  Local vertices are equivalence classes of face
corners generated by the endpoint identifications of glued slots, and the
link condition -- every class is a single corner fan, open or closed -- is
what makes the complex a surface with boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cayley import CayleyBall, OneCycle, TwoChain
from .errors import DomainError, InvariantError, ParseError

SlotRef = tuple[int, int]  # (face index, slot position)


@dataclass(frozen=True)
class Face:
    slots: tuple[tuple[int, int], ...]  # (image edge, traversal sign) per slot
    provenance: tuple[int, int] | None = None  # (cell index, orientation)
    corner_images: tuple[int, ...] | None = None  # ball vertex per corner


@dataclass
class SurfaceDiagram:
    faces: list[Face]
    gluing: list[tuple[SlotRef, SlotRef, bool]]  # (slot, slot, flipped?)
    ball: CayleyBall | None = None
    declared_classes: list[tuple[SlotRef, ...]] | None = None

    def slot(self, ref: SlotRef) -> tuple[int, int]:
        f, p = ref
        return self.faces[f].slots[p]

    def face_len(self, f: int) -> int:
        return len(self.faces[f].slots)

    def has_slot(self, ref: SlotRef) -> bool:
        f, p = ref
        return 0 <= f < len(self.faces) and 0 <= p < len(self.faces[f].slots)

    def all_slots(self):
        for f, face in enumerate(self.faces):
            for p in range(len(face.slots)):
                yield (f, p)

    def matching_dict(self) -> dict[SlotRef, tuple[SlotRef, bool]]:
        out: dict[SlotRef, tuple[SlotRef, bool]] = {}
        for a, b, flip in self.gluing:
            if a in out or b in out or a == b:
                raise DomainError("gluing is not a partial matching; run verify_surface")
            out[a] = (b, flip)
            out[b] = (a, flip)
        return out

    def unmatched_slots(self) -> list[SlotRef]:
        matched = set()
        for a, b, _ in self.gluing:
            matched.add(a)
            matched.add(b)
        return [s for s in self.all_slots() if s not in matched]

    def corner_classes(self) -> list[tuple[SlotRef, ...]]:
        """Local vertices: declared classes if any, else the classes generated
        by the gluing's endpoint identifications."""
        if self.declared_classes is not None:
            return self.declared_classes
        parent: dict[SlotRef, SlotRef] = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for f in range(len(self.faces)):
            for p in range(self.face_len(f)):
                find((f, p))
        for a, b, flip in self.gluing:
            fa, pa = a
            fb, pb = b
            head_a = (fa, (pa + 1) % self.face_len(fa))
            head_b = (fb, (pb + 1) % self.face_len(fb))
            if not flip:
                union(a, head_b)
                union(head_a, b)
            else:
                union(a, b)
                union(head_a, head_b)
        groups: dict[SlotRef, list[SlotRef]] = {}
        for f in range(len(self.faces)):
            for p in range(self.face_len(f)):
                groups.setdefault(find((f, p)), []).append((f, p))
        return [tuple(sorted(g)) for g in sorted(groups.values())]


@dataclass
class VerificationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)


@dataclass
class SurfaceMetrics:
    area: int
    radius: int | None  # None when some vertex sits in a closed component
    boundary_length: int
    component_count: int
    euler_characteristic: int
    boundary_path_count: int
    orientable: bool
    component_euler: list[int] = field(default_factory=list)
    component_boundary_paths: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# side-level machinery: each corner (f, p) owns the tail side of slot (f, p)
# and the head side of slot (f, p-1); the link of a local vertex is the graph
# those sides trace through the glued pairs.


def _corner_of_side(diagram: SurfaceDiagram, side) -> SlotRef:
    (f, p), end = side
    if end == "tail":
        return (f, p)
    return (f, (p + 1) % diagram.face_len(f))


def _other_side_of_corner(diagram: SurfaceDiagram, corner: SlotRef, side):
    f, p = corner
    tail_side = ((f, p), "tail")
    head_side = ((f, (p - 1) % diagram.face_len(f)), "head")
    return head_side if side == tail_side else tail_side


def _side_partner(matching, side):
    slot, end = side
    if slot not in matching:
        return None
    other, flip = matching[slot]
    if flip:
        return (other, end)
    return (other, "head" if end == "tail" else "tail")


def verify_surface(diagram: SurfaceDiagram) -> VerificationReport:
    """Check the surface-diagram invariants; violations become report lines.
    A gluing or vertex class naming a slot the faces do not have, or a
    provenance cell the ball does not have, raises DomainError."""
    named = [ref for a, b, _ in diagram.gluing for ref in (a, b)]
    for cls in diagram.declared_classes or ():
        named.extend(cls)
    for ref in named:
        if not diagram.has_slot(ref):
            raise DomainError(f"diagram names slot {ref}, which no face has")
    report = VerificationReport()
    counts: dict[SlotRef, int] = {}
    for a, b, flip in diagram.gluing:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
        if a == b:
            report.add(f"slot {a} glued to itself")
    for s, k in counts.items():
        if k > 1:
            report.add(f"slot {s} matched twice")
    if not report.ok:
        return report

    for a, b, flip in diagram.gluing:
        ea, sa = diagram.slot(a)
        eb, sb = diagram.slot(b)
        if ea != eb:
            report.add(f"glued slots {a},{b} lie over different edges")
        elif not flip and sa != -sb:
            report.add(f"glued slots {a},{b} traverse their edge with equal signs")
        elif flip and sa != sb:
            report.add(f"flipped gluing {a},{b} needs equal traversal signs")
    matching = diagram.matching_dict()

    classes = diagram.corner_classes()
    class_of: dict[SlotRef, int] = {}
    for i, cls in enumerate(classes):
        for corner in cls:
            if corner in class_of:
                report.add(f"corner {corner} appears in two vertex classes")
            class_of[corner] = i
    for f in range(len(diagram.faces)):
        for p in range(diagram.face_len(f)):
            if (f, p) not in class_of:
                report.add(f"corner {(f, p)} missing from vertex classes")
    if not report.ok:
        return report

    # identified endpoints must land in the same class
    for a, b, flip in diagram.gluing:
        fa, pa = a
        fb, pb = b
        head_a = (fa, (pa + 1) % diagram.face_len(fa))
        head_b = (fb, (pb + 1) % diagram.face_len(fb))
        pairs = [(a, b), (head_a, head_b)] if flip else [(a, head_b), (head_a, b)]
        for x, y in pairs:
            if class_of[x] != class_of[y]:
                report.add(f"gluing {a},{b} identifies corners {x},{y} across distinct classes")
    if not report.ok:
        return report

    # link condition: the sides of each class form one open fan or one cycle
    for i, cls in enumerate(classes):
        sides = []
        for corner in cls:
            f, p = corner
            sides.append(((f, p), "tail"))
            sides.append(((f, (p - 1) % diagram.face_len(f)), "head"))
        side_set = set(sides)
        if len(side_set) != len(sides):
            report.add(f"vertex class {i} lists a corner twice")
            continue
        free = [s for s in side_set if _side_partner(matching, s) is None]
        for s in side_set:
            partner = _side_partner(matching, s)
            if partner is not None and partner not in side_set:
                report.add(f"vertex class {i} has a glued side leaving the class")
                break
        else:
            def walk(start):
                seen_corners = set()
                side = start
                while True:
                    corner = _corner_of_side(diagram, side)
                    if corner in seen_corners:
                        return seen_corners, None
                    seen_corners.add(corner)
                    other = _other_side_of_corner(diagram, corner, side)
                    partner = _side_partner(matching, other)
                    if partner is None:
                        return seen_corners, other
                    side = partner

            if len(free) == 0:
                start = min(side_set)
                seen, end = walk(start)
                if len(seen) != len(cls):
                    report.add(f"link of vertex class {i} is not a single cycle")
            elif len(free) == 2:
                seen, end = walk(min(free))
                if end != max(free) or len(seen) != len(cls):
                    report.add(f"link of vertex class {i} is not a single path")
            else:
                report.add(f"vertex class {i} has {len(free)} free sides (needs 0 or 2)")

    # provenance consistency
    if diagram.ball is not None:
        for f, face in enumerate(diagram.faces):
            if face.provenance is None:
                continue
            cell_id, orient = face.provenance
            if not 0 <= cell_id < len(diagram.ball.cells):
                raise DomainError(f"face {f} names cell {cell_id}, which the ball does not have")
            cell = diagram.ball.cells[cell_id]
            L = len(cell.boundary)
            if len(face.slots) != L:
                report.add(f"face {f} length disagrees with its provenance cell")
                continue
            for p in range(L):
                if orient > 0:
                    expect = cell.boundary[p]
                else:
                    e, s = cell.boundary[L - 1 - p]
                    expect = (e, -s)
                if face.slots[p] != expect:
                    report.add(f"face {f} slot {p} disagrees with its provenance cell")
                    break
    return report


def _boundary_side_pairing(diagram: SurfaceDiagram, matching, classes):
    """Pair up the free sides around each boundary vertex (fan endpoints)."""
    pairing = {}
    for cls in classes:
        side_set = set()
        for corner in cls:
            f, p = corner
            side_set.add(((f, p), "tail"))
            side_set.add(((f, (p - 1) % diagram.face_len(f)), "head"))
        free = sorted(s for s in side_set if _side_partner(matching, s) is None)
        if not free:
            continue
        start = free[0]
        side = start
        while True:
            corner = _corner_of_side(diagram, side)
            other = _other_side_of_corner(diagram, corner, side)
            partner = _side_partner(matching, other)
            if partner is None:
                pairing[start] = other
                pairing[other] = start
                break
            side = partner
    return pairing


def boundary_paths(diagram: SurfaceDiagram) -> list[list[SlotRef]]:
    """Cyclically ordered unmatched slots per boundary component (orientation
    follows the faces; only meaningful for flip-free diagrams, which is all
    assembled ones)."""
    matching = diagram.matching_dict()
    unmatched = [s for s in diagram.all_slots() if s not in matching]
    remaining = set(unmatched)
    paths = []
    while remaining:
        start = min(remaining)
        path = []
        s = start
        while True:
            path.append(s)
            remaining.discard(s)
            f, p = s
            nxt = (f, (p + 1) % diagram.face_len(f))
            guard = 0
            while nxt in matching:
                other, flip = matching[nxt]
                if flip:
                    raise DomainError("ordered boundary paths need a flip-free diagram")
                g, q = other
                nxt = (g, (q + 1) % diagram.face_len(g))
                guard += 1
                if guard > 4 * sum(diagram.face_len(f) for f in range(len(diagram.faces))):
                    raise InvariantError("boundary walk does not terminate")
            if nxt == start:
                break
            s = nxt
        paths.append(path)
    return paths


def _components(diagram: SurfaceDiagram, matching) -> list[int]:
    comp = list(range(len(diagram.faces)))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, (b, _flip) in matching.items():
        ra, rb = find(a[0]), find(b[0])
        if ra != rb:
            comp[max(ra, rb)] = min(ra, rb)
    return [find(f) for f in range(len(diagram.faces))]


def measure(diagram: SurfaceDiagram) -> SurfaceMetrics:
    """Area, radius, boundary length, components, Euler characteristic."""
    report = verify_surface(diagram)
    if not report.ok:
        raise DomainError("cannot measure an invalid diagram: " + "; ".join(report.violations))
    matching = diagram.matching_dict()
    classes = diagram.corner_classes()
    class_of = {}
    for i, cls in enumerate(classes):
        for corner in cls:
            class_of[corner] = i

    nfaces = len(diagram.faces)
    if nfaces == 0:
        return SurfaceMetrics(0, 0, 0, 0, 0, 0, True)

    unmatched = [s for s in diagram.all_slots() if s not in matching]
    edge_count = len(matching) // 2 + len(unmatched)

    comp_root = _components(diagram, matching)
    comp_ids = sorted(set(comp_root))
    comp_pos = {r: k for k, r in enumerate(comp_ids)}

    # 1-skeleton on vertex classes
    skeleton: dict[int, set[int]] = {i: set() for i in range(len(classes))}

    def endpoints(slot: SlotRef) -> tuple[int, int]:
        f, p = slot
        tail = class_of[(f, p)]
        head = class_of[(f, (p + 1) % diagram.face_len(f))]
        return tail, head

    seen_pairs = set()
    for a, (b, _flip) in matching.items():
        if (b, a) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        t, h = endpoints(a)
        skeleton[t].add(h)
        skeleton[h].add(t)
    boundary_classes = set()
    for s in unmatched:
        t, h = endpoints(s)
        skeleton[t].add(h)
        skeleton[h].add(t)
        boundary_classes.add(t)
        boundary_classes.add(h)

    inf = None
    dist = {i: inf for i in range(len(classes))}
    frontier = sorted(boundary_classes)
    for v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        d += 1
        new = []
        for v in frontier:
            for u in skeleton[v]:
                if dist[u] is None:
                    dist[u] = d
                    new.append(u)
        frontier = new
    if any(v is None for v in dist.values()):
        radius = None
    else:
        radius = max(dist.values(), default=0)

    comp_vertices = [0] * len(comp_ids)
    comp_edges = [0] * len(comp_ids)
    comp_faces = [0] * len(comp_ids)
    comp_paths = [0] * len(comp_ids)
    for i, cls in enumerate(classes):
        comp_vertices[comp_pos[comp_root[cls[0][0]]]] += 1
    seen_pairs = set()
    for a, (b, _flip) in matching.items():
        if (b, a) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        comp_edges[comp_pos[comp_root[a[0]]]] += 1
    for s in unmatched:
        comp_edges[comp_pos[comp_root[s[0]]]] += 1
    for f in range(nfaces):
        comp_faces[comp_pos[comp_root[f]]] += 1

    pairing = _boundary_side_pairing(diagram, matching, classes)
    # boundary components: unmatched slots linked through fan-endpoint pairs
    slot_root: dict[SlotRef, SlotRef] = {s: s for s in unmatched}

    def sfind(x):
        while slot_root[x] != x:
            slot_root[x] = slot_root[slot_root[x]]
            x = slot_root[x]
        return x

    for side, other in pairing.items():
        a = side[0]
        b = other[0]
        ra, rb = sfind(a), sfind(b)
        if ra != rb:
            slot_root[max(ra, rb)] = min(ra, rb)
    path_roots: dict[SlotRef, int] = {}
    for s in unmatched:
        path_roots[sfind(s)] = path_roots.get(sfind(s), 0) + 1
    for root in path_roots:
        comp_paths[comp_pos[comp_root[root[0]]]] += 1

    # orientability: faces 2-colorable with flips reversing relative orientation
    orient = [0] * nfaces
    orientable = True
    for f in range(nfaces):
        if orient[f]:
            continue
        orient[f] = 1
        stack = [f]
        while stack:
            g = stack.pop()
            for p in range(diagram.face_len(g)):
                entry = matching.get((g, p))
                if entry is None:
                    continue
                (h, _q), flip = entry
                want = orient[g] * (-1 if flip else 1)
                if orient[h] == 0:
                    orient[h] = want
                    stack.append(h)
                elif orient[h] != want:
                    orientable = False

    total_chi = len(classes) - edge_count + nfaces
    comp_chi = [comp_vertices[k] - comp_edges[k] + comp_faces[k] for k in range(len(comp_ids))]
    return SurfaceMetrics(
        area=nfaces,
        radius=radius,
        boundary_length=len(unmatched),
        component_count=len(comp_ids),
        euler_characteristic=total_chi,
        boundary_path_count=len(path_roots),
        orientable=orientable,
        component_euler=comp_chi,
        component_boundary_paths=comp_paths,
    )


def project_boundary(diagram: SurfaceDiagram) -> OneCycle:
    """Signed sum of the unmatched slots' image edges."""
    if diagram.ball is None:
        raise DomainError("projection needs ball provenance")
    matching = diagram.matching_dict()
    acc: dict[int, int] = {}
    for s in diagram.all_slots():
        if s in matching:
            continue
        e, sign = diagram.slot(s)
        acc[e] = acc.get(e, 0) + sign
    return OneCycle(acc)


def assemble_surface(ball: CayleyBall, chain: TwoChain) -> SurfaceDiagram:
    """Build a surface diagram whose faces are the chain's cells with
    multiplicity, glued by the deterministic rule: repeatedly take the lowest
    boundary vertex with a gluable incident slot and glue that slot,
    preferring unplaced face copies, ties by lowest face/slot index.
    """
    if not chain:
        raise DomainError("assemble_surface needs a nonzero 2-chain")
    faces: list[Face] = []
    for cell_id in sorted(chain.coeffs):
        coeff = chain.coeffs[cell_id]
        cell = ball.cells[cell_id]
        L = len(cell.boundary)
        orient = 1 if coeff > 0 else -1
        if orient > 0:
            slots = tuple(cell.boundary)
            corners = tuple(cell.vertex_path)
        else:
            slots = tuple((cell.boundary[L - 1 - p][0], -cell.boundary[L - 1 - p][1]) for p in range(L))
            corners = tuple(cell.vertex_path[(L - p) % L] for p in range(L))
        for _ in range(abs(coeff)):
            faces.append(Face(slots=slots, provenance=(cell_id, orient), corner_images=corners))

    nfaces = len(faces)
    placed = [False] * nfaces
    matched: dict[SlotRef, SlotRef] = {}
    by_edge_sign: dict[tuple[int, int], list[SlotRef]] = {}
    for f, face in enumerate(faces):
        for p, (e, s) in enumerate(face.slots):
            by_edge_sign.setdefault((e, s), []).append((f, p))

    parent: dict[SlotRef, SlotRef] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    def head(slot: SlotRef) -> SlotRef:
        f, p = slot
        return (f, (p + 1) % len(faces[f].slots))

    def place(f: int):
        placed[f] = True
        for p in range(len(faces[f].slots)):
            find((f, p))

    def partner_for(slot: SlotRef):
        e, s = faces[slot[0]].slots[slot[1]]
        unplaced = [c for c in by_edge_sign.get((e, -s), []) if not placed[c[0]]]
        if unplaced:
            return min(unplaced), True
        free = [
            c
            for c in by_edge_sign.get((e, -s), [])
            if placed[c[0]] and c not in matched and c != slot
        ]
        if free:
            return min(free), False
        return None, False

    def glue(a: SlotRef, b: SlotRef):
        matched[a] = b
        matched[b] = a
        union(a, head(b))
        union(head(a), b)

    def next_unplaced():
        for f in range(nfaces):
            if not placed[f]:
                return f
        return None

    seed = next_unplaced()
    while seed is not None:
        place(seed)
        while True:
            # boundary vertices, keyed by their lowest corner
            vertex_slots: dict[SlotRef, list[SlotRef]] = {}
            for f in range(nfaces):
                if not placed[f]:
                    continue
                for p in range(len(faces[f].slots)):
                    slot = (f, p)
                    if slot in matched:
                        continue
                    for corner in (slot, head(slot)):
                        vertex_slots.setdefault(find(corner), []).append(slot)
            best = None
            for root in sorted(vertex_slots):
                for slot in sorted(set(vertex_slots[root])):
                    partner, _ = partner_for(slot)
                    if partner is not None:
                        best = slot
                        break
                if best is not None:
                    break
            if best is None:
                break
            partner, was_unplaced = partner_for(best)
            if was_unplaced:
                place(partner[0])
            glue(best, partner)
        seed = next_unplaced()

    # residual consistency: every image edge must end with one leftover sign
    leftovers: dict[int, set[int]] = {}
    for f in range(nfaces):
        for p in range(len(faces[f].slots)):
            if (f, p) in matched:
                continue
            e, s = faces[f].slots[p]
            leftovers.setdefault(e, set()).add(s)
    for e, signs in leftovers.items():
        if len(signs) > 1:
            raise InvariantError(
                f"image edge {e} kept unmatched slots of both signs; gluability argument violated"
            )

    gluing = []
    for a in sorted(matched):
        b = matched[a]
        if a < b:
            gluing.append((a, b, False))
    diagram = SurfaceDiagram(faces=faces, gluing=gluing, ball=ball)
    report = verify_surface(diagram)
    if not report.ok:
        raise InvariantError("assembled diagram fails verification: " + "; ".join(report.violations))
    # corners glued together must sit over one ball vertex
    for cls in diagram.corner_classes():
        images = {faces[f].corner_images[p] for f, p in cls if faces[f].corner_images}
        if len(images) > 1:
            raise InvariantError("glued corners project to distinct ball vertices")
    return diagram


def vertex_images(diagram: SurfaceDiagram) -> list[int | None]:
    """Image ball vertex per vertex class (None without provenance)."""
    out = []
    for cls in diagram.corner_classes():
        image = None
        for f, p in cls:
            ci = diagram.faces[f].corner_images
            if ci is not None:
                image = ci[p]
                break
        out.append(image)
    return out


# ---------------------------------------------------------------------------
# serialization


def diagram_to_json(diagram: SurfaceDiagram, metrics: SurfaceMetrics | None = None) -> dict:
    doc = {
        "faces": [
            {
                "slots": [[e, s] for e, s in face.slots],
                "provenance": list(face.provenance) if face.provenance else None,
                "corner_images": list(face.corner_images) if face.corner_images else None,
            }
            for face in diagram.faces
        ],
        "gluing": [[list(a), list(b), flip] for a, b, flip in diagram.gluing],
    }
    if diagram.declared_classes is not None:
        doc["vertex_classes"] = [[list(c) for c in cls] for cls in diagram.declared_classes]
    if metrics is not None:
        doc["metrics"] = {
            "area": metrics.area,
            "radius": metrics.radius,
            "boundary_length": metrics.boundary_length,
            "component_count": metrics.component_count,
            "euler_characteristic": metrics.euler_characteristic,
            "boundary_path_count": metrics.boundary_path_count,
            "orientable": metrics.orientable,
        }
    return doc


def _int_tuple(value, what: str, size: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers (of length ``size`` when given) as a tuple."""
    if (
        not isinstance(value, (list, tuple))
        or (size is not None and len(value) != size)
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        count = f"{size} integers" if size is not None else "integers"
        raise ParseError(f"{what} must be a list of {count}, got {value!r}")
    return tuple(value)


def diagram_from_json(doc: dict, ball: CayleyBall | None = None) -> SurfaceDiagram:
    """Decode ``diagram_to_json`` output; malformed documents raise ParseError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("faces"), list):
        raise ParseError("diagram must be an object with a 'faces' list")
    faces = []
    for f, spec in enumerate(doc["faces"]):
        if not isinstance(spec, dict) or not isinstance(spec.get("slots"), list):
            raise ParseError(f"face {f} must be an object with a 'slots' list")
        provenance = spec.get("provenance")
        corners = spec.get("corner_images")
        faces.append(
            Face(
                slots=tuple(_int_tuple(slot, f"face {f} slot", 2) for slot in spec["slots"]),
                provenance=_int_tuple(provenance, f"face {f} provenance", 2) if provenance else None,
                corner_images=_int_tuple(corners, f"face {f} corner_images") if corners else None,
            )
        )
    gluing = []
    for entry in doc.get("gluing", []):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"gluing entry must be [slot, slot, flipped], got {entry!r}")
        a, b, flip = entry
        gluing.append((_int_tuple(a, "glued slot", 2), _int_tuple(b, "glued slot", 2), bool(flip)))
    declared = None
    if "vertex_classes" in doc:
        if not isinstance(doc["vertex_classes"], list):
            raise ParseError("vertex_classes must be a list of corner lists")
        declared = []
        for cls in doc["vertex_classes"]:
            if not isinstance(cls, list):
                raise ParseError(f"vertex class must be a list of corners, got {cls!r}")
            declared.append(tuple(_int_tuple(c, "vertex class corner", 2) for c in cls))
    return SurfaceDiagram(faces=faces, gluing=gluing, ball=ball, declared_classes=declared)


def diagram_to_dot(diagram: SurfaceDiagram) -> str:
    """1-skeleton in DOT, boundary edges highlighted."""
    matching = diagram.matching_dict()
    classes = diagram.corner_classes()
    class_of = {}
    for i, cls in enumerate(classes):
        for corner in cls:
            class_of[corner] = i
    lines = ["graph surface {"]
    for i in range(len(classes)):
        lines.append(f'  v{i} [label="v{i}"];')
    seen = set()
    for s in diagram.all_slots():
        f, p = s
        t = class_of[(f, p)]
        h = class_of[(f, (p + 1) % diagram.face_len(f))]
        if s in matching:
            a, b = sorted([s, matching[s][0]])
            if (a, b) in seen:
                continue
            seen.add((a, b))
            lines.append(f"  v{t} -- v{h};")
        else:
            lines.append(f'  v{t} -- v{h} [color=red, penwidth=2];')
    lines.append("}")
    return "\n".join(lines)
