"""Surface diagrams: punctured-surface 2-complexes assembled from 2-chains,
their verification, and the area/radius/Euler measurements.

A diagram is a multiset of oriented polygon faces (one per unit of chain
coefficient, negative units entering orientation-reversed) plus a partial
matching on boundary slots.  Local vertices are equivalence classes of face
corners generated by the endpoint identifications of glued slots, and the
link condition -- every class is a single corner fan, open or closed -- is
what makes the complex a surface with boundary.

The gluing is interpreted in one place, ``SurfaceIndex``: the matching, the
corner classes and the free sides of every class are derived once per
diagram, and the diagram is verified while they are.  Diagrams are
immutable, so ``SurfaceDiagram.index`` is built on first use and kept;
verification, measurement, boundary paths, projection and DOT output all
read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .cayley import CayleyBall, OneCycle, TwoChain
from .errors import DomainError, InvariantError, ParseError

SlotRef = tuple[int, int]  # (face index, slot position)
Side = tuple[SlotRef, str]  # (slot, "tail" | "head")


@dataclass(frozen=True)
class Face:
    slots: tuple[tuple[int, int], ...]  # (image edge, traversal sign) per slot
    provenance: tuple[int, int] | None = None  # (cell index, orientation)
    corner_images: tuple[int, ...] | None = None  # ball vertex per corner


@dataclass(frozen=True)
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

    @cached_property
    def index(self) -> SurfaceIndex:
        """The gluing's interpretation, built and verified on first use."""
        return SurfaceIndex(self)


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


class _Sets:
    """Union-find over ordered items; the root of every set is its least
    member."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


# ---------------------------------------------------------------------------
# side-level machinery: each corner (f, p) owns the tail side of slot (f, p)
# and the head side of slot (f, p-1); the link of a local vertex is the graph
# those sides trace through the glued pairs.


def _identified(diagram: SurfaceDiagram, a: SlotRef, b: SlotRef, flip: bool) -> list[tuple[SlotRef, SlotRef]]:
    """The two corner pairs that gluing slot a to slot b identifies."""
    head_a = (a[0], (a[1] + 1) % diagram.face_len(a[0]))
    head_b = (b[0], (b[1] + 1) % diagram.face_len(b[0]))
    return [(a, b), (head_a, head_b)] if flip else [(a, head_b), (head_a, b)]


def _side_partner(matching, side):
    slot, end = side
    if slot not in matching:
        return None
    other, flip = matching[slot]
    if flip:
        return (other, end)
    return (other, "head" if end == "tail" else "tail")


def _walk_fan(diagram: SurfaceDiagram, matching, start: Side) -> tuple[set[SlotRef], Side | None]:
    """Walk a link from side ``start``: cross its corner to the corner's other
    side, then the glued pair to the next corner.  Returns the corners passed
    and the free side the walk stops on, or None when it comes back to a
    corner it passed."""
    seen: set[SlotRef] = set()
    side = start
    while True:
        (f, p), end = side
        if end == "tail":
            corner = (f, p)
            other = ((f, (p - 1) % diagram.face_len(f)), "head")
        else:
            corner = (f, (p + 1) % diagram.face_len(f))
            other = (corner, "tail")
        if corner in seen:
            return seen, None
        seen.add(corner)
        side = _side_partner(matching, other)
        if side is None:
            return seen, other


class SurfaceIndex:
    """Everything a diagram's gluing determines, derived and verified once.

    - ``report``: the violated surface invariants, in check order.
    - ``matching``: glued slot -> (partner slot, flipped?); None when the
      gluing is not a partial matching.
    - ``unmatched``: the boundary slots in face order.
    - ``classes``: the local vertices (the declared classes, else those the
      endpoint identifications generate), ``class_of`` their index per corner.
    - ``free_sides``: per class, its sorted unglued sides -- none around an
      interior vertex, the two ends of the fan around a boundary vertex.

    Verification stops at the first group of checks that fails, so the
    later fields are filled only as far as it got; ``measure`` reads them
    only from a valid index.  A gluing or vertex class naming a slot the
    faces do not have, or a provenance cell the ball does not have, raises
    DomainError.
    """

    def __init__(self, diagram: SurfaceDiagram):
        named = [ref for a, b, _ in diagram.gluing for ref in (a, b)]
        for cls in diagram.declared_classes or ():
            named.extend(cls)
        for ref in named:
            if not diagram.has_slot(ref):
                raise DomainError(f"diagram names slot {ref}, which no face has")
        self.report = report = VerificationReport()
        self.matching: dict[SlotRef, tuple[SlotRef, bool]] | None = None
        self.unmatched: list[SlotRef] = []
        self.classes: list[tuple[SlotRef, ...]] = []
        self.class_of: dict[SlotRef, int] = {}
        self.free_sides: list[tuple[Side, ...]] = []

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
            return

        for a, b, flip in diagram.gluing:
            ea, sa = diagram.slot(a)
            eb, sb = diagram.slot(b)
            if ea != eb:
                report.add(f"glued slots {a},{b} lie over different edges")
            elif not flip and sa != -sb:
                report.add(f"glued slots {a},{b} traverse their edge with equal signs")
            elif flip and sa != sb:
                report.add(f"flipped gluing {a},{b} needs equal traversal signs")
        self.matching = matching = {}
        for a, b, flip in diagram.gluing:
            matching[a] = (b, flip)
            matching[b] = (a, flip)
        self.unmatched = [s for s in diagram.all_slots() if s not in matching]

        if diagram.declared_classes is not None:
            classes = diagram.declared_classes
        else:
            corners = _Sets()
            for a, b, flip in diagram.gluing:
                for x, y in _identified(diagram, a, b, flip):
                    corners.union(x, y)
            groups: dict[SlotRef, list[SlotRef]] = {}
            for corner in diagram.all_slots():
                groups.setdefault(corners.find(corner), []).append(corner)
            classes = [tuple(sorted(g)) for g in sorted(groups.values())]
        self.classes = classes
        class_of = self.class_of
        for i, cls in enumerate(classes):
            for corner in cls:
                if corner in class_of:
                    report.add(f"corner {corner} appears in two vertex classes")
                class_of[corner] = i
        for corner in diagram.all_slots():
            if corner not in class_of:
                report.add(f"corner {corner} missing from vertex classes")
        if not report.ok:
            return

        # identified endpoints must land in the same class
        for a, b, flip in diagram.gluing:
            for x, y in _identified(diagram, a, b, flip):
                if class_of[x] != class_of[y]:
                    report.add(f"gluing {a},{b} identifies corners {x},{y} across distinct classes")
        if not report.ok:
            return

        # link condition: the sides of each class form one open fan or one
        # cycle.  The checks above already keep every corner in one class and
        # every glued side's partner in its side's class.
        for i, cls in enumerate(classes):
            sides = set()
            for f, p in cls:
                sides.update((((f, p), "tail"), ((f, (p - 1) % diagram.face_len(f)), "head")))
            free = sorted(s for s in sides if _side_partner(matching, s) is None)
            self.free_sides.append(tuple(free))
            if not cls:
                report.add(f"vertex class {i} is empty")
            elif not free:
                seen, _ = _walk_fan(diagram, matching, min(sides))
                if len(seen) != len(cls):
                    report.add(f"link of vertex class {i} is not a single cycle")
            elif len(free) == 2:
                seen, end = _walk_fan(diagram, matching, free[0])
                if end != free[1] or len(seen) != len(cls):
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


def verify_surface(diagram: SurfaceDiagram) -> VerificationReport:
    """Check the surface-diagram invariants; violations become report lines.
    A gluing or vertex class naming a slot the faces do not have, or a
    provenance cell the ball does not have, raises DomainError."""
    return diagram.index.report


def _glued(diagram: SurfaceDiagram) -> SurfaceIndex:
    """The diagram's index, once its gluing is known to be a partial matching."""
    index = diagram.index
    if index.matching is None:
        raise DomainError("gluing is not a partial matching; run verify_surface")
    return index


def _valid(diagram: SurfaceDiagram, what: str) -> SurfaceIndex:
    """The diagram's index, once the diagram is known to be valid."""
    index = diagram.index
    if not index.report.ok:
        raise DomainError(f"cannot {what} an invalid diagram: " + "; ".join(index.report.violations))
    return index


def boundary_paths(diagram: SurfaceDiagram) -> list[list[SlotRef]]:
    """Cyclically ordered unmatched slots per boundary component (orientation
    follows the faces; only meaningful for flip-free diagrams, which is all
    assembled ones)."""
    index = _glued(diagram)
    matching = index.matching
    remaining = set(index.unmatched)
    limit = 4 * sum(len(face.slots) for face in diagram.faces)
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
                if guard > limit:
                    raise InvariantError("boundary walk does not terminate")
            if nxt == start:
                break
            s = nxt
        paths.append(path)
    return paths


def measure(diagram: SurfaceDiagram) -> SurfaceMetrics:
    """Area, radius, boundary length, components, Euler characteristic."""
    index = _valid(diagram, "measure")

    nfaces = len(diagram.faces)
    matching, unmatched, classes, class_of = index.matching, index.unmatched, index.classes, index.class_of

    def endpoints(slot: SlotRef) -> tuple[int, int]:
        f, p = slot
        tail = class_of[(f, p)]
        head = class_of[(f, (p + 1) % diagram.face_len(f))]
        return tail, head

    # components, and the 1-skeleton on vertex classes
    faces = _Sets()
    skeleton: list[set[int]] = [set() for _ in classes]
    for a, b, _flip in diagram.gluing:
        faces.union(a[0], b[0])
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
    comp_root = [faces.find(f) for f in range(nfaces)]
    comp_ids = sorted(set(comp_root))
    comp_pos = {r: k for k, r in enumerate(comp_ids)}
    comp_of = [comp_pos[r] for r in comp_root]

    dist: list[int | None] = [None] * len(classes)
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
    if any(v is None for v in dist):
        radius = None
    else:
        radius = max(dist, default=0)

    comp_vertices = [0] * len(comp_ids)
    comp_edges = [0] * len(comp_ids)
    comp_faces = [0] * len(comp_ids)
    comp_paths = [0] * len(comp_ids)
    for cls in classes:
        comp_vertices[comp_of[cls[0][0]]] += 1
    for a, _b, _flip in diagram.gluing:
        comp_edges[comp_of[a[0]]] += 1
    for s in unmatched:
        comp_edges[comp_of[s[0]]] += 1
    for f in range(nfaces):
        comp_faces[comp_of[f]] += 1

    # boundary components: unmatched slots joined where a boundary vertex's
    # fan, walked from its lower free side, ends at its higher one
    paths = _Sets()
    for free in index.free_sides:
        if free:
            lo, hi = free
            paths.union(lo[0], hi[0])
    path_roots = {paths.find(s) for s in unmatched}
    for root in path_roots:
        comp_paths[comp_of[root[0]]] += 1

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

    total_chi = len(classes) - len(diagram.gluing) - len(unmatched) + nfaces
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
    acc: dict[int, int] = {}
    for s in _glued(diagram).unmatched:
        e, sign = diagram.slot(s)
        acc[e] = acc.get(e, 0) + sign
    return OneCycle(acc)


def assemble_surface(ball: CayleyBall, chain: TwoChain) -> SurfaceDiagram:
    """Build a surface diagram whose faces are the chain's cells with
    multiplicity, glued by the deterministic rule: repeatedly take the lowest
    boundary vertex with a gluable incident slot and glue that slot,
    preferring unplaced face copies, ties by lowest face/slot index.  When
    no placed slot is gluable, the lowest unplaced face starts a new
    component.

    A vertex is named by its root, the least corner identified with it, and
    a slot's key is the lesser root of its two corners; the rule glues the
    gluable slot of least (key, slot).  One heap of (key, slot) entries
    yields that slot without rescanning the placed faces, by two facts:

    - A union only lowers a root, so keys only fall.  Every fall pushes a
      fresh entry, and an entry above its slot's current key is stale and
      skipped when popped.
    - A slot with no partner never gains one.  Its partners are unplaced
      copies of the opposite label, which only run out, and placed unmatched
      ones, which only appear when such a copy is placed.  So a slot popped
      without a partner is dropped for good.

    The unplaced partner is the first copy of the opposite label whose face
    is unplaced, found by a pointer that only moves forward; the placed one
    is the least entry of a heap of placed, unmatched slots per label.
    """
    if not chain:
        raise DomainError("assemble_surface needs a nonzero 2-chain")
    faces: list[Face] = []
    for cell_id in sorted(chain.coeffs):
        coeff = chain.coeffs[cell_id]
        cell = ball.cells[cell_id]
        L = len(cell.boundary)
        orient = 1 if coeff > 0 else -1
        path = ball.cell_vertices(cell_id)
        if orient > 0:
            slots = tuple(cell.boundary)
            corners = path
        else:
            slots = tuple((cell.boundary[L - 1 - p][0], -cell.boundary[L - 1 - p][1]) for p in range(L))
            corners = tuple(path[(L - p) % L] for p in range(L))
        for _ in range(abs(coeff)):
            faces.append(Face(slots=slots, provenance=(cell_id, orient), corner_images=corners))

    # slot (f, p) and corner (f, p) share one integer id, ordered as the
    # pairs are; ``head[x]`` is the corner at the end of slot x
    refs: list[SlotRef] = []
    first: list[int] = []
    head: list[int] = []
    label: list[tuple[int, int]] = []
    copies: dict[tuple[int, int], list[int]] = {}
    for f, face in enumerate(faces):
        base = len(refs)
        first.append(base)
        L = len(face.slots)
        for p, slot in enumerate(face.slots):
            copies.setdefault(slot, []).append(base + p)
            refs.append((f, p))
            head.append(base + (p + 1) % L)
            label.append(slot)
    first.append(len(refs))
    face_of = [f for f, _ in refs]
    nfaces = len(faces)
    placed = [False] * nfaces
    matched = [-1] * len(refs)
    parent = list(range(len(refs)))  # union-find over corners, roots least
    touching: list[list[int] | None] = [[] for _ in refs]  # root -> slots at its vertex
    unplaced_at = dict.fromkeys(copies, 0)  # label -> first copy possibly unplaced
    free: dict[tuple[int, int], list[int]] = {key: [] for key in copies}  # placed, unmatched
    queue: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def place(f: int):
        placed[f] = True
        for x in range(first[f], first[f + 1]):
            heappush(free[label[x]], x)
            touching[x].append(x)
            touching[head[x]].append(x)
            heappush(queue, (min(x, head[x]), x))

    def union(x: int, y: int):
        x, y = find(x), find(y)
        if x == y:
            return
        if x > y:
            x, y = y, x
        parent[y] = x
        keep = touching[x]
        for s in touching[y]:
            if matched[s] < 0:
                keep.append(s)
                heappush(queue, (x, s))
        touching[y] = None

    def partner_of(s: int) -> int:
        e, sign = label[s]
        opposite = (e, -sign)
        row = copies.get(opposite)
        if row is None:
            return -1
        i = unplaced_at[opposite]
        while i < len(row) and placed[face_of[row[i]]]:
            i += 1
        unplaced_at[opposite] = i
        if i < len(row):
            return row[i]
        heap = free[opposite]
        while heap and matched[heap[0]] >= 0:
            heappop(heap)
        return heap[0] if heap else -1

    for seed in range(nfaces):
        if placed[seed]:
            continue
        place(seed)
        while queue:
            key, a = heappop(queue)
            if matched[a] >= 0 or key != min(find(a), find(head[a])):
                continue
            b = partner_of(a)
            if b < 0:
                continue
            if not placed[face_of[b]]:
                place(face_of[b])
            matched[a] = b
            matched[b] = a
            union(a, head[b])
            union(head[a], b)

    # residual consistency: every image edge must end with one leftover sign
    leftovers: dict[int, set[int]] = {}
    for x, (e, sign) in enumerate(label):
        if matched[x] < 0:
            leftovers.setdefault(e, set()).add(sign)
    for e, signs in leftovers.items():
        if len(signs) > 1:
            raise InvariantError(
                f"image edge {e} kept unmatched slots of both signs; gluability argument violated"
            )

    gluing = [(refs[a], refs[b], False) for a, b in enumerate(matched) if a < b]
    diagram = SurfaceDiagram(faces=faces, gluing=gluing, ball=ball)
    report = verify_surface(diagram)
    if not report.ok:
        raise InvariantError("assembled diagram fails verification: " + "; ".join(report.violations))
    # corners glued together must sit over one ball vertex
    for cls in diagram.index.classes:
        images = {faces[f].corner_images[p] for f, p in cls if faces[f].corner_images}
        if len(images) > 1:
            raise InvariantError("glued corners project to distinct ball vertices")
    return diagram


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
    index = _valid(diagram, "draw")
    lines = ["graph surface {"]
    for i in range(len(index.classes)):
        lines.append(f'  v{i} [label="v{i}"];')
    for s in diagram.all_slots():
        f, p = s
        t = index.class_of[(f, p)]
        h = index.class_of[(f, (p + 1) % diagram.face_len(f))]
        glued = index.matching.get(s)
        if glued is None:
            lines.append(f'  v{t} -- v{h} [color=red, penwidth=2];')
        elif s < glued[0]:
            lines.append(f"  v{t} -- v{h};")
    lines.append("}")
    return "\n".join(lines)
