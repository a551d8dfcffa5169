"""Surface diagrams: punctured-surface 2-complexes assembled from 2-chains,
their verification, and the area/radius/Euler measurements.

A diagram is a multiset of oriented polygon faces (one per unit of chain
coefficient, negative units entering orientation-reversed) plus a partial
matching on boundary slots.  Local vertices are equivalence classes of face
corners generated by the endpoint identifications of glued slots; as every
side of a corner has at most one glued partner, each class is one corner
fan, open or closed, and the complex is a surface with boundary.

Every layer numbers slots one way (``SlotNumbering``): slot (f, p) is
``first[f] + p``, corner x is where slot x starts, and side ``2*x`` /
``2*x + 1`` is the head / tail end of slot x.  As "head" sorts before
"tail", integer order is the order of the (face, position) and
(slot, end) pairs.  The gluing is interpreted in one place,
``SurfaceIndex``: the matching, the corner classes and the free sides of
every class are derived once per diagram, as integers, and the diagram is
verified while they are.  ``assemble_surface`` builds its diagram's index
from the numbering, the integer matching and the corner union-find it glued
with, so the corner partition is joined once; any other diagram (decoded
JSON, a hand-built one) builds its index, partition included, on first use
of ``SurfaceDiagram.index``.  The corner classes come only from the
gluing; a diagram's declared classes (JSON ``vertex_classes``) are a claim
that verification compares with them.  Verification, measurement, the
radius search (``diagram_radius``), projection and DOT output all read that
index's integer fields; the (face, position) views -- ``SlotNumbering.refs``
and ``SurfaceIndex.unmatched`` and ``classes`` -- are derived on first
read, so a caller that reads none of them does not pay for them.

Assembly glues by one deterministic rule.  When no edge label occurs with
its opposite label while one of the two has several copies, the rule's
matching is forced -- every slot takes the one copy of its opposite label
-- and is read off directly; only diagrams with such a contested label run
the rule's heap loop.

A ball keeps one ``Face`` per (cell, orientation), built on first use
(``oriented_face``): every copy of a cell in every diagram on that ball is
that one object, and the provenance check compares a face with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat

from .cayley import CayleyBall, OneCycle, TwoChain
from .errors import DomainError, InvariantError, ParseError

SlotRef = tuple[int, int]  # (face index, slot position)


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def index(self) -> SurfaceIndex:
        """The gluing's interpretation, built and verified on first use
        (``assemble_surface`` sets it when it builds the diagram)."""
        slots = SlotNumbering(self.faces)
        number = slots.number
        return SurfaceIndex(self, slots, [(number(a), number(b), flip) for a, b, flip in self.gluing])


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


def oriented_face(ball: CayleyBall, cell: int, orient: int) -> Face:
    """The face of a ball cell entered with orientation ``orient`` (1 or
    -1): its slots and corner images are the cell's boundary and vertex
    path, reversed for -1, and its provenance is (cell, orient).  Built once
    per ball, cell and orientation and kept in ``ball.oriented_faces``."""
    table = ball.oriented_faces
    k = 2 * cell + (orient < 0)
    face = table[k]
    if face is None:
        slots, corners = ball.cells[cell].boundary, ball.cell_vertices(cell)
        if orient < 0:
            slots = tuple((e, -sign) for e, sign in reversed(slots))
            corners = corners[:1] + corners[:0:-1]
        face = table[k] = Face(slots, (cell, orient), corners)
    return face


class _Sets:
    """Union-find over 0..n-1; the root of every set is its least member,
    and every member's parent is a member of its set no greater than it."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x: int, y: int) -> tuple[int, int] | None:
        """Join the sets of x and y: (the root kept, the root absorbed), or
        None when they were one set already."""
        x, y = self.find(x), self.find(y)
        if x == y:
            return None
        if x > y:
            x, y = y, x
        self.parent[y] = x
        return x, y


class SlotNumbering:
    """The slots of a face list as integers: slot (f, p) is ``first[f] + p``
    (``first`` ends with the slot count).  Per slot x: ``face_of[x]`` is f,
    ``label[x]`` its (image edge, sign), and ``next[x]``/``prev[x]`` the
    slots after and before it around the face.  Corner x is the tail of
    slot x and the head of ``prev[x]``.  These are built with the
    numbering; ``refs``, each slot's (f, p), is a view derived on first
    read."""

    def __init__(self, faces: list[Face]):
        self.first = first = []
        self.face_of = face_of = []
        self.label = label = []
        self.next = nxt = []
        self.prev = prv = []
        base = 0
        for f, face in enumerate(faces):
            L = len(face.slots)
            first.append(base)
            if L:
                face_of += repeat(f, L)
                label += face.slots
                nxt += range(base + 1, base + L)
                nxt.append(base)
                prv.append(base + L - 1)
                prv += range(base, base + L - 1)
                base += L
        first.append(base)

    @cached_property
    def refs(self) -> list[SlotRef]:
        """Per slot, its (face, position)."""
        first = self.first
        return [(f, x - first[f]) for x, f in enumerate(self.face_of)]

    def number(self, ref: SlotRef) -> int:
        """The integer of slot ``ref``; DomainError when no face has it."""
        f, p = ref
        first = self.first
        if not (0 <= f < len(first) - 1 and 0 <= p < first[f + 1] - first[f]):
            raise DomainError(f"diagram names slot {ref}, which no face has")
        return first[f] + p


def _identify_corners(union, nxt: list[int], a: int, b: int, flip: bool) -> None:
    """Join the corners that gluing slot a to slot b identifies, with
    ``union``: each end of one slot with the opposite end of the other, or
    with the same end when the gluing is flipped.  Slot x runs from corner x
    to corner ``nxt[x]``.  Assembly and ``SurfaceIndex`` both join by this
    rule, so an assembler's corner partition is the one the index would
    join."""
    if flip:
        union(a, b)
        union(nxt[a], nxt[b])
    else:
        union(a, nxt[b])
        union(nxt[a], b)


def _check_bare_face(ball: CayleyBall, f: int, face: Face, report: VerificationReport) -> None:
    """Check face f, which has no provenance, against the ball: an edge or a
    vertex the ball does not have raises DomainError; a slot sign other than
    1 or -1, slots that are not a closed path of the ball's edges and a
    corner image that is not where its slot starts are reported."""
    edges, n_vertices = ball.edges, len(ball.vertices)
    for p, (edge, _) in enumerate(face.slots):
        if not 0 <= edge < len(edges):
            raise DomainError(f"face {f} slot {p} names edge {edge}, which the ball does not have")
    corners = face.corner_images or ()
    for p, vertex in enumerate(corners):
        if not 0 <= vertex < n_vertices:
            raise DomainError(f"face {f} corner {p} names vertex {vertex}, which the ball does not have")
    bad = next((p for p, (_, sign) in enumerate(face.slots) if sign not in (1, -1)), None)
    if bad is not None:
        report.add(f"face {f} slot {bad} sign must be 1 or -1")
        return
    starts = [edges[e][0] if sign > 0 else edges[e][2] for e, sign in face.slots]
    ends = [edges[e][2] if sign > 0 else edges[e][0] for e, sign in face.slots]
    if ends[-1:] + ends[:-1] != starts:  # slot p - 1 ends where slot p starts
        report.add(f"face {f} slots do not close")
    if corners and len(corners) != len(starts):
        report.add(f"face {f} has {len(corners)} corner images for {len(starts)} slots")
    for p, (vertex, start) in enumerate(zip(corners, starts)):
        if vertex != start:
            report.add(f"face {f} corner {p} is not where slot {p} starts")


class SurfaceIndex:
    """Everything a diagram's gluing determines, derived and verified once.

    Slots, corners and sides are the integers of ``slots``, a
    ``SlotNumbering``: side ``2*x`` is the head of slot x and ``2*x + 1``
    its tail.  Corner x owns the tail side of slot x and the head side of
    slot ``prev[x]``; a glued pair joins each side of one slot to the
    opposite end of the other (to the same end when flipped), and the link
    of a local vertex is the graph its corners' sides trace through those
    pairs.  Slot numbers follow the (face, position) order and head sorts
    before tail, so the orders read off these integers -- classes by least
    corner, free sides -- are those of the (face, position) and
    ((face, position), end) pairs.

    The integer fields are derived while the diagram is verified:

    - ``report``: the violated surface invariants, in check order; a
      diagram without faces is one line.
    - ``mate``/``flipped``: per slot, the slot glued to it (-1 for a
      boundary slot) and whether that gluing is flipped; ``mate`` is None
      when the gluing is not a partial matching.
    - ``class_of``: per corner, its local vertex class: the classes the
      endpoint identifications generate, numbered by least corner.
    - ``free_sides``: per class, its unglued sides in increasing order --
      none around an interior vertex, the two ends of the fan around a
      boundary vertex.

    The (face, position) views are derived from them on first read:

    - ``unmatched``: the boundary slots as (face, position), in face order;
      [] when ``mate`` is None.
    - ``classes``: the local vertices as tuples of (face, position)
      corners; [] when verification stopped before the class stage.

    Verification stops at the first group of checks that fails, so the
    later fields are filled only as far as it got; ``measure`` reads them
    only from a valid index.  A vertex class naming a slot the faces do not
    have, a provenance cell the ball does not have, or, in a face without
    provenance, an edge or corner image the ball does not have, raises
    DomainError.  With a ball, a face without provenance must be a closed
    path of its edges whose corner images are where its slots start.

    The index is built from the diagram's ``SlotNumbering`` and its gluing
    as integer triples (slot, slot, flipped), in the gluing's order.
    ``corners``, when given, is a union-find whose sets are already those
    the gluing's endpoint identifications generate (``assemble_surface``
    passes the one it glued with), and the corner classes are read from it
    instead of being joined again; without it the index joins them itself.
    Both join by ``_identify_corners``, so the two partitions are one.
    The classes always come from the gluing.  Declared classes
    (``SurfaceDiagram.declared_classes``) are a claim, and the class stage
    reports them when they are not the generated ones: such classes would
    split an identified corner pair or join two links.

    The link condition needs no check.  Every side has exactly one corner
    and, once the gluing is a partial matching, at most one glued partner,
    so the link graph has degree at most 2; the class a set of
    identifications generates is connected in it.  So, for any partial
    matching, flipped or not, the sides of each class form one path (two
    free sides) or one cycle (none).
    """

    def __init__(
        self,
        diagram: SurfaceDiagram,
        slots: SlotNumbering,
        pairs: list[tuple[int, int, bool]],
        corners: _Sets | None = None,
    ):
        self.slots = slots
        label, nxt, prv = slots.label, slots.next, slots.prev
        declared = diagram.declared_classes
        if declared is not None:  # numbered first: a corner no face has raises DomainError
            declared = [[slots.number(c) for c in cls] for cls in declared]
        self.report = report = VerificationReport()
        self.mate: list[int] | None = None
        self.flipped: list[bool] = []
        self.class_of: list[int] = []
        self.free_sides: list[tuple[int, ...]] = []
        self._members: list[list[int]] | None = None  # per class, its corners; set at the class stage

        if not diagram.faces:
            report.add("diagram has no faces")
        for f, face in enumerate(diagram.faces):
            if not face.slots:
                report.add(f"face {f} has no slots")
        n = len(label)
        mate, flipped = [-1] * n, [False] * n
        twice = set()
        for a, b, flip in pairs:
            if a == b:
                report.add(f"slot {slots.refs[a]} glued to itself")
            if mate[a] < 0:
                mate[a], flipped[a] = b, flip
            else:
                twice.add(a)
            if mate[b] < 0:
                mate[b], flipped[b] = a, flip
            else:
                twice.add(b)
        # one line per slot, in the order the gluing first names them
        for x in dict.fromkeys(x for a, b, _ in pairs for x in (a, b)) if twice else ():
            if x in twice:
                report.add(f"slot {slots.refs[x]} matched twice")
        if not twice:  # a self-glued slot is matched twice as well
            self.mate, self.flipped = mate, flipped
        if not report.ok:
            return

        for a, b, flip in pairs:
            (ea, sa), (eb, sb) = label[a], label[b]
            if ea != eb:
                report.add(f"glued slots {slots.refs[a]},{slots.refs[b]} lie over different edges")
            elif not flip and sa != -sb:
                report.add(f"glued slots {slots.refs[a]},{slots.refs[b]} traverse their edge with equal signs")
            elif flip and sa != sb:
                report.add(f"flipped gluing {slots.refs[a]},{slots.refs[b]} needs equal traversal signs")

        if corners is None:
            corners = _Sets(n)
            for a, b, flip in pairs:
                _identify_corners(corners.union, nxt, a, b, flip)
        # a parent is a lesser member of its child's set, so in increasing
        # order it is classed before the child
        self.class_of = class_of = [-1] * n
        self._members = members = []
        for x, p in enumerate(corners.parent):
            if p == x:
                class_of[x] = len(members)
                members.append([x])
            else:
                k = class_of[x] = class_of[p]
                members[k].append(x)
        # members is a partition in sorted form: each class's corners in
        # increasing order, the classes by least corner
        if declared is not None and sorted(map(sorted, declared)) != members:
            report.add("declared vertex classes are not the classes the gluing generates")
        if not report.ok:
            return

        # each class's link is one path or one cycle (see above), so it has
        # two free sides or none
        for cls in members:
            free = []  # corner x's sides: the tail of slot x, the head of prev[x]
            for x in cls:
                if mate[x] < 0:
                    free.append(2 * x + 1)
                if mate[prv[x]] < 0:
                    free.append(2 * prv[x])
            self.free_sides.append(tuple(sorted(free)))

        # provenance consistency: each face against its cell's oriented face;
        # a face without provenance against the ball's edges and vertices
        ball = diagram.ball
        if ball is not None:
            for f, face in enumerate(diagram.faces):
                if face.provenance is None:
                    _check_bare_face(ball, f, face, report)
                    continue
                cell_id, orient = face.provenance
                if not 0 <= cell_id < len(ball.cells):
                    raise DomainError(f"face {f} names cell {cell_id}, which the ball does not have")
                if orient not in (1, -1):
                    report.add(f"face {f} provenance orientation must be 1 or -1")
                    continue
                want = oriented_face(ball, cell_id, orient)
                if face is want:
                    continue
                if len(face.slots) != len(want.slots):
                    report.add(f"face {f} length disagrees with its provenance cell")
                elif tuple(face.slots) != want.slots:
                    p = next(p for p, slot in enumerate(face.slots) if slot != want.slots[p])
                    report.add(f"face {f} slot {p} disagrees with its provenance cell")
                elif face.corner_images is not None and tuple(face.corner_images) != want.corner_images:
                    report.add(f"face {f} corner images disagree with its provenance cell")

    @cached_property
    def unmatched(self) -> list[SlotRef]:
        if self.mate is None:
            return []
        refs = self.slots.refs
        return [refs[x] for x, m in enumerate(self.mate) if m < 0]

    @cached_property
    def classes(self) -> list[tuple[SlotRef, ...]]:
        members = self._members
        if members is None:
            return []
        at = self.slots.refs.__getitem__
        return [tuple(map(at, cls)) for cls in members]


def verify_surface(diagram: SurfaceDiagram) -> VerificationReport:
    """Check the surface-diagram invariants; violations become report lines.
    A gluing or vertex class naming a slot the faces do not have, or a
    provenance cell the ball does not have, raises DomainError."""
    return diagram.index.report


def _glued(diagram: SurfaceDiagram) -> SurfaceIndex:
    """The diagram's index, once its gluing is known to be a partial matching."""
    index = diagram.index
    if index.mate is None:
        raise DomainError("gluing is not a partial matching; run verify_surface")
    return index


def _valid(diagram: SurfaceDiagram, what: str) -> SurfaceIndex:
    """The diagram's index, once the diagram is known to be valid."""
    index = diagram.index
    if not index.report.ok:
        raise DomainError(f"cannot {what} an invalid diagram: " + "; ".join(index.report.violations))
    return index


def diagram_radius(diagram: SurfaceDiagram) -> int | None:
    """The diagram's radius: the greatest number of 1-skeleton edges between
    a local vertex and the boundary, or None when some vertex cannot reach
    it (it sits in a closed component)."""
    index = _valid(diagram, "measure")
    class_of, mate, nxt = index.class_of, index.mate, index.slots.next
    # a class is on the boundary when it has free sides; a boundary slot
    # joins two boundary classes, so only glued pairs carry the search
    free_sides = index.free_sides
    skeleton: list[list[int]] = [[] for _ in free_sides]
    for x, m in enumerate(mate):
        if x < m:
            t, h = class_of[x], class_of[nxt[x]]
            skeleton[t].append(h)
            skeleton[h].append(t)
    dist = [0 if free else -1 for free in free_sides]
    # breadth-first from the boundary; the queue grows while it is read
    queue = [v for v, free in enumerate(free_sides) if free]
    for v in queue:
        d = dist[v] + 1
        for u in skeleton[v]:
            if dist[u] < 0:
                dist[u] = d
                queue.append(u)
    if len(queue) < len(dist):
        return None
    return dist[queue[-1]] if queue else 0


def measure(diagram: SurfaceDiagram) -> SurfaceMetrics:
    """Area, radius, boundary length, components, Euler characteristic."""
    index = _valid(diagram, "measure")

    nfaces = len(diagram.faces)
    class_of, mate, flipped = index.class_of, index.mate, index.flipped
    first, face_of = index.slots.first, index.slots.face_of

    # components and orientability in one walk over the faces: faces are
    # numbered into components in the order of their least faces, and a
    # face's orientation relative to its component flips across a flipped
    # gluing
    comp_of = [-1] * nfaces
    orient = [0] * nfaces
    orientable = True
    ncomp = 0
    for f in range(nfaces):
        if comp_of[f] >= 0:
            continue
        comp_of[f], orient[f] = ncomp, 1
        stack = [f]
        while stack:
            g = stack.pop()
            for x in range(first[g], first[g + 1]):
                m = mate[x]
                if m < 0:
                    continue
                h = face_of[m]
                want = -orient[g] if flipped[x] else orient[g]
                if comp_of[h] < 0:
                    comp_of[h], orient[h] = ncomp, want
                    stack.append(h)
                elif orient[h] != want:
                    orientable = False
        ncomp += 1

    # chi = V - E + F per component: a vertex per class, an edge per
    # boundary slot and per glued pair
    comp_chi = [0] * ncomp
    comp_paths = [0] * ncomp
    class_comp = [0] * len(index.free_sides)  # per class, its component
    for x, k in enumerate(class_of):
        class_comp[k] = comp_of[face_of[x]]
    for c in class_comp:
        comp_chi[c] += 1
    for x, m in enumerate(mate):
        if m < 0 or m > x:
            comp_chi[comp_of[face_of[x]]] -= 1
    for f in range(nfaces):
        comp_chi[comp_of[f]] += 1

    # boundary components: unmatched slots joined where a boundary vertex's
    # fan runs from its lower free side to its higher one
    paths = _Sets(len(mate))
    for free in index.free_sides:
        if free:
            lo, hi = free
            paths.union(lo >> 1, hi >> 1)
    boundary = [x for x, m in enumerate(mate) if m < 0]
    path_roots = {paths.find(x) for x in boundary}
    for root in path_roots:
        comp_paths[comp_of[face_of[root]]] += 1

    return SurfaceMetrics(
        area=nfaces,
        radius=diagram_radius(diagram),
        boundary_length=len(boundary),
        component_count=ncomp,
        euler_characteristic=sum(comp_chi),
        boundary_path_count=len(path_roots),
        orientable=orientable,
        component_euler=comp_chi,
        component_boundary_paths=comp_paths,
    )


def project_boundary(diagram: SurfaceDiagram) -> OneCycle:
    """Signed sum of the unmatched slots' image edges."""
    if diagram.ball is None:
        raise DomainError("projection needs ball provenance")
    index = _glued(diagram)
    label = index.slots.label
    acc: dict[int, int] = {}
    for x, m in enumerate(index.mate):
        if m < 0:
            e, sign = label[x]
            acc[e] = acc.get(e, 0) + sign
    return OneCycle(acc)


def assemble_surface(ball: CayleyBall, chain: TwoChain) -> SurfaceDiagram:
    """Build a surface diagram whose faces are the chain's cells with
    multiplicity, glued by the deterministic rule: repeatedly take the lowest
    boundary vertex with a gluable incident slot and glue that slot,
    preferring unplaced face copies, ties by lowest face/slot index.  When
    no placed slot is gluable, the lowest unplaced face starts a new
    component.

    A label (image edge, sign) is contested when its opposite label occurs
    and it or its opposite has two or more copies.  When no label is
    contested the rule's matching is forced, and no heap is needed: each
    slot whose opposite label occurs is glued to the one copy of that
    label.  The rule leaves no gluable slot unglued and places every face,
    and such a slot's one possible partner has that slot as its own one
    possible partner, so it stays free until the two are glued -- whatever
    order the rule takes them in.  The corner classes are the sets the
    glued pairs' endpoint identifications generate, which do not depend on
    the order of the unions either.

    Otherwise ``_glue_contested`` follows the rule step by step.  Slots and
    corners are numbered as in ``SlotNumbering``.  A vertex is named by its
    root, the least corner identified with it, and a slot's key is the
    lesser root of its two corners; the rule glues the gluable slot of
    least (key, slot).  One heap of (key, slot) entries yields that slot
    without rescanning the placed faces, by two facts:

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

    The faces are the ball's ``oriented_face`` objects.  The diagram's
    index is built from the same numbering and matching and from the
    union-find of corners that either path joined while gluing, so the
    corner partition is computed once, by the index's own rule
    (``_identify_corners``); the index still checks the matching, the
    labels and the provenance, and a violation is an InvariantError.
    """
    if not chain:
        raise DomainError("assemble_surface needs a nonzero 2-chain")
    faces: list[Face] = []
    for cell_id in sorted(chain.coeffs):
        coeff = chain.coeffs[cell_id]
        faces += repeat(oriented_face(ball, cell_id, 1 if coeff > 0 else -1), abs(coeff))

    numbering = SlotNumbering(faces)
    first, face_of, label = numbering.first, numbering.face_of, numbering.label
    head = numbering.next  # the corner at the end of slot x
    copies: dict[tuple[int, int], list[int]] = {}
    for x, slot in enumerate(label):
        copies.setdefault(slot, []).append(x)
    matched = [-1] * len(label)
    corners = _Sets(len(label))
    if any(len(row) > 1 and (e, -sign) in copies for (e, sign), row in copies.items()):
        _glue_contested(numbering, copies, matched, corners)
    else:  # forced: each slot with a partner takes the one copy of its opposite label
        union = corners.union
        for (e, sign), row in copies.items():
            opposite = copies.get((e, -sign))
            if opposite is not None and row[0] < opposite[0]:
                a, b = row[0], opposite[0]
                matched[a], matched[b] = b, a
                _identify_corners(union, head, a, b, False)

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

    pairs = [(a, b, False) for a, b in enumerate(matched) if a < b]
    gluing = [
        ((face_of[a], a - first[face_of[a]]), (face_of[b], b - first[face_of[b]]), False) for a, b, _ in pairs
    ]
    diagram = SurfaceDiagram(faces=faces, gluing=gluing, ball=ball)
    # ``index`` is a cached property: set it to the index of this numbering,
    # matching and corner partition, so that none of them is derived again
    diagram.__dict__["index"] = index = SurfaceIndex(diagram, numbering, pairs, corners)
    # the label and provenance checks also make glued corners sit over one
    # ball vertex
    if not index.report.ok:
        raise InvariantError("assembled diagram fails verification: " + "; ".join(index.report.violations))
    return diagram


def _glue_contested(
    numbering: SlotNumbering, copies: dict[tuple[int, int], list[int]], matched: list[int], corners: _Sets
) -> None:
    """Glue by ``assemble_surface``'s rule with one heap of (key, slot)
    entries, filling ``matched`` and joining the identified corners in
    ``corners``."""
    first, face_of, label = numbering.first, numbering.face_of, numbering.label
    head = numbering.next  # the corner at the end of slot x
    nfaces = len(first) - 1
    placed = [False] * nfaces
    find = corners.find
    touching: list[list[int] | None] = [[] for _ in label]  # root -> slots at its vertex
    unplaced_at = dict.fromkeys(copies, 0)  # label -> first copy possibly unplaced
    free: dict[tuple[int, int], list[int]] = {key: [] for key in copies}  # placed, unmatched
    queue: list[tuple[int, int]] = []

    def place(f: int):
        placed[f] = True
        for x in range(first[f], first[f + 1]):
            heappush(free[label[x]], x)
            touching[x].append(x)
            touching[head[x]].append(x)
            heappush(queue, (min(x, head[x]), x))

    def union(x: int, y: int):
        joined = corners.union(x, y)
        if joined is None:
            return
        root, absorbed = joined
        keep = touching[root]
        for s in touching[absorbed]:
            if matched[s] < 0:
                keep.append(s)
                heappush(queue, (root, s))
        touching[absorbed] = None

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
            _identify_corners(union, head, a, b, False)


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
                # null, a missing key or [] is "none"; any other value must be a list
                provenance=None if provenance in (None, []) else _int_tuple(provenance, f"face {f} provenance", 2),
                corner_images=None if corners in (None, []) else _int_tuple(corners, f"face {f} corner_images"),
            )
        )
    entries = doc.get("gluing", [])
    if not isinstance(entries, list):
        raise ParseError(f"gluing must be a list of [slot, slot, flipped] entries, got {entries!r}")
    gluing = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"gluing entry must be [slot, slot, flipped], got {entry!r}")
        a, b, flip = entry
        if not isinstance(flip, bool):
            raise ParseError(f"gluing flag must be true or false, got {flip!r}")
        gluing.append((_int_tuple(a, "glued slot", 2), _int_tuple(b, "glued slot", 2), flip))
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
    class_of, nxt = index.class_of, index.slots.next
    lines = ["graph surface {"]
    for i in range(len(index.free_sides)):  # one entry per class
        lines.append(f'  v{i} [label="v{i}"];')
    for x, m in enumerate(index.mate):
        t, h = class_of[x], class_of[nxt[x]]
        if m < 0:
            lines.append(f'  v{t} -- v{h} [color=red, penwidth=2];')
        elif x < m:
            lines.append(f"  v{t} -- v{h};")
    lines.append("}")
    return "\n".join(lines)
