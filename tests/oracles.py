"""Reference computations that the tests and golden records compare the
library with: the ball build that takes one normal form per (vertex,
letter) (an oracle for ``cayley.build_ball``'s one product per edge), hop
distances over a ball's 1-skeleton (an oracle for the
distances the one-pass build records), the ordered boundary paths of a
surface diagram (recorded by the ``surface-index:*`` golden sections), a
diagram's radius from its (face, position) views (an oracle for
``surface.diagram_radius``), the walk around each vertex class's link (a
check of the link condition that ``surface.SurfaceIndex`` proves and of
its free sides), the exact-fill checks in Python integers
(oracles for ``exactlp``'s int64 ``as_chain`` and ``lower_bound``), a
local LP whose rows are numbered by sorting (an oracle for
``exactlp.local_lp``'s row mask),
forced-cell peeling over the whole collapse order (an oracle for
``filling._peel_forced``), the identity loop walk that looks up every
step in the ball's tables (an oracle for
``filling.enumerate_identity_cycles``), coset membership from both
endpoints' labels (an oracle for ``CayleyBall.edge_cosets`` and
``extension.restrict_to_coset``) and the FA table that fills every loop
on its own (an oracle for ``filling.fa_estimate``'s reuse across word
classes)."""

from collections import Counter

import numpy as np

from homfill.backends import letter_order
from homfill.cayley import CayleyBall, Cell, OneCycle
from homfill.errors import DomainError, InvariantError
from homfill.exactlp import DUAL_SCALE, FillSystem, LocalLP
from homfill.filling import FAEntry, FATable, enumerate_identity_cycles, harea_fill, running_max
from homfill.surface import SlotRef, SurfaceDiagram, SurfaceIndex, _glued
from homfill.words import format_word


def build_ball_reference(backend, hom_pres, radius: int) -> CayleyBall:
    """``cayley.build_ball`` as one normal form of v*x per (vertex, letter):
    below the radius every signed letter, at the radius every generator,
    with only the +g targets entered before the edges are numbered.  The
    cells are the relator loops walked in the neighbour table, and each
    vertex's coset label is the t-part of ``split`` (the empty word for a
    backend without one)."""
    rank = backend.rank
    vertices, vertex_index, distance = [()], {(): 0}, [0]
    rows = [[-1] * (2 * rank + 1)]
    frontier = [0]
    for d in range(radius + 1):
        letters = tuple(letter_order(rank)) if d < radius else range(1, rank + 1)
        new = []
        for v in sorted(frontier, key=vertices.__getitem__):
            for letter in letters:
                nf = backend.normal_form(vertices[v] + (letter,))
                u = vertex_index.get(nf, -1)
                if u < 0 and d < radius:
                    u = vertex_index[nf] = len(vertices)
                    vertices.append(nf)
                    distance.append(d + 1)
                    rows.append([-1] * (2 * rank + 1))
                    new.append(u)
                if letter > 0:
                    rows[v][letter] = u
        frontier = new
    edges = []
    for source, row in enumerate(rows):
        for g in range(1, rank + 1):
            if row[g] >= 0:
                target, row[g] = row[g], len(edges)
                rows[target][-g] = len(edges)
                edges.append((source, g, target))
    relators = hom_pres.base.relators
    cells, cell_ids = [], [-1] * (len(vertices) * len(relators))
    for base in range(len(vertices)):
        for r in hom_pres.marked_relators:
            boundary, v = [], base
            for letter in relators[r]:
                e = rows[v][letter]
                if e < 0:
                    break
                sign = 1 if letter > 0 else -1
                boundary.append((e, sign))
                v = edges[e][2] if sign > 0 else edges[e][0]
            else:
                assert v == base
                cell_ids[base * len(relators) + r] = len(cells)
                cells.append(Cell(base, r, tuple(boundary)))
    split = getattr(backend, "split", None)
    return CayleyBall(
        backend=backend,
        hom_pres=hom_pres,
        radius=radius,
        vertices=vertices,
        vertex_index=vertex_index,
        distance=distance,
        edges=edges,
        succ=[tuple(row) for row in rows],
        cells=cells,
        cell_ids=cell_ids,
        coset_labels=[split(v).t_part if split else () for v in vertices],
    )


def hop_distances(ball: CayleyBall, sources) -> list[int]:
    """Hop distances from a vertex set over the ball 1-skeleton; vertices the
    sources cannot reach get ``len(ball.vertices) + 1``."""
    succ, edges = ball.succ, ball.edges
    dist = [len(succ) + 1] * len(succ)
    frontier = sorted(sources)
    for v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        d += 1
        new = []
        for v in frontier:
            for edge in succ[v]:
                if edge < 0:
                    continue
                source, _, u = edges[edge]
                if u == v:
                    u = source
                if dist[u] > d:
                    dist[u] = d
                    new.append(u)
        frontier = new
    return dist


def boundary_paths(diagram: SurfaceDiagram) -> list[list[SlotRef]]:
    """Cyclically ordered unmatched slots per boundary component (orientation
    follows the faces; only meaningful for flip-free diagrams, which is all
    assembled ones)."""
    index = _glued(diagram)
    mate, flipped, nxt, refs = index.mate, index.flipped, index.slots.next, index.slots.refs
    limit = 4 * len(mate)
    walked = [m >= 0 for m in mate]
    paths = []
    for start in range(len(mate)):
        if walked[start]:
            continue
        path = []
        s = start
        while True:
            path.append(refs[s])
            walked[s] = True
            x = nxt[s]
            guard = 0
            while mate[x] >= 0:
                if flipped[x]:
                    raise DomainError("ordered boundary paths need a flip-free diagram")
                x = nxt[mate[x]]
                guard += 1
                if guard > limit:
                    raise InvariantError("boundary walk does not terminate")
            if x == start:
                break
            s = x
        paths.append(path)
    return paths


def radius_reference(diagram: SurfaceDiagram) -> int | None:
    """A valid diagram's radius read off its (face, position) views alone:
    breadth-first from the classes of the boundary slots' corners over one
    1-skeleton edge per glued pair and per boundary slot; None when some
    class is not reached."""
    index = diagram.index
    class_at = {corner: k for k, cls in enumerate(index.classes) for corner in cls}

    def ends(slot: SlotRef) -> tuple[int, int]:
        f, p = slot
        return class_at[slot], class_at[(f, (p + 1) % len(diagram.faces[f].slots))]

    neighbours: dict[int, set[int]] = {k: set() for k in range(len(index.classes))}
    for slot in [a for a, _, _ in diagram.gluing] + index.unmatched:
        t, h = ends(slot)
        neighbours[t].add(h)
        neighbours[h].add(t)
    dist = {k: 0 for slot in index.unmatched for k in ends(slot)}
    frontier = sorted(dist)
    while frontier:
        new = []
        for k in frontier:
            for u in sorted(neighbours[k]):
                if u not in dist:
                    dist[u] = dist[k] + 1
                    new.append(u)
        frontier = new
    if len(dist) < len(index.classes):
        return None
    return max(dist.values(), default=0)


def link_reference(index: SurfaceIndex) -> list[tuple[int, int]]:
    """Walk the link of every class of an index that got past the class
    stage: from the class's lower free side, or from the tail side of its
    least corner when it has none, cross each corner to its other side and
    each glued pair to the next corner.  Per class, the number of corners
    passed and the free side the walk stopped on, or -1 when it came back
    to a corner it had passed."""
    mate, flipped, nxt, prv = index.mate, index.flipped, index.slots.next, index.slots.prev
    least: dict[int, int] = {}
    for x, k in enumerate(index.class_of):
        least.setdefault(k, x)
    walks = []
    for k, free in enumerate(index.free_sides):
        walked: set[int] = set()
        side = free[0] if free else 2 * least[k] + 1
        while True:
            x = side >> 1
            if side & 1:  # the tail of slot x: corner x, the head of prev[x]
                corner, other = x, 2 * prv[x]
            else:  # the head of slot x: the tail of next[x]
                corner = nxt[x]
                other = 2 * corner + 1
            if corner in walked:
                walks.append((len(walked), -1))
                break
            walked.add(corner)
            y = other >> 1
            if mate[y] < 0:
                walks.append((len(walked), other))
                break
            side = 2 * mate[y] + (other & 1 if flipped[y] else 1 - (other & 1))
    return walks


def contested(diagram: SurfaceDiagram) -> bool:
    """Whether ``assemble_surface`` glues the diagram's faces by its heap
    loop: some label occurs with its opposite while one of the two has
    several copies.  Otherwise the matching is forced."""
    labels = Counter(slot for face in diagram.faces for slot in face.slots)
    return any(count > 1 and (e, -sign) in labels for (e, sign), count in labels.items())


def solves(columns: list[dict[int, int]], coeffs: list[int], rhs: dict[int, int]) -> bool:
    """Whether sum_c coeffs[c] * columns[c] == rhs, in integer arithmetic."""
    acc: dict[int, int] = {}
    for v, col in zip(coeffs, columns):
        if v:
            for e, w in col.items():
                acc[e] = acc.get(e, 0) + v * w
    return {e: v for e, v in acc.items() if v} == {e: v for e, v in rhs.items() if v}


def lower_bound_reference(system: FillSystem, marginals, rhs: dict[int, int], lo: list[int], hi: list[int]) -> int:
    """``exactlp.lower_bound``'s bound in Python integers, column by column:
    the duals rounded half to even over DUAL_SCALE, and each column's
    summand the least of its values at lo_c, hi_c and, when the box holds
    it, 0."""
    y = [round(v * DUAL_SCALE) for v in map(float, marginals)]
    total = sum(s * v for s, v in zip(y, system.dense(rhs).tolist()))
    for col, l, h in zip(system.entries, lo, hi):
        s = sum(y[i] * v for i, v in col)
        low = min(DUAL_SCALE * abs(l) - s * l, DUAL_SCALE * abs(h) - s * h)
        total += min(low, 0) if l <= 0 <= h else low
    return -(-total // DUAL_SCALE)


def local_lp_reference(system: FillSystem, columns: np.ndarray, rhs_rows: np.ndarray) -> LocalLP:
    """``exactlp.local_lp`` with its rows numbered by sorting: the rows are
    the sorted union of the rows the columns touch and ``rhs_rows``, and
    each entry's local row is found in them by binary search."""
    matrix = system.matrix
    first = matrix.indptr[columns]
    count = matrix.indptr[columns + 1] - first
    cells = np.zeros(len(columns) + 1, dtype=np.int32)
    np.cumsum(count, out=cells[1:])
    nnz = int(cells[-1])
    at = np.arange(nnz) + np.repeat(first - cells[:-1], count)
    touched = matrix.indices[at]
    rows = np.union1d(touched, rhs_rows)
    r = len(rows)
    index = np.searchsorted(rows, touched).astype(np.int32)
    value = matrix.data[at].astype(float)
    eye = np.arange(r, dtype=np.int32)
    return LocalLP(
        columns,
        rows,
        np.concatenate([cells, nnz + cells[1:], 2 * nnz + 1 + np.arange(2 * r, dtype=np.int32)]),
        np.concatenate([index, index, eye, eye]),
        np.concatenate([value, -value, np.ones(r), -np.ones(r)]),
    )


def peel_reference(ball: CayleyBall, residual: dict[int, int]):
    """``filling._peel_forced`` as a walk over every entry of the ball's
    collapse order: (forced assignment, remaining cells, residual), or None
    when a forced value is non-integral or an edge no remaining cell touches
    stays nonzero."""
    columns = ball.net_columns
    order, remaining, touched = ball.collapse
    residual = {e: c for e, c in residual.items() if c}
    forced: dict[int, int] = {}
    for c, e in order:
        value = residual.get(e)
        if not value:
            continue
        a, rem = divmod(value, columns[c][e])
        if rem:
            return None
        forced[c] = a
        for e2, v in columns[c].items():
            residual[e2] = residual.get(e2, 0) - a * v
            if not residual[e2]:
                del residual[e2]
    if any(e not in touched for e in residual):
        return None
    return forced, remaining, residual


def identity_cycles_reference(ball: CayleyBall, max_len: int) -> list:
    """``filling.enumerate_identity_cycles`` as a walk that reads each step
    off ``ball.succ`` and ``ball.edges`` and returns from every vertex
    farther from the identity than the letters left: the same (canonical
    key, cycle, witness word) triples in the same order."""
    seen: set = set()
    word: list[int] = []
    counts: dict[int, int] = {}
    results = []
    letters = tuple(letter_order(ball.backend.rank))
    succ, edges, distance = ball.succ, ball.edges, ball.distance

    def dfs(vertex: int, depth: int):
        if distance[vertex] > depth:
            return
        if word and vertex == 0 and counts:
            key = tuple(sorted(counts.items()))
            canon = min(key, tuple((e, -c) for e, c in key))
            if canon not in seen:
                seen.add(canon)
                results.append((canon, OneCycle(counts), tuple(word)))
        if depth <= 0:
            return
        row = succ[vertex]
        for letter in letters:
            if word and word[-1] == -letter:
                continue
            edge = row[letter]
            if edge < 0:
                continue
            sign, nxt = (1, edges[edge][2]) if letter > 0 else (-1, edges[edge][0])
            word.append(letter)
            counts[edge] = counts.get(edge, 0) + sign
            if not counts[edge]:
                del counts[edge]
            dfs(nxt, depth - 1)
            word.pop()
            counts[edge] = counts.get(edge, 0) - sign
            if not counts[edge]:
                del counts[edge]

    dfs(0, max_len)
    return results


def in_coset_reference(ball: CayleyBall, edge: int, coset) -> bool:
    """Whether an edge lies in K(coset): both its endpoints carry the label."""
    labels = ball.coset_labels
    source, _, target = ball.edges[edge]
    return labels[source] == coset == labels[target]


def restrict_reference(ball: CayleyBall, cycle: OneCycle, coset) -> OneCycle:
    """The part of a 1-chain on the edges that lie in K(coset)."""
    return OneCycle({e: c for e, c in cycle.coeffs.items() if in_coset_reference(ball, e, coset)})


def fa_reference(ball: CayleyBall, n_max: int) -> FATable:
    """``filling.fa_estimate`` on a built ball, scope ``loops_only``, with
    one ``harea_fill`` per enumerated loop."""
    best = [0] * (n_max + 1)
    witness = [None] * (n_max + 1)
    examined = [0] * (n_max + 1)
    gaps = []
    names = ball.generators
    for _canon, cycle, word in enumerate_identity_cycles(ball, n_max):
        n = cycle.length()
        examined[n] += 1
        result = harea_fill(ball, cycle)
        if not result.optimal():
            gaps.append(f"{result.status} on loop '{format_word(word, names)}'")
            continue
        if result.area > best[n]:
            best[n] = result.area
            witness[n] = format_word(word, names)
    for n in range(1, n_max + 1):
        examined[n] += examined[n - 1]
    running_max(best, witness)
    entries = [FAEntry(best[n], witness[n], examined[n]) for n in range(n_max + 1)]
    return FATable(entries, ball.radius, "loops_only", gaps=gaps)
