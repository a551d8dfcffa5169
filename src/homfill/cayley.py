"""Bounded pieces of the homological Cayley complex and the chain operators.

A ball stores the vertices within a radius of the identity, every labeled
edge between stored vertices, and one 2-cell per (base vertex, marked
relator) whose full boundary loop stays inside the ball.  Indexing is
deterministic: vertices in BFS-lexicographic discovery order, edges by
(source, generator), cells by (base, relator).

One breadth-first pass builds the ball with one normal-form product
(``backend.times``) per edge.  Below the radius it visits v*x for every
signed letter x, at the radius only v*g; a product v*x = u also enters
u*x^-1 = v, and a (vertex, letter) whose target is already entered takes
no product.  A vertex's coset label is read off its normal form.  The BFS
layers are the distances, and the recorded targets become one neighbour
table, ``succ[v][letter] -> edge`` (-1 when the edge leaves the ball),
indexed by the signed letter itself; ``hop``, ``step``, cell construction,
word tracing and edge lookups read it.  After the build only ``vertex_of``
calls ``normal_form``; a breadth-first tree read off the distances and
the table on first use (``CayleyBall.tree``) lets an FA table's carries
place vertices by walks instead.  Maps between balls that are fixed per
ball pair (translation by a coset, possibly after a lift) are
``Placement`` tables kept on a ball: each edge or cell carried through the
map keeps its target, found on first carry, and a vertex is placed
through ``vertex_of`` only then.

A vertex, edge or cell that a ball lacks (``vertex_of``, ``step``,
``cell_at``, and so the carries between balls) raises the ResourceError of
``CayleyBall._outside``: the ball's radius and generators, and a radius whose
ball holds the piece.  No other module words a missing-piece error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .backends import ExtensionBackend, GroupBackend, letter_order, stable_suffix_start, vertex_budget_default
from .errors import DomainError, InvariantError, ResourceError
from .exactlp import FillSystem
from .presentation import HomPresentation
from .words import Word, check_letters, format_word


class _Chain:
    """Sparse integer chain, id -> coefficient; zero coefficients are dropped
    on build.  Chains are equal when they have the same class and the same
    coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if isinstance(coeffs, dict):  # distinct keys: nothing to accumulate
            self.coeffs: dict[int, int] = (
                dict(coeffs) if all(coeffs.values()) else {k: c for k, c in coeffs.items() if c}
            )
            return
        self.coeffs = {}
        for k, c in coeffs or ():
            if c:
                self.coeffs[k] = self.coeffs.get(k, 0) + c
                if not self.coeffs[k]:
                    del self.coeffs[k]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def scale(self, k: int):
        return type(self)({x: k * c for x, c in self.coeffs.items()})

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class OneCycle(_Chain):
    """Sparse integer edge chain; hashable by its coefficients."""

    __slots__ = ()

    def __hash__(self):
        return hash(self.key())

    def __neg__(self) -> "OneCycle":
        return OneCycle({e: -c for e, c in self.coeffs.items()})

    def length(self) -> int:
        return sum(map(abs, self.coeffs.values()))


class TwoChain(_Chain):
    """Sparse integer cell chain; unhashable."""

    __slots__ = ()

    def __sub__(self, other: "TwoChain") -> "TwoChain":
        return self + TwoChain({s: -c for s, c in other.coeffs.items()})

    def area(self) -> int:
        return sum(map(abs, self.coeffs.values()))


@dataclass(frozen=True, slots=True)
class Cell:
    base: int
    relator: int
    boundary: tuple[tuple[int, int], ...]  # (edge index, traversal sign)


@dataclass(eq=False)
class CayleyBall:
    """One ball's tables, as ``build_ball`` indexes them: vertices with their
    normal forms and distances, edges, the neighbour table ``succ``, cells
    and coset labels.  What depends on the ball alone and only some callers
    read is derived on first use and kept: ``tree`` (a breadth-first parent
    per vertex, for walks), ``net_columns``, ``collapse``, ``fill_system``
    and the surface and coset views; a build computes none of them."""

    backend: GroupBackend
    hom_pres: HomPresentation
    radius: int
    vertices: list[Word]
    vertex_index: dict[Word, int]
    distance: list[int]
    edges: list[tuple[int, int, int]]  # (source, generator 1-based, target)
    # [v][+-g] -> edge along that letter, or -1: a row has 2 * rank + 1
    # entries, +g at g and -g counted from the end, so the letter indexes it
    succ: list[tuple[int, ...]]
    cells: list[Cell]
    # [v * relator count + r] -> the cell of relator r based at v, or -1
    cell_ids: list[int]
    coset_labels: list[Word] = field(default_factory=list)
    # placement tables built on first use by the layers that place vertices
    # from one ball in another (extension.py)
    placements: dict = field(default_factory=dict, repr=False)

    @property
    def generators(self) -> tuple[str, ...]:
        return self.hom_pres.generators

    def _outside(self, piece: str, radius: int) -> ResourceError:
        """The error for a vertex, edge or cell that this ball lacks."""
        return ResourceError(
            f"{piece} is outside the radius-{self.radius} ball over {' '.join(self.generators)};"
            f" radius {radius} holds it"
        )

    def vertex_of(self, w: Word) -> int:
        """The vertex of w, or ``_outside`` naming its normal form's length."""
        nf = self.backend.normal_form(w)
        v = self.vertex_index.get(nf)
        if v is None:
            raise self._outside(f"vertex {format_word(nf, self.generators)}", len(nf))
        return v

    def hop(self, vertex: int, letter: int) -> tuple[int, int, int] | None:
        """(edge, sign, next vertex) along one letter, or None when that edge
        leaves the ball."""
        row = self.succ[vertex]
        edge = row[letter] if 0 < abs(letter) <= len(row) // 2 else -1
        if edge < 0:
            return None
        if letter > 0:
            return edge, 1, self.edges[edge][2]
        return edge, -1, self.edges[edge][0]

    def cell_vertices(self, cell: int) -> tuple[int, ...]:
        """The vertex before each boundary step of a cell; [0] is its base."""
        edges = self.edges
        return tuple(edges[e][0] if sign > 0 else edges[e][2] for e, sign in self.cells[cell].boundary)

    def step(self, vertex: int, letter: int) -> tuple[int, int, int]:
        """Traverse one letter: (edge, sign, next vertex), or ``_outside``
        naming radius + 1 when that edge leaves the ball."""
        hop = self.hop(vertex, letter)
        if hop is None:
            names = self.generators
            check_letters((letter,), len(names))
            edge = f"edge {format_word((letter,), names)} from {format_word(self.vertices[vertex], names) or 'e'}"
            raise self._outside(edge, self.radius + 1)
        return hop

    def cell_at(self, base: int, relator: int) -> int:
        """The cell of a relator based at a vertex, or ``_outside`` naming the
        base's distance plus half the relator's length, which holds its loop."""
        width = len(self.hom_pres.base.relators)
        cell = self.cell_ids[base * width + relator] if 0 <= relator < width else -1
        if cell < 0:
            if relator not in self.hom_pres.marked_relators:
                raise DomainError(f"relator {relator} is not a marked relator of the ball")
            where = format_word(self.vertices[base], self.generators) or "e"
            loop = len(self.hom_pres.base.relators[relator])
            raise self._outside(f"cell of relator {relator} at {where}", self.distance[base] + loop // 2)
        return cell

    @cached_property
    def tree(self) -> list[tuple[int, int] | None]:
        """A breadth-first tree of the ball: (parent, letter) for each vertex
        other than the identity (None there), with vertex = parent * letter
        and the parent one step nearer the identity, the first letter x in
        letter order with vertex * x that near giving parent = vertex * x and
        letter = x^-1.  Read off ``distance`` and ``succ``; built on first
        use."""
        distance, hop = self.distance, self.hop
        tree: list[tuple[int, int] | None] = [None]
        letters = tuple(letter_order(self.backend.rank))
        for v in range(1, len(self.vertices)):
            nearer = distance[v] - 1
            tree.append(
                next(
                    (step[2], -x)
                    for x in letters
                    if (step := hop(v, x)) is not None and distance[step[2]] == nearer
                )
            )
        return tree

    @cached_property
    def net_columns(self) -> list[dict[int, int]]:
        """Net boundary coefficient per edge for every cell (doubled traversals
        merge to +-2, opposite traversals cancel); built on first use."""
        cols = []
        for cell in self.cells:
            col: dict[int, int] = {}
            for edge, sign in cell.boundary:
                col[edge] = col.get(edge, 0) + sign
                if not col[edge]:
                    del col[edge]
            cols.append(col)
        return cols

    @cached_property
    def collapse(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], frozenset[int]]:
        """The ball's forced-cell collapse: (cell, free edge) pairs in removal
        order, each cell being the only one left on that edge when it goes,
        then the cells that remain and the edges they still touch.  It
        depends on the ball alone; built on first use."""
        columns = self.net_columns
        incident: dict[int, set[int]] = {}
        for c, col in enumerate(columns):
            for e in col:
                incident.setdefault(e, set()).add(c)
        queue = [e for e in incident if len(incident[e]) == 1]
        alive = set(range(len(columns)))
        order = []
        while queue:
            e = queue.pop()
            if len(incident[e]) != 1:
                continue
            (c,) = incident[e]
            order.append((c, e))
            alive.remove(c)
            for e2 in columns[c]:
                incident[e2].discard(c)
                if len(incident[e2]) == 1:
                    queue.append(e2)
        return tuple(order), tuple(sorted(alive)), frozenset(e for e, cs in incident.items() if cs)

    @cached_property
    def collapse_position(self) -> dict[int, int]:
        """Each free edge of the collapse -> its position in the removal
        order; an edge is freed at most once.  Built on first use."""
        return {e: p for p, (_, e) in enumerate(self.collapse[0])}

    @cached_property
    def fill_system(self) -> FillSystem:
        """The exact-fill system (``exactlp.FillSystem``) of the cells the
        collapse leaves, over the edges they touch; every fill that peeling
        does not finish solves it for its own right-hand side.  Built on
        first use."""
        _, remaining, touched = self.collapse
        columns = self.net_columns
        return FillSystem([columns[c] for c in remaining], sorted(touched))

    @cached_property
    def oriented_faces(self) -> list:
        """The surface-diagram face of every cell entered with each
        orientation: cell c's at ``2 * c`` and its reverse at ``2 * c + 1``,
        None until ``surface.oriented_face`` first builds it.  Every diagram
        on the ball shares these faces.  Built on first use."""
        return [None] * (2 * len(self.cells))

    @cached_property
    def cell_cosets(self) -> list[tuple[Word, ...]]:
        """The distinct coset labels along each cell's vertex path, shortest
        first: one for a cell inside a coset, two for a conjugation cell,
        whose longer label is the shorter plus one stable letter.  An edge
        lies in a coset when both its endpoints carry that label.  Built on
        first use."""
        labels = self.coset_labels
        shared: dict[tuple[Word, ...], tuple[Word, ...]] = {}  # one tuple per distinct value
        return [
            shared.setdefault(key, key)
            for key in (
                tuple(sorted({labels[v] for v in self.cell_vertices(c)}, key=len)) for c in range(len(self.cells))
            )
        ]

    @cached_property
    def edge_cosets(self) -> list[Word | None]:
        """The coset label of each edge, the one both its endpoints carry, or
        None for an edge that joins two cosets.  Built on first use."""
        labels = self.coset_labels
        return [labels[s] if labels[s] == labels[t] else None for s, _, t in self.edges]


class Placement:
    """Where a map sends the vertices of one ball in the ball ``dst``: x
    goes to the vertex of the word ``word(x)``.  ``edges`` and ``cells``
    keep the dst edge and cell that ``carry_cycle`` and ``carry_chain``
    found for each source edge and cell (a conjugation placement's
    ``cells``, each kernel edge's conjugation cell), so a vertex is placed
    only when a piece is first carried; a piece dst lacks is never kept, so
    it raises again when carried again."""

    __slots__ = ("dst", "word", "edges", "cells")

    def __init__(self, dst: "CayleyBall", word):
        self.dst = dst
        self.word = word
        self.edges: dict[int, int] = {}
        self.cells: dict[int, int] = {}

    def vertex(self, x: int) -> int:
        """The vertex of ``word(x)``; ``dst.vertex_of``'s ResourceError when
        it lies outside dst."""
        return self.dst.vertex_of(self.word(x))


def build_ball(
    backend: GroupBackend,
    hom_pres: HomPresentation,
    radius: int,
    vertex_budget: int | None = None,
) -> CayleyBall:
    if radius < 1:
        raise DomainError("radius must be >= 1")
    if hom_pres.rank != backend.rank:
        raise DomainError("presentation and backend disagree on generator count")
    budget = vertex_budget if vertex_budget is not None else vertex_budget_default()
    rank, times = backend.rank, backend.times
    vertices: list[Word] = [()]  # the identity's normal form is the empty word
    vertex_index = {(): 0}
    distance = [0]
    # neighbour-table rows; the letter x holds the vertex of v*x (-1 unknown
    # or outside) until the edges are numbered
    rows = [[-1] * (2 * rank + 1)]
    frontier = [0]
    for d in range(radius + 1):
        # at the radius only +g: its targets in the ball are all found by now
        letters = tuple(letter_order(rank)) if d < radius else range(1, rank + 1)
        new = []
        for v in sorted(frontier, key=vertices.__getitem__):
            word, row = vertices[v], rows[v]
            for letter in letters:
                if row[letter] >= 0:  # entered from the other end of its edge
                    continue
                nf = times(word, (letter,))
                u = vertex_index.get(nf, -1)
                if u < 0 and d < radius:
                    u = vertex_index[nf] = len(vertices)
                    vertices.append(nf)
                    distance.append(d + 1)
                    rows.append([-1] * (2 * rank + 1))
                    new.append(u)
                    if len(vertices) > budget:
                        raise ResourceError(
                            f"ball exceeds vertex budget {budget}"
                            " (HOMFILL_BUDGET_VERTICES or --budget-vertices raises it)"
                        )
                if u >= 0:
                    row[letter] = u
                    rows[u][-letter] = v
        frontier = new

    edges: list[tuple[int, int, int]] = []
    # the (edge, sign) pairs of cell boundaries: one tuple per pair, shared
    # by every cell that traverses it
    traversals: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for source, row in enumerate(rows):
        for g in range(1, rank + 1):
            target = row[g]
            if target >= 0:
                e = len(edges)
                row[g] = e
                rows[target][-g] = e
                edges.append((source, g, target))
                traversals.append(((e, 1), (e, -1)))

    ball = CayleyBall(
        backend=backend,
        hom_pres=hom_pres,
        radius=radius,
        vertices=vertices,
        vertex_index=vertex_index,
        distance=distance,
        edges=edges,
        succ=[tuple(row) for row in rows],
        cells=[],
        cell_ids=[-1] * (len(vertices) * len(hom_pres.base.relators)),
    )
    marked = hom_pres.marked_relators
    for base in range(len(vertices)):
        for r in marked:
            boundary = []
            v = base
            for letter in hom_pres.base.relators[r]:
                hop = ball.hop(v, letter)
                if hop is None:
                    break
                edge, sign, v = hop
                boundary.append(traversals[edge][sign < 0])
            else:
                if v != base:
                    raise InvariantError("relator loop did not close in the ball")
                ball.cell_ids[base * len(hom_pres.base.relators) + r] = len(ball.cells)
                ball.cells.append(Cell(base, r, tuple(boundary)))

    # an extension normal form's stable-letter suffix is its coset label;
    # other backends have one coset, ()
    k_rank = backend.k_rank if isinstance(backend, ExtensionBackend) else rank
    labels: dict[Word, Word] = {}  # one tuple per distinct label
    for nf in vertices:
        label = nf[stable_suffix_start(nf, k_rank) :]
        ball.coset_labels.append(labels.setdefault(label, label))
    return ball


def boundary_2(ball: CayleyBall, chain: TwoChain) -> OneCycle:
    acc: dict[int, int] = {}
    get, cells = acc.get, ball.cells
    for cell, coeff in chain.coeffs.items():
        for edge, sign in cells[cell].boundary:
            acc[edge] = get(edge, 0) + coeff * sign
    return OneCycle(acc)


def vertex_incidence(ball: CayleyBall, cycle: OneCycle) -> dict[int, int]:
    acc: dict[int, int] = {}
    for edge, coeff in cycle.coeffs.items():
        source, _, target = ball.edges[edge]
        acc[target] = acc.get(target, 0) + coeff
        acc[source] = acc.get(source, 0) - coeff
    return {v: c for v, c in acc.items() if c}


def is_cycle(ball: CayleyBall, cycle: OneCycle) -> bool:
    return not vertex_incidence(ball, cycle)


def trace_word(ball: CayleyBall, start: int, w: Word) -> tuple[list[tuple[int, int]], int]:
    """Trace ``w`` edge by edge from a vertex; error names the failing prefix."""
    steps = []
    v = start
    for pos, letter in enumerate(w):
        try:
            edge, sign, v = ball.step(v, letter)
        except ResourceError as exc:
            prefix = format_word(w[: pos + 1], ball.generators)
            raise ResourceError(f"path exits ball after prefix '{prefix}': {exc}") from exc
        steps.append((edge, sign))
    return steps, v


def loop_to_cycle(ball: CayleyBall, base: int, w: Word) -> OneCycle:
    steps, end = trace_word(ball, base, w)
    if end != base:
        raise DomainError(
            f"word '{format_word(w, ball.generators)}' does not close at its base vertex"
        )
    return OneCycle(steps)


def carry_chain(src: CayleyBall, dst: CayleyBall, chain: TwoChain, place: Placement) -> TwoChain:
    """Carry a 2-chain from one ball to ``place.dst``: the cell based at x
    with relator r goes to the cell based at ``place.vertex(x)`` with
    relator r.  A vertex or cell that dst lacks raises its ResourceError.
    Each target is kept in ``place.cells``, so src must be the ball whose
    vertices ``place`` places."""
    out: dict[int, int] = {}
    kept = place.cells
    for cell, coeff in chain.coeffs.items():
        target = kept.get(cell)
        if target is None:
            c = src.cells[cell]
            target = kept[cell] = dst.cell_at(place.vertex(c.base), c.relator)
        out[target] = out.get(target, 0) + coeff
    return TwoChain(out)


def carry_cycle(src: CayleyBall, dst: CayleyBall, cycle: OneCycle, place: Placement) -> OneCycle:
    """Carry a 1-chain from one ball to ``place.dst``: the edge from x
    labelled g goes to the edge from ``place.vertex(x)`` labelled g.  A
    vertex or edge that dst lacks raises its ResourceError.  Each target is
    kept in ``place.edges``, so src must be the ball whose vertices
    ``place`` places."""
    out: dict[int, int] = {}
    kept = place.edges
    for edge, coeff in cycle.coeffs.items():
        target = kept.get(edge)
        if target is None:
            source, label, _ = src.edges[edge]
            target = kept[edge] = dst.step(place.vertex(source), label)[0]
        out[target] = out.get(target, 0) + coeff
    return OneCycle(out)


def ball_to_json(ball: CayleyBall) -> dict:
    names = ball.generators
    return {
        "radius": ball.radius,
        "generators": list(names),
        "vertices": [format_word(w, names) or "e" for w in ball.vertices],
        "edges": [[s, names[g - 1], t] for s, g, t in ball.edges],
        "cells": [
            [c.base, c.relator, [[e, sign] for e, sign in c.boundary]] for c in ball.cells
        ],
    }


def dump_ball(ball: CayleyBall) -> str:
    return json.dumps(ball_to_json(ball), sort_keys=True, indent=2)
