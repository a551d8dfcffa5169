"""Bounded pieces of the homological Cayley complex and the chain operators.

A ball stores the vertices within a radius of the identity, every labeled
edge between stored vertices, and one 2-cell per (base vertex, marked
relator) whose full boundary loop stays inside the ball.  Indexing is
deterministic: vertices in BFS-lexicographic discovery order, edges by
(source, generator), cells by (base, relator).

Normal forms are computed once per ball, to enumerate the vertices and to
find each vertex's outgoing edges.  The edge list is then indexed into one
neighbour table, ``succ[v][letter] -> (edge, sign, next vertex)`` with an
entry for both ``+g`` and ``-g``; ``step``, cell construction, word tracing,
edge lookups and hop distances are all lookups in that table.  Only
``vertex_of``, which places arbitrary words, still calls ``normal_form``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .backends import GroupBackend, enumerate_ball_vertices
from .errors import DomainError, InvariantError
from .presentation import HomPresentation
from .words import Word, format_word


class OneCycle:
    """Sparse integer edge chain; zero coefficients are dropped on build."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for e, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if c:
                    self.coeffs[e] = self.coeffs.get(e, 0) + c
                    if not self.coeffs[e]:
                        del self.coeffs[e]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, OneCycle) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "OneCycle") -> "OneCycle":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return OneCycle(out)

    def __neg__(self) -> "OneCycle":
        return OneCycle({e: -c for e, c in self.coeffs.items()})

    def scale(self, k: int) -> "OneCycle":
        return OneCycle({e: k * c for e, c in self.coeffs.items()})

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    def length(self) -> int:
        return sum(abs(c) for c in self.coeffs.values())

    def __repr__(self):
        return f"OneCycle({self.coeffs!r})"


class TwoChain:
    """Sparse integer cell chain."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for s, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if c:
                    self.coeffs[s] = self.coeffs.get(s, 0) + c
                    if not self.coeffs[s]:
                        del self.coeffs[s]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, TwoChain) and self.coeffs == other.coeffs

    def __add__(self, other: "TwoChain") -> "TwoChain":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return TwoChain(out)

    def __sub__(self, other: "TwoChain") -> "TwoChain":
        return self + TwoChain({s: -c for s, c in other.coeffs.items()})

    def scale(self, k: int) -> "TwoChain":
        return TwoChain({s: k * c for s, c in self.coeffs.items()})

    def key(self):
        return tuple(sorted(self.coeffs.items()))

    def area(self) -> int:
        return sum(abs(c) for c in self.coeffs.values())

    def __repr__(self):
        return f"TwoChain({self.coeffs!r})"


@dataclass(frozen=True)
class Cell:
    base: int
    relator: int
    boundary: tuple[tuple[int, int], ...]  # (edge index, traversal sign)
    vertex_path: tuple[int, ...]  # vertex before each boundary step; [0] = base


@dataclass
class CayleyBall:
    backend: GroupBackend
    hom_pres: HomPresentation
    radius: int
    vertices: list[Word]
    vertex_index: dict[Word, int]
    distance: list[int]
    edges: list[tuple[int, int, int]]  # (source, generator 1-based, target)
    succ: list[dict[int, tuple[int, int, int]]]  # [v][+-g] -> (edge, sign, next)
    cells: list[Cell]
    cell_index: dict[tuple[int, int], int] = field(default_factory=dict)
    coset_labels: list[Word] = field(default_factory=list)

    @property
    def generators(self) -> tuple[str, ...]:
        return self.hom_pres.generators

    def vertex_of(self, w: Word) -> int:
        nf = self.backend.normal_form(w)
        if nf not in self.vertex_index:
            raise DomainError(f"vertex {format_word(nf, self.generators) or 'e'} outside ball")
        return self.vertex_index[nf]

    def step(self, vertex: int, letter: int) -> tuple[int, int, int]:
        """Traverse one letter: returns (edge, sign, next vertex) or raises."""
        hop = self.succ[vertex].get(letter)
        if hop is None:
            raise DomainError(
                f"path leaves ball at prefix ending {format_word((letter,), self.generators)}"
                f" from {format_word(self.vertices[vertex], self.generators) or 'e'}"
            )
        return hop

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
    def cell_cosets(self) -> list[tuple[Word, ...]]:
        """The distinct coset labels along each cell's vertex path, shortest
        first: one for a cell inside a coset, two for a conjugation cell,
        whose longer label is the shorter plus one stable letter.  An edge
        lies in a coset when both its endpoints carry that label.  Built on
        first use."""
        labels = self.coset_labels
        return [
            tuple(sorted({labels[v] for v in cell.vertex_path}, key=len))
            for cell in self.cells
        ]


def hop_distances(succ: list[dict[int, tuple[int, int, int]]], sources) -> list[int]:
    """Hop distances from a vertex set over the ball 1-skeleton; vertices the
    sources cannot reach get ``len(succ) + 1``."""
    dist = [len(succ) + 1] * len(succ)
    frontier = sorted(sources)
    for v in frontier:
        dist[v] = 0
    d = 0
    while frontier:
        d += 1
        new = []
        for v in frontier:
            for _, _, u in succ[v].values():
                if dist[u] > d:
                    dist[u] = d
                    new.append(u)
        frontier = new
    return dist


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
    vertices = enumerate_ball_vertices(backend, radius, vertex_budget)
    vertex_index = {w: i for i, w in enumerate(vertices)}

    edges: list[tuple[int, int, int]] = []
    succ: list[dict[int, tuple[int, int, int]]] = [{} for _ in vertices]
    for source, word in enumerate(vertices):
        for g in range(1, backend.rank + 1):
            target = vertex_index.get(backend.normal_form(word + (g,)))
            if target is not None:
                succ[source][g] = (len(edges), 1, target)
                succ[target][-g] = (len(edges), -1, source)
                edges.append((source, g, target))

    ball = CayleyBall(
        backend=backend,
        hom_pres=hom_pres,
        radius=radius,
        vertices=vertices,
        vertex_index=vertex_index,
        distance=hop_distances(succ, [0]),
        edges=edges,
        succ=succ,
        cells=[],
    )

    marked = hom_pres.marked_relators
    for base in range(len(vertices)):
        for r in marked:
            boundary = []
            path = []
            v = base
            for letter in hom_pres.base.relators[r]:
                path.append(v)
                hop = succ[v].get(letter)
                if hop is None:
                    break
                edge, sign, v = hop
                boundary.append((edge, sign))
            else:
                if v != base:
                    raise InvariantError("relator loop did not close in the ball")
                ball.cell_index[(base, r)] = len(ball.cells)
                ball.cells.append(Cell(base, r, tuple(boundary), tuple(path)))

    ball.coset_labels = [backend.coset_label(w) for w in vertices]
    return ball


def cell_boundary(ball: CayleyBall, cell: int) -> OneCycle:
    return OneCycle(list(ball.cells[cell].boundary))


def boundary_2(ball: CayleyBall, chain: TwoChain) -> OneCycle:
    acc: dict[int, int] = {}
    for cell, coeff in chain.coeffs.items():
        for edge, sign in ball.cells[cell].boundary:
            acc[edge] = acc.get(edge, 0) + coeff * sign
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
        except DomainError as exc:
            prefix = format_word(w[: pos + 1], ball.generators)
            raise DomainError(f"path exits ball after prefix '{prefix}': {exc}") from exc
        steps.append((edge, sign))
    return steps, v


def loop_to_cycle(ball: CayleyBall, base: int, w: Word) -> OneCycle:
    steps, end = trace_word(ball, base, w)
    if end != base:
        raise DomainError(
            f"word '{format_word(w, ball.generators)}' does not close at its base vertex"
        )
    return OneCycle(steps)


def translate_vertex(ball: CayleyBall, g: Word, vertex: int) -> int:
    """Image of a vertex under left multiplication by ``g`` (must stay in ball)."""
    return ball.vertex_of(tuple(g) + ball.vertices[vertex])


def carry_chain(src: CayleyBall, dst: CayleyBall, chain: TwoChain, place) -> TwoChain:
    """Carry a 2-chain from one ball to another: the cell based at x with
    relator r goes to the cell based at ``place(x)`` with relator r.
    ``place`` returns None for a vertex with no image in ``dst``; that, or
    a missing destination cell, raises ``KeyError(x)``."""
    out: dict[int, int] = {}
    for cell, coeff in chain.coeffs.items():
        c = src.cells[cell]
        target = dst.cell_index.get((place(c.base), c.relator))
        if target is None:
            raise KeyError(c.base)
        out[target] = out.get(target, 0) + coeff
    return TwoChain(out)


def carry_cycle(src: CayleyBall, dst: CayleyBall, cycle: OneCycle, place) -> OneCycle:
    """Carry a 1-chain from one ball to another: the edge from x labelled g
    goes to the edge from ``place(x)`` labelled g.  ``place`` returns None
    for a vertex with no image in ``dst``; that, or a missing destination
    edge, raises ``KeyError(x)``."""
    out: dict[int, int] = {}
    for edge, coeff in cycle.coeffs.items():
        source, label, _ = src.edges[edge]
        v = place(source)
        hop = None if v is None else dst.succ[v].get(label)
        if hop is None:
            raise KeyError(source)
        out[hop[0]] = out.get(hop[0], 0) + coeff
    return OneCycle(out)


def translate_chain(ball: CayleyBall, g: Word, chain: TwoChain) -> TwoChain:
    """Left-translate a 2-chain; the H-action sends the cell based at x with
    relator r to the cell based at g*x with the same relator."""
    try:
        return carry_chain(ball, ball, chain, lambda x: translate_vertex(ball, g, x))
    except KeyError:
        raise DomainError("translated cell leaves the ball") from None


def translate_cycle(ball: CayleyBall, g: Word, cycle: OneCycle) -> OneCycle:
    try:
        return carry_cycle(ball, ball, cycle, lambda x: translate_vertex(ball, g, x))
    except KeyError:
        raise DomainError("translated edge leaves the ball") from None


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
