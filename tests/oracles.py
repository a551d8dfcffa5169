"""Reference computations that the tests and golden records compare the
library with: hop distances over a ball's 1-skeleton (an oracle for the
distances the one-pass build records) and the ordered boundary paths of a
surface diagram (recorded by the ``surface-index:*`` golden sections)."""

from homfill.cayley import CayleyBall
from homfill.errors import DomainError, InvariantError
from homfill.surface import SlotRef, SurfaceDiagram, _glued


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
