"""Exact homological area: minimal-L1 integer fillings, FA tables,
superadditive closure and finite-range relation checks.

``harea_fill``'s exact solver has one path.  Forced cells are peeled
first; a fill that peeling finishes takes 0 branch-and-bound nodes.  What
is left goes to the one exact-fill call ``exactlp.l1_fill`` on the ball's
fill system: branch and price over all free cells, whose node LPs run on
the cells near the residual and grow by exact pricing over the whole
system, pruning only with the exact integer bound ``exactlp.lower_bound``.
The root node, over the box |a_c| <= area - 1, is the certificate of the
best chain found so far; when it closes, the fill took 1 node and carries
the root's integer duals (``FillingResult.certificate``).

An FA table is the one exception: before it fills a loop on that path it
tries to reuse a fill across the orbit of the loop's word class
(``word_class``) under the presentation's symmetries, the signed generator
permutations that map the relators onto the relators
(``presentation.symmetries``).  A loop whose class holds an image sigma(A)
of a root-certified loop A is sign * p^-1 sigma(A), so A's chain and root
duals, carried to it through x -> p^-1 sigma(x), are checked against it in
exact arithmetic (the chain's boundary, and the duals through
``exactlp.certificate_bound`` over the loop's own residual), and the loop
is filled on its own only when the check fails.  With sigma the identity
the carry is a translate.  The AR pairs of ``experiments`` fill every loop
on its own: their radii depend on the gluing's tie-breaks, which follow
the cell numbering, and no symmetry preserves that numbering.

Every value is restricted to a finite ball.  The ball-restricted area of
one cycle is an upper bound on its untruncated area, since a larger ball
only adds cells.  A ball FA entry bounds the untruncated FA in neither
direction: its areas may be too large, and loops leaving the ball are
missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import NamedTuple

from .backends import GroupBackend, letter_order
from .cayley import CayleyBall, OneCycle, TwoChain, boundary_2, build_ball, is_cycle
from .errors import DomainError, InvariantError, ResourceError
from .exactlp import certificate_bound, l1_fill
from .presentation import HomPresentation, symmetries
from .words import Word, format_word, inverse_word, word_class

# the brute_force oracle's search nodes per fill, and the largest area it
# tries before reporting budget_exceeded
BRUTE_BUDGET = 5_000_000
BRUTE_AREA_CAP = 24

# the largest constant C that check_preceq tries
PRECEQ_C_MAX = 64

TRUNCATION_NOTE = (
    "values are restricted to the stated ball radius; the area of one cycle is an upper bound on its "
    "untruncated area, and an FA entry bounds the untruncated FA in neither direction"
)


@dataclass
class FillingResult:
    chain: TwoChain
    area: int | None
    status: str  # optimal | infeasible_in_ball | budget_exceeded
    ball_radius: int
    # exact_ilp: branch-and-bound nodes, 0 when peeling finished the fill (or
    # fa_estimate certified a carry of an earlier fill, a translate or a
    # symmetric image) and 1 when l1_fill's root certified its best chain;
    # brute_force: steps
    nodes: int = 0
    # exact_ilp: l1_fill's local LP columns when it ended and its node LPs,
    # each followed by pricing; 0 and 0 when no l1_fill ran
    lp_columns: int = 0
    pricing_rounds: int = 0
    # exact_ilp, when l1_fill's root certified the chain (nodes == 1): the
    # root's integer duals over the fill system's rows, {edge: Y_e} over
    # exactlp.DUAL_SCALE, which exactlp.certificate_bound re-checks; None
    # for a peeled fill, a branched one and brute_force
    certificate: dict[int, int] | None = None

    def optimal(self) -> bool:
        return self.status == "optimal"


def _peel_forced(
    ball: CayleyBall, residual: dict[int, int]
) -> tuple[dict[int, int], tuple[int, ...], dict[int, int]] | None:
    """Assign the cells of the ball's forced-cell collapse in its removal
    order, each from what is left of the residual on its free edge.

    Only the positions whose free edge holds a nonzero residual are visited,
    in increasing order, from a heap of positions (``ball.collapse_position``
    maps a free edge to its position).  A cell never touches an edge freed
    before it, so a cell can make only a later position's edge nonzero; that
    position is pushed then, and every position the full removal order
    would assign is popped in that order with the same residual.  Skipped
    positions are those the full order passes over with a zero residual, so
    the assignment, its order and the residual are those of the full walk.

    Sound because the collapse runs over every cell of the ball.  Returns
    (forced assignment, remaining cells, residual) or None when a forced
    value is non-integral or an edge no remaining cell touches stays nonzero.
    """
    columns = ball.net_columns
    order, remaining, touched = ball.collapse
    position = ball.collapse_position
    residual = {e: c for e, c in residual.items() if c}
    pending = [position[e] for e in residual if e in position]
    heapify(pending)
    forced: dict[int, int] = {}
    while pending:
        c, e = order[heappop(pending)]
        value = residual.get(e)
        if not value:
            continue
        a, rem = divmod(value, columns[c][e])
        if rem:
            return None
        forced[c] = a
        for e2, v in columns[c].items():
            r = residual.get(e2, 0)
            if not r and e2 in position:
                heappush(pending, position[e2])
            residual[e2] = r - a * v
            if not residual[e2]:
                del residual[e2]
    if any(e not in touched for e in residual):
        return None
    return forced, remaining, residual


def harea_fill(
    ball: CayleyBall,
    gamma: OneCycle,
    solver: str = "exact_ilp",
) -> FillingResult:
    """Minimal-area 2-chain in the ball with the prescribed boundary.

    ``exact_ilp`` certifies a true minimizer among all chains supported in
    the ball; ``brute_force`` is an independent oracle: it exhausts the
    chains whose coefficients are at most gamma's largest in magnitude, area
    by area up to ``BRUTE_AREA_CAP``, within ``BRUTE_BUDGET`` search nodes.
    """
    for edge in gamma.coeffs:
        if not 0 <= edge < len(ball.edges):
            raise DomainError(f"cycle uses unknown edge {edge}")
    if not is_cycle(ball, gamma):
        raise DomainError("chain has nonzero vertex boundary; not a 1-cycle")
    if solver == "exact_ilp":
        return _fill_ilp(ball, gamma)
    if solver == "brute_force":
        return _fill_brute(ball, gamma)
    raise DomainError(f"unknown solver {solver!r}")


def _fill_ilp(ball: CayleyBall, gamma: OneCycle) -> FillingResult:
    if not gamma:
        return FillingResult(TwoChain(), 0, "optimal", ball.radius)
    # forced-cell peeling over the full system is sound and often finishes
    # the job outright (planar-type balls have unique fillings)
    return _fill_peeled(ball, gamma, _peel_forced(ball, gamma.coeffs))


def _fill_peeled(ball: CayleyBall, gamma: OneCycle, peeled) -> FillingResult:
    """The exact fill of a nonzero cycle from what ``_peel_forced`` returned
    for it: the forced cells, and ``l1_fill`` over the residual, if any."""
    if peeled is None:
        return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius)
    forced, free_cells, residual = peeled
    coeffs: list[int] = []
    size = {}
    if residual:
        solve = l1_fill(ball.fill_system, residual)
        size = {
            "nodes": solve.nodes,
            "lp_columns": solve.lp_columns,
            "pricing_rounds": solve.pricing_rounds,
            "certificate": solve.certificate,
        }
        if solve.status == "infeasible":
            return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius)
        if solve.status == "budget":
            return FillingResult(TwoChain(), None, "budget_exceeded", ball.radius, **size)
        coeffs = solve.coeffs
    # only the nonzero coefficients: the free cells can be most of the ball
    chain = TwoChain(forced | dict(compress(zip(free_cells, coeffs), coeffs)))
    if boundary_2(ball, chain) != gamma:
        raise InvariantError("certified chain does not bound the query cycle")
    return FillingResult(chain, chain.area(), "optimal", ball.radius, **size)


class BruteSearch:
    """Depth-first oracle over the chains bounding ``gamma`` whose
    coefficients are at most the largest magnitude in ``gamma``.

    Cells are decided in index order: first skipped, then given +1, -1,
    +2, -2, ...  ``steps`` counts search nodes over every ``chains`` call of
    one search, and the search raises TimeoutError once it passes
    ``enum_budget``.
    """

    def __init__(self, ball: CayleyBall, gamma: OneCycle, enum_budget: int):
        self.columns = ball.net_columns
        self.gamma = gamma
        self.enum_budget = enum_budget
        self.coeff_bound = max([1, *map(abs, gamma.coeffs.values())])
        self.steps = 0
        self.last_incident: dict[int, int] = {}
        for c, col in enumerate(self.columns):
            for e in col:
                self.last_incident[e] = c

    def coverable(self) -> bool:
        """Whether every edge of ``gamma`` lies on some cell of the ball."""
        return all(e in self.last_incident for e in self.gamma.coeffs)

    def chains(self, area: int):
        """Yield every chain of exactly ``area`` with boundary ``gamma``, as a
        cell -> coefficient dict, in search order."""
        if self.coverable():
            yield from self._search(0, dict(self.gamma.coeffs), area, {})

    def _search(self, cell: int, residual: dict[int, int], remaining: int, chosen: dict[int, int]):
        self.steps += 1
        if self.steps > self.enum_budget:
            raise TimeoutError
        if not residual:
            if remaining == 0:
                yield dict(chosen)
            return
        if cell >= len(self.columns) or remaining <= 0:
            return
        # a residual edge no later cell can touch kills the branch
        for e in residual:
            if self.last_incident[e] < cell:
                return
        yield from self._search(cell + 1, residual, remaining, chosen)
        col = self.columns[cell]
        for mag in range(1, min(self.coeff_bound, remaining) + 1):
            for v in (mag, -mag):
                nres = dict(residual)
                for e, w in col.items():
                    nres[e] = nres.get(e, 0) - v * w
                    if not nres[e]:
                        del nres[e]
                chosen[cell] = v
                yield from self._search(cell + 1, nres, remaining - mag, chosen)
                del chosen[cell]


def _fill_brute(ball: CayleyBall, gamma: OneCycle) -> FillingResult:
    if not gamma:
        return FillingResult(TwoChain(), 0, "optimal", ball.radius)
    search = BruteSearch(ball, gamma, BRUTE_BUDGET)
    if not search.coverable():
        return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius)
    try:
        for area in range(0, BRUTE_AREA_CAP + 1):
            found = next(search.chains(area), None)
            if found is not None:
                chain = TwoChain(found)
                if boundary_2(ball, chain) != gamma:
                    raise InvariantError("brute-force chain does not bound the query cycle")
                return FillingResult(chain, area, "optimal", ball.radius, nodes=search.steps)
    except TimeoutError:
        pass
    return FillingResult(TwoChain(), None, "budget_exceeded", ball.radius, nodes=search.steps)


# ---------------------------------------------------------------------------
# FA tables


@dataclass
class FAEntry:
    fa_value: int
    witness: str | None
    cycles_examined: int


@dataclass
class FATable:
    values: list[FAEntry]
    ball_radius: int
    enumeration_scope: str  # loops_only | loops_plus_superadditive
    truncation_note: str = TRUNCATION_NOTE
    gaps: list[str] = field(default_factory=list)

    def as_rows(self) -> list[tuple[int, int]]:
        return [(n, e.fa_value) for n, e in enumerate(self.values)]


def enumerate_identity_cycles(ball: CayleyBall, max_len: int):
    """Distinct nonzero cycles traced by freely reduced closed words of
    length <= max_len based at the identity, staying inside the ball.

    Yields (canonical key, cycle, witness word); rotations and the two signs
    of a cycle are deduplicated via the canonical key.
    """
    identity = 0
    seen: set = set()
    word: list[int] = []
    counts: dict[int, int] = {}
    results = []

    def record():
        if not counts:
            return
        key = tuple(sorted(counts.items()))  # counts holds no zero
        canon = min(key, tuple((e, -c) for e, c in key))
        if canon in seen:
            return
        seen.add(canon)
        results.append((canon, OneCycle(counts), tuple(word)))

    succ, edges, distance = ball.succ, ball.edges, ball.distance
    # each vertex's moves (letter, edge, sign, next vertex) in letter order,
    # built on the walk's first visit
    letters = tuple(letter_order(ball.backend.rank))
    moves: list = [None] * len(succ)

    def dfs(vertex: int, depth: int, last: int):
        if vertex == identity and word:
            record()
        table = moves[vertex]
        if table is None:
            row = succ[vertex]
            table = moves[vertex] = [
                (letter, edge, 1, edges[edge][2]) if letter > 0 else (letter, edge, -1, edges[edge][0])
                for letter in letters
                if (edge := row[letter]) >= 0
            ]
        for letter, edge, sign, nxt in table:
            # a child farther from the identity than the letters left has no
            # way back in time
            if letter == -last or distance[nxt] >= depth:
                continue
            word.append(letter)
            counts[edge] = counts.get(edge, 0) + sign
            if not counts[edge]:
                del counts[edge]
            dfs(nxt, depth - 1, letter)
            word.pop()
            counts[edge] = counts.get(edge, 0) - sign
            if not counts[edge]:
                del counts[edge]

    dfs(identity, max_len, 0)
    return results


def _rotation(a: Word, b: Word) -> tuple[int, Word]:
    """(sign, p) for words of one class: b = q p where a = p q (sign 1) or
    a^-1 = p q (sign -1).  As pq = 1 in the group, b's loop at the identity
    is the translate by p^-1 of a's loop, times sign."""
    for sign, f in ((1, a), (-1, inverse_word(a))):
        for i in range(len(f)):
            if f[i:] + f[:i] == b:
                return sign, f[:i]
    raise InvariantError("words of one class are not rotations of each other")


class _Symmetry(NamedTuple):
    """A signed generator permutation sigma (``presentation.symmetries``)
    as ``_ClassFills`` carries cells with it: ``letters[x]`` is sigma(x),
    and ``cells[r]`` is (r', e, q) with sigma(r) = q s and s q = r'^e a
    rotation of marked relator r' or of its inverse, so that sigma's image
    of the cell of r at x is e times the cell of r' at sigma(x) q.  It is
    None for a relator whose image lies in no marked relator's class."""

    letters: tuple[int, ...]
    cells: tuple[tuple[int, int, Word] | None, ...]

    @classmethod
    def of(cls, hom_pres: HomPresentation, letters: tuple[int, ...]) -> "_Symmetry":
        relators = hom_pres.base.relators
        marked = {word_class(relators[i]): i for i in reversed(hom_pres.marked_relators)}
        cells = []
        for r in relators:
            image = tuple(letters[x] for x in r)
            target = marked.get(word_class(image))
            if target is None:
                cells.append(None)
                continue
            sign, s = _rotation(relators[target], image)
            cells.append((target, sign, image[: len(image) - len(s)]))
        return cls(letters, tuple(cells))


class _Root(NamedTuple):
    """A root-certified fill as ``_ClassFills`` keeps it under one class
    key: ``word`` is sigma(w_A) for the filled loop's word w_A and the
    symmetry sigma, and ``chain`` and ``dual`` are A's chain and its root's
    integer duals per edge (``FillingResult.certificate``)."""

    word: Word
    chain: TwoChain
    dual: dict[int, int]
    symmetry: _Symmetry


class _ClassFills:
    """``fa_estimate``'s exact fills, reusing work across each orbit of word
    classes under the presentation's symmetries.

    A symmetry sigma (``presentation.symmetries``) is a signed generator
    permutation that maps the marked relators into their word classes and
    every relator to the identity; when it is an automorphism, it is an
    isometry of the Cayley complex fixing the identity, so it maps the
    ball onto itself.  A loop A whose fill ``l1_fill``'s root certified
    becomes the root of every class that an image sigma(A) falls in: its
    chain and root duals are kept, with sigma, under the class key of
    sigma(w_A), the latest such loop replacing an earlier one.  A later
    loop B of such a class is sign * p^-1 sigma(A) (``_rotation`` of
    sigma(w_A) and w_B), so it tries A's chain T and duals Y carried
    through x -> p^-1 sigma(x) first (``_carry``): the carried T must bound
    B's loop exactly, and with forced_B the cells that peeling B's loop
    forces (which every chain bounding it shares), the carried Y must give
    an exact bound over B's residual and the box |a_c| <= area(T) -
    |forced_B| - 1 that reaches area(T) - |forced_B|, so that no chain
    bounding B is smaller than T.  A carry that leaves the ball, bounds
    another cycle or falls short of the area is dropped, and B is filled
    by ``harea_fill``; so sigma only proposes chains, and one that is no
    automorphism costs refused carries, never a wrong area.  With sigma the
    identity the carry is the translate by p^-1.  The symmetries are
    searched once, at the first root; loops that peeling finishes take no
    class key."""

    def __init__(self, ball: CayleyBall):
        self.ball = ball
        self.roots: dict[Word, _Root] = {}
        self.symmetries: tuple[_Symmetry, ...] | None = None

    def fill(self, gamma: OneCycle, word: Word) -> FillingResult:
        ball = self.ball
        peeled = _peel_forced(ball, gamma.coeffs)
        if peeled is None or not peeled[2]:
            return _fill_peeled(ball, gamma, peeled)
        root = self.roots.get(word_class(word))
        if root is not None:
            chain = self._carry(root, gamma, word, peeled)
            if chain is not None:
                return FillingResult(chain, chain.area(), "optimal", ball.radius)
        result = harea_fill(ball, gamma)
        if result.certificate is not None:
            self._register(word, result)
        return result

    def _register(self, word: Word, result: FillingResult) -> None:
        """Key the fill of ``word``'s loop under the class of each of its
        images, with the first symmetry that reaches that class."""
        if self.symmetries is None:
            hom_pres = self.ball.hom_pres
            found = symmetries(hom_pres, self.ball.backend.is_identity)
            self.symmetries = tuple(_Symmetry.of(hom_pres, letters) for letters in found)
        keyed: dict[Word, _Root] = {}
        for sym in self.symmetries:
            image = tuple(sym.letters[x] for x in word)
            keyed.setdefault(word_class(image), _Root(image, result.chain, result.certificate, sym))
        self.roots.update(keyed)

    def _carry(self, root: _Root, gamma: OneCycle, word: Word, peeled) -> TwoChain | None:
        """The root's chain carried to ``gamma``, when its carried duals
        certify it minimal over ``peeled``'s residual, else None.  A cell
        (x, r) goes to e times the cell of r' at p^-1 sigma(x) q (``_Symmetry``)
        and a dual's edge (x, g) to ``step(p^-1 sigma(x), sigma(g))`` with that
        step's sign, both times the rotation's sign."""
        ball = self.ball
        sign, prefix = _rotation(root.word, word)
        shift, letters, images = inverse_word(prefix), root.symmetry.letters, root.symmetry.cells
        vertices, cells, edges = ball.vertices, ball.cells, ball.edges

        def place(x: int, tail: Word = ()) -> int:
            return ball.vertex_of(shift + tuple(letters[y] for y in vertices[x]) + tail)

        out: dict[int, int] = {}
        y: dict[int, int] = {}
        try:
            for cell, coeff in root.chain.coeffs.items():
                c = cells[cell]
                if (image := images[c.relator]) is None:
                    return None
                relator, orientation, q = image
                target = ball.cell_at(place(c.base, q), relator)
                out[target] = out.get(target, 0) + sign * orientation * coeff
            moved = TwoChain(out)
            if boundary_2(ball, moved) != gamma:
                return None
            for edge, value in root.dual.items():
                source, label, _ = edges[edge]
                target, step_sign, _ = ball.step(place(source), letters[label])
                y[target] = y.get(target, 0) + sign * step_sign * value
        except ResourceError:
            return None
        forced, _, residual = peeled
        free_area = moved.area() - sum(map(abs, forced.values()))
        if certificate_bound(ball.fill_system, y, residual, free_area - 1) < free_area:
            return None
        return moved


def fa_estimate(
    backend: GroupBackend,
    hom_pres: HomPresentation,
    n_max: int,
    ball_radius: int,
    scope: str = "loops_only",
    solver: str = "exact_ilp",
    ball: CayleyBall | None = None,
) -> FATable:
    """Ball-restricted FA values from identity-based loop enumeration.

    Each loop's area is an upper bound on its untruncated area, but only
    loops inside the ball are enumerated, so an entry bounds the untruncated
    FA in neither direction.

    Every area is exact.  With ``exact_ilp``, a loop that peeling does not
    finish is first certified, when it can be, by the root certificate of
    an earlier loop whose image under a symmetry of the presentation lies
    in its word class, carried to it (``_ClassFills``), and is filled by
    ``harea_fill`` otherwise; the table is the one that one ``harea_fill``
    per loop gives.  The AR pairs take no such carries, since their radii
    follow the cell numbering, which no symmetry preserves.

    Nondecreasing by construction; ``loops_plus_superadditive`` additionally
    closes the table under the superadditive combination rule, standing in
    for multi-component cycles.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if scope not in ("loops_only", "loops_plus_superadditive"):
        raise DomainError(f"unknown enumeration scope {scope!r}")
    if ball is None:
        ball = build_ball(backend, hom_pres, ball_radius)
    best: list[int] = [0] * (n_max + 1)
    witness: list[str | None] = [None] * (n_max + 1)
    examined = [0] * (n_max + 1)
    gaps: list[str] = []
    names = ball.generators
    classes = _ClassFills(ball)
    for _canon, cycle, word in enumerate_identity_cycles(ball, n_max):
        n = cycle.length()
        examined[n] += 1
        result = classes.fill(cycle, word) if solver == "exact_ilp" else harea_fill(ball, cycle, solver=solver)
        if not result.optimal():
            gaps.append(f"{result.status} on loop '{format_word(word, names)}'")
            continue
        if result.area > best[n]:
            best[n] = result.area
            witness[n] = format_word(word, names)
    for n in range(1, n_max + 1):
        examined[n] += examined[n - 1]
    running_max(best, witness)
    if scope == "loops_plus_superadditive":
        closed = superadditive_closure(best)
        for n in range(n_max + 1):
            if closed[n] > best[n]:
                best[n] = closed[n]
                witness[n] = (witness[n] or "") + " (superadditive combination)"
    entries = [FAEntry(best[n], witness[n], examined[n]) for n in range(n_max + 1)]
    return FATable(entries, ball.radius, scope, gaps=gaps)


def running_max(values: list[int], witnesses: list) -> None:
    """Carry the maximum and its witness forward, in place: entry n becomes
    the largest of entries 0..n, and an entry below the one before it takes
    that one's value and witness."""
    for n in range(1, len(values)):
        if values[n] < values[n - 1]:
            values[n] = values[n - 1]
            witnesses[n] = witnesses[n - 1]


def superadditive_closure(f: list[int]) -> list[int]:
    """Pointwise-largest table reachable by splitting n into parts, via the
    dynamic program closure(n) = max(f(n), max_k closure(k)+closure(n-k))."""
    n = len(f)
    out = list(f)
    for total in range(n):
        for k in range(1, total):
            if out[k] + out[total - k] > out[total]:
                out[total] = out[k] + out[total - k]
    return out


@dataclass
class PreceqResult:
    holds: bool
    constant: int | None
    checked: int
    skipped: int
    first_failure: tuple[int, int] | None  # (C, n) of the last candidate's failure
    note: str = "finite-range surrogate; not a proof of asymptotic domination"


def check_preceq(
    f: list[int],
    g: list[int],
    affine: bool = True,
) -> PreceqResult:
    """Finite-range check of f(n) <= C g(Cn+C) + Cn + C (or the two-sided
    affine form without the linear slack when ``affine`` is false), for C
    from 1 to ``PRECEQ_C_MAX``.

    A candidate C counts only if every in-range sample passes and at least
    half of the samples are in range; out-of-range samples are
    skipped and counted.
    """
    n_top = min(len(f), len(g)) - 1
    if n_top < 1:
        raise DomainError("need tables on a common range of length >= 2")
    total = n_top
    last_failure = None
    for c in range(1, PRECEQ_C_MAX + 1):
        checked = 0
        skipped = 0
        ok = True
        for n in range(1, n_top + 1):
            arg = c * n + c if affine else c * n
            if arg > n_top:
                skipped += 1
                continue
            bound = c * g[arg] + (c * n + c if affine else c)
            checked += 1
            if f[n] > bound:
                ok = False
                last_failure = (c, n)
                break
        if ok and 2 * checked >= total:
            return PreceqResult(True, c, checked, skipped, None)
    return PreceqResult(False, None, 0, 0, last_failure)
