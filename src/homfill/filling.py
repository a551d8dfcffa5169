"""Exact homological area: minimal-L1 integer fillings, FA tables,
superadditive closure and finite-range relation checks.

The exact solver has one path.  Forced cells are peeled first.  For what is
left, a HiGHS MILP proposes an integer chain and a HiGHS LP proposes duals;
the chain is accepted when the exact integer bound ``exactlp.lower_bound``
reaches its area.  When it does not, ``exactlp.l1_fill`` runs branch and
bound over all free cells, and prunes only with that same bound.

Every value is restricted to a finite ball.  The ball-restricted area of
one cycle is an upper bound on its untruncated area, since a larger ball
only adds cells.  A ball FA entry bounds the untruncated FA in neither
direction: its areas may be too large, and loops leaving the ball are
missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .backends import GroupBackend, letter_order
from .cayley import (
    CayleyBall,
    OneCycle,
    TwoChain,
    boundary_2,
    is_cycle,
)
from .errors import DomainError, InvariantError
from .exactlp import boundary_matrix, l1_fill, lower_bound, solves
from .presentation import HomPresentation
from .words import format_word

# fast proposer; every certificate is re-verified in exact arithmetic
import numpy as _np
import scipy.sparse as _sp
from scipy.optimize import Bounds as _Bounds
from scipy.optimize import LinearConstraint as _LinearConstraint
from scipy.optimize import linprog as _linprog
from scipy.optimize import milp as _milp

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
    solver: str = "exact_ilp"
    nodes: int = 0

    def optimal(self) -> bool:
        return self.status == "optimal"


def _peel_forced(
    ball: CayleyBall, residual: dict[int, int]
) -> tuple[dict[int, int], tuple[int, ...], dict[int, int]] | None:
    """Assign the cells of the ball's forced-cell collapse in its removal
    order, each from what is left of the residual on its free edge.

    Sound because the collapse runs over every cell of the ball.  Returns
    (forced assignment, remaining cells, residual) or None when a forced
    value is non-integral or an edge no remaining cell touches stays nonzero.
    """
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


def harea_fill(
    ball: CayleyBall,
    gamma: OneCycle,
    solver: str = "exact_ilp",
    node_budget: int = 50_000,
    enum_budget: int = 5_000_000,
    coeff_bound: int | None = None,
    area_cap: int = 24,
) -> FillingResult:
    """Minimal-area 2-chain in the ball with the prescribed boundary.

    ``exact_ilp`` certifies a true minimizer among all chains supported in
    the ball; ``brute_force`` exhausts chains under a coefficient bound and
    an area cap, as an independent oracle.
    """
    for edge in gamma.coeffs:
        if not 0 <= edge < len(ball.edges):
            raise DomainError(f"cycle uses unknown edge {edge}")
    if not is_cycle(ball, gamma):
        raise DomainError("chain has nonzero vertex boundary; not a 1-cycle")
    if solver == "exact_ilp":
        return _fill_ilp(ball, gamma, node_budget)
    if solver == "brute_force":
        return _fill_brute(ball, gamma, enum_budget, coeff_bound, area_cap)
    raise DomainError(f"unknown solver {solver!r}")


def _fast_fill(
    columns: list[dict[int, int]],
    edge_ids: list[int],
    residual: dict[int, int],
) -> tuple[list[int], bool] | None:
    """The root of the exact solver: a HiGHS MILP proposes an integer chain
    over ``columns`` (the free cells), accepted only if it bounds
    ``residual`` in integer arithmetic; an unboxed HiGHS LP proposes duals,
    and the chain is certified minimal when ``lower_bound`` over the box
    |a_c| <= area - 1 reaches its area.  Returns (chain coefficients,
    certified) or None when HiGHS proposes no such chain."""
    n = len(columns)
    m = len(edge_ids)
    a_mat = _sp.hstack([boundary_matrix(columns, edge_ids), _sp.csc_matrix((m, n))], format="csc")
    # variables (a, t); rows t - a >= 0 and t + a >= 0 make t >= |a|
    eye = _sp.identity(n, format="csc")
    abs_mat = _sp.bmat([[-eye, eye], [eye, eye]], format="csc")
    b = _np.array([float(residual.get(e, 0)) for e in edge_ids])
    cost = _np.concatenate([_np.zeros(n), _np.ones(n)])
    constraints = [
        _LinearConstraint(abs_mat, lb=_np.zeros(2 * n), ub=_np.full(2 * n, _np.inf)),
        _LinearConstraint(a_mat, lb=b, ub=b),
    ]
    integrality = _np.concatenate([_np.ones(n), _np.zeros(n)])
    sol = _milp(cost, constraints=constraints, integrality=integrality, bounds=_Bounds(-_np.inf, _np.inf))
    if not sol.success:
        return None
    coeffs = [int(round(v)) for v in sol.x[:n]]
    if not solves(columns, coeffs, residual):
        return None

    lp = _linprog(
        cost,
        A_ub=-abs_mat,
        b_ub=_np.zeros(2 * n),
        A_eq=a_mat,
        b_eq=b,
        bounds=[(None, None)] * (2 * n),
        method="highs",
    )
    if lp.status != 0:
        return coeffs, False
    area = sum(map(abs, coeffs))
    cap = area - 1
    return coeffs, lower_bound(columns, edge_ids, lp.eqlin.marginals, residual, [-cap] * n, [cap] * n) >= area


def _fill_ilp(ball: CayleyBall, gamma: OneCycle, node_budget: int) -> FillingResult:
    if not gamma:
        return FillingResult(TwoChain(), 0, "optimal", ball.radius)
    columns = ball.net_columns

    # forced-cell peeling over the full system is sound and often finishes
    # the job outright (planar-type balls have unique fillings)
    peeled = _peel_forced(ball, gamma.coeffs)
    if peeled is None:
        return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius)
    forced, free_cells, residual = peeled
    nodes = 0
    coeffs: list[int] = []
    if residual:
        free_columns = [columns[c] for c in free_cells]
        edge_ids = sorted({e for col in free_columns for e in col} | set(residual))
        fast = _fast_fill(free_columns, edge_ids, residual)
        if fast is not None and fast[1]:
            coeffs = fast[0]
        else:
            # the root bound did not close: exact branch and bound from the
            # HiGHS chain, or from integer_solve's when HiGHS proposed none
            solve = l1_fill(free_columns, edge_ids, residual, node_budget, incumbent=fast[0] if fast else None)
            if solve.status == "infeasible":
                return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius)
            if solve.status == "budget":
                return FillingResult(TwoChain(), None, "budget_exceeded", ball.radius, nodes=solve.nodes)
            coeffs, nodes = solve.coeffs, solve.nodes
    chain = TwoChain([*forced.items(), *zip(free_cells, coeffs)])
    if boundary_2(ball, chain) != gamma:
        raise InvariantError("certified chain does not bound the query cycle")
    return FillingResult(chain, chain.area(), "optimal", ball.radius, nodes=nodes)


class BruteSearch:
    """Depth-first oracle over the chains bounding ``gamma`` whose
    coefficients are at most ``coeff_bound`` in magnitude (default: the
    largest magnitude in ``gamma``).

    Cells are decided in index order: first skipped, then given +1, -1,
    +2, -2, ...  ``steps`` counts search nodes over every ``chains`` call of
    one search, and the search raises TimeoutError once it passes
    ``enum_budget``.
    """

    def __init__(self, ball: CayleyBall, gamma: OneCycle, enum_budget: int, coeff_bound: int | None = None):
        self.columns = ball.net_columns
        self.gamma = gamma
        self.enum_budget = enum_budget
        self.coeff_bound = coeff_bound if coeff_bound is not None else max([1, *map(abs, gamma.coeffs.values())])
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


def _fill_brute(
    ball: CayleyBall,
    gamma: OneCycle,
    enum_budget: int,
    coeff_bound: int | None,
    area_cap: int,
) -> FillingResult:
    if not gamma:
        return FillingResult(TwoChain(), 0, "optimal", ball.radius, solver="brute_force")
    search = BruteSearch(ball, gamma, enum_budget, coeff_bound)
    if not search.coverable():
        return FillingResult(TwoChain(), None, "infeasible_in_ball", ball.radius, solver="brute_force")
    try:
        for area in range(0, area_cap + 1):
            found = next(search.chains(area), None)
            if found is not None:
                chain = TwoChain(found)
                if boundary_2(ball, chain) != gamma:
                    raise InvariantError("brute-force chain does not bound the query cycle")
                return FillingResult(chain, area, "optimal", ball.radius, solver="brute_force", nodes=search.steps)
    except TimeoutError:
        pass
    return FillingResult(TwoChain(), None, "budget_exceeded", ball.radius, solver="brute_force", nodes=search.steps)


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

    def value(self, n: int) -> int:
        return self.values[n].fa_value

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
        cycle = OneCycle(counts)
        if not cycle:
            return
        key = cycle.key()
        neg = (-cycle).key()
        canon = min(key, neg)
        if canon in seen:
            return
        seen.add(canon)
        results.append((canon, cycle, tuple(word)))

    letters = tuple(letter_order(ball.backend.rank))
    succ, edges = ball.succ, ball.edges

    def dfs(vertex: int, depth: int):
        if word and vertex == identity:
            record()
        if depth == 0:
            return
        row = succ[vertex]
        for letter in letters:
            if word and word[-1] == -letter:
                continue
            edge = row[letter]
            if edge < 0:
                continue
            if letter > 0:
                sign, nxt = 1, edges[edge][2]
            else:
                sign, nxt = -1, edges[edge][0]
            word.append(letter)
            counts[edge] = counts.get(edge, 0) + sign
            if not counts[edge]:
                del counts[edge]
            dfs(nxt, depth - 1)
            word.pop()
            counts[edge] = counts.get(edge, 0) - sign
            if not counts[edge]:
                del counts[edge]

    dfs(identity, max_len)
    return results


def fa_estimate(
    backend: GroupBackend,
    hom_pres: HomPresentation,
    n_max: int,
    ball_radius: int,
    scope: str = "loops_only",
    solver: str = "exact_ilp",
    ball: CayleyBall | None = None,
    node_budget: int = 50_000,
) -> FATable:
    """Ball-restricted FA values from identity-based loop enumeration.

    Each loop's area is an upper bound on its untruncated area, but only
    loops inside the ball are enumerated, so an entry bounds the untruncated
    FA in neither direction.

    Nondecreasing by construction; ``loops_plus_superadditive`` additionally
    closes the table under the superadditive combination rule, standing in
    for multi-component cycles.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if scope not in ("loops_only", "loops_plus_superadditive"):
        raise DomainError(f"unknown enumeration scope {scope!r}")
    if ball is None:
        from .cayley import build_ball

        ball = build_ball(backend, hom_pres, ball_radius)
    best: list[int] = [0] * (n_max + 1)
    witness: list[str | None] = [None] * (n_max + 1)
    examined = [0] * (n_max + 1)
    gaps: list[str] = []
    names = ball.generators
    for _canon, cycle, word in enumerate_identity_cycles(ball, n_max):
        n = cycle.length()
        if n > n_max:
            continue
        examined[n] += 1
        result = harea_fill(ball, cycle, solver=solver, node_budget=node_budget)
        if not result.optimal():
            gaps.append(f"{result.status} on loop '{format_word(word, names)}'")
            continue
        if result.area > best[n]:
            best[n] = result.area
            witness[n] = format_word(word, names)
    for n in range(1, n_max + 1):
        examined[n] += examined[n - 1]
        if best[n] < best[n - 1]:
            best[n] = best[n - 1]
            witness[n] = witness[n - 1]
    if scope == "loops_plus_superadditive":
        closed = superadditive_closure(best)
        for n in range(n_max + 1):
            if closed[n] > best[n]:
                best[n] = closed[n]
                witness[n] = (witness[n] or "") + " (superadditive combination)"
    entries = [FAEntry(best[n], witness[n], examined[n]) for n in range(n_max + 1)]
    return FATable(entries, ball.radius, scope, gaps=gaps)


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
    c_max: int = 64,
    affine: bool = True,
    min_coverage: Fraction = Fraction(1, 2),
) -> PreceqResult:
    """Finite-range check of f(n) <= C g(Cn+C) + Cn + C (or the two-sided
    affine form without the linear slack when ``affine`` is false).

    A candidate C counts only if every in-range sample passes and at least
    ``min_coverage`` of the samples are in range; out-of-range samples are
    skipped and counted.
    """
    n_top = min(len(f), len(g)) - 1
    if n_top < 1:
        raise DomainError("need tables on a common range of length >= 2")
    total = n_top
    last_failure = None
    for c in range(1, c_max + 1):
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
        if ok and Fraction(checked, total) >= min_coverage:
            return PreceqResult(True, c, checked, skipped, None)
    return PreceqResult(False, None, 0, 0, last_failure)
