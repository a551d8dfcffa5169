"""Exact minimal-L1 integer fillings: HiGHS LPs bound, exact integers verify.

Every HiGHS call of the package is made here.  One ``FillSystem`` holds
everything about min sum |a_c| subject to sum_c a_c * columns[c] = rhs that
does not depend on the right-hand side: the row index, the node LP's
matrix and its one HiGHS model, and -- built only for the fills that need
them -- the MILP's arrays and the integer column reduction.  A ball builds
one system, and each fill supplies its right-hand side.

* ``l1_fill`` -- the one exact-fill call: branch and bound for min sum |a_c|
  subject to B a = rhs over the integers, on HiGHS node LPs, stopped after
  ``NODE_BUDGET`` nodes; every prune is a ``lower_bound``.  Its root LP is
  solved before any chain is known, over free columns, and its rounded
  point is the incumbent when it is a chain, else ``integer_solve``'s chain
  is.  The root node, over the box |a_c| <= area - 1, certifies the
  incumbent; where the first LP's duals leave a gap the root is solved again
  over that box, and only when that does not prune either does the search
  call ``propose``.
* ``node_lp`` -- one node LP on the system's HiGHS model, which is passed
  to HiGHS once (``FillSystem.lp_model``): each node changes only the column
  costs, column bounds and row bounds that differ from those the model
  holds, and solves from a cold start without presolve, so a node's point
  and duals do not depend on the nodes and fills solved before it and equal
  those of ``linprog(method="highs")`` with presolve off.
* ``propose`` -- the HiGHS MILP's integer chain, kept only when it solves
  the system in integer arithmetic.
* ``integer_solve`` -- particular integer solution of A x = b via column
  Hermite reduction, or None, which proves that no integer solution exists;
  ``l1_fill`` calls it only when the root's rounded point is not a chain.
* ``lower_bound`` -- the one certificate: the node LP's HiGHS duals rounded
  to integers over the constant denominator ``DUAL_SCALE`` give an exact
  lower bound on sum |a_c| over a box of integer chains.  Every dual vector
  gives a valid bound, so rounding can weaken it but never make it wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highs  # private scipy API, shipped since scipy 1.15

from .errors import InvariantError

# denominator of the integer dual vectors: rounding loses at most about
# (cells x relator length x area) / 2**21 of a unit of the bound
DUAL_SCALE = 2**20

# distance from an integer below which an LP coordinate counts as integral
INT_TOL = 1e-6

# branch-and-bound nodes one fill may search before it stops with status
# budget and the best chain found so far
NODE_BUDGET = 50_000

# the HiGHS options scipy's linprog(method="highs", options={"presolve":
# False}) sets, so that a node LP gives the point and duals that linprog
# would; presolve is most of a solve at a ball's size, and the dual simplex
# needs none
LP_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "presolve": "off",
    "simplex_strategy": int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "highs_debug_level": int(highs.HighsDebugLevel.kHighsDebugLevelNone),
}


class FillSystem:
    """The columns of sum_c a_c * columns[c] = rhs over the rows ``edge_ids``,
    with what every solve over them shares, built once.

    ``columns[c]`` maps edge id to the net boundary coefficient of cell c.
    ``entries[c]`` lists the same column as (row position, value) pairs.
    ``lp_matrix`` is the elastic node LP's matrix over (p, q, s+, s-), with
    a = p - q and one slack pair per row; ``lp_model`` is its HiGHS model.
    """

    def __init__(self, columns: list[dict[int, int]], edge_ids: list[int]):
        self.columns = columns
        self.edge_ids = edge_ids
        self.row = {e: i for i, e in enumerate(edge_ids)}
        n, m = len(columns), len(edge_ids)
        try:
            self.entries = [[(self.row[e], v) for e, v in col.items()] for col in columns]
        except KeyError as exc:
            raise InvariantError(f"column edge {exc.args[0]} is not a row of the fill system") from None
        rows, cols, vals = [], [], []
        for k, col in enumerate(self.entries):
            for i, v in col:
                rows.append(i)
                cols.append(k)
                vals.append(float(v))
        a_mat = sp.csc_matrix((vals, (rows, cols)), shape=(m, n))

        eye = sp.identity(m, format="csc")
        self.lp_matrix = sp.hstack([a_mat, -a_mat, eye, -eye], format="csc")

    @cached_property
    def milp_arrays(self) -> tuple[sp.csc_array, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The MILP's (matrix, lb, ub, cost, integrality) over the variables
        (a, t): the rows t - a >= 0 and t + a >= 0, which make t >= |a|,
        then the equality rows; lb/ub bound the first 2n rows.  Built on
        first use, by ``propose``."""
        n, m = len(self.columns), len(self.edge_ids)
        eye = sp.identity(n, format="csc")
        abs_mat = sp.bmat([[-eye, eye], [eye, eye]], format="csc")
        eq_mat = sp.hstack([self.lp_matrix[:, :n], sp.csc_matrix((m, n))], format="csc")
        return (
            sp.vstack([sp.csc_array(abs_mat), sp.csc_array(eq_mat)], format="csc"),
            np.zeros(2 * n),
            np.full(2 * n, np.inf),
            np.concatenate([np.zeros(n), np.ones(n)]),
            np.concatenate([np.ones(n), np.zeros(n)]),
        )

    @cached_property
    def lp_model(self) -> tuple[highs._Highs, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """(HiGHS model of the node LP, the (costs, column lower bounds,
        column upper bounds, right-hand side) it holds): the model is passed
        ``lp_matrix`` once, with zero costs, free columns and right-hand
        side 0, and ``node_lp`` changes in place what differs.  Built on
        first use."""
        model = highs._Highs()
        statuses = [model.setOptionValue(option, value) for option, value in LP_OPTIONS.items()]
        m, k = self.lp_matrix.shape
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = k, m
        lp.col_cost_ = np.zeros(k)
        lp.col_lower_, lp.col_upper_ = np.full(k, -np.inf), np.full(k, np.inf)
        lp.row_lower_, lp.row_upper_ = np.zeros(m), np.zeros(m)
        lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = k, m
        lp.a_matrix_.start_ = self.lp_matrix.indptr
        lp.a_matrix_.index_ = self.lp_matrix.indices
        lp.a_matrix_.value_ = self.lp_matrix.data
        statuses.append(model.passModel(lp))
        if highs.HighsStatus.kError in statuses:
            raise InvariantError("HiGHS refused the node LP's options or model")
        return model, (np.zeros(k), np.full(k, -np.inf), np.full(k, np.inf), np.zeros(m))

    def dense(self, rhs: dict[int, int]) -> list[int]:
        """``rhs`` as one integer per row."""
        b = [0] * len(self.edge_ids)
        for e, v in rhs.items():
            i = self.row.get(e)
            if i is None:
                raise InvariantError(f"right-hand side edge {e} is not a row of the fill system")
            b[i] = v
        return b

    @cached_property
    def hermite(self) -> tuple[list[dict[int, int]], list[dict[int, int]], list[tuple[int, int]]]:
        """The columns reduced to a Hermite-style triangular form by
        Euclidean column operations: (reduced columns, V, pivots), where
        reduced column j maps row position to its nonzero values, row j of V
        maps original column to coefficient and so writes reduced column j
        in the original columns, and pivots lists (row, column) in
        elimination order.  Sparse throughout, as a ball's boundary columns
        are.  Built on first use."""
        cols = [{i: v for i, v in col if v} for col in self.entries]
        vmat = [{j: 1} for j in range(len(cols))]

        pivots: list[tuple[int, int]] = []
        pivot_count = 0
        for r in range(len(self.edge_ids)):
            active = [j for j in range(pivot_count, len(cols)) if r in cols[j]]
            if not active:
                continue
            while len(active) > 1:
                active.sort(key=lambda j: (abs(cols[j][r]), j))
                base = active[0]
                for j in active[1:]:
                    q = cols[j][r] // cols[base][r]
                    if q:
                        _subtract(cols[j], q, cols[base])
                        _subtract(vmat[j], q, vmat[base])
                active = [j for j in active if r in cols[j]]
            j = active[0]
            if cols[j][r] < 0:
                cols[j] = {i: -v for i, v in cols[j].items()}
                vmat[j] = {k: -v for k, v in vmat[j].items()}
            cols[pivot_count], cols[j] = cols[j], cols[pivot_count]
            vmat[pivot_count], vmat[j] = vmat[j], vmat[pivot_count]
            pivots.append((r, pivot_count))
            pivot_count += 1
        return cols, vmat, pivots


def _subtract(target: dict[int, int], q: int, source: dict[int, int]) -> None:
    """target -= q * source, keeping only nonzero values."""
    for i, v in source.items():
        w = target.get(i, 0) - q * v
        if w:
            target[i] = w
        else:
            del target[i]


def integer_solve(system: FillSystem, rhs: dict[int, int]) -> list[int] | None:
    """Particular integer solution x of sum_c x_c * columns[c] = rhs, or None.

    A solution of the system's reduced columns is found by back
    substitution and pulled back through V.
    """
    cols, vmat, pivots = system.hermite
    residual = system.dense(rhs)
    y = {}
    for r, c in pivots:
        d = cols[c][r]
        if residual[r] % d:
            return None
        y[c] = residual[r] // d
        if y[c]:
            for i, v in cols[c].items():
                residual[i] -= y[c] * v
    if any(residual):
        return None
    x = [0] * len(cols)
    for c, yc in y.items():
        for k, v in vmat[c].items():
            x[k] += yc * v
    return x


def solves(columns: list[dict[int, int]], coeffs: list[int], rhs: dict[int, int]) -> bool:
    """Whether sum_c coeffs[c] * columns[c] == rhs, in integer arithmetic."""
    acc: dict[int, int] = {}
    for v, col in zip(coeffs, columns):
        if v:
            for e, w in col.items():
                acc[e] = acc.get(e, 0) + v * w
    return {e: v for e, v in acc.items() if v} == {e: v for e, v in rhs.items() if v}


def lower_bound(system: FillSystem, marginals, rhs: dict[int, int], lo: list[int], hi: list[int]) -> int:
    """Exact lower bound on sum_c |a_c| over the integer chains a with
    lo[c] <= a_c <= hi[c] and sum_c a_c * columns[c] = rhs.

    The float duals ``marginals`` (one per row of the system, as ``node_lp``
    reads them from the model's row duals) are rounded to an integer vector Y
    over D = DUAL_SCALE.  Every such chain satisfies
    D sum_c |a_c| = Y.rhs + sum_c (D |a_c| - (Y.columns[c]) a_c), and each
    summand is convex in a_c, so its minimum over [lo_c, hi_c] lies at lo_c,
    hi_c or 0.  The bound holds for every Y.
    """
    y = [round(v * DUAL_SCALE) for v in map(float, marginals)]
    total = sum(s * v for s, v in zip(y, system.dense(rhs)))
    for col, l, h in zip(system.entries, lo, hi):
        s = sum(y[i] * v for i, v in col)
        low = min(DUAL_SCALE * abs(l) - s * l, DUAL_SCALE * abs(h) - s * h)
        total += min(low, 0) if l <= 0 <= h else low
    return -(-total // DUAL_SCALE)


def propose(system: FillSystem, rhs: dict[int, int]) -> list[int] | None:
    """An integer chain a with sum_c a_c * columns[c] = rhs, proposed by a
    HiGHS MILP for min sum |a_c|, or None when HiGHS finds none or its
    rounded chain fails the exact check.  Nothing here proves it minimal."""
    b = np.array(system.dense(rhs), dtype=float)
    matrix, lb, ub, cost, integrality = system.milp_arrays
    constraint = LinearConstraint(matrix, lb=np.concatenate([lb, b]), ub=np.concatenate([ub, b]))
    sol = milp(cost, constraints=constraint, integrality=integrality, bounds=Bounds(-np.inf, np.inf))
    if not sol.success:
        return None
    coeffs = [int(round(v)) for v in sol.x[: len(system.columns)]]
    return coeffs if solves(system.columns, coeffs, rhs) else None


def node_lp(
    system: FillSystem, cost: np.ndarray, lower: np.ndarray, upper: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """min cost.v subject to lp_matrix v = b and lower <= v <= upper, on
    the system's HiGHS model: (v, row duals), or None unless HiGHS reports
    the LP optimal.  Each solve starts cold, as a fresh model's would."""
    model, (held_cost, held_lower, held_upper, held_b) = system.lp_model
    cols = np.flatnonzero(cost != held_cost).astype(np.int32)
    if len(cols):
        model.changeColsCost(len(cols), cols, cost[cols])
        held_cost[cols] = cost[cols]
    cols = np.flatnonzero((lower != held_lower) | (upper != held_upper)).astype(np.int32)
    if len(cols):
        model.changeColsBounds(len(cols), cols, lower[cols], upper[cols])
        held_lower[cols], held_upper[cols] = lower[cols], upper[cols]
    for i in np.flatnonzero(b != held_b):
        model.changeRowBounds(int(i), b[i], b[i])
        held_b[i] = b[i]
    model.clearSolver()
    model.run()
    if model.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution = model.getSolution()
    return np.array(solution.col_value), np.array(solution.row_dual)


@dataclass
class FillSolve:
    status: str  # optimal | infeasible | budget
    coeffs: list[int] | None
    value: int | None
    nodes: int


def _split(x: list[float], lo: list[int], hi: list[int]) -> tuple[int, int, bool] | None:
    """Branching choice (cell c, k, floor child first) for the children
    a_c <= k and a_c >= k + 1, or None when the box is a single point: the
    most fractional coordinate of the LP point, ties to the lowest cell, or
    the first open range halved when the point is integral."""
    open_cells = [c for c in range(len(x)) if lo[c] < hi[c]]
    if not open_cells:
        return None
    c = min(open_cells, key=lambda c: abs(x[c] - math.floor(x[c]) - 0.5))
    k = math.floor(x[c])
    if abs(x[c] - round(x[c])) <= INT_TOL:
        c = open_cells[0]
        k = (lo[c] + hi[c]) // 2
    k = min(max(k, lo[c]), hi[c] - 1)
    return c, k, x[c] - k <= 0.5


def l1_fill(system: FillSystem, rhs: dict[int, int]) -> FillSolve:
    """min sum |a_c| with sum_c a_c * columns[c] = rhs, over the integers.

    The root node is solved before any chain is known, over free columns,
    and its LP point rounded to the integers becomes the incumbent when it
    is a chain.  Only when it is not does ``integer_solve`` supply the
    incumbent, or return infeasible when it proves that none exists.  When
    the root prunes, over the box |a_c| <= area - 1, the incumbent is
    certified minimal and the search takes 1 node.  When the first LP's
    duals do not prune, the root is solved again over that box; when that
    solve does not prune either, ``propose``'s HiGHS MILP chain becomes the
    incumbent if smaller, and the root is solved again over the box of an
    incumbent smaller than the one it was solved for before the search
    branches; the MILP runs at most once per fill.  A search that passes
    ``NODE_BUDGET`` nodes, the root's first LP included, stops with status
    budget and the best chain found so far.

    Depth-first branch and bound over boxes lo <= a <= hi, clipped to
    |a_c| <= incumbent area - 1, which every better chain satisfies; so
    every box below the root is finite and so is the tree.  Each node LP is
    elastic -- a slack on every edge row -- so it always has duals.  A slack
    costs the incumbent area, or |rhs|_1 + 1 at the root's first LP, where
    no area is known: an LP leaves unused every slack that costs more than
    its largest dual, and on the sample groups' fills the first LP's duals
    stay within a fifth of |rhs|_1 + 1.  The cost decides only whether the
    first point is a chain, never what ``lower_bound`` certifies.  A node is
    pruned only when ``lower_bound`` over its box reaches the incumbent area.
    """
    n, slacks = len(system.columns), 2 * len(system.edge_ids)
    b_float = np.array(system.dense(rhs), dtype=float)
    if not b_float.any():
        return FillSolve("optimal", [0] * n, 0, 0)
    best, best_value = None, math.inf
    first_slack_cost = float(sum(map(abs, rhs.values())) + 1)

    nodes = 0
    proposed = False
    stack = [([-math.inf] * n, [math.inf] * n)]
    while stack:
        lo, hi = stack.pop()
        cap = best_value - 1
        lo, hi = [max(v, -cap) for v in lo], [min(v, cap) for v in hi]
        if any(l > h for l, h in zip(lo, hi)):
            continue
        nodes += 1
        if nodes > NODE_BUDGET:
            return FillSolve("budget", best, None if best is None else best_value, nodes)
        # a = p - q with p, q >= 0 boxed so that p - q ranges over [lo, hi]
        lo_a, hi_a = np.array(lo, dtype=float), np.array(hi, dtype=float)
        lower = np.concatenate([np.maximum(lo_a, 0), np.maximum(-hi_a, 0), np.zeros(slacks)])
        upper = np.concatenate([np.maximum(hi_a, 0), np.maximum(-lo_a, 0), np.full(slacks, np.inf)])
        slack_cost = first_slack_cost if best is None else float(best_value)
        cost = np.concatenate([np.ones(2 * n), np.full(slacks, slack_cost)])
        solved = node_lp(system, cost, lower, upper, b_float)
        if solved is not None:
            lp_point, duals = solved
            x = lp_point[:n] - lp_point[n : 2 * n]
            point = np.clip(np.rint(x), lo_a, hi_a).astype(int).tolist()
            value = sum(map(abs, point))
            if value < best_value and solves(system.columns, point, rhs):
                best, best_value = point, value
        if best is None:
            # the root's first LP gave no chain
            best = integer_solve(system, rhs)
            if best is None:
                return FillSolve("infeasible", None, None, nodes)
            best_value = sum(map(abs, best))
        if solved is None:
            return FillSolve("budget", best, best_value, nodes)
        if cap == math.inf:
            # the root's first LP had no box: its duals bound the box of the
            # incumbent, and where they leave a gap the root is solved again
            # over that box before the MILP may run
            lo, hi = [1 - best_value] * n, [best_value - 1] * n
        bound = lower_bound(system, duals, rhs, lo, hi)
        if bound < best_value and cap == math.inf:
            nodes -= 1  # the same root node
            stack.append((lo, hi))
            continue
        if bound < best_value and not proposed:
            # the root leaves a gap: the MILP's chain may be a smaller
            # incumbent, and a smaller incumbent narrows the root box
            proposed = True
            chain = propose(system, rhs)
            if chain is not None and sum(map(abs, chain)) < best_value:
                best, best_value = chain, sum(map(abs, chain))
            if bound < best_value and best_value - 1 < cap:
                nodes -= 1  # the same root node, solved again over the narrower box
                stack.append((lo, hi))
                continue
        if bound >= best_value:
            continue
        split = _split(x.tolist(), lo, hi)
        if split is None:
            continue  # a single point, checked above
        c, k, floor_first = split
        floor_child = (lo, hi[:c] + [k] + hi[c + 1 :])
        ceil_child = (lo[:c] + [k + 1] + lo[c + 1 :], hi)
        stack.extend([ceil_child, floor_child] if floor_first else [floor_child, ceil_child])
    return FillSolve("optimal", best, best_value, nodes)
