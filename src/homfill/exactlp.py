"""Exact minimal-L1 integer fillings: HiGHS LPs bound, exact integers verify.

Every HiGHS call of the package is made here.  One ``FillSystem`` holds
everything about min sum |a_c| subject to sum_c a_c * columns[c] = rhs that
does not depend on the right-hand side: the row index, the columns as
exact int64, the node LP's matrix and its one HiGHS model, and -- built
only for the fills that need them -- the integer column reduction and its
shortened kernel basis.  A ball builds one system, and each fill supplies
its right-hand side.

* ``l1_fill`` -- the one exact-fill call: branch and bound for min sum |a_c|
  subject to B a = rhs over the integers, on HiGHS node LPs, stopped after
  ``NODE_BUDGET`` nodes; every prune is a ``lower_bound``.  Its root LP is
  solved before any chain is known, over free columns, and its rounded
  point is the incumbent when it is a chain, else ``integer_solve``'s chain
  is.  The root node, over the box |a_c| <= area - 1, certifies the
  incumbent; where the first LP's duals leave a gap the root is solved again
  over that box, and where that does not prune either the search branches.
* ``node_lp`` -- one node LP on the system's HiGHS model, which is passed
  to HiGHS once (``FillSystem.lp_model``): each node changes only the column
  costs, column bounds and row bounds that differ from those the model
  holds, and solves from a cold start without presolve, so a node's point
  and duals do not depend on the nodes and fills solved before it and equal
  those of ``linprog(method="highs")`` with presolve off.
* ``as_chain`` -- the one chain check: a rounded point is a chain when one
  exact int64 sparse product gives the right-hand side; a point large
  enough that the product could overflow is no chain.
* ``integer_solve`` -- particular integer solution of A x = b via column
  Hermite reduction, shortened against the reduction's integer kernel
  basis (``FillSystem.kernel``), or None, which proves that no integer
  solution exists; ``l1_fill`` calls it only when the root's rounded point
  is not a chain.
* ``lower_bound`` -- the one certificate: the node LP's HiGHS duals rounded
  to integers over the constant denominator ``DUAL_SCALE`` give an exact
  lower bound on sum |a_c| over a box of integer chains.  Every dual vector
  gives a valid bound, so rounding can weaken it but never make it wrong.
  It is int64 array arithmetic, one sparse product with the system's int64
  columns, used only after a float64 check proves that no partial sum it
  forms reaches 2**63; a failed check raises InvariantError, never a
  wrapped bound.

``l1_fill`` keeps each node's box as int64 arrays, so the exact side of a
fill runs on arrays throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs  # private scipy API, shipped since scipy 1.15

from .errors import InvariantError

# denominator of the integer dual vectors: rounding loses at most about
# (cells x relator length x area) / 2**21 of a unit of the bound
DUAL_SCALE = 2**20

# distance from an integer below which an LP coordinate counts as integral
INT_TOL = 1e-6

# int64 sums are exact while every partial sum stays below 2**63; the checks
# hold float64 bounds on them below this, leaving a factor 2 for rounding
INT64_BOUND = 2.0**62

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
    ``entries[c]`` lists the same column as (row position, value) pairs, and
    ``matrix`` holds the columns as an exact int64 sparse array, with
    ``matrix_t`` its transpose; ``weights[c]`` is column c's L1 norm, or 1
    for a zero column, and ``max_weight`` the largest weight.  ``lp_matrix`` is
    the elastic node LP's matrix over (p, q, s+, s-), with a = p - q and
    one slack pair per row; ``lp_model`` is its HiGHS model.
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
                vals.append(v)
        self.matrix = sp.csc_array((np.array(vals, dtype=np.int64), (rows, cols)), shape=(m, n))
        self.matrix_t = self.matrix.T  # a view of the same arrays
        # a zero column weighs 1, so that sum_c |a_c| weights[c] bounds |a|_1
        self.weights = np.maximum(abs(self.matrix).sum(axis=0), 1).astype(float)
        self.max_weight = float(self.weights.max(initial=1.0))

        a_mat = sp.csc_matrix(self.matrix, dtype=float)
        eye = sp.identity(m, format="csc")
        self.lp_matrix = sp.hstack([a_mat, -a_mat, eye, -eye], format="csc")

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

    @cached_property
    def kernel(self) -> list[dict[int, int]]:
        """A basis of the integer chains with zero boundary: the rows of
        ``hermite``'s V whose reduced columns are zero, each shortened
        against the others by ``_shorten`` until no pair shortens.  Built on
        first use."""
        _, vmat, pivots = self.hermite
        basis = [dict(v) for v in vmat[len(pivots) :]]
        shortened = True
        while shortened:
            shortened = False
            for i, j in itertools.permutations(range(len(basis)), 2):
                shortened |= _shorten(basis[i], basis[j])
        return basis


def _shorten(target: dict[int, int], vector: dict[int, int]) -> bool:
    """Subtract from ``target`` the nearest-integer multiple of ``vector``
    when that makes its Euclidean norm fall; True when it did."""
    norm = sum(v * v for v in vector.values())
    dot = sum(v * target.get(i, 0) for i, v in vector.items())
    q = (2 * dot + norm) // (2 * norm)
    if q * q * norm >= 2 * q * dot:
        return False
    _subtract(target, q, vector)
    return True


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
    substitution, pulled back through V and shortened against every
    ``kernel`` vector in turn until none shortens it.
    """
    cols, vmat, pivots = system.hermite
    residual = system.dense(rhs)
    x: dict[int, int] = {}
    for r, c in pivots:
        d = cols[c][r]
        if residual[r] % d:
            return None
        if yc := residual[r] // d:
            for i, v in cols[c].items():
                residual[i] -= yc * v
            _subtract(x, -yc, vmat[c])
    if any(residual):
        return None
    shortened = True
    while shortened:
        shortened = False
        for k in system.kernel:
            shortened |= _shorten(x, k)
    return [x.get(k, 0) for k in range(len(cols))]


def _check_magnitude(name: str, value: float) -> None:
    """Raise InvariantError unless ``value``, a bound on the magnitudes an
    int64 sum forms, is below ``INT64_BOUND``."""
    if not value < INT64_BOUND:
        raise InvariantError(f"{name} is 2**{math.log2(value):.1f}, not below 2**62: int64 arithmetic could overflow")


def as_chain(system: FillSystem, point: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """``point``, floats that are integers, as an int64 chain a when
    sum_c a_c * columns[c] == b holds exactly, else None.

    sum_c |point[c]| * weights[c] bounds every partial sum of the product
    and |a|_1; a point where it reaches 2**62, or is not finite, is no
    chain here, so the int64 product never wraps.
    """
    if not np.abs(point) @ system.weights < INT64_BOUND:
        return None
    chain = point.astype(np.int64)
    return chain if np.array_equal(system.matrix @ chain, b) else None


def lower_bound(
    system: FillSystem, marginals, rhs: dict[int, int], lo: np.ndarray | list[int], hi: np.ndarray | list[int]
) -> int:
    """Exact lower bound on sum_c |a_c| over the integer chains a with
    lo[c] <= a_c <= hi[c] and sum_c a_c * columns[c] = rhs.

    The float duals ``marginals`` (one per row of the system, as ``node_lp``
    reads them from the model's row duals) are rounded half to even to an
    integer vector Y over D = DUAL_SCALE.  Every such chain satisfies
    D sum_c |a_c| = Y.rhs + sum_c (D |a_c| - s_c a_c) with s = A^T Y, and
    each summand is convex in a_c, so it is smallest over [lo_c, hi_c] at
    hi_c when s_c > D, at lo_c when s_c < -D, and else at the point of the
    box nearest 0: a column whose box holds 0 adds
    -max((s_c - D)+ hi_c, (-s_c - D)+ (-lo_c)).  The bound holds for every Y.

    It is int64 arithmetic: Y.rhs as one dot product, s as one sparse
    product, each summand as (D sign(a_c) - s_c) a_c at its minimiser.
    Before using them it checks, in float64, that max|Y| times the largest
    column weight (its L1 norm, at least 1), sum_i |Y_i rhs_i| and the sum
    of the summands' magnitudes are each below 2**62.  These bound every partial sum formed below 2**63,
    with a factor 2 left for the float64 rounding of the check, so the
    arithmetic is exact; a dual that is not finite or a failed check raises
    InvariantError.
    """
    y = np.rint(np.asarray(marginals, dtype=float) * DUAL_SCALE)
    if not np.isfinite(y).all():
        raise InvariantError("a node LP dual is not finite")
    b = np.array(system.dense(rhs), dtype=np.int64)
    y_abs = np.abs(y)
    _check_magnitude("max |Y| times the largest column weight", y_abs.max(initial=0.0) * system.max_weight)
    _check_magnitude("sum |Y_i rhs_i|", y_abs @ np.abs(b))
    y = y.astype(np.int64)
    s = system.matrix_t @ y
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    a = np.where(s > DUAL_SCALE, hi, np.where(s < -DUAL_SCALE, lo, np.maximum(lo, np.minimum(hi, 0))))
    slope = DUAL_SCALE * np.sign(a) - s
    _check_magnitude("the box terms' sum of magnitudes", np.abs(slope.astype(float)) @ np.abs(a.astype(float)))
    total = int(y @ b) + int(slope @ a)
    return -(-total // DUAL_SCALE)


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


def _split(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[int, int, bool] | None:
    """Branching choice (cell c, k, floor child first) for the children
    a_c <= k and a_c >= k + 1, or None when the box is a single point: the
    most fractional coordinate of the LP point, ties to the lowest cell, or
    the first open range halved when the point is integral."""
    open_cells = np.flatnonzero(lo < hi)
    if not open_cells.size:
        return None
    x_open = x[open_cells]
    c = int(open_cells[np.argmin(np.abs(x_open - np.floor(x_open) - 0.5))])
    xc = float(x[c])
    k = math.floor(xc)
    if abs(xc - round(xc)) <= INT_TOL:
        c = int(open_cells[0])
        k = (int(lo[c]) + int(hi[c])) // 2
    k = min(max(k, int(lo[c])), int(hi[c]) - 1)
    return c, k, float(x[c]) - k <= 0.5


def l1_fill(system: FillSystem, rhs: dict[int, int]) -> FillSolve:
    """min sum |a_c| with sum_c a_c * columns[c] = rhs, over the integers.

    The root node is solved before any chain is known, over free columns,
    and its LP point rounded to the integers becomes the incumbent when it
    is a chain.  Only when it is not does ``integer_solve`` supply the
    incumbent, or return infeasible when it proves that none exists.  When
    the root prunes, over the box |a_c| <= area - 1, the incumbent is
    certified minimal and the search takes 1 node.  When the first LP's
    duals do not prune, the root is solved again over that box, and when
    that solve does not prune either the search branches.  A search that
    passes ``NODE_BUDGET`` nodes, the root's first LP included, stops with
    status budget and the best chain found so far.

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

    Boxes are int64 arrays, and a point is a chain only through
    ``as_chain``; an incumbent of area 2**62 or more, which only
    ``integer_solve`` could supply, raises InvariantError.
    """
    n, slacks = len(system.columns), 2 * len(system.edge_ids)
    b = np.array(system.dense(rhs), dtype=np.int64)
    if not b.any():
        return FillSolve("optimal", [0] * n, 0, 0)
    b_float = b.astype(float)
    best, best_value = None, math.inf
    first_slack_cost = float(np.abs(b).sum() + 1)
    slack_lower, slack_upper = np.zeros(slacks), np.full(slacks, np.inf)

    nodes = 0
    stack = [None]  # the root's first LP, over free columns
    while stack:
        box = stack.pop()
        if box is None:
            lower, upper = np.zeros(2 * n + slacks), np.full(2 * n + slacks, np.inf)
        else:
            cap = best_value - 1
            lo, hi = np.maximum(box[0], -cap), np.minimum(box[1], cap)
            if (lo > hi).any():
                continue
            # a = p - q with p, q >= 0 boxed so that p - q ranges over [lo, hi]
            lower = np.concatenate([np.maximum(lo, 0), np.maximum(-hi, 0), slack_lower])
            upper = np.concatenate([np.maximum(hi, 0), np.maximum(-lo, 0), slack_upper])
        nodes += 1
        if nodes > NODE_BUDGET:
            return FillSolve("budget", best, None if best is None else best_value, nodes)
        slack_cost = first_slack_cost if best is None else float(best_value)
        cost = np.concatenate([np.ones(2 * n), np.full(slacks, slack_cost)])
        solved = node_lp(system, cost, lower, upper, b_float)
        if solved is not None:
            lp_point, duals = solved
            x = lp_point[:n] - lp_point[n : 2 * n]
            point = np.rint(x) if box is None else np.clip(np.rint(x), lo, hi)
            chain = as_chain(system, point, b)
            if chain is not None and (value := int(np.abs(chain).sum())) < best_value:
                best, best_value = chain.tolist(), value
        if best is None:
            # the root's first LP gave no chain
            best = integer_solve(system, rhs)
            if best is None:
                return FillSolve("infeasible", None, None, nodes)
            best_value = sum(map(abs, best))
            _check_magnitude("integer_solve's chain area", best_value)
        if solved is None:
            return FillSolve("budget", best, best_value, nodes)
        if box is None:
            # the root's first LP had no box: its duals bound the box of the
            # incumbent, and where they leave a gap the root is solved again
            # over that box
            hi = np.full(n, best_value - 1, dtype=np.int64)
            lo = -hi
        bound = lower_bound(system, duals, rhs, lo, hi)
        if bound >= best_value:
            continue
        if box is None:
            nodes -= 1  # the same root node
            stack.append((lo, hi))
            continue
        split = _split(x, lo, hi)
        if split is None:
            continue  # a single point, checked above
        c, k, floor_first = split
        floor_hi, ceil_lo = hi.copy(), lo.copy()
        floor_hi[c], ceil_lo[c] = k, k + 1
        floor_child, ceil_child = (lo, floor_hi), (ceil_lo, hi)
        stack.extend([ceil_child, floor_child] if floor_first else [floor_child, ceil_child])
    return FillSolve("optimal", best, best_value, nodes)
