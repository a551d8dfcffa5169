"""Exact minimal-L1 integer fillings: HiGHS LPs bound, exact integers verify.

Every HiGHS call of the package is made here.  One ``FillSystem`` holds
everything about min sum |a_c| subject to sum_c a_c * columns[c] = rhs that
does not depend on the right-hand side: the row index, the columns as
exact int64 and as per-row incidence lists, one HiGHS object, and -- built
only for the fills that need them -- the integer column reduction and its
shortened kernel basis.  A ball builds one system, and each fill supplies
its right-hand side.

* ``l1_fill`` -- the one exact-fill call: branch and price for min sum
  |a_c| subject to B a = rhs over the integers, stopped after
  ``NODE_BUDGET`` nodes; every prune is a ``lower_bound`` over the whole
  system.  Each node LP runs on the fill's local columns: at first the
  cells that touch the right-hand side's rows, over the rows they touch.
  Each node prices the whole system with the LP's duals rounded to the
  certificate's integers and extended by zero, adds every column that
  prices out and solves again, before it may prune (column generation).
  The root LP is solved before any chain is known, over free columns, and
  its rounded point is the incumbent when it is a chain, else
  ``integer_solve``'s chain is.  The root node, over the box |a_c| <= area
  - 1, certifies the incumbent; where the first LP's duals leave a gap the
  root is solved again over that box, and where that does not prune either
  the search branches.  A fill that the root certified returns the root's
  integer duals, per edge (``FillSolve.certificate``).
* ``local_lp`` -- the elastic LP of a set of columns: their entries over
  the rows they touch and the right-hand side's, and one slack pair per row.
  The rows are found by a mask over the system's rows, which also numbers
  them, so building one costs no sort.
* ``node_lp`` -- one node LP, passed whole to the system's one HiGHS object
  as the arrays it is built from (``passModel``'s array form, every column
  continuous), which drops the basis of the LP before it: every solve
  starts cold, without presolve, so a node's point and duals do not depend
  on the nodes and fills solved before it and equal those of
  ``linprog(method="highs")`` with presolve off.
* ``as_chain`` -- the one chain check: a rounded point is a chain when one
  exact int64 sparse product gives the right-hand side; a point large
  enough that the product could overflow is no chain.
* ``integer_solve`` -- particular integer solution of A x = b via column
  Hermite reduction, shortened against the reduction's integer kernel
  basis (``FillSystem.kernel``), or None, which proves that no integer
  solution exists; ``l1_fill`` calls it only when the root's rounded point
  is not a chain.
* ``lower_bound`` -- the one certificate: row duals rounded to integers
  over the constant denominator ``DUAL_SCALE`` give an exact lower bound on
  sum |a_c| over a box of integer chains.  Every dual vector gives a valid
  bound, so rounding, and the zeros outside a local LP's rows, can weaken
  it but never make it wrong.  It is int64 array arithmetic, one sparse
  product with the system's int64 columns -- the product pricing reads --
  used only after a float64 check proves that no partial sum it forms
  reaches 2**63; a failed check raises InvariantError, never a wrapped
  bound.
* ``certificate_bound`` -- the same bound from integer duals given per
  edge, such as a fill's root certificate carried to another right-hand
  side, over a box |a_c| <= cap, summed in Python integers over the
  columns that touch the duals' support.

``l1_fill`` keeps each node's box as int64 arrays over every column, so
the exact side of a fill runs on arrays throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    ``entries[c]`` lists the same column as (row position, value) pairs,
    ``incident[i]`` the columns with an entry in row i, in increasing order,
    and ``matrix`` holds the columns as an exact int64 sparse array, with
    ``matrix_t`` its transpose; ``weights[c]`` is column c's L1 norm, or 1
    for a zero column, and ``max_weight`` the largest weight.
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
        self.incident: list[list[int]] = [[] for _ in range(m)]
        rows, cols, vals = [], [], []
        for k, col in enumerate(self.entries):
            for i, v in col:
                self.incident[i].append(k)
                rows.append(i)
                cols.append(k)
                vals.append(v)
        self.matrix = sp.csc_array((np.array(vals, dtype=np.int64), (rows, cols)), shape=(m, n))
        self.matrix_t = self.matrix.T  # a view of the same arrays
        # a zero column weighs 1, so that sum_c |a_c| weights[c] bounds |a|_1
        self.weights = np.maximum(abs(self.matrix).sum(axis=0), 1).astype(float)
        self.max_weight = float(self.weights.max(initial=1.0))

    @cached_property
    def highs_model(self) -> highs._Highs:
        """The HiGHS object, with ``LP_OPTIONS`` set, that ``node_lp`` passes
        every node LP on the system to.  Built on first use."""
        model = highs._Highs()
        statuses = [model.setOptionValue(option, value) for option, value in LP_OPTIONS.items()]
        if highs.HighsStatus.kError in statuses:
            raise InvariantError("HiGHS refused the node LP's options")
        return model

    def dense(self, rhs: dict[int, int]) -> np.ndarray:
        """``rhs`` as one int64 per row."""
        try:
            at = [self.row[e] for e in rhs]
        except KeyError as exc:
            raise InvariantError(f"right-hand side edge {exc.args[0]} is not a row of the fill system") from None
        b = np.zeros(len(self.edge_ids), dtype=np.int64)
        b[at] = list(rhs.values())
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
    residual = system.dense(rhs).tolist()
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


def _integer_duals(system: FillSystem, marginals, b: np.ndarray) -> np.ndarray:
    """The float duals ``marginals``, one per row of the system, rounded half
    to even to the int64 vector Y over D = DUAL_SCALE, after float64 checks
    that max|Y| times the largest column weight and sum_i |Y_i b_i| are
    below 2**62, so that A^T Y and Y.b are exact in int64; a dual that is
    not finite or a failed check raises InvariantError."""
    y = np.rint(np.asarray(marginals, dtype=float) * DUAL_SCALE)
    if not np.isfinite(y).all():
        raise InvariantError("a node LP dual is not finite")
    y_abs = np.abs(y)
    _check_magnitude("max |Y| times the largest column weight", y_abs.max(initial=0.0) * system.max_weight)
    _check_magnitude("sum |Y_i rhs_i|", y_abs @ np.abs(b))
    return y.astype(np.int64)


def _bound(y: np.ndarray, s: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """``lower_bound``'s bound from the integer duals Y, s = A^T Y, the
    right-hand side b and the box, with the last of its magnitude checks."""
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    a = np.where(s > DUAL_SCALE, hi, np.where(s < -DUAL_SCALE, lo, np.maximum(lo, np.minimum(hi, 0))))
    slope = DUAL_SCALE * np.sign(a) - s
    _check_magnitude("the box terms' sum of magnitudes", np.abs(slope.astype(float)) @ np.abs(a.astype(float)))
    total = int(y @ b) + int(slope @ a)
    return -(-total // DUAL_SCALE)


def lower_bound(
    system: FillSystem, marginals, rhs: dict[int, int], lo: np.ndarray | list[int], hi: np.ndarray | list[int]
) -> int:
    """Exact lower bound on sum_c |a_c| over the integer chains a with
    lo[c] <= a_c <= hi[c] and sum_c a_c * columns[c] = rhs.

    The float duals ``marginals`` (one per row of the system: a node LP's
    row duals on its local rows, 0 on the others) are rounded half to even
    to an integer vector Y over D = DUAL_SCALE.  Every such chain satisfies
    D sum_c |a_c| = Y.rhs + sum_c (D |a_c| - s_c a_c) with s = A^T Y, and
    each summand is convex in a_c, so it is smallest over [lo_c, hi_c] at
    hi_c when s_c > D, at lo_c when s_c < -D, and else at the point of the
    box nearest 0: a column whose box holds 0 adds
    -max((s_c - D)+ hi_c, (-s_c - D)+ (-lo_c)).  The bound holds for every Y.

    It is int64 arithmetic: Y.rhs as one dot product, s as one sparse
    product, each summand as (D sign(a_c) - s_c) a_c at its minimiser.
    Before using them it checks, in float64, that max|Y| times the largest
    column weight (its L1 norm, at least 1), sum_i |Y_i rhs_i| and the sum
    of the summands' magnitudes are each below 2**62.  These bound every
    partial sum formed below 2**63, with a factor 2 left for the float64
    rounding of the check, so the arithmetic is exact; a dual that is not
    finite or a failed check raises InvariantError.
    """
    b = system.dense(rhs)
    y = _integer_duals(system, marginals, b)
    return _bound(y, system.matrix_t @ y, b, lo, hi)


def certificate_bound(system: FillSystem, certificate: dict[int, int], rhs: dict[int, int], cap: int) -> int:
    """``lower_bound``'s exact bound over the integer chains a with
    |a_c| <= cap and sum_c a_c * columns[c] = rhs, from integer duals Y
    over D = DUAL_SCALE given per edge, as ``FillSolve.certificate`` gives
    them (or a carry of one to another loop).

    An edge that is no row of the system meets no column and no entry of
    rhs, so its entry is dropped without changing the bound.  Every Y gives
    a valid bound, so a certificate made for another right-hand side is
    checked here, never trusted.

    The bound is summed in Python integers over the columns that touch
    supp(Y) (``FillSystem.incident`` of Y's rows), each s_c read off the
    column's ``entries``.  Every other column has s_c = 0, where the box
    |a_c| <= cap, for cap >= 0, puts the minimiser at a_c = 0, so it adds
    nothing and the sum is ``lower_bound``'s over every column.  The three
    magnitude checks of ``lower_bound`` are kept, with their messages, on
    the exact sums, and a right-hand-side edge that is no row raises
    InvariantError, so it refuses what the int64 bound refused.
    """
    row = system.row
    try:
        b = {row[e]: v for e, v in rhs.items()}
    except KeyError as exc:
        raise InvariantError(f"right-hand side edge {exc.args[0]} is not a row of the fill system") from None
    y = {i: value for edge, value in certificate.items() if value and (i := row.get(edge)) is not None}
    largest = max(map(abs, y.values()), default=0)
    _check_magnitude("max |Y| times the largest column weight", largest * system.max_weight)
    _check_magnitude("sum |Y_i rhs_i|", sum(abs(y.get(i, 0) * v) for i, v in b.items()))
    total = sum(y.get(i, 0) * v for i, v in b.items())
    magnitude = 0
    entries, incident, get = system.entries, system.incident, y.get
    for c in {c for i in y for c in incident[i]}:
        s = 0
        for i, v in entries[c]:
            s += get(i, 0) * v
        # the summand (D sign(a_c) - s_c) a_c at a_c = cap, -cap or 0
        if s > DUAL_SCALE:
            term = (DUAL_SCALE - s) * cap
        elif s < -DUAL_SCALE:
            term = (DUAL_SCALE + s) * cap
        else:
            continue
        total += term
        magnitude += abs(term)
    _check_magnitude("the box terms' sum of magnitudes", magnitude)
    return -(-total // DUAL_SCALE)


class LocalLP(NamedTuple):
    """The elastic LP of some of a system's columns: ``columns`` and ``rows``
    are the system positions, ascending, of its k cells and r edges, and
    (start, index, value) is its matrix in compressed-column form over
    (p, q, s+, s-) -- a = p - q on the cells, one slack pair per row -- so
    it has 2k + 2r columns and r rows."""

    columns: np.ndarray
    rows: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


def local_lp(system: FillSystem, columns: np.ndarray, rhs_rows: np.ndarray) -> LocalLP:
    """The elastic LP of ``columns`` (ascending system positions) over the
    rows they touch and ``rhs_rows``; the rows outside it hold no entry of
    these columns."""
    matrix = system.matrix
    first = matrix.indptr[columns]
    count = matrix.indptr[columns + 1] - first
    cells = np.zeros(len(columns) + 1, dtype=np.int32)
    np.cumsum(count, out=cells[1:])
    nnz = int(cells[-1])
    at = np.arange(nnz) + np.repeat(first - cells[:-1], count)
    touched = matrix.indices[at]
    mask = np.zeros(len(system.edge_ids), dtype=bool)
    mask[touched] = mask[rhs_rows] = True
    rows = np.flatnonzero(mask)
    r = len(rows)
    eye = np.arange(r, dtype=np.int32)
    # each local row's position, read only at the local rows
    position = np.empty(len(mask), dtype=np.int32)
    position[rows] = eye
    index = position[touched]
    value = matrix.data[at].astype(float)
    return LocalLP(
        columns,
        rows,
        np.concatenate([cells, nnz + cells[1:], 2 * nnz + 1 + np.arange(2 * r, dtype=np.int32)]),
        np.concatenate([index, index, eye, eye]),
        np.concatenate([value, -value, np.ones(r), -np.ones(r)]),
    )


def node_lp(
    system: FillSystem, lp: LocalLP, cost: np.ndarray, lower: np.ndarray, upper: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """min cost.v subject to M v = b and lower <= v <= upper, with M
    ``lp``'s matrix and b its rows' right-hand side, on the system's HiGHS
    object: (v, row duals), or None unless HiGHS reports the LP optimal.
    The arrays go to ``passModel``'s array form as they are, with the
    matrix column-wise, the sense minimise and an explicit integrality,
    every column continuous (an empty integrality array is not read as
    none).  ``passModel`` replaces the object's LP and drops its basis, so
    each solve starts cold, as a fresh object's would."""
    model = system.highs_model
    k, m = len(cost), len(b)
    colwise, minimise = int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize)
    status = model.passModel(
        k, m, len(lp.index), colwise, minimise, 0.0, cost, lower, upper, b, b, lp.start, lp.index, lp.value,
        np.zeros(k, dtype=np.int32),
    )
    if status == highs.HighsStatus.kError:
        raise InvariantError("HiGHS refused a node LP")
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
    # the fill's local columns when it ended, and its node LPs, each of which
    # priced every column outside them
    lp_columns: int = 0
    pricing_rounds: int = 0
    # when the root node's bound certified the chain (so nodes == 1): its
    # integer duals Y over DUAL_SCALE as {edge: Y_e}, nonzero entries only;
    # else None
    certificate: dict[int, int] | None = None


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

    Depth-first branch and price over boxes lo <= a <= hi, clipped to
    |a_c| <= incumbent area - 1, which every better chain satisfies; so
    every box below the root is finite and so is the tree.  Each node LP is
    elastic -- a slack on every row -- so it always has duals, and runs on
    the fill's local columns: at first the cells that touch the right-hand
    side's rows, joined by every cell a box keeps away from 0.  The node
    rounds the LP's duals to the integer Y of ``lower_bound``, extends Y by
    zero to every row of the system and forms s = A^T Y; every column
    outside the local ones with |s_c| > DUAL_SCALE, which could lower the
    LP's value, joins them, and the node solves again, until none joins.
    Only then is its point, over every column, checked by ``as_chain``, and
    its bound taken from the same s over the whole box: a bound that holds
    for any Y, so pricing decides only how fast a fill is, never what is
    certified.

    A slack costs the incumbent area, or |rhs|_1 + 1 at the root's first
    LP, where no area is known: an LP leaves unused every slack that costs
    more than its largest dual, and on the sample groups' fills the first
    LP's duals stay within a fifth of |rhs|_1 + 1.  The cost decides only
    whether the first point is a chain, never what ``lower_bound``
    certifies.  A node is pruned only when ``lower_bound`` over its box
    reaches the incumbent area.

    Boxes are int64 arrays, and a point is a chain only through
    ``as_chain``; an incumbent of area 2**62 or more, which only
    ``integer_solve`` could supply, raises InvariantError.
    """
    n = len(system.columns)
    b = system.dense(rhs)
    if not b.any():
        return FillSolve("optimal", [0] * n, 0, 0)
    rhs_rows = np.flatnonzero(b)
    local = np.zeros(n, dtype=bool)
    local[[c for i in rhs_rows.tolist() for c in system.incident[i]]] = True
    best, best_value = None, math.inf
    first_slack_cost = float(np.abs(b).sum() + 1)

    nodes = rounds = 0
    certificate = None
    stack = [None]  # the root's first LP, over free columns
    while stack:
        box = stack.pop()
        if box is not None:
            cap = best_value - 1
            lo, hi = np.maximum(box[0], -cap), np.minimum(box[1], cap)
            if (lo > hi).any():
                continue
            local |= (lo > 0) | (hi < 0)
        nodes += 1
        if nodes > NODE_BUDGET:
            return FillSolve("budget", best, None if best is None else best_value, nodes, int(local.sum()), rounds)
        slack_cost = first_slack_cost if best is None else float(best_value)
        while True:
            columns = np.flatnonzero(local)
            lp = local_lp(system, columns, rhs_rows)
            width, slacks = len(columns), 2 * len(lp.rows)
            cost = np.concatenate([np.ones(2 * width), np.full(slacks, slack_cost)])
            if box is None:
                lower, upper = np.zeros(2 * width + slacks), np.full(2 * width + slacks, np.inf)
            else:
                # a = p - q with p, q >= 0 boxed so that p - q ranges over [lo, hi]
                lo_k, hi_k = lo[columns], hi[columns]
                lower = np.concatenate([np.maximum(lo_k, 0), np.maximum(-hi_k, 0), np.zeros(slacks)])
                upper = np.concatenate([np.maximum(hi_k, 0), np.maximum(-lo_k, 0), np.full(slacks, np.inf)])
            solved = node_lp(system, lp, cost, lower, upper, b[lp.rows].astype(float))
            rounds += 1
            if solved is None:
                break
            lp_point, duals = solved
            marginals = np.zeros(len(b))
            marginals[lp.rows] = duals
            y = _integer_duals(system, marginals, b)
            s = system.matrix_t @ y
            joining = (np.abs(s) > DUAL_SCALE) & ~local
            if not joining.any():
                break
            local |= joining
        if solved is not None:
            x = np.zeros(n)
            x[columns] = lp_point[:width] - lp_point[width : 2 * width]
            point = np.rint(x) if box is None else np.clip(np.rint(x), lo, hi)
            chain = as_chain(system, point, b)
            if chain is not None and (value := int(np.abs(chain).sum())) < best_value:
                best, best_value = chain.tolist(), value
        if best is None:
            # the root's first LP gave no chain
            best = integer_solve(system, rhs)
            if best is None:
                return FillSolve("infeasible", None, None, nodes, int(local.sum()), rounds)
            best_value = sum(map(abs, best))
            _check_magnitude("integer_solve's chain area", best_value)
        if solved is None:
            return FillSolve("budget", best, best_value, nodes, int(local.sum()), rounds)
        if box is None:
            # the root's first LP had no box: its duals bound the box of the
            # incumbent, and where they leave a gap the root is solved again
            # over that box
            hi = np.full(n, best_value - 1, dtype=np.int64)
            lo = -hi
        if _bound(y, s, b, lo, hi) >= best_value:
            if nodes == 1:
                # the root prunes, so the search ends with its duals y
                at = np.flatnonzero(y)
                certificate = dict(zip(np.asarray(system.edge_ids)[at].tolist(), y[at].tolist()))
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
    return FillSolve("optimal", best, best_value, nodes, int(local.sum()), rounds, certificate)
