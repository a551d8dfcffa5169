import functools
import itertools
import math
import os
import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

from homfill import exactlp
from homfill.cayley import OneCycle, build_ball, loop_to_cycle
from homfill.cli import load_group
from homfill.errors import InvariantError
from homfill.exactlp import FillSystem, as_chain, integer_solve, l1_fill, local_lp, lower_bound, node_lp
from homfill.filling import _peel_forced, enumerate_identity_cycles, harea_fill
from homfill.words import parse_word

from oracles import local_lp_reference, lower_bound_reference, solves

GROUPS = os.path.join(os.path.dirname(__file__), "..", "groups")


def test_integer_solve_random():
    rng = random.Random(1)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [
            {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.7} for _ in range(m)
        ]
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = [sum(row.get(j, 0) * x[j] for j in range(n)) for row in rows]
        columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(n)]
        sol = integer_solve(FillSystem(columns, list(range(m))), dict(enumerate(b)))
        assert sol is not None
        for i, row in enumerate(rows):
            assert sum(row.get(j, 0) * sol[j] for j in range(n)) == b[i]


def test_integer_solve_divisibility():
    system = FillSystem([{0: 2}], [0])
    assert integer_solve(system, {0: 1}) is None
    assert integer_solve(system, {0: 4}) == [2]
    assert integer_solve(FillSystem([{0: 0}], [0]), {0: 1}) is None


def _path_system():
    """A path of two cells and its end-to-end right-hand side."""
    return FillSystem([{0: 1, 1: 1}, {1: -1, 2: 1}], [0, 1, 2]), {0: 1, 1: 0, 2: 1}


def test_l1_fill_basic():
    r = l1_fill(FillSystem([{0: 2}], [0]), {0: 4})
    assert (r.status, r.coeffs, r.value) == ("optimal", [2], 2)
    assert l1_fill(FillSystem([{0: 2}], [0]), {0: 3}).status == "infeasible"
    # the path system's LP optimum is integral, so the root's rounded point
    # is a minimal chain, the root node's bound reaches its area and the
    # search stops there
    path, rhs = _path_system()
    r = l1_fill(path, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes) == ("optimal", [1, 1], 2, 1)


def test_l1_fill_prefers_smaller_l1():
    # rhs reachable by one cell with coefficient 2 or two cells with 1 each:
    # column 0 covers both edges, columns 1/2 one edge each
    columns = [{0: 1, 1: 1}, {0: 1}, {1: 1}]
    r = l1_fill(FillSystem(columns, [0, 1]), {0: 1, 1: 1})
    assert r.status == "optimal"
    assert r.value == 1
    assert r.coeffs == [1, 0, 0]


def test_l1_fill_rational_but_not_integer_feasible():
    # odd triangle: rationally solvable (1/2 each) but no integer solution
    columns = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    r = l1_fill(FillSystem(columns, [0, 1, 2]), {0: 1, 1: 1, 2: 1})
    assert r.status == "infeasible"


def test_l1_fill_branches_on_fractional_vertex():
    # 2 x0 + x1 = 1: LP relaxation sits at x0 = 1/2, integrality forces x1 = 1
    system, rhs = FillSystem([{0: 2}, {0: 1}], [0]), {0: 1}
    r = l1_fill(system, rhs)
    assert r.status == "optimal"
    assert r.value == 1
    assert r.coeffs == [0, 1]
    # the LP vertex's dual 1/2 certifies the value: no chain inside the box
    # |a_c| <= value - 1 has a smaller area
    cap = r.value - 1
    assert lower_bound(system, [0.5], rhs, [-cap] * 2, [cap] * 2) >= r.value


def test_l1_fill_closes_integrality_gap():
    # 3 x0 + 2 x1 = 1: the LP value is 1/3, the integer optimum (1, -1) has
    # area 2, so the root bound cannot close and the search must branch
    r = l1_fill(FillSystem([{0: 3}, {0: 2}], [0]), {0: 1})
    assert (r.status, r.value) == ("optimal", 2)
    assert r.coeffs == [1, -1]
    assert r.nodes > 1


def _vectors_with_l1(n, total):
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(-total, total + 1):
        for rest in _vectors_with_l1(n - 1, total - abs(v)):
            yield (v, *rest)


def _exhaustive_min(columns, rhs, limit):
    for total in range(limit + 1):
        if any(solves(columns, list(a), rhs) for a in _vectors_with_l1(len(columns), total)):
            return total
    return None


def _random_system(rng):
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    columns = [{e: v for e in range(m) if (v := rng.randint(-3, 3)) and rng.random() < 0.8} for _ in range(n)]
    x = [rng.randint(-2, 2) for _ in range(n)]
    rhs = {}
    for v, col in zip(x, columns):
        for e, w in col.items():
            rhs[e] = rhs.get(e, 0) + v * w
    return columns, list(range(m)), rhs, x


def test_l1_fill_matches_exhaustive_enumeration():
    rng = random.Random(7)
    branched = 0
    for _ in range(240):
        columns, edge_ids, rhs, x = _random_system(rng)
        r = l1_fill(FillSystem(columns, edge_ids), rhs)
        assert r.status == "optimal"
        assert solves(columns, r.coeffs, rhs)
        assert r.value == sum(map(abs, r.coeffs)) == _exhaustive_min(columns, rhs, sum(map(abs, x)))
        branched += r.nodes > 1
    assert branched >= 20


def test_lower_bound_holds_for_any_dual():
    # any dual vector, however wrong, gives a bound no larger than the
    # smallest area of an integer solution inside the box
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        columns, edge_ids, rhs, _ = _random_system(rng)
        n = len(columns)
        lo = [rng.randint(-2, 1) for _ in range(n)]
        hi = [v + rng.randint(0, 2) for v in lo]
        areas = [
            sum(map(abs, a))
            for a in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
            if solves(columns, list(a), rhs)
        ]
        if not areas:
            continue
        marginals = [rng.uniform(-2, 2) for _ in edge_ids]
        assert lower_bound(FillSystem(columns, edge_ids), marginals, rhs, lo, hi) <= min(areas)
        checked += 1
    assert checked >= 30


def _random_box(rng, n):
    """Bounds per cell that hold 0, lie on one side of it, or are a single
    point."""
    lo, hi = [], []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            l = h = rng.randint(-3, 3)
        elif kind == 1:
            l = rng.randint(1, 3)
            h = l + rng.randint(0, 3)
        elif kind == 2:
            h = rng.randint(-3, -1)
            l = h - rng.randint(0, 3)
        else:
            l, h = -rng.randint(0, 3), rng.randint(0, 3)
        lo.append(l)
        hi.append(h)
    return lo, hi


def test_lower_bound_equals_the_python_reference():
    # the int64 bound equals, bit for bit, the column-by-column bound in
    # Python integers, for random duals, for duals that are halves of
    # 1 / DUAL_SCALE (rounding ties) and for integer duals (|s_c| = D
    # exactly), over random boxes
    rng = random.Random(13)
    scale = exactlp.DUAL_SCALE
    for trial in range(400):
        columns, edge_ids, rhs, _ = _random_system(rng)
        system = FillSystem(columns, edge_ids)
        for _ in range(4):
            lo, hi = _random_box(rng, len(columns))
            if trial % 3 == 0:
                y = [rng.uniform(-2, 2) for _ in edge_ids]
            elif trial % 3 == 1:
                y = [rng.randint(-4 * scale, 4 * scale) / (2 * scale) for _ in edge_ids]
            else:
                y = [float(rng.randint(-2, 2)) for _ in edge_ids]
            assert lower_bound(system, y, rhs, lo, hi) == lower_bound_reference(system, y, rhs, lo, hi)


@pytest.mark.parametrize("name", ["z3_ext.grp", "heis_ext.grp"])
def test_lower_bound_equals_the_python_reference_on_root_duals(monkeypatch, name):
    # every node LP's duals of every unpeeled fill at radius 4, extended by
    # zero from the LP's local rows to every row of the ball, over the root
    # box of the fill's area and over a random box
    rng = random.Random(19)
    checked = 0
    for system, rhs in _root_systems(name, 4):
        r, lps = _node_lps(monkeypatch, system, rhs)
        cap = [r.value - 1] * len(system.columns)
        for args, (_, duals) in lps:
            y = _extended(system, args[1], duals)
            for lo, hi in (([-v for v in cap], cap), _random_box(rng, len(cap))):
                assert lower_bound(system, y, rhs, lo, hi) == lower_bound_reference(system, y, rhs, lo, hi)
                checked += 1
    assert checked > 200


def test_as_chain_equals_the_python_check():
    rng = random.Random(17)
    chains = 0
    for _ in range(300):
        columns, edge_ids, rhs, x = _random_system(rng)
        system = FillSystem(columns, edge_ids)
        b = np.array(system.dense(rhs), dtype=np.int64)
        for point in (x, [v + rng.randint(-1, 1) for v in x]):
            chain = as_chain(system, np.array(point, dtype=float), b)
            assert (chain is not None) == solves(columns, point, rhs)
            if chain is not None:
                assert chain.tolist() == point
                chains += 1
    assert 300 < chains < 600


def test_int64_checks_raise_rather_than_wrap():
    # lower_bound raises InvariantError, never returns a bound, for duals
    # that are not finite and wherever a magnitude its int64 sums form could
    # reach 2**63; just below the checks it still equals the Python bound
    system, rhs = FillSystem([{0: 1}, {0: 1, 1: -1}], [0, 1]), {0: 1}
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvariantError, match="not finite"):
            lower_bound(system, [bad, 0.0], rhs, [-1, -1], [1, 1])
    # Y_0 = 2**61 times the largest column weight 2; with no column, Y_0
    # itself is bounded
    with pytest.raises(InvariantError, match="largest column weight is 2\\*\\*62.0"):
        lower_bound(system, [2.0**41, 0.0], rhs, [0, 0], [0, 0])
    with pytest.raises(InvariantError, match="largest column weight is 2\\*\\*62.0"):
        lower_bound(FillSystem([], [0]), [2.0**42], {}, [], [])
    # |Y_0 rhs_0| = 2**50 * 2**12
    with pytest.raises(InvariantError, match="rhs_i"):
        lower_bound(system, [2.0**30, 0.0], {0: 2**12}, [0, 0], [0, 0])
    # Y_0 = 2**22, so s = (2**22, 2**22) passes D = 2**20 and each column's
    # term is (D - 2**22) hi_c: 3 * 2**61 over hi_0 = 2**41
    y = [4.0, 0.0]
    with pytest.raises(InvariantError, match="box terms"):
        lower_bound(system, y, rhs, [0, 0], [2**41, 0])
    for box in (([0, 0], [2**40, 0]), ([-(2**40), -(2**39)], [0, 2**39])):
        assert lower_bound(system, y, rhs, *box) == lower_bound_reference(system, y, rhs, *box) < -(2**40)
    # a point past the bound is no chain, although its int64 product would
    # wrap to the right-hand side: 2 * 2**63 is 0 modulo 2**64
    wrap = FillSystem([{0: 2}, {}], [0])
    for point in ([2.0**63, 0.0], [2.0**61, 0.0], [0.0, 2.0**62], [math.nan, 0.0], [math.inf, 0.0]):
        assert as_chain(wrap, np.array(point), np.zeros(1, dtype=np.int64)) is None
    assert as_chain(wrap, np.array([0.0, 2.0**61]), np.zeros(1, dtype=np.int64)).tolist() == [0, 2**61]


def _far_first_point():
    """A node_lp whose first LP point has coordinate 0 at 1e30."""
    calls = []

    def far(*args):
        v, y = node_lp(*args)
        if not calls:
            v = v.copy()
            v[0] = 1e30
        calls.append(args)
        return v, y

    return far


def test_a_point_past_the_int64_bound_is_no_chain(monkeypatch):
    # the root's first LP point, at 1e30 in cell 0, is no chain: integer_solve
    # supplies the incumbent, and the search still proves the optimum
    starts = _counted(monkeypatch, "integer_solve")
    monkeypatch.setattr(exactlp, "node_lp", _far_first_point())
    system, rhs = _path_system()
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, len(starts)) == ("optimal", [1, 1], 2, 1)
    # an incumbent whose area reaches 2**62 has no int64 box
    monkeypatch.setattr(exactlp, "node_lp", _far_first_point())
    monkeypatch.setattr(exactlp, "integer_solve", lambda *args: [2**62, 0])
    with pytest.raises(InvariantError, match="integer_solve's chain area is 2\\*\\*62.0"):
        l1_fill(system, rhs)


def _arrays(system):
    m = system.matrix
    return [np.array(a, copy=True) for a in (m.data, m.indices, m.indptr, system.weights)]


def _solve(system, rhs):
    r = l1_fill(system, rhs)
    return integer_solve(system, rhs), (r.status, r.coeffs, r.value, r.nodes, r.lp_columns, r.pricing_rounds)


def test_fill_system_reuse_matches_fresh_system():
    # one system serves many right-hand sides: every solve on it equals the
    # same solve on a fresh system, and no cached array changes in place
    rng = random.Random(5)
    for _ in range(8):
        columns, edge_ids, _, _ = _random_system(rng)
        system = FillSystem(columns, edge_ids)
        before, incident = _arrays(system), [list(cols) for cols in system.incident]
        for _ in range(8):
            x = [rng.randint(-3, 3) for _ in columns]
            rhs = {}
            for v, col in zip(x, columns):
                for e, w in col.items():
                    rhs[e] = rhs.get(e, 0) + v * w
            if rng.random() < 0.3:
                rhs[rng.choice(edge_ids)] = rng.randint(-3, 3)  # often no integer solution
            assert _solve(system, rhs) == _solve(FillSystem(columns, edge_ids), rhs)
        assert all(np.array_equal(a, b) for a, b in zip(before, _arrays(system)))
        assert system.incident == incident


def test_fill_system_refuses_edges_outside_its_rows():
    with pytest.raises(InvariantError, match="column edge 2"):
        FillSystem([{0: 1, 2: 1}], [0, 1])
    system = FillSystem([{0: 1, 1: -1}], [0, 1])
    for solve in (integer_solve, l1_fill):
        with pytest.raises(InvariantError, match="right-hand side edge 5"):
            solve(system, {0: 1, 5: 1})
    with pytest.raises(InvariantError, match="right-hand side edge 5"):
        lower_bound(system, [0.0, 0.0], {5: 1}, [0], [0])


def test_node_budget_stops_the_search_with_the_shortened_chain(monkeypatch):
    # 5 x0 + 3 x1 = 2: the root's LP point (2/5, 0) rounds to no chain, so
    # integer_solve supplies the incumbent, the Hermite chain (-2, 4)
    # shortened by the kernel vector (3, -5) to the optimum (1, -1); the root
    # still leaves a gap, so the search branches to prove it, and a budget of
    # 1 node returns that chain
    system, rhs = FillSystem([{0: 5}, {0: 3}], [0]), {0: 2}
    assert integer_solve(system, rhs) == [1, -1]
    assert system.kernel == [{0: 3, 1: -5}]
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes) == ("optimal", [1, -1], 2, 5)
    monkeypatch.setattr(exactlp, "NODE_BUDGET", 1)
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value) == ("budget", [1, -1], 2)


def _counted(monkeypatch, name):
    """Record each call of exactlp's ``name`` in the returned list."""
    calls = []
    fn = getattr(exactlp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(exactlp, name, counted)
    return calls


def test_integer_solve_runs_once_and_only_when_the_root_point_is_no_chain(monkeypatch):
    # the path system's root point is a chain, so integer_solve never runs
    # and no Hermite reduction is built; 3 x0 + 2 x1 = 1 has LP value 1/3
    # and a root point that rounds to no chain, so integer_solve runs once,
    # however far the search then branches
    calls = _counted(monkeypatch, "integer_solve")
    path, rhs = _path_system()
    assert l1_fill(path, rhs).nodes == 1
    assert calls == [] and "hermite" not in path.__dict__
    system, rhs = FillSystem([{0: 3}, {0: 2}], [0]), {0: 1}
    r = l1_fill(system, rhs)
    assert (r.status, r.value) == ("optimal", 2) and r.nodes > 1
    assert len(calls) == 1


def test_the_root_is_solved_again_over_the_shortened_chains_box(monkeypatch):
    # integer_solve's chain (1, 0, 1, -2) is already minimal; the first LP's
    # duals leave a gap, so the root is solved again over the box
    # |a_c| <= 3, and the search proves the area in 3 nodes and 4 LPs
    lps = _counted(monkeypatch, "node_lp")
    system, rhs = FillSystem([{0: -1, 2: -3}, {0: 3, 2: 2}, {0: -2}, {0: 3}], [0, 1, 2]), {0: -9, 2: -3}
    assert integer_solve(system, rhs) == [1, 0, 1, -2]
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes, len(lps)) == ("optimal", [1, 0, 1, -2], 4, 3, 4)
    assert (r.lp_columns, r.pricing_rounds) == (4, 4)
    # every cell touches the right-hand side's rows 0 and 2; no cell touches
    # row 1, which the local LP leaves out
    (_, lp, _, _, free_upper, _), (_, _, _, _, upper, _) = lps[:2]
    assert (lp.columns.tolist(), lp.rows.tolist()) == ([0, 1, 2, 3], [0, 2])
    assert np.isinf(free_upper[:8]).all() and (upper[:8] == 3).all()
    # no chain of area 3 or less solves the system
    box = range(-3, 4)
    assert not any(
        solves(system.columns, list(a), rhs) for a in itertools.product(box, repeat=4) if sum(map(abs, a)) < 4
    )


def test_the_shortened_chain_closes_the_root(monkeypatch):
    # -3 x0 - 5 x1 = -3: the root LP point (0, 3/5) rounds to no solution,
    # so integer_solve supplies the incumbent, the Hermite chain (6, -3)
    # shortened by the kernel vector (-5, 3) to (1, 0), which the first
    # LP's duals certify: 1 node, 1 LP
    lps = _counted(monkeypatch, "node_lp")
    system, rhs = FillSystem([{0: -3}, {0: -5}], [0]), {0: -3}
    assert integer_solve(system, rhs) == [1, 0]
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes, len(lps)) == ("optimal", [1, 0], 1, 1, 1)


def test_the_first_duals_certify_the_shortened_chain(monkeypatch):
    # the root's first LP has free columns and slacks at |rhs|_1 + 1 = 46;
    # its rounded point is no chain, so integer_solve's shortened chain (area
    # 10) is the incumbent, and the first LP's duals certify it over the box
    # |a_c| <= 9: 1 node, 1 LP, 1 integer_solve call.  The zero column 4
    # touches no row, so it is not local and does not price out
    lps = _counted(monkeypatch, "node_lp")
    starts = _counted(monkeypatch, "integer_solve")
    columns = [{1: -2, 2: 4}, {0: -2, 1: 5}, {0: 3, 1: -1}, {0: -3, 1: -5, 2: -4}, {}, {0: -4, 1: -4}]
    system, rhs = FillSystem(columns, [0, 1, 2]), {0: 23, 1: -14, 2: 8}
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes, len(lps), len(starts)) == (
        "optimal", [2, -3, 3, 0, 0, -2], 10, 1, 1, 1
    )
    ((_, lp, cost, _, upper, _),) = lps
    assert lp.columns.tolist() == [0, 1, 2, 3, 5] and (r.lp_columns, r.pricing_rounds) == (5, 1)
    assert np.isinf(upper[:10]).all() and (cost[10:] == 46).all()
    # here the root's first rounded point is a minimal chain, and its duals
    # certify it: 1 LP and no Hermite reduction
    columns = [{2: -5}, {0: -5, 1: -2}, {0: 2, 1: -5, 2: -5}, {1: 3, 2: -1}]
    system, rhs = FillSystem(columns, [0, 1, 2]), {0: -16, 1: 14, 2: 14}
    lps.clear()
    starts.clear()
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.nodes, len(lps), len(starts)) == ("optimal", [0, 2, -3, 1], 1, 1, 0)
    assert "hermite" not in system.__dict__


def _planted_system(rng, rows, cols):
    """Random columns with entries in [-3, 3], a planted chain with entries in
    [-3, 3], and the chain's boundary with its zeros dropped."""
    columns = [{i: v for i in range(rows) if (v := rng.randint(-3, 3))} for _ in range(cols)]
    x = [rng.randint(-3, 3) for _ in range(cols)]
    rhs = {}
    for v, col in zip(x, columns):
        for e, w in col.items():
            rhs[e] = rhs.get(e, 0) + v * w
    return columns, x, {e: v for e, v in rhs.items() if v}


def test_six_by_nine_systems_fill_from_shortened_chains():
    # an unshortened Hermite chain on these systems has an area in the
    # hundreds of thousands, which a search of NODE_BUDGET nodes from it
    # need not bring down to the optimum; every fill here is optimal and no
    # larger than the planted chain
    rng = random.Random(5)
    for _ in range(20):
        columns, x, rhs = _planted_system(rng, 6, 9)
        r = l1_fill(FillSystem(columns, list(range(6))), rhs)
        assert r.status == "optimal"
        assert solves(columns, r.coeffs, rhs)
        assert r.value == sum(map(abs, r.coeffs)) <= sum(map(abs, x))


@pytest.mark.parametrize("name", ["z3_ext.grp", "heis_ext.grp"])
def test_integer_solve_is_minimal_on_the_unpeeled_ball_fills(name):
    # on every unpeeled fill at radius 4 the shortened particular solution
    # already has the fill's minimal area
    for system, rhs in _root_systems(name, 4)[1:]:
        x = integer_solve(system, rhs)
        assert solves(system.columns, x, rhs)
        assert sum(map(abs, x)) == l1_fill(system, rhs).value


def test_the_kernel_is_a_shortened_basis_of_the_zero_boundaries():
    # each kernel vector has zero boundary, there are n - rank of them, and
    # no vector shortens against another; on random systems and a ball's
    rng = random.Random(23)
    systems = [FillSystem(_planted_system(rng, 4, 7)[0], list(range(4))) for _ in range(30)]
    systems.append(_root_systems("z3_ext.grp", 3)[1][0])
    for system in systems:
        kernel = system.kernel
        n = len(system.columns)
        dense = [[v.get(c, 0) for c in range(n)] for v in kernel]
        assert len(kernel) == n - len(system.hermite[2])
        assert all(solves(system.columns, v, {}) for v in dense)
        assert len(kernel) == 0 or np.linalg.matrix_rank(np.array(dense, dtype=float)) == len(kernel)
        for u, w in itertools.permutations(kernel, 2):
            assert not exactlp._shorten(dict(u), w)


def test_a_root_point_that_is_no_chain_falls_back_to_integer_solve(monkeypatch):
    # 2 x0 + 3 x1 = 1: the root's LP point (0, 1/3) rounds to 0, which is
    # no chain, so integer_solve's chain is the incumbent (the Hermite
    # reduction is built) and the search proves area 2
    system, rhs = FillSystem([{0: 2}, {0: 3}], [0]), {0: 1}
    r, lps = _node_lps(monkeypatch, system, rhs)
    point = lps[0][1][0]
    assert (point[0] - point[2], point[1] - point[3]) == pytest.approx((0, 1 / 3))
    assert (r.status, r.value) == ("optimal", 2) and solves(system.columns, r.coeffs, rhs)
    assert "hermite" in system.__dict__


def _node_lps(monkeypatch, system, rhs):
    """(solve, [(node_lp's arguments, its (point, row duals))] in call
    order) of one l1_fill."""
    lps = []

    def capture(*args):
        out = node_lp(*args)
        lps.append(([a.copy() if isinstance(a, np.ndarray) else a for a in args], out))
        return out

    with monkeypatch.context() as m:
        m.setattr(exactlp, "node_lp", capture)
        r = l1_fill(system, rhs)
    return r, lps


def _root_duals(monkeypatch, system, rhs):
    """(solve, the row duals of its last node LP extended by zero to every
    row of the system) of one l1_fill."""
    r, lps = _node_lps(monkeypatch, system, rhs)
    args, (_, duals) = lps[-1]
    return r, _extended(system, args[1], duals)


@functools.cache
def _heis_ball():
    group = load_group(os.path.join(GROUPS, "heis_ext.grp"))
    return build_ball(group.backend, group.hom_pres, 5)


def _two_round_fill():
    """(system, residual) of the heis_ext loop "a a t1 a' a' t1' b' b'" at
    radius 5, whose fill prices twice."""
    ball = _heis_ball()
    group = load_group(os.path.join(GROUPS, "heis_ext.grp"))
    cycle = loop_to_cycle(ball, 0, parse_word("a a t1 a' a' t1' b' b'", group.name_index))
    return ball.fill_system, _peel_forced(ball, cycle.coeffs)[2]


def test_pricing_finishes_a_fill_whose_first_local_point_is_no_chain(monkeypatch):
    # the loop's residual after peeling has 8 edges; the first local LP, over
    # the cells that touch them, reaches |x|_1 = 6 only with slacks, so its
    # rounded point is no chain.  Pricing over the whole ball adds columns,
    # and the second LP's point is a chain of area 7, which the root
    # certifies from the same prices over every column of the ball: 1 node,
    # 2 pricing rounds and no integer_solve call
    starts = _counted(monkeypatch, "integer_solve")
    bounds = _counted(monkeypatch, "_bound")
    system, rhs = _two_round_fill()
    r, lps = _node_lps(monkeypatch, system, rhs)
    assert (r.status, r.value, r.nodes, r.pricing_rounds, len(lps), starts) == ("optimal", 7, 1, 2, 2, [])
    (first, (v, _)), (second, (w, _)) = lps
    lp, grown = first[1], second[1]
    assert lp.columns.tolist() == sorted({c for e in rhs for c in system.incident[system.row[e]]})
    k = len(lp.columns)
    assert np.abs(v[:k] - v[k : 2 * k]).sum() == pytest.approx(6) and v[2 * k :].sum() > 0
    assert set(lp.columns) < set(grown.columns) and r.lp_columns == len(grown.columns)
    assert not w[2 * len(grown.columns) :].any()
    ((_, s, _, lo, hi),) = bounds
    assert len(s) == len(lo) == len(hi) == len(system.columns)
    assert harea_fill(_heis_ball(), OneCycle(rhs)).area == 7


def _root_systems(name="z3_ext.grp", radius=3):
    """The path system and every unpeeled fill of the group's identity
    cycles of length <= 6 at the radius, which share the ball's one system."""
    group = load_group(os.path.join(GROUPS, name))
    ball = build_ball(group.backend, group.hom_pres, radius)
    systems = [_path_system()]
    for _, cycle, _word in enumerate_identity_cycles(ball, 6):
        residual = _peel_forced(ball, cycle.coeffs)[2]
        if residual:
            systems.append((ball.fill_system, residual))
    assert len(systems) > 100
    return systems


def _extended(system, lp, duals):
    """A local LP's row duals extended by zero to every row of the system."""
    y = np.zeros(len(system.edge_ids))
    y[lp.rows] = duals
    return y


def _linprog_oracle(system, lp, cost, lower, upper, b):
    """The node LP solved by scipy's linprog on a fresh HiGHS model, with
    presolve off as on the system's HiGHS object."""
    matrix = sp.csc_array((lp.value, lp.index, lp.start), shape=(len(b), len(cost)))
    bounds = np.column_stack([lower, upper])
    out = linprog(cost, A_eq=matrix, b_eq=b, bounds=bounds, method="highs", options={"presolve": False})
    assert out.status == 0
    return out.x, out.eqlin.marginals


def _random_fills(rng, systems, fills):
    """``systems`` random systems with ``fills`` solvable right-hand sides
    each, every system one object shared by its fills."""
    out = []
    for _ in range(systems):
        columns, edge_ids, rhs, _ = _random_system(rng)
        system = FillSystem(columns, edge_ids)
        out.append((system, rhs))
        for _ in range(fills - 1):
            x = [rng.randint(-3, 3) for _ in columns]
            out.append((system, {e: sum(v * col.get(e, 0) for v, col in zip(x, columns)) for e in edge_ids}))
    return out


def test_node_lp_equals_linprog_on_a_fresh_model(monkeypatch):
    # every node LP passed to a system's one HiGHS object gives, bit for
    # bit, the point and the equality duals that linprog gives on the same
    # local LP on a fresh model: on the path system, on every node of random
    # systems that each serve several fills, on every root LP of z3_ext at
    # radius 3 and at radius 4 (the benchmark's fa table) and on both
    # pricing rounds of a heis_ext fill at radius 5
    fills = _random_fills(random.Random(3), 40, 3) + _root_systems() + _root_systems(radius=4) + [_two_round_fill()]
    checked = branched = 0
    for system, rhs in fills:
        r, lps = _node_lps(monkeypatch, system, rhs)
        branched += r.nodes > 1
        assert len(lps) == r.pricing_rounds
        for args, (v, duals) in lps:
            x, y = _linprog_oracle(*args)
            assert np.array_equal(v, x) and np.array_equal(duals, y)
            checked += 1
    assert branched >= 5 and checked > len(fills)


def test_highs_holds_a_continuous_lp_after_every_node(monkeypatch):
    # node_lp passes an explicit integrality, every column continuous, so
    # HiGHS never solves a node LP as a MIP: after every node LP of z3_ext's
    # fills at radius 4 the object's LP has an integrality entry per column,
    # each continuous, or none
    integralities = []

    def checked(system, *args):
        out = node_lp(system, *args)
        lp = system.highs_model.getLp()
        integralities.append((lp.num_col_, [int(v) for v in lp.integrality_]))
        return out

    monkeypatch.setattr(exactlp, "node_lp", checked)
    for system, rhs in _root_systems(radius=4)[1:]:
        assert l1_fill(system, rhs).status == "optimal"
    continuous = int(highs.HighsVarType.kContinuous)
    assert len(integralities) > 100
    for num_col, integrality in integralities:
        assert integrality in ([], [continuous] * num_col)


def _same_local_lp(got, expected):
    """Whether two local LPs have equal arrays of equal dtypes."""
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


@pytest.mark.parametrize("name, radius", [("z3_ext.grp", 4), ("heis_ext.grp", 5)])
def test_local_lp_equals_the_sorting_reference(name, radius):
    # the row mask numbers a local LP's rows as sorting did, on random column
    # subsets with random right-hand-side rows, which the chosen columns
    # often do not touch, and on every single column
    group = load_group(os.path.join(GROUPS, name))
    system = build_ball(group.backend, group.hom_pres, radius).fill_system
    n, m = len(system.columns), len(system.edge_ids)
    rng = np.random.default_rng(11)
    untouched = 0
    for share in (0.02, 0.1, 0.5, 1.0):
        for _ in range(25):
            columns = np.flatnonzero(rng.random(n) < share)
            rhs_rows = np.flatnonzero(rng.random(m) < 0.05)
            lp = local_lp(system, columns, rhs_rows)
            assert _same_local_lp(lp, local_lp_reference(system, columns, rhs_rows))
            untouched += len(lp.rows) > len(np.unique(system.matrix[:, columns].indices))
    assert untouched
    for c in range(n):
        columns, rhs_rows = np.array([c]), np.flatnonzero(rng.random(m) < 0.02)
        assert _same_local_lp(local_lp(system, columns, rhs_rows), local_lp_reference(system, columns, rhs_rows))


def test_fills_on_one_system_leave_no_state_behind(monkeypatch):
    # fill A, then B, then A again on one system: each equals the same fill
    # on a fresh system, node LP for node LP
    group = load_group(os.path.join(GROUPS, "z3_ext.grp"))
    ball = build_ball(group.backend, group.hom_pres, 3)
    residuals = [
        residual
        for _, cycle, _word in enumerate_identity_cycles(ball, 6)
        if (residual := _peel_forced(ball, cycle.coeffs)[2])
    ]
    pairs = [(ball.fill_system, residuals[0], residuals[-1])]
    # heis_ext at radius 5: the fill that prices twice, and its ball's first
    # unpeeled fill
    system, two_rounds = _two_round_fill()
    ball = _heis_ball()
    other = next(
        residual
        for _, cycle, _word in enumerate_identity_cycles(ball, 6)
        if (residual := _peel_forced(ball, cycle.coeffs)[2])
    )
    pairs.append((system, two_rounds, other))
    # 3 x0 + 2 x1 = 1 branches; 3 x0 + 2 x1 = 5 closes at its root
    pairs.append((FillSystem([{0: 3}, {0: 2}], [0]), {0: 1}, {0: 5}))
    for system, a, b in pairs:
        assert a != b
        for rhs in (a, b, a):
            r, lps = _node_lps(monkeypatch, system, rhs)
            fresh, fresh_lps = _node_lps(monkeypatch, FillSystem(system.columns, system.edge_ids), rhs)
            assert (r.status, r.coeffs, r.value, r.nodes) == (fresh.status, fresh.coeffs, fresh.value, fresh.nodes)
            assert len(lps) == len(fresh_lps)
            for (_, (v, y)), (_, (fv, fy)) in zip(lps, fresh_lps):
                assert np.array_equal(v, fv) and np.array_equal(y, fy)


def test_node_lp_reports_an_infeasible_lp_as_none_and_recovers():
    # with every variable fixed at 0 the path system's right-hand side is
    # out of reach: HiGHS reports infeasible and node_lp returns None; the
    # next LP on the same HiGHS object is solved as on a fresh one
    system, rhs = _path_system()
    lp = local_lp(system, np.array([0, 1]), np.array([0, 2]))
    assert lp.rows.tolist() == [0, 1, 2]
    b = np.array(system.dense(rhs), dtype=float)
    k = len(lp.start) - 1
    cost = np.concatenate([np.ones(4), np.full(k - 4, 3.0)])  # the slacks cost more
    assert node_lp(system, lp, cost, np.zeros(k), np.zeros(k), b) is None
    args = (system, lp, cost, np.zeros(k), np.full(k, np.inf), b)
    v, y = node_lp(*args)
    x, marginals = _linprog_oracle(*args)
    assert np.array_equal(v, x) and np.array_equal(y, marginals)
    assert v[:2].tolist() == [1.0, 1.0] and not v[4:].any()


def test_a_node_lp_that_is_not_optimal_stops_with_the_incumbent(monkeypatch):
    # a node LP that HiGHS does not solve to optimality stops the search
    # with status budget and integer_solve's chain
    system, rhs = FillSystem([{0: 3}, {0: 2}], [0]), {0: 1}
    start = integer_solve(system, rhs)
    monkeypatch.setattr(exactlp, "node_lp", lambda *args: None)
    r = l1_fill(system, rhs)
    assert (r.status, r.coeffs, r.value, r.nodes) == ("budget", start, sum(map(abs, start)), 1)


def test_root_duals_reach_the_area_and_their_negation_does_not(monkeypatch):
    # lower_bound reads the HiGHS row duals with their own sign: on every
    # fill whose root certifies it, the root's last duals, extended by zero
    # to every row of the ball, bound the area over the root box
    # |a_c| <= area - 1 and the negated duals do not
    for system, rhs in [*_root_systems(), _two_round_fill()]:
        r, y = _root_duals(monkeypatch, system, rhs)
        assert r.nodes == 1
        cap = [r.value - 1] * len(system.columns)
        box = ([-v for v in cap], cap)
        assert lower_bound(system, y, rhs, *box) >= r.value
        assert lower_bound(system, -y, rhs, *box) < r.value
