import gc
import glob
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill import exactlp, filling
from homfill.backends import letter_order
from homfill.cayley import OneCycle, TwoChain, boundary_2, build_ball, loop_to_cycle
from homfill.cli import load_group
from homfill.errors import DomainError, InvariantError
from homfill.exactlp import integer_solve, l1_fill
from homfill.filling import (
    check_preceq,
    enumerate_identity_cycles,
    fa_estimate,
    harea_fill,
    superadditive_closure,
    word_class,
)
from homfill.words import parse_word
from oracles import fa_reference, identity_cycles_reference, peel_reference

NI = {"a": 0, "b": 1}
GROUP_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "groups", "*.grp")))


def test_fill_commutator(z2_ball4):
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a b a' b'", NI))
    result = harea_fill(z2_ball4, gamma)
    assert result.status == "optimal"
    assert result.area == 1
    assert len(result.chain.coeffs) == 1
    assert (result.nodes, result.lp_columns, result.pricing_rounds) == (0, 0, 0)  # peeling finished it


def test_fill_zero_cycle(z2_ball4):
    result = harea_fill(z2_ball4, OneCycle())
    assert result.status == "optimal" and result.area == 0 and not result.chain


def test_fill_2x2_square_both_solvers(z2_ball4):
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a a b b a' a' b' b'", NI))
    ilp = harea_fill(z2_ball4, gamma)
    brute = harea_fill(z2_ball4, gamma, solver="brute_force")
    assert ilp.status == brute.status == "optimal"
    assert ilp.area == brute.area == 4


def test_fill_free_group_only_zero(f2_ball3):
    assert harea_fill(f2_ball3, OneCycle()).area == 0


def test_feasibility_soundness(z2_ball4):
    gamma = loop_to_cycle(z2_ball4, 0, parse_word("a a b a' a' b'", NI))
    result = harea_fill(z2_ball4, gamma)
    assert result.status == "optimal"
    assert boundary_2(z2_ball4, result.chain) == gamma


def test_fill_rejects_non_cycle(z2_ball4):
    with pytest.raises(DomainError, match="not a 1-cycle"):
        harea_fill(z2_ball4, OneCycle({0: 1}))


def test_hexagon_fills_with_three_squares(z3_setup):
    ball = build_ball(z3_setup.h_backend, z3_setup.h_pres, 3)
    hexagon = loop_to_cycle(ball, 0, parse_word("a b t1 a' b' t1'", {"a": 0, "b": 1, "t1": 2}))
    assert harea_fill(ball, hexagon).area == 3


def test_integer_infeasibility_detected(monkeypatch):
    # marked relator = doubled commutator: the unit square cycle needs
    # cell coefficient 1/2, so it is rationally fillable but not integrally
    from homfill.backends import FreeAbelianBackend
    from homfill.presentation import HomPresentation, Presentation

    pres = HomPresentation.mark_all(
        Presentation(("a", "b"), (parse_word("a b a' b' a b a' b'", NI),))
    )
    ball = build_ball(FreeAbelianBackend(2), pres, 3)
    square = loop_to_cycle(ball, 0, parse_word("a b a' b'", NI))
    result = harea_fill(ball, square)
    assert result.status == "infeasible_in_ball"
    monkeypatch.setattr(filling, "BRUTE_AREA_CAP", 3)
    monkeypatch.setattr(filling, "BRUTE_BUDGET", 100_000)
    brute = harea_fill(ball, square, solver="brute_force")
    assert brute.status == "budget_exceeded"
    # the doubled cycle is integrally fillable by one cell
    doubled = harea_fill(ball, square.scale(2))
    assert doubled.status == "optimal" and doubled.area == 1


def test_ball_monotonicity(z2_backend, z2_pres, z2_ball4, z2_ball5):
    ball3 = build_ball(z2_backend, z2_pres, 3)
    gamma_word = parse_word("a a b a' a' b'", NI)  # 1x2 rectangle, reaches (2,1)
    areas = []
    for ball in (ball3, z2_ball4, z2_ball5):
        areas.append(harea_fill(ball, loop_to_cycle(ball, 0, gamma_word)).area)
    assert areas[0] >= areas[1] >= areas[2]
    assert areas[2] == 2


def test_scaling_subadditivity(z2_ball5):
    gamma = loop_to_cycle(z2_ball5, 0, parse_word("a b a' b'", NI))
    base = harea_fill(z2_ball5, gamma).area
    for k in (2, 3):
        scaled = harea_fill(z2_ball5, gamma.scale(k))
        assert scaled.status == "optimal"
        assert scaled.area <= k * base


def test_fa_z2(z2_backend, z2_pres, z2_ball5):
    table = fa_estimate(z2_backend, z2_pres, 8, 5, ball=z2_ball5)
    values = [e.fa_value for e in table.values]
    assert values[4] == 1
    assert values[8] == 4
    assert all(values[n] <= values[n + 1] for n in range(8))
    assert table.values[8].witness == "a a b b a' a' b' b'"
    assert not table.gaps


@pytest.mark.parametrize("max_len", [0, -1])
def test_enumeration_stops_at_nonpositive_length(z2_ball4, max_len):
    assert enumerate_identity_cycles(z2_ball4, max_len) == []


def _unpruned_identity_cycles(ball, max_len):
    """Reference for enumerate_identity_cycles: the same depth-first walk
    over every freely reduced word of length <= max_len that stays in the
    ball, with no bound from the distance to the identity."""
    seen, out = set(), []

    def dfs(vertex, word, counts):
        if word and vertex == 0:
            cycle = OneCycle(counts)
            canon = min(cycle.key(), (-cycle).key())
            if cycle and canon not in seen:
                seen.add(canon)
                out.append((canon, cycle, tuple(word)))
        if len(word) == max_len:
            return
        for letter in letter_order(ball.backend.rank):
            hop = ball.hop(vertex, letter)
            if hop is None or (word and word[-1] == -letter):
                continue
            edge, sign, nxt = hop
            dfs(nxt, word + [letter], {**counts, edge: counts.get(edge, 0) + sign})

    dfs(0, [], {})
    return out


# (ball radius, longest word) per group file
CYCLE_SIZES = {"z2.grp": (5, 8), "z2_redundant.grp": (5, 8), "f2.grp": (4, 8), "f2_triangle.grp": (4, 8),
               "z3_ext.grp": (4, 6), "heis_ext.grp": (4, 6), "z2_by_f2.grp": (3, 6)}


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_enumeration_matches_unpruned_walk(path):
    group = load_group(path)
    radius, max_len = CYCLE_SIZES[os.path.basename(path)]
    ball = build_ball(group.backend, group.hom_pres, radius)
    assert enumerate_identity_cycles(ball, max_len) == _unpruned_identity_cycles(ball, max_len)


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_enumeration_matches_the_table_walk(path):
    # the walk over per-vertex move tables that skips every child too far
    # from the identity gives the reference walk's list, in its order
    group = load_group(path)
    for radius in (3, 4, 5):
        ball = build_ball(group.backend, group.hom_pres, radius)
        assert enumerate_identity_cycles(ball, 8) == identity_cycles_reference(ball, 8), radius


def test_heis_ext_fa_table_at_radius_5():
    # its fills include some that price twice
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", "heis_ext.grp"))
    table = fa_estimate(group.backend, group.hom_pres, 8, 5)
    assert [e.fa_value for e in table.values] == [0, 0, 0, 0, 1, 3, 3, 5, 7] and table.gaps == []


def test_fa_free_group(f2_backend, f2_pres, f2_ball3):
    table = fa_estimate(f2_backend, f2_pres, 6, 3, ball=f2_ball3)
    assert all(e.fa_value == 0 for e in table.values)


def test_fa_superadditive_scope(z2_backend, z2_pres, z2_ball5):
    plain = fa_estimate(z2_backend, z2_pres, 8, 5, ball=z2_ball5)
    closed = fa_estimate(
        z2_backend, z2_pres, 8, 5, scope="loops_plus_superadditive", ball=z2_ball5
    )
    pv = [e.fa_value for e in plain.values]
    cv = [e.fa_value for e in closed.values]
    assert cv == superadditive_closure(pv)
    assert closed.enumeration_scope == "loops_plus_superadditive"


def test_superadditive_closure_examples():
    assert superadditive_closure([0, 1, 3]) == [0, 1, 3]
    assert superadditive_closure([0, 2, 3]) == [0, 2, 4]
    assert superadditive_closure([0, 0, 0, 0]) == [0, 0, 0, 0]


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=14))
def test_superadditive_closure_is_superadditive(values):
    f = [0] + values
    closed = superadditive_closure(f)
    assert all(closed[n] >= f[n] for n in range(len(f)))
    for m in range(1, len(f)):
        for n in range(1, len(f) - m):
            assert closed[m + n] >= closed[m] + closed[n]


def test_check_preceq_reflexive():
    f = [0, 1, 2, 4, 4, 5, 8, 8, 9]
    res = check_preceq(f, f)
    assert res.holds and res.constant == 1


def test_check_preceq_quadratic_vs_linear_fails(monkeypatch):
    monkeypatch.setattr(filling, "PRECEQ_C_MAX", 50)
    n = list(range(21))
    sq = [v * v for v in n]
    res = check_preceq(sq, n)
    assert not res.holds


def test_check_preceq_linear_below_quadratic(monkeypatch):
    monkeypatch.setattr(filling, "PRECEQ_C_MAX", 50)
    n = list(range(21))
    sq = [v * v for v in n]
    res = check_preceq(n, sq)
    assert res.holds and res.constant == 1


@pytest.mark.parametrize("root", ["proposer", "no-proposer"])
@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_exact_matches_brute_force_on_group_files(path, root, monkeypatch):
    # f2.grp has no relators, so its ball is a tree with no nonzero cycles;
    # "no-proposer" gives integer_solve an empty kernel basis, so a root point
    # that is no chain would start from the unshortened particular solution;
    # no fill here needs either chain: every root point is a chain
    if root == "no-proposer":
        monkeypatch.setattr(exactlp.FillSystem, "kernel", property(lambda self: []))
    group = load_group(path)
    ball = build_ball(group.backend, group.hom_pres, 3)
    cycles = enumerate_identity_cycles(ball, 6)
    sample = random.Random(os.path.basename(path)).sample(cycles, min(40, len(cycles)))
    skipped = 0
    monkeypatch.setattr(filling, "BRUTE_BUDGET", 200_000)
    for _, cycle, word in sample:
        brute = harea_fill(ball, cycle, solver="brute_force")
        if brute.status == "budget_exceeded":
            skipped += 1
            continue
        exact = harea_fill(ball, cycle)
        assert (exact.status, exact.area) == (brute.status, brute.area), word
        if exact.optimal():
            assert boundary_2(ball, exact.chain) == cycle
            # a peeled fill takes no branch-and-bound node; the root node
            # certifies every other fill
            unpeeled = bool(filling._peel_forced(ball, cycle.coeffs)[2])
            assert exact.nodes == unpeeled, word
    assert 2 * skipped <= len(sample)


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_the_area_of_a_multiple_is_at_most_the_multiple_of_the_area(path):
    # k gamma is filled by k times gamma's minimal chain, so its minimal
    # area is at most k area(gamma); each identity cycle of length <= 6 at
    # radius 3 is checked at k = 2 and 3
    group = load_group(path)
    ball = build_ball(group.backend, group.hom_pres, 3)
    for _, cycle, word in enumerate_identity_cycles(ball, 6):
        area = harea_fill(ball, cycle)
        assert area.optimal(), word
        for k in (2, 3):
            multiple = harea_fill(ball, cycle.scale(k))
            assert multiple.optimal() and multiple.area <= k * area.area, (word, k)


def test_peel_recovers_chains_on_collapsible_cells():
    # the ball's collapse removes each cell while it is the only one left on
    # its free edge, so peeling the boundary of any chain on removed cells
    # must give back that chain and leave nothing for the solver
    checked = 0
    for path in GROUP_FILES:
        group = load_group(path)
        ball = build_ball(group.backend, group.hom_pres, 3)
        collapsed = [c for c, _edge in ball.collapse[0]]
        rng = random.Random(os.path.basename(path))
        for _ in range(30 if collapsed else 0):
            chain = TwoChain({rng.choice(collapsed): rng.randint(-3, 3) for _ in range(rng.randint(1, 6))})
            forced, remaining, residual = filling._peel_forced(ball, boundary_2(ball, chain).coeffs)
            assert forced == chain.coeffs
            assert residual == {}
            assert not set(remaining) & set(collapsed)
            checked += 1
    assert checked >= 150


def _peel_record(peeled):
    """A peel result with the forced assignment's and the residual's orders."""
    if peeled is None:
        return None
    forced, remaining, residual = peeled
    return list(forced.items()), remaining, list(residual.items())


@pytest.mark.parametrize("path", GROUP_FILES, ids=lambda p: os.path.basename(p)[:-4])
def test_sparse_peel_matches_the_full_collapse_walk(path):
    # visiting only the positions whose free edge holds a residual gives the
    # walk over the whole collapse order: the same forced cells in the same
    # order, the same remaining cells and the same residual, or None for both
    group = load_group(path)
    ball = build_ball(group.backend, group.hom_pres, 3)
    residuals = [cycle.coeffs for _, cycle, _ in enumerate_identity_cycles(ball, 6)]
    rng = random.Random(os.path.basename(path))
    for _ in range(60 if ball.cells else 0):
        chain = TwoChain({rng.randrange(len(ball.cells)): rng.randint(-3, 3) for _ in range(rng.randint(1, 8))})
        boundary = boundary_2(ball, chain).coeffs
        # a boundary, half of it (non-integral), and a copy with one edge
        # moved off the boundary (infeasible)
        residuals += [boundary, {e: Fraction(v, 2) for e, v in boundary.items()}]
        residuals.append({**boundary, rng.randrange(len(ball.edges)): rng.choice((-1, 1))})
    kinds = set()
    for residual in residuals:
        want = _peel_record(peel_reference(ball, residual))
        assert _peel_record(filling._peel_forced(ball, residual)) == want, residual
        kinds.add("none" if want is None else "peeled" if not want[2] else "residual")
    if ball.cells:
        assert {"none", "peeled"} <= kinds, kinds


# (group file, radius) of balls whose fills mostly do not peel
LIFETIME_BALLS = (("heis_ext.grp", 3), ("z2_by_f2.grp", 4), ("z3_ext.grp", 3))


def _lifetime_ball(file, radius):
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", file))
    return build_ball(group.backend, group.hom_pres, radius)


def _unpeeled_cycles(ball, count):
    out = []
    for _, cycle, _word in enumerate_identity_cycles(ball, 6):
        peeled = filling._peel_forced(ball, cycle.coeffs)
        if peeled and peeled[2]:
            out.append(cycle)
    return out[:count]


def _fill_record(ball, cycle):
    result = harea_fill(ball, cycle)
    # the system solved is the one of this ball's own collapse
    _, remaining, touched = ball.collapse
    assert ball.fill_system.columns == [ball.net_columns[c] for c in remaining]
    assert ball.fill_system.edge_ids == sorted(touched)
    return result.status, result.area, result.chain.coeffs, result.nodes


def test_fill_system_lives_and_dies_with_its_ball():
    # every ball solves its own fill system: fills interleaved over balls of
    # different group files, in both orders, and on balls built after one
    # is dropped (which may reuse its id), equal those on a fresh ball
    cycles, fresh = {}, {}
    for spec in LIFETIME_BALLS:
        ball = _lifetime_ball(*spec)
        cycles[spec] = _unpeeled_cycles(ball, 4)
        fresh[spec] = [_fill_record(ball, cycle) for cycle in cycles[spec]]
        assert len(fresh[spec]) == 4 and all(record[3] == 1 for record in fresh[spec])
    for order in (LIFETIME_BALLS, LIFETIME_BALLS[::-1]):
        balls = {spec: _lifetime_ball(*spec) for spec in order}
        got = {spec: [] for spec in order}
        for k in range(4):
            for spec in order:
                got[spec].append(_fill_record(balls[spec], cycles[spec][k]))
        assert got == fresh
        # each ball below is built just after another file's ball is freed
        del balls[order[0]]
        gc.collect()
        for spec in (*order[1:], order[0]):
            rebuilt = _lifetime_ball(*spec)
            assert [_fill_record(rebuilt, cycle) for cycle in cycles[spec]] == fresh[spec]
            assert all(rebuilt.fill_system is not kept.fill_system for kept in balls.values())
            del rebuilt
            gc.collect()


def test_residual_edge_outside_the_fill_system_is_an_invariant_error():
    ball = _lifetime_ball("z3_ext.grp", 3)
    system = ball.fill_system
    outside = next(e for e in range(len(ball.edges)) if e not in system.row)
    for solve in (integer_solve, l1_fill):
        with pytest.raises(InvariantError, match=f"right-hand side edge {outside} "):
            solve(system, {system.edge_ids[0]: 1, outside: 1})


def test_unpeeled_fills_close_at_the_root_without_the_milp(monkeypatch):
    # every unpeeled fill of each extension sample is certified by its root
    # LP alone, whose rounded point is a chain: none calls integer_solve or
    # builds the ball's Hermite reduction
    calls = []
    monkeypatch.setattr(exactlp, "integer_solve", lambda *args: calls.append(args))
    for file in ("z3_ext.grp", "heis_ext.grp", "z2_by_f2.grp"):
        ball = _lifetime_ball(file, 3)
        cycles = _unpeeled_cycles(ball, None)
        assert len(cycles) > 100
        for cycle in cycles:
            result = harea_fill(ball, cycle)
            assert (result.status, result.nodes) == ("optimal", 1)
        assert "hermite" not in ball.fill_system.__dict__
    assert calls == []


def test_node_budget_reports_budget_exceeded(monkeypatch):
    # a fill whose search passes exactlp.NODE_BUDGET reports no area; at
    # budget 0 the root node is already one too many, and it stops before
    # its first LP with the local columns it started from: the cells that
    # touch the residual's edges
    ball = _lifetime_ball("z3_ext.grp", 3)
    cycle = _unpeeled_cycles(ball, 1)[0]
    system, residual = ball.fill_system, filling._peel_forced(ball, cycle.coeffs)[2]
    start = len({c for e in residual for c in system.incident[system.row[e]]})
    result = harea_fill(ball, cycle)
    assert (result.nodes, result.lp_columns, result.pricing_rounds) == (1, start, 1)
    monkeypatch.setattr(exactlp, "NODE_BUDGET", 0)
    result = harea_fill(ball, cycle)
    assert (result.status, result.area, result.nodes, result.lp_columns, result.pricing_rounds) == (
        "budget_exceeded", None, 1, start, 0
    )


def test_the_first_lp_certifies_without_a_hermite_reduction(monkeypatch):
    # every unpeeled fill of z3_ext and heis_ext at radius 4 closes on its
    # root's first LP, over local columns that pricing leaves as they are,
    # whose rounded point is the incumbent: no fill builds the ball's
    # Hermite reduction
    lps = []
    node_lp = exactlp.node_lp
    monkeypatch.setattr(exactlp, "node_lp", lambda *args: lps.append(args) or node_lp(*args))
    for file in ("z3_ext.grp", "heis_ext.grp"):
        ball = _lifetime_ball(file, 4)
        lps.clear()
        unpeeled = 0
        for _, cycle, word in enumerate_identity_cycles(ball, 6):
            result = harea_fill(ball, cycle)
            peeled = filling._peel_forced(ball, cycle.coeffs)
            if peeled and peeled[2]:
                assert (result.status, result.nodes, result.pricing_rounds) == ("optimal", 1, 1), word
                assert 0 < result.lp_columns < len(ball.fill_system.columns)
                unpeeled += 1
        assert unpeeled > 100 and len(lps) == unpeeled
        assert "hermite" not in ball.fill_system.__dict__


def _rotations(w):
    # every rotation of w and of its inverse, read off the doubled word
    inverse = tuple(-x for x in reversed(w))
    return [(f + f)[i : i + len(f)] for f in (w, inverse) for i in range(len(f))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=9))
def test_word_class_is_the_least_rotation_over_the_word_and_its_inverse(letters):
    w = tuple(letters)
    key = word_class(w)
    assert key == min(_rotations(w), default=())
    # every rotation and the inverse share it
    assert all(word_class(r) == key for r in _rotations(w))


# (group file, radius) of the FA tables up to n = 8 checked against the
# table that fills every loop on its own, beyond each file at radius 3
FA_REFERENCE_BALLS = [(os.path.basename(path), 3) for path in GROUP_FILES] + [("z3_ext.grp", 4), ("heis_ext.grp", 5)]


@pytest.mark.parametrize("file, radius", FA_REFERENCE_BALLS, ids=lambda v: str(v).removesuffix(".grp"))
def test_fa_estimate_matches_a_fill_per_loop(file, radius):
    # values, witnesses, cycles examined and gaps, loop by loop reused
    # across word classes or not
    ball = _lifetime_ball(file, radius)
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", file))
    assert fa_estimate(group.backend, group.hom_pres, 8, radius, ball=ball) == fa_reference(ball, 8)


def test_translates_certify_only_minimal_chains(monkeypatch):
    # heis_ext at radius 3 splits word classes by truncation: some of a
    # class's loops have smaller areas than its root, so a translate or a
    # symmetric carry whose boundary is right is certified only by the
    # exact bound
    ball = _lifetime_ball("heis_ext.grp", 3)
    classes = filling._ClassFills(ball)
    carry = classes._carry
    tried = []

    def recorded(root, *args):
        tried.append((root.symmetry is classes.symmetries[0], carry(root, *args)))
        return tried[-1][1]

    monkeypatch.setattr(classes, "_carry", recorded)
    certified = {True: 0, False: 0}
    refused = {True: 0, False: 0}
    for _, cycle, word in enumerate_identity_cycles(ball, 8):
        del tried[:]
        result = classes.fill(cycle, word)
        expected = harea_fill(ball, cycle)
        assert (result.status, result.area) == (expected.status, expected.area), word
        if not tried:
            continue
        ((translate, chain),) = tried
        if chain is not None:
            assert boundary_2(ball, chain) == cycle and chain.area() == expected.area
            certified[translate] += 1
        else:
            refused[translate] += 1
    # heis_ext's one symmetry besides the identity, a -> t, b -> b', t -> a
    assert len(classes.symmetries) == 2
    assert certified[True] > 400 and refused[True] > 50
    assert certified[False] > 500 and refused[False] > 20


def test_root_certificates_pass_the_exact_bound():
    # a fill certified at l1_fill's root carries the root's integer duals,
    # which bound its free cells' area over the box below it; a peeled fill
    # carries none
    ball = _lifetime_ball("z3_ext.grp", 3)
    system = ball.fill_system
    unpeeled = 0
    for _, cycle, _word in enumerate_identity_cycles(ball, 6):
        result = harea_fill(ball, cycle)
        forced, _, residual = filling._peel_forced(ball, cycle.coeffs)
        if not residual:
            assert result.certificate is None and result.nodes == 0
            continue
        assert result.nodes == 1 and result.certificate
        free_area = result.area - sum(map(abs, forced.values()))
        assert exactlp.certificate_bound(system, result.certificate, residual, free_area - 1) >= free_area
        # the box at the area itself holds the chain, so the bound stops there
        assert exactlp.certificate_bound(system, result.certificate, residual, free_area) <= free_area
        unpeeled += 1
    assert unpeeled > 100


def test_a_translate_that_bounds_another_loop_is_refused():
    # the root's chain with one coefficient negated carries to a chain of
    # the same area, and the carried duals still bound the loop's area, so
    # only the boundary check refuses it
    ball = _lifetime_ball("z3_ext.grp", 3)
    classes = filling._ClassFills(ball)
    tried = 0
    for _, cycle, word in enumerate_identity_cycles(ball, 6):
        root = classes.roots.get(word_class(word))
        peeled = filling._peel_forced(ball, cycle.coeffs)
        if root is not None and peeled[2] and classes._carry(root, cycle, word, peeled) is not None:
            cell, coeff = next(iter(root.chain.coeffs.items()))
            negated = root._replace(chain=TwoChain(root.chain.coeffs | {cell: -coeff}))
            assert classes._carry(negated, cycle, word, peeled) is None, word
            tried += 1
        classes.fill(cycle, word)
    assert tried > 50


def test_a_symmetry_that_is_no_automorphism_only_costs_refused_carries(monkeypatch):
    # a <-> b maps heis_ext's commutator into its class but is no
    # automorphism (t^-1 a t = a b goes to t^-1 b t = b a); listed as a
    # symmetry, its carries are proposals the exact checks refuse
    ball = _lifetime_ball("heis_ext.grp", 3)
    swap = (0, 2, 1, 3, -3, -1, -2)
    found = filling.symmetries
    monkeypatch.setattr(filling, "symmetries", lambda *args: found(*args) + (swap,))
    carry = filling._ClassFills._carry
    swapped = []

    def recorded(self, root, *args):
        chain = carry(self, root, *args)
        if root.symmetry.letters == swap:
            swapped.append(chain)
        return chain

    monkeypatch.setattr(filling._ClassFills, "_carry", recorded)
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", "heis_ext.grp"))
    assert fa_estimate(group.backend, group.hom_pres, 8, 3, ball=ball) == fa_reference(ball, 8)
    assert None in swapped


# l1_fill calls of FA tables whose loops fall in few orbits of word classes
# under the presentation's symmetries: z3_ext has 48 symmetries, z2_by_f2 64
SYMMETRIC_FILLS = [("z3_ext.grp", 4, 6, 6), ("z3_ext.grp", 4, 8, 51), ("z2_by_f2.grp", 3, 8, 231)]


@pytest.mark.parametrize("file, radius, n_max, fills", SYMMETRIC_FILLS)
def test_fa_estimate_fills_one_loop_per_carried_orbit(monkeypatch, file, radius, n_max, fills):
    ball = _lifetime_ball(file, radius)
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", file))
    calls = []
    monkeypatch.setattr(filling, "l1_fill", lambda *args: calls.append(1) or l1_fill(*args))
    fa_estimate(group.backend, group.hom_pres, n_max, radius, ball=ball)
    assert len(calls) == fills
