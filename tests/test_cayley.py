import glob
import os
import random

import pytest

from homfill.cayley import (
    OneCycle,
    TwoChain,
    boundary_2,
    build_ball,
    cell_boundary,
    dump_ball,
    is_cycle,
    loop_to_cycle,
    translate_chain,
    translate_cycle,
    vertex_incidence,
)
from homfill.cli import load_group
from homfill.errors import DomainError
from homfill.words import parse_word

GROUP_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "groups", "*.grp")))

NI = {"a": 0, "b": 1}


def lattice_oracle(radius):
    pts = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    ]
    pset = set(pts)
    edges = sum(
        1 for (x, y) in pts for (dx, dy) in ((1, 0), (0, 1)) if (x + dx, y + dy) in pset
    )
    cells = sum(
        1
        for (x, y) in pts
        if all(p in pset for p in ((x + 1, y), (x, y + 1), (x + 1, y + 1)))
    )
    return len(pts), edges, cells


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_z2_ball_counts_match_lattice(z2_backend, z2_pres, radius):
    ball = build_ball(z2_backend, z2_pres, radius)
    assert (len(ball.vertices), len(ball.edges), len(ball.cells)) == lattice_oracle(radius)


def test_f2_ball_counts(f2_ball3):
    # 4-regular tree: 1 + 4 + 12 + 36 vertices at radius 3; edges = V - 1; no cells
    assert len(f2_ball3.vertices) == 53
    assert len(f2_ball3.edges) == 52
    assert len(f2_ball3.cells) == 0


def test_small_ball_has_no_cells_for_long_relator():
    from homfill.backends import FreeAbelianBackend
    from homfill.presentation import HomPresentation, Presentation

    pres = HomPresentation.mark_all(
        Presentation(("a", "b"), (parse_word("a a b b a' a' b' b'", NI),))
    )
    ball = build_ball(FreeAbelianBackend(2), pres, 1)
    assert len(ball.cells) == 0


def test_cell_boundary_single(z2_ball4):
    cell = z2_ball4.cells[0]
    cyc = cell_boundary(z2_ball4, 0)
    assert cyc.length() == 4
    assert is_cycle(z2_ball4, cyc)
    assert boundary_2(z2_ball4, TwoChain({0: 1})) == cyc


def test_boundary_cancellation(z2_ball4):
    assert boundary_2(z2_ball4, TwoChain()) == OneCycle()
    # adjacent unit squares share one edge: 6 edges survive
    base = z2_ball4.vertex_of(())
    right = z2_ball4.vertex_of((1,))
    c = TwoChain(
        {z2_ball4.cell_index[(base, 0)]: 1, z2_ball4.cell_index[(right, 0)]: 1}
    )
    cyc = boundary_2(z2_ball4, c)
    assert cyc.length() == 6
    shared = z2_ball4.succ[right][2]
    assert shared not in cyc.coeffs
    # incidence-matrix oracle
    assert not vertex_incidence(z2_ball4, cyc)


def test_loop_to_cycle_examples(z2_ball4):
    sq = loop_to_cycle(z2_ball4, 0, parse_word("a b a' b'", NI))
    assert sq.length() == 4
    assert loop_to_cycle(z2_ball4, 0, parse_word("a a'", NI)) == OneCycle()
    big = loop_to_cycle(z2_ball4, 0, parse_word("a a b b a' a' b' b'", NI))
    assert big.length() == 8
    assert sq.scale(2).length() == 8


def test_loop_errors(z2_ball4, f2_ball3):
    with pytest.raises(DomainError, match="does not close"):
        loop_to_cycle(z2_ball4, 0, parse_word("a b", NI))
    with pytest.raises(DomainError, match="exits ball"):
        loop_to_cycle(f2_ball3, 0, parse_word("a b a' b'", NI))


def test_boundary_of_boundary_random(z2_ball4, z3_setup):
    rng = random.Random(7)
    for ball in (z2_ball4, z3_setup.h_ball):
        for _ in range(250):
            coeffs = {
                rng.randrange(len(ball.cells)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 6))
            }
            cyc = boundary_2(ball, TwoChain(coeffs))
            assert is_cycle(ball, cyc)


def test_equivariance_translation(z2_ball4):
    g = (1,)  # translation keeps distance-<=1-based cells inside the radius-4 ball
    inner = [c for c in range(len(z2_ball4.cells)) if z2_ball4.distance[z2_ball4.cells[c].base] <= 1]
    for cell in inner:
        chain = TwoChain({cell: 1})
        translated = translate_chain(z2_ball4, g, chain)
        lhs = boundary_2(z2_ball4, translated)
        rhs = translate_cycle(z2_ball4, g, boundary_2(z2_ball4, chain))
        assert lhs == rhs


def test_build_determinism(z2_backend, z2_pres):
    a = build_ball(z2_backend, z2_pres, 3)
    b = build_ball(z2_backend, z2_pres, 3)
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert [(c.base, c.relator, c.boundary) for c in a.cells] == [
        (c.base, c.relator, c.boundary) for c in b.cells
    ]
    assert dump_ball(a) == dump_ball(b)


def test_coset_labels(z3_setup):
    ball = z3_setup.h_ball
    v = ball.vertex_of(parse_word("a t1 b t1", {"a": 0, "b": 1, "t1": 2}))
    assert ball.coset_labels[v] == (3, 3)
    assert ball.coset_labels[0] == ()


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_cell_cosets(path):
    group = load_group(path)
    ball = build_ball(group.backend, group.hom_pres, 4)
    assert len(ball.cell_cosets) == len(ball.cells)
    layout = group.layout
    if layout is None:
        assert all(cosets == ((),) for cosets in ball.cell_cosets)
        return
    for cell, cosets in zip(ball.cells, ball.cell_cosets):
        if not layout.is_conj_relator(cell.relator):
            assert cosets == (ball.coset_labels[cell.base],)
            continue
        i, _j = layout.conj_info(cell.relator)
        t = layout.stable_letter(i)
        lower, upper = cosets
        assert upper in (lower + (t,), lower + (-t,))
        assert ball.coset_labels[cell.base] in cosets


def test_ball_json_shape(z2_ball4):
    import json

    doc = json.loads(dump_ball(z2_ball4))
    assert doc["vertices"][0] == "e"
    s, label, t = doc["edges"][0]
    assert label in ("a", "b")
    base, relator, boundary = doc["cells"][0]
    assert relator == 0 and len(boundary) == 4


def _reference_step(ball, edge_of, vertex, letter):
    """One letter from ``vertex`` by normal forms: (edge, sign, next vertex),
    or None when the product leaves the ball."""
    target = ball.backend.normal_form(ball.vertices[vertex] + (letter,))
    if target not in ball.vertex_index:
        return None
    nxt = ball.vertex_index[target]
    if letter > 0:
        return edge_of[(vertex, letter)], 1, nxt
    return edge_of[(nxt, -letter)], -1, nxt


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_step_table_matches_normal_forms(path):
    group = load_group(path)
    pairs = [(group.backend, group.hom_pres)]
    if group.k_backend is not None:
        pairs.append((group.k_backend, group.k_pres))
    for backend, pres in pairs:
        for radius in range(1, 5):
            ball = build_ball(backend, pres, radius)
            edge_of = {(s, g): e for e, (s, g, _) in enumerate(ball.edges)}
            for v in range(len(ball.vertices)):
                for g in range(1, backend.rank + 1):
                    for letter in (g, -g):
                        expected = _reference_step(ball, edge_of, v, letter)
                        if expected is None:
                            with pytest.raises(DomainError, match="leaves ball"):
                                ball.step(v, letter)
                        else:
                            assert ball.step(v, letter) == expected
