import glob
import os
import random

import pytest

from homfill.cayley import (
    OneCycle,
    Placement,
    TwoChain,
    boundary_2,
    build_ball,
    carry_chain,
    carry_cycle,
    dump_ball,
    is_cycle,
    loop_to_cycle,
    vertex_incidence,
)
from homfill.backends import ExtensionBackend, FreeAbelianBackend, FreeBackend, GroupBackend
from homfill.cli import load_group
from homfill.errors import DomainError, ResourceError
from homfill.words import parse_word

from oracles import build_ball_reference

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
    cyc = boundary_2(z2_ball4, TwoChain({0: 1}))
    assert cyc.length() == 4
    assert is_cycle(z2_ball4, cyc)
    assert cyc == OneCycle(list(z2_ball4.cells[0].boundary))


def test_boundary_cancellation(z2_ball4):
    assert boundary_2(z2_ball4, TwoChain()) == OneCycle()
    # adjacent unit squares share one edge: 6 edges survive
    base = z2_ball4.vertex_of(())
    right = z2_ball4.vertex_of((1,))
    c = TwoChain(
        {z2_ball4.cell_at(base, 0): 1, z2_ball4.cell_at(right, 0): 1}
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
    with pytest.raises(ResourceError, match="exits ball"):
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
    V = z2_ball4.vertices
    place = Placement(z2_ball4, lambda x: g + V[x])
    inner = [c for c in range(len(z2_ball4.cells)) if z2_ball4.distance[z2_ball4.cells[c].base] <= 1]
    for cell in inner:
        chain = TwoChain({cell: 1})
        translated = carry_chain(z2_ball4, z2_ball4, chain, place)
        assert translated != chain
        lhs = boundary_2(z2_ball4, translated)
        rhs = carry_cycle(z2_ball4, z2_ball4, boundary_2(z2_ball4, chain), place)
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
                            with pytest.raises(ResourceError, match=f"is outside the radius-{radius} ball"):
                                ball.step(v, letter)
                        else:
                            assert ball.step(v, letter) == expected


def test_chain_classes_share_arithmetic_but_not_equality():
    cycle, chain = OneCycle({3: 2, 1: -1, 4: 0}), TwoChain([(3, 2), (1, -1), (1, 1)])
    assert cycle.key() == ((1, -1), (3, 2)) and chain.key() == ((3, 2),)
    assert cycle + OneCycle({1: 1}) == OneCycle({3: 2}) and type(chain + chain) is TwoChain
    assert chain.scale(-2) == TwoChain({3: -4}) and not (chain - chain)
    assert repr(-cycle) == "OneCycle({3: -2, 1: 1})" and repr(chain) == "TwoChain({3: 2})"
    assert OneCycle({3: 2}) != TwoChain({3: 2}) and not isinstance(chain, OneCycle)
    assert {cycle: 1}[OneCycle({1: -1, 3: 2})] == 1
    with pytest.raises(TypeError):
        hash(chain)


def _ball_tables(ball):
    return (
        ball.vertices,
        ball.vertex_index,
        ball.distance,
        ball.edges,
        ball.succ,
        [(c.base, c.relator, c.boundary) for c in ball.cells],
        ball.cell_ids,
        ball.coset_labels,
    )


def _radius_cases():
    """(id, file, kernel?, radius): every group file's ball, and each
    extension file's kernel ball, at radii 1-5, then three larger
    extension balls."""
    cases = []
    for path in GROUP_FILES:
        name = os.path.basename(path)[: -len(".grp")]
        kernel = (False, True) if load_group(path).k_backend is not None else (False,)
        cases += [(f"{name}:{'k' if k else 'r'}{r}", path, k, r) for k in kernel for r in range(1, 6)]
    groups = os.path.dirname(GROUP_FILES[0])
    big = (("z3_ext", 7), ("heis_ext", 8), ("heis_ext", 10))
    cases += [(f"{name}:r{r}", os.path.join(groups, f"{name}.grp"), False, r) for name, r in big]
    return cases


@pytest.mark.parametrize("case", _radius_cases(), ids=lambda case: case[0])
def test_build_matches_the_normal_form_per_letter_reference(case):
    _, path, kernel, radius = case
    group = load_group(path)
    backend, pres = (group.k_backend, group.k_pres) if kernel else (group.backend, group.hom_pres)
    assert _ball_tables(build_ball(backend, pres, radius)) == _ball_tables(
        build_ball_reference(backend, pres, radius)
    )


@pytest.mark.parametrize("case", _radius_cases(), ids=lambda case: case[0])
def test_the_tree_reaches_each_vertex_from_a_parent_one_step_nearer(case):
    _, path, kernel, radius = case
    group = load_group(path)
    backend, pres = (group.k_backend, group.k_pres) if kernel else (group.backend, group.hom_pres)
    ball = build_ball(backend, pres, radius)
    # derived on first use, so a build pays nothing for it
    assert "tree" not in ball.__dict__
    tree = ball.tree
    assert len(tree) == len(ball.vertices) and tree[0] is None
    for v in range(1, len(ball.vertices)):
        parent, letter = tree[v]
        assert ball.distance[parent] == ball.distance[v] - 1
        assert ball.hop(parent, letter)[2] == v


def _count(monkeypatch, method: str) -> list[int]:
    """Count the calls of ``method`` on every backend class that defines it."""
    calls = [0]
    for cls in (GroupBackend, FreeBackend, FreeAbelianBackend, ExtensionBackend):
        if method in vars(cls):
            original = vars(cls)[method]

            def counted(self, *args, original=original):
                calls[0] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, method, counted)
    return calls


def _count_products(monkeypatch, backend) -> list[int]:
    """Count the calls of one backend's ``times``, not its kernel's."""
    calls = [0]
    times = backend.times

    def counted(nf, w):
        calls[0] += 1
        return times(nf, w)

    monkeypatch.setattr(backend, "times", counted)
    return calls


def test_the_build_takes_one_product_per_edge_and_no_normal_form(monkeypatch):
    group = load_group(os.path.join(os.path.dirname(GROUP_FILES[0]), "heis_ext.grp"))
    normal_forms = _count(monkeypatch, "normal_form")
    products = _count_products(monkeypatch, group.backend)
    ball = build_ball(group.backend, group.hom_pres, 8)
    # 4,920 edges; the other 939 products are the +g letters that leave
    # the ball at the radius
    assert (len(ball.vertices), len(ball.edges), products[0], normal_forms[0]) == (1953, 4920, 5859, 0)
    # the reference takes one normal form per (vertex, letter)
    build_ball_reference(group.backend, group.hom_pres, 8)
    assert normal_forms[0] == 9456


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_every_edge_is_derived_once(path, monkeypatch):
    """Products: one per edge, plus one per generator that leaves the ball
    from a vertex at the radius; no backend takes a normal form except the
    free backend's product, which is its normal form of nf + w."""
    group = load_group(path)
    pairs = [(group.backend, group.hom_pres)]
    if group.k_backend is not None:
        pairs.append((group.k_backend, group.k_pres))
    for backend, pres in pairs:
        for radius in range(1, 6):
            products = _count_products(monkeypatch, backend)
            normal_forms = _count(monkeypatch, "normal_form")
            ball = build_ball(backend, pres, radius)
            monkeypatch.undo()
            leaving = sum(
                ball.succ[v][g] < 0
                for v in range(len(ball.vertices))
                if ball.distance[v] == radius
                for g in range(1, backend.rank + 1)
            )
            assert products[0] == len(ball.edges) + leaving
            assert normal_forms[0] == (products[0] if isinstance(backend, FreeBackend) else 0)
