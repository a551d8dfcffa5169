"""The extension layer's placement tables against the normal-form placements
they replace.

Each table is read twice: its walked entries, before any lookup has resolved
a missing one, must equal the normal-form placement, and the table read
through its fallback must be None exactly where the normal form leaves the
destination ball.  The balls are small enough that many placements leave.
"""

import re
from pathlib import Path

import pytest

from homfill.cayley import NO_ENTRY, OneCycle, build_ball, trace_word
from homfill.cli import load_group
from homfill.errors import DomainError
from homfill.extension import chart_placement, embed_placement, lift_image_cycle, lift_placement
from homfill.presentation import apply_lift
from homfill.words import inverse_word

GROUPS = Path(__file__).resolve().parent.parent / "groups"
CASES = ("z3_ext", "heis_ext", "z2_by_f2")


@pytest.fixture(scope="module", params=CASES)
def balls(request):
    """A fresh extension ball and kernel ball, so no table is built yet."""
    group = load_group(str(GROUPS / f"{request.param}.grp"))
    h_ball = build_ball(group.backend, group.hom_pres, 4)
    k_ball = build_ball(group.k_backend, group.k_pres, 3)
    return request.param, group, h_ball, k_ball


def _normal_form_place(ball, word):
    return ball.vertex_index.get(ball.backend.normal_form(word))


def _check(placement, expected):
    """Walked entries agree with the normal form, and so does every entry
    once resolved; returns the vertices the walk filled."""
    walked = [x for x, v in enumerate(placement.table) if v != NO_ENTRY]
    for x in walked:
        assert placement.table[x] == expected[x], f"walked entry of vertex {x}"
    assert [placement(x) for x in range(len(expected))] == expected
    return walked


def test_chart_tables(balls):
    name, group, h_ball, k_ball = balls
    cosets = sorted({w for w in h_ball.coset_labels if len(w) <= 2})
    assert len(cosets) > 1
    outside = 0
    for coset in cosets:
        inv = inverse_word(coset)
        expected = [
            _normal_form_place(k_ball, group.backend.split(inv + word).k_part) for word in h_ball.vertices
        ]
        placement = chart_placement(h_ball, k_ball, coset)
        walked = _check(placement, expected)
        in_coset = [x for x, label in enumerate(h_ball.coset_labels) if label == coset]
        assert set(walked) <= set(in_coset)
        if name != "heis_ext":  # trivial actions: each coset slice is one kernel-letter grid
            assert walked == in_coset
        outside += sum(expected[x] is None for x in walked)
    assert outside  # the walk itself finds images outside the ball


def test_embed_tables(balls):
    _, group, h_ball, k_ball = balls
    outside = 0
    for coset in sorted(set(h_ball.coset_labels)):
        expected = [_normal_form_place(h_ball, coset + word) for word in k_ball.vertices]
        walked = _check(embed_placement(h_ball, coset, k_ball), expected)
        outside += sum(expected[x] is None for x in walked)
    assert outside


def test_lift_tables(balls):
    _, group, _, k_ball = balls
    for lift in group.lifts:
        for direction in ("forward", "backward"):
            expected = [_normal_form_place(k_ball, apply_lift(lift, direction, w)) for w in k_ball.vertices]
            placement, traced = lift_placement(k_ball, lift, direction)
            assert len(_check(placement, expected)) > 1
            for edge, (source, g, _) in enumerate(k_ball.edges):
                try:
                    base = k_ball.vertex_of(apply_lift(lift, direction, k_ball.vertices[source]))
                    want = trace_word(k_ball, base, lift.letter_image(g, direction))[0]
                except DomainError as exc:
                    with pytest.raises(DomainError, match="^" + re.escape(str(exc)) + "$"):
                        lift_image_cycle(k_ball, OneCycle({edge: 1}), lift, direction)
                    assert traced[edge] is None
                    continue
                assert lift_image_cycle(k_ball, OneCycle({edge: 1}), lift, direction) == OneCycle(want)
                assert traced[edge] == want
