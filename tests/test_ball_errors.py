"""The error rule for finite balls.

A request that a larger ball would serve raises ResourceError, and its
message names the radius that ran out, the generators of that ball and a
radius whose ball holds the missing piece: a vertex's normal-form length, an
edge's radius + 1, a cell's base distance plus half its relator's length.
A request that no ball serves (here, charting an edge or cell from a coset
it does not lie in) raises DomainError.

The sweep runs the extension layer on the radius-3 balls of the golden
``tight:*`` sections and ``compute_constants`` on a radius-1 kernel ball,
and rebuilds each named ball at the named radius to check that it holds the
piece.
"""

import re
from functools import lru_cache
from pathlib import Path

import pytest

from homfill import extension
from homfill.cayley import OneCycle, TwoChain, build_ball
from homfill.cli import load_group
from homfill.errors import DomainError, ResourceError
from homfill.filling import enumerate_identity_cycles
from homfill.words import parse_letter, parse_word

GROUPS = Path(__file__).resolve().parent.parent / "groups"
QUAD_F = [max(n, n * n) for n in range(64)]
# group file -> the routes of its golden tight:*:route section
ROUTES = {
    "z3_ext.grp": ("t1", "t1'", "t1 t1", "t1' t1'", ""),
    "heis_ext.grp": ("t1", "t1'"),
}
OUTSIDE = re.compile(
    r"(?:vertex (?P<vertex>[^;]*?)|edge (?P<letter>\S+) from (?P<source>[^;]*?)"
    r"|cell of relator (?P<relator>\d+) at (?P<base>[^;]*?))"
    r" is outside the radius-(?P<radius>\d+) ball over (?P<gens>[^;]*); radius (?P<holds>\d+) holds it$"
)
# the ResourceErrors of a fill that does not close in its ball, which name no piece
UNFILLED = re.compile(r"(kernel filling at route end|certificate loop for .*) is \w+ in the radius-\d+ kernel ball$")


@lru_cache(maxsize=None)
def _group(file: str):
    return load_group(str(GROUPS / file))


@lru_cache(maxsize=None)
def _ball(file: str, kernel: bool, radius: int):
    group = _group(file)
    if kernel:
        return build_ball(group.k_backend, group.k_pres, radius)
    return build_ball(group.backend, group.hom_pres, radius)


def _find(ball, piece):
    """Look the parsed piece up in ``ball``; its ResourceError when missing."""
    names = {g: i for i, g in enumerate(ball.generators)}

    def vertex(text):
        return ball.vertex_of(() if text == "e" else parse_word(text, names))

    if piece["vertex"] is not None:
        vertex(piece["vertex"])
    elif piece["letter"] is not None:
        ball.step(vertex(piece["source"]), parse_letter(piece["letter"], names))
    else:
        ball.cell_at(vertex(piece["base"]), int(piece["relator"]))


def _check_resource(file: str, exc: ResourceError, seen: set) -> None:
    """The named ball lacks the named piece at the radius that ran out and
    holds it at the named radius."""
    message = str(exc)
    piece = OUTSIDE.search(message)
    if piece is None:
        assert UNFILLED.search(message), message
        seen.add("unfilled")
        return
    seen.add(next(k for k in ("vertex", "letter", "relator") if piece[k] is not None))
    group = _group(file)
    kernel = piece["gens"].split() == list(group.k_pres.generators)
    assert kernel or piece["gens"].split() == list(group.hom_pres.generators), message
    ran_out, holds = int(piece["radius"]), int(piece["holds"])
    assert holds > ran_out, message
    with pytest.raises(ResourceError):
        _find(_ball(file, kernel, ran_out), piece)
    _find(_ball(file, kernel, holds), piece)


def _run(file: str, seen: set, fn, *args, outside_coset: bool = False):
    """Call ``fn``; a DomainError is allowed exactly for an item charted from
    a coset it is not in, and every other failure must be a ResourceError
    that passes ``_check_resource``."""
    try:
        result = fn(*args)
    except DomainError as exc:
        assert outside_coset, f"{fn.__name__}: {exc}"
        assert "leaves the coset" in str(exc)
        seen.add("coset")
        return None
    except ResourceError as exc:
        assert not outside_coset, f"{fn.__name__}: {exc}"
        _check_resource(file, exc, seen)
        return None
    assert not outside_coset, fn.__name__
    return result


def _in_coset(h_ball, item, coset) -> bool:
    """Every vertex of every edge or cell of the item carries the label."""
    labels = h_ball.coset_labels
    if isinstance(item, OneCycle):
        vertices = [v for e in item.coeffs for v in (h_ball.edges[e][0], h_ball.edges[e][2])]
    else:
        vertices = [v for c in item.coeffs for v in h_ball.cell_vertices(c)]
    return all(labels[v] == coset for v in vertices)


@pytest.mark.parametrize("file", sorted(ROUTES))
def test_ball_too_small_is_a_resource_error_naming_a_radius_that_holds(file):
    group = _group(file)
    h_ball, k_ball = _ball(file, False, 3), _ball(file, True, 3)
    seen: set = set()
    cosets = sorted(set(h_ball.coset_labels), key=lambda w: (len(w), w))
    for coset in (c for c in cosets if len(c) <= 2):
        items = [OneCycle({e: 1}) for e in range(len(h_ball.edges))]
        items += [TwoChain({c: 1}) for c in range(len(h_ball.cells))]
        for item in items:
            outside = not _in_coset(h_ball, item, coset)
            _run(file, seen, extension.chart, h_ball, k_ball, coset, item, outside_coset=outside)
    for coset in cosets:
        for c in range(len(k_ball.cells)):
            _run(file, seen, extension.embed_chain, h_ball, coset, k_ball, TwoChain({c: 1}))
    for e in range(len(k_ball.edges)):
        _run(file, seen, extension.kernel_cycle_to_extension, h_ball, k_ball, OneCycle({e: 1}))
        for lift in group.lifts:
            for direction in ("forward", "backward"):
                _run(file, seen, extension.lift_image_cycle, k_ball, OneCycle({e: 1}), lift, direction)
    constants = extension.compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    routes = [parse_word(r, group.name_index) for r in ROUTES[file]]
    for _, cycle, _ in enumerate_identity_cycles(k_ball, 6):
        for route in routes:
            chain = _run(file, seen, extension.route_filling, h_ball, k_ball, constants, cycle, route)
            if chain is not None:
                gamma = extension.kernel_cycle_to_extension(h_ball, k_ball, cycle)
                _run(file, seen, extension.push_down, h_ball, gamma, chain, constants, QUAD_F)
    k_small = _ball(file, True, 1)
    _run(file, seen, extension.compute_constants, k_small, group.layout, group.lifts, group.hom_pres.base.relators)
    # the sweep meets every kind of failure
    assert seen >= {"vertex", "letter", "relator", "coset"}, seen


@pytest.mark.parametrize("file", sorted(ROUTES))
@pytest.mark.parametrize("k_radius", [3, 8])
def test_chart_refuses_items_outside_the_coset(file, k_radius):
    h_ball, k_ball = _ball(file, False, 3), _ball(file, True, k_radius)
    t = (_group(file).hom_pres.generators.index("t1") + 1,)
    labels = h_ball.coset_labels
    # an edge and a cell of K(e) next to the identity, charted from K(t1)
    edge = next(e for e, (s, g, u) in enumerate(h_ball.edges) if labels[s] == labels[u] == ())
    cell = next(c for c, cosets in enumerate(h_ball.cell_cosets) if cosets == ((),))
    for item, what in ((OneCycle({edge: 1}), "cycle"), (TwoChain({cell: 1}), "chain")):
        with pytest.raises(DomainError, match=re.escape(f"the {what} to chart leaves the coset K(t1)")):
            extension.chart(h_ball, k_ball, t, item)
        assert extension.chart(h_ball, k_ball, (), item)

