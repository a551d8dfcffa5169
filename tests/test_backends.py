import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.backends import (
    ExtensionBackend,
    FreeAbelianBackend,
    FreeBackend,
    TableBackend,
    equal_in_group,
)
from homfill.cayley import build_ball
from homfill.errors import DomainError, ResourceError
from homfill.presentation import AutLift, HomPresentation, Presentation, apply_lift
from homfill.words import parse_word

NI = {"a": 0, "b": 1, "t1": 2}


def ball_vertices(backend, radius, vertex_budget=None):
    """The vertices of the ball of a relator-free presentation."""
    names = tuple(f"x{j}" for j in range(backend.rank))
    pres = HomPresentation.mark_all(Presentation(names, ()))
    return build_ball(backend, pres, radius, vertex_budget).vertices


def shear_backend():
    lift = AutLift(((1, 2), (2,)), ((1, -2), (2,)))
    return ExtensionBackend(FreeAbelianBackend(2), [lift]), lift


BACKENDS = {
    "free_abelian": lambda: FreeAbelianBackend(2),
    "free": lambda: FreeBackend(2),
    "z3_extension": lambda: ExtensionBackend(FreeAbelianBackend(2), [AutLift.identity(2)]),
    "heis_extension": lambda: shear_backend()[0],
    "table_z6": lambda: TableBackend([[(x + 1) % 6 for x in range(6)]]),
}


def test_normal_form_examples():
    z2 = FreeAbelianBackend(2)
    assert z2.normal_form(parse_word("b a b'", NI)) == (1,)
    f2 = FreeBackend(2)
    assert f2.normal_form(parse_word("a b b'", NI)) == (1,)


def test_equal_in_group_examples():
    z2 = FreeAbelianBackend(2)
    f2 = FreeBackend(2)
    comm = parse_word("a b a' b'", NI)
    assert equal_in_group(z2, comm, ())
    assert not equal_in_group(f2, comm, ())
    z3 = ExtensionBackend(FreeAbelianBackend(2), [AutLift.identity(2)])
    assert equal_in_group(z3, parse_word("t1 a", NI), parse_word("a t1", NI))


def test_extension_normal_form_pushes_t_right():
    backend, lift = shear_backend()
    nf = backend.split(parse_word("t1 a t1'", NI))
    # t a t^-1 is the backward image of a
    assert nf.k_part == backend.k_backend.normal_form(apply_lift(lift, "backward", (1,)))
    assert nf.t_part == ()
    assert nf.k_part == (1, -2)  # a b^-1


def test_extension_defining_relators_hold():
    backend, lift = shear_backend()
    for j in (1, 2):
        lhs = (-3, j, 3)  # t^-1 a_j t
        assert equal_in_group(backend, lhs, apply_lift(lift, "forward", (j,)))


@pytest.mark.parametrize("name", sorted(BACKENDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_idempotent_and_sound(name, data):
    backend = BACKENDS[name]()
    letters = st.integers(min_value=-backend.rank, max_value=backend.rank).filter(lambda x: x)
    w = tuple(data.draw(st.lists(letters, max_size=6)))
    nf = backend.normal_form(w)
    assert backend.normal_form(nf) == nf
    assert equal_in_group(backend, w, nf)
    u = tuple(data.draw(st.lists(letters, max_size=6)))
    # concatenation compatibility
    assert backend.normal_form(w + u) == backend.normal_form(
        backend.normal_form(w) + backend.normal_form(u)
    )


def test_ball_z2_radius1():
    vs = ball_vertices(FreeAbelianBackend(2), 1)
    assert set(vs) == {(), (1,), (-1,), (2,), (-2,)}


def test_ball_z2_radius2_size():
    # lattice oracle: |{(x,y): |x|+|y|<=2}| = 13
    assert len(ball_vertices(FreeAbelianBackend(2), 2)) == 13


def test_ball_f2_radius2_size():
    # 1 + 4 + 12 vertices of the 4-regular tree
    assert len(ball_vertices(FreeBackend(2), 2)) == 17


def test_ball_monotone():
    bk = FreeAbelianBackend(2)
    b2 = set(ball_vertices(bk, 2))
    b3 = set(ball_vertices(bk, 3))
    assert b2 <= b3


def test_ball_budget():
    with pytest.raises(ResourceError, match="budget"):
        ball_vertices(FreeBackend(2), 10, vertex_budget=50)


def test_table_backend_z6():
    bk = TableBackend([[(x + 1) % 6 for x in range(6)]])
    assert bk.normal_form((1, 1, 1, 1, 1, 1)) == ()
    assert equal_in_group(bk, (1, 1, 1, 1), (-1, -1))
    assert len(ball_vertices(bk, 3)) == 6


def test_table_backend_rejects_nongenerating():
    # permutation fixing 0: never reaches the rest
    with pytest.raises(DomainError):
        TableBackend([[0, 2, 1]])


def test_free_backend_redundant_generator():
    bk = FreeBackend(3, {2: (1, 2)}, base_rank=2)  # c = ab
    assert bk.normal_form((3,)) == (1, 2)
    assert equal_in_group(bk, (3, -2, -1), ())


def test_free_abelian_redundant_generator():
    bk = FreeAbelianBackend(2, [(1, 0), (0, 1), (1, 1)])
    assert bk.normal_form((3,)) == (1, 2)
    assert equal_in_group(bk, (3,), (2, 1))
    with pytest.raises(DomainError):
        FreeAbelianBackend(2, [(1, 1), (0, 1)])
