import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.backends import (
    ExtensionBackend,
    ExtensionNormalForm,
    FreeAbelianBackend,
    FreeBackend,
    equal_in_group,
)
from homfill.cayley import build_ball
from homfill.cli import load_group
from homfill.errors import DomainError, ResourceError
from homfill.presentation import AutLift, HomPresentation, Presentation, apply_lift
from homfill.words import check_letters, free_reduce, inverse_word, parse_word

NI = {"a": 0, "b": 1, "t1": 2}
GROUPS = Path(__file__).resolve().parent.parent / "groups"


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
    "z2_redundant_file": lambda: load_group(str(GROUPS / "z2_redundant.grp")).backend,
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


# ---------------------------------------------------------------------------
# differential tests of the extension word arithmetic against the letter-by-
# letter forms it replaced, on seeded random words

EXTENSION_GROUPS = ("z3_ext.grp", "heis_ext.grp", "z2_by_f2.grp")


def letterwise_lift(lift, direction, w):
    """Oracle for ``apply_lift``: each letter's image read off the lift's
    generator images (inverted for an inverse letter), then one
    ``free_reduce`` pass over the concatenation."""
    images = getattr(lift, direction)
    return free_reduce([y for x in w for y in (images[x - 1] if x > 0 else inverse_word(images[-x - 1]))])


def fold_split(backend, w):
    """Oracle for ``ExtensionBackend.split``: the kernel normal form is
    retaken after every kernel letter's pushed image."""
    check_letters(tuple(w), backend.rank)
    k_word, t_word = (), []
    for x in w:
        if abs(x) <= backend.k_rank:
            pushed = (x,)
            for t_letter in reversed(t_word):
                lift = backend.lifts[abs(t_letter) - backend.k_rank - 1]
                pushed = letterwise_lift(lift, "forward" if t_letter < 0 else "backward", pushed)
            k_word = backend.k_backend.normal_form(k_word + pushed)
        elif t_word and t_word[-1] == -x:
            t_word.pop()
        else:
            t_word.append(x)
    return ExtensionNormalForm(backend.k_backend.normal_form(k_word), tuple(t_word))


def random_words(rng, rank, count, max_len=16):
    """Random words over letters +-1..rank, about a third of them with an
    inserted x x^-1 pair so that unreduced words are always among them."""
    words = []
    for _ in range(count):
        w = [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, max_len))]
        if w and rng.random() < 0.35:
            x = rng.choice(w)
            at = rng.randint(0, len(w))
            w[at:at] = [x, -x]
        words.append(tuple(w))
    return words


@pytest.mark.parametrize("name", EXTENSION_GROUPS)
def test_split_matches_the_normalising_fold(name):
    group = load_group(str(GROUPS / name))
    backend = group.backend
    rng = random.Random(f"split:{name}")
    words = random_words(rng, backend.rank, 400)
    stable = range(backend.k_rank + 1, backend.rank + 1)
    assert any(x < 0 and abs(x) in stable for w in words for x in w)  # inverse stable letters
    assert any(w[i] == -w[i + 1] for w in words for i in range(len(w) - 1))  # unreduced words
    for w in words:
        nf = backend.split(w)
        assert nf == fold_split(backend, w), w
        assert backend.normal_form(w) == nf.k_part + nf.t_part
    # the ball reads each vertex's coset label off its normal form
    ball = build_ball(backend, group.hom_pres, 3)
    assert ball.coset_labels == [backend.split(v).t_part for v in ball.vertices]
    assert any(ball.coset_labels)


def vector_form(backend, w):
    """Oracle for the free abelian product: the sum of the letters'
    vectors, spelled out as the basis letters' powers."""
    vec = [0] * backend.dim
    for x in w:
        for k, e in enumerate(backend.vectors[abs(x) - 1]):
            vec[k] += e if x > 0 else -e
    return tuple(k + 1 if e > 0 else -k - 1 for k, e in enumerate(vec) for _ in range(abs(e)))


def reference_form(backend, w):
    """The normal form of ``w`` by an oracle of its backend's kind: the
    normalising fold for an extension, the vector sum for a free abelian
    group; a free group's product is its normal form of nf + w."""
    if isinstance(backend, ExtensionBackend):
        nf = fold_split(backend, w)
        return nf.k_part + nf.t_part
    if isinstance(backend, FreeAbelianBackend):
        return vector_form(backend, w)
    return backend.normal_form(w)


def _file_backends(path):
    group = load_group(str(path))
    out = [(path.stem, group.backend, group.hom_pres)]
    if group.k_backend is not None:
        out.append((f"{path.stem}:kernel", group.k_backend, group.k_pres))
    return out


FILE_BACKENDS = [b for path in sorted(GROUPS.glob("*.grp")) for b in _file_backends(path)]


@pytest.mark.parametrize("name, backend, pres", FILE_BACKENDS, ids=[b[0] for b in FILE_BACKENDS])
def test_times_is_the_normal_form_of_the_concatenation(name, backend, pres):
    """On every signed letter, so z2_redundant's vector c, f2_triangle's
    word c and z2_by_f2's two stable letters among them."""

    def check(nf, w):
        product = backend.times(nf, w)
        assert product == backend.normal_form(nf + w) == reference_form(backend, nf + w), (nf, w)

    letters = [x for g in range(1, backend.rank + 1) for x in (g, -g)]
    ball = build_ball(backend, pres, 4)
    for nf in ball.vertices:
        for x in letters:
            check(nf, (x,))
    rng = random.Random(f"times:{name}")
    words = random_words(rng, backend.rank, 300)
    for u, w in zip(words, reversed(words)):
        check(backend.normal_form(u), w)
        # is_identity, which the free abelian backend reads off the vector
        assert backend.is_identity(u) == (backend.normal_form(u) == ()), u
        assert backend.is_identity(u + inverse_word(w) + w + inverse_word(u)), (u, w)


@pytest.mark.parametrize("name", EXTENSION_GROUPS)
def test_apply_lift_matches_letterwise_substitution(name):
    group = load_group(str(GROUPS / name))
    rng = random.Random(f"lift:{name}")
    for lift in group.lifts:
        for w in random_words(rng, lift.rank, 200, max_len=24):
            for direction in ("forward", "backward"):
                image = apply_lift(lift, direction, w)
                assert image == letterwise_lift(lift, direction, w), (w, direction)
                # and stacked, as split pushes a letter through several t-letters
                assert apply_lift(lift, direction, image) == letterwise_lift(lift, direction, image)


@pytest.mark.parametrize("name", EXTENSION_GROUPS)
def test_the_first_bad_letter_is_named(name):
    group = load_group(str(GROUPS / name))
    backend, lift = group.backend, group.lifts[0]
    nf = backend.normal_form((1, backend.rank, -1))  # a kernel part and a t-part
    for rank, call in (
        (backend.rank, backend.split),
        (backend.rank, backend.normal_form),
        (backend.rank, lambda w: backend.times((), w)),
        (backend.rank, lambda w: backend.times(nf, w)),
        (backend.k_rank, lambda w: backend.k_backend.times((1,), w)),
        (lift.rank, lambda w: apply_lift(lift, "forward", w)),
        (lift.rank, lambda w: apply_lift(lift, "backward", w)),
        (backend.rank, lambda w: check_letters(w, backend.rank)),
    ):
        big = rank + 1
        for w, bad in (
            ((1, -1, 0, 1, big), 0),
            ((0, -big), 0),
            ((1, big, -1, 0), big),
            ((-big, 1), -big),
            ((1, -big), -big),
            ((big,), big),
        ):
            with pytest.raises(DomainError, match=rf"^letter {bad} outside generator range 1\.\.{rank}$"):
                call(w)
        call((1, -rank, rank))  # the ends of the range are letters
