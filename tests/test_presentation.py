import glob
import itertools
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.backends import FreeAbelianBackend
from homfill.cli import load_group
from homfill.errors import DomainError, HomfillError, ParseError
from homfill.presentation import (
    AutLift,
    HomPresentation,
    Presentation,
    apply_lift,
    build_extension_presentation,
    parse_presentation_text,
    symmetries,
    validate_lift,
)
from homfill.words import cyclic_reduce, format_word, inverse_word, parse_word, word_class

NI = {"a": 0, "b": 1}
GROUP_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "groups", "*.grp")))
EXTENSION_FILES = [path for path in GROUP_FILES if load_group(path).layout is not None]


def test_presentation_rejects_unreduced_relator():
    with pytest.raises(DomainError):
        Presentation(("a", "b"), ((1, -1),))
    with pytest.raises(DomainError):
        Presentation(("a", "b"), ((1, 2, -1),))  # cyclic seam cancellation


def test_presentation_rejects_duplicate_generators():
    with pytest.raises(DomainError):
        Presentation(("a", "a"), ())


def test_short_relators_accepted():
    # monogons and bigons are allowed
    Presentation(("a",), ((1,),))
    Presentation(("a", "b"), ((1, 2),))


def test_marked_relators_range():
    pres = Presentation(("a", "b"), (parse_word("a b a' b'", NI),))
    with pytest.raises(DomainError):
        HomPresentation(pres, (1,))
    with pytest.raises(DomainError):
        HomPresentation(pres, ())
    assert HomPresentation.mark_all(pres).marked_relators == (0,)


def test_empty_marked_ok_for_free():
    HomPresentation(Presentation(("a", "b"), ()), ())


def test_apply_lift_examples():
    lift = AutLift(((1, 2), (2,)), ((1, -2), (2,)))
    assert apply_lift(lift, "forward", (1,)) == (1, 2)
    assert apply_lift(lift, "forward", (2, -1)) == (-1,)
    ident = AutLift.identity(2)
    assert apply_lift(ident, "forward", (1, 2, -2, -1, 1)) == (1,)


def test_lift_validation():
    bk = FreeAbelianBackend(2)
    good = AutLift(((1, 2), (2,)), ((1, -2), (2,)))
    validate_lift(good, bk.normal_form)
    bad = AutLift(((1, 2), (2,)), ((1,), (2,)))
    with pytest.raises(DomainError, match="generator index 1"):
        validate_lift(bad, bk.normal_form)


def test_extension_presentation_identity():
    pres = HomPresentation.mark_all(Presentation(("a", "b"), (parse_word("a b a' b'", NI),)))
    hom, layout = build_extension_presentation(pres, [AutLift.identity(2)])
    assert hom.generators == ("a", "b", "t1")
    rendered = [format_word(r, hom.generators) for r in hom.base.relators]
    assert rendered == ["a b a' b'", "t1' a t1 a'", "t1' b t1 b'"]
    assert layout.k_relator_count == 1
    assert layout.conj_info(1) == (0, 0)
    assert layout.conj_info(2) == (0, 1)


def test_extension_presentation_shear():
    pres = HomPresentation.mark_all(Presentation(("a", "b"), (parse_word("a b a' b'", NI),)))
    lift = AutLift(((1, 2), (2,)), ((1, -2), (2,)))
    hom, _ = build_extension_presentation(pres, [lift])
    rendered = [format_word(r, hom.generators) for r in hom.base.relators]
    assert "t1' a t1 b' a'" in rendered


def test_extension_relator_count():
    pres = HomPresentation.mark_all(Presentation(("a", "b"), (parse_word("a b a' b'", NI),)))
    hom, _ = build_extension_presentation(pres, [AutLift.identity(2), AutLift.identity(2, 1)])
    assert len(hom.base.relators) == 1 + 2 * 2
    assert hom.generators == ("a", "b", "t1", "t2")


def test_extension_two_identity_lifts_on_free_kernel():
    pres = HomPresentation(Presentation(("a",), ()), ())
    hom, _ = build_extension_presentation(pres, [AutLift.identity(1), AutLift.identity(1, 1)])
    rendered = [format_word(r, hom.generators) for r in hom.base.relators]
    assert rendered == ["t1' a t1 a'", "t2' a t2 a'"]


def test_extension_rejects_bad_lift():
    pres = HomPresentation.mark_all(Presentation(("a", "b"), (parse_word("a b a' b'", NI),)))
    bk = FreeAbelianBackend(2)
    bad = AutLift(((1, 2), (2,)), ((1,), (2,)))
    with pytest.raises(DomainError):
        build_extension_presentation(pres, [bad], k_normal_form=bk.normal_form)


def test_every_relator_cyclically_reduced_property(z2_pres):
    from homfill.words import cyclic_reduce

    hom, _ = build_extension_presentation(
        z2_pres, [AutLift(((1, 2), (2,)), ((1, -2), (2,)))]
    )
    for r in hom.base.relators:
        assert cyclic_reduce(r) == r


def test_lift_roundtrip_on_short_words():
    bk = FreeAbelianBackend(2)
    lift = AutLift(((1, 2), (2,)), ((1, -2), (2,)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6))
    def check(letters):
        w = tuple(letters)
        round_trip = apply_lift(lift, "backward", apply_lift(lift, "forward", w))
        assert bk.normal_form(round_trip) == bk.normal_form(w)
        round_trip2 = apply_lift(lift, "forward", apply_lift(lift, "backward", w))
        assert bk.normal_form(round_trip2) == bk.normal_form(w)

    check()


def test_parse_presentation_text_roundtrip():
    pf = parse_presentation_text(
        """
        backend: extension
        k-backend: free_abelian
        generators: a b
        relator: a b a' b'   # commutator
        lift t1: a -> a b ; b -> b
        lift t1 inverse: a -> a b' ; b -> b
        """
    )
    assert pf.backend_kind == "extension"
    assert pf.k_backend_kind == "free_abelian"
    assert pf.generators == ("a", "b")
    assert pf.lifts[0].forward == ((1, 2), (2,))
    assert pf.stable_names == ("t1",)


def test_parse_rejects_unknown_token():
    with pytest.raises(ParseError) as err:
        parse_presentation_text("backend: free\ngenerators: a\nfrobnicate: yes\n")
    assert err.value.line == 3
    assert err.value.column is not None


def test_parse_rejects_non_integer_vector():
    with pytest.raises(ParseError, match="integer entries") as err:
        parse_presentation_text("backend: free_abelian\ngenerators: a b c\nvector c: 1 x\n")
    assert err.value.line == 3


def test_parse_rejects_half_lift():
    with pytest.raises(ParseError, match="forward and an inverse"):
        parse_presentation_text(
            "backend: extension\nk-backend: free\ngenerators: a\nlift t1: a -> a\n"
        )


@pytest.mark.parametrize("path", EXTENSION_FILES, ids=os.path.basename)
def test_conj_relator_numbering(path):
    # the conjugation relators follow the kernel's, lift-major, and
    # conj_relator / conj_info convert between index and (lift, generator)
    group = load_group(path)
    layout, relators = group.layout, group.hom_pres.base.relators
    assert len(relators) == layout.k_relator_count + layout.n_stable * layout.k_rank
    assert not any(layout.is_conj_relator(r) for r in range(layout.k_relator_count))
    for r in range(layout.k_relator_count, len(relators)):
        i, j = layout.conj_info(r)
        assert layout.is_conj_relator(r) and layout.conj_relator(i, j) == r
        assert 0 <= i < layout.n_stable and 0 <= j < layout.k_rank
        t = layout.stable_letter(i)
        image = apply_lift(group.lifts[i], "forward", (j + 1,))
        assert relators[r] == cyclic_reduce((-t, j + 1, t) + inverse_word(image))


# ---------------------------------------------------------------------------
# fuzzed presentation files: only HomfillError may escape parsing and loading

GROUP_LINES = [Path(path).read_text(encoding="utf-8").splitlines() for path in GROUP_FILES]
# tokens of the file format and near misses of them; the numbers stay small
# because a normal form spells each exponent out letter by letter
TOKENS = (
    "a", "b", "c", "t1", "t2", "A", "B", "a'", "b'", "c'", "t1'", "x", "''", "e",
    "0", "1", "-1", "2", "-2", "3", "1.5", "->", ";", ":", "#", "inverse",
    "backend:", "k-backend:", "generators:", "relator:", "lift", "vector", "word",
    "free", "free_abelian", "extension",
)


@st.composite
def presentation_texts(draw):
    """A group file's lines with up to five edits: a token replaced,
    dropped or inserted, a line of another file inserted, a line dropped,
    or a line of arbitrary text inserted."""
    lines = list(draw(st.sampled_from(GROUP_LINES)))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("replace", "drop", "insert", "line", "remove", "text")))
        at = draw(st.integers(0, len(lines)))
        if kind == "line":
            lines.insert(at, draw(st.sampled_from([line for file in GROUP_LINES for line in file])))
        elif kind == "text":
            lines.insert(at, draw(st.text(max_size=16)))
        elif lines:
            at = min(at, len(lines) - 1)
            if kind == "remove":
                del lines[at]
                continue
            tokens = lines[at].split()
            i = draw(st.integers(0, len(tokens)))
            if kind == "insert" or not tokens:
                tokens.insert(i, draw(st.sampled_from(TOKENS)))
            elif kind == "replace":
                tokens[min(i, len(tokens) - 1)] = draw(st.sampled_from(TOKENS))
            else:
                del tokens[min(i, len(tokens) - 1)]
            lines[at] = " ".join(tokens)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(text=presentation_texts())
def test_presentation_files_raise_only_homfill_errors(tmp_path_factory, text):
    try:
        pf = parse_presentation_text(text)
    except HomfillError:
        pf = None
    path = tmp_path_factory.getbasetemp() / "fuzz_presentation.grp"
    path.write_text(text, encoding="utf-8")
    try:
        group = load_group(str(path))
    except HomfillError:
        return
    # what loads parses, and its relators are trivial in its backend
    assert pf is not None and group.hom_pres.generators[: len(pf.generators)] == pf.generators
    assert all(group.backend.is_identity(r) for r in group.hom_pres.base.relators)


# the signed generator permutations of each group file that map the
# marked relators into their word classes and every relator to the identity
SYMMETRY_COUNTS = {"f2": 8, "f2_triangle": 6, "heis_ext": 2, "z2": 8, "z2_by_f2": 64, "z2_redundant": 2, "z3_ext": 48}


def _signed_permutations(rank):
    for images in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            sigma = [x * s for x, s in zip(images, signs)]
            yield (0, *sigma, *(-x for x in reversed(sigma)))


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_symmetries_of_the_group_files(path):
    group = load_group(path)
    hom, is_identity = group.hom_pres, group.backend.is_identity
    relators = hom.base.relators
    classes = {word_class(relators[i]) for i in hom.marked_relators}

    def image(sigma, r):
        return tuple(sigma[x] for x in r)

    found = symmetries(hom, is_identity)
    assert len(found) == SYMMETRY_COUNTS[os.path.basename(path).removesuffix(".grp")]
    assert found[0] == next(_signed_permutations(hom.rank))  # the identity
    for sigma in found:
        assert all(word_class(image(sigma, relators[i])) in classes for i in hom.marked_relators)
        assert all(is_identity(image(sigma, r)) for r in relators)
    # exactly the signed permutations that pass both checks, each once
    expected = {
        sigma
        for sigma in _signed_permutations(hom.rank)
        if all(word_class(image(sigma, relators[i])) in classes for i in hom.marked_relators)
        and all(is_identity(image(sigma, r)) for r in relators)
    }
    assert set(found) == expected and len(found) == len(expected)


def test_a_relator_preserving_swap_that_breaks_a_relation_is_no_symmetry():
    # a <-> b maps heis_ext's commutator into its class, but sends
    # t^-1 a t (a b)^-1 out of every relator's class
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", "heis_ext.grp"))
    swap = (0, 2, 1, 3, -3, -1, -2)
    found = symmetries(group.hom_pres, group.backend.is_identity)
    assert swap not in found
    assert found == ((0, 1, 2, 3, -3, -2, -1), (0, 3, -2, 1, -1, 2, -3))
    # on z2 the same swap is one
    z2 = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", "z2.grp"))
    assert (0, 2, 1, -1, -2) in symmetries(z2.hom_pres, z2.backend.is_identity)


def test_symmetries_check_unmarked_relators_against_the_backend():
    # x = y = 1 in Z: every signed permutation keeps the marked commutator
    # in its class, but only those giving x and y one sign keep the
    # unmarked relator x y^-1 trivial
    backend = FreeAbelianBackend(1, [(1,), (1,)])
    hom = HomPresentation(Presentation(("x", "y"), ((1, 2, -1, -2), (1, -2))), (0,))
    assert symmetries(hom, lambda w: True) == tuple(_signed_permutations(2))
    assert symmetries(hom, backend.is_identity) == ((0, 1, 2, -2, -1), (0, -1, -2, 2, 1), (0, 2, 1, -1, -2), (0, -2, -1, 1, 2))
