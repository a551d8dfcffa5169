import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homfill.errors import DomainError
from homfill.words import (
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    is_reduced,
    parse_word,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=30).map(tuple)


def naive_reduce(w):
    # repeated-scan oracle
    w = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def test_free_reduce_examples():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce(()) == ()
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)


def test_cyclic_reduce_examples():
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2)) == (1, 2)
    assert cyclic_reduce((-2, 1, 1, 2)) == (1, 1)


@given(words)
def test_free_reduce_matches_oracle(w):
    assert free_reduce(w) == naive_reduce(w)


@given(words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert is_reduced(r)


@given(words)
def test_reduce_of_inverse_concat_is_empty(w):
    assert free_reduce(w + inverse_word(w)) == ()


@given(words)
def test_cyclic_reduce_cyclically_reduced(w):
    assert is_cyclically_reduced(cyclic_reduce(w))


def test_parse_and_format_roundtrip():
    names = {"a": 0, "b": 1, "t1": 2}
    w = parse_word("a b' t1 a'", names)
    assert w == (1, -2, 3, -1)
    assert format_word(w, ("a", "b", "t1")) == "a b' t1 a'"


def test_parse_uppercase_shorthand():
    names = {"a": 0, "b": 1}
    assert parse_word("a b A B", names) == (1, 2, -1, -2)


def test_parse_unknown_generator():
    with pytest.raises(DomainError):
        parse_word("a x", {"a": 0})


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(st.sampled_from(("a", "b", "c", "t1", "B", "x2")), unique=True, max_size=4),
    text=st.text(alphabet=st.sampled_from("abcABCt12x' \t\n#é:-"), max_size=24) | st.text(max_size=24),
)
def test_parse_word_raises_only_domain_errors(names, text):
    """Only DomainError escapes, and what parses prints back to itself."""
    name_index = {g: i for i, g in enumerate(names)}
    try:
        w = parse_word(text, name_index)
    except DomainError:
        return
    assert all(0 < abs(x) <= len(names) for x in w)
    assert parse_word(format_word(w, names), name_index) == w
