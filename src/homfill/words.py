"""Free-group words over a finite generator table.

A word is a tuple of nonzero signed indices: letter ``+k`` is the k-th
generator (1-based), ``-k`` its formal inverse.  Keeping inverses as signs
rather than separate symbols makes free reduction and boundary orientation
uniform everywhere downstream.
"""

from __future__ import annotations

from .errors import DomainError

Word = tuple[int, ...]


def check_letters(w: Word, rank: int) -> None:
    """Raise DomainError unless every letter references a generator < rank+1."""
    for x in w:
        if x == 0 or abs(x) > rank:
            raise DomainError(f"letter {x} outside generator range 1..{rank}")


def inverse_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w) -> Word:
    """Freely reduce ``w`` (cancel adjacent x, x^-1 pairs) with one stack pass."""
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def signed_table(images) -> tuple[Word, ...]:
    """The image table of a letter map given on generators: entry x is the
    image of letter x, the negative letters counting from the end (their
    images are the formal inverses)."""
    return ((), *images, *(inverse_word(w) for w in reversed(images)))


def substitute(table: tuple[Word, ...], w) -> Word:
    """Replace each letter x of ``w`` by ``table[x]`` (a ``signed_table``),
    freely reducing with one stack as it goes: linear in the image's length."""
    out: list[int] = []
    for x in w:
        for y in table[x]:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def word_class(w: Word) -> Word:
    """The key of a closed word's cyclic-word class: its least rotation over
    the word and its inverse.  Two identity loops whose words share a key
    are translates of each other, up to sign."""
    return min((f[i:] + f[:i] for f in (w, inverse_word(w)) for i in range(len(f))), default=())


def is_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def cyclic_reduce(w) -> Word:
    """Freely reduce, then strip inverse first/last pairs across the seam."""
    v = list(free_reduce(w))
    while len(v) >= 2 and v[0] == -v[-1]:
        v = v[1:-1]
    return tuple(v)


def is_cyclically_reduced(w: Word) -> bool:
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def format_word(w: Word, names: tuple[str, ...] | list[str]) -> str:
    """Render a word with apostrophe-suffixed inverses, e.g. "a b a' b'"."""
    parts = []
    for x in w:
        name = names[abs(x) - 1]
        parts.append(name if x > 0 else name + "'")
    return " ".join(parts)


def parse_letter(token: str, name_index: dict[str, int]) -> int:
    inverse = token.endswith("'")
    name = token[:-1] if inverse else token
    if name not in name_index:
        # single-uppercase shorthand for the inverse of a lowercase generator
        if not inverse and token.isalpha() and token.isupper() and token.lower() in name_index:
            return -(name_index[token.lower()] + 1)
        raise DomainError(f"unknown generator {token!r}")
    k = name_index[name] + 1
    return -k if inverse else k


def parse_word(text: str, name_index: dict[str, int]) -> Word:
    """Parse a whitespace-separated word; empty string is the empty word."""
    return tuple(parse_letter(tok, name_index) for tok in text.split())
