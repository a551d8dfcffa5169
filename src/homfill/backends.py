"""Normal-form oracles: each supported group kind gets a canonical word per
element, which is what makes exact finite Cayley balls possible.

Kinds: free groups (optionally with redundant generators mapping to words),
free abelian groups (optionally with redundant generators mapping to integer
vectors), and split extensions of a kernel group by a free group acting
through word lifts.

Each backend has one normal-form product, ``times(nf, w)``: the normal form
of nf*w for a normal form nf.  A ball's build takes one product per edge,
nf*x for one letter x.  The free abelian product reads nf's exponent vector
off its letter counts and adds w's.  The extension product cuts nf at its
stable-letter suffix, pushes only w's kernel letters across that suffix by
substitution from the lifts' image tables, and takes the kernel product of
nf's kernel part with the pushed word once.  So a product costs time linear
in w and its pushed image, not in nf, and ``normal_form(w)`` is the product
``times((), w)``.  The free backend's product is its normal form of nf + w.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import DomainError, ParseError
from .presentation import AutLift
from .words import Word, check_letters, free_reduce, signed_table, substitute

DEFAULT_VERTEX_BUDGET = 200_000


def vertex_budget_default() -> int:
    env = os.environ.get("HOMFILL_BUDGET_VERTICES")
    if not env:
        return DEFAULT_VERTEX_BUDGET
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"HOMFILL_BUDGET_VERTICES must be an integer, got {env!r}") from None


class GroupBackend:
    """Base interface: idempotent normal forms compatible with concatenation."""

    rank = 0

    def normal_form(self, w) -> Word:
        raise NotImplementedError

    def times(self, nf: Word, w) -> Word:
        """The normal form of nf*w, where ``nf`` is already a normal form of
        this backend; a backend that overrides it checks only the letters
        of ``w``."""
        return self.normal_form(nf + tuple(w))

    def is_identity(self, w) -> bool:
        return self.normal_form(w) == ()


class FreeBackend(GroupBackend):
    """Free group of rank ``base_rank``; extra generators carry fixed words."""

    def __init__(self, rank: int, gen_words: dict[int, Word] | None = None, base_rank: int | None = None):
        self.rank = rank
        self.base_rank = base_rank if base_rank is not None else rank
        if self.base_rank > rank:
            raise DomainError("base_rank exceeds rank")
        images: list[Word] = [(j + 1,) for j in range(rank)]
        for j, w in (gen_words or {}).items():
            if j < self.base_rank:
                raise DomainError("cannot override a base generator image")
            check_letters(w, self.base_rank)
            images[j] = free_reduce(w)
        for j in range(self.base_rank, rank):
            check_letters(images[j], self.base_rank)
        self._images = signed_table(images)

    def normal_form(self, w) -> Word:
        check_letters(tuple(w), self.rank)
        return substitute(self._images, w)


class FreeAbelianBackend(GroupBackend):
    """Free abelian group of dimension ``dim``; generator i maps to an integer
    vector, the first ``dim`` generators must map to the standard basis so a
    canonical word can be read back off the exponent vector."""

    def __init__(self, dim: int, vectors: list[tuple[int, ...]] | None = None):
        self.dim = dim
        if vectors is None:
            vectors = [tuple(1 if k == i else 0 for k in range(dim)) for i in range(dim)]
        self.vectors = [tuple(v) for v in vectors]
        self.rank = len(self.vectors)
        if self.rank < dim:
            raise DomainError("need at least dim generators")
        for i in range(dim):
            expected = tuple(1 if k == i else 0 for k in range(dim))
            if self.vectors[i] != expected:
                raise DomainError("first dim generators must be the standard basis")
        for v in self.vectors:
            if len(v) != dim:
                raise DomainError("generator vector has wrong dimension")

    def vector_of(self, w) -> tuple[int, ...]:
        acc = [0] * self.dim
        for x in w:
            v = self.vectors[abs(x) - 1]
            s = 1 if x > 0 else -1
            for k in range(self.dim):
                acc[k] += s * v[k]
        return tuple(acc)

    def times(self, nf: Word, w) -> Word:
        """nf's exponent vector is its letter counts, as a normal form holds
        only basis letters, each in one sign."""
        check_letters(tuple(w), self.rank)
        out: list[int] = []
        for k, e in enumerate(self.vector_of(w)):
            e += nf.count(k + 1) - nf.count(-k - 1)
            out += [k + 1 if e > 0 else -k - 1] * abs(e)
        return tuple(out)

    def normal_form(self, w) -> Word:
        return self.times((), w)

    def is_identity(self, w) -> bool:
        """Whether w's exponent vector is zero: read off the vector, without
        the normal form, which spells each exponent out letter by letter."""
        check_letters(tuple(w), self.rank)
        return not any(self.vector_of(w))


@dataclass(frozen=True)
class ExtensionNormalForm:
    """Split-extension pair: kernel part in K-normal form, reduced t-word."""

    k_part: Word
    t_part: Word


class ExtensionBackend(GroupBackend):
    """Split extension of a kernel backend by a free group.

    Elements are written k * w with w a reduced word in the stable letters;
    stable letters are pushed rightward with the rewriting
    t^-1 a t -> forward image, t a t^-1 -> backward image."""

    def __init__(self, k_backend: GroupBackend, lifts: tuple[AutLift, ...] | list[AutLift]):
        self.k_backend = k_backend
        self.lifts = tuple(lifts)
        self.k_rank = k_backend.rank
        self.n_stable = len(self.lifts)
        self.rank = self.k_rank + self.n_stable
        for lift in self.lifts:
            if lift.rank != self.k_rank:
                raise DomainError("lift rank does not match kernel backend")

    def _conjugate_through(self, k_word: Word, t_letter: int) -> Word:
        """Image of the kernel word under conjugation w -> t^-1 w t for the
        signed stable letter ``t_letter`` (t-part letter being crossed):
        ``apply_lift`` without its checks, as ``split`` checks every letter."""
        lift = self.lifts[abs(t_letter) - self.k_rank - 1]
        return substitute(lift.images["forward" if t_letter > 0 else "backward"], k_word)

    def split(self, w) -> ExtensionNormalForm:
        """The pair (K-normal form, reduced t-word) of ``w``."""
        return ExtensionNormalForm(*self._product((), w))

    def _product(self, nf: Word, w) -> tuple[Word, Word]:
        """The K-normal form and the reduced t-word of nf*w for a normal
        form ``nf``.

        nf is cut at its stable-letter suffix, which starts the t-word.
        Each kernel letter of w is pushed left across the t-letters before
        it and its image appended to one kernel word, whose product with
        nf's kernel part is taken once at the end (kernel normal forms are
        canonical and compatible with concatenation, so nf(nf(u) v) =
        nf(u v)): the cost is one kernel product of the whole pushed word,
        not one normal form per kernel letter, and nf is not re-read."""
        check_letters(tuple(w), self.rank)
        cut = stable_suffix_start(nf, self.k_rank)
        k_letters: list[int] = []
        t_word = list(nf[cut:])
        for x in w:
            if abs(x) <= self.k_rank:
                pushed = (x,)
                for t_letter in reversed(t_word):
                    pushed = self._conjugate_through(pushed, -t_letter)
                k_letters += pushed
            else:
                if t_word and t_word[-1] == -x:
                    t_word.pop()
                else:
                    t_word.append(x)
        return self.k_backend.times(nf[:cut], k_letters), tuple(t_word)

    def times(self, nf: Word, w) -> Word:
        k_part, t_part = self._product(nf, w)
        return k_part + t_part

    def normal_form(self, w) -> Word:
        return self.times((), w)


def stable_suffix_start(nf: Word, k_rank: int) -> int:
    """Where the stable-letter suffix of a normal form starts: an extension
    normal form is its kernel part, letters up to ``k_rank``, then its
    t-word, which is the vertex's coset label."""
    cut = len(nf)
    while cut and abs(nf[cut - 1]) > k_rank:
        cut -= 1
    return cut


def equal_in_group(backend: GroupBackend, u, v) -> bool:
    return backend.normal_form(u) == backend.normal_form(v)


def letter_order(rank: int):
    """Deterministic successor order used by every breadth-first generation."""
    for j in range(rank):
        yield j + 1
        yield -(j + 1)

