"""Finite and homological finite presentations, automorphism lifts, the
extension presentation of a group K extended by a free group, and a
presentation's symmetries: the signed generator permutations that map its
relators onto its relators.

Also owns the line-oriented text format for presentation files::

    backend: free_abelian
    generators: a b
    relator: a b a' b'          # apostrophe suffix = inverse letter
    lift t1: a -> a b ; b -> b
    lift t1 inverse: a -> a b' ; b -> b

Extension files use ``backend: extension`` plus a ``k-backend:`` line naming
the backend of the kernel group; the stable letters are named by the lift
labels and appended after the kernel generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, ParseError
from .words import (
    Word,
    check_letters,
    cyclic_reduce,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    parse_word,
    signed_table,
    substitute,
    word_class,
)


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: named generators plus cyclically reduced relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise DomainError("generator names must be unique")
        for r in self.relators:
            check_letters(r, len(self.generators))
            if not r:
                raise DomainError("relators must be nonempty")
            if not is_cyclically_reduced(r):
                raise DomainError("relators must be cyclically reduced")

    @property
    def rank(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class HomPresentation:
    """Presentation with a marked finite relator subset used to attach 2-cells.

    Here the marked set is all relators; it is kept as an explicit index
    tuple so the attached-cell set is always spelled out.  An empty marked
    set is allowed exactly when the presentation has no relators (free
    groups build a complex with no 2-cells).
    """

    base: Presentation
    marked_relators: tuple[int, ...]

    def __post_init__(self):
        n = len(self.base.relators)
        for i in self.marked_relators:
            if not 0 <= i < n:
                raise DomainError(f"marked relator index {i} out of range")
        if n and not self.marked_relators:
            raise DomainError("marked relator set must be nonempty")

    @classmethod
    def mark_all(cls, base: Presentation) -> "HomPresentation":
        return cls(base, tuple(range(len(base.relators))))

    @property
    def generators(self) -> tuple[str, ...]:
        return self.base.generators

    @property
    def rank(self) -> int:
        return self.base.rank


@dataclass(frozen=True)
class AutLift:
    """Word-level lift of a group automorphism and of its inverse.

    ``forward[j]`` is the chosen word for the image of generator j+1 and
    ``backward[j]`` for the inverse automorphism; images of inverse letters
    are always the formal inverses of these words.  ``images[direction]``
    holds both, indexed by the signed letter: entry x is the image of
    letter x, the negative letters counting from the end.
    """

    forward: tuple[Word, ...]
    backward: tuple[Word, ...]
    stable_letter_index: int = 0
    images: dict[str, tuple[Word, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rank = len(self.forward)
        if len(self.backward) != rank:
            raise DomainError("forward and backward must cover the same generators")
        for w in self.forward + self.backward:
            check_letters(w, rank)
            if not free_reduce(w):
                raise DomainError("lift images must be nontrivial words")
        tables = {"forward": signed_table(self.forward), "backward": signed_table(self.backward)}
        object.__setattr__(self, "images", tables)

    @property
    def rank(self) -> int:
        return len(self.forward)

    @classmethod
    def identity(cls, rank: int, stable_letter_index: int = 0) -> "AutLift":
        gens = tuple((j + 1,) for j in range(rank))
        return cls(gens, gens, stable_letter_index)


def apply_lift(lift: AutLift, direction: str, w: Word) -> Word:
    """Letterwise substitution from the lift's image table, freely reduced
    with one stack as it goes: linear in the length of the image."""
    if direction not in ("forward", "backward"):
        raise DomainError(f"unknown lift direction {direction!r}")
    check_letters(w, lift.rank)
    return substitute(lift.images[direction], w)


def validate_lift(lift: AutLift, k_normal_form) -> None:
    """Check the two-sided inverse property of a lift against a normal-form map.

    The composites are only required to be trivial in the group, not freely,
    so the check runs through the supplied backend normal form.
    """
    for j in range(lift.rank):
        a = (j + 1,)
        fwd_then_bwd = apply_lift(lift, "backward", apply_lift(lift, "forward", a))
        bwd_then_fwd = apply_lift(lift, "forward", apply_lift(lift, "backward", a))
        if k_normal_form(fwd_then_bwd) != k_normal_form(a):
            raise DomainError(
                f"lift inverse check failed on generator index {j + 1} (backward(forward) != id)"
            )
        if k_normal_form(bwd_then_fwd) != k_normal_form(a):
            raise DomainError(
                f"lift inverse check failed on generator index {j + 1} (forward(backward) != id)"
            )


@dataclass(frozen=True)
class ExtensionLayout:
    """Bookkeeping for a presentation built by build_extension_presentation.

    Remembers how many generators/relators came from the kernel and the
    stable letters' names, lift by lift; the conjugation relators follow
    the kernel's, lift-major, and ``conj_relator``/``conj_info`` convert
    between a conjugation relator's index and its (stable letter,
    generator) pair.
    """

    k_rank: int
    stable_names: tuple[str, ...]
    k_relator_count: int

    @property
    def n_stable(self) -> int:
        return len(self.stable_names)

    def stable_letter(self, i: int) -> int:
        """Letter index (1-based) of the i-th stable letter, i in 0..n-1."""
        return self.k_rank + 1 + i

    def stable_index(self, letter: int) -> int:
        """Lift index i (0-based) of the signed stable letter t_i^+-1."""
        return abs(letter) - self.k_rank - 1

    def is_conj_relator(self, rel_index: int) -> bool:
        return rel_index >= self.k_relator_count

    def conj_relator(self, i: int, j: int) -> int:
        """Relator index of t_i^-1 a_j t_i (image of a_j)^-1, i and j 0-based."""
        return self.k_relator_count + i * self.k_rank + j

    def conj_info(self, rel_index: int) -> tuple[int, int]:
        """(stable letter number i, generator index j), both 0-based."""
        return divmod(rel_index - self.k_relator_count, self.k_rank)


def build_extension_presentation(
    k_pres: HomPresentation,
    lifts: list[AutLift] | tuple[AutLift, ...],
    stable_names: tuple[str, ...] | None = None,
    k_normal_form=None,
) -> tuple[HomPresentation, ExtensionLayout]:
    """Presentation of the extension of K by a free group with one stable
    letter per lift: kernel relators plus one conjugation relator
    t_i^-1 a_j t_i (image of a_j)^-1 per stable letter and kernel generator.

    When ``k_normal_form`` is given, each lift is validated against it first.
    """
    rank = k_pres.rank
    n = len(lifts)
    for lift in lifts:
        if lift.rank != rank:
            raise DomainError("lift not defined on every kernel generator")
        if k_normal_form is not None:
            validate_lift(lift, k_normal_form)
    if stable_names is None:
        stable_names = tuple(f"t{i + 1}" for i in range(n))
    if len(stable_names) != n:
        raise DomainError("need one stable letter name per lift")
    generators = k_pres.generators + stable_names
    layout = ExtensionLayout(k_rank=rank, stable_names=stable_names, k_relator_count=len(k_pres.base.relators))
    relators = list(k_pres.base.relators) + [()] * (n * rank)
    for i, lift in enumerate(lifts):
        t = layout.stable_letter(i)
        for j in range(rank):
            image = apply_lift(lift, "forward", (j + 1,))
            relators[layout.conj_relator(i, j)] = cyclic_reduce((-t, j + 1, t) + inverse_word(image))
    hom = HomPresentation.mark_all(Presentation(generators, tuple(relators)))
    return hom, layout


def symmetries(hom_pres: HomPresentation, is_identity) -> tuple[tuple[int, ...], ...]:
    """The signed generator permutations sigma that map every marked
    relator into a marked relator's word class and every relator to the
    identity (``is_identity``, a backend's), each as a letter table: entry x
    is sigma(x), the negative letters counting from the end, as in
    ``words.signed_table``.

    sigma commutes with rotation and inversion and is injective on words,
    so it is injective on word classes; mapping the finite set of the
    marked relators' classes into itself, it maps that set onto itself.
    The search backtracks over the generators' images, +k before -k and k
    ascending, so the identity comes first, and checks each relator once
    its last generator has an image.
    """
    rank, relators = hom_pres.rank, hom_pres.base.relators
    classes = {word_class(relators[i]) for i in hom_pres.marked_relators}
    due: list[list[tuple[Word, bool]]] = [[] for _ in range(rank + 1)]
    for i, r in enumerate(relators):
        due[max(map(abs, r))].append((r, i in hom_pres.marked_relators))
    image = [0] * (rank + 1)  # image[g] = sigma(g), 1 <= g <= rank
    free = set(range(1, rank + 1))
    found: list[tuple[int, ...]] = []

    def fits(r: Word, marked: bool) -> bool:
        w = tuple(image[x] if x > 0 else -image[-x] for x in r)
        return (not marked or word_class(w) in classes) and is_identity(w)

    def extend(g: int):
        if g > rank:
            found.append((0, *image[1:], *(-x for x in reversed(image[1:]))))
            return
        for k in sorted(free):
            free.remove(k)
            for x in (k, -k):
                image[g] = x
                if all(fits(r, marked) for r, marked in due[g]):
                    extend(g + 1)
            free.add(k)

    extend(1)
    return tuple(found)


# ---------------------------------------------------------------------------
# presentation file format


@dataclass
class PresentationFile:
    """Parsed contents of a presentation file (backend wiring not yet built)."""

    backend_kind: str
    k_backend_kind: str | None
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    lifts: tuple[AutLift, ...]
    stable_names: tuple[str, ...]
    gen_vectors: dict[str, tuple[int, ...]]
    gen_words: dict[str, Word]


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_lift_side(text: str, name_index: dict[str, int], lineno: int) -> dict[int, Word]:
    images: dict[int, Word] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "->" not in clause:
            raise ParseError("lift clause needs 'gen -> word'", lineno)
        left, right = clause.split("->", 1)
        gen = left.strip()
        if gen not in name_index:
            raise ParseError(f"unknown generator {gen!r} in lift", lineno)
        images[name_index[gen]] = parse_word(right, name_index)
    return images


def parse_presentation_text(text: str, source: str = "<string>") -> PresentationFile:
    backend_kind = None
    k_backend_kind = None
    generators: tuple[str, ...] | None = None
    name_index: dict[str, int] = {}
    relators: list[Word] = []
    lift_forward: dict[str, dict[int, Word]] = {}
    lift_backward: dict[str, dict[int, Word]] = {}
    stable_order: list[str] = []
    gen_vectors: dict[str, tuple[int, ...]] = {}
    gen_words: dict[str, Word] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' in {source}", lineno, raw.index(line[0]) + 1)
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        try:
            if key == "backend":
                backend_kind = value
            elif key == "k-backend":
                k_backend_kind = value
            elif key == "generators":
                generators = tuple(value.split())
                name_index = {g: i for i, g in enumerate(generators)}
            elif key == "relator":
                if generators is None:
                    raise ParseError("relator before generators", lineno)
                relators.append(cyclic_reduce(parse_word(value, name_index)))
            elif key.startswith("lift "):
                if generators is None:
                    raise ParseError("lift before generators", lineno)
                parts = key.split()
                if len(parts) == 2:
                    name, inverse = parts[1], False
                elif len(parts) == 3 and parts[2] == "inverse":
                    name, inverse = parts[1], True
                else:
                    raise ParseError(f"bad lift header {key!r}", lineno)
                side = lift_backward if inverse else lift_forward
                if name not in stable_order:
                    stable_order.append(name)
                side.setdefault(name, {}).update(_parse_lift_side(value, name_index, lineno))
            elif key.startswith("vector "):
                gen = key.split(None, 1)[1]
                try:
                    gen_vectors[gen] = tuple(int(tok) for tok in value.split())
                except ValueError:
                    raise ParseError(f"vector for {gen!r} needs integer entries", lineno) from None
            elif key.startswith("word "):
                if generators is None:
                    raise ParseError("word image before generators", lineno)
                gen = key.split(None, 1)[1]
                gen_words[gen] = parse_word(value, name_index)
            else:
                raise ParseError(f"unknown token {key!r}", lineno, raw.index(key) + 1)
        except DomainError as exc:
            raise ParseError(str(exc), lineno) from exc

    if backend_kind is None:
        raise ParseError(f"missing 'backend:' line in {source}")
    if generators is None:
        raise ParseError(f"missing 'generators:' line in {source}")

    lifts = []
    for pos, name in enumerate(stable_order):
        fwd = lift_forward.get(name)
        bwd = lift_backward.get(name)
        if fwd is None or bwd is None:
            raise ParseError(f"lift {name!r} needs both a forward and an inverse line")
        if set(fwd) != set(range(len(generators))) or set(bwd) != set(range(len(generators))):
            raise ParseError(f"lift {name!r} must map every generator")
        lifts.append(
            AutLift(
                tuple(fwd[j] for j in range(len(generators))),
                tuple(bwd[j] for j in range(len(generators))),
                stable_letter_index=pos,
            )
        )

    return PresentationFile(
        backend_kind=backend_kind,
        k_backend_kind=k_backend_kind,
        generators=generators,
        relators=tuple(relators),
        lifts=tuple(lifts),
        stable_names=tuple(stable_order),
        gen_vectors=gen_vectors,
        gen_words=gen_words,
    )


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of the input file ``path`` (a ``what``); ParseError
    when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{what} {path!r} is not UTF-8 text") from None


def parse_presentation_file(path: str) -> PresentationFile:
    return parse_presentation_text(read_text(path, "presentation file"), source=path)
