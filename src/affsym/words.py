"""Words in the generators s_0, ..., s_{n-1} and cyclically decreasing elements.

A word evaluates to the product of its simple reflections read left to
right.  A word is reduced when its length equals the length of its
evaluation; reducedness is tested incrementally, one ascent check per
letter.  Strong exchange and unique insertion are lookups in a word's
reflection sequence.

A word is cyclically decreasing when its letters are distinct and,
whenever i and i+1 (mod n) both occur, i+1 occurs first.  Such words
with letter set A are exactly the shuffles of the decreasing words of
the maximal cyclic intervals of A, and all evaluate to one element w(A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BadLetterError,
    FormatError,
    FullSetError,
    InvariantError,
    MarkDeletionNotReducedError,
    NotACoverError,
    NotReducedError,
    WordIsReducedError,
)
from .group import AffinePermutation, Reflection, canonical_reduced_word, cover_reflection, identity


@dataclass(frozen=True)
class Word:
    """A sequence of residues in [0, n-1]."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise BadLetterError(f"words need period n >= 2, got {self.n}")
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        for a in self.letters:
            if not 0 <= a < self.n:
                raise BadLetterError(f"letter {a} not in [0, {self.n - 1}]")

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i: int) -> int:
        return self.letters[i]

    def __str__(self) -> str:
        return format_letters(self.n, self.letters)

    def delete(self, i: int) -> "Word":
        """Word with the letter at 1-based position i removed."""
        return Word(self.n, self.letters[: i - 1] + self.letters[i:])

    def replace(self, i: int, letter: int) -> "Word":
        """Word with the letter at 1-based position i replaced."""
        return Word(self.n, self.letters[: i - 1] + (letter,) + self.letters[i:])


def format_letters(n: int, letters) -> str:
    if n <= 10:
        return "".join(str(a) for a in letters)
    return ",".join(str(a) for a in letters)


def parse_word(n: int, text: str) -> Word:
    """Parse the digit-string (n <= 10) or comma-separated word format."""
    text = text.strip()
    if text == "":
        return Word(n, ())
    try:
        if "," in text:
            letters = tuple(int(part) for part in text.split(","))
        elif n <= 10:
            letters = tuple(int(ch) for ch in text)
        else:
            raise FormatError(f"period {n} words must be comma-separated: {text!r}")
    except ValueError as exc:
        raise FormatError(f"bad word text {text!r}") from exc
    return Word(n, letters)


def evaluate(a: Word) -> AffinePermutation:
    """Left-to-right product of the simple reflections of a.

    >>> evaluate(parse_word(4, "310")).window
    (-1, 1, 4, 6)
    """
    w = identity(a.n)
    for i in a.letters:
        w = w.times_simple(i)
    return w


def is_reduced(a: Word) -> bool:
    """True iff every prefix increases length, i.e. l(evaluate(a)) = len(a)."""
    w = identity(a.n)
    for i in a.letters:
        if w(i) > w(i + 1):
            return False
        w = w.times_simple(i)
    return True


@lru_cache(maxsize=None)
def _reduced_words(w: AffinePermutation) -> tuple[tuple[int, ...], ...]:
    if w.is_identity():
        return ((),)
    out = []
    for i in w.right_descents():
        for prefix in _reduced_words(w.times_simple(i)):
            out.append(prefix + (i,))
    return tuple(sorted(out))


def reduced_words(w: AffinePermutation) -> list[Word]:
    """All reduced words of w, lexicographically sorted."""
    return [Word(w.n, letters) for letters in _reduced_words(w)]


def count_reduced_words(w: AffinePermutation) -> int:
    return len(_reduced_words(w))


# ---------------------------------------------------------------------------
# Reflection sequences: strong exchange and unique insertion


def reflection_sequence(a: Word) -> tuple[tuple[int, int], ...]:
    """Per position j, (p_j, q_j) = (y^-1(a_j), y^-1(a_j + 1)), y the letters after j.

    Deleting letter j gives evaluate(a) * t(p_j, q_j).  The word is
    reduced iff p_j < q_j for every j, and then its reflections differ.

    >>> reflection_sequence(parse_word(3, "121"))
    ((2, 3), (1, 3), (1, 2))
    """
    y_inv = identity(a.n)
    out = []
    for letter in reversed(a.letters):
        out.append((y_inv(letter), y_inv(letter + 1)))
        y_inv = y_inv.times_simple(letter)
    return tuple(reversed(out))


def sequence_is_reduced(sequence) -> bool:
    return all(p < q for p, q in sequence)


def partner_index(a: Word, sequence, i: int) -> int:
    """The unique j != i with i's reflection in a's sequence; deleting
    either letter gives the same element (unique insertion)."""
    t = Reflection(a.n, *sequence[i - 1])
    hits = [j for j, pair in enumerate(sequence, 1) if j != i and Reflection(a.n, *pair) == t]
    if len(hits) != 1:
        raise InvariantError(f"insertion uniqueness failed for {a} at {i}")
    return hits[0]


def marked_index(a: Word, v: AffinePermutation) -> int:
    """The unique 1-based i with a_1 .. ^a_i .. a_l a reduced word for v.

    Requires a reduced and evaluate(a) = v * t a Bruhat cover of v; i is
    the only position with reflection t in reflection_sequence(a).
    """
    if not is_reduced(a):
        raise NotReducedError(f"word {a} is not reduced")
    t = cover_reflection(v, evaluate(a))
    if t is None:
        raise NotACoverError(f"{a} does not evaluate to a cover of {list(v.window)}")
    hits = [j for j, pair in enumerate(reflection_sequence(a), 1) if Reflection(a.n, *pair) == t]
    if len(hits) != 1:
        raise InvariantError(f"strong exchange uniqueness failed for {a}")
    return hits[0]


def insertion_index(a: Word, i: int) -> int:
    """The unique j != i whose deletion from the non-reduced a is reduced.

    j is the partner of i in reflection_sequence(a): the other position
    with i's reflection, so both deletions evaluate to the same element.
    """
    if is_reduced(a):
        raise WordIsReducedError(f"word {a} is reduced")
    if not is_reduced(a.delete(i)):
        raise MarkDeletionNotReducedError(f"deleting position {i} of {a} is not reduced")
    j = partner_index(a, reflection_sequence(a), i)
    if evaluate(a.delete(j)) != evaluate(a.delete(i)):
        raise InvariantError(f"deleting position {j} or {i} of {a} gives different elements")
    return j


# ---------------------------------------------------------------------------
# Cyclically decreasing words and elements


def is_cyclically_decreasing(a: Word) -> bool:
    """Distinct letters; i+1 (mod n) occurs before i whenever both occur."""
    position = {}
    for pos, letter in enumerate(a.letters):
        if letter in position:
            return False
        position[letter] = pos
    for letter, pos in position.items():
        succ = (letter + 1) % a.n
        if succ in position and position[succ] > pos:
            return False
    return True


@dataclass(frozen=True)
class CyclicSubset:
    """A proper subset of Z/nZ, stored as a sorted tuple of residues."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted({int(m) for m in self.members}))
        for m in members:
            if not 0 <= m < self.n:
                raise BadLetterError(f"residue {m} not in [0, {self.n - 1}]")
        if len(members) >= self.n:
            raise FullSetError(f"subset of Z/{self.n}Z must be proper")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, residue: int) -> bool:
        return residue % self.n in self.members

    def __str__(self) -> str:
        return format_letters(self.n, self.members)


def maximal_cyclic_intervals(subset: CyclicSubset) -> list[tuple[int, ...]]:
    """The maximal runs {i, i+1, ..., i+j} mod n, sorted by start descending."""
    n, members = subset.n, set(subset.members)
    intervals = []
    for start in sorted(members):
        if (start - 1) % n in members:
            continue
        run = [start]
        while (run[-1] + 1) % n in members:
            run.append((run[-1] + 1) % n)
        intervals.append(tuple(run))
    intervals.sort(key=lambda run: run[0], reverse=True)
    return intervals


def canonical_cd_word(subset: CyclicSubset) -> Word:
    """Concatenation of the decreasing interval words, starts descending.

    >>> str(canonical_cd_word(CyclicSubset(5, (0, 2, 3))))
    '320'
    """
    letters = []
    for run in maximal_cyclic_intervals(subset):
        letters.extend(reversed(run))
    return Word(subset.n, tuple(letters))


def cd_element(subset: CyclicSubset) -> AffinePermutation:
    """The cyclically decreasing element w(A); its length is |A|."""
    return _cd_element(subset.n, subset.members)


@lru_cache(maxsize=None)
def _cd_element(n: int, members: tuple[int, ...]) -> AffinePermutation:
    return evaluate(canonical_cd_word(CyclicSubset(n, members)))


def cd_subset(w: AffinePermutation) -> CyclicSubset | None:
    """The letter set of w's reduced words if w is cyclically decreasing.

    Every reduced word of a cyclically decreasing element is cyclically
    decreasing, so testing one word decides membership.
    """
    if w.length() >= w.n:
        return None
    word = Word(w.n, canonical_reduced_word(w))
    if not is_cyclically_decreasing(word):
        return None
    return CyclicSubset(w.n, word.letters)


def cyclically_decreasing_elements(n: int) -> list[AffinePermutation]:
    """All 2^n - 1 cyclically decreasing elements, one per proper subset."""
    out = []
    for k in range(n):
        for members in itertools.combinations(range(n), k):
            out.append(_cd_element(n, members))
    return out
