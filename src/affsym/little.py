"""The affine Little bijection, word level and factor level.

A v-marked word is a word with one distinguished letter whose deletion
is a reduced word for v.  The affine Little graph puts one out-edge on
each v-marked word: decrement the marked letter mod n and, when the
result is not reduced, re-mark at the other position of its reflection
sequence with the mark's reflection (the unique other deletable one).
Iterating until the word is reduced again defines phi, a bijection of
the reduced v-marked words; restricted to reduced words of right
r-covers of v it lands in the reduced words of left r-covers.

The same walk runs on tuples of cyclically decreasing factors: the
marked factor takes one set-level cover step (slide the marked run down
by one) and the mark moves between factors through the unique-insertion
lemma, giving a bijection of factor tuples with fixed length profile.

Every v of an operation is passed explicitly; marked words do not store
it, since one word can be marked for different v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CycleOverflowError,
    FormatError,
    InvalidDecompositionError,
    InvariantError,
    MarkAbsentError,
    NotLeftRCoverError,
    NotReducedError,
    NotRightRCoverError,
    NotVMarkedError,
)
from .group import AffinePermutation, Reflection, cover_reflection, identity, is_r_cover
from .words import (
    CyclicSubset,
    Word,
    canonical_cd_word,
    cd_element,
    count_reduced_words,
    evaluate,
    is_reduced,
    marked_index,
    parse_word,
    partner_index,
    reduced_words,
    reflection_sequence,
    sequence_is_reduced,
)


@dataclass(frozen=True)
class MarkedWord:
    """A word with a distinguished 1-based position."""

    word: Word
    mark: int

    def __post_init__(self):
        if not 1 <= self.mark <= len(self.word):
            raise FormatError(f"mark {self.mark} outside word of length {len(self.word)}")

    def __str__(self) -> str:
        return f"{self.word}@{self.mark}"

    @property
    def marked_letter(self) -> int:
        return self.word[self.mark - 1]


def parse_marked_word(n: int, text: str) -> MarkedWord:
    """Parse the `word@mark` format, mark 1-based."""
    word_text, sep, mark_text = text.partition("@")
    if not sep:
        raise FormatError(f"marked word needs an @mark suffix: {text!r}")
    try:
        mark = int(mark_text)
    except ValueError as exc:
        raise FormatError(f"bad mark in {text!r}") from exc
    return MarkedWord(parse_word(n, word_text), mark)


def is_v_marked(v: AffinePermutation, m: MarkedWord) -> bool:
    deletion = m.word.delete(m.mark)
    return is_reduced(deletion) and evaluate(deletion) == v


def _require_v_marked(v: AffinePermutation, m: MarkedWord) -> None:
    if not is_v_marked(v, m):
        raise NotVMarkedError(f"{m} is not v-marked for v = {list(v.window)}")


@dataclass(frozen=True)
class PQPair:
    """The reflection data (p, q) of a marked word, with evaluate = v * t_{p,q}.

    Pairs related by a simultaneous shift (p + kn, q + kn) are identified;
    the stored representative has min(p, q) in [1, n].
    """

    n: int
    p: int
    q: int

    def __post_init__(self):
        if (self.p - self.q) % self.n == 0:
            raise FormatError(f"degenerate pair ({self.p},{self.q}) mod {self.n}")
        # the shift that makes t_{p,q} canonical also fixes the pair
        shift = Reflection(self.n, self.p, self.q).a - min(self.p, self.q)
        object.__setattr__(self, "p", self.p + shift)
        object.__setattr__(self, "q", self.q + shift)

    def reflection(self) -> Reflection:
        return Reflection(self.n, self.p, self.q)


def pq(v: AffinePermutation, m: MarkedWord) -> PQPair:
    """The mark's pair in reflection_sequence: p = y^-1(t), q = y^-1(t+1)
    for t the marked letter, y the letters after it.

    The full word evaluates to v * t_{p,q}; p < q exactly when it is reduced.
    """
    _require_v_marked(v, m)
    p, q = reflection_sequence(m.word)[m.mark - 1]
    return PQPair(m.word.n, p, q)


# ---------------------------------------------------------------------------
# The affine Little graph


def _forward(m: MarkedWord, _sequence) -> tuple[MarkedWord, tuple]:
    word = m.word.replace(m.mark, (m.marked_letter - 1) % m.word.n)
    sequence = reflection_sequence(word)
    mark = m.mark if sequence_is_reduced(sequence) else partner_index(word, sequence, m.mark)
    return MarkedWord(word, mark), sequence


def _backward(m: MarkedWord, sequence) -> tuple[MarkedWord, tuple]:
    k = m.mark if sequence_is_reduced(sequence) else partner_index(m.word, sequence, m.mark)
    word = m.word.replace(k, (m.word[k - 1] + 1) % m.word.n)
    return MarkedWord(word, k), reflection_sequence(word)


def forward_step(v: AffinePermutation, m: MarkedWord) -> MarkedWord:
    """The unique out-edge: decrement the marked letter mod n and re-mark.

    The mark stays put when the new word is reduced and otherwise moves
    to the unique other position whose deletion is a reduced word for v.
    """
    _require_v_marked(v, m)
    return _forward(m, None)[0]


def backward_step(v: AffinePermutation, m: MarkedWord) -> MarkedWord:
    """The unique in-edge: re-mark first, then increment that letter mod n."""
    _require_v_marked(v, m)
    return _backward(m, reflection_sequence(m.word))[0]


def _walk(v: AffinePermutation, m: MarkedWord, step, name: str):
    """Step from the reduced v-marked m to the next reduced word.

    A step maps a vertex and its word's reflection sequence to the next
    ones.  A re-mark has the mark's reflection, so only m needs checking.
    """
    _require_v_marked(v, m)
    sequence = reflection_sequence(m.word)
    if not sequence_is_reduced(sequence):
        raise NotReducedError(f"{m} is not a reduced marked word")
    path = []
    current = m
    # every v-marked word of this length inserts one of n letters at one
    # of len(m.word) positions into some reduced word of v
    for _ in range(v.n * len(m.word) * count_reduced_words(v) + 1):
        current, sequence = step(current, sequence)
        path.append(current)
        if sequence_is_reduced(sequence):
            return current, path
    raise CycleOverflowError(f"{name} cycle through {m} exceeded its cap")


def phi(v: AffinePermutation, m: MarkedWord) -> tuple[MarkedWord, list[MarkedWord]]:
    """First reduced v-marked word after m on its cycle, plus the path.

    The path lists every vertex visited after m, non-reduced
    intermediates included, ending with the returned vertex.  Cycles of
    the graph are finite and never loops, which the iteration cap turns
    into a runtime check.
    """
    return _walk(v, m, _forward, "phi")


def phi_inverse(v: AffinePermutation, m: MarkedWord) -> tuple[MarkedWord, list[MarkedWord]]:
    """Inverse of phi, by iterating backward steps; same path convention."""
    return _walk(v, m, _backward, "phi inverse")


def _require_r_cover(v: AffinePermutation, r: int, w: AffinePermutation, side: str) -> None:
    t = cover_reflection(v, w)
    if t is None or not is_r_cover(t, r, side):
        error = NotRightRCoverError if side == "right" else NotLeftRCoverError
        raise error(f"{list(w.window)} is not a {side} {r}-cover of {list(v.window)}")


def phi_r(v: AffinePermutation, r: int, a: Word) -> tuple[AffinePermutation, Word]:
    """Apply phi to a reduced word of a right r-cover of v.

    Marks a by strong exchange, runs phi, and returns the evaluated
    element together with its reduced word; the element is a left
    r-cover of v.
    """
    if not is_reduced(a):
        raise NotReducedError(f"word {a} is not reduced")
    _require_r_cover(v, r, evaluate(a), "right")
    out, _ = phi(v, MarkedWord(a, marked_index(a, v)))
    return evaluate(out.word), out.word


def little_trace(v: AffinePermutation, m: MarkedWord) -> list[tuple[MarkedWord, PQPair]]:
    """The phi trace rows, input first, each with its (p, q) pair."""
    out, path = phi(v, m)
    return [(vertex, pq(v, vertex)) for vertex in [m] + path]


def v_marked_words(v: AffinePermutation) -> list[MarkedWord]:
    """All v-marked words of length l(v) + 1, in deterministic order."""
    out = []
    for b in reduced_words(v):
        for mark in range(1, len(b) + 2):
            for letter in range(v.n):
                letters = b.letters[: mark - 1] + (letter,) + b.letters[mark - 1 :]
                out.append(MarkedWord(Word(v.n, letters), mark))
    return out


# ---------------------------------------------------------------------------
# Set-level step on cyclically decreasing covers


@dataclass(frozen=True)
class MarkedSubset:
    """A proper subset of Z/nZ with one distinguished member."""

    subset: CyclicSubset
    mark: int

    def __post_init__(self):
        if self.mark not in self.subset:
            raise MarkAbsentError(f"mark {self.mark} not in subset {self.subset}")


def _slide(ms: MarkedSubset, direction: int) -> MarkedSubset:
    n, members = ms.subset.n, set(ms.subset.members)
    i = ms.mark % n
    run = 1
    while run < n and (i + direction * run) % n in members:
        run += 1
    new_mark = (i + direction * run) % n
    if new_mark in members:
        raise InvariantError("run maximality violated")
    new_members = (members - {i}) | {new_mark}
    return MarkedSubset(CyclicSubset(n, tuple(new_members)), new_mark)


def cd_cover_step(ms: MarkedSubset) -> MarkedSubset:
    """Slide the marked run down: replace mark i by i-j-1 for maximal j
    with {i, i-1, ..., i-j} inside the subset.

    This is the factor-level forward step; it is independent of any
    reduced-word choice.
    """
    return _slide(ms, -1)


def cd_cover_step_back(ms: MarkedSubset) -> MarkedSubset:
    """Inverse slide: replace mark i by i+k+1 for maximal k with
    {i, i+1, ..., i+k} inside the subset."""
    return _slide(ms, 1)


# ---------------------------------------------------------------------------
# Factor tuples (alpha-decompositions) and the generalized algorithm


@dataclass(frozen=True)
class AlphaDecomposition:
    """A length-additive tuple of cyclically decreasing factors."""

    n: int
    factors: tuple[CyclicSubset, ...]

    def __post_init__(self):
        w = identity(self.n)
        for factor in self.factors:
            if factor.n != self.n:
                raise InvalidDecompositionError("factors with mixed periods")
            w = w * cd_element(factor)
        if w.length() != sum(len(f) for f in self.factors):
            raise InvalidDecompositionError(f"factor lengths do not add: {self}")
        object.__setattr__(self, "_product", w)

    @property
    def alpha(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def product(self) -> AffinePermutation:
        return self._product

    def __str__(self) -> str:
        return "/".join(str(f) for f in self.factors)


def parse_decomposition(n: int, text: str) -> AlphaDecomposition:
    """Parse slash-separated factor subsets, e.g. `34/02/1`."""
    factors = []
    for part in text.strip().split("/"):
        factors.append(CyclicSubset(n, parse_word(n, part).letters))
    return AlphaDecomposition(n, tuple(factors))


def _concat_word(n: int, factors) -> tuple[Word, list[tuple[int, int]]]:
    """The concatenated canonical factor words, and the (factor index,
    letter) at each of its positions."""
    spots = [(f, a) for f, factor in enumerate(factors) for a in canonical_cd_word(factor).letters]
    return Word(n, tuple(a for _, a in spots)), spots


def _generalized_walk(v, factors, step) -> tuple[CyclicSubset, ...]:
    factors = list(factors)
    word, spots = _concat_word(v.n, factors)
    f, letter = spots[marked_index(word, v) - 1]
    states = math.prod(math.comb(v.n, len(factor)) for factor in factors)
    for _ in range(states * max(1, len(word)) * v.n + 1):
        moved = step(MarkedSubset(factors[f], letter))
        factors[f] = moved.subset
        word, spots = _concat_word(v.n, factors)
        sequence = reflection_sequence(word)
        if sequence_is_reduced(sequence):
            return tuple(factors)
        position = spots.index((f, moved.mark)) + 1
        g, letter = spots[partner_index(word, sequence, position) - 1]
        if g == f:
            raise InvariantError("re-mark landed in the moved factor")
        f = g
    raise CycleOverflowError("generalized walk exceeded its cap")


def _factor_little(v, r, d: AlphaDecomposition, side: str, step) -> AlphaDecomposition:
    _require_r_cover(v, r, d.product(), side)
    out = AlphaDecomposition(d.n, _generalized_walk(v, d.factors, step))
    if out.alpha != d.alpha:
        raise InvariantError(f"length profile changed from {d} to {out}")
    return out


def generalized_little(
    v: AffinePermutation, r: int, d: AlphaDecomposition
) -> AlphaDecomposition:
    """Factor-level Little step: maps a factor tuple of a right r-cover of
    v to one of a left r-cover, preserving the length profile alpha."""
    return _factor_little(v, r, d, "right", cd_cover_step)


def inverse_generalized_little(
    v: AffinePermutation, r: int, d: AlphaDecomposition
) -> AlphaDecomposition:
    """Inverse factor-level step, from left r-covers back to right r-covers."""
    return _factor_little(v, r, d, "left", cd_cover_step_back)
