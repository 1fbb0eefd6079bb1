"""The affine Little bijection, word level and factor level.

A v-marked word is a word with one distinguished letter whose deletion
is a reduced word for v.  The affine Little graph puts one out-edge on
each v-marked word: decrement the marked letter mod n and, when the
result is not reduced, re-mark at the other position of its reflection
sequence with the mark's reflection (the unique other deletable one).
Iterating until the word is reduced again defines phi, a bijection of
the reduced v-marked words; restricted to reduced words of right
r-covers of v it lands in the reduced words of left r-covers.

The same walk runs on tuples of cyclically decreasing factors
(`words.AlphaDecomposition`): the marked factor takes one set-level
cover step (slide the marked run down by one) and the mark moves
between factors through the unique-insertion lemma, giving a bijection
of factor tuples with fixed length profile.  As the profile is fixed,
the walk keeps one word in which each factor owns a fixed block of
positions, and a step rewrites only that block.

Both walks run on one integer kernel, `_walk`: factors are n-bit masks
and the word is a list of ints.  A marked word is the tuple of its
letters as one-letter factors, since sliding {i} down by one is
decrementing i.  A step's block move (the slid mask, its canonical
letters and the offset of the moved letter) is memoized per (n, mask,
letter, direction) in `_move`, at most 2·n·2^n entries for each n.  A
walk is told its factors' sizes by its caller, and a step reads the
word's `word_record` (sequence, reducedness, the key of each position's
reflection) through a table its caller passes.  A call records each
word it reads once, so a record cache, `functools.cache(word_record)`, is
made only where a word is read twice: the bijection sweep's per-v table
(a round trip ends on its start), `phi_r` (its start mark, then its
walk) and `little_trace` (the pairs, read after the walk); every other
walk reads `word_record` itself.  Public functions validate their input
once, at entry.  `walks` is the one entry to the factor walk for callers
that hold covers by construction: it walks each of a list of starts once
per direction, each walk from where the last ended, so a round trip is
the directions (True, False).

Every v of an operation is passed explicitly; marked words do not store
it, since one word can be marked for different v.
"""

import functools
import itertools
import math

from .errors import (
    CycleOverflowError,
    FormatError,
    InvariantError,
    MarkAbsentError,
    NotLeftRCoverError,
    NotReducedError,
    NotRightRCoverError,
    NotVMarkedError,
)
from .group import (
    AffinePermutation,
    Reflection,
    Value,
    cover_reflection,
    is_r_cover,
    letters_window,
    reflection_pair,
)
from .words import (
    AlphaDecomposition,
    CyclicSubset,
    Word,
    cd_letters,
    evaluate,
    mask_members,
    parse_word,
    partner_index,
    reduced_words,
    reflection_index,
    reflection_key,
    subset_mask,
    word_record,
)


class MarkedWord(Value):
    """A word with a distinguished 1-based position."""

    __slots__ = ("word", "mark")

    def __init__(self, word: Word, mark: int):
        if not 1 <= mark <= len(word):
            raise FormatError(f"mark {mark} outside word of length {len(word)}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "mark", mark)

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
    """A word that evaluates to v is reduced exactly when it has l(v)
    letters, so the deletion's length and window decide."""
    letters = m.word.letters
    deletion = letters[: m.mark - 1] + letters[m.mark :]
    return len(deletion) == v.length() and letters_window(v.n, deletion) == v.window


def _require_v_marked(v: AffinePermutation, m: MarkedWord) -> None:
    if not is_v_marked(v, m):
        raise NotVMarkedError(f"{m} is not v-marked for v = {list(v.window)}")


class PQPair(Value):
    """The reflection data (p, q) of a marked word, with evaluate = v * t_{p,q}.

    Pairs related by a simultaneous shift (p + kn, q + kn) are identified;
    the stored representative has min(p, q) in [1, n].
    """

    __slots__ = ("n", "p", "q")

    def __init__(self, n: int, p: int, q: int):
        if (p - q) % n == 0:
            raise FormatError(f"degenerate pair ({p},{q}) mod {n}")
        # the shift that makes t_{p,q} canonical also fixes the pair
        shift = reflection_pair(n, p, q)[0] - min(p, q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p + shift)
        object.__setattr__(self, "q", q + shift)

    def reflection(self) -> Reflection:
        return Reflection(self.n, self.p, self.q)


def pq(v: AffinePermutation, m: MarkedWord) -> PQPair:
    """The mark's pair in reflection_sequence: p = y^-1(t), q = y^-1(t+1)
    for t the marked letter, y the letters after it.

    The full word evaluates to v * t_{p,q}; p < q exactly when it is reduced.
    """
    _require_v_marked(v, m)
    p, q = word_record(m.word.n, m.word.letters).sequence[m.mark - 1]
    return PQPair(m.word.n, p, q)


# ---------------------------------------------------------------------------
# The integer kernel


def _slide(n: int, mask: int, i: int, direction: int) -> tuple[int, int]:
    """Swap member i of the proper subset mask for the first non-member
    past its run, downward (direction -1) or upward (+1)."""
    j = (i + direction) % n
    while mask >> j & 1:
        j = (j + direction) % n
    return mask ^ (1 << i) ^ (1 << j), j


@functools.lru_cache(maxsize=None)
def _move(n: int, mask: int, i: int, direction: int) -> tuple[int, tuple[int, ...], int]:
    """One block move of a walk: _slide, then the slid mask's cd_letters
    and the offset of the moved letter among them.  At most 2·n·2^n
    entries, one per (mask, member, direction)."""
    mask, j = _slide(n, mask, i, direction)
    block = cd_letters(n, mask)
    return mask, block, block.index(j)


@functools.lru_cache(maxsize=None)
def _layout(n: int, sizes: tuple[int, ...]):
    """The fixed blocks of a walk whose factors have these sizes: the
    start of each block, the factor owning each position, and the cap,
    the number of states (masks, mark and letter) plus one."""
    starts = tuple(itertools.accumulate(sizes, initial=0))
    owner = tuple(f for f, size in enumerate(sizes) for _ in range(size))
    cap = math.prod(math.comb(n, size) for size in sizes) * max(1, starts[-1]) * n + 1
    return starts, owner, cap


def _walk(
    n: int,
    sizes: tuple[int, ...],
    masks: list[int],
    word: list[int],
    position: int,
    forward: bool,
    table,
    path=None,
    cap=None,
):
    """Walk from the word of the factor masks, marked at the 1-based
    position, to the next reduced word; masks and word change in place.

    Factor f owns a fixed block of the word, as the factor sizes, which
    the caller gives, never change.  A step slides the marked factor's
    run (down forward, up backward), rewrites its block and, unless the
    word is reduced, re-marks at the other position with the moved
    letter's reflection.  table(n, letters) gives the word_record of
    each word, so that a caller can share it between walks
    (functools.cache(word_record)).  Returns the last moved position and
    the final letters and record, or None after cap steps (by default
    the number of states).  path receives each vertex as (letters,
    mark): forward after the re-mark, backward before it.
    """
    starts, owner, states = _layout(n, sizes)
    direction = -1 if forward else 1
    for _ in range(states if cap is None else cap):
        f = owner[position - 1]
        masks[f], block, offset = _move(n, masks[f], word[position - 1], direction)
        start = starts[f]
        word[start : starts[f + 1]] = block
        letters = tuple(word)
        record = table(n, letters)
        moved = start + offset + 1
        if record.reduced:
            if path is not None:
                path.append((letters, moved))
            return moved, letters, record
        position = partner_index(n, letters, record, moved)
        if owner[position - 1] == f:
            raise InvariantError("re-mark landed in the moved factor")
        if path is not None:
            path.append((letters, position if forward else moved))
    return None


def walks(n: int, starts, sizes, directions, table):
    """Walk the word of each start's factor masks, of the given sizes,
    once per direction (True forward), each walk from where the last
    ended, reading records from table as _walk does.  A start is the
    masks of a cover v * t and the record key of t (reflection_key);
    each walk starts at the unique position of a key (strong exchange):
    t's first, then the key t' at the last walk's final mark, so that
    the walk's image evaluates to v * t'.  Returns, per start, each
    walk's final masks and t' as a key.  Nothing else is checked: the
    callers hold covers by construction."""
    out = []
    for masks, key in starts:
        masks, word = list(masks), []
        for mask in masks:
            word += cd_letters(n, mask)
        letters = tuple(word)
        record, ends = table(n, letters), []
        for forward in directions:
            position = reflection_index(n, letters, record, key)
            end = _walk(n, sizes, masks, word, position, forward, table)
            if end is None:
                raise CycleOverflowError("generalized walk exceeded its cap")
            position, letters, record = end
            key = record.keys[position - 1]
            ends.append((tuple(masks), key))
        out.append(ends)
    return out


# ---------------------------------------------------------------------------
# The affine Little graph


def _letter_walk(v: AffinePermutation, m: MarkedWord, mark: int, forward: bool, table, cap=None):
    """_walk with every letter of m its own factor: sliding {i} steps i
    to i -+ 1, so this is the walk on marked words.  Returns its end and
    its path as marked words."""
    path, letters = [], list(m.word.letters)
    sizes = (1,) * len(letters)
    end = _walk(v.n, sizes, [1 << a for a in letters], letters, mark, forward, table, path, cap)
    return end, [MarkedWord(Word(v.n, letters), k) for letters, k in path]


def forward_step(v: AffinePermutation, m: MarkedWord) -> MarkedWord:
    """The unique out-edge: decrement the marked letter mod n and re-mark.

    The mark stays put when the new word is reduced and otherwise moves
    to the unique other position whose deletion is a reduced word for v.
    """
    _require_v_marked(v, m)
    return _letter_walk(v, m, m.mark, True, word_record, cap=1)[1][0]


def backward_step(v: AffinePermutation, m: MarkedWord) -> MarkedWord:
    """The unique in-edge: re-mark first, then increment that letter mod n."""
    _require_v_marked(v, m)
    n, letters = v.n, m.word.letters
    record = word_record(n, letters)
    k = m.mark if record.reduced else partner_index(n, letters, record, m.mark)
    return _letter_walk(v, m, k, False, word_record, cap=1)[1][0]


def _marked_walk(v: AffinePermutation, m: MarkedWord, forward: bool, name: str, table=None):
    """Walk from the reduced v-marked m to the next reduced word, reading
    m's reducedness and every step's record from table (by default
    word_record, looked up at call time).

    A re-mark has the mark's reflection, so only m needs checking.
    """
    _require_v_marked(v, m)
    table = table or word_record
    if not table(m.word.n, m.word.letters).reduced:
        raise NotReducedError(f"{m} is not a reduced marked word")
    end, path = _letter_walk(v, m, m.mark, forward, table)
    if end is None:
        raise CycleOverflowError(f"{name} cycle through {m} exceeded its cap")
    return path[-1], path


def phi(v: AffinePermutation, m: MarkedWord, *, table=None) -> tuple[MarkedWord, list[MarkedWord]]:
    """First reduced v-marked word after m on its cycle, plus the path.

    The path lists every vertex visited after m, non-reduced
    intermediates included, ending with the returned vertex.  Cycles of
    the graph are finite and never loops, which the iteration cap turns
    into a runtime check.  table, a functools.cache(word_record) the
    caller shares between walks over v, gives the record of m and of
    every vertex; by default each is swept once, uncached.
    """
    return _marked_walk(v, m, True, "phi", table)


def phi_inverse(v: AffinePermutation, m: MarkedWord) -> tuple[MarkedWord, list[MarkedWord]]:
    """Inverse of phi, by iterating backward steps; same path convention."""
    return _marked_walk(v, m, False, "phi inverse")


def _require_r_cover(v: AffinePermutation, r: int, w: AffinePermutation, side: str):
    """The record key of the cover reflection of w over v."""
    t = cover_reflection(v, w)
    if t is None or not is_r_cover(t, r, side):
        error = NotRightRCoverError if side == "right" else NotLeftRCoverError
        raise error(f"{list(w.window)} is not a {side} {r}-cover of {list(v.window)}")
    return reflection_key(v.n, t.a, t.b)


def phi_r(v: AffinePermutation, r: int, a: Word) -> tuple[AffinePermutation, Word]:
    """Apply phi to a reduced word of a right r-cover of v.

    Marks a by strong exchange, runs phi, and returns the evaluated
    element together with its reduced word; the element is a left
    r-cover of v.
    """
    table = functools.cache(word_record)
    record = table(a.n, a.letters)
    if not record.reduced:
        raise NotReducedError(f"word {a} is not reduced")
    key = _require_r_cover(v, r, evaluate(a), "right")
    out, _ = phi(v, MarkedWord(a, reflection_index(a.n, a.letters, record, key)), table=table)
    return evaluate(out.word), out.word


def little_trace(v: AffinePermutation, m: MarkedWord) -> list[tuple[MarkedWord, PQPair]]:
    """The phi trace rows, input first, each with its (p, q) pair, read
    at the vertex's mark from the record that phi's walk built."""
    n, table = v.n, functools.cache(word_record)
    _, path = phi(v, m, table=table)
    return [(x, PQPair(n, *table(n, x.word.letters).sequence[x.mark - 1])) for x in [m] + path]


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


class MarkedSubset(Value):
    """A proper subset of Z/nZ with one distinguished member."""

    __slots__ = ("subset", "mark")

    def __init__(self, subset: CyclicSubset, mark: int):
        if mark not in subset:
            raise MarkAbsentError(f"mark {mark} not in subset {subset}")
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "mark", mark)


def _slide_subset(ms: MarkedSubset, direction: int) -> MarkedSubset:
    n = ms.subset.n
    mask, mark = _slide(n, subset_mask(ms.subset.members), ms.mark % n, direction)
    return MarkedSubset(CyclicSubset(n, mask_members(n, mask)), mark)


def cd_cover_step(ms: MarkedSubset) -> MarkedSubset:
    """Slide the marked run down: replace mark i by i-j-1 for maximal j
    with {i, i-1, ..., i-j} inside the subset.

    This is the factor-level forward step; it is independent of any
    reduced-word choice.
    """
    return _slide_subset(ms, -1)


def cd_cover_step_back(ms: MarkedSubset) -> MarkedSubset:
    """Inverse slide: replace mark i by i+k+1 for maximal k with
    {i, i+1, ..., i+k} inside the subset."""
    return _slide_subset(ms, 1)


# ---------------------------------------------------------------------------
# The generalized algorithm on factor tuples


def parse_decomposition(n: int, text: str) -> AlphaDecomposition:
    """Parse slash-separated factor subsets, e.g. `34/02/1`; an empty
    factor or a letter repeated within a factor is a FormatError."""
    factors = []
    for part in text.strip().split("/"):
        letters = parse_word(n, part).letters
        if not letters:
            raise FormatError(f"empty factor in {text!r}")
        if len(set(letters)) < len(letters):
            raise FormatError(f"factor {part!r} repeats a letter")
        factors.append(CyclicSubset(n, letters))
    return AlphaDecomposition(n, tuple(factors))


def _generalized_walk(v, r, d: AlphaDecomposition, side: str) -> AlphaDecomposition:
    key = _require_r_cover(v, r, d.product(), side)
    start = ([subset_mask(f.members) for f in d.factors], key)
    [[(masks, _)]] = walks(d.n, [start], d.alpha, (side == "right",), word_record)
    out = AlphaDecomposition(d.n, tuple(CyclicSubset(d.n, mask_members(d.n, m)) for m in masks))
    if out.alpha != d.alpha:
        raise InvariantError(f"length profile changed from {d} to {out}")
    return out


def generalized_little(
    v: AffinePermutation, r: int, d: AlphaDecomposition
) -> AlphaDecomposition:
    """Factor-level Little step: maps a factor tuple of a right r-cover of
    v to one of a left r-cover, preserving the length profile alpha."""
    return _generalized_walk(v, r, d, "right")


def inverse_generalized_little(
    v: AffinePermutation, r: int, d: AlphaDecomposition
) -> AlphaDecomposition:
    """Inverse factor-level step, from left r-covers back to right r-covers."""
    return _generalized_walk(v, r, d, "left")
