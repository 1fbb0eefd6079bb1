"""Words in the generators s_0, ..., s_{n-1} and cyclically decreasing elements.

A word evaluates to the product of its simple reflections read left to
right.  A word is reduced when its length equals the length of its
evaluation.  Reducedness, strong exchange and unique insertion are all
read off a word's reflection sequence.

The lookups run on plain ints, as do the walks of `little`: one pass of
`word_record` over a list of letters, on one window list, gives the
sequence, its reducedness and, per position, the key of its reflection,
and the index lookups count and find a key in that list, so a
reflection enters the kernel once, as its key (`reflection_key`); a
cyclically decreasing factor is an n-bit mask whose canonical letters
`cd_letters` tabulates.  The functions on Word and CyclicSubset
validate, then call them.

A word is cyclically decreasing when its letters are distinct and,
whenever i and i+1 (mod n) both occur, i+1 occurs first.  Such words
with letter set A are exactly the shuffles of the decreasing words of
the maximal cyclic intervals of A, and all evaluate to one element w(A).

The factor layer of `little` and `stanley` lives here too: the factor
tuples (AlphaDecomposition), one factor table (_cd_masks) and one peel
on the window of w^-1 (_peel, decomposition_masks).
"""

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import (
    BadLetterError,
    FormatError,
    FullSetError,
    InvalidDecompositionError,
    InvariantError,
    MarkDeletionNotReducedError,
    NotACoverError,
    NotReducedError,
    WordIsReducedError,
)
from .group import (
    AffinePermutation,
    Value,
    canonical_reduced_word,
    cover_reflection,
    letters_window,
    _length,
)


class Word(Value):
    """A sequence of residues in [0, n-1]."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...]):
        if n < 2:
            raise BadLetterError(f"words need period n >= 2, got {n}")
        letters = tuple(map(int, letters))
        if letters and (min(letters) < 0 or max(letters) >= n):
            bad = next(a for a in letters if not 0 <= a < n)
            raise BadLetterError(f"letter {bad} not in [0, {n - 1}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

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
    """Parse the digit-string (n <= 10) or comma-separated word format;
    for n > 10, text without a comma is one letter."""
    text = text.strip()
    if text == "":
        return Word(n, ())
    try:
        letters = tuple(map(int, text.split(",") if "," in text or n > 10 else text))
    except ValueError as exc:
        raise FormatError(f"bad word text {text!r}") from exc
    if n > 10 and "," not in text and letters[0] >= n:
        raise FormatError(f"period {n} words must be comma-separated: {text!r}")
    return Word(n, letters)


def evaluate(a: Word) -> AffinePermutation:
    """Left-to-right product of the simple reflections of a.

    >>> evaluate(parse_word(4, "310")).window
    (-1, 1, 4, 6)
    """
    return AffinePermutation(a.n, letters_window(a.n, a.letters))


def is_reduced(a: Word) -> bool:
    """True iff l(evaluate(a)) = len(a), i.e. p_j < q_j all along reflection_sequence(a)."""
    return word_record(a.n, a.letters).reduced


def _reduced_words(w: AffinePermutation) -> tuple[tuple[int, ...], ...]:
    """The reduced words of w as sorted letter tuples: one pass down the
    right weak order, each layer mapping an element x to the suffixes b
    with x * b = w, until the identity holds them all."""
    layer = {w: [()]}
    for _ in range(w.length()):
        below = {}
        for x, suffixes in layer.items():
            for i in x.right_descents():
                below.setdefault(x.times_simple(i), []).extend((i,) + b for b in suffixes)
        layer = below
    [words] = layer.values()
    return tuple(sorted(words))


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
    return tuple(word_record(a.n, a.letters).sequence)


WordRecord = namedtuple("WordRecord", ("sequence", "reduced", "keys"))


def word_record(n: int, letters) -> WordRecord:
    """What the lookups read off plain letters: the reflection sequence,
    whether it is reduced, and per position the key of its reflection
    (reflection_key), unique to the reflection.  One right-to-left pass
    keeps the window of y^-1 in a list and swaps it in place."""
    window = list(range(1, n + 1))
    sequence, keys, reduced = [], [], True
    for i in reversed(letters):
        if i:
            p, q = window[i - 1], window[i]
            window[i - 1], window[i] = q, p
        else:
            p, q = window[-1] - n, window[0]
            window[0], window[-1] = p, q + n
        sequence.append((p, q))
        if p < q:
            keys.append((q - p) * n + p % n)
        else:
            keys.append((p - q) * n + q % n)
            reduced = False
    sequence.reverse()
    keys.reverse()
    return WordRecord(sequence, reduced, keys)


def partner_index(n: int, letters, record: WordRecord, i: int) -> int:
    """The unique j != i with i's reflection in the record of the letters;
    deleting either letter gives the same element (unique insertion)."""
    keys = record.keys
    key = keys[i - 1]
    if keys.count(key) != 2:
        raise InvariantError(f"insertion uniqueness failed for {format_letters(n, letters)} at {i}")
    j = keys.index(key) + 1
    return j if j != i else keys.index(key, i) + 1


def reflection_key(n: int, a: int, b: int) -> int:
    """The record key (b - a) * n + a mod n of the reflection t(a, b), a < b."""
    return (b - a) * n + a % n


def reflection_index(n: int, letters, record: WordRecord, key: int) -> int:
    """The unique 1-based j with the reflection of that key in the record
    of the letters (strong exchange)."""
    keys = record.keys
    if keys.count(key) != 1:
        raise InvariantError(f"strong exchange uniqueness failed for {format_letters(n, letters)}")
    return keys.index(key) + 1


def marked_index(a: Word, v: AffinePermutation) -> int:
    """The unique 1-based i with a_1 .. ^a_i .. a_l a reduced word for v.

    Requires a reduced and evaluate(a) = v * t a Bruhat cover of v; i is
    the only position with reflection t in reflection_sequence(a).
    """
    record = word_record(a.n, a.letters)
    if not record.reduced:
        raise NotReducedError(f"word {a} is not reduced")
    t = cover_reflection(v, evaluate(a))
    if t is None:
        raise NotACoverError(f"{a} does not evaluate to a cover of {list(v.window)}")
    return reflection_index(a.n, a.letters, record, reflection_key(a.n, t.a, t.b))


def insertion_index(a: Word, i: int) -> int:
    """The unique j != i whose deletion from the non-reduced a is reduced.

    j is the partner of i in reflection_sequence(a): the other position
    with i's reflection, so both deletions evaluate to the same element.
    """
    record = word_record(a.n, a.letters)
    if record.reduced:
        raise WordIsReducedError(f"word {a} is reduced")
    if not is_reduced(a.delete(i)):
        raise MarkDeletionNotReducedError(f"deleting position {i} of {a} is not reduced")
    j = partner_index(a.n, a.letters, record, i)
    if evaluate(a.delete(j)) != evaluate(a.delete(i)):
        raise InvariantError(f"deleting position {j} or {i} of {a} gives different elements")
    return j


# ---------------------------------------------------------------------------
# Cyclically decreasing words, elements and factor tuples


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


class CyclicSubset(Value):
    """A proper subset of Z/nZ, stored as a sorted tuple of residues."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: tuple[int, ...]):
        members = tuple(sorted({int(m) for m in members}))
        for m in members:
            if not 0 <= m < n:
                raise BadLetterError(f"residue {m} not in [0, {n - 1}]")
        if len(members) >= n:
            raise FullSetError(f"subset of Z/{n}Z must be proper")
        object.__setattr__(self, "n", n)
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


def subset_mask(members) -> int:
    """The bitmask of a set of residues: bit i for residue i."""
    return sum(1 << i for i in members)


def mask_members(n: int, mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


@lru_cache(maxsize=None)
def cd_letters(n: int, mask: int) -> tuple[int, ...]:
    """The letters of canonical_cd_word for the subset with that bitmask;
    the per-n table fills lazily, one mask at a time."""
    return canonical_cd_word(CyclicSubset(n, mask_members(n, mask))).letters


def cd_element(subset: CyclicSubset) -> AffinePermutation:
    """The cyclically decreasing element w(A); its length is |A|."""
    n = subset.n
    return AffinePermutation(n, letters_window(n, cd_letters(n, subset_mask(subset.members))))


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
    return [
        cd_element(CyclicSubset(n, members))
        for k in range(n)
        for members in itertools.combinations(range(n), k)
    ]


class AlphaDecomposition(Value):
    """A length-additive tuple of cyclically decreasing factors."""

    __slots__ = ("n", "factors", "_product")

    def __init__(self, n: int, factors: tuple[CyclicSubset, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "factors", factors)
        if any(factor.n != n for factor in factors):
            raise InvalidDecompositionError("factors with mixed periods")
        letters = [a for f in factors for a in cd_letters(n, subset_mask(f.members))]
        window = letters_window(n, letters)
        if _length(n, window) != len(letters):
            raise InvalidDecompositionError(f"factor lengths do not add: {self}")
        object.__setattr__(self, "_product", AffinePermutation(n, window))

    @property
    def alpha(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def product(self) -> AffinePermutation:
        return self._product

    def __str__(self) -> str:
        return "/".join(str(f) for f in self.factors)


@lru_cache(maxsize=None)
def _cd_masks(n: int, size: int) -> tuple:
    """(mask, canonical letters) of each proper subset of Z/nZ of that
    size, in lexicographic order of members; () when size >= n."""
    if size >= n:
        return ()
    masks = (subset_mask(members) for members in itertools.combinations(range(n), size))
    return tuple((mask, cd_letters(n, mask)) for mask in masks)


def _peel(n: int, u: tuple[int, ...], letters) -> tuple[int, ...] | None:
    """u * s_{a_1} ... s_{a_k} if each letter is a right descent as it is
    applied, else None.  For u = w^-1 and the letters of w(A) that is the
    inverse of w(A)^-1 w exactly when l(w(A)^-1 w) = l(w) - |A|."""
    a = letters[0]
    if (u[a - 1] < u[a]) if a else (u[-1] - n < u[0]):
        return None  # most candidates fail here, before the copy
    u = list(u)
    for a in letters:
        if a:
            if u[a - 1] < u[a]:
                return None
            u[a - 1], u[a] = u[a], u[a - 1]
        else:
            if u[-1] - n < u[0]:
                return None
            u[0], u[-1] = u[-1] - n, u[0] + n
    return tuple(u)


def decomposition_masks(w: AffinePermutation, profiles) -> dict[tuple[int, ...], list]:
    """The alpha-decompositions of w as tuples of factor masks, for each
    alpha in profiles ([] when there are none), each in the order of
    alpha_decompositions; every alpha must be a composition of l(w).

    Peels the factors off the left of w, letter by letter, on the window
    of w^-1, in one pass over the trie of profiles: profiles with a
    common prefix share its peels."""
    n, out, trie = w.n, {alpha: [] for alpha in profiles}, {}
    for alpha, found in out.items():
        node = trie
        for part in alpha:
            node = node.setdefault(part, {})
        node[0] = found  # parts are positive, so 0 keys the profile's list
    identity_window, stack = tuple(range(1, n + 1)), [(w.inverse().window, trie, ())]
    while stack:  # preorder: each node's children are pushed last first
        u, node, chosen = stack.pop()
        for size, child in reversed(node.items()):
            if size:
                for mask, letters in reversed(_cd_masks(n, size)):
                    tail = _peel(n, u, letters)
                    if tail is not None:
                        stack.append((tail, child, chosen + (mask,)))
            elif u == identity_window:
                child.append(chosen)
    return out
