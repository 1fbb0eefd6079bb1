"""The affine symmetric group in window notation.

An element is a bijection w: Z -> Z with w(i+n) = w(i) + n and
sum(w(1..n)) = n(n+1)/2, stored as the window [w(1), ..., w(n)].
Multiplication is function composition, (u*v)(i) = u(v(i)), so that a
word s_{a_1} ... s_{a_l} is evaluated by right-multiplying the letters
left to right.

All values are immutable and all operations are pure functions, so the
module is safe for concurrent use.  Enumerations return deterministic,
sorted output.

>>> v = from_window(4, [2, 3, 0, 5])
>>> v * transposition_element(4, 2, 4)
AffinePermutation(n=4, window=(2, 5, 0, 3))
>>> v.length()
3
"""

import math
from functools import lru_cache
from operator import attrgetter

from .errors import (
    BadIndexError,
    CongruentPairError,
    DuplicateResidueError,
    EnumerationError,
    FormatError,
    InvariantError,
    NotGrassmannianError,
    PeriodMismatchError,
    WindowLengthError,
    WindowSumError,
)

Partition = tuple[int, ...]


class Record:
    """Construction, equality within one class, repr and pickling by the
    fields: the two or more names in __slots__ that do not start with an
    underscore."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields) if cls._fields else None

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)


class Value(Record):
    """A hashable Record whose __init__ sets its fields once, by object.__setattr__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AffinePermutation(Value):
    """A period-n affine permutation given by its window."""

    __slots__ = ("n", "window")

    def __init__(self, n: int, window: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "window", window)

    def __call__(self, i: int) -> int:
        """Value of the underlying bijection at any integer i."""
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        if self.n != other.n:
            raise PeriodMismatchError(f"cannot compose period {self.n} with {other.n}")
        n, window = self.n, self.window
        # u(j) = u_r + q*n for j - 1 = q*n + r, read off without __call__
        return AffinePermutation(
            n, tuple(window[(j - 1) % n] + (j - 1) // n * n for j in other.window)
        )

    def inverse(self) -> "AffinePermutation":
        n = self.n
        values = [0] * n
        for i, w_i in enumerate(self.window, start=1):
            # w(i) = w_i, hence w^-1(w_i mod-class rep) = i shifted back
            j = ((w_i - 1) % n) + 1
            values[j - 1] = i + (j - w_i)
        return AffinePermutation(n, tuple(values))

    def length(self) -> int:
        """Number of inversions {(i, j) : 1 <= i <= n, j > i, w(i) > w(j)}."""
        return _length(self.n, self.window)

    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    def right_descents(self) -> list[int]:
        """Residues i with w(i) > w(i+1), i.e. l(w s_i) = l(w) - 1."""
        return [i for i in range(self.n) if self(i) > self(i + 1)]

    def times_simple(self, i: int) -> "AffinePermutation":
        """Right multiplication by s_i, in O(n)."""
        n = self.n
        if not 0 <= i < n:
            raise BadIndexError(f"simple reflection index {i} not in [0, {n - 1}]")
        w = list(self.window)
        if i == 0:
            w[0], w[n - 1] = self.window[n - 1] - n, self.window[0] + n
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return AffinePermutation(n, tuple(w))


@lru_cache(maxsize=1 << 12)
def _length(n: int, window: tuple[int, ...]) -> int:
    # sum over window positions i < j of |floor((w(j) - w(i)) / n)|;
    # this equals the inversion count because class (i, j) contributes
    # one inversion per full period the pair is out of order.
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs((window[j] - window[i]) // n)
    return total


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, tuple(range(1, n + 1)))


def from_window(n: int, values) -> AffinePermutation:
    """Validated constructor from a window sequence.

    >>> from_window(4, [1, 2, 3, 4]).is_identity()
    True
    """
    if n < 1:
        raise WindowLengthError(f"period must be positive, got {n}")
    values = tuple(int(v) for v in values)
    if len(values) != n:
        raise WindowLengthError(f"expected {n} window entries, got {len(values)}")
    if sum(values) != n * (n + 1) // 2:
        raise WindowSumError(
            f"window sums to {sum(values)}, expected {n * (n + 1) // 2}"
        )
    if len({v % n for v in values}) != n:
        raise DuplicateResidueError(f"window {list(values)} repeats a residue mod {n}")
    return AffinePermutation(n, values)


def simple(n: int, i: int) -> AffinePermutation:
    """The simple reflection s_i = t_{i,i+1}."""
    if not 0 <= i <= n - 1:
        raise BadIndexError(f"simple reflection index {i} not in [0, {n - 1}]")
    return transposition_element(n, i, i + 1)


def transposition_element(n: int, r: int, s: int) -> AffinePermutation:
    """The reflection t_{r,s}: swaps the residue classes of r and s.

    t_{r,s}(r + kn) = s + kn and t_{r,s}(s + kn) = r + kn; every integer
    in another residue class is fixed.
    """
    if (r - s) % n == 0:
        raise CongruentPairError(f"t_({r},{s}) undefined: {r} = {s} mod {n}")
    values = []
    for i in range(1, n + 1):
        if (i - r) % n == 0:
            values.append(s + (i - r))
        elif (i - s) % n == 0:
            values.append(r + (i - s))
        else:
            values.append(i)
    return AffinePermutation(n, tuple(values))


class Reflection(Value):
    """A transposition t_{a,b} in canonical form: a < b, a in [1, n].

    t_{r,s} and t_{r+kn,s+kn} denote the same element, so the pair is
    shifted until the smaller entry lands in [1, n].
    """

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: int, b: int):
        if (a - b) % n == 0:
            raise CongruentPairError(f"t_({a},{b}) undefined: congruent mod {n}")
        a, b = reflection_pair(n, a, b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def element(self) -> AffinePermutation:
        return transposition_element(self.n, self.a, self.b)

    def __str__(self) -> str:
        return f"t({self.a},{self.b})"


def reflection_pair(n: int, p: int, q: int) -> tuple[int, int]:
    """Reflection's normal form of t_{p,q} as an int pair (a, b): a < b,
    shifted by a multiple of n until a lies in [1, n]."""
    a, b = (p, q) if p < q else (q, p)
    shift = (a - 1) % n + 1 - a
    return a + shift, b + shift


def as_reflection(w: AffinePermutation) -> Reflection | None:
    """The canonical Reflection equal to w, or None if w is not one."""
    moved = [i for i in range(1, w.n + 1) if w(i) != i]
    if len(moved) != 2:
        return None
    i = moved[0]
    if w(w(i)) != i or (w(i) - moved[1]) % w.n != 0:
        return None
    return Reflection(w.n, i, w(i))


def canonical_reduced_word(w: AffinePermutation) -> tuple[int, ...]:
    """One reduced word for w: repeatedly peel the smallest right descent,
    on the window as a list."""
    n, x, letters = w.n, list(w.window), []
    while True:
        # the smallest i with w(i) > w(i + 1), where w(0) = w(n) - n
        i = next((i for i in range(n) if x[i - 1] - (0 if i else n) > x[i]), None)
        if i is None:
            return tuple(reversed(letters))
        if i:
            x[i - 1], x[i] = x[i], x[i - 1]
        else:
            x[0], x[-1] = x[-1] - n, x[0] + n
        letters.append(i)


def letters_window(n: int, letters) -> tuple[int, ...]:
    """The window of the left-to-right product of plain letters."""
    window = list(range(1, n + 1))
    for i in letters:
        if i:
            window[i - 1], window[i] = window[i], window[i - 1]
        else:
            window[0], window[-1] = window[-1] - n, window[0] + n
    return tuple(window)


# ---------------------------------------------------------------------------
# Bruhat covers


def covers_above(v: AffinePermutation) -> list[tuple[AffinePermutation, Reflection]]:
    """All pairs (w, t_{a,b}) with w = v * t_{a,b} and l(w) = l(v) + 1, by (a, b).

    Direct criterion (Bjorner-Brenti, ch. 8): a < b gives a cover iff
    v(a) < v(b) < v(c) for every a < c < b with v(c) > v(a).  The scan
    over b stops below a + n + (max - min of v(i) - i), since past a + n
    the point c = a + n forces v(b) < v(a) + n.
    """
    n, window = v.n, v.window
    shifts = [value - i for i, value in enumerate(window, start=1)]
    span = n + max(shifts) - min(shifts)
    out = []
    for a in range(1, n + 1):
        low, ceiling = window[a - 1], math.inf
        for b in range(a + 1, a + span):
            value = v(b)
            if low < value < ceiling:
                ceiling = value
                if (b - a) % n:
                    t = Reflection(n, a, b)
                    out.append((v * t.element(), t))
    return out


def cover_reflection(v: AffinePermutation, w: AffinePermutation) -> Reflection | None:
    """The reflection t with w = v * t if w covers v in Bruhat order, else None."""
    if v.n != w.n:
        raise PeriodMismatchError("mismatched periods")
    if w.length() != v.length() + 1:
        return None
    return as_reflection(v.inverse() * w)


def is_r_cover(t: Reflection, r: int, side: str) -> bool:
    """Whether the cover v * t_{a,b} is a right r-cover (a = r mod n) or,
    for side "left", a left r-cover (b = r mod n)."""
    return ((t.a if side == "right" else t.b) - r) % t.n == 0


def residue_count(t: Reflection, r: int) -> int:
    """Number of integers congruent to r mod n in [a, b-1], for t = t_{a,b}."""
    return sum(1 for x in range(t.a, t.b) if (x - r) % t.n == 0)


def right_r_covers(v: AffinePermutation, r: int) -> list[AffinePermutation]:
    """Covers w = v t_{a,b} (a < b canonical) with a = r mod n."""
    return [w for w, t in covers_above(v) if is_r_cover(t, r, "right")]


def left_r_covers(v: AffinePermutation, r: int) -> list[AffinePermutation]:
    """Covers w = v t_{a,b} (a < b canonical) with b = r mod n."""
    return [w for w, t in covers_above(v) if is_r_cover(t, r, "left")]


def chevalley_coefficient(v: AffinePermutation, w: AffinePermutation, r: int) -> int:
    """residue_count(t, r) if w = v * t covers v in Bruhat order, else zero."""
    t = cover_reflection(v, w)
    return 0 if t is None else residue_count(t, r)


# ---------------------------------------------------------------------------
# Bruhat order and enumeration


def bruhat_leq(v: AffinePermutation, w: AffinePermutation) -> bool:
    """Strong Bruhat order, via the descent recursion.

    If i is a right descent of w then v <= w iff (v s_i if i is a descent
    of v, else v) <= w s_i.
    """
    if v.n != w.n:
        raise PeriodMismatchError("mismatched periods")
    while True:
        if v == w or v.is_identity():
            return True
        if v.length() >= w.length():
            return False
        i = w.right_descents()[0]
        w = w.times_simple(i)
        if v(i) > v(i + 1):
            v = v.times_simple(i)


def bott_level_sizes(n: int, max_length: int) -> list[int]:
    """Number of elements of each length l <= max_length, by Bott's formula:
    the Poincare series is the product over d = 2..n of [d]_q / (1 - q^(d-1))
    (Bjorner-Brenti, ch. 7).

    >>> bott_level_sizes(5, 5)
    [1, 5, 15, 35, 70, 125]
    """
    series = [1] + [0] * max_length
    for d in range(2, n + 1):
        # times [d]_q = 1 + q + ... + q^(d-1): a running sum of width d
        product, running = [], 0
        for k, c in enumerate(series):
            running += c - (series[k - d] if k >= d else 0)
            product.append(running)
        # over 1 - q^(d-1): each coefficient adds the one d-1 below it
        for k in range(d - 1, max_length + 1):
            product[k] += product[k - d + 1]
        series = product
    return series


def bruhat_ball(n: int, max_length: int) -> tuple[tuple[AffinePermutation, ...], ...]:
    """Tuple indexed by length l <= max_length of all elements of that length.

    BFS from the identity along right multiplication by ascents; each
    level is sorted by window.  The level sizes are checked against
    Bott's formula, so the enumeration is certified complete.
    """
    levels = [(identity(n),)]
    for _ in range(max_length):
        frontier = set()
        for w in levels[-1]:
            for i in range(n):
                if w(i) < w(i + 1):
                    frontier.add(w.times_simple(i))
        levels.append(tuple(sorted(frontier, key=lambda w: w.window)))
    sizes, expected = [len(level) for level in levels], bott_level_sizes(n, max_length)
    if sizes != expected:
        raise EnumerationError(
            f"Bruhat ball level sizes {sizes} at n = {n} differ from Bott's formula {expected}"
        )
    return tuple(levels)


def elements_of_length(n: int, l: int) -> list[AffinePermutation]:
    return list(bruhat_ball(n, l)[l])


# ---------------------------------------------------------------------------
# Grassmannian elements and their partition labels


def is_grassmannian(w: AffinePermutation) -> bool:
    """True iff the window is strictly increasing (no descent among s_1..s_{n-1})."""
    return all(w.window[i] < w.window[i + 1] for i in range(w.n - 1))


def grassmannian_to_partition(w: AffinePermutation) -> Partition:
    """Partition label of a Grassmannian element, all parts <= n-1.

    The label is the conjugate of the sorted affine code
    c_i = #{j < i : w(j) > w(i)}, i in [1, n] (Bjorner-Brenti, ch. 8).
    Orientation is fixed by the n = 4 anchors [-2,1,4,7] -> (2,1,1) and
    [-1,0,5,6] -> (2,2).
    """
    if not is_grassmannian(w):
        raise NotGrassmannianError(f"window {list(w.window)} is not increasing")
    n, x = w.n, w.window
    # for window positions i and m, j = m + kn lies below i with w(j)
    # above w(i) exactly for (x_i - x_m) // n < k <= (m < i) - 1
    code = [sum(max(0, (m < i) - 1 - (x[i] - x[m]) // n) for m in range(n)) for i in range(n)]
    label = tuple(sum(c >= k for c in code) for k in range(1, max(code) + 1))
    if sum(label) != w.length() or any(part >= n for part in label):
        raise InvariantError(
            f"label {label} of {list(w.window)} is not a partition of {w.length()}"
            f" with parts at most {n - 1}"
        )
    return label


def grassmannian_from_partition(n: int, shape) -> AffinePermutation:
    """Inverse of the partition labeling, by the row-reading word.

    Reads the boxes of the shape bottom row to top row, right to left
    within a row, taking the residue (col - row) mod n of each box; the
    element is the left-to-right product of those letters.
    """
    shape = tuple(shape)
    if any(not 0 < p < n for p in shape) or list(shape) != sorted(shape, reverse=True):
        raise NotGrassmannianError(f"{shape} is not a partition with parts in [1, {n - 1}]")
    letters = [
        (col - row) % n
        for row in range(len(shape), 0, -1)
        for col in range(shape[row - 1], 0, -1)
    ]
    return AffinePermutation(n, letters_window(n, letters))


# ---------------------------------------------------------------------------
# Window text format, shared with the CLI


def format_window(w: AffinePermutation) -> str:
    return "[" + ",".join(str(v) for v in w.window) + "]"


def parse_window(n: int, text: str) -> AffinePermutation:
    """Parse the `[2,3,0,5]` window format."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(f"window must be bracketed: {text!r}")
    body = text[1:-1].strip()
    try:
        values = [int(part) for part in body.split(",")] if body else []
    except ValueError as exc:
        raise FormatError(f"bad window entry in {text!r}") from exc
    return from_window(n, values)

