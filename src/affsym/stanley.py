"""Affine Stanley symmetric functions as exact coefficient tables.

The function attached to w is the generating series whose coefficient
at a composition alpha counts the factorizations of w into cyclically
decreasing factors with length profile alpha, that is, the coefficient
of w in h_{alpha_1} ... h_{alpha_r} in the affine nilCoxeter algebra,
where h_k sums the cyclically decreasing elements of length k.  The
h_k commute, so the coefficient only depends on the multiset of parts
and the finite data of the function is a table mapping partitions of
l(w) with parts below n to nonnegative integers.  The commutation is
verified at runtime, once per (n, degree), never assumed; by
associativity it implies rearrangement invariance for every
composition, so tables count partitions only.

The factor table (_cd_masks) and the peel of `words` serve counting
and enumeration, and nothing here comes from `little`; only the
certificate multiplies factors, by evaluating their concatenated words,
so it shares no arithmetic with the counts it guards.

Products with the degree-one Schur function, cover-sum identities, and
expansions in the Grassmannian (affine Schur) tables are all computed
in exact integer arithmetic; no floating point anywhere.  The
identity reports take the covers of v from their caller, so a sweep
computes them once per v for every suite.  The
Grassmannian tables are unitriangular in lexicographic order of their
labels (checked at runtime), so an expansion is an integer
back-substitution.
"""

from collections import Counter
from functools import lru_cache

from .errors import (
    DegreeMismatchError,
    IdentityInputError,
    InputError,
    PeriodMismatchError,
    SingularSystemError,
    SymmetryViolationError,
)
from .group import (
    AffinePermutation,
    Partition,
    Record,
    covers_above,
    from_window,
    grassmannian_from_partition,
    grassmannian_to_partition,
    is_grassmannian,
    is_r_cover,
    letters_window,
    residue_count,
    _length,
)
from .words import (
    AlphaDecomposition,
    CyclicSubset,
    _cd_masks,
    _peel,
    decomposition_masks,
    mask_members,
)


def compositions_bounded(total: int, max_part: int):
    """All compositions of total with parts in [1, max_part], lex order."""
    stack = [((), total)]
    while stack:  # extensions are pushed largest part first, so popped in lex order
        head, left = stack.pop()
        if not left:
            yield head
        stack.extend((head + (part,), left - part) for part in range(min(left, max_part), 0, -1))


def partitions_bounded(total: int, max_part: int) -> list[Partition]:
    """All partitions of total with parts <= max_part, sorted ascending:
    a fresh list of the memoized tuple, so a caller may change it."""
    return list(_partitions(total, max_part))


@lru_cache(maxsize=None)
def _partitions(total: int, max_part: int) -> tuple[Partition, ...]:
    # one pass over the part sizes, largest first: a state is the parts
    # taken so far and what they leave, and part 1 takes the rest
    states = [((), total)]
    for size in range(min(total, max_part), 0, -1):
        states = [
            (head + (size,) * k, left - size * k)
            for head, left in states
            for k in range(left if size == 1 else 0, left // size + 1)
        ]
    return tuple(sorted(head for head, left in states if not left))


def _composition_of_length(w: AffinePermutation, alpha) -> tuple[int, ...]:
    """alpha as a tuple, checked to be a composition of l(w)."""
    alpha = tuple(alpha)
    if any(part < 1 for part in alpha):
        raise DegreeMismatchError(f"composition parts must be positive: {alpha}")
    if sum(alpha) != w.length():
        raise DegreeMismatchError(f"{alpha} is not a composition of {w.length()}")
    return alpha


def alpha_decompositions(w: AffinePermutation, alpha) -> list[AlphaDecomposition]:
    """All factor tuples (A_1, ..., A_r) with |A_k| = alpha_k multiplying
    to w with lengths adding; deterministic subset order."""
    alpha = _composition_of_length(w, alpha)
    return [
        AlphaDecomposition(w.n, tuple(CyclicSubset(w.n, mask_members(w.n, m)) for m in masks))
        for masks in decomposition_masks(w, [alpha])[alpha]
    ]


@lru_cache(maxsize=1 << 16)
def _coefficient(n: int, u: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """The number of alpha-decompositions of the element with inverse window u."""
    if not alpha:
        return int(u == tuple(range(1, n + 1)))
    total = 0
    for _, letters in _cd_masks(n, alpha[0]):
        tail = _peel(n, u, letters)
        if tail is not None:
            total += _coefficient(n, tail, alpha[1:])
    return total


def coefficient(w: AffinePermutation, alpha) -> int:
    """Number of alpha-decompositions of w, without materializing them."""
    return _coefficient(w.n, w.inverse().window, _composition_of_length(w, alpha))


class CoefficientTable(Record):
    """Partition-indexed monomial coefficients of one symmetric function.

    Keys are partitions of `degree` with parts <= n-1; zero entries are
    dropped so equality is semantic.
    """

    __slots__ = ("n", "degree", "entries")

    def __init__(self, n: int, degree: int, entries: dict[Partition, int] | None = None):
        self.n, self.degree = n, degree
        self.entries = {k: v for k, v in (entries or {}).items() if v != 0}

    def __add__(self, other: "CoefficientTable") -> "CoefficientTable":
        if self.n != other.n:
            raise PeriodMismatchError(f"cannot add tables of periods {self.n} and {other.n}")
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"cannot add tables of degrees {self.degree} and {other.degree}"
            )
        keys = set(self.entries) | set(other.entries)
        return CoefficientTable(
            self.n,
            self.degree,
            {k: self.entries.get(k, 0) + other.entries.get(k, 0) for k in keys},
        )

    def scaled(self, c: int) -> "CoefficientTable":
        return CoefficientTable(self.n, self.degree, {k: c * v for k, v in self.entries.items()})

    @classmethod
    def zero(cls, n: int, degree: int) -> "CoefficientTable":
        return cls(n, degree, {})


def _factor_products(n: int, i: int, j: int) -> Counter:
    """The {window: count} map of h_i h_j: the products w(A) w(B), |A| = i
    and |B| = j, whose lengths add, each the window of the concatenated
    canonical words of A and B."""
    windows = (
        letters_window(n, left + right)
        for _, left in _cd_masks(n, i)
        for _, right in _cd_masks(n, j)
    )
    return Counter(window for window in windows if _length(n, window) == i + j)


@lru_cache(maxsize=None)
def _commutation_certificate(n: int, degree: int) -> None:
    """Check h_i h_j = h_j h_i for all 1 <= i < j <= n-1 with i + j <= degree.

    By associativity this makes every coefficient of degree `degree`
    invariant under rearranging its composition.
    """
    for i in range(1, n):
        for j in range(i + 1, min(n - 1, degree - i) + 1):
            if _factor_products(n, i, j) != _factor_products(n, j, i):
                raise SymmetryViolationError(f"h_{i} h_{j} != h_{j} h_{i} at n = {n}")


def stanley_table(w: AffinePermutation) -> CoefficientTable:
    """The coefficient table of w: one count per partition of l(w).

    Rearrangements of a partition need no separate count: the
    commutation certificate for (n, l(w)) guarantees they agree, and a
    failed certificate raises SymmetryViolationError.

    >>> stanley_table(from_window(3, [3, 2, 1])).entries
    {(1, 1, 1): 2, (2, 1): 1}
    """
    degree = w.length()
    _commutation_certificate(w.n, degree)
    # counted at the partition key, so the largest part is peeled first:
    # the table of [-1,-2,1,10,7] at n = 5 misses _coefficient 162 times, not 363
    u = w.inverse().window
    return CoefficientTable(
        w.n,
        degree,
        {key: _coefficient(w.n, u, key) for key in partitions_bounded(degree, w.n - 1)},
    )


def multiply_by_s1(table: CoefficientTable) -> CoefficientTable:
    """Table of s_1 times the given function, one degree up.

    The coefficient at a partition mu sums the input coefficients at mu
    with one part decremented (each position counts separately; emptied
    parts are dropped).  Partitions with a part >= n fall outside the
    table domain and are discarded.
    """
    entries = {}
    for mu in partitions_bounded(table.degree + 1, table.n - 1):
        total = 0
        for i in range(len(mu)):
            decremented = mu[:i] + (mu[i] - 1,) + mu[i + 1 :]
            nu = tuple(sorted((p for p in decremented if p > 0), reverse=True))
            total += table.entries.get(nu, 0)
        entries[mu] = total
    return CoefficientTable(table.n, table.degree + 1, entries)


# ---------------------------------------------------------------------------
# Identity checkers


class GarsiaLittleReport(Record):
    """Both cover sums of the cover-sum identity at (v, r)."""

    __slots__ = ("v", "r", "plus_covers", "minus_covers", "plus_table", "minus_table")

    @property
    def equal(self) -> bool:
        return self.plus_table == self.minus_table


def check_garsia_little(v: AffinePermutation, r: int) -> GarsiaLittleReport:
    """Compare the table sums over left and right r-covers of v.

    Counts come from factorization counting only, independent of the
    bijection machinery.
    """
    return garsia_little_reports(v, covers_above(v), [r])[0]


def garsia_little_reports(v: AffinePermutation, covers, residues) -> list[GarsiaLittleReport]:
    """check_garsia_little at each residue, from covers, the (w, t) pairs
    of covers_above(v); the table of each cover is computed once."""
    tables = [(w, t, stanley_table(w)) for w, t in covers]
    zero = CoefficientTable.zero(v.n, v.length() + 1)

    def cover_sum(r, side):
        chosen = [(w, table) for w, t, table in tables if is_r_cover(t, r, side)]
        return [w for w, _ in chosen], sum((table for _, table in chosen), zero)

    reports = []
    for r in residues:
        (plus, plus_table), (minus, minus_table) = cover_sum(r, "right"), cover_sum(r, "left")
        reports.append(GarsiaLittleReport(v, r, plus, minus, plus_table, minus_table))
    return reports


class ChevalleyReport(Record):
    """Both sides of the degree-one product rule at (v, r)."""

    __slots__ = ("v", "r", "left_table", "right_table", "terms")

    @property
    def equal(self) -> bool:
        return self.left_table == self.right_table


def check_chevalley(v: AffinePermutation, r: int) -> ChevalleyReport:
    """Compare s_1 times the table of v against the cover sum weighted by
    the Chevalley coefficients, on partitions with parts <= n-1."""
    return chevalley_reports(v, covers_above(v), [r])[0]


def chevalley_reports(v: AffinePermutation, covers, residues) -> list[ChevalleyReport]:
    """check_chevalley at each residue, from covers, the (w, t) pairs of
    covers_above(v); s_1 times the table of v and the table of each
    cover are computed once."""
    left = multiply_by_s1(stanley_table(v))
    tables = [(w, t, stanley_table(w)) for w, t in covers]
    reports = []
    for r in residues:
        right = CoefficientTable.zero(v.n, v.length() + 1)
        terms = []
        for w, t, table in tables:
            c = residue_count(t, r)
            if c:
                terms.append((w, c))
                right = right + table.scaled(c)
        reports.append(ChevalleyReport(v, r, left, right, terms))
    return reports


# ---------------------------------------------------------------------------
# Affine Schur expansion


def affine_schur_basis(
    n: int, degree: int
) -> list[tuple[AffinePermutation, Partition, CoefficientTable]]:
    """All Grassmannian elements of the given length with labels and tables,
    sorted by partition label; each is built from its label and checked to
    be Grassmannian of that length and label."""
    basis = []
    for label in partitions_bounded(degree, n - 1):
        w = grassmannian_from_partition(n, label)
        if not is_grassmannian(w) or w.length() != degree or grassmannian_to_partition(w) != label:
            raise SingularSystemError(f"the Grassmannian element of {label} at n = {n} is wrong")
        basis.append((w, label, stanley_table(w)))
    return basis


def _solve_unitriangular(basis, target: CoefficientTable) -> tuple[list[int], dict]:
    """Coefficients of target in the basis, by integer back-substitution
    from the lexicographically largest label down, and the residual
    target - sum of value * table, by partition.

    Each basis table must have entry 1 at its label and no support
    lexicographically above it; this is checked, not assumed.
    """
    residual = dict(target.entries)
    solution = []
    for _, label, table in reversed(basis):
        if table.entries.get(label) != 1 or max(table.entries) != label:
            raise SingularSystemError(f"basis table of {label} is not unitriangular")
        value = residual.get(label, 0)
        for mu, entry in table.entries.items():
            residual[mu] = residual.get(mu, 0) - value * entry
        solution.append(value)
    return solution[::-1], residual


class ExpansionResult(Record):
    """Coefficients of one table in the Grassmannian basis.

    `exact` records that the combination reproduces the input table with
    zero residual; it is verified, not assumed.
    """

    __slots__ = ("coefficients", "exact")


def expand_in_affine_schur(w: AffinePermutation, *, basis=None) -> ExpansionResult:
    """Solve for the table of w in the span of the same-degree Grassmannian
    tables, by unitriangular back-substitution; basis, if given, is
    affine_schur_basis(w.n, w.length()), built once for many w."""
    if basis is None:
        basis = affine_schur_basis(w.n, w.length())
    solution, residual = _solve_unitriangular(basis, stanley_table(w))
    coefficients = {label: value for (_, label, _), value in zip(basis, solution)}
    return ExpansionResult(coefficients, not any(residual.values()))


# ---------------------------------------------------------------------------
# Classical tree step


def classical_element(sigma) -> AffinePermutation:
    """Embed a one-line permutation of [1, n] as an affine element."""
    return from_window(len(tuple(sigma)), tuple(sigma))


def ls_children(sigma) -> list[tuple[int, ...]]:
    """Children of a non-identity finite permutation in the classical
    recursion tree.

    With r the last descent, s the last position past r holding a value
    below sigma_r, and I the positions i < r with sigma_i < sigma_s and
    no intermediate value in (sigma_i, sigma_s): the children are
    pi * t_{i,r} for pi = sigma * t_{r,s}, one per i in I.  When I is
    empty the single child prepends a fixed point, living one rank up.
    """
    sigma = tuple(int(x) for x in sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise InputError(f"{sigma} is not a permutation of 1..{n}")
    if sigma == tuple(range(1, n + 1)):
        raise IdentityInputError("identity permutation has no children")
    r = max(i for i in range(1, n) if sigma[i - 1] > sigma[i])
    s = max(i for i in range(r + 1, n + 1) if sigma[i - 1] < sigma[r - 1])
    eye = [
        i
        for i in range(1, r)
        if sigma[i - 1] < sigma[s - 1]
        and all(
            not sigma[i - 1] < sigma[j - 1] < sigma[s - 1] for j in range(i + 1, r)
        )
    ]
    if not eye:
        return [(1,) + tuple(x + 1 for x in sigma)]
    pi = list(sigma)
    pi[r - 1], pi[s - 1] = pi[s - 1], pi[r - 1]
    children = []
    for i in eye:
        child = pi[:]
        child[i - 1], child[r - 1] = child[r - 1], child[i - 1]
        children.append(tuple(child))
    return children
