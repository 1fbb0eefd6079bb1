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

Products with the degree-one Schur function, cover-sum identities, and
expansions in the Grassmannian (affine Schur) tables are all computed
in exact integer/rational arithmetic; no floating point anywhere.  The
Grassmannian tables are unitriangular in lexicographic order of their
labels (checked at runtime), so an expansion is an integer
back-substitution.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
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
    chevalley_coefficient,
    covers_above,
    from_window,
    grassmannian_from_partition,
    grassmannian_to_partition,
    is_grassmannian,
    left_r_covers,
    right_r_covers,
)
from .little import AlphaDecomposition
from .words import CyclicSubset, cd_element


def compositions_bounded(total: int, max_part: int):
    """All compositions of total with parts in [1, max_part], lex order."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in compositions_bounded(total - first, max_part):
            yield (first,) + rest


def partitions_bounded(total: int, max_part: int) -> list[Partition]:
    """All partitions of total with parts <= max_part, sorted ascending."""

    def gen(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return sorted(gen(total, max_part))


@lru_cache(maxsize=None)
def _cd_factors(n: int, size: int) -> tuple:
    """(members, element, inverse) for every proper subset of that size."""
    out = []
    if size <= n - 1:
        for members in itertools.combinations(range(n), size):
            element = cd_element(CyclicSubset(n, members))
            out.append((members, element, element.inverse()))
    return tuple(out)


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
    out = []

    def descend(rest: AffinePermutation, remaining, chosen):
        if not remaining:
            if rest.is_identity():
                out.append(chosen)
            return
        target = rest.length() - remaining[0]
        for members, _, inverse in _cd_factors(w.n, remaining[0]):
            tail = inverse * rest
            if tail.length() == target:
                descend(tail, remaining[1:], chosen + (members,))

    descend(w, alpha, ())
    return [
        AlphaDecomposition(w.n, tuple(CyclicSubset(w.n, m) for m in members))
        for members in out
    ]


@lru_cache(maxsize=None)
def _coefficient(w: AffinePermutation, alpha: tuple[int, ...]) -> int:
    if not alpha:
        return 1 if w.is_identity() else 0
    # peel the rightmost factor
    last = alpha[-1]
    target = w.length() - last
    total = 0
    for _, element, inverse in _cd_factors(w.n, last):
        head = w * inverse
        if head.length() == target:
            total += _coefficient(head, alpha[:-1])
    return total


def coefficient(w: AffinePermutation, alpha) -> int:
    """Number of alpha-decompositions of w, without materializing them."""
    return _coefficient(w, _composition_of_length(w, alpha))


@dataclass
class CoefficientTable:
    """Partition-indexed monomial coefficients of one symmetric function.

    Keys are partitions of `degree` with parts <= n-1; zero entries are
    dropped so equality is semantic.
    """

    n: int
    degree: int
    entries: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {k: v for k, v in self.entries.items() if v != 0}

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientTable)
            and self.n == other.n
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def items_sorted(self):
        return sorted(self.entries.items())

    def to_json_dict(self, window=None) -> dict:
        out = {
            "n": self.n,
            "degree": self.degree,
            "coefficients": {
                ",".join(str(p) for p in key): value for key, value in self.items_sorted()
            },
        }
        if window is not None:
            out["window"] = list(window)
        return out

    @classmethod
    def zero(cls, n: int, degree: int) -> "CoefficientTable":
        return cls(n, degree, {})


@lru_cache(maxsize=None)
def _commutation_certificate(n: int, degree: int) -> None:
    """Check h_i h_j = h_j h_i for all 1 <= i < j <= n-1 with i + j <= degree.

    Each product is the {element: count} map of the factor pairs whose
    lengths add.  By associativity this makes every coefficient of
    degree `degree` invariant under rearranging its composition.
    """

    def product(i: int, j: int) -> Counter:
        products = (
            left * right for _, left, _ in _cd_factors(n, i) for _, right, _ in _cd_factors(n, j)
        )
        return Counter(p for p in products if p.length() == i + j)

    for i in range(1, n):
        for j in range(i + 1, min(n - 1, degree - i) + 1):
            if product(i, j) != product(j, i):
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
    # counted at the ascending rearrangement, so the largest part is
    # peeled first: `expand -n 5 [-1,-2,1,10,7]` then evaluates
    # _coefficient 1511 times instead of 3810
    return CoefficientTable(
        w.n,
        degree,
        {key: _coefficient(w, key[::-1]) for key in partitions_bounded(degree, w.n - 1)},
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


@dataclass
class GarsiaLittleReport:
    """Both cover sums of the cover-sum identity at (v, r)."""

    v: AffinePermutation
    r: int
    plus_covers: list[AffinePermutation]
    minus_covers: list[AffinePermutation]
    plus_table: CoefficientTable
    minus_table: CoefficientTable

    @property
    def equal(self) -> bool:
        return self.plus_table == self.minus_table


def check_garsia_little(v: AffinePermutation, r: int) -> GarsiaLittleReport:
    """Compare the table sums over left and right r-covers of v.

    Counts come from factorization counting only, independent of the
    bijection machinery.
    """
    degree = v.length() + 1
    plus = right_r_covers(v, r)
    minus = left_r_covers(v, r)
    plus_table = CoefficientTable.zero(v.n, degree)
    for w in plus:
        plus_table = plus_table + stanley_table(w)
    minus_table = CoefficientTable.zero(v.n, degree)
    for u in minus:
        minus_table = minus_table + stanley_table(u)
    return GarsiaLittleReport(v, r, plus, minus, plus_table, minus_table)


@dataclass
class ChevalleyReport:
    """Both sides of the degree-one product rule at (v, r)."""

    v: AffinePermutation
    r: int
    left_table: CoefficientTable
    right_table: CoefficientTable
    terms: list[tuple[AffinePermutation, int]]

    @property
    def equal(self) -> bool:
        return self.left_table == self.right_table


def check_chevalley(v: AffinePermutation, r: int) -> ChevalleyReport:
    """Compare s_1 times the table of v against the cover sum weighted by
    the Chevalley coefficients, on partitions with parts <= n-1."""
    left = multiply_by_s1(stanley_table(v))
    right = CoefficientTable.zero(v.n, v.length() + 1)
    terms = []
    for w, _ in covers_above(v):
        c = chevalley_coefficient(v, w, r)
        if c:
            terms.append((w, c))
            right = right + stanley_table(w).scaled(c)
    return ChevalleyReport(v, r, left, right, terms)


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


def _solve_unitriangular(basis, target: CoefficientTable) -> list[int]:
    """Coefficients of target in the basis, by integer back-substitution
    from the lexicographically largest label down.

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
    return solution[::-1]


@dataclass
class ExpansionResult:
    """Coefficients of one table in the Grassmannian basis.

    `exact` records that the combination reproduces the input table with
    zero residual; it is verified, not assumed.
    """

    coefficients: dict[Partition, Fraction]
    exact: bool


def expand_in_affine_schur(w: AffinePermutation) -> ExpansionResult:
    """Solve for the table of w in the span of the same-degree Grassmannian
    tables, by unitriangular back-substitution."""
    degree = w.length()
    basis = affine_schur_basis(w.n, degree)
    monomials = partitions_bounded(degree, w.n - 1)
    target = stanley_table(w)
    solution = [Fraction(value) for value in _solve_unitriangular(basis, target)]
    coefficients = {label: value for (_, label, _), value in zip(basis, solution)}
    return ExpansionResult(coefficients, _residual_zero(basis, solution, target, monomials))


def _residual_zero(basis, solution, target, monomials) -> bool:
    for mu in monomials:
        total = sum(
            value * table.entries.get(mu, 0) for (_, _, table), value in zip(basis, solution)
        )
        if total != target.entries.get(mu, 0):
            return False
    return True


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
