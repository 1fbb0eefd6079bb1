import collections
import functools
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import affsym.group
import affsym.stanley as stanley_module
import affsym.verify
from affsym.cli import main
from affsym.errors import (
    DegreeMismatchError,
    IdentityInputError,
    InputError,
    PeriodMismatchError,
    SingularSystemError,
    SymmetryViolationError,
)
from affsym.group import (
    AffinePermutation,
    bott_level_sizes,
    bruhat_ball,
    chevalley_coefficient,
    covers_above,
    elements_of_length,
    from_window,
    grassmannian_to_partition,
    identity,
    is_grassmannian,
    residue_count,
    simple,
)
from affsym.stanley import (
    CoefficientTable,
    affine_schur_basis,
    alpha_decompositions,
    check_chevalley,
    check_garsia_little,
    chevalley_reports,
    classical_element,
    coefficient,
    compositions_bounded,
    expand_in_affine_schur,
    ls_children,
    multiply_by_s1,
    partitions_bounded,
    stanley_table,
)
from affsym.verify import chevalley_sweep, garsia_little_sweep
from affsym.words import (
    CyclicSubset,
    _cd_masks,
    _peel,
    _reduced_words,
    cd_element,
    cd_subset,
    decomposition_masks,
    evaluate,
    parse_word,
)


# ---------------------------------------------------------------------------
# enumeration helpers


def test_compositions_and_partitions():
    assert list(compositions_bounded(3, 2)) == [(1, 1, 1), (1, 2), (2, 1)]
    assert list(compositions_bounded(0, 3)) == [()]
    assert partitions_bounded(4, 3) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]
    assert partitions_bounded(0, 2) == [()]


def test_enumerations_match_brute_force():
    # a bound below 1 or a negative total leaves only the empty
    # composition of 0, or nothing
    for total in range(-1, 8):
        for max_part in range(5):
            brute = sorted(
                c
                for k in range(max(total, 0) + 1)
                for c in itertools.product(range(1, max_part + 1), repeat=k)
                if sum(c) == total
            )
            assert list(compositions_bounded(total, max_part)) == brute
            partitions = {tuple(sorted(c, reverse=True)) for c in brute}
            assert partitions_bounded(total, max_part) == sorted(partitions)


def test_partitions_bounded_returns_a_fresh_list():
    first = partitions_bounded(4, 3)
    first.append((9,))
    first[0] = (4,)
    assert partitions_bounded(4, 3) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)]


def test_partitions_bounded_builds_each_key_once_per_sweep(monkeypatch):
    built, calls = collections.Counter(), collections.Counter()
    body, public = stanley_module._partitions.__wrapped__, stanley_module.partitions_bounded

    def counting_body(total, max_part):
        built[total, max_part] += 1
        return body(total, max_part)

    def counting_public(total, max_part):
        calls[total, max_part] += 1
        return public(total, max_part)

    monkeypatch.setattr(stanley_module, "_partitions", functools.lru_cache(counting_body))
    monkeypatch.setattr(stanley_module, "partitions_bounded", counting_public)
    results = affsym.verify.sweep_ball(4, 4, ["garsia-little", "chevalley"])
    assert all(not failures for _, failures in results.values())
    assert set(built) == set(calls) and set(built.values()) == {1}
    assert sum(calls.values()) > len(calls)


# ---------------------------------------------------------------------------
# decomposition counting


def test_alpha_decompositions_s3_long_element():
    w = from_window(3, [3, 2, 1])
    decs = alpha_decompositions(w, (2, 1))
    assert len(decs) == 1
    assert [factor.members for factor in decs[0].factors] == [(1, 2), (2,)]


def test_alpha_decompositions_edge_cases():
    assert len(alpha_decompositions(simple(4, 2), (1,))) == 1
    assert alpha_decompositions(from_window(3, [3, 2, 1]), (3,)) == []
    with pytest.raises(DegreeMismatchError):
        alpha_decompositions(simple(3, 0), (2,))
    with pytest.raises(DegreeMismatchError) as raised:
        alpha_decompositions(simple(3, 0), (2, -1))
    assert str(raised.value) == "composition parts must be positive: (2, -1)"


def _object_descent(w, alpha):
    """alpha_decompositions as first written: peel each factor off the left
    by a window product, keeping it when the length drops by its size."""
    out = []

    def descend(rest, remaining, chosen):
        if not remaining:
            if rest.is_identity():
                out.append(chosen)
            return
        target = rest.length() - remaining[0]
        for members in itertools.combinations(range(w.n), remaining[0]):
            tail = cd_element(CyclicSubset(w.n, members)).inverse() * rest
            if tail.length() == target:
                descend(tail, remaining[1:], chosen + (members,))

    descend(w, tuple(alpha), ())
    return out


@pytest.mark.parametrize("n,max_length", [(2, 5), (3, 5), (4, 5), (5, 4)])
def test_alpha_decompositions_match_object_descent(n, max_length):
    for l in range(max_length + 1):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, n - 1):
                decs = alpha_decompositions(w, alpha)
                members = [tuple(f.members for f in d.factors) for d in decs]
                assert members == _object_descent(w, alpha)
                assert all(d.product() == w for d in decs)


def _masks_per_profile(w, alpha):
    """decomposition_masks as first written: one left-peel descent per
    profile, sharing no peel with any other profile."""
    n, out = w.n, []
    identity_window = tuple(range(1, n + 1))

    def descend(u, remaining, chosen):
        if not remaining:
            if u == identity_window:
                out.append(chosen)
            return
        for mask, letters in _cd_masks(n, remaining[0]):
            tail = _peel(n, u, letters)
            if tail is not None:
                descend(tail, remaining[1:], chosen + (mask,))

    descend(w.inverse().window, alpha, ())
    return out


def _check_shared_descent(w):
    profiles = list(compositions_bounded(w.length(), w.n - 1))
    got = decomposition_masks(w, profiles)
    # every profile is a key, in the order given; [] when it has none
    assert list(got) == profiles
    for alpha in profiles:
        assert got[alpha] == _masks_per_profile(w, alpha)
        assert decomposition_masks(w, [alpha]) == {alpha: got[alpha]}
    assert decomposition_masks(w, profiles[::-1]) == got
    return got


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decomposition_masks_match_per_profile_descent(n):
    empty = 0
    for l in range(7):
        for w in elements_of_length(n, l):
            empty += sum(not masks for masks in _check_shared_descent(w).values())
    assert empty or n == 2


def test_decomposition_masks_match_per_profile_descent_sampled():
    for w in _sample(5, 8, 8, seed=8):
        _check_shared_descent(w)


def test_decomposition_masks_of_an_unused_profile_are_empty():
    w = from_window(3, [3, 2, 1])
    assert decomposition_masks(w, [(3,), (2, 1)]) == {(3,): [], (2, 1): [(0b110, 0b100)]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_ones_decompositions_are_the_reduced_words(n):
    # the bijection sweep reads each cover's reduced words off its
    # all-ones decompositions, in the order of reduced_words
    for l in range(6):
        ones = (1,) * l
        for w in elements_of_length(n, l):
            words = [tuple(1 << a for a in letters) for letters in _reduced_words(w)]
            assert decomposition_masks(w, [ones])[ones] == words


def test_coefficient_examples():
    w = from_window(3, [3, 2, 1])
    assert coefficient(w, (1, 1, 1)) == 2
    assert coefficient(w, (2, 1)) == 1
    assert coefficient(w, (1, 2)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_part_coefficient_detects_cyclically_decreasing(n):
    for l in range(1, n):
        for w in elements_of_length(n, l):
            expected = 1 if cd_subset(w) is not None else 0
            assert coefficient(w, (l,)) == expected


@functools.cache
def _object_coefficient(w, alpha):
    """coefficient as first written: peel the rightmost factor off w by a
    window product with its inverse, keeping it when the length drops by
    its size."""
    if not alpha:
        return 1 if w.is_identity() else 0
    target = w.length() - alpha[-1]
    total = 0
    for members in itertools.combinations(range(w.n), alpha[-1]):
        head = w * cd_element(CyclicSubset(w.n, members)).inverse()
        if head.length() == target:
            total += _object_coefficient(head, alpha[:-1])
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coefficient_matches_object_right_peel(n):
    for l in range(7):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, n - 1):
                assert coefficient(w, alpha) == _object_coefficient(w, alpha)


def test_coefficient_matches_object_right_peel_sampled():
    for w in _sample(5, 10, 8, seed=5):
        for alpha in compositions_bounded(10, 4):
            assert coefficient(w, alpha) == _object_coefficient(w, alpha)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parts_of_size_at_least_n_count_nothing(n):
    # no cyclically decreasing factor has n letters: such parts give 0
    # and no decomposition, not a FullSetError
    for l in (n, n + 1):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, l):
                if max(alpha) >= n:
                    assert coefficient(w, alpha) == 0
                    assert alpha_decompositions(w, alpha) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coefficient_counts_match_enumeration(n):
    for l in range(4):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, n - 1):
                assert coefficient(w, alpha) == len(alpha_decompositions(w, alpha))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coefficient_symmetry(n):
    for l in range(5):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, n - 1):
                key = tuple(sorted(alpha, reverse=True))
                assert coefficient(w, alpha) == coefficient(w, key)


# ---------------------------------------------------------------------------
# tables


def test_stanley_table_examples():
    assert stanley_table(from_window(3, [3, 2, 1])).entries == {(2, 1): 1, (1, 1, 1): 2}
    assert stanley_table(simple(4, 2)).entries == {(1,): 1}
    assert stanley_table(evaluate(parse_word(2, "010"))).entries == {(1, 1, 1): 1}
    assert stanley_table(identity(3)).entries == {(): 1}


def _sample(n, length, count, seed):
    return random.Random(seed).sample(elements_of_length(n, length), count)


def _stanley_table_by_compositions(w):
    """The table of w counted at every composition, with the rearrangement
    check made element by element."""
    by_partition: dict = {}
    for alpha in compositions_bounded(w.length(), w.n - 1):
        key = tuple(sorted(alpha, reverse=True))
        by_partition.setdefault(key, {})[alpha] = coefficient(w, alpha)
    entries = {}
    for key, counts in by_partition.items():
        assert len(set(counts.values())) == 1, (key, counts)
        entries[key] = next(iter(counts.values()))
    return CoefficientTable(w.n, w.length(), entries)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stanley_table_matches_composition_oracle(n):
    for l in range(7):
        for w in elements_of_length(n, l):
            assert stanley_table(w) == _stanley_table_by_compositions(w)


def test_stanley_table_matches_composition_oracle_sampled():
    for w in _sample(5, 10, 8, seed=11):
        assert stanley_table(w) == _stanley_table_by_compositions(w)


# Drops the first size-1 factor from the one factor table, so the counts
# and the certificate both see h_1 without it.
DROPPED_FACTOR = """
import sys
import affsym.stanley as stanley
from affsym.cli import main
real = stanley._cd_masks
stanley._cd_masks = lambda n, size: real(n, size)[1:] if size == 1 else real(n, size)
if __debug__:
    sys.exit("asserts are on: run with -O")
sys.exit(main(sys.argv[1:]))
"""
TABLE_WITH_DROPPED_FACTOR = ("stanley-table", "-n", "4", "[-1,4,1,6]")


@pytest.fixture
def dropped_factor(monkeypatch):
    """`_cd_masks` without its first size-1 factor, on cold caches."""
    real = stanley_module._cd_masks

    def faulty(n, size):
        factors = real(n, size)
        return factors[1:] if size == 1 else factors

    memos = (real, stanley_module._coefficient, stanley_module._commutation_certificate)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(stanley_module, "_cd_masks", faulty)
    yield
    monkeypatch.undo()
    for memo in memos:
        memo.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factor_products_match_element_products(n):
    # the certificate's products on windows against the element product
    # of the cyclically decreasing elements, subset by subset
    elements = [
        [cd_element(CyclicSubset(n, members)) for members in itertools.combinations(range(n), k)]
        for k in range(n)
    ]
    for i, j in itertools.product(range(n), repeat=2):
        products = (left * right for left in elements[i] for right in elements[j])
        expected = collections.Counter(p.window for p in products if p.length() == i + j)
        assert stanley_module._factor_products(n, i, j) == expected


def test_commutation_certificate_catches_dropped_factor(dropped_factor):
    with pytest.raises(SymmetryViolationError):
        stanley_table(from_window(4, [-1, 4, 1, 6]))


def test_stanley_table_cli_exits_1_on_dropped_factor(dropped_factor, capsys):
    assert main(list(TABLE_WITH_DROPPED_FACTOR)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_stanley_table_cli_exits_1_on_dropped_factor_under_optimize(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_FACTOR, *TABLE_WITH_DROPPED_FACTOR],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal error:")


def test_warm_stanley_table_works_on_windows(monkeypatch):
    # with the certificate warm, a table multiplies no elements and
    # computes a bounded number of lengths, however many keys it counts
    elements = _sample(5, 10, 4, seed=3)
    stanley_module._commutation_certificate(5, 10)
    stanley_module._coefficient.cache_clear()
    calls = collections.Counter()
    for name in ("__mul__", "length"):
        real = getattr(AffinePermutation, name)

        def counting(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(AffinePermutation, name, counting)
    for w in elements:
        calls.clear()
        stanley_table(w)
        assert calls["__mul__"] == 0
        assert calls["length"] <= 1
    assert stanley_module._coefficient.cache_info().misses > len(elements)


def test_table_arithmetic():
    zero = CoefficientTable.zero(4, 2)
    t = CoefficientTable(4, 2, {(2,): 1, (1, 1): 0})
    assert t.entries == {(2,): 1}
    assert zero + t == t
    assert t.scaled(3).entries == {(2,): 3}
    assert zero == CoefficientTable(4, 2, {})
    with pytest.raises(PeriodMismatchError):
        t + CoefficientTable.zero(5, 2)
    with pytest.raises(DegreeMismatchError):
        t + CoefficientTable.zero(4, 3)


def test_multiply_by_s1():
    t = CoefficientTable(4, 1, {(1,): 1})
    assert multiply_by_s1(t).entries == {(2,): 1, (1, 1): 2}
    assert multiply_by_s1(t).degree == 2
    assert multiply_by_s1(CoefficientTable.zero(4, 3)) == CoefficientTable.zero(4, 4)


def test_multiply_by_s1_truncates_at_period():
    # for period 2 the part-2 monomial falls outside the table domain
    t = CoefficientTable(2, 1, {(1,): 1})
    assert multiply_by_s1(t).entries == {(1, 1): 2}


# ---------------------------------------------------------------------------
# cover-sum identity


def test_garsia_little_example_8():
    v = from_window(4, [-1, 1, 4, 6])
    rep1 = check_garsia_little(v, 1)
    assert rep1.equal
    assert {w.window for w in rep1.plus_covers} == {(1, -1, 4, 6)}
    assert {w.window for w in rep1.minus_covers} == {(-3, 3, 4, 6), (-2, 1, 4, 7)}
    assert rep1.plus_table == stanley_table(from_window(4, [1, -1, 4, 6]))

    rep2 = check_garsia_little(v, 2)
    assert rep2.equal
    assert rep2.plus_table == stanley_table(from_window(4, [-1, 4, 1, 6])) + stanley_table(
        from_window(4, [-3, 3, 4, 6])
    )
    assert rep2.minus_table == stanley_table(from_window(4, [1, -1, 4, 6])) + stanley_table(
        from_window(4, [-1, 0, 5, 6])
    )


@pytest.mark.parametrize("n", [2, 3])
def test_garsia_little_sweep_small(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            for r in range(n):
                assert check_garsia_little(v, r).equal


# ---------------------------------------------------------------------------
# degree-one product rule


def test_chevalley_example_6():
    v = from_window(4, [2, 3, 0, 5])
    report = check_chevalley(v, 2)
    assert report.equal
    assert [(w.window, c) for w, c in report.terms] == [
        ((2, 5, 0, 3), 1),
        ((2, 4, -1, 5), 2),
    ]


def _per_residue_chevalley(v, r):
    """Both sides of the product rule at (v, r) as check_chevalley first
    computed them: covers and tables recomputed for every residue."""
    right, terms = CoefficientTable.zero(v.n, v.length() + 1), []
    for w, t in covers_above(v):
        c = residue_count(t, r)
        if c:
            terms.append((w, c))
            right = right + stanley_table(w).scaled(c)
    return multiply_by_s1(stanley_table(v)), right, terms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chevalley_reports_match_per_residue_oracle(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            reports = chevalley_reports(v, covers_above(v), range(n))
            assert [report.r for report in reports] == list(range(n))
            for report in reports:
                expected = _per_residue_chevalley(v, report.r)
                assert (report.left_table, report.right_table, report.terms) == expected


def test_chevalley_sweep_computes_covers_once_per_element(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    calls = []
    real = affsym.verify.covers_above
    monkeypatch.setattr(affsym.verify, "covers_above", lambda v: calls.append(v) or real(v))
    assert chevalley_sweep(4, 3) == (4 * sum(bott_level_sizes(4, 3)), [])
    assert calls == [v for level in bruhat_ball(4, 3) for v in level]


def test_garsia_little_sweep_computes_covers_once_per_element(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # 69 elements of length <= 4 at n = 4, one cover list each for all r
    calls = []
    for module in (affsym.group, stanley_module, affsym.verify):
        real = module.covers_above
        counting = lambda v, real=real: calls.append(v) or real(v)
        monkeypatch.setattr(module, "covers_above", counting)
    assert garsia_little_sweep(4, 4) == (4 * 69, [])
    assert calls == [v for level in bruhat_ball(4, 4) for v in level]
    assert len(calls) == 69


def test_garsia_little_sweep_computes_each_cover_table_once_per_element(monkeypatch, capsys):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # one table per cover of each v, shared by both sides of every residue
    calls = []
    real = stanley_module.stanley_table
    monkeypatch.setattr(stanley_module, "stanley_table", lambda w: calls.append(w) or real(w))
    assert main(["verify", "-n", "4", "--max-length", "4", "garsia-little"]) == 0
    assert capsys.readouterr().out == "garsia-little: 276 instances, ok\nall checks passed\n"
    covers = [w for level in bruhat_ball(4, 4) for v in level for w, _ in covers_above(v)]
    assert calls == covers
    assert len(calls) == 416


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chevalley_identity_base(n):
    for r in range(n):
        report = check_chevalley(identity(n), r)
        assert report.equal
        assert report.left_table.entries == {(1,): 1}
        assert [(w, c) for w, c in report.terms] == [(simple(n, r), 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_chevalley_difference_gives_cover_sum_identity(n):
    # the right sides of the rules at r and r+1 differ by the signed
    # cover-sum identity at residue r+1
    from affsym.group import left_r_covers, right_r_covers

    for l in range(4):
        for v in elements_of_length(n, l):
            for r in range(n):
                diff: dict = {}
                for w, _ in covers_above(v):
                    c = chevalley_coefficient(v, w, r) - chevalley_coefficient(v, w, r + 1)
                    for key, value in stanley_table(w).entries.items():
                        diff[key] = diff.get(key, 0) + c * value
                expected: dict = {}
                for u in left_r_covers(v, r + 1):
                    for key, value in stanley_table(u).entries.items():
                        expected[key] = expected.get(key, 0) + value
                for w in right_r_covers(v, r + 1):
                    for key, value in stanley_table(w).entries.items():
                        expected[key] = expected.get(key, 0) - value
                diff = {k: x for k, x in diff.items() if x}
                expected = {k: x for k, x in expected.items() if x}
                assert diff == expected


# ---------------------------------------------------------------------------
# affine Schur expansion


def test_affine_schur_basis_examples():
    basis = affine_schur_basis(4, 4)
    by_label = {label: w for w, label, _ in basis}
    assert by_label[(2, 1, 1)].window == (-2, 1, 4, 7)
    assert by_label[(2, 2)].window == (-1, 0, 5, 6)
    assert [label for _, label, _ in basis] == partitions_bounded(4, 3)

    low = affine_schur_basis(3, 0)
    assert len(low) == 1 and low[0][0].is_identity() and low[0][1] == ()

    assert len(affine_schur_basis(3, 4)) == 3


def basis_by_filtering(n, degree):
    """Reference basis: the Grassmannian elements among all elements of
    that length, with their labels, sorted by label."""
    grassmannian = [w for w in elements_of_length(n, degree) if is_grassmannian(w)]
    return sorted(((w, grassmannian_to_partition(w)) for w in grassmannian), key=lambda b: b[1])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_affine_schur_basis_matches_filtered_enumeration(n):
    for degree in range(9):
        basis = affine_schur_basis(n, degree)
        assert [(w, label) for w, label, _ in basis] == basis_by_filtering(n, degree)
        assert all(table == stanley_table(w) for w, _, table in basis)


def test_expand_example_8():
    result = expand_in_affine_schur(from_window(4, [-1, 4, 1, 6]))
    assert result.exact
    nonzero = {k: v for k, v in result.coefficients.items() if v != 0}
    assert nonzero == {(2, 1, 1): Fraction(1), (2, 2): Fraction(1)}


def test_expand_grassmannian_is_unit_vector():
    for n in (3, 4):
        for l in range(5):
            for w in elements_of_length(n, l):
                if not is_grassmannian(w):
                    continue
                result = expand_in_affine_schur(w)
                assert result.exact
                nonzero = {k: v for k, v in result.coefficients.items() if v != 0}
                assert nonzero == {grassmannian_to_partition(w): Fraction(1)}


def _solve_gauss(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over exact rationals; square system."""
    size = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("basis tables are linearly dependent")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [value * inv for value in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def _expand_by_gauss(w):
    """Coefficients of the table of w in the Grassmannian tables, by a
    dense Gauss solve that assumes no triangularity."""
    basis = affine_schur_basis(w.n, w.length())
    monomials = partitions_bounded(w.length(), w.n - 1)
    target = stanley_table(w)
    matrix = [
        [Fraction(table.entries.get(mu, 0)) for _, _, table in basis] for mu in monomials
    ]
    rhs = [Fraction(target.entries.get(mu, 0)) for mu in monomials]
    return dict(zip((label for _, label, _ in basis), _solve_gauss(matrix, rhs)))


def test_exact_solver_and_singular_detection():
    solution = _solve_gauss(
        [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]],
        [Fraction(5), Fraction(10)],
    )
    assert solution == [Fraction(1), Fraction(3)]
    with pytest.raises(SingularSystemError):
        _solve_gauss(
            [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
            [Fraction(1), Fraction(2)],
        )


def test_expand_matches_gauss_oracle():
    elements = [w for n in (2, 3, 4) for l in range(6) for w in elements_of_length(n, l)]
    elements += _sample(5, 10, 8, seed=7)
    for w in elements:
        result = expand_in_affine_schur(w)
        assert result.exact
        assert result.coefficients == _expand_by_gauss(w)
        assert all(type(value) is int for value in result.coefficients.values())


def test_non_triangular_basis_is_singular(monkeypatch):
    real = stanley_module.affine_schur_basis

    def tampered(n, degree):
        basis = real(n, degree)
        w, label, table = basis[0]
        entries = dict(table.entries)
        entries[basis[-1][1]] = 1  # support above the smallest label
        return [(w, label, CoefficientTable(n, degree, entries))] + basis[1:]

    monkeypatch.setattr(stanley_module, "affine_schur_basis", tampered)
    with pytest.raises(SingularSystemError):
        expand_in_affine_schur(from_window(4, [-1, 4, 1, 6]))


def test_basis_labels_must_be_the_partitions(monkeypatch):
    monkeypatch.setattr(stanley_module, "is_grassmannian", lambda w: False)
    with pytest.raises(SingularSystemError):
        affine_schur_basis(4, 2)


@pytest.mark.parametrize(
    "name, fake",
    [
        ("grassmannian_from_partition", lambda n, label: simple(n, 0)),  # Grassmannian, length 1
        ("grassmannian_to_partition", lambda w: (1,) * w.length()),  # wrong label
    ],
)
def test_basis_element_built_from_label_is_checked(monkeypatch, name, fake):
    monkeypatch.setattr(stanley_module, name, fake)
    with pytest.raises(SingularSystemError):
        affine_schur_basis(4, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expand_desk_scale_positivity(n):
    # empirical at this range: expansions are nonnegative integers
    for l in range(5):
        for w in elements_of_length(n, l):
            result = expand_in_affine_schur(w)
            assert result.exact
            for value in result.coefficients.values():
                assert value.denominator == 1 and value >= 0


# ---------------------------------------------------------------------------
# classical permutations


def _fin_times_s(perm, i):
    p = list(perm)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _fin_inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def _decreasing_perm(n, subset):
    p = tuple(range(1, n + 1))
    for i in sorted(subset, reverse=True):
        p = _fin_times_s(p, i)
    return p


def _fin_compose(u, v):
    return tuple(u[v[i] - 1] for i in range(len(u)))


def _classical_factorization_count(sigma, alpha):
    n = len(sigma)
    identity_perm = tuple(range(1, n + 1))

    def count(rest, parts):
        if not parts:
            return 1 if rest == identity_perm else 0
        total = 0
        for subset in itertools.combinations(range(1, n), parts[0]):
            factor = _decreasing_perm(n, subset)
            tail = _fin_compose(_fin_inverse(factor), rest)
            if _fin_inversions(tail) == _fin_inversions(rest) - parts[0]:
                total += count(tail, parts[1:])
        return total

    return count(sigma, alpha)


def _fin_inverse(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm, start=1):
        out[v - 1] = i
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_embedding(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        w = classical_element(sigma)
        if w.length() > 5:
            continue
        for alpha in compositions_bounded(w.length(), n - 1):
            for dec in alpha_decompositions(w, alpha):
                for factor in dec.factors:
                    assert 0 not in factor.members
            assert coefficient(w, alpha) == _classical_factorization_count(sigma, alpha)


def test_ls_children_examples():
    assert ls_children((1, 3, 2)) == [(2, 1, 3)]
    assert ls_children((2, 1)) == [(1, 3, 2)]
    with pytest.raises(IdentityInputError):
        ls_children((1, 2, 3))
    with pytest.raises(InputError) as raised:
        ls_children((1, 1))
    assert type(raised.value) is InputError
    assert str(raised.value) == "(1, 1) is not a permutation of 1..2"


def _fin_is_grassmannian(sigma):
    descents = [i for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1]]
    return len(descents) <= 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ls_children_sum_identity(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        if sigma == tuple(range(1, n + 1)):
            continue
        children = ls_children(sigma)
        if len(children[0]) != n:
            # empty-I case: the function is preserved under prepending
            child = children[0]
            parent_table = stanley_table(classical_element(sigma))
            child_table = stanley_table(classical_element(child))
            for key, value in parent_table.entries.items():
                assert child_table.entries.get(key, 0) == value
            continue
        total = CoefficientTable.zero(n, classical_element(sigma).length())
        for child in children:
            total = total + stanley_table(classical_element(child))
        assert total == stanley_table(classical_element(sigma))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ls_tree_terminates_at_grassmannian(n):
    for start in itertools.permutations(range(1, n + 1)):
        frontier = [start]
        for _ in range(200):
            frontier = [
                child
                for sigma in frontier
                if not _fin_is_grassmannian(sigma)
                for child in ls_children(sigma)
            ]
            if not frontier:
                break
        assert not frontier
