"""Acceptance suite: the desk-scale golden examples and property sweeps.

Every check is exact (integer/rational equality); each criterion prints
one PASS/FAIL line with its runtime.  Run with `pytest -s` to see the
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from affsym.group import (
    bruhat_leq,
    chevalley_coefficient,
    covers_above,
    elements_of_length,
    from_window,
    identity,
    left_r_covers,
    right_r_covers,
)
from affsym.little import (
    MarkedWord,
    PQPair,
    generalized_little,
    inverse_generalized_little,
    little_trace,
    phi,
    pq,
)
from affsym.stanley import (
    CoefficientTable,
    alpha_decompositions,
    check_chevalley,
    check_garsia_little,
    classical_element,
    coefficient,
    compositions_bounded,
    expand_in_affine_schur,
    ls_children,
    stanley_table,
)
from affsym.words import (
    CyclicSubset,
    Word,
    cd_element,
    cyclically_decreasing_elements,
    evaluate,
    insertion_index,
    is_reduced,
    marked_index,
    maximal_cyclic_intervals,
    parse_word,
    reduced_words,
)


@contextmanager
def criterion(num: int, description: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed >= limit:
            print(f"FAIL criterion {num}: {description} (over {limit}s: {elapsed:.2f}s)")
            raise AssertionError(f"criterion {num} exceeded its {limit}s budget")
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")


def test_criterion_01_chevalley_instance():
    with criterion(1, "degree-one product rule at v=[2,3,0,5], r=2", limit=1.0):
        v = from_window(4, [2, 3, 0, 5])
        weighted = [
            (w.window, chevalley_coefficient(v, w, 2))
            for w, _ in covers_above(v)
            if chevalley_coefficient(v, w, 2) > 0
        ]
        assert sorted(weighted) == [((2, 4, -1, 5), 2), ((2, 5, 0, 3), 1)]
        report = check_chevalley(v, 2)
        assert report.equal
        assert [(w.window, c) for w, c in report.terms] == [
            ((2, 5, 0, 3), 1),
            ((2, 4, -1, 5), 2),
        ]


def test_criterion_02_cover_sets_identities_expansion():
    with criterion(2, "cover sets, both identities, and the expansion at v=[-1,1,4,6]", limit=5.0):
        v = from_window(4, [-1, 1, 4, 6])
        assert {w.window for w in right_r_covers(v, 1)} == {(1, -1, 4, 6)}
        assert {w.window for w in left_r_covers(v, 1)} == {(-3, 3, 4, 6), (-2, 1, 4, 7)}
        assert {w.window for w in right_r_covers(v, 2)} == {(-1, 4, 1, 6), (-3, 3, 4, 6)}
        assert {w.window for w in left_r_covers(v, 2)} == {(1, -1, 4, 6), (-1, 0, 5, 6)}
        for r in (1, 2):
            report = check_garsia_little(v, r)
            assert report.equal
        result = expand_in_affine_schur(from_window(4, [-1, 4, 1, 6]))
        assert result.exact
        assert {k: x for k, x in result.coefficients.items() if x != 0} == {
            (2, 1, 1): Fraction(1),
            (2, 2): Fraction(1),
        }


def test_criterion_03_walk_trace():
    with criterion(3, "five-row walk trace from 34102321042@5 over n=5", limit=1.0):
        v = evaluate(parse_word(5, "3410321042"))
        rows = little_trace(v, MarkedWord(parse_word(5, "34102321042"), 5))
        expected = [
            ("34102321042", 5, PQPair(5, 2, 5)),
            ("34101321042", 11, PQPair(5, 2, 3)),
            ("34101321041", 3, PQPair(5, 2, 1)),
            ("34001321041", 4, PQPair(5, 2, 3)),
            ("34041321041", 4, PQPair(5, -6, 2)),
        ]
        assert len(rows) == len(expected)
        for (m, pair), (word, mark, expected_pair) in zip(rows, expected):
            assert str(m.word) == word and m.mark == mark and pair == expected_pair
        assert str(rows[-1][0]) == "34041321041@4"


def test_criterion_04_word_level_bijection_suite():
    with criterion(4, "word-level bijection and path invariants, n in 2..4, l(v) <= 4", limit=300.0):
        for n in (2, 3, 4):
            for l in range(5):
                for v in elements_of_length(n, l):
                    for r in range(n):
                        plus = right_r_covers(v, r)
                        minus = left_r_covers(v, r)
                        expected = {
                            (u.window, a.letters) for u in minus for a in reduced_words(u)
                        }
                        images = []
                        for w in plus:
                            for a in reduced_words(w):
                                m = MarkedWord(a, marked_index(a, v))
                                out, path = phi(v, m)
                                assert is_reduced(out.word)
                                u = evaluate(out.word)
                                key = (u.window, out.word.letters)
                                assert key in expected
                                images.append(key)
                                for vertex in [m] + path[:-1]:
                                    assert (pq(v, vertex).p - r) % n == 0
                                assert (pq(v, path[-1]).q - r) % n == 0
                        assert len(images) == len(set(images))
                        assert set(images) == expected


def _factor_key(d):
    return tuple(factor.members for factor in d.factors)


def test_criterion_05_factor_level_bijection_suite():
    with criterion(5, "factor-level bijection, all profiles, n in 2..4, l(v) <= 4", limit=600.0):
        for n in (2, 3, 4):
            for l in range(5):
                for v in elements_of_length(n, l):
                    for r in range(n):
                        plus = right_r_covers(v, r)
                        minus = left_r_covers(v, r)
                        for alpha in compositions_bounded(l + 1, n - 1):
                            plus_decs = [
                                d for w in plus for d in alpha_decompositions(w, alpha)
                            ]
                            minus_decs = {
                                (u.window, _factor_key(d))
                                for u in minus
                                for d in alpha_decompositions(u, alpha)
                            }
                            images = set()
                            for d in plus_decs:
                                out = generalized_little(v, r, d)
                                assert out.alpha == d.alpha
                                assert inverse_generalized_little(v, r, out) == d
                                images.add((out.product().window, _factor_key(out)))
                            assert len(images) == len(plus_decs)
                            assert images == minus_decs
                            # independent counts of both sides
                            assert (
                                sum(coefficient(w, alpha) for w in plus)
                                == len(plus_decs)
                                == len(minus_decs)
                                == sum(coefficient(u, alpha) for u in minus)
                            )


def test_criterion_06_cover_sum_identity_by_counting():
    with criterion(6, "cover-sum identity by pure counting, n in 2..4, l(v) <= 4", limit=300.0):
        for n in (2, 3, 4):
            for l in range(5):
                for v in elements_of_length(n, l):
                    for r in range(n):
                        report = check_garsia_little(v, r)
                        assert report.equal
                        # the tables agree with the counts the factor-level
                        # bijection route verifies composition by composition
                        for alpha in compositions_bounded(l + 1, n - 1):
                            key = tuple(sorted(alpha, reverse=True))
                            count_plus = sum(
                                coefficient(w, alpha) for w in report.plus_covers
                            )
                            count_minus = sum(
                                coefficient(u, alpha) for u in report.minus_covers
                            )
                            assert count_plus == count_minus
                            assert report.plus_table.entries.get(key, 0) == count_plus


def test_criterion_07_cyclically_decreasing_suite():
    with criterion(7, "shuffle law (n <= 5), element count, boolean lattice (n <= 4)", limit=300.0):
        def shuffles(words):
            if not words:
                yield ()
                return
            first, rest = words[0], words[1:]
            for tail in shuffles(rest):
                for positions in itertools.combinations(
                    range(len(first) + len(tail)), len(first)
                ):
                    chosen = set(positions)
                    out, fi, ti = [], 0, 0
                    for k in range(len(first) + len(tail)):
                        if k in chosen:
                            out.append(first[fi])
                            fi += 1
                        else:
                            out.append(tail[ti])
                            ti += 1
                    yield tuple(out)

        for n in range(2, 6):
            for k in range(n):
                for members in itertools.combinations(range(n), k):
                    A = CyclicSubset(n, members)
                    words = [tuple(reversed(run)) for run in maximal_cyclic_intervals(A)]
                    assert {a.letters for a in reduced_words(cd_element(A))} == set(
                        shuffles(words)
                    )
            assert len(set(cyclically_decreasing_elements(n))) == 2**n - 1
        for n in range(2, 5):
            subsets = [
                tuple(c) for k in range(n) for c in itertools.combinations(range(n), k)
            ]
            elements = {m: cd_element(CyclicSubset(n, m)) for m in subsets}
            for a in subsets:
                for b in subsets:
                    assert (set(a) <= set(b)) == bruhat_leq(elements[a], elements[b])


def _random_reduced_word(rng, n, length):
    w = identity(n)
    letters = []
    while len(letters) < length:
        choices = [i for i in range(n) if w(i) < w(i + 1)]
        i = rng.choice(choices)
        letters.append(i)
        w = w.times_simple(i)
    return Word(n, tuple(letters))


def _reduced_by_length(a):
    return evaluate(a).length() == len(a)


def test_criterion_08_exchange_and_insertion_suite():
    with criterion(8, "strong exchange and unique insertion, exhaustive and randomized", limit=600.0):
        # exhaustive: n <= 3, word length <= 6
        for n in (2, 3):
            for length in range(1, 7):
                for letters in itertools.product(range(n), repeat=length):
                    a = Word(n, letters)
                    if _reduced_by_length(a):
                        for k in range(1, length + 1):
                            deletion = a.delete(k)
                            if _reduced_by_length(deletion):
                                assert marked_index(a, evaluate(deletion)) == k
                    else:
                        deletable = [
                            i for i in range(1, length + 1) if _reduced_by_length(a.delete(i))
                        ]
                        for i in deletable:
                            j = insertion_index(a, i)
                            assert j != i and j in deletable
                            assert evaluate(a.delete(j)) == evaluate(a.delete(i))
                            assert [k for k in deletable if k != i] == [j]
        # randomized larger instances, checked against deletions directly
        rng = random.Random(20260808)
        for _ in range(10_000):
            n = rng.randint(4, 6)
            b = _random_reduced_word(rng, n, rng.randint(6, 10))
            k = rng.randint(1, len(b))
            deletion = b.delete(k)
            if _reduced_by_length(deletion):
                assert marked_index(b, evaluate(deletion)) == k
            position = rng.randint(1, len(b) + 1)
            letter = rng.randrange(n)
            stuffed = Word(
                n, b.letters[: position - 1] + (letter,) + b.letters[position - 1 :]
            )
            if not _reduced_by_length(stuffed):
                j = insertion_index(stuffed, position)
                assert _reduced_by_length(stuffed.delete(j))
                assert evaluate(stuffed.delete(j)) == evaluate(b)
                # deletion oracle: some two-letter deletion preserves the value
                target = evaluate(stuffed)
                assert any(
                    evaluate(stuffed.delete(jj).delete(ii)) == target
                    for ii in range(1, len(stuffed) + 1)
                    for jj in range(ii + 1, len(stuffed) + 1)
                )


def test_criterion_09_classical_consistency():
    with criterion(9, "classical table of [3,2,1] and the tree-child sum identity", limit=300.0):
        assert stanley_table(from_window(3, [3, 2, 1])).entries == {
            (2, 1): 1,
            (1, 1, 1): 2,
        }
        for n in (2, 3, 4):
            for sigma in itertools.permutations(range(1, n + 1)):
                if sigma == tuple(range(1, n + 1)):
                    continue
                descents = [i for i in range(n - 1) if sigma[i] > sigma[i + 1]]
                if len(descents) <= 1:
                    continue  # already Grassmannian
                children = ls_children(sigma)
                if len(children[0]) != n:
                    continue  # empty-I case lives one rank up
                total = CoefficientTable.zero(n, classical_element(sigma).length())
                for child in children:
                    total = total + stanley_table(classical_element(child))
                assert total == stanley_table(classical_element(sigma))


def test_criterion_10_chevalley_sweep():
    with criterion(10, "degree-one product rule sweep, n in 2..4, l(v) <= 4", limit=300.0):
        for n in (2, 3, 4):
            for l in range(5):
                for v in elements_of_length(n, l):
                    for r in range(n):
                        assert check_chevalley(v, r).equal
