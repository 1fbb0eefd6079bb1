"""Exhaustive desk-scale verification sweeps.

Each sweep walks every (v, r) with l(v) bounded, in a deterministic
order, and returns the instance count plus a list of human-readable
failure descriptions.  The identity sweeps count factorizations only;
the bijection sweep exercises the word-level and factor-level maps and
cross-checks them against independent enumeration, so the two routes to
the cover-sum identity are verified separately.
"""

from __future__ import annotations

import random

from .group import (
    AffinePermutation,
    bruhat_ball,
    format_window,
    left_r_covers,
    right_r_covers,
    simple,
)
from .little import (
    MarkedWord,
    generalized_little,
    inverse_generalized_little,
    phi,
    phi_r,
    pq,
)
from .stanley import (
    alpha_decompositions,
    check_chevalley,
    check_garsia_little,
    compositions_bounded,
)
from .words import (
    Word,
    evaluate,
    insertion_index,
    is_reduced,
    marked_index,
    reduced_words,
)


def _instances(n: int, max_length: int):
    for level in bruhat_ball(n, max_length):
        for v in level:
            for r in range(n):
                yield v, r


def garsia_little_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    count, failures = 0, []
    for v, r in _instances(n, max_length):
        count += 1
        report = check_garsia_little(v, r)
        if not report.equal:
            failures.append(
                f"cover-sum identity fails at v={format_window(v)} r={r}: "
                f"minus={report.minus_table.entries} plus={report.plus_table.entries}"
            )
    return count, failures


def chevalley_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    count, failures = 0, []
    for v, r in _instances(n, max_length):
        count += 1
        report = check_chevalley(v, r)
        if not report.equal:
            failures.append(
                f"degree-one product rule fails at v={format_window(v)} r={r}: "
                f"left={report.left_table.entries} right={report.right_table.entries}"
            )
    return count, failures


def _word_level_check(v: AffinePermutation, r: int) -> list[str]:
    n = v.n
    failures = []
    plus = right_r_covers(v, r)
    minus = left_r_covers(v, r)
    expected = {(u, a.letters) for u in minus for a in reduced_words(u)}
    images = []
    for w in plus:
        for a in reduced_words(w):
            u, c = phi_r(v, r, a)
            if (u, c.letters) not in expected:
                failures.append(
                    f"phi_r image {c}@{format_window(u)} outside the left covers "
                    f"of v={format_window(v)} r={r}"
                )
            images.append((u, c.letters))
            m = MarkedWord(a, marked_index(a, v))
            _, path = phi(v, m)
            for vertex in [m] + path[:-1]:
                if (pq(v, vertex).p - r) % n != 0:
                    failures.append(f"path p-invariant fails at {vertex} over {format_window(v)}")
            if (pq(v, path[-1]).q - r) % n != 0:
                failures.append(f"path q-invariant fails at {path[-1]} over {format_window(v)}")
    if len(set(images)) != len(images):
        failures.append(f"phi_r not injective at v={format_window(v)} r={r}")
    if set(images) != expected:
        failures.append(f"phi_r not surjective at v={format_window(v)} r={r}")
    return failures


def _factor_key(d):
    return tuple(factor.members for factor in d.factors)


def _factor_level_check(v: AffinePermutation, r: int) -> list[str]:
    failures = []
    plus = right_r_covers(v, r)
    minus = left_r_covers(v, r)
    for alpha in compositions_bounded(v.length() + 1, v.n - 1):
        expected = {
            (u, _factor_key(d)) for u in minus for d in alpha_decompositions(u, alpha)
        }
        images = []
        for w in plus:
            for d in alpha_decompositions(w, alpha):
                out = generalized_little(v, r, d)
                if out.alpha != d.alpha:
                    failures.append(f"length profile changed at {d} over {format_window(v)}")
                back = inverse_generalized_little(v, r, out)
                if back != d:
                    failures.append(f"round trip fails at {d} over {format_window(v)} r={r}")
                images.append((out.product(), _factor_key(out)))
        if len(set(images)) != len(images) or set(images) != expected:
            failures.append(
                f"factor-level map not bijective at v={format_window(v)} r={r} alpha={alpha}"
            )
    return failures


def bijection_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    count, failures = 0, []
    for v, r in _instances(n, max_length):
        count += 1
        failures.extend(_word_level_check(v, r))
        failures.extend(_factor_level_check(v, r))
    return count, failures


def _random_reduced_word(rng: random.Random, n: int) -> Word:
    """A reduced word of random length 4..9: after a random first letter,
    each letter is a random ascent i (x(i) < x(i+1)) of the element x
    spelled so far."""
    length = rng.randint(4, 9)
    letters = [rng.randrange(n)]
    x = simple(n, letters[0])
    while len(letters) < length:
        letters.append(rng.choice([i for i in range(n) if x(i) < x(i + 1)]))
        x = x.times_simple(letters[-1])
    return Word(n, tuple(letters))


def exchange_spot_checks(n: int, samples: int, seed: int) -> tuple[int, list[str]]:
    """Randomized deletion/insertion round trips on reduced words."""
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        word = _random_reduced_word(rng, n)
        length = len(word)
        k = rng.randint(1, length)
        deletion = word.delete(k)
        if is_reduced(deletion):
            if marked_index(word, evaluate(deletion)) != k:
                failures.append(f"strong-exchange round trip fails at {word} pos {k}")
        insert_at = rng.randint(1, length + 1)
        letter = rng.randrange(n)
        stuffed = Word(n, word.letters[: insert_at - 1] + (letter,) + word.letters[insert_at - 1 :])
        if not is_reduced(stuffed):
            j = insertion_index(stuffed, insert_at)
            if evaluate(stuffed.delete(j)) != evaluate(word):
                failures.append(f"insertion round trip fails at {stuffed} pos {insert_at}")
    return samples, failures
