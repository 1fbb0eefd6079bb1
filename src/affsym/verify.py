"""Exhaustive desk-scale verification sweeps.

Each sweep walks every (v, r) with l(v) bounded, in a deterministic
order, and returns the instance count plus a list of human-readable
failure descriptions.  The identity sweeps count factorizations only;
the bijection sweep checks the factor-level Little map once per (v, r),
profile by profile, against independent enumeration.  A level's store
holds, per cover w, its alpha-decompositions at every profile from one
peel pass.  The all-ones ones are the reduced words of w, so the
word-level bijection is the alpha = (1, ..., 1) case, where the forward
walk is the public `phi`.  Each profile walks its decompositions in one
call of the kernel entry `walks`, there and back, or back from `phi`'s
images, and one loop checks them all.  The walks over one v and the
path invariants read each word's reflection record from one table,
built on first use and dropped when v is done; the walks are told their
factor sizes.
"""

from __future__ import annotations

import functools
import random

from .group import (
    AffinePermutation,
    bruhat_ball,
    covers_above,
    format_window,
    reflection_pair,
    simple,
)
from .little import MarkedWord, phi, walks
from .stanley import (
    chevalley_reports,
    compositions_bounded,
    decomposition_masks,
    garsia_little_reports,
)
from .words import (
    Word,
    evaluate,
    format_letters,
    insertion_index,
    is_reduced,
    marked_index,
    mask_members,
    reflection_index,
    word_record,
)


def _table_sweep(n: int, max_length: int, reports, name: str, sides) -> tuple[int, list[str]]:
    """Sweep reports(v, residues); a failure prints each side's table."""
    count, failures = 0, []
    for level in bruhat_ball(n, max_length):
        for v in level:
            for report in reports(v, range(n)):
                count += 1
                if not report.equal:
                    tables = " ".join(f"{s}={getattr(report, s + '_table').entries}" for s in sides)
                    failures.append(f"{name} fails at v={format_window(v)} r={report.r}: {tables}")
    return count, failures


def garsia_little_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    """The covers of v are computed once per v and shared by every
    residue r."""
    sides = ("minus", "plus")
    return _table_sweep(n, max_length, garsia_little_reports, "cover-sum identity", sides)


def chevalley_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    """The tables of v and of its covers are computed once per v and
    shared by every residue r."""
    sides = ("left", "right")
    return _table_sweep(n, max_length, chevalley_reports, "degree-one product rule", sides)


def _format_masks(n: int, masks) -> str:
    return "/".join(format_letters(n, mask_members(n, mask)) for mask in masks)


def _bijection_check(v: AffinePermutation, r: int, plus, minus, profiles, table) -> list[str]:
    """The cover-sum bijection at (v, r), one profile alpha at a time.
    plus and minus pair each cover's store entry (its decompositions as
    factor masks per profile) with the normal (a, b) pair of its
    reflection, which keys its images.  Each profile walks all its
    decompositions forward and back in one `walks` call, except that at
    alpha = (1, ..., 1) the forward walk is phi, whose images and paths
    also make the word-level check (failures first; words stand for
    their elements, as distinct elements have disjoint sets of reduced
    words), and one call walks its images back.  One loop then checks
    every image's profile, its way back and the image set.  Walks read
    table."""
    n, ones = v.n, (1,) * (v.length() + 1)
    over, at = f"over {format_window(v)}", f"at v={format_window(v)} r={r}"
    word_failures, failures = [], []
    for alpha in profiles:
        expected = {(t, d) for entry, t in minus for d in entry[alpha]}
        starts = [(d, t) for entry, t in plus for d in entry[alpha]]
        if alpha != ones:
            ends = walks(n, starts, alpha, (True, False), table)
        else:
            words, forward = {d for _, d in expected}, []
            for d, t in starts:
                letters = tuple(mask.bit_length() - 1 for mask in d)
                k = reflection_index(n, letters, table(n, letters), t)
                m = MarkedWord(Word(n, letters), k)
                c, path = phi(v, m, table=table)
                out = tuple(1 << a for a in c.word.letters)
                if out not in words:
                    word_failures.append(
                        f"phi_r image {c.word}@{format_window(evaluate(c.word))} outside "
                        f"the left covers of v={format_window(v)} r={r}"
                    )
                # the (p, q) pair at each vertex's mark, as pq reads it
                pairs = [table(n, x.word.letters).sequence[x.mark - 1] for x in [m] + path]
                for vertex, (p, _) in zip([m] + path[:-1], pairs):
                    if (p - r) % n != 0:
                        word_failures.append(f"path p-invariant fails at {vertex} {over}")
                if (pairs[-1][1] - r) % n != 0:
                    word_failures.append(f"path q-invariant fails at {path[-1]} {over}")
                forward.append((out, reflection_pair(n, *pairs[-1])))
            backs = walks(n, forward, alpha, (False,), table)
            ends = [[image, *back] for image, back in zip(forward, backs)]
            outs = [out for out, _ in forward]
            if len(set(outs)) != len(outs):
                word_failures.append(f"phi_r not injective {at}")
            if set(outs) != words:
                word_failures.append(f"phi_r not surjective {at}")
        images = []
        for (d, _), ((out, t_out), (back, _)) in zip(starts, ends):
            if tuple(map(int.bit_count, out)) != alpha:
                failures.append(f"length profile changed at {_format_masks(n, d)} {over}")
            if back != d:
                failures.append(f"round trip fails at {_format_masks(n, d)} {over} r={r}")
            images.append((t_out, out))
        if len(set(images)) != len(images) or set(images) != expected:
            failures.append(f"factor-level map not bijective {at} alpha={alpha}")
    return word_failures + failures


def bijection_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    """Covers are computed once per v, each resolved once to its store
    entry and the (a, b) pair of its reflection and filed under the
    residues of a (right r-covers) and of b (left), so no check hashes
    an element.  A cover's alpha-decompositions, every profile at once,
    are found once per level, in a store dropped with the level; each
    word's word_record once per v, in a table dropped with v."""
    count, failures = 0, []
    for length, level in enumerate(bruhat_ball(n, max_length)):
        store, profiles = {}, tuple(compositions_bounded(length + 1, n - 1))
        for v in level:
            plus, minus = [[] for _ in range(n)], [[] for _ in range(n)]
            for w, t in covers_above(v):
                entry = store.get(w)
                if entry is None:
                    entry = store[w] = decomposition_masks(w, profiles)
                plus[t.a % n].append((entry, (t.a, t.b)))
                minus[t.b % n].append((entry, (t.a, t.b)))
            table = functools.cache(word_record)
            for r in range(n):
                count += 1
                failures += _bijection_check(v, r, plus[r], minus[r], profiles, table)
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
