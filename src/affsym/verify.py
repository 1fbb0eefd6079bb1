"""Exhaustive desk-scale verification sweeps.

One pass walks every v with l(v) bounded, level by level in a
deterministic order, and computes the covers of each v once; every
requested suite checks (v, r) for each residue r from those covers and
keeps its own failure list of human-readable descriptions.  The counting
suites compare factorization counts only; the bijection suite checks the
factor-level Little map once per (v, r), profile by profile, against
independent enumeration.  A level's store holds, per cover w, its
alpha-decompositions at every profile from one peel pass.  The all-ones
ones are the reduced words of w, so the word-level bijection is the
alpha = (1, ..., 1) case, where the forward walk is the public `phi`.
Each profile walks its decompositions in one call of the kernel entry
`walks`, there and back, or back from `phi`'s images, and one loop
checks them all.  The walks over one v and the path invariants read each
word's reflection record from one table, built on first use and dropped
when v is done; the walks are told their factor sizes.

The checks at one v depend on no other v, so `sweep_ball` splits the
pass over P processes, forked once after the ball is built: process k
(the caller is process 0) checks the v at positions k mod P of each
level, with its own per-level stores and per-v tables, and a worker
sends its failures over a pipe as `marshal` data, merged in ball order.
The first exception in ball order is raised, so the output, the exit
status and stderr are those of one process; once a process raises, the
others stop at their next v beyond its position.  `_processes(size)`,
the one place that chooses P, takes two processes on a host with two
CPUs or more once the ball has _PARALLEL_BALL elements, the break-even
measured on a 2-core host, and one process below it or without
`os.fork`; more processes were never timed.  Tests patch it to pin P.
`gc.freeze()` keeps the objects made before the sweep out of its
garbage collections, unless the caller has frozen objects itself.
"""

from __future__ import annotations

import functools
import gc
import marshal
import os
import random

from .errors import ComputationError
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


def _format_masks(n: int, masks) -> str:
    return "/".join(format_letters(n, mask_members(n, mask)) for mask in masks)


def _over(v: AffinePermutation) -> str:
    return f"over {format_window(v)}"


def _at(v: AffinePermutation, r: int) -> str:
    return f"at v={format_window(v)} r={r}"


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
    every image's profile, its way back and the image set.  A profile
    with no decompositions on either side has nothing to check.  Walks
    read table."""
    n, ones = v.n, (1,) * (v.length() + 1)
    word_failures, failures = [], []
    for alpha in profiles:
        expected = {(t, d) for entry, t in minus for d in entry[alpha]}
        starts = [(d, t) for entry, t in plus for d in entry[alpha]]
        if not starts and not expected:
            continue
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
                        word_failures.append(f"path p-invariant fails at {vertex} {_over(v)}")
                if (pairs[-1][1] - r) % n != 0:
                    word_failures.append(f"path q-invariant fails at {path[-1]} {_over(v)}")
                forward.append((out, reflection_pair(n, *pairs[-1])))
            backs = walks(n, forward, alpha, (False,), table)
            ends = [[image, *back] for image, back in zip(forward, backs)]
            outs = [out for out, _ in forward]
            out_set = set(outs)
            if len(out_set) != len(outs):
                word_failures.append(f"phi_r not injective {_at(v, r)}")
            if out_set != words:
                word_failures.append(f"phi_r not surjective {_at(v, r)}")
        images = []
        for (d, _), ((out, t_out), (back, _)) in zip(starts, ends):
            if tuple(map(int.bit_count, out)) != alpha:
                failures.append(f"length profile changed at {_format_masks(n, d)} {_over(v)}")
            if back != d:
                failures.append(f"round trip fails at {_format_masks(n, d)} {_over(v)} r={r}")
            images.append((t_out, out))
        image_set = set(images)
        if len(image_set) != len(images) or image_set != expected:
            failures.append(f"factor-level map not bijective {_at(v, r)} alpha={alpha}")
    return word_failures + failures


def _table_failures(name: str, sides, reports) -> list[str]:
    """A failure per unequal report, printing each side's table."""
    return [
        f"{name} fails at v={format_window(report.v)} r={report.r}: "
        + " ".join(f"{s}={getattr(report, s + '_table').entries}" for s in sides)
        for report in reports
        if not report.equal
    ]


def _cover_sum_level(n: int, length: int):
    return lambda v, covers: _table_failures(
        "cover-sum identity", ("minus", "plus"), garsia_little_reports(v, covers, range(n))
    )


def _chevalley_level(n: int, length: int):
    return lambda v, covers: _table_failures(
        "degree-one product rule", ("left", "right"), chevalley_reports(v, covers, range(n))
    )


def _bijection_level(n: int, length: int):
    """Each cover is resolved once per v to its store entry and the (a, b)
    pair of its reflection and filed under the residues of a (right
    r-covers) and of b (left), so no check hashes an element.  A cover's
    alpha-decompositions, every profile at once, are found once per
    level, in a store dropped with the level; each word's word_record
    once per v, in a table dropped with v."""
    store, profiles = {}, tuple(compositions_bounded(length + 1, n - 1))

    def check(v, covers):
        plus, minus = [[] for _ in range(n)], [[] for _ in range(n)]
        for w, t in covers:
            entry = store.get(w)
            if entry is None:
                entry = store[w] = decomposition_masks(w, profiles)
            plus[t.a % n].append((entry, (t.a, t.b)))
            minus[t.b % n].append((entry, (t.a, t.b)))
        table, failures = functools.cache(word_record), []
        for r in range(n):
            failures += _bijection_check(v, r, plus[r], minus[r], profiles, table)
        return failures

    return check


# Per suite, a function of (n, length) that starts a level and returns
# its check of (v, covers of v), which lists the failures at v.
_LEVELS = {
    "garsia-little": _cover_sum_level,
    "chevalley": _chevalley_level,
    "bijection": _bijection_level,
}


# The smallest ball split across processes: the smallest ball size at
# which two processes beat one in every timed series.  Cold `verify -n N
# --max-length L bijection`, two processes against one, median ratio of
# alternating pairs on a shared 2-core Xeon (Python 3.11.7), in three
# series of 16, 30 and 40 pairs: 46 elements (3, 5) 0.87x, 0.93x, 0.91x;
# 55 (9, 2) 0.88x, 0.95x; 56 (5, 3) 0.89x, 0.87x; 69 (4, 4) 0.77x, 0.83x,
# 0.85x.  From 35 to 45 elements one series of each read no gain (35
# (4, 3) 1.06x, 0.95x, 0.97x; 36 (7, 2) 0.94x, 1.01x, 0.91x; 45 (8, 2)
# 0.97x, 0.91x), and from 19 to 31 elements each read 0.94x to 1.03x,
# within the host's noise.
_PARALLEL_BALL = 46


def _processes(size: int) -> int:
    """How many processes check a ball of size elements: two, if os.fork
    exists, the ball has at least _PARALLEL_BALL elements and this
    process may run on two CPUs or more; else one.  Only two processes
    against one have been timed, so more CPUs still give two."""
    if not hasattr(os, "fork") or size < _PARALLEL_BALL:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 2)


def _share(n: int, levels, names, k: int, processes: int, first=None, parent=None):
    """Process k's share of the sweep: the v at positions k mod processes
    of each level, in ball order, with its own per-level checks.  Returns
    (found, error): found lists (ball position, one failure list per
    suite) for each v with a failure; error is None or (ball position,
    exception) for the first exception, where the share stops.  In a
    split sweep, first[0], shared by all processes, is the smallest ball
    position at which one has raised: the share lowers it when it raises
    and stops short of any v beyond it, whose checks can no longer
    matter.  A worker passes its parent's pid and exits at its next v once
    that parent is gone."""
    found, start = [], 0
    for length, level in enumerate(levels):
        at = start
        try:
            checks = [_LEVELS[name](n, length) for name in names]
            for at in range(start + k, start + len(level), processes):
                if first is not None and at > first[0]:
                    return found, None
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                v = level[at - start]
                covers = covers_above(v)
                failures = [check(v, covers) for check in checks]
                if any(failures):
                    found.append((at, failures))
        except Exception as exc:
            if first is not None:
                first[0] = min(first[0], at)
            return found, (at, exc)
        start += len(level)
    return found, None


def _fork(n: int, levels, names, k: int, processes: int, first):
    """Start worker k on its share; returns its pid and the read end of
    the pipe that carries its marshalled (found, error) result, the
    error's exception pickled.  The worker leaves only through os._exit,
    so it flushes no inherited buffer and runs no exit handler."""
    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        raise ComputationError(f"cannot start sweep worker {k}: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(read)
            found, error = _share(n, levels, names, k, processes, first, parent)
            if error is not None:
                import pickle  # only a failed check sends an exception

                error = (error[0], pickle.dumps(error[1]))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(marshal.dumps((found, error)))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def sweep_ball(n: int, max_length: int, names) -> dict[str, tuple[int, list[str]]]:
    """Each named suite's (instance count, failures) over the Bruhat ball
    of radius max_length: one pass, level by level, with the covers of
    each v computed once and handed to every suite, which checks all n
    residues r at v.  The pass is split over _processes(size) processes
    forked after the ball is built (see _share); their failures merge in
    ball order, and the first exception in ball order is raised, as one
    process would meet them.  Once a process raises, the others stop at
    their next v beyond its position, so a failing sweep ends about as
    soon as one process would.  Every worker is reaped before this
    returns, and killed first if the parent stops early.  If the caller
    has frozen nothing (gc.get_freeze_count() is 0), the objects made
    before the sweep are frozen out of its garbage collections
    (gc.freeze) and unfrozen after; a caller's own freeze is left as it
    is."""
    names = list(names)
    levels = bruhat_ball(n, max_length)
    size = sum(map(len, levels))
    processes, workers, data, statuses = _processes(size), [], [], []
    first = None
    if processes > 1:
        import mmap  # only a split sweep shares the first error's position

        first = memoryview(mmap.mmap(-1, 8)).cast("q")
        first[0] = size
    # What exists now lives through the sweep: kept out of its garbage
    # collections, it is not traversed again, nor copied into a worker
    # by the collector's writes.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        for k in range(1, processes):
            workers.append(_fork(n, levels, names, k, processes, first))
        shares = [_share(n, levels, names, 0, processes, first)]
        data = [pipe.read() for _, pipe in workers]
    finally:
        if freeze:
            gc.unfreeze()
        for pid, pipe in workers:
            pipe.close()
            if len(data) < len(workers):
                import signal  # only a parent stopped early kills

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for k, (payload, status) in enumerate(zip(data, statuses), 1):
        if status or not payload:
            raise ComputationError(
                f"sweep worker {k} of {processes} ended without a result "
                f"(exit code {os.waitstatus_to_exitcode(status)})"
            )
        found, error = marshal.loads(payload)
        if error is not None:
            import pickle  # only a failed check sends an exception

            error = (error[0], pickle.loads(error[1]))
        shares.append((found, error))
    errors = [error for _, error in shares if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    failures = {name: [] for name in names}
    at_each_v = sorted((item for found, _ in shares for item in found), key=lambda item: item[0])
    for _, at_v in at_each_v:
        for found, failures_at_v in zip(failures.values(), at_v):
            found += failures_at_v
    return {name: (n * size, found) for name, found in failures.items()}


def garsia_little_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["garsia-little"])["garsia-little"]


def chevalley_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["chevalley"])["chevalley"]


def bijection_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["bijection"])["bijection"]


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
