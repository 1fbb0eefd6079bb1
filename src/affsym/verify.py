"""Exhaustive desk-scale verification sweeps.

One pass, `_sweep(n, levels, names)`, walks the given levels in order
(levels[l] holds elements of length l; `sweep_ball` passes the Bruhat
ball) and computes the covers of each v once if a suite reads them.
Every requested suite keeps its own failure list of human-readable
descriptions.  The identity suites check (v, r) for each residue r from
the covers; positivity expands v alone in the Grassmannian tables of its
degree, built once per level.  The counting suites compare
factorization counts only; the bijection suite checks the
factor-level Little map once per (v, r), profile by profile, against
independent enumeration.  A level's store holds, per cover w, its
alpha-decompositions at every profile from one peel pass.  The all-ones
ones are the reduced words of w, so the word-level bijection is the
alpha = (1, ..., 1) case, where the forward walk is the public `phi`.
Each profile walks its decompositions in one call of the kernel entry
`walks`, there and back, or back from `phi`'s images, and one loop
checks them all.  The walks and the path invariants read each word's
reflection record from the bounded memo of `word_record`, and the walks
are told their factor sizes.

The checks at one v depend on no other v, so `_sweep` splits the pass
over P processes, forked once: process k (the caller is process 0)
checks the v at positions k mod P of each level with its own stores and
memos, and returns one record stream: (position, failures) per v that
failed, then (position, exception) if a check raised there.  A worker
sends its stream as `marshal` data over a pipe, the exception pickled;
the caller sorts all records by position and raises the first exception
it meets, so the output, exit status and stderr are those of one
process.  Every share stops at its next v beyond the stop position, the
smallest at which one has raised, kept in one shared `mmap` however
many processes run.  `_processes(size)`, the one place that chooses P,
gives two processes for a pass of two elements or more on a host with
two CPUs or more (more CPUs were never timed), else one, as without
`os.fork`.  On 2 cores a fork, a pipe and a wait cost about 2 ms, so
a split costs a few percent of a cold command at 4 to 10 elements, is
even at about 20 and wins from 35 (README, "The sweep on two CPUs").
Tests patch it to pin P.
"""

import marshal
import os

from .errors import ComputationError
from .group import (
    AffinePermutation,
    bruhat_ball,
    covers_above,
    format_window,
    simple,
)
from .little import MarkedWord, phi, walks
from .stanley import (
    affine_schur_basis,
    chevalley_reports,
    compositions_bounded,
    expand_in_affine_schur,
    garsia_little_reports,
)
from .words import (
    Word,
    decomposition_masks,
    evaluate,
    format_letters,
    insertion_index,
    is_reduced,
    marked_index,
    mask_members,
    reflection_index,
    reflection_key,
    word_record,
)


def _format_masks(n: int, masks) -> str:
    return "/".join(format_letters(n, mask_members(n, mask)) for mask in masks)


def _over(v: AffinePermutation) -> str:
    return f"over {format_window(v)}"


def _at(v: AffinePermutation, r: int) -> str:
    return f"at v={format_window(v)} r={r}"


def _bijection_check(v: AffinePermutation, r: int, plus, minus, profiles) -> list[str]:
    """The cover-sum bijection at (v, r), one profile alpha at a time.
    plus and minus pair each cover's store entry (its decompositions as
    factor masks per profile) with the record key of its reflection,
    which keys its images.  Each profile walks all its decompositions
    forward and back in one `walks` call, except that at alpha =
    (1, ..., 1) the forward walk is phi, whose images and paths also
    make the word-level check (failures first; words stand for their
    elements, as distinct elements have disjoint sets of reduced words),
    and one call walks its images back.  One loop then checks
    every image's profile, its way back and the image set.  A profile
    with no decompositions on either side has nothing to check."""
    n, ones = v.n, (1,) * (v.length() + 1)
    word_failures, failures = [], []
    for alpha in profiles:
        expected = {(key, d) for entry, key in minus for d in entry[alpha]}
        starts = [(d, key) for entry, key in plus for d in entry[alpha]]
        if not starts and not expected:
            continue
        if alpha != ones:
            ends = walks(n, starts, alpha, (True, False))
        else:
            words, forward = {d for _, d in expected}, []
            for d, key in starts:
                letters = tuple(mask.bit_length() - 1 for mask in d)
                k = reflection_index(n, letters, word_record(n, letters), key)
                m = MarkedWord(Word(n, letters), k)
                c, path = phi(v, m)
                out = tuple(1 << a for a in c.word.letters)
                if out not in words:
                    word_failures.append(
                        f"phi_r image {c.word}@{format_window(evaluate(c.word))} outside "
                        f"the left covers of v={format_window(v)} r={r}"
                    )
                # the (p, q) pair at each vertex's mark, as pq reads it
                pairs = [word_record(n, x.word.letters).sequence[x.mark - 1] for x in [m] + path]
                for vertex, (p, _) in zip([m] + path[:-1], pairs):
                    if (p - r) % n != 0:
                        word_failures.append(f"path p-invariant fails at {vertex} {_over(v)}")
                if (pairs[-1][1] - r) % n != 0:
                    word_failures.append(f"path q-invariant fails at {path[-1]} {_over(v)}")
                forward.append((out, word_record(n, c.word.letters).keys[c.mark - 1]))
            backs = walks(n, forward, alpha, (False,))
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
    """Each cover is resolved once per v to its store entry and the record
    key of its reflection t(a, b) and filed under the residues of a
    (right r-covers) and of b (left), so no check hashes an element.  A
    cover's alpha-decompositions, every profile at once, are found once
    per level, in a store dropped with the level."""
    store, profiles = {}, tuple(compositions_bounded(length + 1, n - 1))

    def check(v, covers):
        plus, minus = [[] for _ in range(n)], [[] for _ in range(n)]
        for w, t in covers:
            entry = store.get(w)
            if entry is None:
                entry = store[w] = decomposition_masks(w, profiles)
            key = reflection_key(n, t.a, t.b)
            plus[t.a % n].append((entry, key))
            minus[t.b % n].append((entry, key))
        failures = []
        for r in range(n):
            failures += _bijection_check(v, r, plus[r], minus[r], profiles)
        return failures

    return check


def _positivity_level(n: int, length: int):
    """Expands each v in the Grassmannian tables of its degree, built once
    for the level.  A nonzero residual or a negative coefficient is a
    failure: the expansion is nonnegative (Lam, JAMS 21, 2008)."""
    basis = affine_schur_basis(n, length)

    def check(v, covers):
        result = expand_in_affine_schur(v, basis=basis)
        failures = [] if result.exact else [f"nonzero expansion residual at {format_window(v)}"]
        return failures + [
            f"negative coefficient {value} at {','.join(map(str, label))} "
            f"in the expansion of {format_window(v)}"
            for label, value in sorted(result.coefficients.items())
            if value < 0
        ]

    return check


# Per suite, a function of (n, length) that starts a level and returns
# its check of (v, covers of v), which lists the failures at v.
_LEVELS = {
    "garsia-little": _cover_sum_level,
    "chevalley": _chevalley_level,
    "bijection": _bijection_level,
    "positivity": _positivity_level,
}
# The suites whose check reads v alone, one instance per v: handed no
# covers (None), so a pass of them alone computes none.
_ALONE = {"positivity"}


def _processes(size: int) -> int:
    """How many processes check a pass over size elements: two, if os.fork
    exists, size is at least two (a second share of one element would
    be empty) and this process may run on two CPUs or more; else one.
    Only two processes against one have been timed, so more CPUs still
    give two."""
    if not hasattr(os, "fork") or size < 2:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, 2)


def _share(n: int, levels, names, k: int, processes: int, first, parent=None):
    """Process k's share of the pass: the v at positions k mod processes
    of each level, in order, with its own per-level checks.  Returns its
    records (position, outcome) in order: outcome is the per-suite
    failure lists at a v with a failure, or, in the last record, the
    exception a check raised, where the share stops.  first[0], shared by
    all processes, is the smallest position at which one has raised: the
    share lowers it when it raises and checks no v beyond it.  A worker
    passes its parent's pid and exits at its next v once it is gone."""
    records, start = [], 0
    covered = not _ALONE.issuperset(names)
    for length, level in enumerate(levels):
        at = start
        try:
            checks = [_LEVELS[name](n, length) for name in names]
            for at in range(start + k, start + len(level), processes):
                if at > first[0]:
                    return records
                if parent is not None and os.getppid() != parent:
                    os._exit(1)
                v = level[at - start]
                covers = covers_above(v) if covered else None
                failures = [check(v, covers) for check in checks]
                if any(failures):
                    records.append((at, failures))
        except Exception as exc:
            first[0] = min(first[0], at)
            records.append((at, exc))
            return records
        start += len(level)
    return records


def _fork(n: int, levels, names, k: int, processes: int, first):
    """Start worker k on its share; returns its pid and the read end of
    the pipe that carries its records, marshalled, with an exception
    pickled in place.  The worker leaves only through os._exit, so it
    flushes no inherited buffer and runs no exit handler."""
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
            records = _share(n, levels, names, k, processes, first, parent)
            if records and isinstance(records[-1][1], Exception):
                import pickle  # only a failed check sends an exception

                records[-1] = (records[-1][0], pickle.dumps(records[-1][1]))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(marshal.dumps(records))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _sweep(n: int, levels, names) -> dict[str, tuple[int, list[str]]]:
    """Each named suite's (instance count, failures) over levels, levels[l]
    holding elements of length l: one pass, with the covers of each v
    computed once if a suite reads them and handed to every suite; n
    instances per element walked, one for a suite in _ALONE.  The pass is
    split over _processes(size) processes (see _share); their records
    merge in order, and the first exception met is raised, as one process
    would meet it.  Every worker is reaped before this returns, and killed
    first if the parent stops early."""
    import mmap  # only a sweep maps shared memory, so not at start-up

    names = list(names)
    size = sum(map(len, levels))
    processes, workers, data, statuses = _processes(size), [], [], []
    first = memoryview(mmap.mmap(-1, 8)).cast("q")
    first[0] = size
    try:
        for k in range(1, processes):
            workers.append(_fork(n, levels, names, k, processes, first))
        records = _share(n, levels, names, 0, processes, first)
        data = [pipe.read() for _, pipe in workers]
    finally:
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
        share = marshal.loads(payload)
        if share and isinstance(share[-1][1], bytes):
            import pickle  # only a failed check sends an exception

            share[-1] = (share[-1][0], pickle.loads(share[-1][1]))
        records += share
    failures = {name: [] for name in names}
    for _, outcome in sorted(records, key=lambda record: record[0]):
        if isinstance(outcome, Exception):
            raise outcome
        for found, at_v in zip(failures.values(), outcome):
            found += at_v
    return {name: ((1 if name in _ALONE else n) * size, found) for name, found in failures.items()}


def sweep_ball(n: int, max_length: int, names) -> dict[str, tuple[int, list[str]]]:
    """_sweep over the Bruhat ball of radius max_length."""
    return _sweep(n, bruhat_ball(n, max_length), names)


def garsia_little_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["garsia-little"])["garsia-little"]


def chevalley_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["chevalley"])["chevalley"]


def bijection_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["bijection"])["bijection"]


def positivity_sweep(n: int, max_length: int) -> tuple[int, list[str]]:
    return sweep_ball(n, max_length, ["positivity"])["positivity"]


def _random_reduced_word(rng, n: int) -> Word:
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
    import random  # only the spot checks draw, so not at start-up

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
