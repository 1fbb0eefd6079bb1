import collections
import errno
import gc
import hashlib
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import affsym.cli
import affsym.group
import affsym.little
import affsym.stanley
import affsym.verify
from affsym.cli import main
from affsym.errors import ComputationError, InvariantError
from affsym.group import bott_level_sizes, bruhat_ball, covers_above
from affsym.little import MarkedWord
from affsym.stanley import compositions_bounded
from affsym.verify import (
    _random_reduced_word,
    bijection_sweep,
    chevalley_sweep,
    garsia_little_sweep,
    sweep_ball,
)
from affsym.words import Word, evaluate, is_reduced, reduced_words

README = Path(__file__).resolve().parents[1] / "README.md"

# The instance count of each sweep suite at the verified frontier points.
FRONTIER = {(5, 5): 1255, (5, 6): 2280, (6, 5): 2772, (7, 5): 5544, (6, 6): 5538}


def _random_reduced_word_by_extension(rng, n):
    # each ascent found by testing the extended word for reducedness
    length = rng.randint(4, 9)
    w = [rng.randrange(n)]
    while len(w) < length:
        ascents = [i for i in range(n) if is_reduced(Word(n, tuple(w) + (i,)))]
        w.append(rng.choice(ascents))
    return Word(n, tuple(w))


def test_random_reduced_word_matches_extension_test():
    for n in (2, 3, 4, 5):
        for seed in range(5):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(200):
                word = _random_reduced_word(fast, n)
                assert word == _random_reduced_word_by_extension(slow, n)
                assert is_reduced(word)
            assert fast.getstate() == slow.getstate()


def test_bijection_sweep_decomposes_each_cover_once_per_profile(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # one call per distinct cover w in the ball, for all of its profiles
    # at once: the store is per level and keyed by cover, and a w covers
    # several v of a level
    calls = collections.Counter()
    real = affsym.verify.decomposition_masks

    def counting(w, profiles):
        calls[w, tuple(profiles)] += 1
        return real(w, profiles)

    monkeypatch.setattr(affsym.verify, "decomposition_masks", counting)
    assert bijection_sweep(4, 3) == (4 * sum(bott_level_sizes(4, 3)), [])
    assert set(calls.values()) == {1}
    covers = {w for level in bruhat_ball(4, 3) for v in level for w, _ in covers_above(v)}
    assert len(calls) == len(covers)
    assert set(calls) == {(w, tuple(compositions_bounded(w.length(), 3))) for w in covers}


def test_bijection_sweep_walks_each_reduced_word_forward_once(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # phi is the one forward all-ones walk: the all-ones profile walks
    # only its images back; every other profile takes round trips, whose
    # forward halves are its only forward walks.  Starts are counted per
    # tuple of directions.
    calls = collections.Counter()
    real_phi, real_walks = affsym.verify.phi, affsym.verify.walks

    def counting_phi(v, m, **kwargs):
        calls["phi"] += 1
        return real_phi(v, m, **kwargs)

    def counting_walks(n, starts, sizes, directions, table):
        calls[directions] += len(starts)
        calls["all-ones forward"] += len(starts) * (True in directions and set(sizes) == {1})
        return real_walks(n, starts, sizes, directions, table)

    monkeypatch.setattr(affsym.verify, "phi", counting_phi)
    monkeypatch.setattr(affsym.verify, "walks", counting_walks)
    assert bijection_sweep(4, 4) == (276, [])
    assert calls == {"phi": 1124, (True, False): 3096, (False,): 1124, "all-ones forward": 0}


def test_passing_bijection_sweep_walks_only_profiles_with_decompositions(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # a profile with no decompositions on either side makes no walks
    # call, and a passing sweep formats no element
    calls = collections.Counter()
    real_walks, real_format = affsym.verify.walks, affsym.verify.format_window

    def counting_walks(n, starts, sizes, directions, table):
        calls["walks"] += 1
        calls["empty"] += not starts
        return real_walks(n, starts, sizes, directions, table)

    def counting_format(w):
        calls["format_window"] += 1
        return real_format(w)

    monkeypatch.setattr(affsym.verify, "walks", counting_walks)
    monkeypatch.setattr(affsym.verify, "format_window", counting_format)
    assert bijection_sweep(4, 4) == (276, [])
    assert (calls["walks"], calls["empty"], calls["format_window"]) == (1932, 0, 0)


def _verify_bijection(capsys, max_length=2):
    status = main(["verify", "-n", "3", "--max-length", str(max_length), "bijection"])
    return status, capsys.readouterr().out


# Each fault monkeypatches one map that the bijection sweep calls; the
# sweep's checks must catch it.


def _perturbed_walks(monkeypatch, change):
    # each walk's final masks become change(forward, sizes, masks)
    real = affsym.verify.walks

    def perturbed(n, starts, sizes, directions, table):
        return [
            [(change(forward, sizes, out), t) for forward, (out, t) in zip(directions, ends)]
            for ends in real(n, starts, sizes, directions, table)
        ]

    monkeypatch.setattr(affsym.verify, "walks", perturbed)


def _all_ones_backward_fault(monkeypatch):
    # every backward all-ones walk ends with its factors rotated by one
    def rotated(forward, sizes, out):
        return out[1:] + out[:1] if not forward and set(sizes) == {1} else out

    _perturbed_walks(monkeypatch, rotated)


def _round_trip_backward_fault(monkeypatch):
    # the kernel's backward walks at other profiles end one factor off,
    # and only the round trips there walk back at them
    real = affsym.little._walk

    def perturbed(n, sizes, masks, word, position, forward, table, path=None, cap=None):
        end = real(n, sizes, masks, word, position, forward, table, path, cap)
        if not forward and set(sizes) != {1}:
            masks.append(masks.pop(0))
        return end

    monkeypatch.setattr(affsym.little, "_walk", perturbed)


def _phi_identity_fault(monkeypatch):
    # phi maps each word to itself: its image is a right cover's word
    real = affsym.verify.phi

    def perturbed(v, m, **kwargs):
        real(v, m, **kwargs)
        return m, [m]

    monkeypatch.setattr(affsym.verify, "phi", perturbed)


def _path_mark_fault(monkeypatch):
    # the first vertex of a path of two or more is marked one position on
    real = affsym.verify.phi

    def perturbed(v, m, **kwargs):
        out, path = real(v, m, **kwargs)
        if len(path) > 1:
            first = path[0]
            path[0] = MarkedWord(first.word, first.mark % len(first.word) + 1)
        return out, path

    monkeypatch.setattr(affsym.verify, "phi", perturbed)


def _one_image_per_v_fault(monkeypatch):
    # every word over v maps to the image of the first word walked over v
    real, first = affsym.verify.phi, {}

    def perturbed(v, m, **kwargs):
        return first.setdefault(v, real(v, m, **kwargs))

    monkeypatch.setattr(affsym.verify, "phi", perturbed)


def _image_bit_fault(monkeypatch):
    # a forward walk's image gives its first factor's lowest letter to the
    # second; the sweep walks forward only in its round trips
    def moved(forward, sizes, out):
        if not forward or len(out) < 2:
            return out
        bit = out[0] & -out[0]
        return (out[0] ^ bit, out[1] | bit) + out[2:]

    _perturbed_walks(monkeypatch, moved)


BIJECTION_FAULTS = {
    "all-ones backward walk": _all_ones_backward_fault,
    "round trip backward half": _round_trip_backward_fault,
    "phi identity": _phi_identity_fault,
    "path mark": _path_mark_fault,
    "one image per v": _one_image_per_v_fault,
    "image bit": _image_bit_fault,
}


def test_perturbed_all_ones_backward_walk_fails_the_round_trip(monkeypatch, capsys):
    _all_ones_backward_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert "round trip fails" in out
    assert out.endswith("verification FAILED\n")


def test_perturbed_round_trip_backward_half_fails_the_round_trip(monkeypatch, capsys):
    _round_trip_backward_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL round trip fails at \d+/\d+ over \[.*\] r=\d$", out, re.M)
    assert out.endswith("verification FAILED\n")
    # the forward halves are untouched: images, profiles and phi all pass
    assert "not bijective" not in out and "length profile" not in out and "phi_r" not in out


def test_perturbed_phi_image_fails_word_and_all_ones_factor_checks(monkeypatch, capsys):
    _phi_identity_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL phi_r image \d+@\[.*\] outside the left covers of v=", out, re.M)
    assert "phi_r not surjective" in out
    # the image keeps the right cover's mark, whose q is not r
    assert re.search(r"^FAIL path q-invariant fails at \d+@\d+ over \[", out, re.M)
    # the all-ones factor-level check reads phi's images, and fails with it
    assert "round trip fails" in out
    assert re.search(r"factor-level map not bijective at .* alpha=\(1, 1\)$", out, re.M)
    assert "alpha=(2, 1)" not in out and "alpha=(1, 2)" not in out


def test_moved_path_mark_fails_the_p_invariant(monkeypatch, capsys):
    _path_mark_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL path p-invariant fails at \d+@\d+ over \[", out, re.M)
    # the images are untouched, so every other check passes
    failures = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert all("path p-invariant fails" in line for line in failures)


def test_one_phi_image_per_v_fails_injectivity(monkeypatch, capsys):
    _one_image_per_v_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL phi_r not injective at v=\[.*\] r=\d$", out, re.M)
    assert out.endswith("verification FAILED\n")


def test_moved_image_bit_fails_the_length_profile(monkeypatch, capsys):
    _image_bit_fault(monkeypatch)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL length profile changed at \d+/\d+ over \[.*\]$", out, re.M)
    # phi and the backward halves are untouched
    assert "phi_r" not in out and "round trip fails" not in out and "invariant" not in out


# exit status and stdout SHA-256 of `verify -n 3 --max-length 3 bijection`
# under each fault, recorded at 2a8a804 (before the word-level and
# factor-level checks became one check per (v, r))
BIJECTION_FAULT_GOLDENS = {
    "all-ones backward walk": "1bbefc3d5d2dc79488e77c6534e814a84316805022a61260b78eb62b325ddeb2",
    "round trip backward half": "be5b3fa2fefb79110b87095619323738eec60a64f825902053c77c44ee633280",
    "phi identity": "77c8c40e0bec48ee822752cdb872b2dfc148e4965781c58afe3e0a700347ce85",
    "path mark": "a88d855b12abb7443515f41b4d235a8c00e598b60146a55784417aea062e063f",
    "one image per v": "2bde6b796161b1c81cf69da75337097acdc3717d92c549ff34fc8d46cc4b8563",
    "image bit": "56a03e468e2f5a84b77a68c001e175236e942145c9aa0132e31d13cfeabf7861",
}


@pytest.mark.parametrize("fault", BIJECTION_FAULTS)
def test_bijection_failure_output_matches_recorded_golden(fault, monkeypatch, capsys):
    BIJECTION_FAULTS[fault](monkeypatch)
    status, out = _verify_bijection(capsys, max_length=3)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (status, digest) == (1, BIJECTION_FAULT_GOLDENS[fault])


def _unequal_first_report(name, field):
    # the first report of the sweep gets one side of its identity doubled
    def install(monkeypatch):
        real, calls = getattr(affsym.verify, name), []

        def perturbed(v, covers, residues):
            reports = real(v, covers, residues)
            if not calls:
                setattr(reports[0], field, getattr(reports[0], field).scaled(2))
            calls.append(v)
            return reports

        monkeypatch.setattr(affsym.verify, name, perturbed)

    return install


# per suite: a fault in that suite, and the number of failures, the first
# failure and the stdout SHA-256 of `verify -n 3 --max-length 2 all` under it
SUITE_FAULTS = {
    "garsia-little": (
        _unequal_first_report("garsia_little_reports", "plus_table"),
        1,
        "cover-sum identity fails at v=[1,2,3] r=0: minus={(1,): 1} plus={(1,): 2}",
        "63283f10fc3e9c933d1e499a930b5e52f2362abe56b4992b4b0c4cce82ada2f2",
    ),
    "chevalley": (
        _unequal_first_report("chevalley_reports", "right_table"),
        1,
        "degree-one product rule fails at v=[1,2,3] r=0: left={(1,): 1} right={(1,): 2}",
        "9055f07d1646da37d461a7becdbd8b4431690341b56a6fc8120676cf924cc39a",
    ),
    "bijection": (
        _image_bit_fault,
        60,
        "length profile changed at 2/01 over [-1,3,4]",
        "bb5e05c3d74d729e084d6795363812d0c9023097a56cb5623c7926823339468c",
    ),
}


@pytest.mark.parametrize("suite", SUITE_FAULTS)
def test_unequal_table_report_fails_only_its_suite(suite, monkeypatch, capsys):
    install, count, failure, digest = SUITE_FAULTS[suite]
    install(monkeypatch)
    status = main(["verify", "-n", "3", "--max-length", "2", "all"])
    out = capsys.readouterr().out
    assert status == 1
    suites = [
        f"{other}: 30 instances, {f'{count} FAILED' if other == suite else 'ok'}"
        for other in ("garsia-little", "chevalley", "bijection")
    ]
    lines = out.splitlines()
    assert lines[:5] == suites + ["exchange-random: 200 instances, ok", f"FAIL {failure}"]
    assert all(line.startswith("FAIL ") for line in lines[5:-1])
    assert lines[4 + count :] == ["verification FAILED"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# per index lookup of the random exchange round trips: the number of
# failures, the first failure and the stdout SHA-256 of `verify -n 3
# --max-length 1 all` when the lookup answers one position on
EXCHANGE_FAULTS = {
    "marked_index": (
        129,
        "strong-exchange round trip fails at 10120 pos 3",
        "4d6c8d4e679e4029d5a9518e9490d80e8530542f1931936f7f4f5716d6e07517",
    ),
    "insertion_index": (
        102,
        "insertion round trip fails at 21210 pos 4",
        "ee97c678dc01bc18893e70348b23d16b4e9acb46b5e4367b27b4ae64ab40c9ae",
    ),
}


@pytest.mark.parametrize("name", EXCHANGE_FAULTS)
def test_moved_exchange_index_fails_only_exchange_random(name, monkeypatch, capsys):
    count, failure, digest = EXCHANGE_FAULTS[name]
    real = getattr(affsym.verify, name)
    monkeypatch.setattr(affsym.verify, name, lambda a, k: real(a, k) % len(a) + 1)
    status = main(["verify", "-n", "3", "--max-length", "1", "all"])
    out = capsys.readouterr().out
    assert status == 1
    suites = [f"{suite}: 12 instances, ok" for suite in ("garsia-little", "chevalley", "bijection")]
    lines = out.splitlines()
    summary = f"exchange-random: 200 instances, {count} FAILED"
    assert lines[:5] == suites + [summary, f"FAIL {failure}"]
    assert all(line.startswith("FAIL ") for line in lines[4:-1])
    assert lines[4 + count :] == ["verification FAILED"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_computes_covers_once_per_element(monkeypatch, capsys):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # one pass over the 69 elements of length <= 4 at n = 4 serves every
    # suite, whichever module's binding of covers_above a suite would call
    calls = []
    for module in (affsym.group, affsym.stanley, affsym.verify):
        real = module.covers_above
        monkeypatch.setattr(module, "covers_above", lambda v, real=real: calls.append(v) or real(v))
    assert main(["verify", "-n", "4", "--max-length", "4", "all"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert calls == [v for level in bruhat_ball(4, 4) for v in level]
    assert len(calls) == 69


@pytest.mark.parametrize("n, max_length", [(3, 5), (4, 6)])
def test_positivity_sweep_computes_no_covers_and_one_basis_per_level(n, max_length, monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # positivity reads v alone, and each level's basis serves all of its
    # elements, whichever module's binding a suite would call
    calls = collections.Counter()
    for module, name in [
        (affsym.group, "covers_above"),
        (affsym.stanley, "covers_above"),
        (affsym.verify, "covers_above"),
        (affsym.stanley, "affine_schur_basis"),
        (affsym.verify, "affine_schur_basis"),
    ]:
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    size = sum(bott_level_sizes(n, max_length))
    assert sweep_ball(n, max_length, ["positivity"]) == {"positivity": (size, [])}
    assert calls == {"affine_schur_basis": max_length + 1}


def test_every_verify_suite_is_a_suite_of_the_one_pass():
    # each single-suite `verify` choice and each suite that reads v alone
    # runs as a level of _sweep, so none walks the ball on its own
    assert set(affsym.cli._SUITES) | affsym.verify._ALONE <= set(affsym.verify._LEVELS)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pass_matches_one_suite_sweeps(n):
    # each suite's (count, failures) from the pass of all three, as alone
    sweeps = {
        "garsia-little": garsia_little_sweep,
        "chevalley": chevalley_sweep,
        "bijection": bijection_sweep,
    }
    for max_length in range(4):
        expected = {name: sweep(n, max_length) for name, sweep in sweeps.items()}
        assert sweep_ball(n, max_length, list(sweeps)) == expected


def test_bijection_sweep_sweeps_each_word_once_per_v(monkeypatch):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    # the sweep asks for the covers of each v once, before its checks
    elements, builds = [], collections.Counter()
    real_covers, real_record = affsym.verify.covers_above, affsym.verify.word_record

    def covers(v):
        elements.append(v)
        return real_covers(v)

    def counting(n, letters):
        builds[elements[-1], letters] += 1
        return real_record(n, letters)

    monkeypatch.setattr(affsym.verify, "covers_above", covers)
    monkeypatch.setattr(affsym.verify, "word_record", counting)
    assert bijection_sweep(4, 3) == (4 * sum(bott_level_sizes(4, 3)), [])
    assert elements == [v for level in bruhat_ball(4, 3) for v in level]
    assert set(builds.values()) == {1}
    read = collections.defaultdict(set)
    for v, letters in builds:
        read[v].add(letters)
    for v in elements:
        # every walk starts at a reduced word of a cover, and every word
        # it visits is v-marked
        assert {a.letters for w, _ in real_covers(v) for a in reduced_words(w)} <= read[v]
        for letters in read[v]:
            word = Word(4, letters)
            deletions = [word.delete(i) for i in range(1, len(word) + 1)]
            assert any(is_reduced(d) and evaluate(d) == v for d in deletions)
    # a word read under two elements is built for each: the table is per v
    assert len(builds) > len({letters for _, letters in builds})


def test_bijection_sweep_walks_build_no_private_table(monkeypatch):
    # phi and the factor walks read the sweep's per-v table; a record
    # built through little's own word_record would be a per-call table
    calls = []
    real = affsym.little.word_record

    def counting(n, letters):
        calls.append(letters)
        return real(n, letters)

    monkeypatch.setattr(affsym.little, "word_record", counting)
    assert bijection_sweep(4, 3) == (4 * sum(bott_level_sizes(4, 3)), [])
    assert calls == []


def test_frontier_instance_counts_follow_bott():
    # each sweep suite checks n instances per element of length <= L
    for (n, max_length), count in FRONTIER.items():
        assert count == n * sum(bott_level_sizes(n, max_length))
    # a point may be measured again at a later commit: one row per
    # (point, suite, commit), and every point and suite has a row
    rows = re.findall(
        r"^\| `affsym verify -n (\d+) --max-length (\d+) (bijection|all)` \| ([\d,]+) \|"
        r".* \| ([^|]+) \|$",
        README.read_text(),
        re.MULTILINE,
    )
    measured = [(int(n), int(l), suite, commit) for n, l, suite, _, commit in rows]
    assert len(set(measured)) == len(measured)
    assert {point[:3] for point in measured} == {
        (n, l, suite) for n, l in FRONTIER for suite in ("all", "bijection")
    }
    for n, max_length, _, count, _ in rows:
        assert int(count.replace(",", "")) == FRONTIER[int(n), int(max_length)]
    # the positivity suite checks one instance per element of length <= L
    rows = re.findall(
        r"^\| `affsym verify -n (\d+) --max-length (\d+) positivity` \| ([\d,]+) \|",
        README.read_text(),
        re.MULTILINE,
    )
    assert {(int(n), int(l)) for n, l, _ in rows} == {(5, 11), (6, 9), (7, 8), (4, 16)}
    for n, max_length, count in rows:
        assert int(count.replace(",", "")) == sum(bott_level_sizes(int(n), int(max_length)))


# ---------------------------------------------------------------------------
# the sweep split across forked processes


@pytest.fixture(params=[2, 3])
def processes(request, monkeypatch):
    # every sweep of the test is split over request.param processes,
    # whatever its size; a hang fails the test after 60 s, and no child
    # process outlives it
    def hung(signum, frame):
        raise TimeoutError("the split sweep hung")

    monkeypatch.setattr(affsym.verify, "_processes", lambda size: request.param)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield request.param
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_processes_follow_the_cpus_and_the_ball_size(monkeypatch):
    least = affsym.verify._PARALLEL_BALL
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert [affsym.verify._processes(size) for size in (least - 1, least, 10**6)] == [1, 2, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert affsym.verify._processes(10**6) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert affsym.verify._processes(10**6) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert affsym.verify._processes(10**6) == 2
    monkeypatch.delattr(os, "fork")
    assert affsym.verify._processes(10**6) == 1


def _a_fault_in_each_suite(monkeypatch):
    # the counting suites' first report at each v gets one side doubled,
    # the bijection suite's forward walks move an image bit, and the
    # expansion of each v of odd length has its coefficients negated
    real_expand = affsym.verify.expand_in_affine_schur

    def negated(w, **kw):
        result = real_expand(w, **kw)
        if w.length() % 2:
            result.coefficients = {key: -value for key, value in result.coefficients.items()}
        return result

    monkeypatch.setattr(affsym.verify, "expand_in_affine_schur", negated)
    faults = (("garsia_little_reports", "plus_table"), ("chevalley_reports", "right_table"))
    for name, field in faults:
        real = getattr(affsym.verify, name)

        def perturbed(v, covers, residues, real=real, field=field):
            reports = real(v, covers, residues)
            setattr(reports[0], field, getattr(reports[0], field).scaled(2))
            return reports

        monkeypatch.setattr(affsym.verify, name, perturbed)
    _image_bit_fault(monkeypatch)


@pytest.mark.parametrize("faulty", [False, True])
def test_split_sweep_matches_one_process(faulty, processes, monkeypatch, capsys):
    names = ["garsia-little", "chevalley", "bijection", "positivity"]
    if faulty:
        _a_fault_in_each_suite(monkeypatch)
    for n in (2, 3, 4):
        for max_length in range(5):
            split = sweep_ball(n, max_length, names)
            with monkeypatch.context() as serial:
                serial.setattr(affsym.verify, "_processes", lambda size: 1)
                assert split == sweep_ball(n, max_length, names)
    assert all(failures for _, failures in split.values()) == faulty
    # the printed positivity report over the 46 elements of length <= 5
    argv = ["verify", "-n", "3", "--max-length", "5", "positivity"]
    printed = main(argv), capsys.readouterr()
    with monkeypatch.context() as serial:
        serial.setattr(affsym.verify, "_processes", lambda size: 1)
        assert printed == (main(argv), capsys.readouterr())
    assert printed[1].out.count("\nFAIL ") == 36 * faulty


def _failures_at_each_v(monkeypatch, n, max_length, names):
    # the oracle: a one-process sweep of the ball, each suite's failures
    # recorded per v by a wrapper around its level factory
    found = {name: {} for name in names}

    def recording(name, factory):
        def level(n, length):
            check = factory(n, length)

            def recorded(v, covers):
                found[name][v] = check(v, covers)
                return found[name][v]

            return recorded

        return level

    with monkeypatch.context() as oracle:
        oracle.setattr(affsym.verify, "_processes", lambda size: 1)
        for name in names:
            oracle.setitem(affsym.verify._LEVELS, name, recording(name, affsym.verify._LEVELS[name]))
        sweep_ball(n, max_length, names)
    return found


@pytest.mark.parametrize("fault", [None, *BIJECTION_FAULTS, "a fault in each suite"])
def test_sweep_over_given_levels_matches_the_ball_sweep_at_those_v(
    fault, processes, monkeypatch
):
    names = ["garsia-little", "chevalley", "bijection", "positivity"]
    if fault == "a fault in each suite":
        _a_fault_in_each_suite(monkeypatch)
    elif fault is not None:
        BIJECTION_FAULTS[fault](monkeypatch)
    for n in (3, 4):
        for max_length in range(5):
            found = _failures_at_each_v(monkeypatch, n, max_length, names)
            levels = [level[::2] for level in bruhat_ball(n, max_length)]
            walked = [v for level in levels for v in level]
            expected = {
                name: (
                    (1 if name == "positivity" else n) * len(walked),
                    [f for v in walked for f in found[name][v]],
                )
                for name in names
            }
            assert affsym.verify._sweep(n, levels, names) == expected
            with monkeypatch.context() as serial:
                serial.setattr(affsym.verify, "_processes", lambda size: 1)
                assert affsym.verify._sweep(n, levels, names) == expected
    assert any(failures for _, failures in expected.values()) == (fault is not None)


@pytest.mark.parametrize("fault", BIJECTION_FAULTS)
def test_split_bijection_failure_output_matches_golden(fault, processes, monkeypatch, capsys):
    BIJECTION_FAULTS[fault](monkeypatch)
    status, out = _verify_bijection(capsys, max_length=3)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (status, digest) == (1, BIJECTION_FAULT_GOLDENS[fault])


# (level, index) of the elements of bruhat_ball(3, 3) where the check
# raises: index 0 is always the parent's, index 1 a worker's
@pytest.mark.parametrize("spots", [[(2, 1)], [(2, 1), (3, 0)], [(2, 0), (3, 1)]])
def test_split_sweep_raises_the_first_exception_in_ball_order(
    spots, processes, monkeypatch, capsys
):
    levels, real = bruhat_ball(3, 3), affsym.verify.covers_above
    faults = {levels[length][i]: f"fault at {length}.{i}" for length, i in spots}

    def faulty(v):
        if v in faults:
            raise InvariantError(faults[v])
        return real(v)

    monkeypatch.setattr(affsym.verify, "covers_above", faulty)
    argv = ["verify", "-n", "3", "--max-length", "3", "bijection"]
    split = main(argv), capsys.readouterr()
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    assert split == (main(argv), capsys.readouterr())
    length, i = spots[0]
    assert split == (1, ("", f"internal error: fault at {length}.{i}\n"))


def test_one_process_sweep_stops_at_its_first_exception(monkeypatch, capsys):
    monkeypatch.setattr(affsym.verify, "_processes", lambda size: 1)
    levels, real, called = bruhat_ball(3, 3), affsym.verify.covers_above, []
    ball = [v for level in levels for v in level]

    def faulty(v):
        called.append(v)
        if v == levels[2][1]:
            raise InvariantError("fault at 2.1")
        return real(v)

    monkeypatch.setattr(affsym.verify, "covers_above", faulty)
    status = main(["verify", "-n", "3", "--max-length", "3", "bijection"])
    assert (status, capsys.readouterr()) == (1, ("", "internal error: fault at 2.1\n"))
    assert called == ball[: ball.index(levels[2][1]) + 1]


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_split_sweep_with_a_dead_worker_exits_1(death, processes, monkeypatch, capsys):
    parent, real = os.getpid(), affsym.verify.covers_above

    def dying(v):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(0)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(v)

    monkeypatch.setattr(affsym.verify, "covers_above", dying)
    status = main(["verify", "-n", "3", "--max-length", "2", "bijection"])
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err.startswith(f"internal error: sweep worker 1 of {processes} ended without a result")


def test_split_sweep_that_cannot_fork_its_last_worker_exits_1(processes, monkeypatch, capsys):
    # the workers already started are killed and reaped
    real, started = os.fork, []

    def fork():
        if len(started) == processes - 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        started.append(True)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    status = main(["verify", "-n", "3", "--max-length", "2", "bijection"])
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err.startswith(f"internal error: cannot start sweep worker {processes - 1}:")


def test_split_sweep_worker_whose_parent_is_gone_exits(processes, monkeypatch):
    # as if the parent had died and the worker were reparented
    monkeypatch.setattr(os, "getppid", lambda: 1)
    with pytest.raises(ComputationError, match="ended without a result"):
        bijection_sweep(3, 2)


def test_interrupted_split_sweep_kills_its_workers(processes, monkeypatch):
    parent, real = os.getpid(), affsym.verify.covers_above

    def stuck(v):
        if os.getpid() != parent:
            time.sleep(3600)
        raise KeyboardInterrupt

    monkeypatch.setattr(affsym.verify, "covers_above", stuck)
    with pytest.raises(KeyboardInterrupt):
        bijection_sweep(3, 2)


def test_split_sweep_stops_its_workers_after_the_first_exception(processes, monkeypatch, tmp_path):
    # the parent raises at the ball's first element; each worker, slowed
    # to 0.5 s a v, stops at its next v instead of checking its whole
    # share (9 v of 19 for two processes, 6 for three)
    parent, real, log = os.getpid(), affsym.verify.covers_above, tmp_path / "checked"

    def slow(v):
        if os.getpid() == parent:
            raise InvariantError("fault at the identity")
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        time.sleep(0.5)
        return real(v)

    monkeypatch.setattr(affsym.verify, "covers_above", slow)
    with pytest.raises(InvariantError, match="fault at the identity"):
        bijection_sweep(3, 3)
    checked = log.read_text().split() if log.exists() else []
    assert all(checked.count(pid) <= 2 for pid in checked)


def test_sweep_leaves_the_callers_gc_freeze_as_it_is(monkeypatch):
    # the collector is the whole process's, so a sweep leaves it as the
    # caller set it: enabled or not, frozen or not (a fresh Python 3.12.1
    # already reports a freeze count of 375), in one process and in two
    enabled = gc.isenabled()
    try:
        for collect, freeze, processes in itertools.product(
            (gc.enable, gc.disable), (False, True), (1, 2)
        ):
            monkeypatch.setattr(affsym.verify, "_processes", lambda size: processes)
            collect()
            if freeze:
                gc.freeze()
            found = (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold())
            sweep_ball(4, 4, ["bijection"])
            assert (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()) == found
            # a frozen object that is freed leaves the count: found would
            # be frozen by the next case and freed when it is rebound
            del found
            if freeze:
                gc.unfreeze()
    finally:
        gc.unfreeze()
        (gc.enable if enabled else gc.disable)()


# the sweep split over two processes after stdout holds unflushed text
SPLIT_VERIFY = """
import sys
import affsym.verify
from affsym.cli import main
affsym.verify._processes = lambda size: 2
print("before the sweep")
sys.exit(main(sys.argv[1:]))
"""


def test_split_sweep_writes_stdout_once(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_VERIFY, "verify", "-n", "3", "--max-length", "2", "all"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "before the sweep\n"
        "garsia-little: 30 instances, ok\n"
        "chevalley: 30 instances, ok\n"
        "bijection: 30 instances, ok\n"
        "exchange-random: 200 instances, ok\n"
        "all checks passed\n"
    )
