import collections
import random
import re
from pathlib import Path

import affsym.little
import affsym.verify
from affsym.cli import main
from affsym.group import bott_level_sizes, bruhat_ball, covers_above
from affsym.stanley import compositions_bounded
from affsym.verify import _random_reduced_word, bijection_sweep
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
    # phi is the one forward all-ones walk: the factor-level check takes
    # its images and only walks them back; every other decomposition takes
    # one round trip, whose forward half is its only forward walk
    calls = collections.Counter()
    real_phi, real_walk, real_trip = (
        affsym.verify.phi,
        affsym.verify.cover_walk,
        affsym.verify.round_trip,
    )

    def counting_phi(v, m, **kwargs):
        calls["phi"] += 1
        return real_phi(v, m, **kwargs)

    def counting_walk(v, masks, sizes, t, forward, table):
        calls["backward" if not forward else "forward"] += 1
        calls["all-ones forward"] += forward and set(sizes) == {1}
        return real_walk(v, masks, sizes, t, forward, table)

    def counting_trip(v, masks, sizes, t, table):
        calls["round trip"] += 1
        calls["all-ones forward"] += set(sizes) == {1}
        return real_trip(v, masks, sizes, t, table)

    monkeypatch.setattr(affsym.verify, "phi", counting_phi)
    monkeypatch.setattr(affsym.verify, "cover_walk", counting_walk)
    monkeypatch.setattr(affsym.verify, "round_trip", counting_trip)
    assert bijection_sweep(4, 4) == (276, [])
    assert calls == {"phi": 1124, "backward": 1124, "round trip": 3096, "all-ones forward": 0}


def _verify_bijection(capsys):
    status = main(["verify", "-n", "3", "--max-length", "2", "bijection"])
    return status, capsys.readouterr().out


def test_perturbed_all_ones_backward_walk_fails_the_round_trip(monkeypatch, capsys):
    real = affsym.verify.cover_walk

    def perturbed(v, masks, sizes, t, forward, table):
        out, t_out = real(v, masks, sizes, t, forward, table)
        if not forward and set(sizes) == {1}:
            out = out[1:] + out[:1]
        return out, t_out

    monkeypatch.setattr(affsym.verify, "cover_walk", perturbed)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert "round trip fails" in out
    assert out.endswith("verification FAILED\n")


def test_perturbed_round_trip_backward_half_fails_the_round_trip(monkeypatch, capsys):
    # the kernel's backward walks at other profiles end one factor off,
    # and only the round trips there walk back at them
    real = affsym.little._walk

    def perturbed(n, sizes, masks, word, position, forward, table, path=None, cap=None):
        end = real(n, sizes, masks, word, position, forward, table, path, cap)
        if not forward and set(sizes) != {1}:
            masks.append(masks.pop(0))
        return end

    monkeypatch.setattr(affsym.little, "_walk", perturbed)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL round trip fails at \d+/\d+ over \[.*\] r=\d$", out, re.M)
    assert out.endswith("verification FAILED\n")
    # the forward halves are untouched: images, profiles and phi all pass
    assert "not bijective" not in out and "length profile" not in out and "phi_r" not in out


def test_perturbed_phi_image_fails_word_and_all_ones_factor_checks(monkeypatch, capsys):
    # phi maps each word to itself: its image is a right cover's word
    real = affsym.verify.phi

    def perturbed(v, m, **kwargs):
        real(v, m, **kwargs)
        return m, [m]

    monkeypatch.setattr(affsym.verify, "phi", perturbed)
    status, out = _verify_bijection(capsys)
    assert status == 1
    assert re.search(r"^FAIL phi_r image \d+@\[.*\] outside the left covers of v=", out, re.M)
    assert "phi_r not surjective" in out
    # the all-ones factor-level check reads phi's images, and fails with it
    assert "round trip fails" in out
    assert re.search(r"factor-level map not bijective at .* alpha=\(1, 1\)$", out, re.M)
    assert "alpha=(2, 1)" not in out and "alpha=(1, 2)" not in out


def test_bijection_sweep_sweeps_each_word_once_per_v(monkeypatch):
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
