import collections
import functools
import itertools
import math

import pytest

import affsym.little as little_module
import affsym.words
from affsym.cli import main
from affsym.errors import (
    CycleOverflowError,
    FormatError,
    InvalidDecompositionError,
    InvariantError,
    MarkAbsentError,
    NotLeftRCoverError,
    NotReducedError,
    NotRightRCoverError,
    NotVMarkedError,
)
from affsym.group import (
    Reflection,
    as_reflection,
    cover_reflection,
    covers_above,
    elements_of_length,
    from_window,
    identity,
    left_r_covers,
    reflection_pair,
    right_r_covers,
)
from affsym.little import (
    MarkedSubset,
    MarkedWord,
    PQPair,
    backward_step,
    cd_cover_step,
    cd_cover_step_back,
    forward_step,
    generalized_little,
    inverse_generalized_little,
    is_v_marked,
    little_trace,
    parse_decomposition,
    parse_marked_word,
    phi,
    phi_inverse,
    phi_r,
    pq,
    v_marked_words,
)
from affsym.stanley import alpha_decompositions, compositions_bounded
from affsym.words import (
    AlphaDecomposition,
    CyclicSubset,
    Word,
    canonical_cd_word,
    cd_element,
    cd_letters,
    count_reduced_words,
    evaluate,
    insertion_index,
    is_cyclically_decreasing,
    is_reduced,
    marked_index,
    parse_word,
    reduced_words,
    reflection_key,
    subset_mask,
    word_record,
)

FIG_V = evaluate(parse_word(5, "3410321042"))

FIG_ROWS = [
    ("34102321042", 5, 2, 5),
    ("34101321042", 11, 2, 3),
    ("34101321041", 3, 2, 1),
    ("34001321041", 4, 2, 3),
    ("34041321041", 4, -6, 2),
]


def marked(n, text):
    return parse_marked_word(n, text)


# ---------------------------------------------------------------------------
# single steps


@pytest.mark.parametrize(
    "source,target",
    [
        ("34102321042@5", "34101321042@11"),
        ("34101321041@3", "34001321041@4"),
        ("34001321041@4", "34041321041@4"),
    ],
)
def test_forward_step_figure_rows(source, target):
    assert forward_step(FIG_V, marked(5, source)) == marked(5, target)


@pytest.mark.parametrize(
    "source,target",
    [
        ("34041321041@4", "34001321041@4"),
        ("34101321042@11", "34102321042@5"),
    ],
)
def test_backward_step_figure_rows(source, target):
    assert backward_step(FIG_V, marked(5, source)) == marked(5, target)


def test_steps_require_v_marked():
    with pytest.raises(NotVMarkedError):
        forward_step(identity(5), marked(5, "34102321042@5"))
    with pytest.raises(NotVMarkedError):
        backward_step(identity(5), marked(5, "34102321042@5"))


@pytest.mark.parametrize("n", [2, 3])
def test_backward_inverts_forward_exhaustively(n):
    for l in range(5):
        for v in elements_of_length(n, l):
            for m in v_marked_words(v):
                assert is_v_marked(v, m)
                image = forward_step(v, m)
                assert is_v_marked(v, image)
                assert backward_step(v, image) == m


@pytest.mark.parametrize("n", [2, 3])
def test_is_v_marked_matches_reduced_deletion_evaluating_to_v(n):
    # a deletion that evaluates to v is reduced exactly when it has l(v)
    # letters; every word of length l(v) + 1 (and, to reach deletions of
    # the wrong length, l(v) + 3) at every mark, false cases included
    verdicts = collections.Counter()
    for l in range(4):
        for v in elements_of_length(n, l):
            for length in (l + 1, l + 3):
                for letters in itertools.product(range(n), repeat=length):
                    word = Word(n, letters)
                    for mark in range(1, length + 1):
                        deletion = word.delete(mark)
                        expected = is_reduced(deletion) and evaluate(deletion) == v
                        assert is_v_marked(v, MarkedWord(word, mark)) == expected
                        verdicts[length - l, expected] += 1
    assert all(verdicts[key] for key in ((1, True), (1, False), (3, False)))
    assert verdicts[3, True] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_forward_step_is_a_fixed_point_free_permutation(n):
    for l in range(6):
        for v in elements_of_length(n, l):
            vertices = v_marked_words(v)
            images = [forward_step(v, m) for m in vertices]
            assert len(set(images)) == len(vertices)
            assert set(images) == set(vertices)
            assert all(image != m for m, image in zip(vertices, images))


# ---------------------------------------------------------------------------
# phi


def test_phi_figure_path():
    out, path = phi(FIG_V, marked(5, "34102321042@5"))
    assert out == marked(5, "34041321041@4")
    assert len(path) == 4
    assert [str(m) for m in path] == [
        "34101321042@11",
        "34101321041@3",
        "34001321041@4",
        "34041321041@4",
    ]


def test_phi_identity_base_case():
    out, path = phi(identity(3), MarkedWord(parse_word(3, "1"), 1))
    assert out == MarkedWord(parse_word(3, "0"), 1)
    assert path == [out]


@pytest.mark.parametrize("n", [2, 3])
def test_phi_is_a_bijection_on_reduced_marked_words(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            vertices = [m for m in v_marked_words(v) if is_reduced(m.word)]
            images = [phi(v, m)[0] for m in vertices]
            assert len(set(images)) == len(vertices)
            assert set(images) == set(vertices)
            for m, image in zip(vertices, images):
                assert phi_inverse(v, image)[0] == m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_on_a_shared_table_matches_fresh_tables(n):
    # one table per v, filled by every walk over v, as the bijection sweep
    # keeps it; little_trace's pairs match the validating pq
    for l in range(4):
        for v in elements_of_length(n, l):
            shared = functools.cache(word_record)
            for m in v_marked_words(v):
                if not is_reduced(m.word):
                    continue
                out, path = phi(v, m)
                assert phi(v, m, table=shared) == (out, path)
                assert little_trace(v, m) == [(x, pq(v, x)) for x in [m] + path]


def test_phi_with_a_table_raises_the_same_errors():
    table = functools.cache(word_record)
    cases = [
        (identity(5), marked(5, "34102321042@5"), NotVMarkedError),
        (FIG_V, marked(5, "34101321042@11"), NotReducedError),
    ]
    for v, m, error in cases:
        with pytest.raises(error) as fresh:
            phi(v, m)
        with pytest.raises(error) as shared:
            phi(v, m, table=table)
        assert str(shared.value) == str(fresh.value)


# ---------------------------------------------------------------------------
# the (p, q) bookkeeping


def test_pq_figure_column():
    for text, mark, p, q in FIG_ROWS:
        pair = pq(FIG_V, MarkedWord(parse_word(5, text), mark))
        assert pair == PQPair(5, p, q)


def test_pq_shift_identification():
    assert PQPair(5, -1, 7) == PQPair(5, -6, 2)
    assert PQPair(5, -1, 7).p == 4 and PQPair(5, -1, 7).q == 12


@pytest.mark.parametrize("n", [2, 3])
def test_pq_reflection_relation(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            for m in v_marked_words(v):
                pair = pq(v, m)
                assert evaluate(m.word) == v * pair.reflection().element()
                if is_reduced(m.word):
                    assert pair.p < pair.q


# ---------------------------------------------------------------------------
# phi restricted to r-covers


def test_phi_r_figure():
    u, word = phi_r(FIG_V, 2, parse_word(5, "34102321042"))
    assert str(word) == "34041321041"
    assert evaluate(word) == u


def test_phi_r_example_8_membership():
    v = from_window(4, [-1, 1, 4, 6])
    targets = {from_window(4, [-3, 3, 4, 6]), from_window(4, [-2, 1, 4, 7])}
    for a in reduced_words(from_window(4, [1, -1, 4, 6])):
        u, word = phi_r(v, 1, a)
        assert u in targets
        assert evaluate(word) == u and is_reduced(word)


def test_phi_r_rejects_wrong_residue():
    v = from_window(4, [-1, 1, 4, 6])
    word = reduced_words(from_window(4, [1, -1, 4, 6]))[0]
    with pytest.raises(NotRightRCoverError):
        phi_r(v, 2, word)


@pytest.mark.parametrize("n", [2, 3])
def test_phi_r_bijection_and_path_invariant(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            for r in range(n):
                plus = [w for w, t in covers_above(v) if (t.a - r) % n == 0]
                minus = {
                    (u, a.letters)
                    for u, t in covers_above(v)
                    if (t.b - r) % n == 0
                    for a in reduced_words(u)
                }
                images = set()
                for w in plus:
                    for a in reduced_words(w):
                        m = MarkedWord(a, marked_index(a, v))
                        out, path = phi(v, m)
                        for vertex in [m] + path[:-1]:
                            assert (pq(v, vertex).p - r) % n == 0
                        assert (pq(v, path[-1]).q - r) % n == 0
                        images.add((evaluate(out.word), out.word.letters))
                assert images == minus


# ---------------------------------------------------------------------------
# set-level cover step


def test_cd_cover_step_examples():
    out = cd_cover_step(MarkedSubset(CyclicSubset(5, (2, 3)), 3))
    assert out == MarkedSubset(CyclicSubset(5, (1, 2)), 1)
    out = cd_cover_step(MarkedSubset(CyclicSubset(4, (2,)), 2))
    assert out == MarkedSubset(CyclicSubset(4, (1,)), 1)
    with pytest.raises(MarkAbsentError):
        MarkedSubset(CyclicSubset(5, (2, 3)), 0)


def test_cd_cover_step_back_inverts():
    for n in range(2, 6):
        for k in range(1, n):
            for members in itertools.combinations(range(n), k):
                for mark in members:
                    ms = MarkedSubset(CyclicSubset(n, members), mark)
                    assert cd_cover_step_back(cd_cover_step(ms)) == ms


def _prescribed_words(A, mark):
    """Reduced words the slide-step proof applies to directly: when the
    residue two below the marked run is present, it must sit right of the
    run's bottom letter."""
    n = A.n
    members = set(A.members)
    j = 0
    while (mark - j - 1) % n in members:
        j += 1
    bottom = (mark - j) % n
    blocker = (mark - j - 2) % n
    for a in reduced_words(cd_element(A)):
        if blocker not in members:
            yield a
        elif a.letters.index(blocker) > a.letters.index(bottom):
            yield a


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_set_level_step_matches_word_level_phi_on_prescribed_words(n):
    for k in range(1, n):
        for members in itertools.combinations(range(n), k):
            A = CyclicSubset(n, members)
            for mark in members:
                moved = cd_cover_step(MarkedSubset(A, mark))
                v = cd_element(CyclicSubset(n, tuple(set(members) - {mark})))
                for a in _prescribed_words(A, mark):
                    m = MarkedWord(a, a.letters.index(mark) + 1)
                    out, _ = phi(v, m)
                    assert is_cyclically_decreasing(out.word)
                    assert evaluate(out.word) == cd_element(moved.subset)
                    assert out.word[out.mark - 1] == moved.mark


# ---------------------------------------------------------------------------
# generalized algorithm


def _cover_residue(v, w):
    return as_reflection(v.inverse() * w).a % v.n


def test_generalized_little_single_factor_degenerates_to_cd_step():
    for n in range(2, 6):
        for k in range(1, n):
            for members in itertools.combinations(range(n), k):
                A = CyclicSubset(n, members)
                for mark in members:
                    v = cd_element(CyclicSubset(n, tuple(set(members) - {mark})))
                    w = cd_element(A)
                    r = _cover_residue(v, w)
                    out = generalized_little(v, r, AlphaDecomposition(n, (A,)))
                    assert out.factors == (cd_cover_step(MarkedSubset(A, mark)).subset,)


def test_word_level_walk_need_not_reproduce_the_factor_level_output():
    # no initial reduced word of w makes phi_r spell the factors that
    # generalized_little gives: the only word 02 of w = s0 s2 goes to 01,
    # that is s0 s1, while the factor {0, 1} is s1 s0, another left cover
    v, w = from_window(3, [0, 2, 4]), from_window(3, [0, 4, 2])
    d = AlphaDecomposition(3, (CyclicSubset(3, (0, 2)),))
    assert d.product() == w and reduced_words(w) == [Word(3, (0, 2))]
    x, c = phi_r(v, 2, Word(3, (0, 2)))
    assert (x, c) == (from_window(3, [2, 0, 4]), Word(3, (0, 1)))
    out = generalized_little(v, 2, d)
    assert out.factors == (CyclicSubset(3, (0, 1)),)
    assert out.product() == from_window(3, [0, 1, 5]) != x


@pytest.mark.parametrize("n", [2, 3])
def test_generalized_little_round_trip_and_counts(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            for r in range(n):
                plus = right_r_covers(v, r)
                minus = left_r_covers(v, r)
                for alpha in compositions_bounded(l + 1, n - 1):
                    plus_decs = [d for w in plus for d in alpha_decompositions(w, alpha)]
                    minus_decs = [d for u in minus for d in alpha_decompositions(u, alpha)]
                    images = []
                    for d in plus_decs:
                        out = generalized_little(v, r, d)
                        assert out.alpha == d.alpha
                        assert out.product() in minus
                        assert inverse_generalized_little(v, r, out) == d
                        images.append(out)
                    assert len(set(images)) == len(images)
                    assert set(images) == set(minus_decs)


# ---------------------------------------------------------------------------
# object-level oracles: the walks as they were before the integer kernel


def _object_sequence(word):
    """(y^-1(a_j), y^-1(a_j + 1)) per position, y the evaluated suffix."""
    y_inv = identity(word.n)
    out = []
    for letter in reversed(word.letters):
        out.append((y_inv(letter), y_inv(letter + 1)))
        y_inv = y_inv.times_simple(letter)
    return out[::-1]


def _object_reduced(sequence):
    return all(p < q for p, q in sequence)


def _object_partner(word, sequence, i):
    t = Reflection(word.n, *sequence[i - 1])
    hits = [j for j, pair in enumerate(sequence, 1) if j != i and Reflection(word.n, *pair) == t]
    assert len(hits) == 1
    return hits[0]


def _object_forward(m, _sequence):
    word = m.word.replace(m.mark, (m.marked_letter - 1) % m.word.n)
    sequence = _object_sequence(word)
    mark = m.mark if _object_reduced(sequence) else _object_partner(word, sequence, m.mark)
    return MarkedWord(word, mark), sequence


def _object_backward(m, sequence):
    k = m.mark if _object_reduced(sequence) else _object_partner(m.word, sequence, m.mark)
    word = m.word.replace(k, (m.word[k - 1] + 1) % m.word.n)
    return MarkedWord(word, k), _object_sequence(word)


def _object_walk(v, m, step):
    """The path of phi (step _object_forward) or phi_inverse (_object_backward)."""
    sequence = _object_sequence(m.word)
    path = []
    for _ in range(v.n * len(m.word) * count_reduced_words(v) + 1):
        m, sequence = step(m, sequence)
        path.append(m)
        if _object_reduced(sequence):
            return path
    raise AssertionError("oracle walk exceeded its cap")


def _object_slide(ms, direction):
    n, members = ms.subset.n, set(ms.subset.members)
    i = ms.mark % n
    run = 1
    while run < n and (i + direction * run) % n in members:
        run += 1
    new_mark = (i + direction * run) % n
    assert new_mark not in members
    return MarkedSubset(CyclicSubset(n, tuple((members - {i}) | {new_mark})), new_mark)


def _concat_word_oracle(n, factors):
    """The concatenated canonical factor words, and the (factor index,
    letter) at each of its positions."""
    spots = [(f, a) for f, factor in enumerate(factors) for a in canonical_cd_word(factor).letters]
    return Word(n, tuple(a for _, a in spots)), spots


def _rebuilding_walk(v, factors, direction):
    """The factor walk as it was first written: after every step it rebuilds
    the concatenated word and a (factor, letter) table of its positions."""
    factors = list(factors)
    word, spots = _concat_word_oracle(v.n, factors)
    t = as_reflection(v.inverse() * evaluate(word))
    sequence = _object_sequence(word)
    (start,) = [j for j, pair in enumerate(sequence, 1) if Reflection(v.n, *pair) == t]
    f, letter = spots[start - 1]
    states = math.prod(math.comb(v.n, len(factor)) for factor in factors)
    for _ in range(states * max(1, len(word)) * v.n + 1):
        moved = _object_slide(MarkedSubset(factors[f], letter), direction)
        factors[f] = moved.subset
        word, spots = _concat_word_oracle(v.n, factors)
        sequence = _object_sequence(word)
        if _object_reduced(sequence):
            return tuple(factors)
        g, letter = spots[_object_partner(word, sequence, spots.index((f, moved.mark)) + 1) - 1]
        assert g != f
        f = g
    raise AssertionError("oracle walk exceeded its cap")


@pytest.mark.parametrize("n,max_length", [(2, 3), (3, 3), (4, 3), (5, 3)])
def test_generalized_little_matches_rebuilding_oracle(n, max_length):
    for l in range(max_length + 1):
        for v in elements_of_length(n, l):
            pairs = covers_above(v)
            for alpha in compositions_bounded(l + 1, n - 1):
                for w, t in pairs:
                    for d in alpha_decompositions(w, alpha):
                        forward = generalized_little(v, t.a % n, d)
                        assert forward.factors == _rebuilding_walk(v, d.factors, -1)
                        back = inverse_generalized_little(v, t.b % n, d)
                        assert back.factors == _rebuilding_walk(v, d.factors, 1)


def _cover_starts(n, max_length):
    # per v of length below max_length and per profile alpha, the starts
    # of v's covers: each decomposition's masks and the cover's
    # reflection, with the decomposition
    for l in range(max_length):
        for v in elements_of_length(n, l):
            yield v, [
                (
                    alpha,
                    [
                        (tuple(subset_mask(f.members) for f in d.factors), t, d)
                        for w, t in covers_above(v)
                        for d in alpha_decompositions(w, alpha)
                    ],
                )
                for alpha in compositions_bounded(l + 1, n - 1)
            ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walks_on_pairs_match_public_walks(n):
    # entered on the record key of each cover's reflection, both ways,
    # with one table of records shared by all walks over v
    for v, profiles in _cover_starts(n, 4):
        table = functools.cache(word_record)
        for alpha, starts in profiles:
            for masks, t, d in starts:
                for forward, public, r in (
                    (True, generalized_little, t.a % n),
                    (False, inverse_generalized_little, t.b % n),
                ):
                    image = public(v, r, d)
                    [[(out, t_out)]] = little_module.walks(
                        n, [(masks, reflection_key(n, t.a, t.b))], alpha, (forward,), table
                    )
                    assert out == tuple(subset_mask(f.members) for f in image.factors)
                    expected = cover_reflection(v, image.product())
                    assert t_out == reflection_key(n, expected.a, expected.b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walks_batch_and_round_trip_match_single_walks(n):
    # many starts in one call, sharing a table, equal one start per call
    # on a fresh table; the backward half of (True, False) starts from the
    # forward half's final word, masks and record, and (False,) starts
    # afresh from the image's masks and key
    for _, profiles in _cover_starts(n, 4):
        shared = functools.cache(word_record)
        for alpha, starts in profiles:
            keyed = [(masks, reflection_key(n, t.a, t.b)) for masks, t, _ in starts]
            trips = little_module.walks(n, keyed, alpha, (True, False), shared)
            assert len(trips) == len(keyed)
            for (masks, key), trip in zip(keyed, trips):
                fresh = functools.cache(word_record)
                [forward] = little_module.walks(n, [(masks, key)], alpha, (True,), fresh)
                [back] = little_module.walks(n, forward, alpha, (False,), fresh)
                assert trip == forward + back
                [alone] = little_module.walks(n, [(masks, key)], alpha, (True, False), fresh)
                assert trip == alone
                assert back[0][0] == masks


@pytest.mark.parametrize("n", [2, 3, 4])
def test_phi_is_the_forward_all_ones_walk(n):
    # the bijection sweep takes phi's images as its forward factor walks
    # at alpha = (1, ..., 1): same image masks, and t' the key of the
    # normal pair at phi's final mark
    for l in range(4):
        for v in elements_of_length(n, l):
            table = functools.cache(word_record)
            for w, t in covers_above(v):
                for a in reduced_words(w):
                    out, _ = phi(v, MarkedWord(a, marked_index(a, v)), table=table)
                    start = (tuple(1 << i for i in a.letters), reflection_key(n, t.a, t.b))
                    [[(masks, t_out)]] = little_module.walks(
                        n, [start], (1,) * (l + 1), (True,), table
                    )
                    assert masks == tuple(1 << i for i in out.word.letters)
                    end = table(n, out.word.letters).sequence[out.mark - 1]
                    assert t_out == reflection_key(n, *reflection_pair(n, *end))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_layout_matches_per_walk_formulas(n):
    # every length profile of total at most 8, letter walks included
    for total in range(9):
        for sizes in compositions_bounded(total, n - 1):
            starts, owner, cap = little_module._layout(n, sizes)
            assert list(starts) == list(itertools.accumulate(sizes, initial=0))
            assert list(owner) == [f for f, size in enumerate(sizes) for _ in range(size)]
            assert cap == math.prod(math.comb(n, size) for size in sizes) * max(1, total) * n + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_slide_matches_object_oracle(n):
    for k in range(1, n):
        for members in itertools.combinations(range(n), k):
            mask = sum(1 << i for i in members)
            for mark in members:
                ms = MarkedSubset(CyclicSubset(n, members), mark)
                for direction, public in ((-1, cd_cover_step), (1, cd_cover_step_back)):
                    expected = _object_slide(ms, direction)
                    assert public(ms) == expected
                    new_mask, new_mark = little_module._slide(n, mask, mark, direction)
                    assert new_mark == expected.mark
                    assert new_mask == sum(1 << i for i in expected.subset.members)
                    block = cd_letters(n, new_mask)
                    assert little_module._move(n, mask, mark, direction) == (
                        new_mask,
                        block,
                        block.index(new_mark),
                    )


@pytest.mark.parametrize("n,max_length", [(2, 3), (3, 3), (4, 3)])
def test_word_walk_matches_object_oracle(n, max_length):
    for l in range(max_length + 1):
        for v in elements_of_length(n, l):
            for m in v_marked_words(v):
                sequence = _object_sequence(m.word)
                assert forward_step(v, m) == _object_forward(m, sequence)[0]
                assert backward_step(v, m) == _object_backward(m, sequence)[0]
                if _object_reduced(sequence):
                    out, path = phi(v, m)
                    assert path == _object_walk(v, m, _object_forward) and out == path[-1]
                    out, path = phi_inverse(v, m)
                    assert path == _object_walk(v, m, _object_backward) and out == path[-1]


def test_generalized_little_rejects_bad_cover():
    v = identity(3)
    d = AlphaDecomposition(3, (CyclicSubset(3, (1,)),))
    with pytest.raises(NotRightRCoverError):
        generalized_little(v, 0, d)


# each raise site of a check on input from outside: the call, the error
# type and its whole message; ({1},) is s_1 = t(1, 2) over the identity,
# a right 1-cover and a left 2-cover
LITTLE_RAISE_SITES = [
    (
        lambda: inverse_generalized_little(identity(3), 1, parse_decomposition(3, "1")),
        NotLeftRCoverError,
        "[2, 1, 3] is not a left 1-cover of [1, 2, 3]",
    ),
    (lambda: PQPair(3, 1, 4), FormatError, "degenerate pair (1,4) mod 3"),
    (lambda: parse_marked_word(3, "12"), FormatError, "marked word needs an @mark suffix: '12'"),
    (lambda: parse_marked_word(3, "12@x"), FormatError, "bad mark in '12@x'"),
    (lambda: MarkedWord(Word(3, (1, 2)), 3), FormatError, "mark 3 outside word of length 2"),
    (lambda: phi_r(identity(3), 1, Word(3, (1, 1))), NotReducedError, "word 11 is not reduced"),
]


@pytest.mark.parametrize("call,error,message", LITTLE_RAISE_SITES)
def test_little_raise_sites(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_walks_past_their_cap_raise_cycle_overflow(monkeypatch):
    # a cap of one step stops the figure's phi walk and a factor walk
    # that crosses factors, at both of the kernel's callers
    real = little_module._layout
    monkeypatch.setattr(little_module, "_layout", lambda n, sizes: real(n, sizes)[:2] + (1,))
    with pytest.raises(CycleOverflowError) as raised:
        phi(FIG_V, marked(5, "34102321042@5"))
    assert str(raised.value) == "phi cycle through 34102321042@5 exceeded its cap"
    v, d = from_window(4, [5, 0, 2, 3]), parse_decomposition(4, "1/0/3/2/1")
    with pytest.raises(CycleOverflowError) as raised:
        generalized_little(v, 1, d)
    assert str(raised.value) == "generalized walk exceeded its cap"


def test_factor_walk_checks_its_length_profile(monkeypatch, capsys):
    # a walk that answers the (2, 1, 1, 1) masks of its image, an element
    # of length 5, for a decomposition of profile (1, 1, 1, 1, 1)
    def other_profile(n, starts, sizes, directions, table):
        [(_, key)] = starts
        return [[((9, 4, 2, 1), key)]]

    monkeypatch.setattr(little_module, "walks", other_profile)
    v, d = from_window(4, [5, 0, 2, 3]), parse_decomposition(4, "1/0/3/2/1")
    with pytest.raises(InvariantError) as raised:
        generalized_little(v, 1, d)
    message = "length profile changed from 1/0/3/2/1 to 03/2/1/0"
    assert type(raised.value) is InvariantError and str(raised.value) == message
    argv = ["generalized-little", "-n", "4", "-v", "[5,0,2,3]", "-r", "1", "-d", "1/0/3/2/1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


def test_alpha_decomposition_validates_additivity():
    # s_1 * s_1 collapses, so ({1}, {1}) is not length-additive
    with pytest.raises(InvalidDecompositionError, match=r"^factor lengths do not add: 1/1$"):
        AlphaDecomposition(3, (CyclicSubset(3, (1,)), CyclicSubset(3, (1,))))


def test_alpha_decomposition_rejects_mixed_periods():
    for factors in [
        (CyclicSubset(3, (1,)), CyclicSubset(4, (3,))),
        (CyclicSubset(4, (3,)), CyclicSubset(3, (1,))),
        (CyclicSubset(2, (1,)),),
    ]:
        with pytest.raises(InvalidDecompositionError, match=r"^factors with mixed periods$"):
            AlphaDecomposition(3, factors)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alpha_decomposition_product_matches_the_element_chain(n):
    # the product is one window of the factors' concatenated canonical
    # letters; its oracle multiplies their elements, as it was first computed
    found = 0
    for l in range(6):
        for w in elements_of_length(n, l):
            for alpha in compositions_bounded(l, n - 1):
                for d in alpha_decompositions(w, alpha):
                    chain = identity(n)
                    for factor in d.factors:
                        chain = chain * cd_element(factor)
                    assert d.product() == chain == w
                    found += 1
    assert found


# ---------------------------------------------------------------------------
# trace plumbing


def test_little_trace_matches_figure():
    rows = little_trace(FIG_V, marked(5, "34102321042@5"))
    assert [(str(m), pair.p, pair.q) for m, pair in rows] == [
        ("34102321042@5", 2, 5),
        ("34101321042@11", 2, 3),
        ("34101321041@3", 2, 1),
        ("34001321041@4", 2, 3),
        ("34041321041@4", 4, 12),
    ]
    assert PQPair(5, 4, 12) == PQPair(5, -6, 2)


def test_marked_word_text_round_trip():
    m = parse_marked_word(5, "34102321042@5")
    assert str(m) == "34102321042@5"
    assert m.marked_letter == 2


def test_phi_requires_reduced_word():
    # 34101321042@11 is v-marked for the figure v but not reduced
    with pytest.raises(NotReducedError):
        phi(FIG_V, marked(5, "34101321042@11"))


# ---------------------------------------------------------------------------
# one record per word per call


def _word_level_calls(n, max_length):
    # (name, call) for every valid input of each public word-level function
    # on the elements v of length at most max_length: v-marked words,
    # reduced words of covers, and factor tuples of r-covers at each profile
    for l in range(max_length + 1):
        for v in elements_of_length(n, l):
            for m in v_marked_words(v):
                yield "is_reduced", functools.partial(is_reduced, m.word)
                for f in (pq, forward_step, backward_step):
                    yield f.__name__, functools.partial(f, v, m)
                if not is_reduced(m.word):
                    yield "insertion_index", functools.partial(insertion_index, m.word, m.mark)
                    continue
                for f in (phi, phi_inverse, little_trace):
                    yield f.__name__, functools.partial(f, v, m)
            for w, _ in covers_above(v):
                for a in reduced_words(w):
                    yield "marked_index", functools.partial(marked_index, a, v)
            profiles = tuple(compositions_bounded(l + 1, n - 1))
            for r in range(n):
                for w in right_r_covers(v, r):
                    for a in reduced_words(w):
                        yield "phi_r", functools.partial(phi_r, v, r, a)
                for f, covers in [
                    (generalized_little, right_r_covers(v, r)),
                    (inverse_generalized_little, left_r_covers(v, r)),
                ]:
                    for w in covers:
                        for alpha in profiles:
                            for d in alpha_decompositions(w, alpha):
                                yield f.__name__, functools.partial(f, v, r, d)


@pytest.mark.parametrize("n,max_length", [(3, 3), (4, 2)])
def test_each_call_sweeps_each_word_once(n, max_length, monkeypatch):
    # every word_record call, the one pass over a word, is counted per
    # call; where a call reads a word twice, a record cache answers the
    # second read
    calls = list(_word_level_calls(n, max_length))
    swept = collections.Counter()
    real = little_module.word_record

    def counting(n, letters):
        swept[tuple(letters)] += 1
        return real(n, letters)

    monkeypatch.setattr(affsym.words, "word_record", counting)
    monkeypatch.setattr(little_module, "word_record", counting)
    twice = collections.Counter()
    for name, call in calls:
        swept.clear()
        call()
        if swept and max(swept.values()) > 1:
            twice[name] += 1
    assert {name for name, _ in calls} == {
        "is_reduced", "marked_index", "insertion_index", "pq", "forward_step", "backward_step",
        "phi", "phi_inverse", "phi_r", "little_trace", "generalized_little",
        "inverse_generalized_little",
    }
    assert twice == {}
