import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affsym.errors import (
    BadLetterError,
    FormatError,
    FullSetError,
    InvariantError,
    MarkDeletionNotReducedError,
    NotACoverError,
    NotReducedError,
    WordIsReducedError,
)
from affsym.group import (
    Reflection,
    bruhat_ball,
    bruhat_leq,
    elements_of_length,
    from_window,
    identity,
    simple,
    transposition_element,
)
from affsym.little import MarkedWord, PQPair, pq
from affsym.words import (
    CyclicSubset,
    Word,
    canonical_cd_word,
    cd_element,
    cd_letters,
    cd_subset,
    count_reduced_words,
    cyclically_decreasing_elements,
    evaluate,
    format_letters,
    insertion_index,
    is_cyclically_decreasing,
    is_reduced,
    marked_index,
    mask_members,
    maximal_cyclic_intervals,
    parse_word,
    partner_index,
    reduced_words,
    reflection_index,
    reflection_key,
    reflection_sequence,
    subset_mask,
    word_record,
)


def all_words(n, length):
    for letters in itertools.product(range(n), repeat=length):
        yield Word(n, letters)


reduced_word_inputs = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1), max_size=9)
    )
)


# ---------------------------------------------------------------------------
# reference implementations: delete a letter, then evaluate the shorter word


def reduced_by_length(a):
    return evaluate(a).length() == len(a)


def marked_index_oracle(a, v):
    """Every position whose deletion evaluates to v."""
    return [i for i in range(1, len(a) + 1) if evaluate(a.delete(i)) == v]


def insertion_index_oracle(a, i):
    """Every position other than i whose deletion is reduced."""
    return [j for j in range(1, len(a) + 1) if j != i and reduced_by_length(a.delete(j))]


def pq_oracle(m):
    """(y^-1(t), y^-1(t+1)) from the evaluated suffix y after the mark."""
    y_inv = evaluate(Word(m.word.n, m.word.letters[m.mark :])).inverse()
    return PQPair(m.word.n, y_inv(m.marked_letter), y_inv(m.marked_letter + 1))


def check_against_oracles(a):
    """Compare every letter-deletion lookup on a with the references."""
    w = evaluate(a)
    sequence = reflection_sequence(a)
    assert len(sequence) == len(a)
    reduced = reduced_by_length(a)
    for j, (p, q) in enumerate(sequence, start=1):
        deletion = a.delete(j)
        v = evaluate(deletion)
        assert v == w * transposition_element(a.n, p, q)
        if not reduced_by_length(deletion):
            if reduced:
                with pytest.raises(NotACoverError):
                    marked_index(a, v)
            continue
        assert pq(v, MarkedWord(a, j)) == pq_oracle(MarkedWord(a, j))
        if reduced:
            assert marked_index_oracle(a, v) == [j]
            assert marked_index(a, v) == j
        else:
            others = insertion_index_oracle(a, j)
            assert len(others) == 1
            assert insertion_index(a, j) == others[0]
            assert evaluate(a.delete(others[0])) == v


def greedy_reduced(n, letters):
    """Keep only the letters that extend a reduced word."""
    kept = []
    w = identity(n)
    for i in letters:
        if w(i) < w(i + 1):
            kept.append(i)
            w = w.times_simple(i)
    return Word(n, tuple(kept))


# ---------------------------------------------------------------------------
# evaluation and reducedness


def test_evaluate_examples():
    assert evaluate(parse_word(4, "310")) == from_window(4, [-1, 1, 4, 6])
    assert evaluate(Word(3, ())) == identity(3)
    w = evaluate(parse_word(5, "3410321042"))
    assert w.length() == 10


def test_evaluate_matches_times_simple_chain():
    # the one-list window against one AffinePermutation per letter
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 6)
        word = Word(n, tuple(rng.randrange(n) for _ in range(rng.randint(0, 12))))
        w = identity(n)
        for letter in word.letters:
            w = w.times_simple(letter)
        assert evaluate(word) == w


def test_word_rejects_the_first_bad_letter():
    with pytest.raises(BadLetterError, match=re.escape("letter 5 not in [0, 3]")):
        Word(4, (1, 5, -1))
    with pytest.raises(BadLetterError, match=re.escape("letter -1 not in [0, 3]")):
        Word(4, (1, 3, -1))
    assert Word(4, [True, 3.0, "2"]).letters == (1, 3, 2)


def test_is_reduced_examples():
    assert not is_reduced(parse_word(2, "00"))
    assert is_reduced(parse_word(5, "3410321042"))
    assert not is_reduced(parse_word(5, "34101321042"))


def object_reflection_sequence(a):
    """The sequence on AffinePermutation objects, one times_simple per letter."""
    y_inv = identity(a.n)
    out = []
    for letter in reversed(a.letters):
        out.append((y_inv(letter), y_inv(letter + 1)))
        y_inv = y_inv.times_simple(letter)
    return out[::-1]


def positions_oracle(n, sequence, p, q):
    """1-based positions whose pair gives the reflection t(p, q), by a
    scan of the whole sequence.  Pairs are compared in Reflection's
    normal form, as ints: the gap b - a and the residue of a, for a < b
    the sorted pair."""
    low, gap = min(p, q) % n, abs(q - p)
    return [
        j
        for j, (x, y) in enumerate(sequence, 1)
        if (y - x == gap and (x - low) % n == 0) or (x - y == gap and (y - low) % n == 0)
    ]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_parse_word_reads_formatted_short_words(n):
    # past n = 10 words print comma-separated, and a one-letter word has
    # no comma to split on
    for length in range(3):
        for letters in itertools.product(range(n), repeat=length):
            assert parse_word(n, format_letters(n, letters)) == Word(n, letters)


def test_parse_word_messages_at_large_period():
    with pytest.raises(FormatError, match=r"^period 11 words must be comma-separated: '123'$"):
        parse_word(11, "123")
    with pytest.raises(FormatError, match=r"^bad word text '1x'$"):
        parse_word(11, "1x")
    with pytest.raises(BadLetterError):
        parse_word(11, "1,11")


@given(reduced_word_inputs)
def test_sweep_matches_object_sequence(pair):
    n, letters = pair
    expected = object_reflection_sequence(Word(n, tuple(letters)))
    sequence, reduced, _ = record = word_record(n, letters)
    assert sequence == expected
    assert reduced == reduced_by_length(Word(n, tuple(letters)))
    text = format_letters(n, letters)
    for j, (p, q) in enumerate(expected, 1):
        t = Reflection(n, p, q)
        others = [i for i, pair in enumerate(expected, 1) if Reflection(n, *pair) == t]
        assert positions_oracle(n, expected, t.a, t.b) == others
        key = reflection_key(n, t.a, t.b)
        assert record.keys[j - 1] == key
        if others == [j]:
            assert reflection_index(n, letters, record, key) == j
        else:
            with pytest.raises(InvariantError) as error:
                reflection_index(n, letters, record, key)
            assert str(error.value) == f"strong exchange uniqueness failed for {text}"
        if len(others) == 2:
            assert partner_index(n, letters, record, j) == sum(others) - j
        else:
            with pytest.raises(InvariantError) as error:
                partner_index(n, letters, record, j)
            assert str(error.value) == f"insertion uniqueness failed for {text} at {j}"


@given(reduced_word_inputs)
def test_record_keys_match_positions_oracle(pair):
    # two positions share a key exactly when they share a reflection
    n, letters = pair
    record = word_record(n, letters)
    assert len(record.keys) == len(record.sequence) == len(letters)
    for key, (p, q) in zip(record.keys, record.sequence):
        positions = [j for j, other in enumerate(record.keys, 1) if other == key]
        assert positions == positions_oracle(n, record.sequence, p, q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_record_matches_two_pass_oracle(n):
    # the record in two passes, keys and reducedness read off the
    # object-level sequence: the oracle for word_record's single loop
    for length in range(6):
        for letters in itertools.product(range(n), repeat=length):
            sequence = object_reflection_sequence(Word(n, letters))
            keys = [(q - p) * n + p % n if p < q else (p - q) * n + q % n for p, q in sequence]
            assert word_record(n, letters) == (sequence, all(p < q for p, q in sequence), keys)


@given(reduced_word_inputs)
def test_is_reduced_agrees_with_length(pair):
    n, letters = pair
    a = Word(n, tuple(letters))
    assert is_reduced(a) == (evaluate(a).length() == len(a))


# ---------------------------------------------------------------------------
# reduced word enumeration


def test_reduced_words_identity():
    assert reduced_words(identity(3)) == [Word(3, ())]


def test_reduced_words_long_element_of_s3():
    got = {str(a) for a in reduced_words(from_window(3, [3, 2, 1]))}
    assert got == {"121", "212"}


@pytest.mark.parametrize("n,l", [(2, 4), (3, 4)])
def test_reduced_words_against_brute_force(n, l):
    for w in elements_of_length(n, l):
        oracle = sorted(a.letters for a in all_words(n, l) if evaluate(a) == w)
        assert [a.letters for a in reduced_words(w)] == oracle


def test_reduced_word_count_additivity_example():
    assert count_reduced_words(from_window(4, [1, -1, 4, 6])) == count_reduced_words(
        from_window(4, [-3, 3, 4, 6])
    ) + count_reduced_words(from_window(4, [-2, 1, 4, 7]))


# ---------------------------------------------------------------------------
# strong exchange


def test_marked_index_examples():
    v = evaluate(parse_word(5, "3410321042"))
    assert marked_index(parse_word(5, "34102321042"), v) == 5
    assert marked_index(parse_word(2, "10"), evaluate(parse_word(2, "1"))) == 2
    with pytest.raises(NotACoverError):
        marked_index(parse_word(5, "34102321042"), identity(5))


@given(reduced_word_inputs, st.integers(min_value=1, max_value=10))
def test_marked_index_round_trip_random(pair, k):
    n, letters = pair
    a = greedy_reduced(n, letters)
    if len(a) == 0:
        return
    k = (k - 1) % len(a) + 1
    deletion = a.delete(k)
    if reduced_by_length(deletion):
        assert marked_index(a, evaluate(deletion)) == k
    check_against_oracles(a)
    # the raw letters, mostly not reduced, exercise insertion and pq
    check_against_oracles(Word(n, tuple(letters)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_marked_index_round_trip_exhaustive(n):
    for l in range(1, 7):
        for a in all_words(n, l):
            if reduced_by_length(a):
                check_against_oracles(a)


# ---------------------------------------------------------------------------
# unique insertion


def test_insertion_index_examples():
    assert insertion_index(parse_word(5, "34101321042"), 5) == 11
    assert insertion_index(parse_word(5, "34101321041"), 11) == 3
    assert insertion_index(parse_word(2, "00"), 1) == 2


def test_uniqueness_counts_raise_typed_errors(doubled_records):
    v = evaluate(parse_word(5, "3410321042"))
    with pytest.raises(InvariantError, match="strong exchange uniqueness"):
        marked_index(parse_word(5, "34102321042"), v)
    with pytest.raises(InvariantError, match="insertion uniqueness"):
        insertion_index(parse_word(5, "34101321042"), 5)


def test_insertion_index_checks_its_partner(monkeypatch):
    # a partner_index that answers a wrong position: deleting it and the
    # mark give different elements, which no valid word reaches
    monkeypatch.setattr("affsym.words.partner_index", lambda n, letters, record, i: 1)
    with pytest.raises(InvariantError) as raised:
        insertion_index(parse_word(5, "34101321042"), 5)
    assert type(raised.value) is InvariantError
    assert str(raised.value) == "deleting position 1 or 5 of 34101321042 gives different elements"


def test_insertion_index_errors():
    with pytest.raises(WordIsReducedError):
        insertion_index(parse_word(3, "12"), 1)
    with pytest.raises(MarkDeletionNotReducedError):
        insertion_index(parse_word(2, "0000"), 1)


# each raise site of a check on input from outside: the call, the error
# type and its whole message
WORDS_RAISE_SITES = [
    (lambda: Word(1, ()), BadLetterError, "words need period n >= 2, got 1"),
    (lambda: CyclicSubset(3, (0, 3)), BadLetterError, "residue 3 not in [0, 2]"),
    (
        lambda: marked_index(parse_word(3, "11"), identity(3)),
        NotReducedError,
        "word 11 is not reduced",
    ),
]


@pytest.mark.parametrize("call,error,message", WORDS_RAISE_SITES)
def test_words_raise_sites(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def insertion_oracle(a, i):
    """Replay the constructive proof of the unique-insertion lemma."""
    prefix_with_mark = Word(a.n, a.letters[:i])
    if reduced_by_length(prefix_with_mark):
        for j in range(i + 1, len(a) + 1):
            if not reduced_by_length(Word(a.n, a.letters[:j])):
                return j
        raise AssertionError("word was reduced after all")
    # mirror case on the reversed word
    reversed_word = Word(a.n, tuple(reversed(a.letters)))
    j = insertion_oracle(reversed_word, len(a) + 1 - i)
    return len(a) + 1 - j


@pytest.mark.parametrize("n", [2, 3, 4])
def test_insertion_index_exhaustive_with_oracle(n):
    for l in range(2, 7):
        for a in all_words(n, l):
            if reduced_by_length(a):
                continue
            check_against_oracles(a)
            for i in range(1, l + 1):
                if reduced_by_length(a.delete(i)):
                    assert insertion_oracle(a, i) == insertion_index(a, i)


def test_deletion_pair_property():
    # every non-reduced word admits a two-letter deletion with equal value
    for n in (2, 3):
        for l in range(2, 6):
            for a in all_words(n, l):
                if is_reduced(a):
                    continue
                w = evaluate(a)
                pairs = [
                    (i, j)
                    for i in range(1, l + 1)
                    for j in range(i + 1, l + 1)
                    if evaluate(a.delete(j).delete(i)) == w
                ]
                assert pairs


# ---------------------------------------------------------------------------
# cyclically decreasing structure


def test_is_cyclically_decreasing_examples():
    assert is_cyclically_decreasing(parse_word(5, "320"))
    assert not is_cyclically_decreasing(parse_word(5, "203"))
    assert is_cyclically_decreasing(parse_word(4, "103"))
    assert is_cyclically_decreasing(Word(4, ()))
    assert not is_cyclically_decreasing(parse_word(4, "11"))


def test_maximal_cyclic_intervals():
    assert maximal_cyclic_intervals(CyclicSubset(5, (0, 2, 3))) == [(2, 3), (0,)]
    assert maximal_cyclic_intervals(CyclicSubset(4, (0, 1, 3))) == [(3, 0, 1)]
    assert maximal_cyclic_intervals(CyclicSubset(4, ())) == []


def test_canonical_cd_word_and_element():
    A = CyclicSubset(5, (0, 2, 3))
    assert str(canonical_cd_word(A)) == "320"
    assert cd_element(A).length() == 3
    assert {str(a) for a in reduced_words(cd_element(A))} == {"320", "302", "032"}
    assert cd_element(CyclicSubset(3, ())) == identity(3)
    assert cd_element(CyclicSubset(4, (2,))) == simple(4, 2)
    with pytest.raises(FullSetError):
        CyclicSubset(3, (0, 1, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_cd_element_window_matches_its_object_oracles(n):
    # cd_element reads the window of the tabulated canonical letters; its
    # oracles are the evaluated canonical word, as the element was first
    # computed, and the product of simple reflection elements
    elements = []
    for k in range(n):
        for members in itertools.combinations(range(n), k):
            A = CyclicSubset(n, members)
            word = canonical_cd_word(A)
            product = identity(n)
            for a in word.letters:
                product = product * simple(n, a)
            assert cd_element(A) == evaluate(word) == product
            elements.append(product)
    assert cyclically_decreasing_elements(n) == elements


def test_reduced_words_leave_every_module_memo_as_it_was(module_memos):
    # reduced words are one pass with no memo: nothing is left behind
    ball = bruhat_ball(4, 6)
    before = {name: memo.cache_info().currsize for name, memo in module_memos.items()}
    for level in ball:
        for w in level:
            assert count_reduced_words(w) == len(reduced_words(w))
    assert {name: memo.cache_info().currsize for name, memo in module_memos.items()} == before


@pytest.mark.parametrize("n", range(2, 8))
def test_cd_letters_table_matches_canonical_cd_word(n):
    for k in range(n):
        for members in itertools.combinations(range(n), k):
            mask = subset_mask(members)
            assert mask_members(n, mask) == members
            assert cd_letters(n, mask) == canonical_cd_word(CyclicSubset(n, members)).letters


def test_cd_subset_round_trip():
    for n in range(2, 6):
        for k in range(n):
            for members in itertools.combinations(range(n), k):
                A = CyclicSubset(n, members)
                assert cd_subset(cd_element(A)) == A
    assert cd_subset(identity(4)) == CyclicSubset(4, ())


def test_cd_subset_absent_for_non_cd_elements():
    # period 2 admits no cyclically decreasing element past length 1
    for l in (2, 3):
        for w in elements_of_length(2, l):
            assert cd_subset(w) is None
    assert cd_subset(evaluate(parse_word(3, "01"))) is None


def shuffles(words):
    if not words:
        yield ()
        return
    first, rest = words[0], words[1:]
    for tail in shuffles(rest):
        for positions in itertools.combinations(range(len(first) + len(tail)), len(first)):
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shuffle_law(n):
    for k in range(n):
        for members in itertools.combinations(range(n), k):
            A = CyclicSubset(n, members)
            words = [tuple(reversed(run)) for run in maximal_cyclic_intervals(A)]
            expected = set(shuffles(words))
            got = {a.letters for a in reduced_words(cd_element(A))}
            assert got == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boolean_lattice(n):
    subsets = [
        tuple(c) for k in range(n) for c in itertools.combinations(range(n), k)
    ]
    elements = {members: cd_element(CyclicSubset(n, members)) for members in subsets}
    assert len(set(elements.values())) == 2**n - 1
    assert len(cyclically_decreasing_elements(n)) == 2**n - 1
    for a in subsets:
        for b in subsets:
            assert (set(a) <= set(b)) == bruhat_leq(elements[a], elements[b])


def test_cd_count_n5():
    assert len(set(cyclically_decreasing_elements(5))) == 2**5 - 1


def test_word_text_formats():
    assert str(parse_word(5, "3410321042")) == "3410321042"
    assert parse_word(12, "10,3,0").letters == (10, 3, 0)
    assert str(Word(12, (10, 3, 0))) == "10,3,0"
    assert parse_word(3, "").letters == ()
