import pytest
from hypothesis import given
from hypothesis import strategies as st

import affsym.group as group_module
from affsym.errors import (
    CongruentPairError,
    DuplicateResidueError,
    InvariantError,
    NotGrassmannianError,
    PeriodMismatchError,
    WindowLengthError,
    WindowSumError,
)
from affsym.group import (
    Reflection,
    as_reflection,
    bruhat_ball,
    bruhat_leq,
    canonical_reduced_word,
    chevalley_coefficient,
    cover_reflection,
    covers_above,
    elements_of_length,
    from_window,
    grassmannian_from_partition,
    grassmannian_to_partition,
    identity,
    is_grassmannian,
    left_r_covers,
    parse_window,
    right_r_covers,
    simple,
    transposition_element,
)
from affsym.stanley import partitions_bounded


def random_element(n, letters):
    w = identity(n)
    for i in letters:
        w = w.times_simple(i % n)
    return w


elements = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8)
    )
).map(lambda pair: random_element(*pair))


# ---------------------------------------------------------------------------
# construction and evaluation


def test_from_window_examples():
    v = from_window(4, [2, 3, 0, 5])
    assert v.window == (2, 3, 0, 5)
    assert from_window(4, [1, 2, 3, 4]).is_identity()


def test_from_window_errors():
    with pytest.raises(WindowSumError):
        from_window(4, [2, 3, 0, 4])
    with pytest.raises(WindowLengthError):
        from_window(4, [2, 3, 0])
    with pytest.raises(DuplicateResidueError):
        from_window(4, [2, 6, 0, 2])


def test_apply_periodicity():
    v = from_window(4, [2, 3, 0, 5])
    assert v(7) == v(3) + 4 == 4
    assert v(2) == 3
    assert identity(4)(-3) == -3


@given(elements, st.integers(min_value=-20, max_value=20))
def test_apply_period_shift(w, i):
    assert w(i + w.n) == w(i) + w.n


def test_multiply_reproduces_transposition_products():
    v = from_window(4, [2, 3, 0, 5])
    assert (v * transposition_element(4, 2, 4)).window == (2, 5, 0, 3)
    assert (v * transposition_element(4, 2, 7)).window == (2, 4, -1, 5)
    assert v * identity(4) == v


def test_inverse():
    assert identity(4).inverse() == identity(4)
    s0 = simple(4, 0)
    assert s0.inverse() == s0
    w = from_window(4, [2, 5, 0, 3])
    assert w * w.inverse() == identity(4)
    assert w.inverse() * w == identity(4)


def _far_window(n, residues, shifts):
    # residue permutation plus period shifts summing to zero, so the
    # entries land far outside [1, n] and the window stays valid
    shifts = shifts + [-sum(shifts)]
    return from_window(n, [r + n * k for r, k in zip(residues, shifts)])


far_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        *(
            st.builds(
                _far_window,
                st.just(n),
                st.permutations(range(1, n + 1)),
                st.lists(st.integers(-40, 40), min_size=n - 1, max_size=n - 1),
            )
            for _ in range(2)
        )
    )
)


@given(far_pairs)
def test_window_product_is_composition(pair):
    u, v = pair
    assert (u * v).window == tuple(u(v(i)) for i in range(1, u.n + 1))


@given(elements, elements, elements)
def test_associativity_on_matching_periods(u, v, w):
    if u.n == v.n == w.n:
        assert (u * v) * w == u * (v * w)


@given(elements)
def test_inverse_two_sided_and_window_valid(w):
    assert w * w.inverse() == identity(w.n)
    assert from_window(w.n, w.inverse().window) == w.inverse()


def test_simple_windows():
    assert simple(4, 0).window == (0, 2, 3, 5)
    assert simple(4, 1).window == (2, 1, 3, 4)
    for i in range(4):
        assert simple(4, i) * simple(4, i) == identity(4)


def test_transposition_windows_and_canonical_form():
    assert transposition_element(4, 2, 4).window == (1, 4, 3, 2)
    assert Reflection(4, 2, 7) == Reflection(4, -2, 3)
    assert transposition_element(4, 2, 7) == transposition_element(4, -2, 3)
    with pytest.raises(CongruentPairError):
        transposition_element(3, 1, 4)


def test_as_reflection_round_trip():
    for n, a, b in [(4, 2, 7), (3, 1, 5), (2, 2, 5), (4, 1, 2)]:
        t = Reflection(n, a, b)
        assert as_reflection(t.element()) == t
    assert as_reflection(identity(4)) is None
    assert as_reflection(from_window(3, [2, 3, 1])) is None


# ---------------------------------------------------------------------------
# length


def test_length_examples():
    assert from_window(4, [-1, 1, 4, 6]).length() == 3
    assert identity(5).length() == 0
    assert from_window(4, [2, 3, 0, 5]).length() == 3


def test_length_matches_bfs_distance():
    # [2,3,0,5] sits in the l=3 level of the Cayley-graph ball
    assert from_window(4, [2, 3, 0, 5]) in bruhat_ball(4, 3)[3]


def _length_by_direct_count(w):
    n = w.n
    span = (max(w.window) - min(w.window)) // n + 2
    count = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + n * span + 1):
            if w(i) > w(j):
                count += 1
    return count


@given(elements)
def test_length_matches_direct_inversion_count(w):
    assert w.length() == _length_by_direct_count(w)


@given(elements, st.integers(min_value=0, max_value=6))
def test_simple_multiplication_changes_length_by_one(w, i):
    assert abs((w.times_simple(i % w.n)).length() - w.length()) == 1


@given(elements, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=9))
def test_reflection_changes_length(w, a, offset):
    b = a + offset
    if (b - a) % w.n != 0:
        t = transposition_element(w.n, a, b)
        assert (w * t).length() != w.length()


# ---------------------------------------------------------------------------
# covers


def test_covers_above_example_8_full():
    v = from_window(4, [-1, 1, 4, 6])
    windows = {w.window for w, _ in covers_above(v)}
    assert windows == {
        (1, -1, 4, 6),
        (-1, 4, 1, 6),
        (-3, 3, 4, 6),
        (-1, 1, 6, 4),
        (-1, 0, 5, 6),
        (-1, 1, 2, 8),
        (-2, 1, 4, 7),
    }
    filtered = [w.window for w, t in covers_above(v) if (t.a - 1) % 4 == 0]
    assert filtered == [(1, -1, 4, 6)]
    for w, t in covers_above(v):
        assert w.length() == v.length() + 1
        assert v * t.element() == w


def test_covers_of_identity_are_length_one_elements():
    got = {w for w, _ in covers_above(identity(3))}
    assert got == set(elements_of_length(3, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_covers_match_bfs_subword_oracle(n):
    for l in range(5):
        for v in elements_of_length(n, l):
            got = {w for w, _ in covers_above(v)}
            oracle = {w for w in elements_of_length(n, l + 1) if bruhat_leq(v, w)}
            assert got == oracle


def covers_by_length(v):
    """Reference enumeration: every t_{a,b} with b - a <= n * (l(v) + 2),
    kept when l(v * t) = l(v) + 1, sorted by (a, b)."""
    n, lv = v.n, v.length()
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, a + n * (lv + 2) + 1):
            if (b - a) % n:
                t = Reflection(n, a, b)
                w = v * t.element()
                if w.length() == lv + 1:
                    out.append((w, t))
    out.sort(key=lambda pair: (pair[1].a, pair[1].b))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_covers_above_matches_length_filter(n):
    for level in bruhat_ball(n, 5):
        for v in level:
            assert covers_above(v) == covers_by_length(v)


def cover_reflection_oracle(v, w):
    return as_reflection(v.inverse() * w) if w.length() == v.length() + 1 else None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cover_reflection_matches_length_and_as_reflection(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            covers = covers_above(v)
            for w, t in covers:
                assert cover_reflection(v, w) == t == cover_reflection_oracle(v, w)
            candidates = [v, identity(n)] + elements_of_length(n, l + 1)
            candidates += elements_of_length(n, l + 2)
            for a in range(1, n + 1):
                for b in range(a + 1, a + 2 * n + 1):
                    if (b - a) % n:
                        candidates.append(v * Reflection(n, a, b).element())
            non_covers = [w for w in candidates if w not in {w for w, _ in covers}]
            assert non_covers
            for w in non_covers:
                assert cover_reflection(v, w) is None is cover_reflection_oracle(v, w)


def test_cover_reflection_rejects_mismatched_periods():
    with pytest.raises(PeriodMismatchError):
        cover_reflection(identity(3), identity(4))


def test_r_cover_sets_example_8():
    v = from_window(4, [-1, 1, 4, 6])
    assert {w.window for w in right_r_covers(v, 1)} == {(1, -1, 4, 6)}
    assert {w.window for w in left_r_covers(v, 1)} == {(-3, 3, 4, 6), (-2, 1, 4, 7)}
    assert {w.window for w in right_r_covers(v, 2)} == {(-1, 4, 1, 6), (-3, 3, 4, 6)}
    assert {w.window for w in left_r_covers(v, 2)} == {(1, -1, 4, 6), (-1, 0, 5, 6)}


def test_r_covers_depend_on_residue_only():
    v = from_window(4, [-1, 1, 4, 6])
    for r in range(4):
        assert right_r_covers(v, r) == right_r_covers(v, r + 4)
        assert left_r_covers(v, r) == left_r_covers(v, r - 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cover_sets_partition_by_residue(n):
    for l in range(5):
        for v in elements_of_length(n, l):
            all_covers = [w for w, _ in covers_above(v)]
            by_plus = [w for r in range(n) for w in right_r_covers(v, r)]
            by_minus = [w for r in range(n) for w in left_r_covers(v, r)]
            assert sorted(by_plus, key=lambda w: w.window) == sorted(
                all_covers, key=lambda w: w.window
            )
            assert sorted(by_minus, key=lambda w: w.window) == sorted(
                all_covers, key=lambda w: w.window
            )


# ---------------------------------------------------------------------------
# Chevalley coefficient


def test_chevalley_example_6():
    v = from_window(4, [2, 3, 0, 5])
    w1 = from_window(4, [2, 5, 0, 3])
    w2 = from_window(4, [2, 4, -1, 5])
    assert chevalley_coefficient(v, w1, 2) == 1
    assert chevalley_coefficient(v, w2, 2) == 2
    assert chevalley_coefficient(v, v, 2) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chevalley_residue_sum_is_reflection_width(n):
    for l in range(4):
        for v in elements_of_length(n, l):
            for w, t in covers_above(v):
                total = sum(chevalley_coefficient(v, w, r) for r in range(n))
                assert total == t.b - t.a
                assert chevalley_coefficient(v, w, t.a) >= 1


# ---------------------------------------------------------------------------
# Grassmannian elements


def test_is_grassmannian():
    assert is_grassmannian(from_window(4, [-2, 1, 4, 7]))
    assert is_grassmannian(identity(4))
    assert not is_grassmannian(from_window(4, [2, 1, 3, 4]))


def test_partition_label_anchors():
    assert grassmannian_to_partition(from_window(4, [-2, 1, 4, 7])) == (2, 1, 1)
    assert grassmannian_to_partition(from_window(4, [-1, 0, 5, 6])) == (2, 2)
    assert grassmannian_to_partition(identity(4)) == ()
    with pytest.raises(NotGrassmannianError):
        grassmannian_to_partition(from_window(4, [2, 1, 3, 4]))


def test_core_action_rejects_non_core():
    # [2] is not a 2-core: residue 1 has the addable (1, 1) and the removable (0, 2)
    with pytest.raises(InvariantError):
        group_module._act_on_core(2, [2], 1)


def test_partition_label_shape_is_checked(monkeypatch):
    monkeypatch.setattr(group_module, "_hook", lambda shape, row, col: 4)
    with pytest.raises(InvariantError):
        grassmannian_to_partition(from_window(4, [-2, 1, 4, 7]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partition_label_is_injective_and_bounded(n):
    for l in range(7):
        labels = [
            grassmannian_to_partition(w)
            for w in elements_of_length(n, l)
            if is_grassmannian(w)
        ]
        assert len(labels) == len(set(labels))
        for label in labels:
            assert sum(label) == l and all(part <= n - 1 for part in label)
        assert sorted(labels) == partitions_bounded(l, n - 1)


@pytest.mark.parametrize("n", [3, 4])
def test_partition_label_round_trip(n):
    for l in range(6):
        for lam in partitions_bounded(l, n - 1):
            w = grassmannian_from_partition(n, lam)
            assert is_grassmannian(w)
            assert grassmannian_to_partition(w) == lam


# ---------------------------------------------------------------------------
# misc


def test_canonical_reduced_word_evaluates_back():
    for n in (2, 3, 4):
        for l in range(5):
            for w in elements_of_length(n, l):
                word = canonical_reduced_word(w)
                assert len(word) == w.length()
                x = identity(n)
                for i in word:
                    x = x.times_simple(i)
                assert x == w


def test_parse_window_round_trip():
    v = parse_window(4, "[-1,1,4,6]")
    assert v.window == (-1, 1, 4, 6)
    assert parse_window(4, " [ 1, 2, 3, 4 ] ".replace(" ", "")) == identity(4)


def test_group_laws_exhaustive_small():
    pool = [w for l in range(5) for w in elements_of_length(3, l)]
    for u in pool:
        assert from_window(3, (u * u.inverse()).window).is_identity()
        for v in pool[:12]:
            product = u * v
            assert from_window(3, product.window) == product
            assert product.inverse() == v.inverse() * u.inverse()


def test_period_mismatch_rejected():
    from affsym.errors import PeriodMismatchError

    with pytest.raises(PeriodMismatchError):
        identity(3) * identity(4)


def test_simple_index_out_of_range():
    from affsym.errors import BadIndexError

    with pytest.raises(BadIndexError):
        simple(4, 4)
    with pytest.raises(BadIndexError):
        simple(4, -1)
