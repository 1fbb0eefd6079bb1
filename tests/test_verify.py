import random

from affsym.verify import _random_reduced_word
from affsym.words import Word, is_reduced


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
