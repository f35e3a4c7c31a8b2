"""Tests for the word kernel: reduction, cyclic words, counting, sampling."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relfold.words import (
    Alphabet,
    canonical_rotation,
    concat,
    count_cyclically_reduced,
    cyclic_reduce,
    format_word,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_proper_power,
    is_reduced,
    join,
    key_letter,
    least_rotation_offset,
    letter_key,
    parse_word,
    power_decomposition,
    random_cyclically_reduced,
    random_cyclically_reduced_up_to,
    signed_letters,
    substitute,
    substitute_all,
)
from oracles import (
    cyclic_permutations,
    cyclic_word,
    enumerate_cyclically_reduced,
    enumerate_reduced,
    oracle_count_cyclically_reduced,
    oracle_least_rotation,
    oracle_power_decomposition,
    oracle_random_cyclically_reduced,
    oracle_random_cyclically_reduced_up_to,
    oracle_substitute,
)


def words_upto(m, t):
    for k in range(t + 1):
        yield from enumerate_reduced(m, k)


class TestReduction:
    def test_free_reduce_examples(self):
        assert free_reduce(()) == ()
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, 3)) == (1, 3)

    def test_free_reduce_idempotent(self):
        rng = random.Random(100)
        for _ in range(300):
            raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(12))]
            w = free_reduce(raw)
            assert is_reduced(w)
            assert free_reduce(w) == w

    def test_inverse_involution(self):
        rng = random.Random(101)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(10))]
            w = free_reduce(raw)
            assert inverse(inverse(w)) == w
            assert concat(w, inverse(w)) == ()

    def test_substitute(self):
        # x -> ab, y -> b^-1 sends xy to a
        assert substitute((1, 2), ((1, 2), (-2,))) == (1,)
        assert substitute((1, -2), ((1, 2), (3,))) == (1, 2, -3)
        assert substitute((), ((1,),)) == ()
        # identity images act as free reduction of the input
        rng = random.Random(102)
        ident = ((1,), (2,), (3,))
        for _ in range(100):
            w = free_reduce([rng.choice([1, -1, 2, -2, 3, -3])
                             for _ in range(rng.randrange(10))])
            assert substitute(w, ident) == w

    def test_substitute_rejects_symbol_zero(self):
        with pytest.raises(ValueError):
            substitute((1, 0), ((1, 2), (2,)))

    def test_substitute_is_homomorphism(self):
        rng = random.Random(103)
        images = ((1, 2), (-1,), (2, 2, 1))
        for _ in range(150):
            u = free_reduce([rng.choice([1, -1, 2, -2, 3, -3])
                             for _ in range(rng.randrange(8))])
            v = free_reduce([rng.choice([1, -1, 2, -2, 3, -3])
                             for _ in range(rng.randrange(8))])
            assert substitute(concat(u, v), images) == concat(
                substitute(u, images), substitute(v, images))
            assert substitute(inverse(u), images) == inverse(substitute(u, images))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40),
           st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
                    min_size=3, max_size=3))
    def test_substitute_matches_letter_by_letter_reduction(self, w, images):
        # unreduced words and images included: the result is the free
        # reduction of the plain concatenation of the images
        expected = concat(*(images[k - 1] if k > 0 else inverse(images[-k - 1]) for k in w))
        assert substitute(w, images) == expected

    def test_concat_associative(self):
        rng = random.Random(102)
        for _ in range(200):
            ws = [free_reduce([rng.choice([1, -1, 2, -2]) for _ in range(6)])
                  for _ in range(3)]
            assert concat(concat(ws[0], ws[1]), ws[2]) == concat(ws[0], concat(ws[1], ws[2]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30),
           st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30),
           st.sampled_from(["free", "inverse", "inverse suffix", "empty"]),
           st.integers(0, 30))
    def test_join_matches_concat_on_reduced_words(self, raw_u, raw_w, shape, cut):
        # inverse(u) cancels all of u, and a suffix of it cancels a head
        # of u when joined in front of u
        u = free_reduce(raw_u)
        w = {"free": free_reduce(raw_w), "inverse": inverse(u),
             "inverse suffix": inverse(u)[min(cut, len(u)):], "empty": ()}[shape]
        assert join(u, w) == concat(u, w)
        assert join(w, u) == concat(w, u)

    def test_cyclic_reduce(self):
        core, conj = cyclic_reduce((2, 1, -2))
        assert core == (1,) and conj == (2,)
        assert concat(conj, core, inverse(conj)) == (2, 1, -2)
        core, conj = cyclic_reduce(())
        assert core == () and conj == ()

    def test_cyclic_reduce_conjugation_identity(self):
        rng = random.Random(103)
        for _ in range(300):
            w = free_reduce([rng.choice([1, -1, 2, -2, 3, -3])
                             for _ in range(rng.randrange(14))])
            core, conj = cyclic_reduce(w)
            assert is_cyclically_reduced(core)
            assert concat(conj, core, inverse(conj)) == w

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0, 2))


LETTERS3 = st.sampled_from([1, -1, 2, -2, 3, -3])
# five images, so that symbols 4 and 5 name images no word uses
IMAGES5 = st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
                   min_size=5, max_size=5)


def raw_inverse(w):
    """The letter-wise inverse of ``w``, with no reduction."""
    return [-x for x in reversed(w)]


def outcome(f, *args):
    """``f(*args)``, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)


def one_by_one(ws, images):
    return [oracle_substitute(w, images) for w in ws]


class TestSubstituteAll:
    """``substitute_all`` against the one-symbol-at-a-time oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LETTERS3, max_size=15),
           st.lists(st.lists(LETTERS3, max_size=10), max_size=4), IMAGES5)
    def test_framed_words_sharing_p(self, p, xs, images):
        # P·x_j·P⁻¹ with one P; an empty x_j gives P·P⁻¹
        ws = [p + x + raw_inverse(p) for x in xs + [[]]]
        assert substitute_all(ws, images) == one_by_one(ws, images)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(LETTERS3, max_size=20), max_size=5), IMAGES5)
    def test_unreduced_and_empty_words(self, ws, images):
        assert substitute_all(ws, images) == one_by_one(ws, images)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(LETTERS3, max_size=10), st.lists(LETTERS3, max_size=10),
           st.lists(st.lists(LETTERS3, max_size=10), min_size=1, max_size=3),
           IMAGES5)
    def test_frames_of_several_lengths_in_one_prefix(self, p, q, xs, images):
        # P·Q·x·Q⁻¹·P⁻¹ and P·Q·x·P⁻¹ share P·Q, and their frames are at
        # least |P| + |Q| and |P| long
        ws = ([p + q + x + raw_inverse(q) + raw_inverse(p) for x in xs]
              + [p + q + x + raw_inverse(p) for x in xs])
        assert substitute_all(ws, images) == one_by_one(ws, images)

    def test_empty_group(self):
        assert substitute_all((), ((1,),)) == []
        assert substitute_all([], ()) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LETTERS3, max_size=8),
           st.lists(st.lists(LETTERS3, max_size=6), min_size=1, max_size=3),
           IMAGES5, st.sampled_from([0, 6, -6, 9]), st.data())
    def test_bad_symbols_raise_like_the_oracle(self, p, xs, images, bad, data):
        # symbol 0 or one past the images, in P, in an x or in a later word
        ws = [p + x + raw_inverse(p) for x in xs]
        where = data.draw(st.sampled_from(["P", "x", "later"]))
        j = data.draw(st.integers(0, len(ws) - 1))
        if where == "P":
            i = data.draw(st.integers(0, len(p)))
            q = p[:i] + [bad] + p[i:]
            ws = [q + x + raw_inverse(q) for x in xs]
        elif where == "x":
            x = xs[j]
            i = data.draw(st.integers(0, len(x)))
            ws[j] = p + x[:i] + [bad] + x[i:] + raw_inverse(p)
        else:
            ws.append(data.draw(st.lists(LETTERS3, max_size=4)) + [bad])
        expected = outcome(one_by_one, ws, images)
        assert expected in (ValueError, IndexError)
        assert outcome(substitute_all, ws, images) is expected

    def test_zero_and_out_of_range_in_one_group(self):
        images = ((1, 2), (2,))
        # the first bad symbol in word order decides the exception
        assert outcome(substitute_all, [(1, 0, -1), (3,)], images) is ValueError
        assert outcome(substitute_all, [(1, 3, -1), (0,)], images) is IndexError
        assert outcome(substitute_all, [(1, 2), (1, 0)], images) is ValueError


class TestCyclicWords:
    def test_letter_order(self):
        # a < A < b < B
        assert sorted([2, -1, 1, -2], key=letter_key) == [1, -1, 2, -2]
        # key_letter inverts letter_key, and the keys of rank m are 0 .. 2m - 1
        for m in range(1, 7):
            letters = signed_letters(m)
            assert [key_letter(letter_key(x)) for x in letters] == letters
            assert sorted(map(letter_key, letters)) == list(range(2 * m))

    def test_canonical_rotation(self):
        assert canonical_rotation((2, 1, 1)) == (1, 1, 2)
        assert canonical_rotation((1, 1, 2)) == (1, 1, 2)
        assert canonical_rotation(()) == ()

    def test_canonical_rotation_is_least(self):
        rng = random.Random(104)
        for _ in range(200):
            w = random_cyclically_reduced(2, rng.randrange(1, 9), rng)
            c = canonical_rotation(w)
            rots = cyclic_permutations(w)
            assert c in rots
            from relfold.words import word_key
            assert all(word_key(c) <= word_key(r) for r in rots)

    @pytest.mark.parametrize("m,top", [(2, 8), (3, 6)])
    def test_least_rotation_matches_oracle_exhaustively(self, m, top):
        for t in range(1, top + 1):
            for w in enumerate_cyclically_reduced(m, t):
                assert canonical_rotation(w) == oracle_least_rotation(w), w

    def test_cyclic_word_rotation_invariant(self):
        rng = random.Random(105)
        for _ in range(200):
            w = random_cyclically_reduced(2, rng.randrange(1, 9), rng)
            rot = rng.randrange(len(w))
            assert cyclic_word(w[rot:] + w[:rot]) == cyclic_word(w)
            conj = free_reduce([rng.choice([1, -1, 2, -2]) for _ in range(4)])
            assert cyclic_word(concat(conj, w, inverse(conj))) == cyclic_word(w)


def cyclic_core(letters):
    return cyclic_reduce(free_reduce(letters))[0]


LETTERS3 = st.sampled_from([1, -1, 2, -2, 3, -3])


class TestLeastRotationProperties:
    """Booth's failure function against the naive rotation.  Periodic
    inputs u^k, where many rotations tie, are its edge cases."""

    @settings(deadline=None)
    @given(st.lists(LETTERS3, max_size=300))
    def test_random_words(self, letters):
        w = cyclic_core(letters)
        assert canonical_rotation(w) == oracle_least_rotation(w)

    @settings(deadline=None)
    @given(st.lists(LETTERS3, min_size=1, max_size=30), st.integers(1, 300), st.data())
    def test_periodic_words(self, letters, k, data):
        u = cyclic_core(letters)
        assume(u)
        w = u * min(k, 300 // len(u))
        shift = data.draw(st.integers(0, len(w) - 1))
        w = w[shift:] + w[:shift]
        assert canonical_rotation(w) == oracle_least_rotation(w)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=20), st.integers(1, 15))
    def test_offset_is_first_least(self, root, k):
        keys = root * k
        rotations = [keys[o:] + keys[:o] for o in range(len(keys))]
        assert least_rotation_offset(keys) == rotations.index(min(rotations))


class TestPowers:
    def brute_is_power(self, w, m):
        # oracle: w == u^k for some reduced u and k >= 2, by direct search
        for d in range(1, len(w) // 2 + 1):
            if len(w) % d:
                continue
            u = w[:d]
            if w == u * (len(w) // d):
                return True
        return False

    def test_examples(self):
        assert power_decomposition((1, 2, 1, 2)) == ((1, 2), 2)
        assert power_decomposition((1, 1, 1)) == ((1,), 3)
        assert power_decomposition((1, 2)) == ((1, 2), 1)
        assert not is_proper_power(())
        assert not is_proper_power((1, 2, -1, -2))
        assert is_proper_power((1, 2, 1, 2))

    def test_against_brute_force(self):
        for w in enumerate_cyclically_reduced(2, 6):
            root, k = power_decomposition(w)
            assert root * k == w
            assert (k >= 2) == self.brute_is_power(w, 2)
            # root itself is not a proper power
            assert not is_proper_power(root)

    def test_empty_word_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            power_decomposition(())

    @pytest.mark.parametrize("m, max_len", [(2, 8), (3, 6)])
    def test_every_short_word_matches_divisor_scan(self, m, max_len):
        for t in range(1, max_len + 1):
            for w in enumerate_cyclically_reduced(m, t):
                assert power_decomposition(w) == oracle_power_decomposition(w), w

    @pytest.mark.parametrize("m", [2, 3])
    def test_powers_and_near_powers_match_divisor_scan(self, m):
        # u^k for seeded roots, and u^k with one letter changed where the
        # result stays cyclically reduced
        rng = random.Random(f"words/powers/{m}")
        letters = [s * g for g in range(1, m + 1) for s in (1, -1)]
        for k in (1, 2, 3, 4, 6, 12, 60, 64, 125):
            for _ in range(3):
                w = random_cyclically_reduced(m, rng.randint(1, 12), rng) * k
                assert power_decomposition(w) == oracle_power_decomposition(w), w
                i = rng.randrange(len(w))
                for x in letters:
                    near = w[:i] + (x,) + w[i + 1:]
                    if x != w[i] and is_cyclically_reduced(near):
                        assert power_decomposition(near) == oracle_power_decomposition(near)


class TestTextForm:
    def test_round_trip_examples(self):
        assert parse_word("aBa") == (1, -2, 1)
        assert parse_word("1") == ()
        assert format_word(()) == "1"
        assert format_word((1, -2, 1)) == "aBa"

    def test_round_trip_random(self):
        rng = random.Random(106)
        for _ in range(200):
            w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(10)))
            assert parse_word(format_word(w)) == w

    def test_every_letter_has_its_text(self):
        text = "abcdefghijklmnopqrstuvwxyz"
        w = tuple(s * k for k in range(1, 27) for s in (1, -1))
        assert format_word(w) == "".join(c + c.upper() for c in text)
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize("w, bad", [((0,), 0), ((1, 27), 27), ((-27, 1), -27), ((2, 0, 99), 0)])
    def test_letters_without_text_raise_value_error(self, w, bad):
        with pytest.raises(ValueError) as info:
            format_word(w)
        assert type(info.value) is ValueError
        assert str(info.value) == f"letter {bad} has no text form"

    def test_range_check(self):
        with pytest.raises(ValueError):
            parse_word("abc", m=2)
        with pytest.raises(ValueError):
            parse_word("a b")

    def test_alphabet(self):
        with pytest.raises(ValueError):
            Alphabet(1)
        with pytest.raises(ValueError):
            Alphabet(2).check_word((3,))


class TestCounting:
    def test_small_exact_values(self):
        # rank 2: 4 words of length 1; length 2: 4*3 reduced and none
        # excluded cyclically (xy with y != x^-1 already has x != -y).
        assert count_cyclically_reduced(2, 0) == 1
        assert count_cyclically_reduced(2, 1) == 4
        assert count_cyclically_reduced(2, 2) == 12
        assert count_cyclically_reduced(2, 4) == 84
        # closed-form check: (2m-1)^t + small correction
        assert count_cyclically_reduced(2, 8) == 3**8 + 3

    def test_against_enumeration(self):
        for m in (2, 3):
            for t in range(0, 7 if m == 2 else 5):
                expected = sum(1 for _ in enumerate_cyclically_reduced(m, t))
                assert count_cyclically_reduced(m, t) == expected


def rivin_count(m, t):
    """Cyclically reduced words of length t >= 1 over rank m (I. Rivin,
    "Growth in free groups (and other stories)", arXiv:math/9911076)."""
    return (2 * m - 1) ** t + 1 + (m - 1) * (1 + (-1) ** t)


class TestAgainstTransferTable:
    """The closed forms against the transfer-matrix tables they replace:
    equal counts, and seeded draws that make the same ``rng`` calls, so
    every seeded draw is the word the tables gave."""

    def test_counts_match_rivin_and_table(self):
        for m in range(1, 6):
            assert count_cyclically_reduced(m, 0) == 1
            for t in range(1, 60):
                assert (count_cyclically_reduced(m, t) == rivin_count(m, t)
                        == oracle_count_cyclically_reduced(m, t)), (m, t)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_exact_length_draws_match_table(self, m):
        for t in (*range(1, 12), 16, 17, 31, 64, 99, 128, 200):
            for seed in range(3):
                a, b = random.Random(seed), random.Random(seed)
                for _ in range(2):
                    assert (random_cyclically_reduced(m, t, a)
                            == oracle_random_cyclically_reduced(m, t, b)), (m, t, seed)
                assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_up_to_draws_match_table(self, m):
        for t in (1, 2, 3, 4, 5, 8, 13, 50, 101, 200):
            for seed in range(3):
                a, b = random.Random(seed), random.Random(seed)
                for _ in range(2):
                    assert (random_cyclically_reduced_up_to(m, t, a)
                            == oracle_random_cyclically_reduced_up_to(m, t, b)), (m, t, seed)
                assert a.getstate() == b.getstate()


class TestSampling:
    def test_output_is_cyclically_reduced(self):
        rng = random.Random(107)
        for _ in range(300):
            m = rng.choice([2, 3, 4])
            t = rng.randrange(1, 30)
            w = random_cyclically_reduced(m, t, rng)
            assert len(w) == t
            assert is_cyclically_reduced(w)
            assert all(1 <= abs(x) <= m for x in w)

    def test_exact_uniformity_chi_square_free(self):
        # Every word of length t must appear with probability 1/N exactly;
        # check all 84 words of length 4 over rank 2 are hit with frequency
        # within 5 sigma of N draws * (1/84).
        m, t = 2, 4
        universe = list(enumerate_cyclically_reduced(m, t))
        n = count_cyclically_reduced(m, t)
        assert len(universe) == n == 84
        rng = random.Random(108)
        draws = 84 * 250
        counts = Counter(random_cyclically_reduced(m, t, rng) for _ in range(draws))
        assert set(counts) <= set(universe)
        assert len(counts) == n
        p = Fraction(1, n)
        mean = draws * p
        # binomial sd
        sd = float(draws * p * (1 - p)) ** 0.5
        for w in universe:
            assert abs(counts[w] - float(mean)) < 5 * sd, (w, counts[w])

    def test_exhaustive_small_support(self):
        # t=1 and t=2 supports are covered exactly
        rng = random.Random(109)
        seen1 = {random_cyclically_reduced(2, 1, rng) for _ in range(200)}
        assert seen1 == set(enumerate_cyclically_reduced(2, 1))
        seen2 = {random_cyclically_reduced(2, 2, rng) for _ in range(600)}
        assert seen2 == set(enumerate_cyclically_reduced(2, 2))

    def test_up_to_length_distribution(self):
        # lengths must appear proportionally to the exact counts
        rng = random.Random(110)
        m, t = 2, 3
        total = sum(count_cyclically_reduced(m, k) for k in range(1, t + 1))
        draws = total * 200
        counts = Counter(len(random_cyclically_reduced_up_to(m, t, rng))
                         for _ in range(draws))
        for k in range(1, t + 1):
            expect = draws * count_cyclically_reduced(m, k) / total
            sd = (draws * (count_cyclically_reduced(m, k) / total)
                  * (1 - count_cyclically_reduced(m, k) / total)) ** 0.5
            assert abs(counts[k] - expect) < 5 * sd

    def test_huge_rank_draws_by_arithmetic(self):
        # no draw lists the 2m letters, so rank 10**12 costs what rank 2 does
        m, rng = 10**12, random.Random(1)
        for t in (1, 2, 3, 4, 9, 40):
            w = random_cyclically_reduced(m, t, rng)
            assert len(w) == t and is_cyclically_reduced(w)
            assert all(1 <= abs(x) <= m for x in w)

    def test_determinism(self):
        a = [random_cyclically_reduced(3, 11, random.Random(42)) for _ in range(5)]
        b = [random_cyclically_reduced(3, 11, random.Random(42)) for _ in range(5)]
        assert a == b
