"""Tests for pieces, C'(lambda) checking, Dehn reduction, long paths."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from relfold.fgraph import FGraph, bouquet, fold_all
from relfold.smallcancel import (
    CprimeResult,
    Presentation,
    check_Cprime,
    decode_text,
    dehn_reduce,
    encode_word,
    find_long_relator_path,
    is_equal_in_G,
    max_piece,
)
from relfold.words import (
    Alphabet,
    concat,
    free_reduce,
    inverse,
    random_cyclically_reduced,
)
from oracles import oracle_cprime, oracle_long_relator_path, oracle_max_piece

A2 = Alphabet(2)
A4 = Alphabet(4)

# commutator-style relator a b A B c d C D: all pieces have length 1
SURFACE = Presentation(A4, ((1, 2, -1, -2, 3, 4, -3, -4),))


def random_presentation(rng, m=2, max_relators=2, max_len=10):
    rels = []
    for _ in range(rng.randrange(1, max_relators + 1)):
        rels.append(random_cyclically_reduced(m, rng.randrange(2, max_len + 1), rng))
    return Presentation(Alphabet(m), tuple(rels))


class TestPresentation:
    def test_construction(self):
        p = Presentation(A2, ((1, 2), (1, 1, 2)))
        assert p.n == 2
        assert p.relators[0] == (1, 2)

    def test_rejects_bad_relators(self):
        with pytest.raises(ValueError):
            Presentation(A2, ((),))
        with pytest.raises(ValueError):
            Presentation(A2, ((1, 2, -1),))  # not cyclically reduced
        with pytest.raises(ValueError):
            Presentation(A2, ((1, 3),))  # letter outside the alphabet

    def test_hashable(self):
        p = Presentation(A2, ((1, 2),))
        q = Presentation(A2, ((1, 2),))
        assert {p: 1}[q] == 1

    def test_member_is_a_rotation_of_the_relator_or_its_inverse(self):
        rng = random.Random(301)
        for _ in range(40):
            p = random_presentation(rng)
            for i, r in enumerate(p.relators):
                for sign, base in ((1, r), (-1, inverse(r))):
                    for offset in range(len(r)):
                        assert p.member(i, sign, offset) == base[offset:] + base[:offset]


class TestEncoding:
    def test_round_trip(self):
        rng = random.Random(300)
        for _ in range(100):
            w = random_cyclically_reduced(3, rng.randrange(1, 12), rng)
            assert decode_text(encode_word(w)) == w

    def test_order_matches_letter_order(self):
        assert encode_word((1,)) < encode_word((-1,)) < encode_word((2,))

    def test_letters_past_the_encoding_raise_value_error(self):
        top = 557_039
        assert decode_text(encode_word((top, -top, top + 1))) == (top, -top, top + 1)
        for w in [(-(top + 1),), (1, top + 2), (10**12,), (-(10**30),)]:
            with pytest.raises(ValueError, match="letters past ±557,039 have no Dehn encoding"):
                encode_word(w)


class TestPieces:
    def test_commutator_style_relator(self):
        assert max_piece(SURFACE) == (1, Fraction(1, 8))

    def test_aabb(self):
        assert max_piece(Presentation(A2, ((1, 1, 2, 2),))) == (1, Fraction(1, 4))

    def test_sixth_power(self):
        assert max_piece(Presentation(A2, ((1,) * 6,))) == (5, Fraction(5, 6))

    def test_no_pieces(self):
        assert max_piece(Presentation(A2, ((1,),))) == (0, Fraction(0))
        assert max_piece(Presentation(A2, ((1, 2),))) == (0, Fraction(0))

    def test_matches_oracle(self):
        rng = random.Random(302)
        for _ in range(40):
            p = random_presentation(rng)
            assert max_piece(p) == oracle_max_piece(p)


class TestCheckCprime:
    def test_passes_on_commutator_style(self):
        res = check_Cprime(SURFACE, Fraction(1, 6))
        assert res.ok and bool(res)
        assert res.piece is None

    def test_fails_on_aabb(self):
        res = check_Cprime(Presentation(A2, ((1, 1, 2, 2),)), Fraction(1, 6))
        assert not res
        assert res.piece == (1,)
        assert res.relator_index == 0
        assert res.ratio == Fraction(1, 4)

    def test_single_letter_vacuous(self):
        assert check_Cprime(Presentation(A2, ((1,),)), Fraction(1, 6)).ok

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            check_Cprime(SURFACE, Fraction(0))

    def test_agrees_with_max_piece(self):
        rng = random.Random(303)
        lams = [Fraction(1, 10), Fraction(1, 6), Fraction(1, 4),
                Fraction(1, 2), Fraction(1)]
        for _ in range(30):
            p = random_presentation(rng)
            _, ratio = max_piece(p)
            for lam in lams:
                assert bool(check_Cprime(p, lam)) == (ratio < lam)

    def test_monotone_in_lambda(self):
        rng = random.Random(304)
        lams = [Fraction(1, 12), Fraction(1, 6), Fraction(1, 3), Fraction(2, 3)]
        for _ in range(30):
            p = random_presentation(rng)
            values = [bool(check_Cprime(p, lam)) for lam in lams]
            assert values == sorted(values)  # False before True never flips back

    def test_witness_matches_oracle(self):
        # m = 2-4, 1-3 relators of length 1-39, one in five a proper power
        rng = random.Random(308)
        lams = [Fraction(1, 63), Fraction(1, 24), Fraction(1, 12), Fraction(1, 10),
                Fraction(1, 8), Fraction(1, 7), Fraction(1, 6), Fraction(1, 5),
                Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
                Fraction(2, 3), Fraction(1)]
        for _ in range(2000):
            m = rng.randrange(2, 5)
            rels = []
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.2:
                    root = random_cyclically_reduced(m, rng.randrange(1, 6), rng)
                    rels.append(root * rng.randrange(2, 40 // len(root) + 1))
                else:
                    rels.append(random_cyclically_reduced(m, rng.randrange(1, 40), rng))
            p = Presentation(Alphabet(m), tuple(rels))
            for lam in lams:
                res = check_Cprime(p, lam)
                got = (res.ok, res.piece, res.relator_index, res.ratio)
                assert got == oracle_cprime(p, lam), (rels, lam)

    def test_keeps_no_window_tables(self):
        # only the per-presentation side texts and the verdict memo outlive
        # a check; a kept window table costs about 1 MB at this length
        rng = random.Random(309)
        fresh = [Presentation(A2, (random_cyclically_reduced(2, 2000, rng),))
                 for _ in range(100)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for p in fresh:
                check_Cprime(p, Fraction(1, 63))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * 2**20, retained


class TestDehn:
    def test_relator_reduces_to_empty(self):
        assert dehn_reduce(SURFACE.relators[0], SURFACE) == ()

    def test_unrelated_letter_survives(self):
        assert dehn_reduce((1,), SURFACE) == (1,)

    def test_conjugates_of_relators_vanish(self):
        rng = random.Random(305)
        r = SURFACE.relators[0]
        for _ in range(100):
            u = free_reduce([rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
                             for _ in range(rng.randrange(12))])
            w = concat(u, r, inverse(u))
            assert dehn_reduce(w, SURFACE) == ()

    def test_products_of_conjugates_vanish(self):
        rng = random.Random(306)
        r = SURFACE.relators[0]
        letters = [1, -1, 2, -2, 3, -3, 4, -4]
        for _ in range(60):
            w = ()
            for _ in range(rng.randrange(1, 4)):
                u = free_reduce([rng.choice(letters)
                                 for _ in range(rng.randrange(8))])
                exponent = rng.choice([1, -1])
                core = r if exponent == 1 else inverse(r)
                w = concat(w, u, core, inverse(u))
            assert dehn_reduce(w, SURFACE) == ()

    def test_requires_small_cancellation(self):
        bad = Presentation(A2, ((1, 1, 2, 2),))
        with pytest.raises(ValueError):
            dehn_reduce((1,), bad)

    def test_idempotent(self):
        rng = random.Random(307)
        letters = [1, -1, 2, -2, 3, -3, 4, -4]
        for _ in range(50):
            w = free_reduce([rng.choice(letters) for _ in range(rng.randrange(20))])
            out = dehn_reduce(w, SURFACE)
            assert dehn_reduce(out, SURFACE) == out

    def test_is_equal_in_G(self):
        r = SURFACE.relators[0]
        assert is_equal_in_G(concat(r, (1,)), (1,), SURFACE)
        assert is_equal_in_G((1, 2), (1, 2), SURFACE)
        assert not is_equal_in_G((1,), (2,), SURFACE)


def readable_prefix_length(g, start, letters):
    """Independent oracle: longest traceable prefix, one letter at a time."""
    cur = start
    count = 0
    for x in letters:
        hop = None
        if x > 0:
            for e in g._out[cur]:
                if g.edges[e][2] == x:
                    hop = g.edges[e][1]
        else:
            for e in g._in[cur]:
                if g.edges[e][2] == -x:
                    hop = g.edges[e][0]
        if hop is None:
            break
        cur = hop
        count += 1
    return count


def oracle_long_path(g, p, lam):
    """Reimplementation of the scan contract by brute force."""
    num, den = lam.numerator, lam.denominator
    best = None
    for i, r in enumerate(p.relators):
        L = len(r)
        for sign in (1, -1):
            base = r if sign == 1 else inverse(r)
            xx = base + base
            for offset in range(L):
                for v in sorted(g.vertices):
                    n = min(readable_prefix_length(g, v, xx[offset:offset + L]), L)
                    if n * den > (den - 3 * num) * L and (best is None or n > best[0]):
                        best = (n, i, sign, offset, v)
    return best


SCAN_LAMBDAS = tuple(Fraction(1, q) for q in (63, 20, 9, 7, 4))


def scan_case(rng):
    """A presentation (m = 2 or 3, 1-3 relators of length 1-120) and a
    folded graph for it: a folded bouquet of random words and of stretches
    of the relators' rotations and inverses, an edgeless vertex, or loops
    on a letter that no relator reads."""
    m = rng.choice((2, 3))
    # a fifth of the relators leave out the letter m
    rels = tuple(random_cyclically_reduced(m - (rng.random() < 0.2), rng.randint(1, 120), rng)
                 for _ in range(rng.randint(1, 3)))
    p = Presentation(Alphabet(m), rels)
    shape = rng.random()
    if shape < 0.05:
        g = FGraph()
        g.base = g.add_vertex()
        return p, g
    if shape < 0.1 and any(m not in map(abs, r) for r in rels):
        g = bouquet([(m,) * rng.randint(1, 3), (-m, -m)])
        fold_all(g)
        return p, g
    ws = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            ws.append(random_cyclically_reduced(m, rng.randint(1, 20), rng))
            continue
        r = rng.choice(rels)
        base = r if rng.random() < 0.5 else inverse(r)
        k = rng.randrange(len(base))
        stretch = (base[k:] + base[:k]) * 2
        w = free_reduce(stretch[:rng.randint(1, len(base) + 4)]
                        + random_cyclically_reduced(m, rng.randint(1, 6), rng))
        ws.append(w or (1,))
    g = bouquet(ws)
    fold_all(g)
    return p, g


class TestLongRelatorPath:
    def test_matches_table_oracle(self):
        """The anchor scan gives the old table scan's whole result, path
        included, on every lambda below 1/3."""
        rng = random.Random(2024)
        for _ in range(60):
            p, g = scan_case(rng)
            for lam in SCAN_LAMBDAS:
                expected = oracle_long_relator_path(g, p, lam)
                assert find_long_relator_path(g, p, lam) == expected, (p, g.dump(), lam)

    @pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    def test_refuses_lambda_from_one_third(self, lam):
        # at and above 1/3 the bound (1 - 3 lambda)|r| is at most 0, so a
        # graph that reads no relator letter would give an empty path
        g = bouquet([(1,)])
        p = Presentation(A2, ((2, 2, 2, 2),))
        with pytest.raises(ValueError, match="1/3"):
            find_long_relator_path(g, p, lam)

    def test_scan_memory_at_length_2000(self):
        # the graph of (b·r·b⁻¹·a, b) reads the whole relator along a
        # 2000-vertex loop; a table over every position and vertex peaked
        # at about 140 MB on such a graph
        r = random_cyclically_reduced(2, 2000, random.Random(2000))
        g = bouquet([free_reduce(concat((2,), r, (-2, 1))), (2,)])
        fold_all(g)
        p = Presentation(A2, (r,))
        tracemalloc.start()
        try:
            res = find_long_relator_path(g, p, Fraction(1, 63))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res is not None and res.v == r
        assert peak < 5 * 2**20, peak

    def test_alphabet_bouquet_reads_whole_relator(self):
        g = bouquet([(1,), (2,)])
        p = Presentation(A2, ((1, 1, 2, 2),))
        res = find_long_relator_path(g, p, Fraction(1, 6))
        assert res is not None
        assert res.v == (1, 1, 2, 2)
        assert res.y == ()
        assert (res.relator_index, res.sign, res.offset) == (0, 1, 0)
        assert g.path_label(res.path) == res.v

    def test_absent_when_letters_missing(self):
        g = bouquet([(1,)])
        p = Presentation(A2, ((1, 2, 1, 2),))
        assert find_long_relator_path(g, p, Fraction(1, 6)) is None

    def test_winding_a_loop(self):
        g = bouquet([(1,)])
        p = Presentation(A2, ((1, 1, 1, 1),))
        res = find_long_relator_path(g, p, Fraction(1, 6))
        assert res is not None
        assert res.v == (1, 1, 1, 1)
        assert res.y == ()
        assert len(res.path.steps) == 4

    def test_embedded_relator_found_after_folding(self):
        r1 = (1, 2, 1, 1, 2, 2)
        g = bouquet([r1 + (1,), (2,)])
        fold_all(g)
        p = Presentation(A2, (r1,))
        res = find_long_relator_path(g, p, Fraction(1, 6))
        assert res is not None
        assert len(res.v) == len(r1)
        base = r1 if res.sign == 1 else inverse(r1)
        rotation = base[res.offset:] + base[:res.offset]
        assert res.v + res.y == rotation

    def test_requires_folded(self):
        g = bouquet([(1, 2), (1, 1)])
        with pytest.raises(ValueError):
            find_long_relator_path(g, Presentation(A2, ((1, 2),)), Fraction(1, 6))

    def test_segments_split_at_junctions(self):
        # theta graph: the path reads a then b^-1 across a junction vertex
        g = FGraph.from_edges([(0, 1, 1), (0, 1, 2), (0, 1, 3)], base=0)
        p = Presentation(Alphabet(3), ((1, -2),))
        res = find_long_relator_path(g, p, Fraction(1, 6))
        assert res is not None
        assert res.v == (1, -2)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(308)
        for _ in range(25):
            ws = [random_cyclically_reduced(2, rng.randrange(1, 7), rng)
                  for _ in range(rng.randrange(1, 3))]
            g = bouquet(ws)
            fold_all(g)
            p = random_presentation(rng, max_relators=2, max_len=8)
            lam = rng.choice([Fraction(1, 6), Fraction(1, 8), Fraction(1, 12)])
            res = find_long_relator_path(g, p, lam)
            expected = oracle_long_path(g, p, lam)
            if expected is None:
                assert res is None
            else:
                assert res is not None
                got = (len(res.v), res.relator_index, res.sign, res.offset,
                       res.path.start)
                assert got == expected

    def test_invariants_on_found_paths(self):
        rng = random.Random(309)
        lam = Fraction(1, 6)
        found = 0
        for _ in range(40):
            ws = [random_cyclically_reduced(2, rng.randrange(2, 8), rng)
                  for _ in range(rng.randrange(1, 3))]
            g = bouquet(ws)
            fold_all(g)
            p = random_presentation(rng, max_relators=1, max_len=6)
            res = find_long_relator_path(g, p, lam)
            if res is None:
                continue
            found += 1
            L = len(p.relators[res.relator_index])
            assert len(res.v) * lam.denominator > \
                (lam.denominator - 3 * lam.numerator) * L
            assert len(res.v) <= L
            assert g.path_label(res.path) == res.v
            assert g.path_is_reduced(res.path)
            base = (p.relators[res.relator_index] if res.sign == 1
                    else inverse(p.relators[res.relator_index]))
            assert res.v + res.y == base[res.offset:] + base[:res.offset]
        assert found >= 5  # the loop must actually exercise the invariants
