"""Tests for path-readability of words in bounded graphs."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from relfold.fgraph import Path
from relfold.readability import (
    NOT_READABLE,
    READABLE,
    UNKNOWN,
    ReadabilityQuery,
    is_readable,
    witness_is_valid,
)
from relfold.words import format_word, inverse, parse_word, random_cyclically_reduced
from oracles import enumerate_reduced, oracle_is_readable, oracle_memo_is_readable


def q(word, mu, rank_bound, m=2, **kw):
    if isinstance(word, str):
        word = parse_word(word)
    return ReadabilityQuery(word, m, Fraction(mu), rank_bound, **kw)


def random_reduced(rng, m, length):
    letters = [s * k for k in range(1, m + 1) for s in (1, -1)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if w and x == -w[-1]:
            continue
        w.append(x)
    return tuple(w)


ALL_MUS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


class TestQuery:
    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            ReadabilityQuery((), 2, Fraction(1, 2), 1)

    def test_rejects_unreduced_word(self):
        with pytest.raises(ValueError):
            ReadabilityQuery((1, -1, 2), 2, Fraction(1, 2), 1)

    def test_rejects_letter_outside_alphabet(self):
        with pytest.raises(ValueError):
            ReadabilityQuery((1, 3), 2, Fraction(1, 2), 1)

    def test_names_first_bad_letter_of_long_word(self):
        word = (1, 2) * 999 + (1, -3)
        with pytest.raises(ValueError) as err:
            ReadabilityQuery(word, 2, Fraction(1, 2), 1)
        assert str(err.value) == "letter -3 outside alphabet of rank 2"

    def test_letter_zero_is_not_reduced(self):
        with pytest.raises(ValueError) as err:
            ReadabilityQuery((1, 0, 2), 2, Fraction(1, 2), 1)
        assert str(err.value) == "word must be freely reduced"

    def test_rejects_bad_mu(self):
        for mu in (0, Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError):
                ReadabilityQuery((1, 2), 2, Fraction(mu), 1)

    def test_rejects_negative_rank_bound(self):
        with pytest.raises(ValueError):
            ReadabilityQuery((1, 2), 2, Fraction(1, 2), -1)

    def test_rejects_nonpositive_node_budget(self):
        with pytest.raises(ValueError):
            ReadabilityQuery((1, 2), 2, Fraction(1, 2), 1, node_budget=0)

    def test_edge_budget_floor(self):
        assert q("ababa", "1/2", 1).edge_budget == 2
        assert q("abab", "1/2", 1).edge_budget == 2
        assert q("aaa", "1/4", 1).edge_budget == 0

    def test_mu_coerced_to_fraction(self):
        query = ReadabilityQuery((1, 2), 2, "1/3", 1)
        assert query.mu == Fraction(1, 3)


class TestFixedExamples:
    def test_full_budget_interval_witness(self):
        word = parse_word("abba")
        ans = is_readable(q(word, 1, 0))
        assert ans.verdict == READABLE
        assert ans.graph.num_edges() == len(word)
        assert ans.graph.rank() == 0
        degrees = sorted(ans.graph.degree(v) for v in ans.graph.vertices)
        assert degrees[0] == 1
        assert witness_is_valid(q(word, 1, 0), ans.graph, ans.path)

    def test_ababab_third_budget_rank_one(self):
        query = q("ababab", "1/3", 1)
        ans = is_readable(query)
        assert ans.verdict == READABLE
        assert ans.graph.num_edges() == 2
        assert ans.graph.rank() == 1
        assert witness_is_valid(query, ans.graph, ans.path)

    def test_commutator_not_readable_at_half(self):
        assert is_readable(q("abAB", "1/2", 1)).verdict == NOT_READABLE

    def test_fourth_power_reads_on_loop(self):
        query = q("aaaa", "1/4", 1)
        ans = is_readable(query)
        assert ans.verdict == READABLE
        assert ans.graph.num_edges() == 1
        assert witness_is_valid(query, ans.graph, ans.path)
        # The loop vertex has degree 2 < 4, so the free-slot variant holds too.
        flagged = q("aaaa", "1/4", 1, require_low_degree=True)
        assert is_readable(flagged).verdict == READABLE

    def test_two_letters_exceed_one_edge(self):
        ans = is_readable(q("ab", "1/2", 2))
        assert ans.verdict == NOT_READABLE
        assert ans.nodes_expanded == 0

    def test_low_degree_flag_can_flip_verdict(self):
        # aabb reads on a two-loop bouquet (E = 2, rank 2), but that graph
        # is saturated: its only vertex has degree 4 = 2m.
        assert is_readable(q("aabb", "1/2", 2)).verdict == READABLE
        flagged = q("aabb", "1/2", 2, require_low_degree=True)
        assert is_readable(flagged).verdict == NOT_READABLE

    def test_huge_alphabet_rank(self):
        # Per-label state is sized by the word's letters, not by m.
        m = 10**12
        query = q("abab", "2/3", m - 1, m=m)
        ans = is_readable(query)
        assert (ans.verdict, ans.nodes_expanded) == (READABLE, 5)
        assert witness_is_valid(query, ans.graph, ans.path)

    def test_budget_boundary_equality_allowed(self):
        # l = 4, mu = 1/2: exactly 2 edges allowed, and abab needs both.
        ans = is_readable(q("abab", "1/2", 1))
        assert ans.verdict == READABLE
        assert ans.graph.num_edges() == 2


class TestInvariantProperties:
    def test_monotone_in_mu(self):
        rng = random.Random(401)
        for _ in range(60):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            rb = rng.randint(0, 2)
            seen_readable = False
            for mu in ALL_MUS:
                verdict = is_readable(q(w, mu, rb)).verdict
                if seen_readable:
                    assert verdict == READABLE, (w, mu, rb)
                seen_readable = verdict == READABLE

    def test_monotone_in_rank_bound(self):
        rng = random.Random(402)
        for _ in range(60):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            mu = rng.choice(ALL_MUS)
            seen_readable = False
            for rb in (0, 1, 2, 3):
                verdict = is_readable(q(w, mu, rb)).verdict
                if seen_readable:
                    assert verdict == READABLE, (w, mu, rb)
                seen_readable = verdict == READABLE

    def test_low_degree_requirement_only_strengthens(self):
        rng = random.Random(403)
        for _ in range(60):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            mu = rng.choice(ALL_MUS)
            rb = rng.randint(0, 2)
            flagged = is_readable(q(w, mu, rb, require_low_degree=True)).verdict
            plain = is_readable(q(w, mu, rb)).verdict
            if flagged == READABLE:
                assert plain == READABLE, (w, mu, rb)

    def test_inversion_symmetry(self):
        rng = random.Random(404)
        for _ in range(60):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            mu = rng.choice(ALL_MUS)
            rb = rng.randint(0, 2)
            flag = rng.random() < 0.5
            a = is_readable(q(w, mu, rb, require_low_degree=flag)).verdict
            b = is_readable(q(inverse(w), mu, rb, require_low_degree=flag)).verdict
            assert a == b, (w, mu, rb, flag)

    def test_readable_witnesses_check_out(self):
        rng = random.Random(405)
        checked = 0
        for _ in range(80):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            mu = rng.choice(ALL_MUS)
            rb = rng.randint(0, 2)
            flag = rng.random() < 0.5
            query = q(w, mu, rb, require_low_degree=flag)
            ans = is_readable(query)
            if ans.verdict == READABLE:
                assert witness_is_valid(query, ans.graph, ans.path), (w, mu, rb)
                checked += 1
        assert checked >= 20

    def test_distinct_generators_bound(self):
        rng = random.Random(406)
        for _ in range(60):
            w = random_reduced(rng, 2, rng.randint(1, 8))
            mu = rng.choice(ALL_MUS)
            query = q(w, mu, 2)
            if len({abs(x) for x in w}) > query.edge_budget:
                assert is_readable(query).verdict == NOT_READABLE, (w, mu)

    def test_deterministic_answers(self):
        rng = random.Random(407)
        for _ in range(20):
            w = random_reduced(rng, 2, rng.randint(2, 7))
            query = q(w, "1/2", 1)
            a1 = is_readable(query)
            a2 = is_readable(query)
            assert a1.verdict == a2.verdict
            assert a1.nodes_expanded == a2.nodes_expanded
            if a1.verdict == READABLE:
                assert a1.graph.dump() == a2.graph.dump()
                assert a1.path == a2.path


class TestWitnessValidation:
    def test_rejects_wrong_word(self):
        ans = is_readable(q("aaaa", "1/4", 1))
        assert not witness_is_valid(q("aaab", "1/4", 1), ans.graph, ans.path)

    def test_rejects_tighter_budget(self):
        ans = is_readable(q("abab", "1/2", 1))
        assert not witness_is_valid(q("abab", "1/4", 1), ans.graph, ans.path)

    def test_rejects_tighter_rank_bound(self):
        ans = is_readable(q("aaaa", "1/4", 1))
        assert not witness_is_valid(q("aaaa", "1/4", 0), ans.graph, ans.path)

    def test_rejects_broken_path(self):
        ans = is_readable(q("aaaa", "1/4", 1))
        assert not witness_is_valid(q("aaaa", "1/4", 1), ans.graph, Path(0, ((99, 1),)))

    def test_rejects_saturated_graph_under_flag(self):
        query = q("aabb", "1/2", 2)
        ans = is_readable(query)
        flagged = q("aabb", "1/2", 2, require_low_degree=True)
        assert not witness_is_valid(flagged, ans.graph, ans.path)


class TestNodeBudget:
    def test_tiny_budget_gives_unknown(self):
        ans = is_readable(q("abAB", "1/2", 1, node_budget=1))
        assert ans.verdict == UNKNOWN
        assert ans.nodes_expanded > 0

    def test_generous_budget_matches_exact(self):
        rng = random.Random(408)
        for _ in range(30):
            w = random_reduced(rng, 2, rng.randint(2, 7))
            mu = rng.choice(ALL_MUS)
            exact = is_readable(q(w, mu, 1)).verdict
            budgeted = is_readable(q(w, mu, 1, node_budget=100000)).verdict
            assert budgeted == exact, (w, mu)

    def test_instant_answers_skip_search(self):
        # mu = 1 and the generator-count bound answer without expanding nodes.
        assert is_readable(q("abAB", 1, 0, node_budget=1)).verdict == READABLE
        assert is_readable(q("ab", "1/4", 2, node_budget=1)).verdict == NOT_READABLE


class TestOracle:
    def test_exhaustive_agreement_short_words(self):
        for length in range(1, 6):
            for w in enumerate_reduced(2, length):
                for mu in ALL_MUS:
                    for rb in (0, 1, 2):
                        for flag in (False, True):
                            query = q(w, mu, rb, require_low_degree=flag)
                            got = is_readable(query).verdict == READABLE
                            want = oracle_is_readable(query)
                            assert got == want, (w, mu, rb, flag)

    def test_sampled_agreement_length_seven(self):
        rng = random.Random(409)
        for _ in range(25):
            w = random_reduced(rng, 2, 7)
            for mu in ALL_MUS:
                for rb in (0, 1, 2):
                    for flag in (False, True):
                        query = q(w, mu, rb, require_low_degree=flag)
                        got = is_readable(query).verdict == READABLE
                        want = oracle_is_readable(query)
                        assert got == want, (w, mu, rb, flag)

    def test_oracle_fixed_examples(self):
        assert oracle_is_readable(q("ababab", "1/3", 1))
        assert not oracle_is_readable(q("abAB", "1/2", 1))
        assert oracle_is_readable(q("aaaa", "1/4", 1))
        assert not oracle_is_readable(q("ab", "1/2", 2))
        assert oracle_is_readable(q("aabb", "1/2", 2))
        assert not oracle_is_readable(q("aabb", "1/2", 2, require_low_degree=True))

    def test_oracle_length_guard(self):
        long_word = tuple([1, 2] * 6)
        with pytest.raises(ValueError):
            oracle_is_readable(q(long_word, "1/2", 1))


def half_relator(m, t, seed):
    """The first half-subword the condition-(3) sweep asks about, of a
    seeded cyclically reduced relator of length t."""
    r = random_cyclically_reduced(m, t, random.Random(seed))
    return format_word(r[:(t + 1) // 2])


HALF_R2 = half_relator(2, 1000, 1)
HALF_R2_LONG = half_relator(2, 2000, 2)
HALF_R3 = half_relator(3, 1000, 3)
SHRINK_2 = "abAb" * 60 + "b" * 200
SHRINK_3 = "acAc" * 60 + "bc" * 100

# Long words, by name: first half-subwords of class-length relators under
# both sweep queries ("mu": rank m - 1; "muL": rank L = m and a free
# slot), and words whose set of generators still to read shrinks early.
LONG_SEARCHES = [
    ("relator-m2-t1000-mu-250", HALF_R2, 2, "1/2", 1, False, 250, UNKNOWN, 251),
    ("relator-m2-t1000-mu-5000", HALF_R2, 2, "1/2", 1, False, 5000, UNKNOWN, 5001),
    ("relator-m2-t1000-muL-250", HALF_R2, 2, "1/2", 2, True, 250, UNKNOWN, 251),
    ("relator-m2-t1000-muL-5000", HALF_R2, 2, "1/2", 2, True, 5000, UNKNOWN, 5001),
    ("relator-m2-t2000-mu-250", HALF_R2_LONG, 2, "1/2", 1, False, 250, UNKNOWN, 251),
    ("relator-m2-t2000-mu-5000", HALF_R2_LONG, 2, "1/2", 1, False, 5000, UNKNOWN, 5001),
    ("relator-m2-t2000-muL-250", HALF_R2_LONG, 2, "1/2", 2, True, 250, UNKNOWN, 251),
    ("relator-m2-t2000-muL-5000", HALF_R2_LONG, 2, "1/2", 2, True, 5000, UNKNOWN, 5001),
    ("relator-m3-t1000-mu-250", HALF_R3, 3, "1/2", 2, False, 250, UNKNOWN, 251),
    ("relator-m3-t1000-mu-5000", HALF_R3, 3, "1/2", 2, False, 5000, UNKNOWN, 5001),
    ("relator-m3-t1000-muL-250", HALF_R3, 3, "1/2", 3, True, 250, UNKNOWN, 251),
    ("relator-m3-t1000-muL-5000", HALF_R3, 3, "1/2", 3, True, 5000, UNKNOWN, 5001),
    ("abAb^60.b^200-mu-250", SHRINK_2, 2, "1/2", 1, False, 250, UNKNOWN, 251),
    ("abAb^60.b^200-mu-5000", SHRINK_2, 2, "1/2", 1, False, 5000, READABLE, 1537),
    ("abAb^60.b^200-muL-250", SHRINK_2, 2, "1/2", 2, True, 250, UNKNOWN, 251),
    ("abAb^60.b^200-muL-5000", SHRINK_2, 2, "1/2", 2, True, 5000, READABLE, 1098),
    ("acAc^60.bc^100-mu-250", SHRINK_3, 3, "1/2", 2, False, 250, UNKNOWN, 251),
    ("acAc^60.bc^100-mu-5000", SHRINK_3, 3, "1/2", 2, False, 5000, READABLE, 441),
    ("acAc^60.bc^100-muL-250", SHRINK_3, 3, "1/2", 3, True, 250, UNKNOWN, 251),
    ("acAc^60.bc^100-muL-5000", SHRINK_3, 3, "1/2", 3, True, 5000, READABLE, 641),
    ("abAb^20.b^60-eighth", "abAb" * 20 + "b" * 60, 2, "1/8", 1, False, 5000, NOT_READABLE, 935),
    ("acAc^20.bc^40-eighth", "acAc" * 20 + "bc" * 40, 3, "1/8", 1, False, 5000, NOT_READABLE,
     1276),
]

# (word, m, mu, rank bound, free-slot flag, node budget) -> (verdict, nodes).
# The membership sweep spends one shared budget by ``nodes_expanded``, so
# the search must keep visiting exactly these many states.
PINNED_SEARCHES = [
    ("abAB", 2, "1/2", 1, False, None, NOT_READABLE, 8),
    ("abAB", 2, "1/2", 1, True, None, NOT_READABLE, 8),
    ("aabb", 2, "1/2", 2, False, None, READABLE, 5),
    ("aabb", 2, "1/2", 2, True, None, NOT_READABLE, 9),
    ("abab", 2, "1/2", 1, True, None, READABLE, 7),
    ("abaBAbaB", 2, "1/2", 1, False, None, NOT_READABLE, 26),
    ("abaBAbaB", 2, "1/2", 1, False, 26, NOT_READABLE, 26),
    ("abaBAbaB", 2, "1/2", 1, False, 25, UNKNOWN, 26),
    ("abaBAbaB", 2, "1/2", 2, True, None, READABLE, 16),
    ("abcABCacb", 3, "2/3", 2, False, None, READABLE, 38),
    ("abcABCacb", 3, "2/3", 2, False, 20, UNKNOWN, 21),
    ("aabbaBBAbbaa", 2, "1/2", 1, False, None, NOT_READABLE, 60),
    ("aabbaBBAbbaa", 2, "1/2", 1, False, 30, UNKNOWN, 31),
    ("aabbaBBAbbaa", 2, "1/2", 2, True, 500, READABLE, 23),
    ("abbaBAAbaBBabbAB", 2, "1/3", 1, True, 100, NOT_READABLE, 40),
] + [pytest.param(*case, id=name) for name, *case in LONG_SEARCHES]


class TestPinnedSearch:
    @pytest.mark.parametrize("word,m,mu,rb,flag,budget,verdict,nodes", PINNED_SEARCHES)
    def test_verdict_and_node_count(self, word, m, mu, rb, flag, budget, verdict, nodes):
        query = q(word, mu, rb, m=m, require_low_degree=flag, node_budget=budget)
        ans = is_readable(query)
        assert (ans.verdict, ans.nodes_expanded) == (verdict, nodes)
        if verdict == READABLE:
            assert witness_is_valid(query, ans.graph, ans.path)
        else:
            assert ans.graph is None and ans.path is None

    def test_long_word_does_not_recurse(self):
        # One straight descent of depth 3000, far past the interpreter's
        # recursion limit, ending on a two-edge witness.
        query = q(tuple([1, 2, 1, -2] * 750), "1/2", 2, node_budget=5000)
        ans = is_readable(query)
        assert (ans.verdict, ans.nodes_expanded) == (READABLE, 3001)
        assert witness_is_valid(query, ans.graph, ans.path)


def same_answer(a, b):
    """Verdict, node count, witness edges and witness path all agree."""
    def edges(ans):
        return None if ans.graph is None else ans.graph.edges
    return ((a.verdict, a.nodes_expanded, edges(a), a.path)
            == (b.verdict, b.nodes_expanded, edges(b), b.path))


def memo_queries():
    # Every rank-2 word up to length 6 and rank-3 word up to length 4,
    # under every rank bound that can matter (rank <= edge count), then
    # seeded random words up to length 14.
    mus = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    for m, top in ((2, 6), (3, 4)):
        for length in range(1, top + 1):
            for w in enumerate_reduced(m, length):
                for mu in mus:
                    for rb in range(mu.numerator * length // mu.denominator + 1):
                        for flag in (False, True):
                            for budget in (None, 50):
                                yield ReadabilityQuery(w, m, mu, rb, flag, budget)
    rng = random.Random(413)
    for _ in range(500):
        m = rng.choice((2, 3))
        w = random_reduced(rng, m, rng.randint(1, 14))
        yield ReadabilityQuery(w, m, rng.choice(mus), rng.randint(0, 3),
                               rng.choice((False, True)), rng.choice((None, 50, 250, 1000)))


class TestNoMemo:
    def test_memo_never_hits(self):
        # A search state (j, cur, G) is one node of the search tree: G is
        # the image of the path reading word[:j] from vertex 0 to cur, and
        # a memo of failed states keyed on G relabeled from cur never
        # skips a state, so dropping it changes no answer.
        count = 0
        for query in memo_queries():
            want, hits = oracle_memo_is_readable(query)
            assert hits == 0, query
            assert same_answer(is_readable(query), want), query
            count += 1
        assert count > 50000

    @pytest.mark.parametrize("word,m,mu,rb,flag,budget",
                             [pytest.param(*case[1:7], id=case[0]) for case in LONG_SEARCHES])
    def test_long_words_agree(self, word, m, mu, rb, flag, budget):
        query = q(word, mu, rb, m=m, require_low_degree=flag, node_budget=budget)
        want, hits = oracle_memo_is_readable(query)
        assert hits == 0
        assert same_answer(is_readable(query), want)

    def test_search_memory_is_bounded(self, default_class_relator):
        # The search keeps one path of states, so its memory grows with
        # the word's length, not with the number of nodes it expands.
        query = ReadabilityQuery(parse_word(default_class_relator)[:500], 2, Fraction(1, 2), 1,
                                 node_budget=20000)
        tracemalloc.start()
        try:
            ans = is_readable(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ans.verdict == UNKNOWN
        assert peak < 5 * 2**20, peak


class TestNoCyclicGarbage:
    # A search allocates no container per node, so it leaves nothing for
    # the cyclic collector; the generator search left 2126 objects on the
    # Unknown case and 41 on the Readable one.
    @pytest.mark.parametrize("word,mu,budget,verdict", [
        (random_reduced(random.Random(600), 2, 600), "1/2", 250, UNKNOWN),
        ((1, 2, 1, 2), "1/2", None, READABLE),
        ((1, 2, -1, -2), "1/2", None, NOT_READABLE),
    ], ids=["unknown", "readable", "not-readable"])
    def test_search_leaves_no_cycles(self, word, mu, budget, verdict):
        query = q(word, mu, 1, node_budget=budget)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            ans = is_readable(query)
            assert (ans.verdict, gc.collect()) == (verdict, 0)
        finally:
            if was_enabled:
                gc.enable()
