"""Tests for Whitehead moves, orbit minimization, and orbit certificates."""

import json
import os
import pathlib
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

import pytest

from relfold import whitehead, words
from relfold.codec import certificate_jsonable, move_jsonable
from relfold.smallcancel import Presentation, check_Cprime
from relfold.whitehead import (
    MAX_MOVE_RANK,
    _closing_relabel,
    _image_core,
    _length_changes,
    Multiplier,
    OrbitCertificate,
    Relabel,
    apply_move,
    canonical_orbit_form,
    invert_move,
    minimize,
    multiplier_moves,
    same_orbit,
    verify_certificate,
)
from relfold.words import (
    Alphabet,
    format_word,
    inverse,
    is_proper_power,
    parse_word,
    random_cyclically_reduced,
)
from oracles import (
    certificate_from_jsonable,
    cyclic_word,
    enumerate_cyclically_reduced,
    move_from_jsonable,
    mutate_document,
    oracle_canonical_orbit_form,
    oracle_closing_relabel,
    oracle_minimize,
    oracle_same_orbit,
    oracle_verify_certificate,
    relabel_moves,
)

PINNED = pathlib.Path(__file__).with_name("whitehead_pinned.json")


def all_moves(m):
    return list(multiplier_moves(m)) + list(relabel_moves(m))


def random_cyclic(rng, m, length):
    letters = [s * g for g in range(1, m + 1) for s in (1, -1)]
    while True:
        w = cyclic_word(tuple(rng.choice(letters) for _ in range(length)))
        if w:
            return w


# Every cyclically reduced word up to these lengths is checked exhaustively.
EXHAUSTIVE = ((2, 8), (3, 5))


def short_words(m, max_len):
    return [w for t in range(1, max_len + 1) for w in enumerate_cyclically_reduced(m, t)]


def periodic_words(m):
    """Powers ``u^k`` and near-powers ``u^k c`` of short roots, where many
    rotations and relabels tie."""
    out = []
    for root in ("aB", "ab", "aab", "abAB", "aBc", "abcABC", "aabbc"):
        for k in (1, 2, 3, 5, 8):
            for tail in ("", "c", "cc", "Cb"):
                w = cyclic_word(parse_word(root * k + tail))
                if w and max(map(abs, w)) <= m:
                    out.append(w)
    return out


def sparse_words(m, rng, count):
    """Seeded words over two of the ``m`` generators, never generator 1,
    so the greedy maps meet generators that the word misses."""
    out = []
    for _ in range(count):
        keep = sorted(rng.sample(range(2, m + 1), 2))
        w = random_cyclically_reduced(2, rng.randint(1, 9), rng)
        out.append(tuple((1 if x > 0 else -1) * keep[abs(x) - 1] for x in w))
    return out


def orbit_ball(w, m, cap):
    """All cyclic words of length <= cap reachable from ``w`` by any moves.

    Because a chain between two orbit-equivalent words never needs to pass
    through anything longer than the longer endpoint, capping the search at
    ``cap >= max endpoint length`` keeps it exact for those endpoints.
    """
    start = cyclic_word(w)
    seen = {start}
    queue = deque([start])
    moves = all_moves(m)
    while queue:
        x = queue.popleft()
        for mv in moves:
            img = apply_move(x, mv)
            if len(img) <= cap and img not in seen:
                seen.add(img)
                queue.append(img)
    return seen


class TestMoveConstruction:
    def test_relabel_accepts_signed_permutation(self):
        Relabel((2, 1))
        Relabel((-1, 2))
        Relabel((-2, -1))

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Relabel((1, 1))
        with pytest.raises(ValueError):
            Relabel((1, 3))
        with pytest.raises(ValueError):
            Relabel((0, 1))

    def test_multiplier_requires_letter_in_cut(self):
        Multiplier(1, frozenset({1, 2}))
        with pytest.raises(ValueError):
            Multiplier(1, frozenset({2}))

    def test_multiplier_rejects_letter_and_inverse(self):
        with pytest.raises(ValueError):
            Multiplier(1, frozenset({1, -1}))
        with pytest.raises(ValueError):
            Multiplier(0, frozenset({0}))

    def test_move_inventory_sizes(self):
        # Signed permutations of two letters: 2! * 2**2.
        assert len(relabel_moves(2)) == 8
        # Four choices of multiplier letter, each with the other letter's
        # four cut states (absent, +, -, both).
        assert len(multiplier_moves(2)) == 16
        assert len(relabel_moves(3)) == 48
        assert len(multiplier_moves(3)) == 6 * 16

    @pytest.mark.parametrize("m", [MAX_MOVE_RANK + 1, 30])
    def test_move_tables_refuse_large_rank(self, m):
        with pytest.raises(ValueError):
            relabel_moves(m)
        with pytest.raises(ValueError):
            multiplier_moves(m)


class TestApplyMove:
    def test_relabel_swap(self):
        assert apply_move((1,), Relabel((2, 1))) == (2,)
        assert apply_move(parse_word("ab"), Relabel((2, 1))) == parse_word("ab")

    def test_multiplier_on_single_letter(self):
        mv = Multiplier(1, frozenset({1, 2}))
        assert apply_move((2,), mv) == cyclic_word(parse_word("ba"))
        # The multiplier letter itself is fixed.
        assert apply_move((1,), mv) == (1,)

    def test_multiplier_on_longer_word(self):
        mv = Multiplier(1, frozenset({1, 2}))
        assert apply_move(parse_word("aab"), mv) == cyclic_word(parse_word("aaba"))

    def test_two_sided_case_conjugates(self):
        # With both b and B in the cut, b maps to AbA^-1... i.e. a^-1 b a.
        mv = Multiplier(1, frozenset({1, 2, -2}))
        assert apply_move((2,), mv) == cyclic_word((-1, 2, 1))
        # On a cyclic word the conjugation cancels out.
        assert apply_move(parse_word("ab"), mv) == cyclic_word(parse_word("ab"))

    def test_empty_word_is_fixed(self):
        for mv in all_moves(2):
            assert apply_move((), mv) == ()

    def test_result_is_canonical_cyclic(self):
        rng = random.Random(7)
        for _ in range(50):
            w = random_cyclic(rng, 2, 8)
            mv = rng.choice(all_moves(2))
            img = apply_move(w, mv)
            assert img == cyclic_word(img)


class TestInvertMove:
    def test_relabel_inverse(self):
        rho = Relabel((-2, 1))
        inv = invert_move(rho)
        assert isinstance(inv, Relabel)

    def test_multiplier_inverse_form(self):
        mv = Multiplier(1, frozenset({1, 2}))
        inv = invert_move(mv)
        assert inv == Multiplier(-1, frozenset({-1, 2}))

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            invert_move("not a move")

    def test_round_trip_on_random_words(self):
        rng = random.Random(11)
        for mv in all_moves(2):
            for _ in range(10):
                w = random_cyclic(rng, 2, rng.randrange(1, 9))
                assert apply_move(apply_move(w, mv), invert_move(mv)) == w

    def test_double_inversion_is_identity(self):
        for mv in all_moves(2):
            assert invert_move(invert_move(mv)) == mv


class TestCanonicalOrbitForm:
    def test_relabel_invariance(self):
        rng = random.Random(3)
        for _ in range(30):
            w = random_cyclic(rng, 2, 6)
            k = canonical_orbit_form(w, 2)
            for rho in relabel_moves(2):
                assert canonical_orbit_form(apply_move(w, rho), 2) == k

    def test_picks_least_image(self):
        assert canonical_orbit_form((2,), 2) == (1,)
        assert canonical_orbit_form((-1,), 2) == (1,)

    def test_rotation_does_not_matter(self):
        rng = random.Random(5)
        for _ in range(30):
            w = random_cyclic(rng, 3, 9)
            k = rng.randrange(len(w))
            assert canonical_orbit_form(w[k:] + w[:k], 3) == canonical_orbit_form(w, 3)

    def test_rejects_foreign_letters(self):
        for w in [(1, 3), (1, -3), (1, 0, 2)]:
            with pytest.raises(ValueError, match="outside alphabet"):
                canonical_orbit_form(w, 2)

    def test_rejects_words_not_cyclically_reduced(self):
        for w in [(1, -1), (1, 2, -1), (2, 1, -1, 1)]:
            with pytest.raises(ValueError,
                               match="canonical_orbit_form needs a cyclically reduced word"):
                canonical_orbit_form(w, 2)

    def test_empty_word_is_its_own_form(self):
        assert canonical_orbit_form((), 3) == ()


class TestMinimize:
    def test_fixed_examples(self):
        word, moves = minimize(parse_word("aab"), 2)
        assert len(word) == 1
        assert moves
        assert minimize(parse_word("abAB"), 2) == (parse_word("abAB"), ())
        assert minimize((1,), 2) == ((1,), ())

    def test_moves_replay_to_result(self):
        rng = random.Random(19)
        for _ in range(20):
            w = random_cyclic(rng, 2, 10)
            word, moves = minimize(w, 2)
            x = cyclic_word(w)
            for mv in moves:
                x = apply_move(x, mv)
            assert x == word

    def test_each_move_strictly_shortens(self):
        rng = random.Random(23)
        for _ in range(20):
            w = random_cyclic(rng, 2, 12)
            word, moves = minimize(w, 2)
            x = cyclic_word(w)
            for mv in moves:
                nxt = apply_move(x, mv)
                assert len(nxt) < len(x)
                x = nxt

    def test_agrees_with_exhaustive_search(self):
        # Every cyclic word of length <= 4 over two generators: the greedy
        # minimum must match the true minimum over the orbit ball.
        seen = set()
        for t in range(1, 5):
            for w in enumerate_cyclically_reduced(2, t):
                c = cyclic_word(w)
                if c in seen:
                    continue
                seen.add(c)
                word, _ = minimize(c, 2)
                ball = orbit_ball(c, 2, cap=6)
                assert len(word) == min(len(x) for x in ball), c

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            minimize((1, 3), 2)

    @pytest.mark.parametrize("w", [(), (1, -1), (1, 2, -2, -1), (2, 1, -1, -2)])
    def test_rejects_trivial_words(self, w):
        with pytest.raises(ValueError, match="nontrivial"):
            minimize(w, 2)


class TestLengthChanges:
    """A multiplier move's length change is its cut size in the Whitehead
    graph minus the degree of its letter (Lyndon-Schupp Prop. I.4.16)."""

    @pytest.mark.parametrize("m, max_len", EXHAUSTIVE)
    def test_equal_materialised_images(self, m, max_len):
        moves = multiplier_moves(m)
        for w in short_words(m, max_len):
            expected = [len(_image_core(w, mv)) - len(w) for mv in moves]
            assert _length_changes(w, m) == expected, w


class TestAgreesWithOracles:
    """``minimize`` and ``canonical_orbit_form`` give what the searches
    that build every image and key every rotation give."""

    @pytest.mark.parametrize("m, max_len", EXHAUSTIVE)
    def test_every_short_word(self, m, max_len):
        # Both oracles answer the same for every rotation of a word, so
        # they run once per cyclic word; the searches run on every word.
        expected = {}
        for w in short_words(m, max_len):
            key = cyclic_word(w)
            if key not in expected:
                expected[key] = (oracle_minimize(key, m), oracle_canonical_orbit_form(key, m))
            assert (minimize(w, m), canonical_orbit_form(w, m)) == expected[key], w

    @pytest.mark.parametrize("m", [3, 4])
    def test_seeded_long_words(self, m):
        # Generic words are already minimal, so each is also lengthened by
        # random multiplier moves to make the descent work.
        rng = random.Random(f"whitehead/oracles/{m}")
        moves = multiplier_moves(m)
        for _ in range(4):
            w = cyclic_word(random_cyclically_reduced(m, rng.randint(20, 200), rng))
            v = w
            for _ in range(3):
                v = apply_move(v, rng.choice(moves))
            for x in (w, v):
                assert minimize(x, m) == oracle_minimize(x, m), x
                assert canonical_orbit_form(x, m) == oracle_canonical_orbit_form(x, m), x

    @pytest.mark.parametrize("m", [3, 4])
    def test_periodic_and_near_periodic_words(self, m):
        for w in periodic_words(m):
            assert canonical_orbit_form(w, m) == oracle_canonical_orbit_form(w, m), w

    @pytest.mark.parametrize("m", [3, 4])
    def test_words_missing_generators(self, m):
        for w in sparse_words(m, random.Random(f"whitehead/sparse/{m}"), 30):
            assert canonical_orbit_form(w, m) == oracle_canonical_orbit_form(w, m), w

    @pytest.mark.parametrize("m, count", [(5, 3), (6, 2)])
    def test_seeded_words_at_high_rank(self, m, count):
        rng = random.Random(f"whitehead/rank/{m}")
        for _ in range(count):
            w = cyclic_word(random_cyclically_reduced(m, rng.randint(6, 12), rng))
            assert canonical_orbit_form(w, m) == oracle_canonical_orbit_form(w, m), w


def oracle_pair_inputs(m, max_len, count, rng):
    """Seeded pairs: a word and its image under up to five random
    multiplier moves and relabels, inverted half the time; and two
    independent draws of one length with equal minimal length."""
    moves = all_moves(m)
    pairs = []
    for _ in range(count):
        u = cyclic_word(random_cyclically_reduced(m, rng.randint(1, max_len), rng))
        v = u
        for _ in range(rng.randint(1, 5)):
            v = apply_move(v, rng.choice(moves))
        pairs.append((u, cyclic_word(inverse(v)) if rng.random() < 0.5 else v))
        target = len(minimize(u, m)[0])
        for _ in range(50):
            v = cyclic_word(random_cyclically_reduced(m, len(u), rng))
            if len(minimize(v, m)[0]) == target:
                pairs.append((u, v))
                break
    return pairs


def search_json(m, u, v, search=same_orbit):
    cert = search(u, v, m)
    return certificate_jsonable(cert) if cert is not None else None


class TestSearchOracle:
    """``same_orbit`` and ``verify_certificate``, which rotate only at a hit
    and at the end of a replay, give what the search and replay that
    rotate every word they build give, and ``minimize`` what the descent
    that builds every image gives."""

    @pytest.mark.parametrize("m, max_len, count", [(2, 60, 30), (3, 40, 12), (4, 16, 5)])
    def test_seeded_pairs(self, m, max_len, count):
        rng = random.Random(f"whitehead/search-oracle/{m}")
        pairs = oracle_pair_inputs(m, max_len, count, rng)
        assert any(search_json(m, u, v) is None for u, v in pairs)
        for u, v in pairs:
            assert search_json(m, u, v) == search_json(m, u, v, oracle_same_orbit), (u, v)
            for w in (u, v):
                assert minimize(w, m) == oracle_minimize(w, m), w

    @pytest.mark.parametrize("m", [2, 3])
    def test_periodic_words(self, m):
        rng = random.Random(f"whitehead/search-oracle/periodic/{m}")
        periodic = periodic_words(m)
        moves = all_moves(m)
        for u, other in zip(periodic, periodic[1:] + periodic[:1]):
            moved = apply_move(apply_move(u, rng.choice(moves)), rng.choice(moves))
            for v in (moved, other):
                assert search_json(m, u, v) == search_json(m, u, v, oracle_same_orbit), (u, v)

    def test_verifiers_agree_on_fuzzed_certificates(self):
        recorded = [r for r in json.loads(PINNED.read_text()) if r["certificate"]]
        # most mutations do not decode; 300 that do are replayed
        rng = random.Random("whitehead/search-oracle/fuzz")
        checked = verdicts = 0
        for run in range(20000):
            rec = rng.choice(recorded)
            doc = json.loads(json.dumps(rec["certificate"]))
            mutations = mutate_document(doc, rng)
            try:
                cert = certificate_from_jsonable(doc)
            except ValueError:
                continue
            verdict = verify_certificate(cert, rec["m"])
            assert verdict is oracle_verify_certificate(cert, rec["m"]), (run, mutations)
            checked, verdicts = checked + 1, verdicts + verdict
            if checked == 300:
                break
        assert checked == 300 and 0 < verdicts < 300


class TestClosingRelabel:
    """The relabel built from the greedy maps is the first one in
    ``relabel_moves`` order that carries a word to its target, as the
    loop over every relabel finds it."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_periodic_words(self, m):
        rng = random.Random(f"whitehead/closing/periodic/{m}")
        for x in periodic_words(m):
            for rho in rng.sample(relabel_moves(m), 4):
                target = apply_move(x, rho)
                assert _closing_relabel(x, target, m) == oracle_closing_relabel(x, target, m)

    @pytest.mark.parametrize("m", [3, 4])
    def test_words_missing_generators(self, m):
        rng = random.Random(f"whitehead/closing/sparse/{m}")
        for w in sparse_words(m, rng, 30):
            x = cyclic_word(w)
            for rho in rng.sample(relabel_moves(m), 4):
                target = apply_move(x, rho)
                assert _closing_relabel(x, target, m) == oracle_closing_relabel(x, target, m)


class TestTrivialMoves:
    """The level set skips the multiplier moves whose cut has 1 or 2m - 1
    letters: the identity and conjugation by the multiplier letter."""

    @pytest.mark.parametrize("m, max_len", EXHAUSTIVE)
    def test_fix_every_cyclic_word(self, m, max_len):
        trivial = [mv for mv in multiplier_moves(m) if len(mv.cut) in (1, 2 * m - 1)]
        assert len(trivial) == 4 * m
        for w in {cyclic_word(w) for w in short_words(m, max_len)}:
            for mv in trivial:
                assert apply_move(w, mv) == w, (w, mv)


def class_relator(m, length, rng):
    """A seeded relator of the paper's class: C'(1/63) and no proper power."""
    while True:
        r = random_cyclically_reduced(m, length, rng)
        if not is_proper_power(r) and check_Cprime(Presentation(Alphabet(m), (r,)), Fraction(1, 63)):
            return r


class TestCostGuards:
    """Call counts, not wall-clock times: Booth passes of
    ``words.least_rotation_offset``, images of ``whitehead._image_core``
    and move scorings of ``whitehead._length_changes``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"booth": 0, "image": 0, "scores": 0}
        booth, image = words.least_rotation_offset, whitehead._image_core
        scores = whitehead._length_changes

        def counted_booth(keys):
            counts["booth"] += 1
            return booth(keys)

        def counted_image(w, mv):
            counts["image"] += 1
            return image(w, mv)

        def counted_scores(w, m):
            counts["scores"] += 1
            return scores(w, m)

        monkeypatch.setattr(words, "least_rotation_offset", counted_booth)
        monkeypatch.setattr(whitehead, "_image_core", counted_image)
        monkeypatch.setattr(whitehead, "_length_changes", counted_scores)
        return counts

    @pytest.mark.parametrize("k", [5, 50, 500])
    def test_periodic_word_passes_do_not_grow(self, calls, k):
        # (aB)^k c has 2k + 1 runs of length 1; the starts at a and at B
        # keep the least greedy prefixes and carry two greedy relabels
        canonical_orbit_form(parse_word("aB" * k + "c"), 3)
        assert calls["booth"] == 2

    def test_rank_6_word_takes_one_pass(self, calls):
        # one pass per relabel of rank 6 would be 46,080
        rng = random.Random("whitehead/cost/6")
        for _ in range(4):
            calls["booth"] = 0
            canonical_orbit_form(random_cyclically_reduced(6, 200, rng), 6)
            assert calls["booth"] == 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_class_relators_are_strictly_minimal(self, calls, m):
        # Kapovich-Schupp-Shpilrain: a generic cyclic word is strictly
        # minimal, so no descent move and no level-set image is built.  A
        # search that rotates only at a hit orders each word once (the
        # orbit keys of s, s^-1 and r) and scores it once (r and s).
        rng = random.Random(f"whitehead/cost/class/{m}")
        r, s = class_relator(m, 1000, rng), class_relator(m, 1000, rng)
        assert same_orbit(r, r, m) is not None
        calls["booth"] = calls["scores"] = 0
        assert same_orbit(r, s, m) is None
        assert (calls["booth"], calls["scores"]) == (3, 2)
        assert calls["image"] == 0

    def test_replay_rotates_once(self, calls):
        # one Booth pass per end of the replay, none per move
        rng = random.Random("whitehead/cost/replay")
        moves = tuple(rng.choice(all_moves(3)) for _ in range(12))
        source = random_cyclic(rng, 3, 40)
        target = source
        for mv in moves:
            target = apply_move(target, mv)
        calls["booth"] = 0
        assert verify_certificate(OrbitCertificate(moves, source, target, False), 3)
        assert calls["booth"] <= 3


class TestSameOrbit:
    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(10):
            w = random_cyclic(rng, 2, 8)
            cert = same_orbit(w, w, 2)
            assert cert is not None
            assert verify_certificate(cert, 2)

    def test_single_relabel_connects_generators(self):
        cert = same_orbit((1,), (2,), 2)
        assert cert is not None
        assert verify_certificate(cert, 2)

    @pytest.mark.parametrize("u,v", [((1, -1), (2, -2)), ((1, -1), (1,)), ((1,), (2, 1, -1, -2))])
    def test_rejects_trivial_words(self, u, v):
        with pytest.raises(ValueError, match="nontrivial"):
            same_orbit(u, v, 2)

    def test_commutator_and_generator_differ(self):
        assert same_orbit(parse_word("abAB"), (1,), 2) is None

    def test_symmetric(self):
        rng = random.Random(37)
        for _ in range(10):
            u = random_cyclic(rng, 2, 6)
            v = random_cyclic(rng, 2, 6)
            fwd = same_orbit(u, v, 2)
            bwd = same_orbit(v, u, 2)
            assert (fwd is None) == (bwd is None)

    def test_moved_words_reconnect(self):
        rng = random.Random(41)
        moves = all_moves(2)
        for _ in range(10):
            w = random_cyclic(rng, 2, 12)
            img = w
            for _ in range(5):
                img = apply_move(img, rng.choice(moves))
            if not img:
                continue
            cert = same_orbit(w, img, 2)
            assert cert is not None
            assert verify_certificate(cert, 2)
            assert cert.source == cyclic_word(w)
            assert cert.target == cyclic_word(img)

    def test_inverse_detected(self):
        # A word and its inverse count as one orbit here, flagged when the
        # replay lands on the inverse rather than the word itself.
        rng = random.Random(43)
        for _ in range(10):
            w = random_cyclic(rng, 2, 7)
            cert = same_orbit(w, cyclic_word(inverse(w)), 2)
            assert cert is not None
            assert verify_certificate(cert, 2)

    def test_agrees_with_exhaustive_search(self):
        # Pairwise check over all cyclic words of length <= 3.
        words = sorted(
            {cyclic_word(w) for t in range(1, 4) for w in enumerate_cyclically_reduced(2, t)}
        )
        balls = {w: orbit_ball(w, 2, cap=6) for w in words}
        for u in words:
            for v in words:
                expected = v in balls[u] or cyclic_word(inverse(v)) in balls[u]
                cert = same_orbit(u, v, 2)
                assert (cert is not None) == expected, (u, v)
                if cert is not None:
                    assert verify_certificate(cert, 2)

    def test_certificate_replay_detects_tampering(self):
        cert = same_orbit((1,), (2,), 2)
        bad = OrbitCertificate(cert.moves, cert.source, (1, 2), cert.inverted)
        assert not verify_certificate(bad, 2)

    @pytest.mark.parametrize("cert", [
        # A rank-3 relabel: fixes a and b, so it replays ab to ab.
        OrbitCertificate((Relabel((1, 2, 3)),), (1, 2), (1, 2), False),
        # Multiply by c and back: the replay ends where it began.
        OrbitCertificate((Multiplier(3, {3, 1}), Multiplier(-3, {-3, 1})),
                         (1, 2), (1, 2), False),
        OrbitCertificate((), parse_word("abc"), parse_word("abc"), False),
        # A relabel too short for the rank.
        OrbitCertificate((Relabel((1,)),), (1, 2), (1, 2), False),
    ])
    def test_certificate_outside_rank_rejected(self, cert):
        assert verify_certificate(cert, 2) is False

    @pytest.mark.parametrize("source", ["aA", "1", "abBA", "ab"])
    @pytest.mark.parametrize("target", ["aA", "1", "abBA", "ab"])
    @pytest.mark.parametrize("moves", [(), (Multiplier(1, {1, 2}), Relabel((-2, 1)))])
    def test_trivial_words_replay_without_raising(self, source, target, moves):
        # automorphisms fix the identity, so only trivial to trivial holds
        trivial = {"aA", "1", "abBA"}
        for inverted in (False, True):
            cert = OrbitCertificate(moves, parse_word(source), parse_word(target), inverted)
            verdict = verify_certificate(cert, 2)
            if source in trivial or target in trivial:
                assert verdict is (source in trivial and target in trivial)
            assert verdict is oracle_verify_certificate(cert, 2)


class TestMoveSerialization:
    def test_move_round_trip(self):
        for mv in all_moves(3):
            data = move_jsonable(mv)
            assert move_from_jsonable(data) == mv

    def test_relabel_shape(self):
        data = move_jsonable(Relabel((-2, 1)))
        assert data == {"kind": "relabel", "images": [-2, 1]}

    def test_multiplier_shape(self):
        data = move_jsonable(Multiplier(1, frozenset({1, 2, -2})))
        assert data["kind"] == "multiplier"
        assert data["letter"] == 1
        assert set(data["cut"]) == {1, 2, -2}

    def test_certificate_round_trip(self):
        rng = random.Random(47)
        w = random_cyclic(rng, 2, 10)
        img = w
        for _ in range(3):
            img = apply_move(img, rng.choice(all_moves(2)))
        cert = same_orbit(w, img, 2)
        data = certificate_jsonable(cert)
        back = certificate_from_jsonable(data)
        assert back == cert
        assert verify_certificate(back, 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            move_from_jsonable({"kind": "mystery"})

    @pytest.mark.parametrize("doc", [
        # a string flag is not a bool: "false" would read as True
        {"moves": [], "source": "ab", "target": "BA", "inverted": "false"},
        {"moves": [{"kind": "relabel", "images": [1.0, 2]}],
         "source": "ab", "target": "ab", "inverted": False},
        {"moves": [{"kind": "relabel", "images": "ab"}],
         "source": "ab", "target": "ab", "inverted": False},
        {"moves": [], "source": 12, "target": "ab", "inverted": False},
        {"moves": [{"kind": "multiplier", "letter": True, "cut": [1, 2]}],
         "source": "ab", "target": "aba", "inverted": False},
    ])
    def test_decoder_rejects_wrong_types(self, doc):
        with pytest.raises(ValueError):
            certificate_from_jsonable(doc)

    def test_fuzzed_certificate_never_crashes(self):
        recorded = [r for r in json.loads(PINNED.read_text()) if r["certificate"]]
        rng = random.Random(5151)
        for run in range(300):
            rec = rng.choice(recorded)
            doc = json.loads(json.dumps(rec["certificate"]))
            mutations = mutate_document(doc, rng)
            try:
                cert = certificate_from_jsonable(doc)
            except ValueError:
                continue
            try:
                verdict = verify_certificate(cert, rec["m"])
            except Exception as exc:
                pytest.fail(f"run {run} {mutations}: {exc!r}")
            assert verdict in (True, False), (run, mutations)


# same_orbit with the certificate replay forced to fail must raise, not hand
# back a certificate it never replayed.  Prints [__debug__, error or None].
REPLAY_PROBE = """
import json
from relfold import whitehead

whitehead.verify_certificate = lambda cert, m: False
try:
    whitehead.same_orbit((1,), (2,), 2)
    error = None
except RuntimeError as exc:
    error = str(exc)
print(json.dumps([__debug__, error]))
"""


class TestSameOrbitReplayCheck:
    def test_failed_replay_raises(self, monkeypatch):
        monkeypatch.setattr("relfold.whitehead.verify_certificate", lambda cert, m: False)
        with pytest.raises(RuntimeError, match="replay"):
            same_orbit((1,), (2,), 2)

    def test_check_survives_optimize_flag(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", REPLAY_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        debug, error = json.loads(proc.stdout)
        assert debug is False  # asserts really are stripped in the child
        assert error is not None and "replay" in error


def pinned_pairs():
    """The fixed pairs of :class:`TestPinnedSearch`.  At m = 2 and
    |r| = 60: four words paired with their image under five random moves,
    and four pairs of independent draws with equal minimal length, so the
    level-set search runs to its end.  At m = 3: two moved and two
    independent pairs of short words."""
    pairs = []
    for m, length, moved, count in ((2, 60, True, 4), (2, 60, False, 4),
                                    (3, 10, True, 2), (3, 12, False, 2)):
        for i in range(count):
            rng = random.Random(f"pinned/{m}/{moved}/{i}")
            u = cyclic_word(random_cyclically_reduced(m, length, rng))
            if moved:
                v = u
                for _ in range(5):
                    v = apply_move(v, rng.choice(all_moves(m)))
            else:
                target = len(minimize(u, m)[0])
                while True:
                    v = cyclic_word(random_cyclically_reduced(m, length, rng))
                    if len(minimize(v, m)[0]) == target:
                        break
            pairs.append((m, u, v))
    return pairs


def search_record(m, u, v):
    """Both descents and the certificate of one pair, as JSON."""
    def descent(w):
        word, moves = minimize(w, m)
        return {"word": format_word(word), "moves": [move_jsonable(mv) for mv in moves]}

    cert = same_orbit(u, v, m)
    return {
        "m": m,
        "u": format_word(u),
        "v": format_word(v),
        "min_u": descent(u),
        "min_v": descent(v),
        "certificate": certificate_jsonable(cert) if cert is not None else None,
    }


class TestPinnedSearch:
    """``whitehead_pinned.json`` holds the descents and certificates that
    the quadratic-rotation search (commit 396b6a8) gave on
    :func:`pinned_pairs`; the search must keep producing them byte for
    byte.  Regenerate only on purpose, with
    ``[search_record(*p) for p in pinned_pairs()]``."""

    def test_outputs_match_recording(self):
        recorded = json.loads(PINNED.read_text())
        pairs = pinned_pairs()
        assert [(r["m"], r["u"], r["v"]) for r in recorded] == [
            (m, format_word(u), format_word(v)) for m, u, v in pairs
        ]
        assert any(r["certificate"] is None for r in recorded)
        assert any(r["certificate"] is not None for r in recorded)
        for rec, (m, u, v) in zip(recorded, pairs):
            assert search_record(m, u, v) == rec, rec["u"]
