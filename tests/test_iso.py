"""Tests for the one-relator isomorphism decision."""

import json
import random
from functools import lru_cache

import pytest

from relfold.codec import verdict_jsonable
from relfold.genericity import default_params
from relfold.iso import (
    INAPPLICABLE,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    IsoVerdict,
    decide_isomorphic,
)
from relfold.smallcancel import Presentation, check_Cprime
from relfold.whitehead import (
    Relabel,
    apply_move,
    minimize,
    multiplier_moves,
    verify_certificate,
)
from relfold.words import (
    Alphabet,
    Word,
    inverse,
    is_proper_power,
    parse_word,
    random_cyclically_reduced,
)
from oracles import cyclic_word, mutate_document, relabel_moves, verdict_from_jsonable

A2 = Alphabet(2)
PARAMS = default_params(2)


def one_relator(r: Word) -> Presentation:
    return Presentation(A2, (r,))


@lru_cache(maxsize=None)
def minimal_relator(seed: int, length: int = 20) -> Word:
    """A sampled cyclic word that no multiplier move shortens."""
    rng = random.Random(seed)
    while True:
        r = cyclic_word(random_cyclically_reduced(2, length, rng))
        if is_proper_power(r):
            continue
        if minimize(r, 2)[1] == ():
            return r


@lru_cache(maxsize=None)
def class_passing_relator(seed: int = 7, length: int = 1000) -> Word:
    """Passes the piece and power prechecks at the default parameters."""
    rng = random.Random(seed)
    while True:
        r = random_cyclically_reduced(2, length, rng)
        if is_proper_power(r):
            continue
        if check_Cprime(one_relator(r), PARAMS.lam).ok:
            return r


def isomorphic_verdict():
    r = minimal_relator(11)
    return decide_isomorphic(one_relator(r), one_relator(apply_move(r, Relabel((2, 1)))),
                             PARAMS, assume_in_class=True)


def random_alpha_image(rng: random.Random, w: Word, m: int, k: int = 5) -> Word:
    moves = list(relabel_moves(m)) + list(multiplier_moves(m))
    for _ in range(k):
        w = apply_move(w, rng.choice(moves))
    return w


class TestValidation:
    def test_requires_single_relator(self):
        p1 = Presentation(A2, (parse_word("abab"), parse_word("aabb")))
        p2 = one_relator(parse_word("abAB"))
        with pytest.raises(ValueError, match="one relator"):
            decide_isomorphic(p1, p2, PARAMS, assume_in_class=True)
        with pytest.raises(ValueError, match="one relator"):
            decide_isomorphic(p2, p1, PARAMS, assume_in_class=True)

    def test_alphabet_mismatch(self):
        p1 = one_relator(parse_word("abAB"))
        p2 = Presentation(Alphabet(3), (parse_word("abc"),))
        with pytest.raises(ValueError, match="alphabet"):
            decide_isomorphic(p1, p2, PARAMS, assume_in_class=True)


class TestIsomorphic:
    def test_cyclic_permutation_gives_empty_certificate(self):
        r = minimal_relator(11)
        s = r[3:] + r[:3]
        v = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                              assume_in_class=True)
        assert v.kind == ISOMORPHIC
        assert v.certificate.moves == ()
        assert v.conditional
        assert verify_certificate(v.certificate, 2)

    def test_relabel_image_gives_one_move_certificate(self):
        swap = Relabel((2, 1))
        r = minimal_relator(13)
        s = apply_move(r, swap)
        assert s != r
        v = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                              assume_in_class=True)
        assert v.kind == ISOMORPHIC
        assert len(v.certificate.moves) == 1
        assert isinstance(v.certificate.moves[0], Relabel)

    def test_inverse_relator_is_detected(self):
        r = minimal_relator(17)
        v = decide_isomorphic(one_relator(r), one_relator(inverse(r)), PARAMS,
                              assume_in_class=True)
        assert v.kind == ISOMORPHIC
        assert v.certificate.inverted
        assert verify_certificate(v.certificate, 2)

    def test_reflexive(self):
        p = one_relator(minimal_relator(19))
        v = decide_isomorphic(p, p, PARAMS, assume_in_class=True)
        assert v.kind == ISOMORPHIC

    def test_automorphic_images_round_trip(self):
        rng = random.Random(501)
        for k in range(5):
            r = cyclic_word(random_cyclically_reduced(2, 40, rng))
            s = random_alpha_image(rng, r, 2)
            v = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                                  assume_in_class=True)
            assert v.kind == ISOMORPHIC, k
            assert verify_certificate(v.certificate, 2)
            assert v.certificate.source == cyclic_word(r)
            assert v.certificate.target == cyclic_word(s)


class TestNotIsomorphic:
    def sample_distinct_pair(self, seed: int):
        rng = random.Random(seed)
        while True:
            r = random_cyclically_reduced(2, 40, rng)
            s = random_cyclically_reduced(2, 40, rng)
            if len(minimize(r, 2)[0]) != len(minimize(s, 2)[0]):
                return r, s

    def test_distinct_minimal_lengths(self):
        r, s = self.sample_distinct_pair(23)
        v = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                              assume_in_class=True)
        assert v.kind == NOT_ISOMORPHIC
        assert v.reason == "distinct Aut(F)-orbits of relators"
        assert v.certificate is None
        assert v.conditional

    def test_symmetry_of_verdicts(self):
        r, s = self.sample_distinct_pair(29)
        forward = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                                    assume_in_class=True)
        backward = decide_isomorphic(one_relator(s), one_relator(r), PARAMS,
                                     assume_in_class=True)
        assert forward.kind == backward.kind == NOT_ISOMORPHIC

        t = cyclic_word(random_cyclically_reduced(2, 30, random.Random(3)))
        u = random_alpha_image(random.Random(4), t, 2)
        fwd = decide_isomorphic(one_relator(t), one_relator(u), PARAMS,
                                assume_in_class=True)
        bwd = decide_isomorphic(one_relator(u), one_relator(t), PARAMS,
                                assume_in_class=True)
        assert fwd.kind == bwd.kind == ISOMORPHIC


class TestMembershipGate:
    def test_both_sides_fail_definitively(self):
        p1 = one_relator(parse_word("aabb"))
        p2 = one_relator(parse_word("abab"))
        v = decide_isomorphic(p1, p2, PARAMS)
        assert v.kind == INAPPLICABLE
        assert "membership not certified" in v.reason
        assert not v.conditional
        assert v.certificate is None

    def test_budget_exhaustion_is_inapplicable(self):
        r = class_passing_relator()
        v = decide_isomorphic(one_relator(r), one_relator(r), PARAMS,
                              node_budget=200)
        assert v.kind == INAPPLICABLE
        assert "Undetermined" in v.reason

    def test_assume_flag_skips_the_gate(self):
        r = class_passing_relator()
        v = decide_isomorphic(one_relator(r), one_relator(r), PARAMS,
                              node_budget=200, assume_in_class=True)
        assert v.kind == ISOMORPHIC
        assert v.conditional


class TestSerialization:
    def test_isomorphic_round_trip(self):
        r = minimal_relator(11)
        s = apply_move(r, Relabel((2, 1)))
        v = decide_isomorphic(one_relator(r), one_relator(s), PARAMS,
                              assume_in_class=True)
        data = json.loads(json.dumps(verdict_jsonable(v), sort_keys=True))
        back = verdict_from_jsonable(data)
        assert back == v
        assert verify_certificate(back.certificate, 2)

    def test_not_isomorphic_round_trip(self):
        p1 = one_relator(parse_word("aabb"))
        p2 = one_relator(parse_word("abab"))
        v = decide_isomorphic(p1, p2, PARAMS)
        data = json.loads(json.dumps(verdict_jsonable(v), sort_keys=True))
        assert verdict_from_jsonable(data) == v

    @pytest.mark.parametrize("flag", ["false", 0, 1, None, [True]])
    def test_decoder_rejects_non_bool_conditional(self, flag):
        data = {"kind": NOT_ISOMORPHIC, "conditional": flag, "reason": "x",
                "certificate": None}
        with pytest.raises(ValueError):
            verdict_from_jsonable(data)

    @pytest.mark.parametrize("data", [
        [],
        "Isomorphic",
        None,
        {"kind": 5},
        {"kind": NOT_ISOMORPHIC, "reason": 7},
        {"kind": ISOMORPHIC},
        {"kind": ISOMORPHIC, "certificate": None},
        {"kind": ISOMORPHIC, "certificate": {}},
        {"kind": ISOMORPHIC, "certificate": []},
    ])
    def test_decoder_rejects_malformed_documents(self, data):
        with pytest.raises(ValueError):
            verdict_from_jsonable(data)

    @pytest.mark.parametrize("key", ["kind", "conditional", "reason", "certificate"])
    def test_decoder_requires_every_key(self, key):
        # without the key, {"kind": "NotIsomorphic"} once decoded as an
        # unconditional verdict, dropping the caveat
        for v in (isomorphic_verdict(),
                  IsoVerdict(NOT_ISOMORPHIC, reason="x", conditional=True)):
            data = verdict_jsonable(v)
            assert verdict_from_jsonable(data) == v
            del data[key]
            with pytest.raises(ValueError):
                verdict_from_jsonable(data)

    @pytest.mark.parametrize("kind", [NOT_ISOMORPHIC, INAPPLICABLE])
    def test_decoder_rejects_certificate_on_other_kinds(self, kind):
        data = verdict_jsonable(isomorphic_verdict())
        data["kind"] = kind
        with pytest.raises(ValueError):
            verdict_from_jsonable(data)

    def test_fuzzed_verdict_never_crashes(self):
        originals = [
            json.dumps(verdict_jsonable(isomorphic_verdict())),
            json.dumps(verdict_jsonable(decide_isomorphic(
                one_relator(parse_word("aabb")), one_relator(parse_word("abab")),
                PARAMS))),
        ]
        rng = random.Random(5153)
        for run in range(300):
            doc = json.loads(originals[run % 2])
            mutations = mutate_document(doc, rng)
            try:
                v = verdict_from_jsonable(doc)
            except ValueError:
                continue
            except Exception as exc:
                pytest.fail(f"run {run} {mutations}: {exc!r}")
            assert v.kind in (ISOMORPHIC, NOT_ISOMORPHIC, INAPPLICABLE), (run, mutations)
            assert (v.kind == ISOMORPHIC) == (v.certificate is not None), (run, mutations)
            assert v.reason is None or isinstance(v.reason, str), (run, mutations)

    def test_serialization_stable(self):
        r = minimal_relator(11)
        v = decide_isomorphic(one_relator(r), one_relator(r), PARAMS,
                              assume_in_class=True)
        once = json.dumps(verdict_jsonable(v), sort_keys=True)
        again = json.dumps(
            verdict_jsonable(verdict_from_jsonable(json.loads(once))),
            sort_keys=True,
        )
        assert once == again