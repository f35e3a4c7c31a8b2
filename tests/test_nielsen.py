"""Tests for the tuple-reduction driver and its certificates."""

import dataclasses
import json
import pathlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from relfold import codec, nielsen
from relfold.codec import trace_from_jsonable, trace_jsonable, witness_jsonable
from relfold.fgraph import FGraph, Path, bouquet, fold_all, initial_basis, remove_degree_one
from relfold.genericity import ClassParams, default_params
from relfold.nielsen import (
    CERTIFIED_FREE,
    NOT_IN_CLASS,
    WHOLE_GROUP,
    C3Witness,
    reduce_tuple,
    rank_guard,
    verify_trace,
    verify_witness,
    witness_graph,
)
from relfold.smallcancel import (
    Presentation,
    check_Cprime,
    dehn_reduce,
    find_long_relator_path,
    is_equal_in_G,
)
from relfold.words import (
    Alphabet,
    concat,
    free_reduce,
    inverse,
    is_proper_power,
    parse_word,
    random_cyclically_reduced,
    substitute,
    substitute_all,
)
from oracles import mutate_document, oracle_substitute, witness_from_jsonable
from test_acceptance import grown_scrambled_tuple

A2 = Alphabet(2)
PARAMS = ClassParams(Fraction(1, 33), Fraction(1, 1), 2)


@lru_cache(maxsize=None)
def fixture_presentation(seed: int = 4242, length: int = 300) -> Presentation:
    """A one-relator presentation passing the class prechecks at PARAMS."""
    rng = random.Random(seed)
    while True:
        r = random_cyclically_reduced(2, length, rng)
        if is_proper_power(r):
            continue
        p = Presentation(A2, (r,))
        if check_Cprime(p, PARAMS.lam).ok:
            return p


def scrambled_tuple(rng: random.Random, m: int, moves: int = 10, conj: int = 8):
    """A basis of the free group: elementary moves on (a_1..a_m), conjugated."""
    tpl = [(i,) for i in range(1, m + 1)]
    for _ in range(moves):
        kind = rng.randrange(3)
        i = rng.randrange(m)
        if kind == 0:
            tpl[i] = inverse(tpl[i])
        else:
            j = rng.choice([k for k in range(m) if k != i])
            other = tpl[j] if kind == 1 else inverse(tpl[j])
            w = free_reduce(concat(tpl[i], other))
            if w:
                tpl[i] = w
    c = tuple(rng.choice([1, -1, 2, -2]) for _ in range(conj))
    return tuple(free_reduce(concat(c, w, inverse(c))) for w in tpl)


class TestInputValidation:
    def test_wrong_arity(self):
        p = fixture_presentation()
        with pytest.raises(ValueError, match="wrong arity"):
            reduce_tuple(((1,),), p, PARAMS)
        with pytest.raises(ValueError, match="wrong arity"):
            reduce_tuple(((1,), (2,), (1, 2)), p, PARAMS)

    def test_trivial_entry(self):
        p = fixture_presentation()
        with pytest.raises(ValueError, match="trivial word"):
            reduce_tuple(((1, -1), (2,)), p, PARAMS)

    def test_foreign_letter(self):
        p = fixture_presentation()
        with pytest.raises(ValueError):
            reduce_tuple(((3,), (2,)), p, PARAMS)

    def test_invalid_params(self):
        p = fixture_presentation()
        bad = ClassParams(Fraction(1, 6), Fraction(1, 1), 2)
        with pytest.raises(ValueError, match="class parameters"):
            reduce_tuple(((1,), (2,)), p, bad)

    def test_entries_are_free_reduced_first(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("abBA") + (1,), (2,)), p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert v.trace.initial_tuple == ((1,), (2,))


class TestPrechecks:
    def test_proper_power_relator(self):
        p = Presentation(A2, (parse_word("abab"),))
        v = reduce_tuple(((1,), (2,)), p, PARAMS)
        assert v.kind == NOT_IN_CLASS and v.condition == "C2"
        assert v.powers[0].is_power
        assert v.powers[0].root == parse_word("ab")
        assert v.powers[0].exponent == 2
        assert v.trace is None and v.witness is None

    def test_piece_bound_failure(self):
        p = Presentation(A2, (parse_word("aabb"),))
        v = reduce_tuple(((1,), (2,)), p, PARAMS)
        assert v.kind == NOT_IN_CLASS and v.condition == "C1"
        assert not v.cprime.ok
        assert v.cprime.ratio > PARAMS.lam

    def test_power_precedes_piece_bound(self):
        # (ab)^2 fails both conditions; the power verdict wins.
        p = Presentation(A2, (parse_word("abab"),))
        v = reduce_tuple(((1,), (2,)), p, ClassParams(Fraction(1, 63), Fraction(1, 2), 2))
        assert v.condition == "C2"


class TestWholeGroup:
    def test_alphabet_tuple_is_immediate(self):
        p = fixture_presentation()
        v = reduce_tuple(((1,), (2,)), p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert v.trace.steps == ()
        assert v.trace.final_tuple == ((1,), (2,))
        assert v.trace.conjugator == ()
        assert verify_trace(v.trace, p)

    def test_conjugate_entry_folds_away(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("baB"), (2,)), p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert all(rec.kind != "AO" for rec, _ in v.trace.steps)
        assert v.trace.final_tuple == ((1,), (2,))
        assert verify_trace(v.trace, p)

    def test_inverted_entry_gets_signed_arrangement(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("aB"), (2,)), p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert verify_trace(v.trace, p)

    def test_scrambled_bases_round_trip(self):
        p = fixture_presentation()
        for k in range(12):
            tpl = scrambled_tuple(random.Random(1000 + k), 2)
            v = reduce_tuple(tpl, p, PARAMS)
            assert v.kind == WHOLE_GROUP, tpl
            assert v.trace.final_tuple == ((1,), (2,))
            assert verify_trace(v.trace, p)

    def test_deterministic_traces(self):
        p = fixture_presentation()
        tpl = scrambled_tuple(random.Random(99), 2)
        a = trace_jsonable(reduce_tuple(tpl, p, PARAMS).trace)
        b = trace_jsonable(reduce_tuple(tpl, p, PARAMS).trace)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCostGuards:
    """Call counts, not wall-clock times: ``FGraph.basis_data`` builds a
    spanning tree and every basis label, so each graph state gets one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"basis": 0}
        basis_data = FGraph.basis_data

        def counted_basis_data(g):
            counts["basis"] += 1
            return basis_data(g)

        monkeypatch.setattr(FGraph, "basis_data", counted_basis_data)
        return counts

    def test_one_phase_reduction_reads_two_bases(self, calls):
        # the Fold record's pre- and post-phase bases; the arrangement and
        # the final tuple are read off the record
        p = fixture_presentation()
        v = reduce_tuple(grown_scrambled_tuple(random.Random(24), 2, 100), p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert [rec.kind for rec, _ in v.trace.steps] == ["Fold"]
        assert calls["basis"] == 2
        assert verify_trace(v.trace, p)

    @pytest.mark.parametrize("text, arrangement", [("b A", (-2, 1)), ("B a", (2, -1))])
    def test_record_less_trace_reads_one_basis(self, calls, text, arrangement):
        # an alphabet bouquet up to order and sign folds nothing and has no
        # record, so its one basis gives the arrangement and the final tuple
        p = fixture_presentation()
        v = reduce_tuple(tuple(parse_word(w) for w in text.split()), p, PARAMS)
        assert v.kind == WHOLE_GROUP and v.trace.steps == ()
        assert v.trace.initial_arrangement == arrangement
        assert v.trace.final_tuple == ((1,), (2,))
        assert calls["basis"] == 1
        assert verify_trace(v.trace, p)


class TestSurgery:
    def test_relator_laden_entry_fires_surgery(self):
        p = fixture_presentation()
        r = p.relators[0]
        tpl = (free_reduce(concat(r, (1,))), (2,))
        v = reduce_tuple(tpl, p, PARAMS)
        assert v.kind == WHOLE_GROUP
        kinds = [rec.kind for rec, _ in v.trace.steps]
        assert "AO" in kinds
        assert verify_trace(v.trace, p)
        # the loaded entry really equals the bare generator in the group
        assert dehn_reduce(free_reduce(concat(inverse((1,)), tpl[0])), p) == ()

    def test_conjugated_relator_entry(self):
        p = fixture_presentation()
        r = p.relators[0]
        tpl = (
            free_reduce(concat((2,), r, (-2,), (1,))),
            (2,),
        )
        v = reduce_tuple(tpl, p, PARAMS)
        assert v.kind == WHOLE_GROUP
        assert any(rec.kind == "AO" for rec, _ in v.trace.steps)
        assert verify_trace(v.trace, p)

    def test_surgery_records_check_in_group_only(self):
        # AO witness words relate bases in the group, not freely.
        p = fixture_presentation()
        r = p.relators[0]
        tpl = (free_reduce(concat(r, (1,))), (2,))
        v = reduce_tuple(tpl, p, PARAMS)
        ao = next(rec for rec, _ in v.trace.steps if rec.kind == "AO")
        free_sides = [
            substitute(u, ao.pre_basis) == ao.post_basis[j]
            for j, u in enumerate(ao.post_in_pre)
        ]
        assert not all(free_sides)


class TestCertifiedFree:
    def test_wedge_of_two_products(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("ab"), parse_word("ba")), p, PARAMS)
        assert v.kind == CERTIFIED_FREE
        assert v.rank == 2
        assert set(v.basis) == {parse_word("ab"), parse_word("ba")}
        assert "injective" in v.reason
        assert v.trace is None

    def test_rank_collapse(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("abA"), parse_word("abbA")), p, PARAMS)
        assert v.kind == CERTIFIED_FREE
        assert v.rank == 1
        assert v.basis == ((2,),)

    def test_soundness_no_trivial_basis_products(self):
        # Short products of the certified basis must be nontrivial in G.
        p = fixture_presentation()
        v = reduce_tuple((parse_word("ab"), parse_word("ba")), p, PARAMS)
        symbols = [1, -1, 2, -2]
        words = [(s,) for s in symbols]
        for _ in range(2):
            words = [
                w + (s,)
                for w in words
                for s in symbols
                if s != -w[-1]
            ]
            for w in words:
                image = free_reduce(substitute(w, v.basis))
                assert image
                assert dehn_reduce(image, p)


class TestBaseRelocation:
    def build_two_junction_graph(self):
        # base of degree two on an arc between two degree-three vertices
        g = FGraph.from_edges(
            [(0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 1, 2)], base=0
        )
        assert g.is_folded()
        assert g.degree(0) == 2
        return g

    def test_hop_moves_base_to_junction(self):
        g = self.build_two_junction_graph()
        rec = nielsen._hop_base(g)
        assert rec is not None
        assert rec.detail.get("base_hop") is True
        assert g.base == 1
        assert rec.conjugator == (1,)
        assert g.degree(g.base) == 3

    def test_hop_relations_replay_freely(self):
        g = self.build_two_junction_graph()
        rec = nielsen._hop_base(g)
        c = rec.conjugator
        for j, u in enumerate(rec.post_in_pre):
            assert substitute(u, rec.pre_basis) == free_reduce(
                concat(c, rec.post_basis[j], inverse(c))
            )
        for i, u in enumerate(rec.pre_in_post):
            assert substitute(u, rec.post_basis) == free_reduce(
                concat(inverse(c), rec.pre_basis[i], c)
            )

    def test_no_hop_on_junction_base(self):
        g = bouquet(((1,), (2,)))
        assert nielsen._hop_base(g) is None

    def test_no_hop_on_lone_cycle(self):
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
        assert nielsen._hop_base(g) is None

    def test_driver_handles_degree_two_base(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("abA"), parse_word("Bab")), p, PARAMS)
        assert v.kind == CERTIFIED_FREE
        assert v.rank == 2


class TestRankGuard:
    def test_bouquet_is_consistent(self):
        g = bouquet(((1,), (2,)))
        assert rank_guard(g, 2) is None

    def test_saturated_double_cover_is_consistent(self):
        g = FGraph.from_edges(
            [(0, 1, 1), (1, 0, 1), (0, 1, 2), (1, 0, 2)], base=0
        )
        assert all(g.degree(v) == 4 for v in g.vertices)
        assert g.rank() == 3
        assert rank_guard(g, 2) is None

    def test_unsaturated_graphs_pass(self):
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 1, 2)], base=0)
        assert rank_guard(g, 2) is None

    def test_contrapositive_on_random_folded_graphs(self):
        # Saturation forces bouquet-or-high-rank on every graph we can build.
        rng = random.Random(777)
        for _ in range(60):
            ws = tuple(
                random_cyclically_reduced(2, rng.randrange(1, 7), rng)
                for _ in range(3)
            )
            g = bouquet(ws)
            fold_all(g)
            remove_degree_one(g)
            assert rank_guard(g, 2) is None


class TestWitness:
    def wound_cycle(self):
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
        p = Presentation(A2, (tuple(parse_word("aab") * 8),))
        return g, p, default_params(2)

    def test_wound_reading_yields_witness(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        assert lrp is not None
        assert len(lrp.v) == 24 and lrp.y == ()
        out = nielsen._fire_or_witness(g, lrp, p, params)
        assert isinstance(out, C3Witness)
        assert out.edges == ((0, 1, 1), (1, 2, 1), (2, 0, 2))
        assert len(out.subword) == 24

    def test_witness_passes_readability_recheck(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        w = nielsen._fire_or_witness(g, lrp, p, params)
        assert verify_witness(w, p, params)
        wg = witness_graph(w)
        assert wg.num_edges() == 3
        assert wg.rank() == 1
        assert all(wg.degree(v) < 4 for v in wg.vertices)

    def test_tampered_witness_rejected(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        w = nielsen._fire_or_witness(g, lrp, p, params)
        short = dataclasses.replace(
            w,
            subword=w.subword[:-1],
            path=Path(w.path.start, w.path.steps[:-1]),
        )
        assert not verify_witness(short, p, params)
        wrong_relator = dataclasses.replace(w, relator_index=5)
        assert not verify_witness(wrong_relator, p, params)

    def test_malformed_witness_rejected(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        w = nielsen._fire_or_witness(g, lrp, p, params)
        n = len(p.relators[0])
        # Offsets outside the relator would wrap around in the slice.
        for offset in (n, n + 3, -n, -1, 1.5, "0"):
            assert not verify_witness(dataclasses.replace(w, offset=offset), p, params)
        assert not verify_witness(dataclasses.replace(w, relator_index="0"), p, params)
        # Against the inverted relator only sign -1 may select the inverse.
        p_inv = Presentation(A2, (inverse(p.relators[0]),))
        assert verify_witness(dataclasses.replace(w, sign=-1), p_inv, params)
        for sign in (0, -2, 2):
            assert not verify_witness(dataclasses.replace(w, sign=sign), p_inv, params)
        for label in (0, "1"):
            edges = ((0, 1, label),) + w.edges[1:]
            assert not verify_witness(dataclasses.replace(w, edges=edges), p, params)

    def test_no_eligible_window_on_wound_cycle(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        assert nielsen._select_window(g, lrp.path) is None

    def test_single_wind_full_span(self):
        # one circuit of a length-3 cycle: every edge is used exactly once
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
        path = g.trace_word(0, parse_word("aab"))
        assert nielsen._select_window(g, path) == (0, 3)

    def test_witness_json_round_trip(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        w = nielsen._fire_or_witness(g, lrp, p, params)
        data = json.loads(json.dumps(witness_jsonable(w), sort_keys=True))
        assert witness_from_jsonable(data) == w

    @pytest.mark.parametrize("path, value", [
        (("edges", 0, 2), "1"),
        (("edges", 0), [0, 1]),
        (("path", "start"), "0"),
        (("path", "steps", 0, 1), 1.0),
        (("relator_index",), "q"),
        (("sign",), 2.5),
        (("offset",), None),
        (("offset",), True),
    ])
    def test_witness_decoder_rejects_wrong_types(self, path, value):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        doc = witness_jsonable(nielsen._fire_or_witness(g, lrp, p, params))
        doc = json.loads(json.dumps(doc))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError):
            witness_from_jsonable(doc)

    def test_fuzzed_witness_never_crashes(self):
        g, p, params = self.wound_cycle()
        lrp = find_long_relator_path(g, p, params.lam)
        original = json.dumps(witness_jsonable(nielsen._fire_or_witness(g, lrp, p, params)))
        rng = random.Random(5152)
        for run in range(300):
            doc = json.loads(original)
            mutations = mutate_document(doc, rng)
            try:
                w = witness_from_jsonable(doc)
            except ValueError:
                continue
            try:
                verdict = verify_witness(w, p, params)
            except Exception as exc:
                pytest.fail(f"run {run} {mutations}: {exc!r}")
            assert verdict in (True, False), (run, mutations)


class TestVerifyTrace:
    def test_requires_small_cancellation(self):
        p = fixture_presentation()
        v = reduce_tuple(((1,), (2,)), p, PARAMS)
        loose = Presentation(A2, (parse_word("aabb"),))
        with pytest.raises(ValueError, match="C'"):
            verify_trace(v.trace, loose)

    def test_corrupted_witness_word_rejected(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("baB"), (2,)), p, PARAMS)
        steps = list(v.trace.steps)
        rec, snap = steps[0]
        bad = dataclasses.replace(
            rec,
            post_in_pre=tuple(
                tuple(u) + (1,) if j == 0 else tuple(u)
                for j, u in enumerate(rec.post_in_pre)
            ),
        )
        steps[0] = (bad, snap)
        assert not verify_trace(dataclasses.replace(v.trace, steps=tuple(steps)), p)

    def test_basis_symbol_zero_rejected(self):
        # Symbol 0 once read as the inverse of the last basis word, so
        # (1, 0) passed for the true witness (1, -2) here.
        p = fixture_presentation()
        v = reduce_tuple((parse_word("ab"), parse_word("b")), p, PARAMS)
        steps = list(v.trace.steps)
        rec, snap = steps[0]
        assert rec.kind == "Fold" and rec.post_in_pre[0] == (1, -2)
        bad = dataclasses.replace(rec, post_in_pre=((1, 0),) + rec.post_in_pre[1:])
        steps[0] = (bad, snap)
        assert verify_trace(v.trace, p)
        assert not verify_trace(dataclasses.replace(v.trace, steps=tuple(steps)), p)

    def test_fold_witness_must_hold_freely(self):
        # The last record folds onto the alphabet, so its symbols read as
        # letters: appending the relator to a witness keeps it true in G
        # but not in the free group, where Fold records must hold.
        p = fixture_presentation()
        v = reduce_tuple(scrambled_tuple(random.Random(7), 2), p, PARAMS)
        steps = list(v.trace.steps)
        rec, snap = steps[-1]
        assert rec.kind == "Fold" and snap == ((1,), (2,)) and rec.conjugator == ()
        loaded = concat(rec.pre_in_post[0], p.relators[0])
        assert is_equal_in_G(substitute(loaded, snap), rec.pre_basis[0], p)
        assert substitute(loaded, snap) != rec.pre_basis[0]
        steps[-1] = (dataclasses.replace(rec, pre_in_post=(loaded,) + rec.pre_in_post[1:]), snap)
        assert verify_trace(v.trace, p)
        assert not verify_trace(dataclasses.replace(v.trace, steps=tuple(steps)), p)

    def test_arrangement_symbol_zero_rejected(self):
        p = fixture_presentation()
        v = reduce_tuple((parse_word("ab"), parse_word("B")), p, PARAMS)
        assert v.trace.initial_arrangement == (1, -2)
        assert verify_trace(v.trace, p)
        zero = dataclasses.replace(v.trace, initial_arrangement=(1, 0))
        assert not verify_trace(zero, p)

    @pytest.mark.parametrize("bad", [0, 3, -3])
    def test_arrangement_past_the_tuple_rejected(self, bad):
        # 0 and -3 would read the last entry under Python indexing, 3 nothing
        p = fixture_presentation()
        v = reduce_tuple((parse_word("ab"), parse_word("B")), p, PARAMS)
        words = v.trace.initial_tuple
        assert initial_basis(words, (1, -2)) == (words[0], inverse(words[1]))
        with pytest.raises(ValueError, match=f"bad basis index {bad}"):
            initial_basis(words, (1, bad))
        bad_trace = dataclasses.replace(v.trace, initial_arrangement=(1, bad))
        assert not verify_trace(bad_trace, p)
        doc = trace_jsonable(bad_trace)
        with pytest.raises(ValueError, match="bad basis index"):
            trace_from_jsonable(doc)

    def test_corrupted_snapshot_rejected(self):
        p = fixture_presentation()
        r = p.relators[0]
        v = reduce_tuple((free_reduce(concat(r, (1,))), (2,)), p, PARAMS)
        steps = list(v.trace.steps)
        rec, snap = steps[-1]
        bad_snap = ((2, 1),) + tuple(snap[1:])
        steps[-1] = (dataclasses.replace(rec, post_basis=bad_snap), bad_snap)
        t = dataclasses.replace(v.trace, steps=tuple(steps))
        assert not verify_trace(t, p)

    def test_corrupted_conjugator_rejected(self):
        p = fixture_presentation()
        v = reduce_tuple(
            (free_reduce(concat((2,), (1,), (-2,))), (2,)), p, PARAMS
        )
        assert v.kind == WHOLE_GROUP
        t = dataclasses.replace(v.trace, conjugator=(1, 2))
        assert not verify_trace(t, p)

    def test_wrong_final_tuple_rejected(self):
        p = fixture_presentation()
        v = reduce_tuple(((1,), (2,)), p, PARAMS)
        t = dataclasses.replace(v.trace, final_tuple=((2,), (1,)))
        assert not verify_trace(t, p)


@lru_cache(maxsize=None)
def witness_shape_reductions() -> tuple:
    """Reductions of seeded scrambled bases of 80-120 letters, four at
    m = 2 and four at m = 3: (presentation, trace)."""
    out = []
    for m, p, params in ((2, fixture_presentation(), PARAMS),
                         (3, fixture_presentation3(), PARAMS3)):
        rng = random.Random(1700 + m)
        for target in (80, 95, 110, 120):
            v = reduce_tuple(grown_scrambled_tuple(rng, m, target), p, params)
            assert v.kind == WHOLE_GROUP
            out.append((p, v.trace))
    return tuple(out)


def frame_length(u) -> int:
    """|P| of the longest frame P·x·P⁻¹ of the letter sequence ``u``."""
    k = 0
    while k < len(u) // 2 and u[k] == -u[-1 - k]:
        k += 1
    return k


def with_record(t, i, **changes):
    """Trace ``t`` with record ``i`` replaced by a copy with ``changes``."""
    steps = list(t.steps)
    rec, snap = steps[i]
    steps[i] = (dataclasses.replace(rec, **changes), snap)
    return dataclasses.replace(t, steps=tuple(steps))


class TestWitnessEvaluation:
    """``substitute_all`` on the witness words reductions really make."""

    def test_matches_oracle_on_every_record(self):
        for _, t in witness_shape_reductions():
            for rec, _ in t.steps:
                for ws, basis in ((rec.post_in_pre, rec.pre_basis),
                                  (rec.pre_in_post, rec.post_basis)):
                    assert substitute_all(ws, basis) == [
                        oracle_substitute(u, basis) for u in ws]

    def test_most_fold_symbols_lie_in_a_frame(self):
        # The shortcut pays only if frames are common: 90% of the
        # post_in_pre symbols on the benchmark's inputs, 80% here.
        total = framed = 0
        for _, t in witness_shape_reductions():
            for rec, _ in t.steps:
                if rec.kind == "Fold":
                    for u in rec.post_in_pre:
                        total += len(u)
                        framed += 2 * frame_length(u)
        assert total > 1000
        assert framed > 0.6 * total

    def test_tampered_frame_tail_rejected(self):
        p, t = witness_shape_reductions()[0]
        i, rec = next((i, rec) for i, (rec, _) in enumerate(t.steps)
                      if rec.kind == "Fold")
        j, u = max(enumerate(rec.post_in_pre), key=lambda ju: frame_length(ju[1]))
        k = frame_length(u)
        assert k >= 4
        bad = list(u)
        bad[len(u) - 1 - k // 2] = -bad[len(u) - 1 - k // 2]
        assert frame_length(bad) < k
        words = rec.post_in_pre[:j] + (tuple(bad),) + rec.post_in_pre[j + 1:]
        assert substitute_all(words, rec.pre_basis) == [
            oracle_substitute(w, rec.pre_basis) for w in words]
        assert verify_trace(t, p)
        assert not verify_trace(with_record(t, i, post_in_pre=words), p)

    @pytest.mark.parametrize("direction", ["post_in_pre", "pre_in_post"])
    def test_bad_symbol_in_last_word_rejected(self, direction):
        # every word of a direction is evaluated before any is compared
        p, t = witness_shape_reductions()[4]
        for i, (rec, _) in enumerate(t.steps):
            ws = getattr(rec, direction)
            basis = rec.pre_basis if direction == "post_in_pre" else rec.post_basis
            for bad in (0, len(basis) + 1, -len(basis) - 1):
                last = ws[-1] + (bad,)
                tampered = with_record(t, i, **{direction: ws[:-1] + (last,)})
                assert not verify_trace(tampered, p)


class TestTraceSerialization:
    def test_round_trip_verifies(self):
        p = fixture_presentation()
        r = p.relators[0]
        tpl = (free_reduce(concat(r, (1,))), (2,))
        t = reduce_tuple(tpl, p, PARAMS).trace
        data = json.loads(json.dumps(trace_jsonable(t), sort_keys=True))
        rebuilt = trace_from_jsonable(data)
        assert rebuilt.initial_tuple == t.initial_tuple
        assert rebuilt.final_tuple == t.final_tuple
        assert rebuilt.conjugator == t.conjugator
        assert verify_trace(rebuilt, p)

    @pytest.mark.parametrize("data", [
        [],
        {},
        {"initial_tuple": ["a"], "initial_arrangement": [1], "steps": "x"},
        {"initial_tuple": ["a"], "initial_arrangement": [1], "steps": [5]},
    ])
    def test_decoder_raises_only_value_error(self, data):
        with pytest.raises(ValueError):
            trace_from_jsonable(data)

    def test_serialization_is_stable(self):
        p = fixture_presentation()
        t = reduce_tuple((parse_word("baB"), (2,)), p, PARAMS).trace
        once = json.dumps(trace_jsonable(t), sort_keys=True)
        again = json.dumps(
            trace_jsonable(trace_from_jsonable(json.loads(once))), sort_keys=True
        )
        assert once == again


PINNED = pathlib.Path(__file__).with_name("nielsen_pinned.json")
PHASE_PINNED = pathlib.Path(__file__).with_name("nielsen_phase_pinned.json")
PARAMS3 = ClassParams(Fraction(1, 48), Fraction(1, 1), 3)


@lru_cache(maxsize=None)
def fixture_presentation3(seed: int = 4243, length: int = 400) -> Presentation:
    """A rank-3 one-relator presentation passing the class prechecks at PARAMS3."""
    rng = random.Random(seed)
    while True:
        r = random_cyclically_reduced(3, length, rng)
        if is_proper_power(r):
            continue
        p = Presentation(Alphabet(3), (r,))
        if check_Cprime(p, PARAMS3.lam).ok:
            return p


def pinned_cases():
    """The fixed reductions of :class:`TestPinnedTraces`: (name,
    presentation, params, tuple).  At m = 2: two scrambled bases, the
    relator-carrying tuples (r·a, b) and (b·r·b⁻¹·a, b), and their
    conjugate (c·r·a·c⁻¹, c·b·c⁻¹), whose reduction strips leaves and
    hops the base.  At m = 3: one scrambled basis.  Last, one
    CertifiedFree tuple."""
    p = fixture_presentation()
    r = p.relators[0]
    c = parse_word("bbaa")
    return [
        ("scrambled/2/7", p, PARAMS, scrambled_tuple(random.Random(7), 2)),
        ("scrambled/2/31", p, PARAMS, scrambled_tuple(random.Random(31), 2)),
        ("relator", p, PARAMS, (free_reduce(concat(r, (1,))), (2,))),
        ("conjugated-relator", p, PARAMS,
         (free_reduce(concat((2,), r, (-2,), (1,))), (2,))),
        ("conjugated-tuple", p, PARAMS,
         (free_reduce(concat(c, r, (1,), inverse(c))), free_reduce(concat(c, (2,), inverse(c))))),
        ("scrambled/3/11", fixture_presentation3(), PARAMS3,
         scrambled_tuple(random.Random(11), 3)),
        ("free", p, PARAMS, (parse_word("ab"), parse_word("ba"))),
    ]


def pinned_record(name, p, params, tpl):
    """The trace document of one pinned reduction, or the ``reduce --json``
    payload when the verdict carries no trace."""
    v = reduce_tuple(tpl, p, params)
    doc = trace_jsonable(v.trace) if v.trace is not None else codec.reduction_jsonable(v)
    return {"case": name, "kind": v.kind, "document": json.loads(json.dumps(doc))}


class TestPinnedTraces:
    """``nielsen_pinned.json`` holds what the reduction driver gave on
    :func:`pinned_cases` at commit 0d381fe, one record per elementary
    move; ``nielsen_phase_pinned.json`` holds the same cases with one
    record per fold phase and per strip phase.  Both stay as recorded:
    the old per-move traces must still verify, and the reductions must
    keep their endpoints and CertifiedFree payloads.  Regenerate the
    phase file only on purpose, with ``[pinned_record(*c) for c in
    pinned_cases()]``."""

    def test_outputs_match_recording(self):
        recorded = json.loads(PINNED.read_text())
        cases = pinned_cases()
        assert [r["case"] for r in recorded] == [c[0] for c in cases]
        assert {r["kind"] for r in recorded} == {WHOLE_GROUP, CERTIFIED_FREE}
        for rec, case in zip(recorded, cases):
            now = pinned_record(*case)
            assert now["kind"] == rec["kind"], rec["case"]
            if rec["kind"] != WHOLE_GROUP:
                assert now == rec, rec["case"]
                continue
            old = rec["document"]
            assert verify_trace(trace_from_jsonable(old), case[1]), rec["case"]
            for key in ("initial_tuple", "initial_arrangement", "final_tuple", "conjugator"):
                assert now["document"][key] == old[key], (rec["case"], key)

    def test_phase_outputs_match_recording(self):
        recorded = json.loads(PHASE_PINNED.read_text())
        cases = pinned_cases()
        assert recorded == [pinned_record(*c) for c in cases]
        per_move = json.loads(PINNED.read_text())
        for rec, old, (_, p, _, _) in zip(recorded, per_move, cases):
            if rec["kind"] == WHOLE_GROUP:
                assert verify_trace(trace_from_jsonable(rec["document"]), p), rec["case"]
                kinds = [step["kind"] for step in rec["document"]["steps"]]
                assert len(kinds) < len(old["document"]["steps"]), rec["case"]
                assert ["Fold", "Fold"] not in [kinds[i:i + 2] for i in range(len(kinds))]


RELATOR_PINNED = pathlib.Path(__file__).with_name("relator_pinned.json")


@lru_cache(maxsize=None)
def class_presentation(m: int, seed: int, length: int = 1000) -> Presentation:
    """A one-relator presentation passing the class prechecks at
    ``default_params(m)``."""
    rng = random.Random(seed)
    while True:
        r = random_cyclically_reduced(m, length, rng)
        if is_proper_power(r):
            continue
        p = Presentation(Alphabet(m), (r,))
        if check_Cprime(p, default_params(m).lam).ok:
            return p


def relator_pinned_cases():
    """Reductions whose tuples carry a |r| = 1000 class relator, so the
    long-relator scan and AO surgery run: (name, presentation, params,
    tuple).  At m = 2: (r·a, b), (b·r·b⁻¹·a, b), (r·r·a, b), whose loop
    reads the relator more than once around, and (r[:960]·a, b), which
    reads 960 letters of it and ends CertifiedFree.  At m = 3:
    (r·a, b, c) and (a, c·r⁻¹·c⁻¹·b, c)."""
    p2, p3 = class_presentation(2, 1501), class_presentation(3, 1502)
    r2, r3 = p2.relators[0], p3.relators[0]
    a, b, c = (1,), (2,), (3,)
    cases = [
        ("relator/2", p2, (concat(r2, a), b)),
        ("conjugated-relator/2", p2, (concat(b, r2, inverse(b), a), b)),
        ("relator-twice/2", p2, (concat(r2, r2, a), b)),
        ("partial-relator/2", p2, (concat(r2[:960], a), b)),
        ("relator/3", p3, (concat(r3, a), b, c)),
        ("conjugated-relator/3", p3, (a, concat(c, inverse(r3), inverse(c), b), c)),
    ]
    return [(name, p, default_params(p.alphabet.m), tuple(free_reduce(w) for w in tpl))
            for name, p, tpl in cases]


def relator_pinned_text() -> str:
    return json.dumps([pinned_record(*c) for c in relator_pinned_cases()],
                      indent=1, sort_keys=True) + "\n"


class TestRelatorPinnedTraces:
    """``relator_pinned.json`` holds what the reduction driver gave on
    :func:`relator_pinned_cases` with the table scan that the anchor scan
    replaced; the documents must stay byte-identical.  Regenerate it only
    on purpose, with :func:`relator_pinned_text`."""

    def test_outputs_match_recording(self):
        assert relator_pinned_text() == RELATOR_PINNED.read_text()

    def test_recorded_traces_verify(self):
        recorded = json.loads(RELATOR_PINNED.read_text())
        kinds = {rec["case"]: rec["kind"] for rec in recorded}
        assert kinds["partial-relator/2"] == CERTIFIED_FREE
        for rec, (_, p, _, _) in zip(recorded, relator_pinned_cases()):
            if rec["kind"] == WHOLE_GROUP:
                steps = rec["document"]["steps"]
                assert "AO" in [step["kind"] for step in steps], rec["case"]
                assert verify_trace(trace_from_jsonable(rec["document"]), p), rec["case"]
