"""Tests for labeled graphs: folding, basis witnesses, arcs, moves."""

import json
import os
import pathlib
import random
import subprocess
import sys

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfold.fgraph import (
    FGraph,
    Path,
    apply_AO,
    arc_owner,
    bouquet,
    fold_all,
    is_alphabet_bouquet,
    remove_degree_one,
)
from relfold.words import concat, free_reduce, inverse, signed_letters, substitute
from oracles import oracle_arc_partition, oracle_fold, oracle_fold_all, oracle_strip
from test_acceptance import grown_scrambled_tuple


def assert_free_witnesses(rec):
    """Both witness directions hold in the free group (Fold/R only)."""
    c = rec.conjugator
    for j, w in enumerate(rec.post_in_pre):
        expected = concat(inverse(c), substitute(w, rec.pre_basis), c)
        assert rec.post_basis[j] == expected
    for i, w in enumerate(rec.pre_in_post):
        expected = concat(c, substitute(w, rec.post_basis), inverse(c))
        assert rec.pre_basis[i] == expected


class TestConstruction:
    def test_bouquet_two_words(self):
        g = bouquet([(1, 2), (2,)])
        assert g.num_vertices() == 2
        assert g.num_edges() == 3
        assert g.base == 0
        assert g.rank() == 2

    def test_bouquet_commutator_and_letter(self):
        g = bouquet([(1, 2, -1, -2), (1,)])
        assert g.num_vertices() == 4
        assert g.num_edges() == 5
        assert g.rank() == 2

    def test_bouquet_rejects_empty_word(self):
        with pytest.raises(ValueError):
            bouquet([(1, 2), ()])

    def test_bouquet_traces_its_words(self):
        g = bouquet([(1,), (2,)])
        assert g.is_folded()
        for w in [(1,), (2,), (1, 2, -1, -2)]:
            p = g.trace_word(g.base, w)
            assert p is not None
            assert g.path_end(p) == g.base
            assert g.path_label(p) == free_reduce(w)

    def test_edge_labels_positive(self):
        g = FGraph()
        v = g.add_vertex()
        with pytest.raises(ValueError):
            g.add_edge(v, v, -1)
        with pytest.raises(ValueError):
            g.add_edge(v, v, 0)

    def test_alphabet_bouquet_recognizer(self):
        assert is_alphabet_bouquet(bouquet([(1,), (2,)]), 2)
        assert not is_alphabet_bouquet(bouquet([(1,), (2,)]), 3)
        assert not is_alphabet_bouquet(bouquet([(1,), (1,)]), 2)
        assert not is_alphabet_bouquet(bouquet([(1, 2)]), 2)


class TestPaths:
    def test_path_end_checks_consecutive(self):
        g = bouquet([(1, 2)])
        # edge 0 runs base->1, edge 1 runs 1->base; stepping edge 1 twice breaks
        with pytest.raises(ValueError):
            g.path_end(Path(0, ((1, 1), (1, 1))))

    def test_path_label_reduces(self):
        g = bouquet([(1,)])
        p = Path(0, ((0, 1), (0, -1)))
        assert g.path_letters(p) == (1, -1)
        assert g.path_label(p) == ()
        assert not g.path_is_reduced(p)

    def test_trace_word_absent(self):
        g = bouquet([(1, 2)])
        records = fold_all(g)
        assert records == []  # a single cyclically reduced word is folded
        assert g.trace_word(g.base, (1, 1)) is None
        assert g.trace_word(g.base, (2,)) is None  # base has no b-edge out


class TestFreeBasis:
    def test_theta_graph_basis(self):
        # two vertices joined by three edges labeled a, b, c
        g = FGraph.from_edges([(0, 1, 1), (0, 1, 2), (0, 1, 3)], base=0)
        assert g.rank() == 2
        assert g.free_basis() == ((2, -1), (3, -1))

    def test_alphabet_bouquet_basis_is_alphabet(self):
        g = bouquet([(2,), (1,), (3,)])
        assert g.free_basis() == ((1,), (2,), (3,))

    def test_basis_requires_connected(self):
        g = FGraph()
        g.add_vertex()
        g.add_vertex()
        g.base = 0
        with pytest.raises(ValueError):
            g.free_basis()

    def test_basis_labels_are_reduced_loops(self):
        rng = random.Random(200)
        for _ in range(30):
            ws = []
            for _ in range(rng.randrange(1, 4)):
                w = free_reduce([rng.choice([1, -1, 2, -2])
                                 for _ in range(rng.randrange(1, 8))])
                if w:
                    ws.append(w)
            if not ws:
                continue
            g = bouquet(ws)
            parent, nontree, loops, labels = g.basis_data()
            assert len(labels) == g.rank()
            for p, lbl in zip(loops, labels):
                assert p.start == g.base
                assert g.path_end(p) == g.base
                assert g.path_is_reduced(p)
                assert g.path_label(p) == lbl


class TestFolding:
    def test_fold_two_equal_loops(self):
        g = bouquet([(1,), (1,)])
        records = fold_all(g)
        assert len(records) == 1
        assert g.num_edges() == 1
        assert g.num_vertices() == 1
        assert g.rank() == 1
        assert_free_witnesses(records[0])

    def test_fold_duplicate_word(self):
        g = bouquet([(1, 2), (1, 2)])
        [rec] = fold_all(g)
        assert rec.kind == "Fold"
        assert rec.detail == {"moves": 2, "rank_drops": 1}
        assert g.num_edges() == 2
        assert g.num_vertices() == 2
        assert g.rank() == 1
        assert g.free_basis() == ((1, 2),)
        assert_free_witnesses(rec)

    def test_fold_wedge_generates_whole_group(self):
        # <ab, b> = <a, b>: folding reaches the alphabet bouquet
        g = bouquet([(1, 2), (2,)])
        records = fold_all(g)
        assert len(records) == 1
        assert is_alphabet_bouquet(g, 2)
        assert g.free_basis() == ((1,), (2,))

    def test_fold_decrements_edges_by_one(self):
        # one phase record; each of its folds removes exactly one edge
        g = bouquet([(1, 2, 1), (1, 2)])
        e0 = g.num_edges()
        [rec] = fold_all(g)
        assert rec.detail["moves"] > 1
        assert g.num_edges() == e0 - rec.detail["moves"]
        assert g.is_folded()

    def test_fold_requires_base(self):
        g = FGraph.from_edges([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(ValueError):
            fold_all(g)

    def test_fold_merging_the_base(self):
        # conflict at vertex 2 merges vertices 0 and 1; the base is 1
        g = FGraph()
        for _ in range(4):
            g.add_vertex()
        g.add_edge(2, 0, 1)
        g.add_edge(2, 1, 1)
        g.add_edge(0, 3, 2)
        g.add_edge(1, 3, 3)
        g.base = 1
        records = fold_all(g)
        assert len(records) == 1
        assert g.base == 0
        assert g.vertices == {0, 2, 3}
        assert g.edges == {0: (2, 0, 1), 2: (0, 3, 2), 3: (0, 3, 3)}
        assert g.is_folded()
        assert_free_witnesses(records[0])

    def test_folded_graph_still_traces_inputs(self):
        rng = random.Random(201)
        for _ in range(40):
            ws = []
            for _ in range(rng.randrange(1, 4)):
                w = free_reduce([rng.choice([1, -1, 2, -2, 3, -3])
                                 for _ in range(rng.randrange(1, 10))])
                if w:
                    ws.append(w)
            if not ws:
                continue
            g = bouquet(ws)
            records = fold_all(g)
            assert g.is_folded()
            assert g.rank() <= len(ws)
            for w in ws:
                p = g.trace_word(g.base, w)
                assert p is not None and g.path_end(p) == g.base
            for rec in records:
                assert_free_witnesses(rec)


@st.composite
def bouquet_words(draw):
    """One to three nontrivial reduced words over a, b, c; with a
    product of two of them appended half the time, so the bouquet's rank
    drops on folding."""
    letters = st.sampled_from([1, -1, 2, -2, 3, -3])
    word = st.lists(letters, min_size=1, max_size=8).map(free_reduce).filter(bool)
    ws = draw(st.lists(word, min_size=1, max_size=3))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(ws) - 1)), draw(st.integers(0, len(ws) - 1))
        product = concat(ws[i], ws[j] if draw(st.booleans()) else inverse(ws[j]))
        if product:
            ws.append(product)
    return ws


def assert_fold_matches_record_oracle(ws):
    """``fold_all`` leaves the graph and writes the record, every field of
    it, that ``oracle_fold_all``'s letter-by-letter folding does."""
    g, h = bouquet(ws), bouquet(ws)
    records, expected = fold_all(g), oracle_fold_all(h)
    assert g.dump() == h.dump()
    # dataclass equality: both bases, both witness directions, detail
    assert records == expected


class TestPhases:
    """One record per fold phase and per strip phase, checked against the
    one-move-at-a-time oracles of ``tests/oracles.py``, and each Fold
    record against ``oracle_fold_all``."""

    @settings(max_examples=300, deadline=None)
    @given(bouquet_words())
    def test_phase_graphs_match_pairwise_oracle(self, ws):
        g, h = bouquet(ws), bouquet(ws)
        rank = g.rank()
        records = fold_all(g)
        folds = oracle_fold(h)
        assert g.dump() == h.dump()
        assert len(records) == (1 if folds else 0)
        if folds:
            assert records[0].detail["moves"] == folds
            assert records[0].detail["rank_drops"] == rank - g.rank()
        strips = remove_degree_one(g)
        hops = oracle_strip(h)
        assert g.dump() == h.dump()
        assert len(strips) <= 1
        if strips:
            assert strips[0].conjugator == free_reduce(hops)
        for rec in records + strips:
            assert_free_witnesses(rec)
        # the appended products drop the rank, where witness words
        # depend on the fold order
        assert_fold_matches_record_oracle(ws)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_scrambled_fold_records_match_oracle(self, m, seed):
        ws = grown_scrambled_tuple(random.Random(f"fgraph/fold/{m}/{seed}"), m, 100)
        assert_fold_matches_record_oracle(ws)

    def test_long_hanging_path_strips_in_one_record(self):
        # a 2000-edge path from the base to a loop: the base walks the
        # whole path, so the conjugator is the path label
        n = 2000
        path = [(i, i + 1, 1 + i % 2) for i in range(n)]
        g = FGraph.from_edges(path + [(n, n, 3)], base=0)
        t0 = time.perf_counter()
        [rec] = remove_degree_one(g)
        elapsed = time.perf_counter() - t0
        assert rec.conjugator == tuple(1 + i % 2 for i in range(n))
        assert rec.detail["moves"] == n
        assert g.vertices == {n} and g.base == n
        assert g.free_basis() == ((3,),)
        assert_free_witnesses(rec)
        assert elapsed < 0.5, elapsed


class TestDegreeOneRemoval:
    def test_strip_hanging_path_moving_base(self):
        # path 0 -a-> 1 -b-> 2 with base at 0: base hops twice, conjugator ab
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 2)], base=0)
        [rec] = remove_degree_one(g)
        assert rec.kind == "R"
        assert rec.detail["moves"] == 2
        assert g.vertices == {2} and g.base == 2
        assert g.num_edges() == 0
        assert rec.conjugator == (1, 2)
        assert_free_witnesses(rec)

    def test_strip_hanging_edge_keeping_base(self):
        g = FGraph.from_edges([(0, 0, 1), (0, 1, 2)], base=0)
        records = remove_degree_one(g)
        assert len(records) == 1
        assert records[0].conjugator == ()
        assert g.free_basis() == ((1,),)
        assert records[0].pre_basis == ((1,),)
        assert records[0].post_basis == ((1,),)

    def test_conjugator_sign_for_inward_edge(self):
        # edge points into the base leaf: hopping reads the inverse letter
        g = FGraph.from_edges([(1, 0, 1), (1, 1, 2)], base=0)
        records = remove_degree_one(g)
        assert len(records) == 1
        assert records[0].conjugator == (-1,)
        assert g.base == 1
        assert_free_witnesses(records[0])

    def test_accumulated_conjugator_relates_bases(self):
        # hanging path into a loop: old-base loops are conjugates of new
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 2), (2, 2, 3)], base=0)
        pre_basis = g.free_basis()
        records = remove_degree_one(g)
        conj = concat(*[rec.conjugator for rec in records])
        assert conj == (1, 2)
        post_basis = g.free_basis()
        assert len(pre_basis) == len(post_basis) == 1
        assert post_basis[0] == concat(inverse(conj), pre_basis[0], conj)

    def test_no_leaves_no_records(self):
        g = bouquet([(1, 2)])
        assert remove_degree_one(g) == []


def arc_groups(g):
    """The edge sets that ``arc_owner`` puts under one owner."""
    groups = {}
    for e, a in arc_owner(g).items():
        groups.setdefault(a, set()).add(e)
    return {frozenset(s) for s in groups.values()}


def group_sizes(g):
    return sorted(len(s) for s in arc_groups(g))


class TestArcs:
    def test_theta_three_open_arcs(self):
        g = FGraph.from_edges([(0, 1, 1), (0, 1, 2), (0, 1, 3)], base=0)
        assert group_sizes(g) == [1, 1, 1]

    def test_wedge_two_closed_arcs(self):
        g = bouquet([(1,), (2,)])
        assert group_sizes(g) == [1, 1]

    def test_dumbbell_three_arcs(self):
        g = FGraph.from_edges([(0, 0, 1), (1, 1, 1), (0, 1, 2)], base=0)
        assert group_sizes(g) == [1, 1, 1]

    def test_lone_cycle_single_closed_arc(self):
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
        assert group_sizes(g) == [3]

    def test_subdivided_wedge_arcs(self):
        # wedge of a length-3 cycle and a loop at the junction
        g = bouquet([(1, 2, 1), (2,)])
        assert group_sizes(g) == [1, 3]

    def test_arcs_cover_all_edges_once(self):
        rng = random.Random(202)
        for _ in range(30):
            ws = [free_reduce([rng.choice([1, -1, 2, -2])
                               for _ in range(rng.randrange(1, 7))])
                  for _ in range(rng.randrange(1, 4))]
            ws = [w for w in ws if w]
            if not ws:
                continue
            g = bouquet(ws)
            fold_all(g)
            remove_degree_one(g)
            if g.num_edges() == 0:
                continue
            assert sorted(arc_owner(g)) == sorted(g.edges)
            assert sum(group_sizes(g)) == g.num_edges()

    def test_rejects_degree_one(self):
        g = FGraph.from_edges([(0, 1, 1)], base=0)
        with pytest.raises(ValueError):
            arc_owner(g)

    def test_matches_walk_oracle(self):
        rng = random.Random(203)
        graphs = 0
        while graphs < 400:
            m = rng.choice([2, 3])
            ws = [free_reduce([rng.choice(signed_letters(m)) for _ in range(rng.randrange(1, 9))])
                  for _ in range(rng.randrange(1, 4))]
            ws = [w for w in ws if w]
            if not ws:
                continue
            g = bouquet(ws)
            fold_all(g)
            remove_degree_one(g)
            if g.num_edges() == 0:
                continue
            assert arc_groups(g) == oracle_arc_partition(g), ws
            graphs += 1
        for n in range(1, 40):  # lone cycles, edges in random directions
            ends = [(i, (i + 1) % n)[::rng.choice([1, -1])] for i in range(n)]
            g = FGraph.from_edges([(o, t, rng.randrange(1, 4)) for o, t in ends], base=0)
            assert arc_groups(g) == oracle_arc_partition(g) == {frozenset(g.edges)}


class TestAO:
    def build_cycle_with_chord(self):
        # 0 -a-> 1 -a-> 2 with a direct b-edge 0 -b-> 2; base 0
        return FGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 2)], base=0)

    def test_ao_replaces_long_path_with_short_edge(self):
        g = self.build_cycle_with_chord()
        # relation: aa = b, i.e. label(p') * y = aab^-1 = 1 with y = b^-1
        rec = apply_AO(g, Path(0, ((0, 1), (1, 1))), 0, 2, (-2,))
        assert g.num_edges() == 2
        assert g.num_vertices() == 2
        assert g.rank() == 1
        assert rec.detail["removed_edges"] == (0, 1)
        assert rec.detail["removed_vertices"] == (1,)
        # both surviving edges run 0->2 with label b
        assert sorted(g.edges.values()) == [(0, 2, 2), (0, 2, 2)]
        # pre basis aab^-1 maps to the trivial post word and back
        assert rec.pre_basis == ((1, 1, -2),)
        assert rec.post_basis == ((),)
        assert rec.pre_in_post == ((1,),)
        assert rec.post_in_pre == ((1,),)

    def test_ao_empty_y_closed_path_drops_rank(self):
        # two loops at the base reading a and a (unfolded): removing one
        # entire loop via the relation a * a^-1 = 1 is an AO with empty y
        g = FGraph.from_edges([(0, 1, 1), (1, 0, 2), (0, 2, 1), (2, 0, 2)],
                              base=0)
        rank_pre = g.rank()
        # closed composite: the first loop, then the removed second loop
        rec = apply_AO(g, Path(0, ((0, 1), (1, 1), (2, 1), (3, 1))), 2, 4, ())
        assert g.rank() == rank_pre - 1
        assert g.num_edges() == 2
        assert g.edges == {0: (0, 1, 1), 1: (1, 0, 2)}  # nothing attached
        assert g.vertices == {0, 1}
        assert rec.detail["removed_vertices"] == (2,)

    @pytest.mark.parametrize("span", [(0, 0), (1, 1), (2, 1), (-1, 2), (0, 3)])
    def test_ao_requires_nonempty_span_of_the_path(self, span):
        g = self.build_cycle_with_chord()
        with pytest.raises(ValueError):
            apply_AO(g, Path(0, ((0, 1), (1, 1))), *span, ())
        assert len(g.edges) == 3

    def test_ao_requires_shortening(self):
        g = self.build_cycle_with_chord()
        with pytest.raises(ValueError):
            apply_AO(g, Path(0, ((0, 1),)), 0, 1, (1,))

    def test_ao_empty_y_needs_closed_path(self):
        g = self.build_cycle_with_chord()
        with pytest.raises(ValueError):
            apply_AO(g, Path(0, ((0, 1), (1, 1))), 0, 2, ())

    def test_ao_protects_base_interior(self):
        g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 2)], base=1)
        with pytest.raises(ValueError):
            apply_AO(g, Path(0, ((0, 1), (1, 1))), 0, 2, (-2,))

    def test_ao_removed_path_must_be_inside_one_arc(self):
        g = bouquet([(1,), (2,)])
        with pytest.raises(ValueError):
            apply_AO(g, Path(0, ((0, 1), (1, 1))), 0, 2, (1,))

    def test_ao_edge_count_change(self):
        # replace a three-edge run by a two-letter word
        g = FGraph.from_edges(
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 2)], base=0)
        rec = apply_AO(g, Path(0, ((0, 1), (1, 1), (2, 1))), 0, 3, (-2, -2))
        assert g.num_edges() == 4 - 3 + 2
        assert g.rank() == 1
        # the b^-1 b^-1 bypass runs 3 -> 4 -> 0 on two fresh edges
        assert g.edges == {3: (0, 3, 2), 4: (4, 3, 2), 5: (0, 4, 2)}
        assert rec.detail["removed_vertices"] == (1, 2)


# Feeds the shared move-record routine correct lifts, a lift that yields a
# wrong basis word, and a wrong rank change; collects what each raises.
POSTCHECK_PROBE = """
from relfold.fgraph import _record, _walk_lift, bouquet


def postcheck_errors():
    out = []
    for lift_post, rank_change in ((lambda s: s, 0), (lambda s: (), 0), (lambda s: s, 1)):
        g = bouquet([(1,), (2,)])
        try:
            _record("Fold", g, g.basis_data(), _walk_lift(lift_post),
                    _walk_lift(lambda s: s), rank_change, detail={})
            out.append(None)
        except RuntimeError as exc:
            out.append(str(exc))
    return out
"""


class TestMoveRecordPostconditions:
    def check(self, errors):
        ok, wrong_word, wrong_rank = errors
        assert ok is None
        assert "basis witness" in wrong_word
        assert "rank" in wrong_rank

    def test_wrong_lift_and_rank_raise(self):
        namespace = {}
        exec(POSTCHECK_PROBE, namespace)
        self.check(namespace["postcheck_errors"]())

    def test_checks_survive_optimize_flag(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = POSTCHECK_PROBE + (
            "\nimport json\nprint(json.dumps([__debug__, postcheck_errors()]))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        debug, errors = json.loads(proc.stdout)
        assert debug is False  # asserts really are stripped in the child
        self.check(errors)
