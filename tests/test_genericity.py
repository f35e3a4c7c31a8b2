"""Tests for class membership checking and genericity sampling."""

import random
from fractions import Fraction

import pytest

from relfold.codec import membership_report_jsonable, sample_table_csv, sample_table_jsonable
from relfold.genericity import (
    IN_CLASS,
    NOT_IN_CLASS,
    UNDETERMINED,
    C3Status,
    ClassParams,
    MembershipReport,
    SampleRow,
    SampleTable,
    check_membership,
    default_params,
    relevant_subwords,
    sample_genericity,
    validate_params,
)
from relfold import genericity
from relfold.smallcancel import CprimeResult, Presentation
from relfold.words import Alphabet, parse_word, random_cyclically_reduced

A2 = Alphabet(2)


def pres(*strs):
    return Presentation(A2, tuple(parse_word(s) for s in strs))


class TestClassParams:
    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            ClassParams(Fraction(0), Fraction(1, 2), 2)
        with pytest.raises(ValueError):
            ClassParams(Fraction(-1, 63), Fraction(1, 2), 2)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            ClassParams(Fraction(1, 63), Fraction(0), 2)

    def test_defaults_rank_two(self):
        p = default_params(2)
        assert (p.lam, p.mu, p.L) == (Fraction(1, 63), Fraction(1, 2), 2)
        assert validate_params(p, 2) == (True, None)

    def test_defaults_scale_with_rank(self):
        p = default_params(3)
        assert p.lam == Fraction(1, 93)
        assert validate_params(p, 3) == (True, None)

    def test_defaults_need_rank_two(self):
        with pytest.raises(ValueError):
            default_params(1)


class TestValidateParams:
    def test_equality_case_is_valid(self):
        # 1/63 equals (1/2)/(30 + 3/2) exactly.
        ok, why = validate_params(ClassParams(Fraction(1, 63), Fraction(1, 2), 2), 2)
        assert ok and why is None

    def test_lam_too_large(self):
        ok, why = validate_params(ClassParams(Fraction(1, 40), Fraction(1, 2), 2), 2)
        assert not ok
        assert why == "lam <= mu/(15*L + 3*mu)"

    def test_L_below_m_fails_middle_link(self):
        ok, why = validate_params(ClassParams(Fraction(1, 100), Fraction(1, 2), 1), 2)
        assert not ok
        assert "L >= m" in why

    def test_mu_above_one(self):
        ok, why = validate_params(ClassParams(Fraction(1, 100), Fraction(3, 2), 2), 2)
        assert not ok
        assert why == "mu <= 1"

    def test_first_violated_link_reported(self):
        # lam fails the first link before the middle link's L < m defect.
        ok, why = validate_params(ClassParams(Fraction(1, 30), Fraction(1, 2), 1), 2)
        assert not ok
        assert why == "lam <= mu/(15*L + 3*mu)"


class TestRelevantSubwords:
    def test_two_letter_relator(self):
        assert relevant_subwords((1, 2)) == ((1,), (2,), (1, 2), (2, 1))

    def test_repeated_letter_dedups(self):
        assert relevant_subwords((1, 1)) == ((1,), (1, 1))

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            relevant_subwords(())

    def test_random_relator_properties(self):
        rng = random.Random(501)
        for _ in range(40):
            t = rng.randint(1, 20)
            r = random_cyclically_reduced(2, t, rng)
            subs = relevant_subwords(r)
            assert len(subs) == len(set(subs))
            assert len(subs) <= t * ((t + 1) // 2 + 1)
            doubled = r + r
            text = " ".join(map(str, doubled))
            for w in subs:
                assert (t + 1) // 2 <= len(w) <= t
                assert " ".join(map(str, w)) in text

    def test_deterministic_order(self):
        r = parse_word("abbaab")
        assert relevant_subwords(r) == relevant_subwords(r)


class TestCheckMembership:
    def test_proper_power_reported_over_cprime(self):
        # (ab)^3 breaks both the piece bound and the power condition;
        # the power condition wins the report.
        report = check_membership(pres("ababab"), default_params(2))
        assert report.verdict == NOT_IN_CLASS
        assert report.failed_condition == "C2"
        assert not report.c1.ok
        st = report.c2[0]
        assert st.is_power and st.root == (1, 2) and st.exponent == 3
        assert report.c3 is None

    def test_piece_violation(self):
        report = check_membership(pres("aabb"), default_params(2))
        assert report.verdict == NOT_IN_CLASS
        assert report.failed_condition == "C1"
        assert report.c1.piece == (1,)
        assert report.c1.ratio == Fraction(1, 4)
        assert not any(st.is_power for st in report.c2)
        assert report.c3 is None

    def test_two_letter_relator_is_in_class(self):
        # ab has no pieces (all four one-letter windows differ), is not a
        # power, and none of its half-subwords fit inside half a budget.
        report = check_membership(pres("ab"), default_params(2))
        assert report.verdict == IN_CLASS
        assert report.failed_condition is None
        assert report.c3.complete
        assert report.c3.checked_subwords == 4
        assert report.c3.unknown_checks == 0

    def test_commutator_fails_cprime_only(self):
        report = check_membership(pres("abAB"), default_params(2))
        assert report.verdict == NOT_IN_CLASS
        assert report.failed_condition == "C1"
        assert report.c3 is None

    def test_cross_relator_piece(self):
        report = check_membership(pres("ab", "ba"), default_params(2))
        assert report.verdict == NOT_IN_CLASS
        assert report.failed_condition == "C1"
        assert len(report.c1.piece) == 1

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            check_membership(pres("ab"), ClassParams(Fraction(1, 40), Fraction(1, 2), 2))

    def test_negative_budget_raises(self):
        # rejected up front, even where C1 would answer first
        for rel in ("ab", "aabb"):
            for budget in (-1, -3):
                with pytest.raises(ValueError, match="node budget"):
                    check_membership(pres(rel), default_params(2), node_budget=budget)

    def test_instant_answers_cost_no_budget(self):
        report = check_membership(pres("ab"), default_params(2), node_budget=1)
        assert report.verdict == IN_CLASS
        assert report.c3.complete

    def test_long_relator_goes_undetermined_under_budget(self):
        rng = random.Random("membership-long")
        r = random_cyclically_reduced(2, 1000, rng)
        report = check_membership(pres_from(r), default_params(2), node_budget=300)
        assert report.verdict == UNDETERMINED
        assert report.failed_condition is None
        assert not report.c3.complete
        assert report.c3.unknown_checks >= 1

    def test_never_in_class_with_unknowns(self):
        rng = random.Random(502)
        for _ in range(5):
            r = random_cyclically_reduced(2, rng.randint(200, 600), rng)
            report = check_membership(pres_from(r), default_params(2), node_budget=200)
            if report.verdict == IN_CLASS:
                assert report.c3.complete and report.c3.unknown_checks == 0


def pres_from(r):
    return Presentation(A2, (r,))


class TestSampleGenericity:
    def test_tiny_lengths_consistent(self):
        table = sample_genericity(2, 1, [1, 2], 25, default_params(2), None, 7)
        for row in table.rows:
            assert row.samples == 25
            assert 0 <= row.pass_all <= row.pass_c3_checked <= row.pass_c2 <= row.pass_c1 <= 25
            assert 0 <= row.unknown <= 25
            if row.unknown < row.samples:
                assert row.fraction == Fraction(row.pass_all, row.samples - row.unknown)
            else:
                assert row.fraction is None

    def test_length_one_depends_only_on_c3(self):
        # One-letter relators have no pieces and are not powers; the
        # verdict is decided by half-subword readability alone.
        table = sample_genericity(2, 1, [1], 30, default_params(2), None, 11)
        row = table.rows[0]
        assert row.pass_c1 == 30
        assert row.pass_c2 == 30
        assert row.unknown == 0

    def test_same_seed_reproduces_table(self):
        a = sample_genericity(2, 1, [1, 3], 10, default_params(2), 50, 99)
        b = sample_genericity(2, 1, [1, 3], 10, default_params(2), 50, 99)
        assert a == b

    def test_seed_changes_table(self):
        a = sample_genericity(2, 1, [6], 40, default_params(2), 50, 1)
        b = sample_genericity(2, 1, [6], 40, default_params(2), 50, 2)
        # Not a hard guarantee, but 40 samples of length 6 under two seeds
        # colliding on every tally would be a determinism bug in practice.
        assert a != b or a.rows[0].pass_c1 in (0, 40)

    def test_two_relator_slots(self):
        table = sample_genericity(2, 2, [2], 15, default_params(2), None, 13)
        assert table.rows[0].samples == 15

    def test_bounded_length_regime(self):
        table = sample_genericity(
            2, 1, [3], 12, default_params(2), None, 5, exact_length=False
        )
        assert table.rows[0].samples == 12

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            sample_genericity(2, 1, [4], 5, ClassParams(Fraction(1, 40), Fraction(1, 2), 2), None, 3)

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError, match="node budget"):
            sample_genericity(2, 1, [5], 2, default_params(2), -1, 7)


class TestSerialization:
    def test_csv_shape(self):
        table = sample_genericity(2, 1, [1], 5, default_params(2), None, 21)
        text = sample_table_csv(table)
        lines = text.splitlines()
        assert lines[0] == (
            "t,samples,pass_c1,pass_c2,pass_c3_checked,pass_all,unknown,fraction_num,fraction_den"
        )
        assert len(lines) == 2
        assert text.endswith("\n")

    def test_csv_all_undetermined_sentinel(self):
        row = SampleRow(100, 4, 4, 4, 0, 0, 4, None)
        text = sample_table_csv(SampleTable((row,), None))
        assert text.splitlines()[1] == "100,4,4,4,0,0,4,0,0"

    def test_jsonable_table(self):
        table = sample_genericity(2, 1, [1], 5, default_params(2), None, 21)
        data = sample_table_jsonable(table)
        row = data["rows"][0]
        assert set(row) == {
            "t", "samples", "pass_c1", "pass_c2", "pass_c3_checked",
            "pass_all", "unknown", "fraction",
        }
        assert row["fraction"] is None or "/" in row["fraction"]

    def test_jsonable_report_shapes(self):
        report = check_membership(pres("ababab"), default_params(2))
        data = membership_report_jsonable(report)
        assert data["verdict"] == NOT_IN_CLASS
        assert data["failed_condition"] == "C2"
        assert data["C2"][0]["root"] == "ab"
        assert data["C2"][0]["exponent"] == 3
        assert data["C3"] is None

        report = check_membership(pres("ab"), default_params(2))
        data = membership_report_jsonable(report)
        assert data["verdict"] == IN_CLASS
        assert data["C1"]["ok"] is True
        assert data["C3"]["complete"] is True


class TestDecayRate:
    def test_perfect_exponential_fit(self):
        rows = tuple(
            SampleRow(t, 100, 100, 100, 90, 90, 0, 1 - Fraction(1, 2) ** t)
            for t in (4, 6, 8)
        )
        table = SampleTable(rows, None)
        # Re-fit through the module path used by sample_genericity.
        from relfold.genericity import _fit_decay_rate

        rate = _fit_decay_rate(list(rows))
        assert rate is not None
        assert abs(rate - 0.5) < 1e-9

    def test_insufficient_points_gives_none(self):
        from relfold.genericity import _fit_decay_rate

        assert _fit_decay_rate([SampleRow(4, 10, 10, 10, 10, 10, 0, Fraction(1, 2))]) is None
        # fraction = 1 rows carry no decay information.
        rows = [
            SampleRow(4, 10, 10, 10, 10, 10, 0, Fraction(1)),
            SampleRow(8, 10, 10, 10, 10, 10, 0, Fraction(1)),
        ]
        assert _fit_decay_rate(rows) is None


class TestSweepCounts:
    """The C3 sweep of one 12-letter relator at mu = 1/3, L = 2.

    Unbudgeted, all 84 half-subwords are checked (168 queries, 3542
    nodes).  A short relator never passes a C1 bound this small, so C1 is
    stubbed to pass and the sweep runs.
    """

    @pytest.fixture
    def report(self, monkeypatch):
        monkeypatch.setattr(genericity, "check_Cprime", lambda p, lam: CprimeResult(True))
        mu = Fraction(1, 3)
        params = ClassParams(mu / (30 + 3 * mu), mu, 2)
        p = Presentation(A2, (parse_word("BABaBabbaaba"),))
        return lambda budget: check_membership(p, params, budget)

    @pytest.mark.parametrize(
        "budget,checked,unknown,complete",
        [
            (None, 84, 0, True),
            (3542, 84, 0, True),  # exactly enough: the last query spends it
            (3541, 83, 1, False),  # the last query runs out
            (21, 1, 0, False),  # spent between two subwords
            (20, 0, 1, False),  # the first subword's second query runs out
            (100, 4, 1, False),
            (0, 0, 0, False),  # a zero budget skips the sweep
        ],
    )
    def test_counts(self, report, budget, checked, unknown, complete):
        rep = report(budget)
        assert (rep.c3.checked_subwords, rep.c3.unknown_checks, rep.c3.complete) == (
            checked, unknown, complete)
        assert rep.c3.violation is None
        assert rep.verdict == (IN_CLASS if complete else UNDETERMINED)

    def test_violation_counts_its_subword(self, monkeypatch):
        monkeypatch.setattr(genericity, "check_Cprime", lambda p, lam: CprimeResult(True))
        p = Presentation(A2, (parse_word("aabbabABBaBB"),))
        rep = check_membership(p, default_params(2), 25)
        assert rep.c3 == C3Status((0, (1, 1, 2, 2, 1, 2), "muL"), 1, 0, True)
        assert (rep.verdict, rep.failed_condition) == (NOT_IN_CLASS, "C3")
