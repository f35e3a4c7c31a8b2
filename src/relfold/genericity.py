"""Membership testing for a class of presentations, and how common it is.

A presentation with relators ``r_1, ..., r_n`` belongs to the class cut
out by parameters ``(lam, mu, L)`` when three conditions hold:

1. the small cancellation condition ``C'(lam)`` (no long pieces);
2. no relator is a proper power;
3. no subword of a cyclic permutation of a relator spanning at least
   half the relator is readable — neither with edge budget ``mu`` and
   rank bound ``m - 1``, nor with edge budget ``mu``, rank bound ``L``,
   and a free-slot (low-degree vertex) requirement.

The parameters must satisfy the exact rational chain
``lam <= mu/(15L + 3mu) <= mu/(15m + 3mu) < 1/6`` with ``0 < mu <= 1``;
the middle link forces ``L >= m``.

Because readability of long subwords is expensive, condition (3) runs
under an optional node budget; exhausting it yields an ``Undetermined``
verdict rather than a false certificate.  ``sample_genericity`` draws
random presentations at given relator lengths and tabulates how often
each condition holds, which makes the asymptotic trend — almost every
long presentation satisfies (1) and (2) — observable at desk scale.

Subwords of relator inverses are not checked separately: readability is
invariant under word inversion, and the subwords of the inverse of a
cyclic word are exactly the inverses of its subwords.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from math import exp, log
from random import Random
from typing import Iterator, Optional

from .codec import membership_report_jsonable  # re-export: bench/ reads it here
from .readability import READABLE, UNKNOWN, ReadabilityQuery, is_readable
from .smallcancel import CprimeResult, Presentation, check_Cprime
from .words import (
    Alphabet,
    Word,
    power_decomposition,
    random_cyclically_reduced,
    random_cyclically_reduced_up_to,
)

IN_CLASS = "InClass"
NOT_IN_CLASS = "NotInClass"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ClassParams:
    """Exact rational parameters (lam, mu, L) of the presentation class."""

    lam: Fraction
    mu: Fraction
    L: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")


def default_params(m: int) -> ClassParams:
    """The documented defaults: mu = 1/2, L = m, and the largest legal lam.

    With mu = 1/2 and L = m the bound lam <= mu/(15L + 3mu) becomes
    lam <= 1/(30m + 3); for m = 2 this gives lam = 1/63.
    """
    if m < 2:
        raise ValueError("alphabet rank must be at least 2")
    return ClassParams(Fraction(1, 30 * m + 3), Fraction(1, 2), m)


def validate_params(params: ClassParams, m: int) -> tuple[bool, Optional[str]]:
    """Check the exact inequality chain; report the first violated link."""
    if m < 1:
        raise ValueError("alphabet rank must be at least 1")
    lam, mu, L = params.lam, params.mu, params.L
    if mu > 1:
        return False, "mu <= 1"
    if lam > mu / (15 * L + 3 * mu):
        return False, "lam <= mu/(15*L + 3*mu)"
    if L < m:
        return False, "mu/(15*L + 3*mu) <= mu/(15*m + 3*mu) (needs L >= m)"
    if mu / (15 * m + 3 * mu) >= Fraction(1, 6):
        return False, "mu/(15*m + 3*mu) < 1/6"
    return True, None


def relevant_subwords(r: Word) -> tuple[Word, ...]:
    """All cyclic subwords of ``r`` spanning at least half of it.

    Subwords are read off the doubled word, enumerated by increasing
    length and then by starting offset, deduplicated by literal equality.

    >>> relevant_subwords((1, 2))
    ((1,), (2,), (1, 2), (2, 1))
    >>> relevant_subwords((1, 1))
    ((1,), (1, 1))
    """
    return tuple(_iter_relevant_subwords(r))


def _iter_relevant_subwords(r: Word) -> Iterator[Word]:
    if not r:
        raise ValueError("relator must be nontrivial")
    size = len(r)
    doubled = tuple(r) + tuple(r)
    seen = set()
    for length in range((size + 1) // 2, size + 1):
        for off in range(size):
            w = doubled[off : off + length]
            if w not in seen:
                seen.add(w)
                yield w


@dataclass(frozen=True)
class PowerStatus:
    """Proper-power analysis of one relator: r = root^exponent."""

    relator_index: int
    is_power: bool
    root: Word
    exponent: int


@dataclass(frozen=True)
class C3Status:
    """Outcome of the half-subword readability sweep.

    ``violation`` is the first readable subword found, as a triple
    (relator index, subword, which query flagged it: "mu" for the plain
    rank bound m - 1, "muL" for rank bound L with the free-slot flag).
    ``unknown_checks`` counts readability calls that gave ``Unknown``
    (0 or 1: the sweep stops at the first); ``complete`` is False when
    the node budget or an ``Unknown`` cut the sweep short.
    """

    violation: Optional[tuple[int, Word, str]]
    checked_subwords: int
    unknown_checks: int
    complete: bool


@dataclass(frozen=True)
class MembershipReport:
    """Results of all three class conditions plus the combined verdict.

    ``verdict`` is ``InClass`` only when every condition is certified
    with zero unknowns.  On a definite violation ``failed_condition``
    names the culprit ("C1", "C2", or "C3"); when both C1 and C2 fail,
    C2 is reported.  ``c3`` is None when a C1/C2 failure made the
    subword sweep moot.
    """

    c1: CprimeResult
    c2: tuple[PowerStatus, ...]
    c3: Optional[C3Status]
    verdict: str
    failed_condition: Optional[str]


def power_statuses(relators) -> tuple[PowerStatus, ...]:
    """Condition (2) per relator: its root and maximal exponent."""
    decomposed = (power_decomposition(r) for r in relators)
    return tuple(PowerStatus(i, k >= 2, root, k) for i, (root, k) in enumerate(decomposed))


def check_membership(
    p: Presentation, params: ClassParams, node_budget: Optional[int] = None
) -> MembershipReport:
    """Decide class membership, honestly reporting budget exhaustion.

    ``node_budget`` caps the readability nodes of the condition-(3)
    sweep; 0 skips the sweep, and a negative budget raises ``ValueError``.
    """
    m = p.alphabet.m
    ok, why = validate_params(params, m)
    if not ok:
        raise ValueError(f"invalid class parameters: requires {why}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")

    c2 = power_statuses(p.relators)
    c1 = check_Cprime(p, params.lam)

    if any(st.is_power for st in c2):
        return MembershipReport(c1, c2, None, NOT_IN_CLASS, "C2")
    if not c1.ok:
        return MembershipReport(c1, c2, None, NOT_IN_CLASS, "C1")
    c3 = _sweep_subwords(p.relators, m, params, node_budget)
    if c3.violation is not None:
        return MembershipReport(c1, c2, c3, NOT_IN_CLASS, "C3")
    if not c3.complete:
        return MembershipReport(c1, c2, c3, UNDETERMINED, None)
    return MembershipReport(c1, c2, c3, IN_CLASS, None)


def _sweep_subwords(relators, m: int, params: ClassParams, node_budget) -> C3Status:
    """Condition (3): ask both readability queries of every half-subword.

    The sweep stops at the first readable subword, the first ``Unknown``
    or when the shared node budget is spent.  A subword counts as checked
    once neither query found it readable, or once one of them did.
    """
    remaining = node_budget
    checked = 0
    for i, r in enumerate(relators):
        for w in _iter_relevant_subwords(r):
            for which, rank_bound, low in (("mu", m - 1, False), ("muL", params.L, True)):
                if remaining is not None and remaining <= 0:
                    return C3Status(None, checked, 0, False)
                ans = is_readable(
                    ReadabilityQuery(w, m, params.mu, rank_bound, low, node_budget=remaining)
                )
                if remaining is not None:
                    remaining -= ans.nodes_expanded
                if ans.verdict == READABLE:
                    return C3Status((i, w, which), checked + 1, 0, True)
                if ans.verdict == UNKNOWN:
                    return C3Status(None, checked, 1, False)
            checked += 1
    return C3Status(None, checked, 0, True)


@dataclass(frozen=True)
class SampleRow:
    """Tallies for one relator length.

    The pass counts are cumulative filters: ``pass_c1`` counts samples
    satisfying condition (1), ``pass_c2`` those satisfying (1) and (2),
    ``pass_c3_checked`` those whose condition-(3) sweep completed with
    no violation and no unknowns, and ``pass_all`` the ``InClass``
    verdicts.  ``unknown`` counts ``Undetermined`` verdicts.
    ``fraction`` is pass_all / (samples - unknown), or None when every
    sample was undetermined.
    """

    t: int
    samples: int
    pass_c1: int
    pass_c2: int
    pass_c3_checked: int
    pass_all: int
    unknown: int
    fraction: Optional[Fraction]


@dataclass(frozen=True)
class SampleTable:
    """Rows per relator length plus an optional fitted decay rate.

    ``decay_rate`` estimates c in (1 - fraction) ~ c^t by least squares
    on the log scale, when at least two rows admit the fit.
    """

    rows: tuple[SampleRow, ...]
    decay_rate: Optional[float]


def sample_genericity(
    m: int,
    n: int,
    t_list,
    samples_per_t: int,
    params: ClassParams,
    node_budget: Optional[int],
    seed,
    exact_length: bool = True,
) -> SampleTable:
    """Estimate how often random presentations land in the class.

    For each ``t``, draws ``samples_per_t`` presentations whose ``n``
    relators are independent uniform cyclically reduced words of length
    exactly ``t`` (or length at most ``t`` with ``exact_length=False``),
    and runs :func:`check_membership` on each.  Each sample uses its own
    RNG substream derived from (seed, t, index), so tables are
    deterministic for a given seed and independent of evaluation order.
    """
    ok, why = validate_params(params, m)
    if not ok:
        raise ValueError(f"invalid class parameters: requires {why}")
    if n < 1:
        raise ValueError("need at least one relator slot")
    if samples_per_t < 1:
        raise ValueError("need at least one sample per length")

    alphabet = Alphabet(m)
    draw = random_cyclically_reduced if exact_length else random_cyclically_reduced_up_to
    rows = []
    for t in t_list:
        pass_c1 = pass_c2 = pass_c3 = pass_all = unknown = 0
        for i in range(samples_per_t):
            rng = Random(f"{seed}:{t}:{i}")
            relators = tuple(draw(m, t, rng) for _ in range(n))
            report = check_membership(Presentation(alphabet, relators), params, node_budget)
            c1_ok = report.c1.ok
            c2_ok = c1_ok and not any(st.is_power for st in report.c2)
            pass_c1 += c1_ok
            pass_c2 += c2_ok
            # C1 and C2 passing means the sweep ran, so c3 is set.
            pass_c3 += c2_ok and report.c3.complete and report.c3.violation is None
            pass_all += report.verdict == IN_CLASS
            unknown += report.verdict == UNDETERMINED
        fraction = (
            Fraction(pass_all, samples_per_t - unknown)
            if unknown < samples_per_t
            else None
        )
        rows.append(
            SampleRow(t, samples_per_t, pass_c1, pass_c2, pass_c3, pass_all, unknown, fraction)
        )
    return SampleTable(tuple(rows), _fit_decay_rate(rows))


def _fit_decay_rate(rows) -> Optional[float]:
    """Least-squares fit of log(1 - fraction) against t; returns e^slope."""
    points = [
        (row.t, log(1 - row.fraction))
        for row in rows
        if row.fraction is not None and 0 <= row.fraction < 1
    ]
    if len(points) < 2 or len({t for t, _ in points}) < 2:
        return None
    slope, _ = statistics.linear_regression([t for t, _ in points], [y for _, y in points])
    return exp(slope)
