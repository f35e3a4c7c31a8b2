"""Isomorphism decision for one-relator presentations.

Two one-relator groups on the same alphabet are isomorphic exactly when
some free-group automorphism carries one relator to the other or to its
inverse, as cyclic words — provided at least one presentation lies in
the certified class.  The decision therefore reduces to the orbit search
of :mod:`relfold.whitehead`; this module adds the membership gate and
packages the outcome.

``Isomorphic`` verdicts are unconditionally sound: the certificate is an
explicit automorphism and always induces a group isomorphism.
``NotIsomorphic`` is sound relative to the class membership, which is
either certified here (expensive: the subword readability sweep) or
assumed by the caller, in which case the verdict is flagged conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codec import certificate_jsonable, verdict_jsonable  # re-export: bench/ reads it here
from .genericity import IN_CLASS, ClassParams, check_membership
from .smallcancel import Presentation
from .whitehead import OrbitCertificate, same_orbit

ISOMORPHIC = "Isomorphic"
NOT_ISOMORPHIC = "NotIsomorphic"
INAPPLICABLE = "Inapplicable"

NOT_ISO_REASON = "distinct Aut(F)-orbits of relators"


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of :func:`decide_isomorphic`.

    ``kind`` is ``Isomorphic`` (with a replaying ``certificate``),
    ``NotIsomorphic``, or ``Inapplicable`` (membership could not be
    certified for either side).  ``conditional`` is set when membership
    was assumed rather than certified, the caveat inherited by a
    ``NotIsomorphic`` answer.
    """

    kind: str
    certificate: Optional[OrbitCertificate] = None
    reason: Optional[str] = None
    conditional: bool = False


def decide_isomorphic(
    p1: Presentation,
    p2: Presentation,
    params: ClassParams,
    node_budget: Optional[int] = None,
    assume_in_class: bool = False,
) -> IsoVerdict:
    """Decide whether two one-relator presentations define the same group.

    Unless ``assume_in_class`` is set, class membership is checked for p1
    and then, if that fails, for p2; one certified side suffices.  When
    neither is certified the question is out of scope and the verdict is
    ``Inapplicable`` (this includes honest budget exhaustion in the
    readability sweep).  ``node_budget`` is forwarded to the membership
    check.
    """
    if p1.n != 1 or p2.n != 1:
        raise ValueError("presentations must have exactly one relator")
    if p1.alphabet.m != p2.alphabet.m:
        raise ValueError("alphabet mismatch between the presentations")
    m = p1.alphabet.m

    conditional = bool(assume_in_class)
    if not assume_in_class:
        report = check_membership(p1, params, node_budget)
        if report.verdict != IN_CLASS:
            report = check_membership(p2, params, node_budget)
        if report.verdict != IN_CLASS:
            return IsoVerdict(
                INAPPLICABLE,
                reason=f"membership not certified ({report.verdict})",
            )

    certificate = same_orbit(p1.relators[0], p2.relators[0], m)
    if certificate is not None:
        return IsoVerdict(ISOMORPHIC, certificate=certificate, conditional=conditional)
    return IsoVerdict(NOT_ISOMORPHIC, reason=NOT_ISO_REASON, conditional=conditional)

