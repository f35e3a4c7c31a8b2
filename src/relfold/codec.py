"""The JSON and CSV forms of every document relfold writes.

Membership reports, sample tables, Nielsen traces, condition-(3)
witnesses, Whitehead moves, orbit certificates, isomorphism verdicts and
the CLI's own payloads are shaped here.  Words are in text form and
rationals ``p/q``; :func:`dump` sorts keys, so equal inputs give equal
bytes.  The one document read back is the trace that ``relfold verify``
replays, and :func:`trace_from_jsonable` raises only ValueError.
"""

from __future__ import annotations

import json

from .fgraph import MOVE_KINDS, MoveRecord, NielsenTrace, initial_basis
from .whitehead import Multiplier, Relabel
from .words import format_word, letter_key, parse_word


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _word_list(ws) -> list:
    return [format_word(w) for w in ws]


def _fraction_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def cprime_jsonable(c) -> dict:
    """A JSON-ready view of a piece-bound (C1) result."""
    return {
        "ok": c.ok,
        "piece": format_word(c.piece) if c.piece is not None else None,
        "relator_index": c.relator_index,
        "ratio": _fraction_str(c.ratio) if c.ratio is not None else None,
    }


def powers_jsonable(powers) -> list:
    """A JSON-ready view of per-relator proper-power (C2) statuses."""
    return [
        {
            "relator_index": st.relator_index,
            "is_proper_power": st.is_power,
            "root": format_word(st.root),
            "exponent": st.exponent,
        }
        for st in powers
    ]


def membership_report_jsonable(report) -> dict:
    """A JSON-ready view of a membership report, with "C1"/"C2"/"C3" ids."""
    c3 = None
    if report.c3 is not None:
        violation = None
        if report.c3.violation is not None:
            idx, w, which = report.c3.violation
            violation = {
                "relator_index": idx,
                "subword": format_word(w),
                "readability": which,
            }
        c3 = {
            "violation": violation,
            "checked_subwords": report.c3.checked_subwords,
            "unknown_checks": report.c3.unknown_checks,
            "complete": report.c3.complete,
        }
    return {
        "verdict": report.verdict,
        "failed_condition": report.failed_condition,
        "C1": cprime_jsonable(report.c1),
        "C2": powers_jsonable(report.c2),
        "C3": c3,
    }


def sample_table_csv(table) -> str:
    """Render a table as CSV; an all-undetermined row gets fraction 0/0."""
    lines = ["t,samples,pass_c1,pass_c2,pass_c3_checked,pass_all,unknown,fraction_num,fraction_den"]
    for row in table.rows:
        num, den = (
            (row.fraction.numerator, row.fraction.denominator)
            if row.fraction is not None
            else (0, 0)
        )
        lines.append(
            f"{row.t},{row.samples},{row.pass_c1},{row.pass_c2},"
            f"{row.pass_c3_checked},{row.pass_all},{row.unknown},{num},{den}"
        )
    return "\n".join(lines) + "\n"


def sample_table_jsonable(table) -> dict:
    return {
        "rows": [
            {
                "t": row.t,
                "samples": row.samples,
                "pass_c1": row.pass_c1,
                "pass_c2": row.pass_c2,
                "pass_c3_checked": row.pass_c3_checked,
                "pass_all": row.pass_all,
                "unknown": row.unknown,
                "fraction": _fraction_str(row.fraction) if row.fraction is not None else None,
            }
            for row in table.rows
        ],
        "decay_rate": table.decay_rate,
    }


def trace_jsonable(t: NielsenTrace) -> dict:
    """JSON-ready trace: replayable through ``nielsen.verify_trace``.

    Snapshots and conjugators are alphabet words in text form; the
    two-way witness words are kept as integer lists because their letters
    index basis slots, not alphabet generators.
    """
    return {
        "initial_tuple": _word_list(t.initial_tuple),
        "initial_arrangement": list(t.initial_arrangement),
        "steps": [
            {
                "kind": record.kind,
                "post_in_pre": [list(w) for w in record.post_in_pre],
                "pre_in_post": [list(w) for w in record.pre_in_post],
                "conjugator": format_word(record.conjugator),
                "snapshot": _word_list(snapshot),
            }
            for record, snapshot in t.steps
        ],
        "final_tuple": _word_list(t.final_tuple),
        "conjugator": format_word(t.conjugator),
    }


def _indices(values) -> tuple:
    """Signed 1-based indices: nonzero ints."""
    values = tuple(values)
    for k in values:
        if type(k) is not int or k == 0:
            raise ValueError(f"bad basis index {k!r}")
    return values


def _words(texts) -> tuple:
    if isinstance(texts, str):
        raise ValueError(f"bad word list {texts!r}")
    return tuple(parse_word(s) for s in texts)


def trace_from_jsonable(data: dict) -> NielsenTrace:
    """Rebuild a verifiable trace from its JSON form.

    The records round-trip only what ``nielsen.verify_trace`` consumes.  A
    malformed document raises ValueError: step kinds must be Fold, R or
    AO, words strings and basis indices nonzero integers.
    """
    try:
        initial = _words(data["initial_tuple"])
        arrangement = _indices(data["initial_arrangement"])
        previous = initial_basis(initial, arrangement)
        steps = []
        for row in data["steps"]:
            snapshot = _words(row["snapshot"])
            if row["kind"] not in MOVE_KINDS:
                raise ValueError(f"bad step kind {row['kind']!r}")
            record = MoveRecord(
                kind=row["kind"],
                pre_basis=previous,
                post_basis=snapshot,
                post_in_pre=tuple(_indices(w) for w in row["post_in_pre"]),
                pre_in_post=tuple(_indices(w) for w in row["pre_in_post"]),
                conjugator=parse_word(row["conjugator"]),
            )
            steps.append((record, snapshot))
            previous = snapshot
        return NielsenTrace(
            initial_tuple=initial,
            initial_arrangement=arrangement,
            steps=tuple(steps),
            final_tuple=_words(data["final_tuple"]),
            conjugator=parse_word(data["conjugator"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad trace document: {exc!r}") from None


def _edges_path(edges, path) -> dict:
    """A graph witness: its (origin, terminus, label) edges and a path."""
    return {
        "edges": [list(e) for e in edges],
        "path": {"start": path.start, "steps": [list(s) for s in path.steps]},
    }


def witness_jsonable(w) -> dict:
    return {
        **_edges_path(w.edges, w.path),
        "subword": format_word(w.subword),
        "complement": format_word(w.complement),
        "relator_index": w.relator_index,
        "sign": w.sign,
        "offset": w.offset,
    }


def reduction_jsonable(verdict) -> dict:
    """``relfold reduce --json``: counts and endpoint, basis, or violation."""
    out: dict = {"kind": verdict.kind}
    if verdict.trace is not None:
        t = verdict.trace
        out["moves"] = sum(rec.detail["moves"] for rec, _ in t.steps)
        out["surgeries"] = sum(1 for rec, _ in t.steps if rec.kind == "AO")
        out["final_tuple"] = _word_list(t.final_tuple)
        out["conjugator"] = format_word(t.conjugator)
    elif verdict.basis is not None:
        out["rank"] = verdict.rank
        out["basis"] = _word_list(verdict.basis)
        out["reason"] = verdict.reason
    else:
        out["condition"] = verdict.condition
        if verdict.condition == "C1":
            c1 = cprime_jsonable(verdict.cprime)
            del c1["ok"]
            out.update(c1)
        elif verdict.condition == "C2":
            out["powers"] = powers_jsonable(verdict.powers)
        else:
            out["witness"] = witness_jsonable(verdict.witness)
    return out


def readable_jsonable(answer) -> dict:
    """``relfold readable --json``: verdict, nodes expanded and any witness."""
    g = answer.graph
    witness = None if g is None else _edges_path(
        [g.edges[e] for e in sorted(g.edges)], answer.path)
    return {"verdict": answer.verdict, "nodes_expanded": answer.nodes_expanded,
            "witness": witness}


def move_jsonable(mv) -> dict:
    if isinstance(mv, Relabel):
        return {"kind": "relabel", "images": list(mv.images)}
    if isinstance(mv, Multiplier):
        return {
            "kind": "multiplier",
            "letter": mv.letter,
            "cut": sorted(mv.cut, key=letter_key),
        }
    raise TypeError(f"not a Whitehead move: {mv!r}")


def minimize_jsonable(word: str, minimal, moves) -> dict:
    """``relfold whitehead-min --json``: the word, its minimum and the moves."""
    return {
        "word": word,
        "minimal": format_word(minimal),
        "length": len(minimal),
        "moves": [move_jsonable(mv) for mv in moves],
    }


def certificate_jsonable(cert) -> dict:
    return {
        "moves": [move_jsonable(mv) for mv in cert.moves],
        "source": format_word(cert.source),
        "target": format_word(cert.target),
        "inverted": cert.inverted,
    }


def orbit_jsonable(cert) -> dict:
    """``relfold orbit --json``: whether a certificate was found, and it."""
    return {
        "equivalent": cert is not None,
        "certificate": certificate_jsonable(cert) if cert is not None else None,
    }


def verdict_jsonable(v) -> dict:
    """JSON-ready isomorphism verdict with the certificate payload when present."""
    return {
        "kind": v.kind,
        "conditional": v.conditional,
        "reason": v.reason,
        "certificate": (
            certificate_jsonable(v.certificate)
            if v.certificate is not None
            else None
        ),
    }
