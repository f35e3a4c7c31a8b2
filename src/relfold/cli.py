"""Command-line interface: presentation files, reports, and exit codes.

Words use the same case convention as :mod:`relfold.words` (``a``..``z``
generators, capitals their inverses).  Presentation files are plain
text::

    rank: 2
    relators:
    abAB

Rational flags take exact positives — ``p`` or ``p/q`` — never decimals.
All JSON output is key-sorted and all sampling is seeded, so reruns with
identical inputs produce byte-identical bytes.

Exit codes: ``check`` 0 InClass / 1 NotInClass / 2 Undetermined;
``reduce`` 0 WholeGroup / 1 CertifiedFree / 3 NotInClass; ``iso`` 0
Isomorphic / 1 NotIsomorphic / 2 Inapplicable; ``verify`` and ``orbit``
0 yes / 1 no; ``readable`` 0 Readable / 1 NotReadable / 2 Unknown.
Usage and validation errors exit 64.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import codec, genericity, iso, nielsen, readability, whitehead
from .genericity import ClassParams, default_params
from .smallcancel import Presentation
from .words import Alphabet, format_word, is_cyclically_reduced, parse_word

EX_USAGE = 64


class UsageError(Exception):
    """Bad input from the command line or an input file."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def parse_fraction(text: str) -> Fraction:
    """Exact positive rational from ``p`` or ``p/q``."""
    if re.fullmatch(r"[0-9]+", text):
        value = Fraction(int(text))
    else:
        match = re.fullmatch(r"([0-9]+)/([0-9]+)", text)
        if match is None:
            raise UsageError(
                f"malformed rational {text!r}: expected p or p/q in positive integers"
            )
        if int(match.group(2)) == 0:
            raise UsageError(f"malformed rational {text!r}: zero denominator")
        value = Fraction(int(match.group(1)), int(match.group(2)))
    if value <= 0:
        raise UsageError(f"rational {text!r} must be positive")
    return value


def load_presentation(path: str) -> Presentation:
    """Parse a presentation file; errors carry 1-based line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    lines = [
        (no, line.strip())
        for no, line in enumerate(raw, start=1)
        if line.strip()
    ]
    if not lines:
        raise UsageError(f"{path}: empty presentation file")

    no, head = lines[0]
    match = re.fullmatch(r"rank:\s*([0-9]+)", head)
    if match is None:
        raise UsageError(f"{path}:{no}: expected 'rank: <m>', got {head!r}")
    m = int(match.group(1))
    try:
        alphabet = Alphabet(m)
    except ValueError as exc:
        raise UsageError(f"{path}:{no}: {exc}") from exc

    if len(lines) < 2 or lines[1][1] != "relators:":
        where = lines[1][0] if len(lines) > 1 else no
        raise UsageError(f"{path}:{where}: expected 'relators:' line")

    relators = []
    for no, text in lines[2:]:
        try:
            w = parse_word(text, m)
        except ValueError as exc:
            raise UsageError(f"{path}:{no}: {exc}") from exc
        if not w:
            raise UsageError(f"{path}:{no}: relator is trivial")
        if not is_cyclically_reduced(w):
            raise UsageError(f"{path}:{no}: relator is not cyclically reduced")
        relators.append(w)
    if not relators:
        raise UsageError(f"{path}: no relators found")
    return Presentation(alphabet, tuple(relators))


def params_from_args(args, m: int) -> ClassParams:
    base = default_params(m)
    lam = parse_fraction(args.lam) if args.lam is not None else base.lam
    mu = parse_fraction(args.mu) if args.mu is not None else base.mu
    L = args.L if args.L is not None else base.L
    return ClassParams(lam, mu, L)


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    p = load_presentation(args.presentation)
    params = params_from_args(args, p.alphabet.m)
    report = genericity.check_membership(p, params, args.budget)
    if args.json:
        _print(codec.dump(codec.membership_report_jsonable(report)))
    else:
        line = f"verdict: {report.verdict}"
        if report.failed_condition:
            line += f" (failed {report.failed_condition})"
        _print(line)
    return {
        genericity.IN_CLASS: 0,
        genericity.NOT_IN_CLASS: 1,
        genericity.UNDETERMINED: 2,
    }[report.verdict]


def cmd_reduce(args) -> int:
    p = load_presentation(args.presentation)
    params = params_from_args(args, p.alphabet.m)
    tpl = tuple(parse_word(w, p.alphabet.m) for w in args.words)
    verdict = nielsen.reduce_tuple(tpl, p, params)
    if args.trace and verdict.kind == nielsen.WHOLE_GROUP:
        _write(args.trace, codec.dump(codec.trace_jsonable(verdict.trace)))
    payload = codec.reduction_jsonable(verdict)
    if args.json:
        _print(codec.dump(payload))
    else:
        line = verdict.kind
        if verdict.kind == nielsen.WHOLE_GROUP:
            line += f" ({payload['moves']} moves, {payload['surgeries']} surgeries)"
        elif verdict.kind == nielsen.CERTIFIED_FREE:
            line += f" (rank {verdict.rank})"
        else:
            line += f" (condition {verdict.condition})"
        _print(line)
    return {
        nielsen.WHOLE_GROUP: 0,
        nielsen.CERTIFIED_FREE: 1,
        nielsen.NOT_IN_CLASS: 3,
    }[verdict.kind]


def cmd_verify(args) -> int:
    p = load_presentation(args.presentation)
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.trace}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"{args.trace}: not valid JSON: {exc}") from exc
    try:
        trace = codec.trace_from_jsonable(data)
    except ValueError as exc:
        raise UsageError(f"{args.trace}: not a trace document: {exc}") from exc
    valid = nielsen.verify_trace(trace, p)
    _print(codec.dump({"valid": valid}) if args.json else ("valid" if valid else "invalid"))
    return 0 if valid else 1


def cmd_iso(args) -> int:
    p1 = load_presentation(args.presentation1)
    p2 = load_presentation(args.presentation2)
    params = params_from_args(args, p1.alphabet.m)
    verdict = iso.decide_isomorphic(
        p1, p2, params,
        node_budget=args.budget,
        assume_in_class=args.assume_in_class,
    )
    if args.json:
        _print(codec.dump(codec.verdict_jsonable(verdict)))
    else:
        line = verdict.kind
        if verdict.conditional:
            line += " (conditional on assumed class membership)"
        if verdict.reason:
            line += f": {verdict.reason}"
        _print(line)
    return {
        iso.ISOMORPHIC: 0,
        iso.NOT_ISOMORPHIC: 1,
        iso.INAPPLICABLE: 2,
    }[verdict.kind]


def cmd_sample(args) -> int:
    try:
        t_list = [int(part) for part in args.t.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed --t list {args.t!r}") from exc
    if not t_list:
        raise UsageError("--t needs at least one length")
    params = params_from_args(args, args.m)
    table = genericity.sample_genericity(
        args.m, args.n, t_list, args.samples, params, args.budget, args.seed
    )
    csv_text = codec.sample_table_csv(table)
    if args.csv:
        _write(args.csv, csv_text)
    if args.json:
        _print(codec.dump(codec.sample_table_jsonable(table)))
    elif not args.csv:
        sys.stdout.write(csv_text)
    return 0


def cmd_readable(args) -> int:
    word = parse_word(args.word, args.m)
    rank_bound = args.rank_bound if args.rank_bound is not None else args.m - 1
    query = readability.ReadabilityQuery(
        word=word,
        m=args.m,
        mu=parse_fraction(args.mu),
        rank_bound=rank_bound,
        require_low_degree=args.low_degree,
        node_budget=args.budget,
    )
    answer = readability.is_readable(query)
    if args.json:
        _print(codec.dump(codec.readable_jsonable(answer)))
    else:
        _print(answer.verdict)
    return {
        readability.READABLE: 0,
        readability.NOT_READABLE: 1,
        readability.UNKNOWN: 2,
    }[answer.verdict]


def cmd_whitehead_min(args) -> int:
    word = parse_word(args.word, args.m)
    minimal, moves = whitehead.minimize(word, args.m)
    if args.json:
        _print(codec.dump(codec.minimize_jsonable(args.word, minimal, moves)))
    else:
        _print(f"{format_word(minimal)} (length {len(minimal)})")
    return 0


def cmd_orbit(args) -> int:
    u = parse_word(args.word1, args.m)
    v = parse_word(args.word2, args.m)
    cert = whitehead.same_orbit(u, v, args.m)
    if args.json:
        _print(codec.dump(codec.orbit_jsonable(cert)))
    else:
        _print("equivalent" if cert is not None else "not equivalent")
    return 0 if cert is not None else 1


# ---------------------------------------------------------------------------
# Parser assembly


def _add_params_flags(sub) -> None:
    sub.add_argument("--lambda", dest="lam", metavar="P/Q", default=None,
                     help="piece-bound parameter (default from the alphabet rank)")
    sub.add_argument("--mu", dest="mu", metavar="P/Q", default=None,
                     help="readability budget parameter")
    sub.add_argument("--L", dest="L", type=int, default=None,
                     help="rank bound for readability witnesses")


def build_parser() -> _Parser:
    parser = _Parser(prog="relfold",
                     description="Certified reductions, class membership, "
                                 "and isomorphism for generic presentations.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("check", parents=[], help="class membership of a presentation")
    sp.add_argument("presentation", help="presentation file")
    _add_params_flags(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help="node budget for the condition-(3) readability sweep; "
                         "0 skips the sweep, and omitting it leaves the sweep "
                         "without a time bound")
    sp.set_defaults(func=cmd_check)

    sp = subs.add_parser("reduce", help="reduce a generating tuple against a presentation")
    sp.add_argument("presentation", help="presentation file")
    sp.add_argument("words", nargs="+", help="the m tuple entries")
    _add_params_flags(sp)
    sp.add_argument("--trace", metavar="OUT.json", default=None,
                    help="write the move trace here on a WholeGroup verdict")
    sp.set_defaults(func=cmd_reduce)

    sp = subs.add_parser("verify", help="replay a reduction trace against a presentation")
    sp.add_argument("presentation", help="presentation file")
    sp.add_argument("trace", help="trace JSON written by reduce --trace")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("iso", help="decide isomorphism of two one-relator presentations")
    sp.add_argument("presentation1", help="first presentation file")
    sp.add_argument("presentation2", help="second presentation file")
    _add_params_flags(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help="node budget for membership certification; "
                         "0 skips the condition-(3) sweep, and omitting it "
                         "leaves the sweep without a time bound")
    sp.add_argument("--assume-in-class", action="store_true",
                    help="skip membership certification; verdicts become conditional")
    sp.set_defaults(func=cmd_iso)

    sp = subs.add_parser("sample", help="estimate how often random presentations pass")
    sp.add_argument("--m", type=int, default=2, help="alphabet rank (default 2)")
    sp.add_argument("--n", type=int, default=1, help="relators per presentation (default 1)")
    sp.add_argument("--t", required=True, metavar="T1,T2,...",
                    help="comma-separated relator lengths")
    sp.add_argument("--samples", type=int, required=True,
                    help="presentations per length")
    sp.add_argument("--seed", type=int, required=True,
                    help="RNG seed (mandatory: tables must be reproducible)")
    _add_params_flags(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help="node budget per membership check; "
                         "0 skips the condition-(3) sweep, and omitting it "
                         "leaves the sweep without a time bound")
    sp.add_argument("--csv", metavar="OUT.csv", default=None,
                    help="write the table here instead of stdout")
    sp.set_defaults(func=cmd_sample)

    sp = subs.add_parser("readable", help="can a graph within budget read this word?")
    sp.add_argument("word", help="the word to read")
    sp.add_argument("--m", type=int, default=2, help="alphabet rank (default 2)")
    sp.add_argument("--mu", required=True, metavar="P/Q", help="edge budget per letter")
    sp.add_argument("--rank-bound", dest="rank_bound", type=int, default=None,
                    help="witness rank bound (default m - 1)")
    sp.add_argument("--low-degree", action="store_true",
                    help="require a vertex of degree below 2m in the witness")
    sp.add_argument("--budget", type=int, default=None,
                    help="search node budget (must be positive)")
    sp.set_defaults(func=cmd_readable)

    sp = subs.add_parser("whitehead-min", help="minimize a cyclic word over Aut(F) moves")
    sp.add_argument("word", help="the word to minimize")
    sp.add_argument("--m", type=int, default=2, help="alphabet rank (default 2)")
    sp.set_defaults(func=cmd_whitehead_min)

    sp = subs.add_parser("orbit", help="find an automorphism linking two cyclic words")
    sp.add_argument("word1", help="source word")
    sp.add_argument("word2", help="target word")
    sp.add_argument("--m", type=int, default=2, help="alphabet rank (default 2)")
    sp.set_defaults(func=cmd_orbit)

    for sp in subs.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"relfold: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
