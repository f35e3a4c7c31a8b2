"""relfold benchmark: certified verdicts, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload reduce-scrambled --seed 1 --seconds 40 --trace 0

One client in one process sends one request at a time (a closed loop).
Set-up draws the workload's inputs from ``--seed``; the library sees only
those inputs.  A pass visits every input once, and passes repeat until
``--seconds`` have gone by (at least one pass).  Every request's verdict
and certificate is checked against an answer known from how the input
was built, by code in this directory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first pass bare, then wraps the layer functions (see ``tracer.py``) and
reports per-layer metrics per traced request; the bare pass is the
reference for the tracing overhead and for the verdict digest.  The last line of stdout is the result object; a
readable report goes to stderr.  See ``README.md`` for the workloads and
what each layer metric is meant to move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
RELATOR_LENGTH = 1000
NODE_BUDGET = 250

END_TO_END = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TIMED_SPANS = (
    "fgraph.fold_all", "fgraph.remove_degree_one", "smallcancel.is_equal_in_G",
    "smallcancel.check_Cprime",
    "nielsen.trace_jsonable", "words.canonical_rotation", "whitehead.minimize",
    "whitehead.apply_move", "whitehead.canonical_orbit_form",
    "whitehead.verify_certificate", "whitehead.certificate_jsonable",
    "readability.is_readable",
)
SELF_ONLY_SPANS = (
    "nielsen.reduce_tuple", "nielsen.verify_trace", "whitehead.same_orbit",
    "iso.decide_isomorphic", "genericity.check_membership",
)
COUNTERS = (
    "fgraph.FGraph.basis_data.calls", "fgraph.FGraph.is_connected.calls",
    "fgraph.fold_records", "fgraph.strip_records", "nielsen.trace_records",
    "nielsen.hop_records", "whitehead.certificate_moves",
    "readability.nodes_expanded", "genericity.c3_checked_subwords",
)
PER_LAYER = {
    **{f"{n}.{k}": u for n in TIMED_SPANS
       for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **{f"{n}.self_s": "s" for n in SELF_ONLY_SPANS},
    **{n: "count" for n in COUNTERS},
    "readability.nodes_per_s": "1/s",
    "readability.unknown_share": "ratio",
    "verify_p50_s": "s",
    "certificate_kb": "KiB",
    "trace.overhead_s": "s",
}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_relfold():
    """Import relfold from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import relfold
        import relfold.genericity
        import relfold.iso
        import relfold.nielsen
        import relfold.smallcancel
        import relfold.whitehead
        import relfold.words
    except ImportError as exc:
        die(f"cannot import relfold from {src}: {exc}")
    if Path(relfold.__file__).resolve().parent.parent != src.resolve():
        die(f"relfold was imported from {relfold.__file__}, not from {src}")
    return relfold


def check_spec() -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if listed != ours:
            die(f"BENCHMARK.json {key} does not match bench/run.py")


@dataclass
class Outcome:
    """One request: timings, the verdict document, and counts from it."""

    verdict_s: float
    verify_s: float
    total_s: float
    doc: dict
    verified: bool = True  # the library's own verifier accepted the certificate
    certificate_bytes: int | None = None
    counts: dict = field(default_factory=dict)
    digest: str = ""  # sha256 of the sorted-key JSON of ``doc``


def json_size(doc) -> int:
    return len(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """``setup(rng)`` draws the inputs of one pass, ``request(input)`` runs
    and times one request, ``check(input, outcome)`` names what is wrong
    with its verdict (or returns None), and ``design(calls)`` does the same
    for the span counts of a traced request."""

    def design(self, calls: dict) -> str | None:
        return None


@dataclass(frozen=True)
class ReduceInput:
    m: int
    presentation: object
    tpl: tuple


class Reduce(Workload):
    """``reduce_tuple`` then ``verify_trace`` on Nielsen-scrambled bases,
    against one class relator of length 1000 per rank."""

    def __init__(self, rf):
        self.rf = rf

    def presentation(self, m: int, rng):
        smallcancel = self.rf.smallcancel
        lam = self.rf.genericity.default_params(m).lam
        alphabet = self.rf.words.Alphabet(m)
        while True:
            r = inputs.random_cyclic(m, RELATOR_LENGTH, rng)
            if oracle.power_root(r)[1] > 1:
                continue
            p = smallcancel.Presentation(alphabet, (r,))
            if smallcancel.check_Cprime(p, lam).ok:
                return p

    def setup(self, rng) -> list:
        ps = {m: self.presentation(m, rng) for m in (2, 3)}
        targets = inputs.stratum_midpoints(80, 120, 96)
        ranks = [2 + k % 2 for k in range(len(targets))]
        tuples = [inputs.scrambled_tuple(m, t, rng) for m, t in zip(ranks, targets)]
        items = [ReduceInput(m, ps[m], t) for m, t in zip(ranks, tuples)]
        return [items[k] for k in inputs.spread_order(len(items))]

    def request(self, inp: ReduceInput) -> Outcome:
        nielsen = self.rf.nielsen
        params = self.rf.genericity.default_params(inp.m)
        t0 = perf_counter()
        verdict = nielsen.reduce_tuple(inp.tpl, inp.presentation, params)
        t1 = perf_counter()
        if verdict.trace is None:
            return Outcome(t1 - t0, 0.0, t1 - t0, {"kind": verdict.kind}, verified=False)
        verified = nielsen.verify_trace(verdict.trace, inp.presentation)
        t2 = perf_counter()
        trace_doc = nielsen.trace_jsonable(verdict.trace)
        t3 = perf_counter()
        records = [record for record, _ in verdict.trace.steps]
        counts = {
            "nielsen.trace_records": len(records),
            "nielsen.hop_records": sum(bool(r.detail.get("base_hop")) for r in records),
        }
        return Outcome(t1 - t0, t2 - t1, t3 - t0, {"kind": verdict.kind, "trace": trace_doc},
                       verified, json_size(trace_doc), counts)

    def check(self, inp: ReduceInput, out: Outcome) -> str | None:
        if out.doc["kind"] != "WholeGroup":
            return f"verdict {out.doc['kind']}, expected WholeGroup"
        dehn = oracle.Dehn(inp.presentation.relators)
        return oracle.check_trace(out.doc["trace"], inp.tpl, inp.m, dehn)

    def design(self, calls: dict) -> str | None:
        if calls.get("smallcancel.find_long_relator_path", 0):
            return "scrambled request ran the long-relator scan"
        return None


@dataclass(frozen=True)
class OrbitInput:
    m: int
    p1: object
    p2: object
    isomorphic: bool


class Orbit(Workload):
    """``decide_isomorphic(..., assume_in_class=True)`` then
    ``verify_certificate`` at rank 2 on relators of length 60.  A third of
    the pairs are isomorphic by construction; the rest differ in an
    Aut(F)-invariant and make the search walk a whole level set.  The
    search costs the same on every pair of the second kind and varies on
    the first, so the two-to-one mix keeps the median inside the steady
    cluster."""

    M, LENGTH = 2, 60
    PATTERN = (True, False, False) * 18  # isomorphic?

    def __init__(self, rf):
        self.rf = rf

    def setup(self, rng) -> list:
        alphabet = self.rf.words.Alphabet(self.M)
        Presentation = self.rf.smallcancel.Presentation
        items = []
        for isomorphic in self.PATTERN:
            if isomorphic:
                r1 = inputs.random_cyclic(self.M, self.LENGTH, rng)
                r2 = inputs.isomorphic_partner(r1, self.M, rng)
            else:
                r1, r2 = inputs.independent_pair(self.M, self.LENGTH, rng)
            items.append(OrbitInput(self.M, Presentation(alphabet, (r1,)),
                                    Presentation(alphabet, (r2,)), isomorphic))
        return items

    def request(self, inp: OrbitInput) -> Outcome:
        iso, whitehead = self.rf.iso, self.rf.whitehead
        params = self.rf.genericity.default_params(inp.m)
        t0 = perf_counter()
        verdict = iso.decide_isomorphic(inp.p1, inp.p2, params, assume_in_class=True)
        t1 = perf_counter()
        verified = True
        if verdict.certificate is not None:
            verified = whitehead.verify_certificate(verdict.certificate, inp.m)
        t2 = perf_counter()
        doc = iso.verdict_jsonable(verdict)
        t3 = perf_counter()
        if doc["certificate"] is None:
            return Outcome(t1 - t0, 0.0, t3 - t0, doc)
        counts = {"whitehead.certificate_moves": len(verdict.certificate.moves)}
        return Outcome(t1 - t0, t2 - t1, t3 - t0, doc, verified,
                       json_size(doc["certificate"]), counts)

    def check(self, inp: OrbitInput, out: Outcome) -> str | None:
        expected = "Isomorphic" if inp.isomorphic else "NotIsomorphic"
        if out.doc["kind"] != expected:
            return f"verdict {out.doc['kind']}, expected {expected}"
        if not out.doc["conditional"]:
            return "assumed membership but the verdict is not conditional"
        if inp.isomorphic:
            return oracle.check_orbit_certificate(
                out.doc["certificate"], inp.p1.relators[0], inp.p2.relators[0], inp.m)
        return None


@dataclass(frozen=True)
class MembershipInput:
    m: int
    t: int
    index: int
    presentation: object
    expected: dict


class Membership(Workload):
    """``check_membership`` with the default parameters and a node budget
    on presentations from a fixed pool whose verdicts are committed."""

    PER_CLUSTER = 32

    def __init__(self, rf):
        self.rf = rf
        path = Path(__file__).resolve().parent / "membership_expected.json"
        self.expected = json.loads(path.read_text())

    def setup(self, rng) -> list:
        Presentation, Alphabet = self.rf.smallcancel.Presentation, self.rf.words.Alphabet
        clusters = []
        for m, t in inputs.MEMBERSHIP_SIZES:
            rows = self.expected[f"m{m}-t{t}"]
            picked = []
            for index in rng.sample(range(len(rows)), self.PER_CLUSTER):
                r = inputs.pool_relator(m, t, index)
                if inputs.relator_digest(r) != rows[index]["relator"]:
                    raise RuntimeError(f"pool relator m{m}-t{t}/{index} differs from the expected list")
                picked.append(MembershipInput(m, t, index, Presentation(Alphabet(m), (r,)),
                                              rows[index]))
            clusters.append(picked)
        return [item for group in zip(*clusters) for item in group]

    def request(self, inp: MembershipInput) -> Outcome:
        genericity = self.rf.genericity
        params = genericity.default_params(inp.m)
        t0 = perf_counter()
        report = genericity.check_membership(inp.presentation, params, NODE_BUDGET)
        t1 = perf_counter()
        doc = genericity.membership_report_jsonable(report)
        t2 = perf_counter()
        return Outcome(t1 - t0, 0.0, t2 - t0, doc)

    def check(self, inp: MembershipInput, out: Outcome) -> str | None:
        doc, want = out.doc, inp.expected
        if (doc["verdict"], doc["failed_condition"]) != (want["verdict"], want["failed_condition"]):
            return (f"verdict {doc['verdict']}/{doc['failed_condition']}, expected "
                    f"{want['verdict']}/{want['failed_condition']}")
        relators = inp.presentation.relators
        if doc["failed_condition"] == "C1":
            lam = self.rf.genericity.default_params(inp.m).lam
            return oracle.check_c1_piece(doc["C1"]["piece"], relators,
                                         doc["C1"]["relator_index"], lam)
        if doc["failed_condition"] == "C2":
            for row in doc["C2"]:
                if row["is_proper_power"]:
                    return oracle.check_c2_power(row["root"], row["exponent"],
                                                 relators[row["relator_index"]])
        return None


def make_workload(name: str, rf):
    if name == "reduce-scrambled":
        return Reduce(rf)
    if name == "orbit":
        return Orbit(rf)
    return Membership(rf)


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Sample:
    index: int
    traced: bool
    outcome: Outcome | None
    error: str | None
    calls: dict
    failure: str | None = None


def measure(workload, items: list, seconds: float, traced: bool, rf, between_passes=None):
    """Closed loop over passes of ``items``; with ``traced`` the first pass
    runs bare and the later ones under the tracer.  ``between_passes`` is
    called before every pass but the first."""
    samples: list[Sample] = []
    seen: set[int] = set()
    tracer = None
    start = perf_counter()
    passes = 0
    min_passes = 2 if traced else 1
    try:
        while passes < min_passes or perf_counter() - start < seconds:
            if passes and between_passes:
                between_passes()
            if traced and passes == 1:
                tracer = tracing.Tracer()
                tracing.install(tracer, rf)
            for index, item in enumerate(items):
                if passes >= min_passes and perf_counter() - start >= seconds:
                    break
                gc.collect()
                before = tracer.snapshot() if tracer else {}
                try:
                    outcome, error = workload.request(item), None
                except Exception as exc:  # counted as a failed request
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    text = json.dumps(outcome.doc, sort_keys=True).encode()
                    outcome.digest = hashlib.sha256(text).hexdigest()
                    if index in seen:
                        outcome.doc = None  # only the first pass's documents are checked
                    seen.add(index)
                calls = {}
                if tracer:
                    after = tracer.snapshot()
                    calls = {k: v - before.get(k, 0) for k, v in after.items()}
                samples.append(Sample(index, tracer is not None, outcome, error, calls))
            passes += 1
    finally:
        if tracer:
            tracer.restore()
    return samples, tracer


def evaluate(workload, items, samples):
    """Per-request failures and the verdict digest of the first pass."""
    reference, problems = {}, {}
    for s in samples:
        if s.index not in reference and s.outcome is not None:
            reference[s.index] = s.outcome.digest
            try:
                problems[s.index] = workload.check(items[s.index], s.outcome)
            except Exception as exc:  # a malformed certificate fails its check
                problems[s.index] = f"check raised {type(exc).__name__}: {exc}"
    failures = []
    for s in samples:
        why = s.error
        if why is None and s.outcome.digest != reference[s.index]:
            why = "verdict differs from the first pass on the same input"
        elif why is None:
            why = (problems[s.index]
                   or (not s.outcome.verified and "the library verifier rejected the certificate")
                   or (s.traced and workload.design(s.calls))
                   or None)
        s.failure = why
        if why:
            failures.append({"input": s.index, "traced": s.traced, "why": why})
    digest = hashlib.sha256(
        json.dumps([reference.get(k) for k in range(len(items))]).encode()
    ).hexdigest()
    return failures, digest


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 21:
        return None  # no percentile above the median has ten samples beyond it
    ordered = sorted(values)
    k = len(ordered) - 11
    return {"value_s": ordered[k], "percentile": round(100 * (k + 1) / len(ordered), 1),
            "samples": len(ordered)}


def layer_metrics(tracer, samples, bare, report):
    traced = [s for s in samples if s.traced and s.outcome is not None]
    n = max(len(traced), 1)
    out = {}
    for name in TIMED_SPANS:
        calls, total, self_s = tracer.spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / n
        out[f"{name}.s"] = total / n
        out[f"{name}.self_s"] = self_s / n
    for name in SELF_ONLY_SPANS:
        out[f"{name}.self_s"] = tracer.spans.get(name, (0, 0.0, 0.0))[2] / n
    counts = dict(tracer.counts)
    counts["fgraph.FGraph.basis_data.calls"] = counts.pop("fgraph.FGraph.basis_data", 0)
    counts["fgraph.FGraph.is_connected.calls"] = counts.pop("fgraph.FGraph.is_connected", 0)
    for s in traced:
        for k, v in s.outcome.counts.items():
            counts[k] = counts.get(k, 0) + v
    for name in COUNTERS:
        out[name] = counts.get(name, 0) / n
    readable = tracer.spans.get("readability.is_readable", (0, 0.0, 0.0))
    nodes = counts.get("readability.nodes_expanded", 0)
    out["readability.nodes_per_s"] = nodes / readable[1] if readable[1] else 0.0
    out["readability.unknown_share"] = (
        counts.get("readability.unknown", 0) / readable[0] if readable[0] else 0.0)
    verify = [s.outcome.verify_s for s in bare if s.outcome.certificate_bytes is not None]
    sizes = [s.outcome.certificate_bytes for s in bare if s.outcome.certificate_bytes is not None]
    out["verify_p50_s"] = statistics.median(verify) if verify else 0.0
    out["certificate_kb"] = statistics.fmean(sizes) / 1024 if sizes else 0.0
    base = {s.index: s.outcome.total_s for s in bare}
    diffs = [s.outcome.total_s - base[s.index] for s in traced if s.index in base]
    out["trace.overhead_s"] = statistics.fmean(diffs) if diffs else 0.0
    total = sum(s.outcome.total_s for s in traced)
    report["layer_share_of_traced_time"] = {
        name: round(row[1] / total, 4) for name, row in sorted(tracer.spans.items())
    } if total else {}
    report["span_edges"] = [
        {"parent": p, "child": c, "calls": row[0], "s": round(row[1], 4)}
        for (p, c), row in sorted(tracer.edges.items(), key=lambda kv: -kv[1][1])
    ]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reduce-scrambled", "orbit", "membership"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    check_spec()
    rf = import_relfold()
    workload = make_workload(args.workload, rf)

    # Each set-up repeat draws fresh inputs from its own sub-seed, so no
    # repeat is served by caches the previous one filled; the first
    # repeat's inputs are the ones measured.  The untraced run spreads the
    # other repeats over the run, one before each pass, so that the median
    # samples the same stretch of time as the requests.
    def setup_repeat():
        rng = random.Random(f"{args.workload}/{args.seed}/{len(setup_times)}")
        t0 = perf_counter()
        drawn = workload.setup(rng)
        setup_times.append(perf_counter() - t0)
        return drawn

    setup_times: list[float] = []
    items = setup_repeat()

    def between_passes():
        if len(setup_times) < SETUP_REPEATS:
            setup_repeat()

    samples, tracer = measure(workload, items, args.seconds, bool(args.trace), rf,
                              None if args.trace else between_passes)
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        setup_repeat()
    failures, digest = evaluate(workload, items, samples)
    done = [s for s in samples if s.outcome is not None]
    bare = [s for s in done if not s.traced]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": len(items),
        "verdict_digest": digest,
        "failed_share": len(failures) / len(samples),
        "failures": failures[:10],
    }
    if args.trace:
        metrics = {k: (v, PER_LAYER[k]) for k, v in layer_metrics(tracer, samples, bare, report).items()}
    else:
        verdict_times = [s.outcome.verdict_s for s in done] or [0.0]
        # Each input's request time is averaged over its repeats, so runs
        # that stop at different points of a pass weigh inputs alike.
        repeats = defaultdict(list)
        for s in done:
            repeats[s.index].append(s.outcome.total_s)
        pass_s = sum(statistics.fmean(v) for v in repeats.values())
        passed = sum(not s.failure for s in done) / len(samples)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "verdict_p50_s": (statistics.median(verdict_times), "s"),
            "verdicts_per_s": (passed * len(repeats) / pass_s if pass_s else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["verdict_tail"] = tail(verdict_times)
        verify = [s.outcome.verify_s for s in done if s.outcome.certificate_bytes is not None]
        report["verify_p50_s"] = statistics.median(verify) if verify else None
        report["setup_times_s"] = setup_times
    print(json.dumps(report, indent=1), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
