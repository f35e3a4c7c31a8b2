"""Acceptance suite: one test per acceptance criterion, budgets asserted.

Each test prints a single summary line with the measured runtime so a
verbose run reads as a per-criterion pass/fail report.  Heavy sweeps are
exact — no sampling shortcuts where a criterion demands exhaustiveness.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

from scipy.stats import chisquare

from relfold import codec, nielsen
from relfold.fgraph import FGraph, Path
from relfold.genericity import (
    UNDETERMINED,
    check_membership,
    default_params,
    sample_genericity,
)
from relfold.iso import ISOMORPHIC, NOT_ISOMORPHIC, decide_isomorphic
from relfold.nielsen import (
    NOT_IN_CLASS,
    WHOLE_GROUP,
    C3Witness,
    reduce_tuple,
    verify_trace,
    verify_witness,
    witness_graph,
)
from relfold.readability import READABLE, ReadabilityQuery, is_readable
from relfold.smallcancel import (
    Presentation,
    check_Cprime,
    dehn_reduce,
    find_long_relator_path,
    max_piece,
)
from relfold.whitehead import (
    apply_move,
    minimize,
    multiplier_moves,
    same_orbit,
    verify_certificate,
)
from relfold.words import (
    Alphabet,
    concat,
    count_cyclically_reduced,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    is_proper_power,
    parse_word,
    random_cyclically_reduced,
    random_cyclically_reduced_up_to,
)
from oracles import (
    cyclic_word,
    enumerate_reduced,
    oracle_is_readable,
    oracle_max_piece,
    relabel_moves,
)

A2 = Alphabet(2)
SEED = 20250818


def report(n, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"criterion {n} ({label}): PASS in {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.1f}s"


def cyclically_reduced_words(m, t):
    return [w for w in enumerate_reduced(m, t) if w[0] != -w[-1]]


def test_criterion_1_word_kernel_exactness():
    t0 = time.monotonic()
    for t in range(1, 9):
        assert count_cyclically_reduced(2, t) == len(cyclically_reduced_words(2, t)), t

    rng = random.Random(SEED)
    draws = Counter(random_cyclically_reduced(2, 4, rng) for _ in range(100_000))
    support = cyclically_reduced_words(2, 4)
    assert set(draws) <= set(support)
    stat, p = chisquare([draws.get(w, 0) for w in support])
    assert p > 0.01, f"uniformity rejected at 99% confidence: p = {p:.4f}"
    report(1, "word kernel exactness", t0, 60)


def test_criterion_2_readability_oracle_equivalence():
    t0 = time.monotonic()
    mus = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    checks = 0
    for length in range(1, 9):
        for w in enumerate_reduced(2, length):
            for mu in mus:
                for rank_bound in (0, 1, 2):
                    for flag in (False, True):
                        query = ReadabilityQuery(w, 2, mu, rank_bound,
                                                 require_low_degree=flag)
                        got = is_readable(query).verdict == READABLE
                        want = oracle_is_readable(query)
                        assert got == want, (w, mu, rank_bound, flag)
                        checks += 1
    assert checks == 4 * sum(4 * 3 ** (t - 1) for t in range(1, 9)) * 3 * 2

    fixed_yes = ReadabilityQuery(parse_word("ababab"), 2, Fraction(1, 3), 1)
    assert is_readable(fixed_yes).verdict == READABLE
    fixed_no = ReadabilityQuery(parse_word("abAB"), 2, Fraction(1, 2), 1)
    assert is_readable(fixed_no).verdict != READABLE
    report(2, "readability oracle equivalence", t0, 600)


def test_criterion_2_membership_sweep_at_budget_20000(default_class_relator):
    # 80 times the membership bench's node budget of 250.
    p = Presentation(A2, (parse_word(default_class_relator),))
    t0 = time.monotonic()
    rep = check_membership(p, default_params(2), node_budget=20000)
    assert rep.verdict == UNDETERMINED
    report(2, "membership sweep at node budget 20000", t0, 0.5)


def test_criterion_3_small_cancellation_exactness():
    t0 = time.monotonic()
    _, ratio = max_piece(Presentation(Alphabet(4), (parse_word("abABcdCD", 4),)))
    assert ratio == Fraction(1, 8)
    _, ratio = max_piece(Presentation(A2, (parse_word("aabb"),)))
    assert ratio == Fraction(1, 4)

    rng = random.Random(SEED)
    for _ in range(100):
        relators = tuple(
            random_cyclically_reduced(2, rng.randrange(2, 61), rng)
            for _ in range(rng.randrange(1, 3))
        )
        p = Presentation(A2, relators)
        assert max_piece(p) == oracle_max_piece(p), relators

    while True:
        r1 = random_cyclically_reduced(2, 120, rng)
        r2 = random_cyclically_reduced(2, 90, rng)
        if is_proper_power(r1) or is_proper_power(r2):
            continue
        p6 = Presentation(A2, (r1, r2))
        if check_Cprime(p6, Fraction(1, 6)).ok:
            break
    for _ in range(100):
        w = ()
        for _ in range(rng.randrange(1, 4)):
            rel = rng.choice(p6.relators)
            if rng.random() < 0.5:
                rel = inverse(rel)
            c = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 6)))
            w = free_reduce(concat(w, c, rel, inverse(c)))
        assert dehn_reduce(w, p6) == (), w
    report(3, "small cancellation exactness", t0, 120)


def test_criterion_4_whitehead_correctness():
    t0 = time.monotonic()
    moves = list(relabel_moves(2)) + list(multiplier_moves(2))

    # Exhaustive BFS oracle over canonical cyclic words, length cap 8.
    # The orbit relation matches same_orbit: moves plus inversion.
    classes = sorted(
        {cyclic_word(w) for t in range(1, 7) for w in cyclically_reduced_words(2, t)},
        key=lambda w: (len(w), w),
    )
    univ = {cyclic_word(w) for t in range(1, 9) for w in cyclically_reduced_words(2, t)}
    adjacency = {}
    for u in univ:
        nbrs = {cyclic_word(inverse(u))}
        for mv in moves:
            v = cyclic_word(apply_move(u, mv))
            if v in univ:
                nbrs.add(v)
        adjacency[u] = nbrs
    component = {}
    for root in sorted(univ, key=lambda w: (len(w), w)):
        if root in component:
            continue
        component[root] = root
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in component:
                    component[y] = root
                    queue.append(y)

    shortest = {}
    for w, root in component.items():
        if root not in shortest or len(w) < shortest[root]:
            shortest[root] = len(w)
    for u in classes:
        got, _ = minimize(u, 2)
        assert len(got) == shortest[component[u]], u

    positives = 0
    for u, v in combinations(classes, 2):
        cert = same_orbit(u, v, 2)
        assert (cert is not None) == (component[u] == component[v]), (u, v)
        if cert is not None:
            positives += 1
            assert verify_certificate(cert, 2), (u, v)
    assert positives > 0

    assert len(minimize(parse_word("aab"), 2)[0]) == 1
    assert same_orbit(parse_word("abAB"), (1,), 2) is None

    rng = random.Random(SEED)
    for _ in range(20):
        r = random_cyclically_reduced(2, 20, rng)
        image = r
        for _ in range(5):
            image = apply_move(image, rng.choice(moves))
        cert = same_orbit(r, image, 2)
        assert cert is not None, (r, image)
        assert verify_certificate(cert, 2), (r, image)
    report(4, "whitehead correctness", t0, 300)


def test_criterion_4_orbit_search_at_length_2000():
    # Least rotation and the orbit search's per-move cost are linear in the
    # word length; with the quadratic rotation this call took 48 s on a
    # 2-core host.
    r = random_cyclically_reduced(2, 2000, random.Random(SEED))
    t0 = time.monotonic()
    cert = same_orbit(r, r, 2)
    assert cert is not None and verify_certificate(cert, 2)
    report(4, "orbit search at |r| = 2000", t0, 5)


def test_criterion_4_minimize_at_rank_4():
    # ROADMAP item 7's done line: moves are scored on the Whitehead graph,
    # so only a shortening move's image is built (0.15 s when all 512
    # images were built).
    r = random_cyclically_reduced(4, 1000, random.Random(SEED))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        word, _ = minimize(r, 4)
        times.append(time.perf_counter() - t0)
    assert len(word) <= len(r)
    median = sorted(times)[1]
    print(f"criterion 4 (minimize at m = 4, |r| = 1000): median {median:.4f}s (budget 0.05s)")
    assert median < 0.05, f"minimize took {median:.4f}s"


def scrambled_tuple(rng, m, moves=10, conj=8):
    """A free basis: elementary Nielsen moves on (a_1..a_m), then conjugate."""
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


def test_criterion_5_nielsen_driver_desk_scale():
    t0 = time.monotonic()
    params = default_params(2)
    rng = random.Random(SEED)
    while True:
        r = random_cyclically_reduced(2, 1000, rng)
        if is_proper_power(r):
            continue
        p = Presentation(A2, (r,))
        if check_Cprime(p, params.lam).ok:
            break

    # Certified on conditions 1 and 2; condition 3 runs under a node budget
    # and is conditionally assumed when the budget cannot settle it.
    rep = check_membership(p, params, node_budget=2000)
    assert rep.c1.ok
    assert not any(st.is_power for st in rep.c2)
    assert rep.verdict in ("InClass", "Undetermined")

    for i in range(100):
        tpl = scrambled_tuple(rng, 2)
        verdict = reduce_tuple(tpl, p, params)
        # every fired AO surgery asserts a strict edge-count decrease inline
        assert verdict.kind == WHOLE_GROUP, (i, verdict.kind)
        assert verify_trace(verdict.trace, p), i
    report(5, "tuple reduction at desk scale", t0, 600)


def grown_scrambled_tuple(rng, m, target, conj=8):
    """A free basis of total length about ``target``: elementary Nielsen
    moves on (a_1..a_m) until the conjugated entries reach ``target``
    letters, skipping any move that overshoots it by more than a tenth."""
    c = free_reduce([rng.choice([1, -1, 2, -2]) for _ in range(conj)])

    def conjugated(entries):
        return tuple(free_reduce(concat(c, w, inverse(c))) for w in entries)

    entries = [(i,) for i in range(1, m + 1)]
    while sum(map(len, conjugated(entries))) < target:
        i, j = rng.sample(range(m), 2)
        other = entries[j] if rng.random() < 0.5 else inverse(entries[j])
        pair = (entries[i], other) if rng.random() < 0.5 else (other, entries[i])
        trial = entries[:i] + [free_reduce(concat(*pair))] + entries[i + 1:]
        if sum(map(len, conjugated(trial))) <= 1.1 * target:
            entries = trial
    return conjugated(entries)


def test_criterion_5_nielsen_driver_at_2600_letters():
    # One Fold record per fold phase keeps both the reduction and the
    # trace linear-ish: per-fold records took 17.4 s + 5.9 s here, with a
    # 5.2 MB trace.
    params = default_params(2)
    rng = random.Random(SEED + 5)
    while True:
        r = random_cyclically_reduced(2, 1000, rng)
        if is_proper_power(r):
            continue
        p = Presentation(A2, (r,))
        if check_Cprime(p, params.lam).ok:
            break
    tpl = grown_scrambled_tuple(rng, 2, 2600)
    assert 2600 <= sum(map(len, tpl)) <= 2860
    t0 = time.monotonic()
    verdict = reduce_tuple(tpl, p, params)
    assert verdict.kind == WHOLE_GROUP
    assert verify_trace(verdict.trace, p)
    size = len(json.dumps(codec.trace_jsonable(verdict.trace)))
    assert size < 100_000, size
    report(5, f"reduce + verify at {sum(map(len, tpl))} letters, {size} B trace", t0, 10)


def test_criterion_5_reduce_relator_at_5000():
    # The tuple carries the relator, so the long-relator scan and an AO
    # surgery run on a 5000-vertex loop.  A table over every position and
    # vertex took about 1 s at |r| = 1000 and 3.8 s at |r| = 2000 (2-core
    # host, Python 3.11.7).
    params = default_params(2)
    rng = random.Random(SEED + 50)
    while True:
        r = random_cyclically_reduced(2, 5000, rng)
        if is_proper_power(r):
            continue
        p = Presentation(A2, (r,))
        if check_Cprime(p, params.lam).ok:
            break
    tpl = (free_reduce(concat((2,), r, (-2, 1))), (2,))
    t0 = time.monotonic()
    verdict = reduce_tuple(tpl, p, params)
    assert verdict.kind == WHOLE_GROUP
    assert "AO" in [rec.kind for rec, _ in verdict.trace.steps]
    assert verify_trace(verdict.trace, p)
    report(5, "reduce + verify of (b·r·b⁻¹·a, b) at |r| = 5000", t0, 1)


def test_criterion_6_driver_self_certification():
    t0 = time.monotonic()
    params = default_params(2)

    # The sample out-of-class presentation: a proper power is caught by the
    # precheck, and its decomposition is re-checkable exactly.
    p50 = Presentation(A2, (tuple([1, 2] * 50),))
    verdict = reduce_tuple(((1,), (2,)), p50, params)
    assert verdict.kind == NOT_IN_CLASS
    assert verdict.condition == "C2"
    (status,) = [st for st in verdict.powers if st.is_power]
    assert status.root * status.exponent == p50.relators[status.relator_index]
    assert status.exponent == 50

    # The readable-subword branch: a graph that reads a long stretch of the
    # relator with no removable window must emit a witness whose subgraph
    # passes the readability re-check, and tampered witnesses must fail it.
    g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
    pw = Presentation(A2, (tuple(parse_word("aab") * 8),))
    lrp = find_long_relator_path(g, pw, params.lam)
    assert lrp is not None
    witness = nielsen._fire_or_witness(g, lrp, pw, params)
    assert isinstance(witness, C3Witness)
    assert verify_witness(witness, pw, params)
    assert 2 * len(witness.subword) > len(pw.relators[witness.relator_index])
    wg = witness_graph(witness)
    assert wg.num_edges() <= len(witness.subword) // 2
    assert all(wg.degree(v) <= 4 for v in wg.vertices)

    import dataclasses
    shortened = dataclasses.replace(
        witness,
        subword=witness.subword[:-1],
        path=Path(witness.path.start, witness.path.steps[:-1]),
    )
    assert not verify_witness(shortened, pw, params)
    report(6, "driver self-certification", t0, 120)


def test_criterion_7_genericity_trend():
    t0 = time.monotonic()
    params = default_params(2)
    table = sample_genericity(2, 1, [250, 500, 1000, 2000], 100, params,
                              node_budget=0, seed=SEED)
    fractions = [Fraction(row.pass_c2, row.samples) for row in table.rows]
    assert all(a <= b for a, b in zip(fractions, fractions[1:])), fractions
    assert fractions[-1] >= Fraction(95, 100), fractions
    report(7, "genericity trend", t0, 600)


def test_criterion_7_up_to_draw_at_length_2000():
    # sample_genericity(exact_length=False) draws its relators this way.
    rng = random.Random(SEED)
    t0 = time.monotonic()
    w = random_cyclically_reduced_up_to(2, 2000, rng)
    assert 1 <= len(w) <= 2000 and is_cyclically_reduced(w)
    report(7, "up-to draw at t = 2000", t0, 1)


def test_criterion_8_isomorphism_end_to_end():
    t0 = time.monotonic()
    params = default_params(2)
    moves = list(relabel_moves(2)) + list(multiplier_moves(2))
    rng = random.Random(SEED)

    for i in range(20):
        r = random_cyclically_reduced(2, 40, rng)
        image = r
        for _ in range(5):
            image = apply_move(image, rng.choice(moves))
        v = decide_isomorphic(Presentation(A2, (r,)), Presentation(A2, (image,)),
                              params, assume_in_class=True)
        assert v.kind == ISOMORPHIC, (i, v.kind)
        assert v.conditional
        assert verify_certificate(v.certificate, 2), i

    found = 0
    while found < 20:
        r1 = random_cyclically_reduced(2, 40, rng)
        r2 = random_cyclically_reduced(2, 40, rng)
        if len(minimize(r1, 2)[0]) == len(minimize(r2, 2)[0]):
            continue
        v = decide_isomorphic(Presentation(A2, (r1,)), Presentation(A2, (r2,)),
                              params, assume_in_class=True)
        assert v.kind == NOT_ISOMORPHIC, (r1, r2, v.kind)
        found += 1
    report(8, "isomorphism end to end", t0, 300)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "relfold.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    pres = tmp_path / "p.txt"
    pres.write_text("rank: 2\nrelators:\naabb\n")
    other = tmp_path / "q.txt"
    other.write_text("rank: 2\nrelators:\nabab\n")

    rng = random.Random(SEED)
    while True:
        r = random_cyclically_reduced(2, 300, rng)
        if is_proper_power(r):
            continue
        if check_Cprime(Presentation(A2, (r,)), Fraction(1, 33)).ok:
            break
    smooth = tmp_path / "smooth.txt"
    smooth.write_text("rank: 2\nrelators:\n" + "".join(
        chr(96 + x) if x > 0 else chr(64 - x) for x in r) + "\n")

    trace1, trace2 = tmp_path / "t1.json", tmp_path / "t2.json"
    csv1, csv2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    fixtures = [
        (["check", str(pres), "--json"], None, None),
        (["reduce", str(smooth), "aB", "b", "--lambda", "1/33", "--mu", "1",
          "--json", "--trace", str(trace1)],
         ["reduce", str(smooth), "aB", "b", "--lambda", "1/33", "--mu", "1",
          "--json", "--trace", str(trace2)],
         (trace1, trace2)),
        (["iso", str(pres), str(other), "--json"], None, None),
        (["sample", "--m", "2", "--n", "1", "--t", "40,60", "--samples", "5",
          "--seed", "11", "--csv", str(csv1)],
         ["sample", "--m", "2", "--n", "1", "--t", "40,60", "--samples", "5",
          "--seed", "11", "--csv", str(csv2)],
         (csv1, csv2)),
        (["sample", "--m", "2", "--n", "1", "--t", "40", "--samples", "5",
          "--seed", "11", "--json"], None, None),
        (["readable", "abAB", "--mu", "1/2", "--json"], None, None),
        (["whitehead-min", "aab", "--json"], None, None),
        (["orbit", "a", "b", "--json"], None, None),
    ]
    for first, second, files in fixtures:
        code1, out1 = run_cli(first)
        code2, out2 = run_cli(second if second is not None else first)
        assert code1 == code2, first
        assert out1 == out2, first
        if files is not None:
            f1, f2 = files
            assert f1.read_bytes() == f2.read_bytes(), first
    trace_doc = json.loads(trace1.read_text())
    assert trace_doc["final_tuple"] == ["a", "b"]
    report(9, "byte-identical reruns", t0, 120)
