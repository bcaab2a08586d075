"""Acceptance gate: the eight release criteria, each printing one line.

Everything here runs at full stated scale (the cumulative corpus of all
1252 non-isomorphic graphs on 1..7 vertices) against the independent
brute-force oracles in bruteforce.py, with exact integer comparisons.
"""

import time

import pytest

import bruteforce
from forkdiv import formats
from forkdiv.divisibility import color_by_division, is_perfectly_divisible_exact, line_graph_division, perfect_division
from forkdiv.graph import Graph, bits
from forkdiv.harness import CHECKS, enumerate_nonisomorphic, graphs_up_to, random_gnp, run_all
from forkdiv.oracles import (
    chromatic_number,
    clique_number,
    find_odd_hole,
    independence_number,
    is_perfect,
)

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@pytest.fixture(scope="module")
def corpus():
    return graphs_up_to(7)


@pytest.fixture(scope="module")
def reports(corpus):
    start = time.perf_counter()
    out = run_all(corpus, "all graphs on 1..7 vertices")
    return {r.check_id: r for r in out}, time.perf_counter() - start


def announce(capsys, ok: bool, number: int, label: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_theorem_suite(corpus, reports, capsys):
    by_id, elapsed = reports
    counts_ok = all(
        len(enumerate_nonisomorphic(n)) == want for n, want in EXPECTED_COUNTS.items()
    )
    theorems_ok = all(by_id[f"T{i}"].passed for i in range(1, 10))
    no_skips = all(not by_id[f"T{i}"].skipped for i in range(1, 10))
    ok = counts_ok and theorems_ok and no_skips and elapsed < 600
    announce(
        capsys, ok, 1,
        f"T1-T9 over {len(corpus)} graphs (n <= 7), counts verified, {elapsed:.1f}s",
    )


def test_criterion_2_conjecture_evidence(reports, capsys):
    by_id, _ = reports
    report = by_id["T10"]
    ok = report.passed and report.hypothesis_matches > 0 and not report.skipped
    announce(
        capsys, ok, 2,
        f"fork-free implies perfectly divisible on {report.hypothesis_matches} fork-free graphs",
    )
    if not report.passed:
        # a genuine counterexample would be a headline finding; surface it loudly
        for cex in report.counterexamples:
            print("COUNTEREXAMPLE", cex)


def test_criterion_3_chi_bound_audit(reports, capsys):
    by_id, _ = reports
    report = by_id["chi-audit"]
    ok = report.passed and not report.skipped
    announce(
        capsys, ok, 3,
        f"chi bounds hold with exact integers on {report.graphs_scanned} graphs",
    )


def test_criterion_4_tightness_witness(capsys):
    c5 = Graph.cycle(5)
    cert = color_by_division(c5)
    ok = (
        clique_number(c5) == 2
        and chromatic_number(c5) == 3
        and cert.palette == 3
        and cert.omega == 2
        and not cert.fallback
    )
    announce(capsys, ok, 4, "C5 meets binom(omega+1,2) with equality (palette 3)")


def test_criterion_5_division_soundness(corpus, capsys):
    failures = 0
    divided = 0
    for g in corpus:
        d = perfect_division(g)
        if d is None:
            continue
        divided += 1
        sub_a, _ = g.induced(d.a)
        sub_b, _ = g.induced(d.b)
        if not bruteforce.is_perfect(sub_a):
            failures += 1
            continue
        if g.n and bruteforce.omega(sub_b) >= bruteforce.omega(g):
            failures += 1
            continue
        cert = color_by_division(g)
        for layer in cert.layers:
            if layer.strategy == "fallback-exact":
                continue
            sub_l, _ = g.induced(layer.a)
            if bruteforce.chi(sub_l) != bruteforce.omega(sub_l):
                failures += 1
                break
    ok = failures == 0
    announce(
        capsys, ok, 5,
        f"{divided} divisions and their colour layers re-validated independently",
    )


def test_criterion_6_oracle_consistency(corpus, capsys):
    disagreements = 0
    for g in corpus:
        if is_perfect(g) != bruteforce.is_perfect(g):
            disagreements += 1
        fast = find_odd_hole(g)
        slow = bruteforce.find_odd_hole_subsets(g)
        brute = bruteforce.odd_holes(g)
        if (fast is None) != (not brute) or (slow is None) != (not brute):
            disagreements += 1
        elif fast is not None and tuple(sorted(bits(fast))) not in brute:
            disagreements += 1
        if independence_number(g) != clique_number(g.complement()):
            disagreements += 1
    ok = disagreements == 0
    announce(
        capsys, ok, 6,
        f"perfection, odd holes, and alpha/omega agree on {len(corpus)} graphs",
    )


def test_criterion_7_line_graph_proposition(capsys):
    failures = 0
    checked = 0
    for n in range(2, 7):
        for g in enumerate_nonisomorphic(n):
            if not g.is_connected():
                continue
            checked += 1
            lg, _, d = line_graph_division(g)
            sub_a, _ = lg.induced(d.a)
            sub_b, _ = lg.induced(d.b)
            if not bruteforce.is_perfect(sub_a):
                failures += 1
            elif lg.n and bruteforce.omega(sub_b) >= bruteforce.omega(lg):
                failures += 1
            if not is_perfectly_divisible_exact(lg):
                failures += 1
    ok = failures == 0 and checked > 0
    announce(
        capsys, ok, 7,
        f"{checked} connected graphs (2 <= n <= 6) divide along spanning trees"
        " and have perfectly divisible line graphs",
    )


def test_criterion_8_format_fidelity(corpus, capsys):
    failures = 0
    for g in corpus:
        line = formats.emit_graph6(g)
        if formats.parse_graph6(line) != g or formats.emit_graph6(formats.parse_graph6(line)) != line:
            failures += 1
    sampled = 0
    for seed in range(1000):
        n = 1 + seed % 20
        p = (1 + seed % 9) / 10
        g = random_gnp(n, p, seed)
        sampled += 1
        if formats.parse_graph6(formats.emit_graph6(g)) != g:
            failures += 1
    ok = failures == 0
    announce(
        capsys, ok, 8,
        f"graph6 round-trips byte-exactly on {len(corpus)} corpus graphs"
        f" and {sampled} seeded G(n,p) samples",
    )
