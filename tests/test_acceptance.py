"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its measured runtime against the stated limit.
Criterion 9 is a documented long-running reproduction (see README) and is
skipped here.
"""

import random
import time
from itertools import permutations

import pytest

from fourier_minors import (IndexSet, ScanConfig, SearchConfig,
                            cyclotomic_polynomial, find_good_permutation,
                            is_good_permutation, is_singular, is_square_free,
                            ring_new, scan_all, det_exact,
                            verify_theorem1, witness_sweep)
from fourier_minors.cyclotomic import divisors

from conftest import cached_scan, full_singularity_map, leibniz_det
from oracles import poly_mul, ring_add, ring_mul, shift_identity_check


def report(num, ok, detail, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {limit:.0f}s" if limit else "")
    print(f"\n[criterion {num}] {status}  {detail} ({timing})", flush=True)
    assert ok, f"criterion {num}: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_n4_fixture():
    start = time.perf_counter()
    rep = scan_all(4)
    elapsed = time.perf_counter() - start
    ok = rep.counts == {1: 0, 2: 2, 3: 0, 4: 0} and rep.exemplars[2] == [(0, 2), (1, 3)]
    report(1, ok, "scan_all(4): exactly {0,2} and {1,3}, both size 2", elapsed, 1.0)


def test_criterion_2_small_minor_sweep_to_150():
    start = time.perf_counter()
    moduli = [n for n in range(4, 151) if is_square_free(n)]
    failures = [n for n in moduli if not verify_theorem1(n).passed]
    elapsed = time.perf_counter() - start
    report(2, not failures,
           f"no vanishing 2x2/3x3 minor for all {len(moduli)} square-free N in [4,150]",
           elapsed, 120.0)


def test_criterion_3_witness_sweeps():
    start = time.perf_counter()
    moduli = (4, 8, 9, 12, 16, 18, 20, 25, 27)
    total = 0
    ok = True
    for n in moduli:
        plans = witness_sweep(n)
        total += len(plans)
        ok = ok and [p.size for p in plans] == list(range(2, n - 1))
    elapsed = time.perf_counter() - start
    report(3, ok, f"{total} verified singular witnesses across N in {moduli}",
           elapsed, 120.0)


def test_criterion_4_square_free_scans():
    start = time.perf_counter()
    ok = True
    for n in (5, 6, 7, 10, 11, 13, 14, 15):
        rep = scan_all(n)
        ok = ok and rep.prefilter_hits == 0 and all(c == 0 for c in rep.counts.values())
    elapsed_exact = time.perf_counter() - start
    report(4, ok, "exact scans: no vanishing principal minor, N in {5..15} square-free",
           elapsed_exact, 300.0)

    start = time.perf_counter()
    for n in (17, 19, 21, 22):
        rep = scan_all(n, exact=False)
        ok = ok and rep.prefilter_hits > 0 and all(c == 0 for c in rep.counts.values())
    elapsed_ext = time.perf_counter() - start
    report("4 (extended)", ok,
           "prefilter-assisted scans with exact zero confirmation, N in {17,19,21,22}",
           elapsed_ext, 3600.0)


def test_criterion_5_witnesses_agree_with_scans():
    start = time.perf_counter()
    ok = True
    for n in (8, 9, 12, 16, 18):
        rep = cached_scan(n)
        plans = witness_sweep(n)
        for plan in plans:
            ok = ok and rep.counts[plan.size] >= 1
            ok = ok and is_singular(plan.index_set)
        ok = ok and all(rep.counts[r] >= 1 for r in range(2, n - 1))
    elapsed = time.perf_counter() - start
    report(5, ok, "scan counts cover every size 2..N-2 and agree with witnesses",
           elapsed)


def test_criterion_6_reduction_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        reduced = scan_all(n)
        plain = scan_all(n, ScanConfig(use_complement=False, use_shift_classes=False))
        ok = ok and reduced.counts == plain.counts
    elapsed = time.perf_counter() - start
    report(6, ok, "reduced and reduction-free scans agree for all N <= 12",
           elapsed, 300.0)


def test_criterion_7_invariant_suites():
    start = time.perf_counter()
    rng = random.Random(7)
    ok = True

    # complementarity and shift invariance, exhaustive to N = 14
    for n in range(2, 15):
        flags = full_singularity_map(n)
        full = (1 << n) - 1
        for mask, singular in flags.items():
            comp = full & ~mask
            if comp:
                ok = ok and flags[comp] == singular
            else:
                ok = ok and not singular
            rot = ((mask >> 1) | (mask << (n - 1))) & full
            ok = ok and flags[rot] == singular

    # translation prefactor identity on 500 random cases
    for _ in range(500):
        n = rng.randrange(2, 21)
        r = rng.randrange(1, min(6, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        ok = ok and shift_identity_check(ring_new(n), k)

    # determinant oracle equivalence on 200 random sets
    for _ in range(200):
        n = rng.randrange(2, 21)
        r = rng.randrange(1, min(6, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        exps = [[x * y for y in k] for x in k]
        ok = ok and det_exact(n, exps) == leibniz_det(n, exps)

    # ring axioms on 1000 random triples per modulus, each sum and product
    # reduced through element
    for n in (4, 6, 9, 12, 16):
        ring = ring_new(n)
        phi = ring.totient
        for _ in range(1000):
            a, b, c = (
                ring.element([rng.randrange(-9, 10) for _ in range(phi)])
                for _ in range(3)
            )
            add, mul = ring_add, ring_mul
            ok = ok and add(add(a, b), c) == add(a, add(b, c))
            ok = ok and mul(mul(a, b), c) == mul(a, mul(b, c))
            ok = ok and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    # cyclotomic factorization of x^N - 1 for all N <= 200
    for n in range(1, 201):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        ok = ok and prod == [-1] + [0] * (n - 1) + [1]

    elapsed = time.perf_counter() - start
    report(7, ok, "complementarity, translation, oracle, ring axiom and "
                  "factorization invariants", elapsed, 600.0)


def test_criterion_8_search_small_moduli():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        outcome = find_good_permutation(SearchConfig(n))
        ok = ok and outcome.found is not None
        ok = ok and is_good_permutation(n, outcome.found)
    for n in range(1, 7):
        brute = {img for img in permutations(range(n)) if is_good_permutation(n, img)}
        outcome = find_good_permutation(SearchConfig(n))
        ok = ok and (outcome.found is not None) == bool(brute)
        ok = ok and (outcome.found is None or outcome.found.image in brute)
    elapsed = time.perf_counter() - start
    report(8, ok, "good permutations found and re-verified for N = 1..10; "
                  "brute-force agreement to N = 6", elapsed, 1800.0)


@pytest.mark.skip(reason="documented long-running reproduction: exhausting the "
                         "N=16 sigma(0) = 0 tree takes about 7 min of one core "
                         "with most-constrained; a separate CI job reruns it, and "
                         "census/README.md has the checkpointed command")
def test_criterion_9_n16_exhaustion_documented():
    outcome = find_good_permutation(
        SearchConfig(16, order="most-constrained", checkpoint_path="n16.ckpt")
    )
    assert outcome.exhausted and outcome.found is None
