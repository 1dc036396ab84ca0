from contextlib import closing
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest

from fourier_minors import (IndexSet, PreconditionError, WorkerError, build_witness,
                            complement, det_exact, is_singular, is_square_free,
                            ring_new, scan_all, smallest_square_factor,
                            verify_theorem1, witness_sweep)
from fourier_minors import powerdet, theorems
from fourier_minors.cli import main
from fourier_minors.theorems import (CASE_ANCHOR_ROWS, CASE_COMPLEMENTED,
                                     ScanConfig)

from conftest import cached_scan, full_singularity_map
from oracles import det_3x3_formula


def test_is_square_free_examples():
    assert is_square_free(10)
    assert not is_square_free(12)
    assert is_square_free(1)
    assert not is_square_free(9)
    assert is_square_free(105)


def test_smallest_square_factor_examples():
    assert smallest_square_factor(12) == (2, 3)
    assert smallest_square_factor(9) == (3, 1)
    assert smallest_square_factor(18) == (3, 2)
    assert smallest_square_factor(100) == (2, 25)
    with pytest.raises(PreconditionError):
        smallest_square_factor(30)


# ---------------------------------------------------------------------------
# 2x2 / 3x3 nonvanishing


def test_theorem1_passes_for_small_square_free():
    for n in (5, 6, 7, 10, 14, 15, 21, 30):
        report = verify_theorem1(n)
        assert report.passed, n
        assert report.counterexample is None
        assert set(report.certified_sizes) == {2, 3, n - 3, n - 2}


def test_theorem1_large_modulus():
    assert verify_theorem1(105).passed
    assert verify_theorem1(143).passed
    # phi(1155) = 480: one (sets, phi) int64 array of its 3x3 sets is 2.5 GB
    report = verify_theorem1(1155)
    assert report.passed
    assert report.pairs_checked == 1154 + 1154 * 1153 // 2


def test_theorem1_rejects_non_square_free():
    with pytest.raises(PreconditionError):
        verify_theorem1(12)
    with pytest.raises(PreconditionError):
        verify_theorem1(3)


def test_theorem1_verdict_matches_elementwise_formula(rng):
    # the closed form of det{0, a, b}, composed from the int64 power table
    # and through ring arithmetic, and the engine's verdict on the same set
    for n in (10, 15, 21, 33):
        ring = ring_new(n)
        for _ in range(40):
            a = rng.randrange(1, n - 1)
            b = rng.randrange(a + 1, n)
            power = ring.np_tables()
            vec = (
                power[(a * a + b * b) % n]
                + 2 * power[(a * b) % n]
                - power[(a * a) % n]
                - power[(b * b) % n]
                - power[(2 * a * b) % n]
            )
            direct = det_3x3_formula(ring, a, b)
            assert tuple(int(c) for c in vec) == direct.coeffs
            assert is_singular(IndexSet.of(n, (0, a, b))) == direct.is_zero()


def _theorem1_listing(n, proper):
    """The sets theorem 1 decides for the divisor list `proper`, by the
    rule of its docstring, in plain Python."""
    sets = {frozenset((0, g)) for g in proper}
    for g in proper:
        for b in range(1, n):
            if b != g and not (n % b == 0 and b < g):
                sets.add(frozenset((0, g, b)))
    return sets


def _unit_covered(n, decided):
    """True when every {0, a} and {0, a, b} has a unit multiple in `decided`."""
    translated = [(0, a) for a in range(1, n)] + [(0, a, b) for a, b in
                                                  combinations(range(1, n), 2)]
    return all(any(frozenset(u * k % n for k in s) in decided for u in _units(n))
               for s in translated)


def test_theorem1_unit_classes_cover_every_translated_set(monkeypatch):
    decided, calls = [], []
    original = powerdet.index_zero_flags

    def recording(n, rows, cols, screen=True):
        assert rows is cols  # principal minors
        calls.append(n)
        decided.extend(frozenset(row) for row in rows.tolist())
        return original(n, rows, cols, screen)

    monkeypatch.setattr(powerdet, "index_zero_flags", recording)
    for n in (6, 10, 15, 30, 42, 105):
        decided.clear()
        calls.clear()
        report = verify_theorem1(n)
        assert report.passed
        assert report.pairs_checked == n - 1 + comb(n - 1, 2)
        proper = [d for d in range(1, n) if n % d == 0]
        listing = _theorem1_listing(n, proper)
        # one engine call decides the size-3 listing; the pair lemma
        # decides the size-2 listing, {0, g} vanishing iff n | g^2
        assert calls == [n]
        assert len(decided) == len(set(decided))
        assert set(decided) == {s for s in listing if len(s) == 3}, n
        assert all(g * g % n for g in proper), n
        assert _unit_covered(n, listing), n
        for g in proper:  # no divisor is redundant
            assert not _unit_covered(n, _theorem1_listing(n, [d for d in proper if d != g]))


def test_pair_lemma_matches_engine():
    # the pair lemma of powerdet, which decides theorem 1's size 2: the
    # principal minor on {0, a} vanishes iff a^2 = 0 (mod N)
    for n in range(2, 151):
        a = np.arange(1, n)
        members = np.stack([np.zeros_like(a), a], axis=1)
        flags, _ = powerdet.index_zero_flags(n, members, members)
        assert np.array_equal(flags, a * a % n == 0), n


def test_theorem1_counterexample_is_a_translated_pair(monkeypatch, tmp_path):
    original = powerdet.index_zero_flags

    def flag_one(n, rows, cols, screen=True):
        flags, hits = original(n, rows, cols, screen)
        if rows.shape[1] == 3:
            flags[len(flags) // 2] = True  # a representative {0, g, b}
        return flags, hits

    monkeypatch.setattr(powerdet, "index_zero_flags", flag_one)
    n = 30
    report = verify_theorem1(n)
    assert not report.passed
    a, b = report.counterexample
    assert 0 < a < b < n
    assert report.pairs_checked == n - 1 + comb(n - 1, 2)
    assert main(["theorem1", "--n", str(n), "--out", str(tmp_path / "t.jsonl")]) == 4


# ---------------------------------------------------------------------------
# Witness construction


def test_witness_n4_r2():
    plan = build_witness(4, 2)
    assert plan.index_set.members == (0, 2)
    assert plan.case == CASE_ANCHOR_ROWS
    assert plan.prime == 2 and plan.cofactor == 1


def test_witness_n9_r3_is_all_ones_block():
    plan = build_witness(9, 3)
    assert plan.index_set.members == (0, 3, 6)
    assert plan.case == CASE_ANCHOR_ROWS


def test_witness_n12_r10_by_complement():
    plan = build_witness(12, 10)
    assert plan.case == CASE_COMPLEMENTED
    assert plan.index_set.members == (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)


def test_witness_n18_r7_block_parameters():
    # the three anchors 0, 6, 12, class 0 mod 3 whole, then 1 of class 1
    plan = build_witness(18, 7)
    assert plan.case == CASE_ANCHOR_ROWS
    assert plan.index_set.members == (0, 1, 3, 6, 9, 12, 15)


@pytest.mark.parametrize("n, r, members", [
    (8, 3, (0, 2, 4)),
    (9, 4, (0, 1, 3, 6)),
    (27, 5, (0, 3, 6, 9, 18)),
    (27, 11, (0, 1, 3, 4, 6, 9, 12, 15, 18, 21, 24)),
    (98, 20, (0, 1, 7, 8, 14, 15, 21, 22, 28, 29, 35, 36, 42, 49, 56, 63, 70,
              77, 84, 91)),
])
def test_witness_pinned_sets(n, r, members):
    plan = build_witness(n, r)
    assert plan.index_set.members == members
    assert plan.case == CASE_ANCHOR_ROWS


def test_witness_sets_digest():
    # the sets of every non-square-free N <= 200 and size 2..N-2, built
    # from the anchor list and its complement alone, no engine call; the
    # digest is that of the three hand-built cases the list replaced
    import hashlib
    lines = []
    for n in range(4, 201):
        if is_square_free(n):
            continue
        for r in range(2, n - 1):
            base = theorems._anchor_set(n, min(r, n - r))
            k = base if 2 * r <= n else complement(base)
            lines.append(f"{n} {r} " + " ".join(map(str, k.members)))
    assert len(lines) == 7787
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d3f2e5e7ebf3fd84099ecff5364c92b3435d0bfa9fd0b0a6c5fd3d26773e68e4"


def test_witness_block_invariants():
    # the anchor-row lemma's condition: min(r, p) anchors, fewer classes mod p
    for n, r in ((18, 7), (18, 9), (25, 8), (25, 12), (27, 5), (27, 11), (48, 13)):
        plan = build_witness(n, r)
        p, m = plan.prime, plan.cofactor
        assert p * p * m == n
        assert len(plan.index_set) == r
        members = plan.index_set.members
        anchors = [k for k in members if k % (p * m) == 0]
        assert len(anchors) == min(r, p)
        assert len({k % p for k in members}) < len(anchors)


def test_witnesses_agree_with_det_exact():
    # the count expansion shares no code with the engine
    for n in (4, 8, 9, 12):
        for r in range(2, min(6, n - 2) + 1):
            k = build_witness(n, r).index_set
            assert det_exact(n, [[x * y for y in k] for x in k]).is_zero(), (n, r)


def test_witness_preconditions():
    with pytest.raises(PreconditionError):
        build_witness(10, 3)  # square-free
    with pytest.raises(PreconditionError):
        build_witness(12, 1)
    with pytest.raises(PreconditionError):
        build_witness(12, 11)
    with pytest.raises(PreconditionError):
        witness_sweep(15)


def test_witness_sweep_sizes():
    assert [p.size for p in witness_sweep(4)] == [2]
    assert [p.size for p in witness_sweep(8)] == [2, 3, 4, 5, 6]
    assert [p.size for p in witness_sweep(9)] == list(range(2, 8))


def test_witness_sweep_all_exactly_singular():
    for n in (8, 9, 12, 16, 18, 25):
        for plan in witness_sweep(n):
            assert is_singular(plan.index_set), (n, plan.size)


def test_large_complemented_witness_verifies_directly():
    # every plan is verified by exact determinant, large complements too
    for r in (15, 25):
        plan = build_witness(27, r)
        assert plan.case == CASE_COMPLEMENTED
        assert is_singular(plan.index_set)


def test_zero_decisions_build_no_ring(monkeypatch):
    # every zero decision takes the modulus alone: with ring construction
    # refused, the theorem, witness, scan and search paths keep their verdicts
    from fourier_minors import cyclotomic
    from fourier_minors.search import SearchConfig, find_good_permutation, is_good_permutation
    witnesses, counts = witness_sweep(12), cached_scan(12).counts

    def refused(self, modulus):
        raise AssertionError(f"a ring was built for N = {modulus}")

    monkeypatch.setattr(cyclotomic.CycRing, "__init__", refused)
    cyclotomic.ring_new.cache_clear()
    with pytest.raises(AssertionError, match="a ring was built"):
        ring_new(12)
    assert verify_theorem1(30).passed
    assert scan_all(12).counts == counts
    assert witness_sweep(12) == witnesses
    assert find_good_permutation(SearchConfig(9)).found.image == (0, 1, 2, 4, 3, 6, 5, 8, 7)
    assert is_good_permutation(10, tuple(range(10)))
    assert not is_good_permutation(10, (2, 9, 3, 7, 0, 5, 6, 8, 4, 1))
    assert is_singular(IndexSet.of(12, [0, 6]))
    assert not is_singular(IndexSet.of(12, [0, 1]))


# ---------------------------------------------------------------------------
# Exhaustive scan


def test_scan_n4_exact_fixture():
    report = scan_all(4)
    assert report.counts == {1: 0, 2: 2, 3: 0, 4: 0}
    assert report.exemplars[2] == [(0, 2), (1, 3)]


def test_scan_square_free_all_zero():
    for n in (5, 6, 7, 10, 11, 13, 14, 15):
        report = cached_scan(n)
        assert all(c == 0 for c in report.counts.values()), n


def test_scan_non_square_free_every_size_hit():
    for n in (8, 9, 12, 16, 18):
        report = cached_scan(n)
        for r in range(2, n - 1):
            assert report.counts[r] >= 1, (n, r)
        assert report.counts[1] == 0 and report.counts[n] == 0


def test_scan_counts_symmetric():
    for n in (8, 9, 12, 16, 18):
        report = cached_scan(n)
        for r in range(1, n):
            assert report.counts[r] == report.counts[n - r], (n, r)


def test_scan_reduction_equivalence_to_12():
    for n in range(1, 13):
        reduced = scan_all(n)
        unreduced = scan_all(n, ScanConfig(use_complement=False, use_shift_classes=False))
        assert reduced.counts == unreduced.counts, n
        only_shift = scan_all(n, ScanConfig(use_complement=False))
        only_comp = scan_all(n, ScanConfig(use_shift_classes=False))
        assert only_shift.counts == reduced.counts, n
        assert only_comp.counts == reduced.counts, n


def test_complemented_exemplars_are_the_first_sets(monkeypatch):
    # exemplars of sizes above N/2 are the lexicographically first singular
    # sets of their size, whichever reductions produced them
    for n in (9, 12, 16):
        direct = scan_all(n, use_complement=False).exemplars
        for cap in (0, 3, 16):
            monkeypatch.setattr(theorems, "EXEMPLAR_CAP", cap)
            for classes in (True, False):
                mirrored = scan_all(n, use_shift_classes=classes).exemplars
                assert mirrored == {r: sets[:cap] for r, sets in direct.items()}, \
                    (n, cap, classes)
        monkeypatch.undo()


def test_scan_counts_match_exhaustive_map():
    for n in (4, 6, 8, 9, 10, 12):
        flags = full_singularity_map(n)
        expected = {r: 0 for r in range(1, n + 1)}
        for mask, singular in flags.items():
            if singular:
                expected[bin(mask).count("1")] += 1
        assert cached_scan(n).counts == expected, n


def test_scan_pair_counts_match_arithmetic_oracle():
    for n in (8, 9, 12, 16, 18, 20):
        expected = sum(
            1 for a in range(n) for b in range(a + 1, n) if ((a - b) ** 2) % n == 0
        )
        assert cached_scan(n).counts[2] == expected, n


def test_scan_prefilter_matches_exact():
    for n in (12, 15, 16):
        exact = scan_all(n)
        filtered = scan_all(n, exact=False)
        assert exact.counts == filtered.counts, n
        assert filtered.prefilter_hits > 0


def test_scan_contains_witness_classes(monkeypatch):
    # the cap exceeds every per-size count for these moduli, so the
    # exemplar lists are complete and membership is a real containment check.
    # N = 16 runs in workers, which keep only the cap their tasks carry
    monkeypatch.setattr(theorems, "EXEMPLAR_CAP", 10_000)
    for n, jobs in ((8, 1), (9, 1), (12, 1), (16, 2), (18, 1)):
        report = scan_all(n, jobs=jobs)
        assert max(report.counts.values()) < 10_000
        assert all(len(report.exemplars[r]) == c for r, c in report.counts.items()), n
        for plan in witness_sweep(n):
            r = plan.size
            assert report.counts[r] >= 1
            assert plan.index_set.members in report.exemplars[r], (n, r)


def test_scan_exemplars_are_singular_sets(rng):
    for n in (9, 12, 16):
        report = cached_scan(n)
        for r, sets in report.exemplars.items():
            for members in sets[:3]:
                assert is_singular(IndexSet.of(n, members)), (n, r, members)


def test_scan_parallel_matches_serial(monkeypatch):
    # small chunks give many more tasks than the window of 2 * jobs, and
    # a counting executor shows that one pool ran every chunk
    from concurrent import futures

    pools, submits = [], []

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, task):
            submits.append(task[1])  # the size r of the chunk
            return super().submit(fn, task)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(theorems, "_CHUNK", 64)
    for config in (ScanConfig(), ScanConfig(use_shift_classes=False, exact=False)):
        pools.clear()
        submits.clear()
        serial = scan_all(14, config)
        parallel = scan_all(14, config, jobs=2)
        assert len(pools) == 1
        assert len(submits) > 4 and sorted(set(submits)) == list(range(1, 8))
        assert serial.counts == parallel.counts
        assert serial.exemplars == parallel.exemplars
        assert serial.classes_tested == parallel.classes_tested
        assert serial.prefilter_hits == parallel.prefilter_hits


def test_scan_chunking_is_transparent(monkeypatch):
    # chunks of a few candidates give the records of one chunk per size
    configs = [ScanConfig(use_complement=comp, use_shift_classes=shift)
               for comp in (True, False) for shift in (True, False)]
    whole = {}
    for cap in (0, 3, 16):
        monkeypatch.setattr(theorems, "EXEMPLAR_CAP", cap)
        whole.update({(n, cap, c): scan_all(n, c) for n in (12, 13) for c in configs})
    monkeypatch.setattr(theorems, "_CHUNK", 16)
    for (n, cap, config), report in whole.items():
        monkeypatch.setattr(theorems, "EXEMPLAR_CAP", cap)
        chunked = scan_all(n, config)
        assert chunked.counts == report.counts, (n, cap, config)
        assert chunked.exemplars == report.exemplars, (n, cap, config)
        assert chunked.classes_tested == report.classes_tested, (n, cap, config)


def test_unrank_follows_combinations_order():
    # every rank range, whole or split into blocks, gives the k-subsets of
    # range(lo, n) in lexicographic order, sentinel lo - 1 first
    for n in range(1, 15):
        for lo in (0, 1):
            for k in range(n - lo + 1):
                expected = [[lo - 1, *c] for c in combinations(range(lo, n), k)]
                total = len(expected)
                assert total == comb(n - lo, k)
                assert theorems._unrank(n, k, lo, total, total).shape == (0, k + 1)
                for block in (1, 3, 64, total):
                    rows = [theorems._unrank(n, k, lo, s, min(s + block, total))
                            for s in range(0, total, block)]
                    assert all(part.dtype == np.int8 for part in rows)
                    assert np.vstack(rows).tolist() == expected, (n, k, lo, block)


def _python_unrank(n, k, rank):
    """The k-subset of range(n) of lexicographic rank `rank`, member by
    member with Python integers."""
    members, x = [], 0
    for j in range(k, 0, -1):
        while comb(n - 1 - x, j - 1) <= rank:
            rank -= comb(n - 1 - x, j - 1)
            x += 1
        members.append(x)
        x += 1
    return members


def test_unrank_int8_and_int64_edges_at_64():
    # members reach 63 and the sentinel is -1 or 0 without leaving int8
    rows = theorems._unrank(64, 1, 0, 0, 64)
    assert rows.dtype == np.int8
    assert rows.tolist() == [[-1, m] for m in range(64)]
    last = comb(64, 2) - 1
    assert theorems._unrank(64, 2, 0, last - 1, last + 1).tolist() == [[-1, 61, 63], [-1, 62, 63]]
    last = comb(63, 2) - 1
    assert theorems._unrank(64, 2, 1, last, last + 1).tolist() == [[0, 62, 63]]
    # ranks up to C(64, 32) - 1 > 2^60 stay exact in int64
    total = comb(64, 32)
    assert total > 2 ** 60
    edges = (theorems._unrank(64, 32, 0, 0, 2).tolist()
             + theorems._unrank(64, 32, 0, total - 2, total).tolist())
    assert edges[0] == [-1, *range(32)] and edges[-1] == [-1, *range(32, 64)]
    for rank, row in zip((0, 1, total - 2, total - 1), edges):
        assert row[1:] == _python_unrank(64, 32, rank), rank
    for rank in (total // 3, total // 2, total - 2 ** 40):
        row = theorems._unrank(64, 32, 0, rank, rank + 1)[0, 1:].tolist()
        assert row == _python_unrank(64, 32, rank), rank
    # the gap filter on int8 rows: {0, 63} has a gap of 63 below its last
    # gap of 1 and goes; {0, 1}, least in its orbit, stays, widened
    members, weights = theorems._affine_reps(64, np.array([[0, 1], [0, 63]], dtype=np.int8))
    assert members.dtype == np.int64 and members.tolist() == [[0, 1]]
    assert weights.tolist() == [64 * 32 // 2]


def test_scan_tasks_hold_at_most_chunk_candidates(monkeypatch):
    # every task is one range of at most _CHUNK ranks, the ranges of a size
    # tile 0 .. its candidate count in order, and no unranked block is larger
    tasks, blocks = [], []
    scan_chunk, unrank = theorems._scan_chunk, theorems._unrank

    def recording_chunk(task):
        tasks.append(task)
        return scan_chunk(task)

    def recording_unrank(*args):
        rows = unrank(*args)
        blocks.append(len(rows))
        return rows

    monkeypatch.setattr(theorems, "_scan_chunk", recording_chunk)
    monkeypatch.setattr(theorems, "_unrank", recording_unrank)
    monkeypatch.setattr(theorems, "_CHUNK", 16)
    for n in (9, 12):
        for classes in (True, False):
            tasks.clear()
            blocks.clear()
            scan_all(n, use_shift_classes=classes, use_complement=False)
            assert len(blocks) == len(tasks) and max(blocks) <= 16
            for r in range(1, n + 1):
                ranges = [(start, stop) for _, size, _, _, start, stop in tasks if size == r]
                total = comb(n - 1, r - 1) if classes else comb(n, r)
                assert all(0 < stop - start <= 16 for start, stop in ranges)
                assert [start for start, _ in ranges] == list(range(0, total, 16))
                assert ranges[-1][1] == total


def test_scan_peak_memory_does_not_grow_with_n(monkeypatch):
    # with a fixed chunk and engine slice the traced peak grows only with
    # the rows' width r <= N/2 from N = 20 to 24 (about 1.6x); one prefix
    # array for all the groups of a size grows about 4.5x
    import tracemalloc

    monkeypatch.setattr(theorems, "_CHUNK", 4096)
    monkeypatch.setattr(powerdet, "_SLICE_BYTES", 8 * 16 * 4096)  # 16 * _CHUNK exponents
    peaks = {}
    for n in (20, 24):
        ring_new(n)
        tracemalloc.start()
        try:
            scan_all(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[24] < 2 * peaks[20], peaks


def test_merge_matches_union1d(rng):
    # the key merge is np.union1d without its numpy.ma import
    top = 2 ** 64 - 1
    empty = np.zeros(0, dtype=np.uint64)
    cases = [(empty, empty)]
    for size in (1, 7, 300):
        for high in (top, 5):  # spread keys, and keys with many duplicates
            a, b = (np.array([rng.randint(0, high) for _ in range(rng.randrange(size + 1))],
                             dtype=np.uint64) for _ in range(2))
            cases += [(a, b), (a, empty), (empty, b), (a, a)]
    for a, b in cases:
        merged = theorems._merge(a, b)
        assert merged.dtype == np.uint64
        assert np.array_equal(merged, np.union1d(a, b)), (a, b)


def test_blocked_exemplar_keys_match_one_block(rng, monkeypatch):
    # the ends kept block by block equal the ends of every key at once,
    # over affine images of singular witnesses
    def unblocked(n, sets, classes, cap):
        if classes:
            mult = np.array(_units(n))[:, None, None]
            sets = (sets[:, None, None, :] * mult + np.arange(n)[:, None]) % n
        return theorems._ends(np.unique(theorems._masks(n - 1 - sets.reshape(-1, sets.shape[-1]))), cap)

    blocks = (1, 100, theorems._IMAGES)
    for n in (16, 24, 32):
        for r in (2, 3, n // 2 - 1, n // 2):
            base = build_witness(n, r).index_set.members
            units = _units(n)
            images = set()
            for _ in range(60):
                u, c = rng.choice(units), rng.randrange(n)
                images.add(tuple(sorted((u * k + c) % n for k in base)))
            sets = np.array(sorted(images), dtype=np.int64)
            for cap in (0, 1, 16):
                for classes in (True, False):
                    expected = unblocked(n, sets, classes, cap)
                    for images_per_block in blocks:
                        monkeypatch.setattr(theorems, "_IMAGES", images_per_block)
                        keys = theorems._exemplar_keys(n, sets, classes, cap)
                        assert keys.tolist() == expected.tolist(), (n, r, cap, classes)


def _children_joined(timeout):
    """True once every child process of this one has ended and been joined."""
    import multiprocessing
    import time

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


# The map's tests use builtins as task functions, so spawned workers can
# unpickle them.

def test_ordered_map_close_stops_running_and_queued_tasks():
    import time

    results = theorems.ordered_map(time.sleep, [0, 30, 30, 30], 2)
    assert next(results) is None
    start = time.monotonic()
    results.close()
    assert _children_joined(5.0)
    assert time.monotonic() - start < 5.0


def test_ordered_map_looks_ahead_two_tasks_per_job():
    drawn = []

    def tasks():
        for x in range(-10, 10):
            drawn.append(x)
            yield x

    with closing(theorems.ordered_map(abs, tasks(), 2)) as results:
        assert next(results) == 10
        assert len(drawn) <= 2 * 2 + 1
        assert list(results) == [abs(x) for x in range(-9, 10)]
    assert _children_joined(5.0)


def test_ordered_map_dead_worker_raises():
    import os
    from concurrent.futures.process import BrokenProcessPool

    with pytest.raises(WorkerError) as info:
        list(theorems.ordered_map(os._exit, [3, 3], 2))
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert _children_joined(5.0)


def _units(n):
    return [u for u in range(n) if gcd(u, n) == 1]


def _python_orbit(n, members):
    """The affine orbit of a set, by plain integer arithmetic."""
    return {frozenset((u * k + c) % n for k in members)
            for u in _units(n) for c in range(n)}


def _python_stabiliser(n, members):
    target = frozenset(members)
    return sum(1 for u in _units(n) for c in range(n)
               if frozenset((u * k + c) % n for k in members) == target)


def _mask(members):
    return sum(1 << k for k in members)


def _class_reps(n, r):
    """The scan's class representatives of size r and their weights."""
    total, chunk = comb(n - 1, r - 1), theorems._CHUNK
    parts = [theorems._affine_reps(n, theorems._unrank(n, r - 1, 1, s, min(s + chunk, total)))
             for s in range(0, total, chunk)]
    return (np.vstack([m for m, _ in parts]).tolist(),
            np.concatenate([w for _, w in parts]).tolist())


def _check_reps(n, r):
    members, weights = _class_reps(n, r)
    assert sum(weights) == comb(n, r), (n, r)
    for row, weight in zip(members, weights):
        orbit = _python_orbit(n, row)
        assert row[0] == 0 and row == sorted(row)
        assert _mask(row) == min(_mask(s) for s in orbit), (n, row)
        assert weight == len(orbit) == n * len(_units(n)) // _python_stabiliser(n, row)
    # each representative is least in its orbit, so the orbits are distinct
    assert len({tuple(row) for row in members}) == len(members)


def test_affine_class_reps_cover_all_subsets():
    # weights add up to C(N, r), and each representative is the least mask
    # of its orbit with weight N * phi / |Stab|, against plain Python orbits
    for n in (1, 2, 4, 7, 9, 12, 15):
        for r in range(1, n + 1):
            _check_reps(n, r)


def test_affine_class_reps_up_to_64_match_python_orbits(monkeypatch):
    # the uint64 masks and translates against Python integers, up to bit 63,
    # in several chunks per size
    monkeypatch.setattr(theorems, "_CHUNK", 500)
    for n, r in ((33, 5), (40, 3), (63, 3), (64, 1), (64, 2), (64, 3), (64, 63)):
        _check_reps(n, r)
    for shift in (True, False):
        with pytest.raises(PreconditionError):
            scan_all(65, use_shift_classes=shift)


def test_orbit_exemplars_match_python_orbits(rng):
    for n, r in ((6, 2), (12, 4), (16, 8), (18, 9), (64, 5)):
        rows = np.array([[0] + sorted(rng.sample(range(1, n), r - 1)) for _ in range(7)])
        orbits = sorted({tuple(sorted(s)) for row in rows.tolist()
                         for s in _python_orbit(n, row)})
        plain = sorted({tuple(row) for row in rows.tolist()})
        for cap in (0, 1, 16, 10 ** 6):
            for classes, expected in ((True, orbits), (False, plain)):
                keys = theorems._exemplar_keys(n, rows, classes, cap)
                sets = theorems._key_sets(n, theorems._last(keys, cap))
                assert sets == expected[:cap], (n, r, cap, classes)


def test_scan_classes_tested_counts_representatives():
    # one decided set per affine orbit, or every set without the reduction
    for n in (6, 9, 12):
        orbits = {frozenset(_python_orbit(n, s)) for r in range(1, n + 1)
                  for s in combinations(range(n), r)}
        sizes = {o: len(next(iter(o))) for o in orbits}
        assert scan_all(n).classes_tested == sum(1 for s in sizes.values() if s <= n // 2)
        assert scan_all(n, use_complement=False).classes_tested == len(orbits)
        assert scan_all(n, use_shift_classes=False).classes_tested == sum(
            comb(n, r) for r in range(1, n // 2 + 1))


def test_singular_sets_are_closed_under_affine_maps():
    # the affine-invariance lemma of the theorems docstring, by brute force
    for n in (8, 9, 12):
        flags = full_singularity_map(n)
        for mask, singular in flags.items():
            members = [k for k in range(n) if mask >> k & 1]
            for image in _python_orbit(n, members):
                assert flags[_mask(image)] == singular, (n, members, sorted(image))
        assert any(flags.values())
