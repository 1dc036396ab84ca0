import numpy as np
import pytest

from fourier_minors import (IndexSet, PreconditionError, complement, det_exact,
                            is_singular, minor_record, ring_new)
from fourier_minors.minors import exponent_matrix
from fourier_minors import powerdet

from conftest import full_singularity_map
from oracles import (det_2x2_formula, det_3x3_formula, index_reduce, nonzero_screen,
                     shift, shift_identity_check, singular_3x3_condition)


def test_index_set_validation():
    k = IndexSet.of(6, [4, 0, 2])
    assert k.members == (0, 2, 4)
    assert len(k) == 3 and 2 in k and 3 not in k
    with pytest.raises(ValueError):
        IndexSet.of(4, [0, 0])
    with pytest.raises(ValueError):
        IndexSet.of(4, [4])
    with pytest.raises(ValueError):
        IndexSet(4, (2, 1))


def test_index_set_rejects_non_int_members():
    with pytest.raises(ValueError, match=r"member np\.int64\(1\) is not an int"):
        IndexSet(8, (np.int64(1),))
    with pytest.raises(ValueError, match="is not an int"):
        IndexSet(8, (1.0,))
    with pytest.raises(ValueError, match=r"member 8 outside 0\.\.7"):
        IndexSet(8, (8,))
    assert IndexSet.of(8, [np.int64(3), np.int64(1)]).members == (1, 3)


def test_submatrix_fixture_n4_even_pair():
    # every entry of F_4 on {0, 2} is w^0 = 1
    k = IndexSet.of(4, [0, 2])
    assert exponent_matrix(k, k).tolist() == [[0, 0], [0, 0]]


def test_submatrix_fixture_n4_odd_pair():
    ring = ring_new(4)
    k = IndexSet.of(4, [1, 3])
    assert exponent_matrix(k, k).tolist() == [[1, 3], [3, 1]]
    i, minus_i = ring.element([0] * 5 + [1]), ring.element([0] * 3 + [1])
    assert i.coeffs == (0, 1) and minus_i.coeffs == (0, -1)  # w^5 = w = i, w^3 = -i


def test_submatrix_singleton():
    k = IndexSet.of(7, [0])
    assert exponent_matrix(k, k).tolist() == [[0]]
    assert det_exact(7, exponent_matrix(k, k)) == ring_new(7).element([1])


def test_det_exact_all_ones_is_zero():
    k = IndexSet.of(4, [0, 2])
    assert det_exact(4, exponent_matrix(k, k)).is_zero()


def test_det_exact_3x3_nonzero_and_value():
    ring = ring_new(4)
    k = IndexSet.of(4, [0, 1, 2])
    assert not det_exact(4, exponent_matrix(k, k)).is_zero()
    # hand-computed: det F_4[{0,1,3}] shares the closed 3x3 form with
    # (a,b) = (1,3): (w-1)^2 - (w^3-1)^2 = -2i - 2i = -4i
    assert det_3x3_formula(ring, 1, 3).coeffs == (0, -4)


def test_det_full_fourier_matrix_nonzero():
    for n in range(2, 9):
        k = IndexSet.of(n, range(n))
        assert not det_exact(n, exponent_matrix(k, k)).is_zero(), n


def test_det_exact_dimension_errors():
    with pytest.raises(PreconditionError):
        det_exact(3, [])
    with pytest.raises(PreconditionError):
        det_exact(3, [[0] * 29 for _ in range(29)])
    with pytest.raises(ValueError):
        det_exact(5, [[0], [0, 1]])  # not square
    with pytest.raises(PreconditionError):
        det_exact(0, [[0]])


def test_det_exact_matches_leibniz_on_random_sets(rng, leibniz):
    for _ in range(200):
        n = rng.randrange(2, 21)
        r = rng.randrange(1, min(6, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        exps = exponent_matrix(k, k)
        assert det_exact(n, exps) == leibniz(n, exps)


def test_kernel_matches_det_exact_on_random_sets(rng):
    for _ in range(200):
        n = rng.randrange(2, 25)
        r = rng.randrange(1, min(7, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        ring = ring_new(n)
        fast = powerdet.det_power_single(ring, exponent_matrix(k, k))
        assert fast == det_exact(n, exponent_matrix(k, k))


def test_is_singular_fixtures():
    assert is_singular(IndexSet.of(4, [0, 2]))
    assert not is_singular(IndexSet.of(4, [0, 1, 3]))
    assert is_singular(IndexSet.of(9, [0, 3, 6]))
    # rows 0 and 6 of F_12 agree on {0, 6}: w^36 = 1
    assert is_singular(IndexSet.of(12, [0, 6]))


def test_is_singular_rejects_empty_set():
    with pytest.raises(PreconditionError):
        is_singular(IndexSet.of(4, []))


def test_exponent_matrix_refuses_mixed_moduli():
    assert exponent_matrix(IndexSet.of(12, [0, 6]), IndexSet.of(12, [2, 6])).tolist() == [
        [0, 0], [0, 0]]
    with pytest.raises(ValueError):
        exponent_matrix(IndexSet.of(12, [0, 6]), IndexSet.of(8, [0, 6]))
    with pytest.raises(ValueError):
        exponent_matrix(IndexSet.of(8, [0, 6]), IndexSet.of(12, [0, 6]))


def test_is_singular_prefilter_agrees(rng):
    # the scan's engine entry runs the same exact engine in both modes: its
    # flags equal is_singular's, and its hits (reported under --prefilter)
    # are the sets the one-prime screen certified
    from fourier_minors.powerdet import index_zero_flags
    for _ in range(40):
        n = rng.randrange(2, 20)
        r = rng.randrange(1, min(6, n + 1))
        members = np.array([sorted(rng.sample(range(n), r)) for _ in range(4)])
        ring = ring_new(n)
        flags, hits = index_zero_flags(n, members, members)
        expected = [is_singular(IndexSet.of(n, row)) for row in members.tolist()]
        assert flags.tolist() == expected
        exps = (members[:, :, None] * members[:, None, :]) % n
        assert hits == int(nonzero_screen(ring, exps).sum())
        assert hits <= expected.count(False)


def test_det_2x2_formula_examples():
    assert det_2x2_formula(ring_new(4), 2).is_zero()
    assert det_2x2_formula(ring_new(6), 3).coeffs == (-2, 0)
    assert not det_2x2_formula(ring_new(5), 1).is_zero()
    with pytest.raises(PreconditionError):
        det_2x2_formula(ring_new(5), 0)


def test_det_3x3_formula_examples():
    assert not det_3x3_formula(ring_new(4), 1, 3).is_zero()
    assert det_3x3_formula(ring_new(9), 3, 6).is_zero()
    with pytest.raises(PreconditionError):
        det_3x3_formula(ring_new(9), 6, 3)


def test_formulas_match_det_exact_small_moduli():
    # Full det_exact comparison at the lower range; the batched kernel
    # (itself checked against det_exact above) carries the rest to N = 30.
    for n in range(2, 17):
        ring = ring_new(n)
        for a in range(1, n):
            k = IndexSet.of(n, [0, a])
            assert det_2x2_formula(ring, a) == det_exact(n, exponent_matrix(k, k)), (n, a)
        for a in range(1, n):
            for b in range(a + 1, n):
                k = IndexSet.of(n, [0, a, b])
                expected = det_exact(n, exponent_matrix(k, k))
                assert det_3x3_formula(ring, a, b) == expected, (n, a, b)


def test_formulas_match_kernel_to_30():
    for n in range(17, 31):
        ring = ring_new(n)
        for a in range(1, n):
            k = IndexSet.of(n, [0, a])
            fast = powerdet.det_power_single(ring, exponent_matrix(k, k))
            assert det_2x2_formula(ring, a) == fast, (n, a)
        for a in range(1, n):
            for b in range(a + 1, n):
                k = IndexSet.of(n, [0, a, b])
                fast = powerdet.det_power_single(ring, exponent_matrix(k, k))
                assert det_3x3_formula(ring, a, b) == fast, (n, a, b)


def test_singular_3x3_condition_agrees_with_formula():
    for n in (4, 9, 12, 18):
        ring = ring_new(n)
        for a in range(1, n):
            for b in range(a + 1, n):
                assert singular_3x3_condition(ring, a, b) == \
                    det_3x3_formula(ring, a, b).is_zero(), (n, a, b)


def test_index_reduce_examples():
    assert index_reduce(IndexSet.of(4, [1, 3])).members == (0, 2)
    k = IndexSet.of(9, [0, 2, 5])
    assert index_reduce(k) == k
    assert index_reduce(IndexSet.of(9, [4, 7, 1])).members == (0, 3, 6)
    with pytest.raises(PreconditionError):
        index_reduce(IndexSet.of(9, []))


def test_complement_examples():
    assert complement(IndexSet.of(4, [0, 2])).members == (1, 3)
    k = IndexSet.of(10, [1, 4, 7])
    assert complement(complement(k)) == k
    assert complement(IndexSet.of(5, [])).members == (0, 1, 2, 3, 4)


def test_shift_identity_fixture_n4():
    ring = ring_new(4)
    # prefactor for K = {1, 3}: w^(1 * (-2 + 8)) = w^6 = -1
    assert ring.element([0] * (1 * (-2 * 1 + 2 * 4)) + [1]) == ring.element([-1])
    assert shift_identity_check(ring, IndexSet.of(4, [1, 3]))


def test_shift_identity_trivial_when_zero_leads():
    ring = ring_new(8)
    assert shift_identity_check(ring, IndexSet.of(8, [0, 3, 5]))


def test_shift_identity_random_cases(rng):
    for _ in range(500):
        n = rng.randrange(2, 21)
        r = rng.randrange(1, min(6, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        assert shift_identity_check(ring_new(n), k), (n, k.members)


def test_shift_identity_ceiling():
    ring = ring_new(12)
    with pytest.raises(PreconditionError):
        shift_identity_check(ring, IndexSet.of(12, range(9)))


def test_complementarity_exhaustive_to_14():
    for n in range(2, 15):
        flags = full_singularity_map(n)
        full = (1 << n) - 1
        for mask, singular in flags.items():
            comp = full & ~mask
            if comp == 0:
                # the full set: its complement is empty, never singular; the
                # full Fourier matrix is nonsingular too
                assert not singular
                continue
            assert flags[comp] == singular, (n, mask)


def test_shift_invariance_exhaustive_to_14():
    for n in range(2, 15):
        flags = full_singularity_map(n)
        full = (1 << n) - 1
        for mask, singular in flags.items():
            for c in range(1, n):
                rot = ((mask >> c) | (mask << (n - c))) & full
                assert flags[rot] == singular, (n, mask, c)


def test_index_reduce_preserves_singularity(rng):
    for _ in range(200):
        n = rng.randrange(2, 15)
        r = rng.randrange(1, n + 1)
        k = IndexSet.of(n, rng.sample(range(n), r))
        assert is_singular(k) == is_singular(index_reduce(k))
        c = rng.randrange(n)
        assert is_singular(k) == is_singular(shift(k, c))


def test_conjugation_symmetry_exhaustive_to_12():
    # reflecting K to {N-k mod N} conjugates the submatrix entrywise
    for n in range(2, 13):
        flags = full_singularity_map(n)
        for mask, singular in flags.items():
            reflected = 0
            for k in range(n):
                if mask >> k & 1:
                    reflected |= 1 << ((n - k) % n)
            assert flags[reflected] == singular, (n, mask)


def test_pair_singularity_matches_arithmetic_oracle():
    # det on {a, b} vanishes exactly when N divides (a - b)^2
    for n in (6, 9, 12, 16, 18):
        for a in range(n):
            for b in range(a + 1, n):
                expected = ((a - b) ** 2) % n == 0
                assert is_singular(IndexSet.of(n, [a, b])) == expected, (n, a, b)


def test_minor_record_consistency(rng):
    for _ in range(50):
        n = rng.randrange(2, 16)
        r = rng.randrange(1, min(7, n + 1))
        k = IndexSet.of(n, rng.sample(range(n), r))
        rec = minor_record(k)
        assert rec.size == len(k)
        assert rec.singular == rec.determinant.is_zero()
