import numpy as np
import pytest

from fourier_minors import PreconditionError, cyclotomic_polynomial, ring_new
from fourier_minors.cyclotomic import CycRing, divisors, prime_divisors
from oracles import poly_divmod_monic, poly_mul, ring_add, ring_mul


def test_phi_1_is_x_minus_1():
    assert ring_new(1).phi_poly == (-1, 1)


def test_phi_4_is_x_squared_plus_1():
    assert ring_new(4).phi_poly == (1, 0, 1)


def test_phi_prime_is_all_ones():
    assert ring_new(7).phi_poly == (1,) * 7


def test_phi_poly_monic_of_totient_degree():
    for n in range(1, 80):
        ring = ring_new(n)
        assert ring.phi_poly[-1] == 1
        assert len(ring.phi_poly) == ring.totient + 1


def test_divisor_product_recovers_x_n_minus_1_for_12():
    prod = [1]
    for d in divisors(12):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    assert prod == [-1] + [0] * 11 + [1]


def test_divisor_product_up_to_200():
    for n in range(1, 201):
        prod = [1]
        for d in divisors(n):
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_binomial_products_match_division_construction_to_300():
    # oracle: Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d,
    # by exact long division, recursively on its own results
    oracle = {}
    for n in range(1, 301):
        quot = [-1] + [0] * (n - 1) + [1]
        for d in divisors(n)[:-1]:
            quot, rem = poly_divmod_monic(quot, oracle[d])
            assert rem == [0], (n, d)
        oracle[n] = quot
        assert list(cyclotomic_polynomial(n)) == quot, n


def power(j):
    """The coefficient list of x^j."""
    return [0] * j + [1]


def test_minimal_polynomial_soundness_up_to_64():
    # Evaluate Phi_N at w by Horner, reducing after every step through
    # element only: multiplying by w shifts the coefficients up one degree.
    for n in range(1, 65):
        ring = ring_new(n)
        acc = ring.element([])
        for c in reversed(ring.phi_poly):
            acc = ring.element([c] + list(acc.coeffs))
        assert acc.is_zero(), n


def _remainders(ring, count):
    """x^j mod Phi_N for j < count by long division, x^(j+1) from x * x^j."""
    phi, rem, out = ring.totient, [1], []
    for _ in range(count):
        out.append(rem + [0] * (phi - len(rem)))
        _, rem = poly_divmod_monic([0] + rem, list(ring.phi_poly))
    return out


def test_reduction_table_matches_direct_remainder():
    # element() folds every power x^j, j past N included, into the
    # long-division remainder of x^j by Phi_N.  Past N = 30 the remainders
    # are the rows of np_tables, which test_np_tables_match_python_power_rows
    # ties to long division; at N = 1155 and 2387 each row is reached once,
    # as x^(r + N * (r mod 3)), which keeps the test short.
    for n in (1, 4, 6, 9, 12, 16, 30, 105, 210, 300, 1155, 2387):
        ring = CycRing(n)
        rems = _remainders(ring, 3 * n) if n <= 30 else ring.np_tables().tolist()
        js = range(3 * n) if n <= 300 else [r + n * (r % 3) for r in range(n)]
        for j in js:
            assert list(ring.element(power(j)).coeffs) == rems[j % len(rems)], (n, j)


def test_np_tables_match_python_power_rows():
    # the numpy recurrence against long-division remainders of x^j
    # power_bound walks the same recurrence without building the table
    for n in (1, 2, 12, 30, 105, 210, 1155):
        table = CycRing(n).np_tables()
        rems = _remainders(CycRing(n), n)
        assert table.dtype == np.int64
        assert table.tolist() == rems, n
        assert CycRing(n).power_bound == max(abs(c) for rem in rems for c in rem), n
    # at N = 2387 the most negative coefficient, -4, sets the bound
    assert CycRing(2387).power_bound == -int(CycRing(2387).np_tables().min()) == 4


def test_element_reduces_entries_past_int64(rng):
    # sum_j c_j x^j reduces to sum_j c_j * (row j mod N), exactly
    for n in (1, 2, 12, 105, 385, 1155):
        ring = CycRing(n)
        rows = ring.np_tables().tolist()
        for _ in range(3):
            coeffs = [rng.randrange(-10 ** 20, 10 ** 20)
                      for _ in range(rng.randrange(3 * n + 1))]
            expected = [0] * ring.totient
            for j, c in enumerate(coeffs):
                expected = [e + c * x for e, x in zip(expected, rows[j % n])]
            assert list(ring.element(coeffs).coeffs) == expected, n
            assert ring.element(coeffs) == ring.element(np.array(coeffs, dtype=object))


def test_np_tables_refuse_oversized_entries(monkeypatch):
    import fourier_minors.cyclotomic as cyc
    monkeypatch.setattr(cyc, "_NP_TABLE_LIMIT", 1)
    with pytest.raises(PreconditionError):
        CycRing(105).np_tables()  # Phi_105 has the coefficient -2 at x^7
    with pytest.raises(PreconditionError):
        CycRing(105).power_bound
    assert CycRing(12).np_tables().shape == (12, 4)


def test_root_power_examples():
    r4 = ring_new(4)
    assert r4.element([1] + power(2)[1:]).is_zero()  # i^2 = -1
    for n in (5, 8, 12):
        ring = ring_new(n)
        assert ring.element(power(n)) == ring.element(power(0))
    assert ring_new(6).element(power(2)).coeffs == (-1, 1)


def test_exponent_additivity(rng):
    # reduced powers multiply to the reduced power of the summed exponent
    for _ in range(300):
        n = rng.randrange(1, 40)
        ring = ring_new(n)
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        product = ring_mul(ring.element(power(a)), ring.element(power(b)))
        assert product == ring.element(power(a + b))


def test_hand_expanded_square_for_n4():
    r4 = ring_new(4)
    w_minus_1 = r4.element([-1, 1])
    assert ring_mul(w_minus_1, w_minus_1).coeffs == (0, -2)  # (w-1)^2 = -2w when w = i


def random_element(rng, ring):
    return ring.element([rng.randrange(-10, 11) for _ in range(ring.totient)])


def random_list(rng, ring):
    """A coefficient list up to 3N long, so element reduces it."""
    return [rng.randrange(-10, 11) for _ in range(rng.randrange(3 * ring.modulus + 1))]


def test_additive_inverse(rng):
    # the reduction is additive: a list and its negation reduce to negatives
    ring = ring_new(12)
    for _ in range(100):
        a = random_list(rng, ring)
        assert ring_add(ring.element(a), ring.element([-c for c in a])).is_zero()


@pytest.mark.parametrize("n", [4, 6, 9, 12, 16])
def test_ring_axioms(rng, n):
    # Z[w] is Z[x] / Phi_N: sums and products of canonical elements, each
    # reduced by element, obey the commutative ring axioms
    ring = ring_new(n)
    add, mul = ring_add, ring_mul
    for _ in range(1000):
        a = random_element(rng, ring)
        b = random_element(rng, ring)
        c = random_element(rng, ring)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_canonical_equality(rng):
    # two lists reduce to equal elements exactly when their difference
    # reduces to zero; equal coefficients in different rings are unequal
    ring = ring_new(9)
    for _ in range(200):
        a, b = random_list(rng, ring), random_list(rng, ring)
        diff = [p - q for p, q in zip(a + [0] * len(b), b + [0] * len(a))]
        assert ring.element(diff).is_zero() == (ring.element(a) == ring.element(b))
    assert ring_new(3).element([1]).coeffs == ring_new(6).element([1]).coeffs
    assert ring_new(3).element([1]) != ring_new(6).element([1])


def test_is_zero_examples():
    r6 = ring_new(6)
    assert not r6.element([-1] + power(3 * 3)[1:]).is_zero()  # 9 = 3 mod 6, nonzero
    for n in (4, 6, 10):
        ring = ring_new(n)
        assert ring.element([-1] + power(n)[1:]).is_zero()
    r4 = ring_new(4)
    assert r4.element([-1] + power(2 * 2)[1:]).is_zero()


def test_zero_sums_of_roots_stay_within_bound():
    # Sums of all N-th roots vanish, and exactly so in canonical form; so do
    # the sums of the q-th roots w^(N/q * j) for each prime q dividing N.
    for n in (3, 5, 7, 9, 12, 15, 30, 1155):
        ring = ring_new(n)
        assert ring.element([1] * n).is_zero(), n
        for q in prime_divisors(n):
            counts = [1 if j % (n // q) == 0 else 0 for j in range(n)]
            assert ring.element(counts).is_zero(), (n, q)
            assert not ring.element(counts[:-(n // q)]).is_zero(), (n, q)


def test_ring_construction_errors():
    with pytest.raises(PreconditionError):
        ring_new(0)
    with pytest.raises(PreconditionError):
        CycRing(10_001)
