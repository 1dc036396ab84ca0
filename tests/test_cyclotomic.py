import numpy as np
import pytest

from fourier_minors import PreconditionError, cyclotomic_polynomial, ring_new
from fourier_minors.cyclotomic import CycRing, divisors
from oracles import poly_divmod_monic, poly_mul


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


def test_minimal_polynomial_soundness_up_to_64():
    # Evaluate Phi_N at w by Horner, through ring arithmetic only.
    for n in range(1, 65):
        ring = ring_new(n)
        w = ring.root_power(1)
        acc = ring.zero()
        for c in reversed(ring.phi_poly):
            acc = acc * w + ring.from_int(c)
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
    # long-division remainder of x^j by Phi_N
    for n in (1, 4, 6, 9, 12, 16, 30):
        ring = ring_new(n)
        rems = _remainders(ring, 3 * n)
        for j, rem in enumerate(rems):
            assert list(ring.element([0] * j + [1]).coeffs) == rem, (n, j)


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
    assert (r4.root_power(2) + r4.root_power(0)).is_zero()  # i^2 = -1
    for n in (5, 8, 12):
        ring = ring_new(n)
        assert ring.root_power(n) == ring.root_power(0)
    assert ring_new(6).root_power(2).coeffs == (-1, 1)


def test_exponent_additivity(rng):
    for _ in range(300):
        n = rng.randrange(1, 40)
        ring = ring_new(n)
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        assert ring.root_power(a) * ring.root_power(b) == ring.root_power(a + b)


def test_hand_expanded_square_for_n4():
    r4 = ring_new(4)
    w = r4.root_power(1)
    assert ((w - 1) * (w - 1)).coeffs == (0, -2)  # (w-1)^2 = -2w when w = i


def random_element(rng, ring):
    return ring.element([rng.randrange(-10, 11) for _ in range(ring.totient)])


def test_additive_inverse(rng):
    ring = ring_new(12)
    for _ in range(100):
        x = random_element(rng, ring)
        assert (x + (-x)).is_zero()


@pytest.mark.parametrize("n", [4, 6, 9, 12, 16])
def test_ring_axioms(rng, n):
    ring = ring_new(n)
    for _ in range(1000):
        a = random_element(rng, ring)
        b = random_element(rng, ring)
        c = random_element(rng, ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_canonical_equality(rng):
    ring = ring_new(9)
    for _ in range(200):
        a = random_element(rng, ring)
        b = random_element(rng, ring)
        assert ((a - b).is_zero()) == (a.coeffs == b.coeffs)


def test_is_zero_examples():
    r6 = ring_new(6)
    assert not (r6.root_power(3 * 3) - r6.one()).is_zero()  # 9 = 3 mod 6, nonzero
    for n in (4, 6, 10):
        ring = ring_new(n)
        assert (ring.root_power(n) - ring.one()).is_zero()
    r4 = ring_new(4)
    assert (r4.root_power(2 * 2) - r4.one()).is_zero()


def test_zero_sums_of_roots_stay_within_bound(rng):
    # Sums of all N-th roots vanish, and exactly so in canonical form.
    for n in (3, 5, 7, 9, 12, 15):
        ring = ring_new(n)
        total = ring.zero()
        for j in range(n):
            total = total + ring.root_power(j)
        assert total.is_zero()


def test_ring_construction_errors():
    with pytest.raises(PreconditionError):
        ring_new(0)
    with pytest.raises(PreconditionError):
        CycRing(10_001)


def test_ring_mismatch_is_an_error():
    a = ring_new(4).one()
    b = ring_new(5).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
