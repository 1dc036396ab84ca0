import hashlib
from math import factorial, isqrt, prod

import numpy as np
import pytest

from fourier_minors import IndexSet, PreconditionError, det_exact, ring_new
from fourier_minors.cyclotomic import DEFAULT_MAX_MODULUS, CycRing
from fourier_minors.minors import exponent_matrix
from fourier_minors.powerdet import (PRIME_LIMIT, approx_det_batch, det_power_batch,
                                     det_power_single, field, index_zero_flags,
                                     zero_flags)
from oracles import nonzero_screen


def random_exps(rng, n, r, batch, force_zero=0.4):
    """Random exponent matrices; some get a repeated row or column."""
    exps = np.array(
        [[[rng.randrange(n) for _ in range(r)] for _ in range(r)] for _ in range(batch)],
        dtype=np.int64,
    )
    for b in range(batch):
        if r > 1 and rng.random() < force_zero:
            i, j = rng.sample(range(r), 2)
            if rng.random() < 0.5:
                exps[b, i] = exps[b, j]
            else:
                exps[b, :, i] = exps[b, :, j]
    return exps


def gaussian_det(rows):
    """Exact determinant over Z[i] of (re, im) integer entries, by Bareiss
    elimination (exact division holds in any integral domain).  Shares no
    code with the engine; a reference for w-power matrices with N in {2, 4}."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        norm = b[0] * b[0] + b[1] * b[1]
        re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
        assert re % norm == 0 and im % norm == 0
        return (re // norm, im // norm)

    m = [list(row) for row in rows]
    r, sign, prev = len(m), 1, (1, 0)
    for k in range(r - 1):
        piv = next((i for i in range(k, r) if m[i][k] != (0, 0)), None)
        if piv is None:
            return (0, 0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a, b = mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j])
                m[i][j] = div((a[0] - b[0], a[1] - b[1]), prev)
        prev = m[k][k]
    return (sign * m[r - 1][r - 1][0], sign * m[r - 1][r - 1][1])


def assert_matches(ring, exps, reference):
    """Coefficients and zero flags of the engine equal the reference's."""
    canon = det_power_batch(ring, exps)
    flags, _ = zero_flags(ring.modulus, exps)
    for b in range(len(exps)):
        ref = reference(ring.modulus, exps[b])
        assert tuple(int(c) for c in canon[b]) == ref.coeffs
        assert bool(flags[b]) == ref.is_zero()


def test_batch_agrees_with_leibniz_small(rng, leibniz):
    for _ in range(100):
        n = rng.randrange(2, 16)
        r = rng.randrange(1, 5)
        ring = ring_new(n)
        exps = np.array([[rng.randrange(n) for _ in range(r)] for _ in range(r)])
        fast = det_power_single(ring, exps)
        assert fast == leibniz(n, exps)


def test_zero_flags_agree_with_leibniz_on_forced_zeros(rng, leibniz):
    zeros = 0
    for _ in range(60):
        n = rng.randrange(1, 40)
        r = rng.randrange(1, 7)
        exps = random_exps(rng, n, r, 4, force_zero=0.5)
        assert_matches(ring_new(n), exps, leibniz)
        zeros += int(zero_flags(n, exps)[0].sum())
    assert zeros > 20


def test_batch_layout_matches_singles(rng):
    ring = ring_new(12)
    exps = np.array(
        [[[rng.randrange(12) for _ in range(4)] for _ in range(4)] for _ in range(50)]
    )
    batch = det_power_batch(ring, exps)
    for i in range(50):
        single = det_power_single(ring, exps[i])
        assert tuple(int(c) for c in batch[i]) == single.coeffs


def test_rejects_bad_shapes():
    ring = ring_new(6)
    with pytest.raises(ValueError):
        det_power_batch(ring, np.zeros((2, 3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        det_power_single(ring, np.zeros((0, 0), dtype=np.int64))


def test_zero_flags_shapes():
    ring = ring_new(7)
    with pytest.raises(ValueError):
        zero_flags(7, np.zeros((3, 3), dtype=np.int64))
    assert det_power_batch(ring, np.zeros((0, 3, 3))).shape == (0, 6)
    flags, screened = zero_flags(7, np.zeros((0, 3, 3)))
    assert flags.shape == (0,) and screened == 0


def test_engine_limits():
    # r = 17 and N = 67 lay beyond the old int64 subset kernel; the engine
    # has no size or modulus limit.
    ones = np.zeros((1, 17, 17), dtype=np.int64)
    assert zero_flags(6, ones)[0].tolist() == [True]
    assert not det_power_batch(ring_new(6), ones).any()
    big = ring_new(67)
    exps = np.array([[[0, 0], [0, 0]], [[0, 0], [0, 1]]])
    assert zero_flags(67, exps)[0].tolist() == [True, False]
    assert det_power_single(big, exps[1]) == big.element([-1, 1])  # w - 1


def test_chunking_is_transparent(rng, monkeypatch):
    import fourier_minors.powerdet as pd
    ring = ring_new(10)
    exps = random_exps(rng, 10, 5, 40)
    whole = det_power_batch(ring, exps)
    flags, screened = zero_flags(10, exps)
    monkeypatch.setattr(pd, "_BATCH_BYTES", 4096)
    assert np.array_equal(whole, det_power_batch(ring, exps))
    assert np.array_equal(flags, zero_flags(10, exps)[0])
    assert screened == zero_flags(10, exps)[1]


def test_index_zero_flags_match_explicit_products(rng, monkeypatch):
    # index arrays give the flags and screen counts of their explicit
    # products, whole or one to three rows per slice, one engine call each
    import fourier_minors.powerdet as pd
    calls = []
    engine = pd.zero_flags
    monkeypatch.setattr(pd, "zero_flags", lambda n, exps, screen=True:
                        calls.append(len(exps)) or engine(n, exps, screen))
    whole = pd._SLICE_BYTES
    for _ in range(40):
        n = rng.randrange(2, 40)
        r = rng.randrange(1, min(7, n + 1))
        batch = rng.randrange(0, 12)
        rows = np.array([rng.choices(range(n), k=r) for _ in range(batch)],
                        dtype=np.int64).reshape(batch, r)
        cols = np.array([rng.sample(range(n), r) for _ in range(batch)],
                        dtype=np.int64).reshape(batch, r)
        cols[:batch // 3] = rows[:batch // 3]  # principal minors, some singular
        flags, screened = engine(n, rows[:, :, None] * cols[:, None, :])
        for per_slice in (None, 1, 2, 3):
            monkeypatch.setattr(pd, "_SLICE_BYTES", 8 * r * r * per_slice if per_slice else whole)
            calls.clear()
            got, got_screened = index_zero_flags(n, rows.astype(np.int8), cols)
            assert np.array_equal(got, flags) and got_screened == screened, (n, r, per_slice)
            step = per_slice or max(batch, 1)
            assert calls == [len(rows[s:s + step]) for s in range(0, max(batch, 1), step)]
    with pytest.raises(ValueError):
        index_zero_flags(5, np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("small", [False, True])
def test_index_zero_flags_without_screen_decide_any_minor(rng, monkeypatch, leibniz, small):
    # with screen=False the conjugate sweep alone, u = 1 at the first prime
    # included, decides minors whether or not they vanish at u = 1, so
    # candidates that are only entries of an all-zero table are decided
    # too; no screen call, and none counted as screened
    import fourier_minors.powerdet as pd
    if small:
        monkeypatch.setattr(pd, "field", _small_field)
    pd._root_powers.cache_clear()
    screens, first = [], []
    evaluate = pd._evaluate

    def recording(exps, n, index, values, ks=None):
        if ks is None:
            screens.append(len(exps))
        elif index == 0:
            first.append(int(ks[0]))
        return evaluate(exps, n, index, values, ks)

    try:
        nonzero_at_one = 0
        for n in (5, 8, 9, 12, 16):
            for r in range(1, 7):
                rows = np.array([sorted(rng.sample(range(n), min(r, n))) for _ in range(30)])
                cols = np.array([rng.sample(range(n), rows.shape[1]) for _ in range(30)])
                cols[:10] = rows[:10]  # principal minors, some singular
                flags, _ = index_zero_flags(n, rows, cols)
                nonzero_at_one += int((~pd._evaluate(rows[:, :, None] * cols[:, None, :],
                                                     n, 0, False)).sum())
                monkeypatch.setattr(pd, "_evaluate", recording)
                got, screened = index_zero_flags(n, rows, cols, screen=False)
                assert np.array_equal(got, flags) and screened == 0, (n, r)
                monkeypatch.setattr(pd, "_evaluate", evaluate)
                for row, col, flag in zip(rows.tolist(), cols.tolist(), got):
                    ref = leibniz(n, [[k * l for l in col] for k in row])
                    assert bool(flag) == ref.is_zero(), (n, row, col)
    finally:
        pd._root_powers.cache_clear()
    assert not screens and set(first) == {1} and nonzero_at_one


def test_as_batch_takes_int64_without_copy(rng):
    # exponents are reduced per chunk, so any int64 batch is decided as it
    # stands: one near 2^40 (either sign) gets its reduced copy's verdicts
    from fourier_minors.powerdet import _as_batch
    exps = random_exps(rng, 12, 4, 60)
    assert _as_batch(exps) is exps
    ring = ring_new(12)
    flags, screened = zero_flags(12, exps)
    assert flags.any() and not flags.all()
    for offset in (2 ** 40, -(2 ** 40)):
        big = exps + 12 * (offset // 12) + 12 * rng.randrange(1, 1000)
        assert np.abs(big).min() > 2 ** 39
        assert np.array_equal(zero_flags(12, big)[0], flags)
        assert zero_flags(12, big)[1] == screened
        assert np.array_equal(det_power_batch(ring, big), det_power_batch(ring, exps))


def test_agrees_with_leibniz_for_moduli_above_64(rng, leibniz):
    for _ in range(30):
        n = rng.randrange(65, 97)
        r = rng.randrange(1, 5)
        assert_matches(ring_new(n), random_exps(rng, n, r, 3), leibniz)


def test_agrees_with_det_exact_at_two_primes(rng):
    # r = 13 is the first size whose coefficients need two primes
    ring = ring_new(3)
    exps = random_exps(rng, 3, 13, 2, force_zero=0.0)
    exps = np.concatenate([exps, random_exps(rng, 3, 13, 1, force_zero=1.0)])
    assert_matches(ring, exps, det_exact)


def test_coefficients_with_power_bound_above_one(rng, leibniz):
    # x^j mod Phi_N has coefficients up to h = 2, 2, 2, 3 here, so the
    # coefficient bound that sets the prime count is r! * h
    for n, h in ((105, 2), (165, 2), (210, 2), (385, 3)):
        ring = CycRing(n)
        det_power_batch(ring, random_exps(rng, n, 3, 2))
        assert ring._table is None  # coefficients need no power table
        assert ring.power_bound == h
        for r in (1, 2, 3):
            assert_matches(ring, random_exps(rng, n, r, 2), leibniz)


def test_coefficients_at_moduli_one_and_two(rng, leibniz):
    # Phi_1 = x - 1 and Phi_2 = x + 1: one unit, a 1 x 1 Lagrange matrix
    for n in (1, 2):
        for r in range(1, 7):
            assert_matches(ring_new(n), random_exps(rng, n, r, 4), leibniz)


def test_two_prime_coefficients_with_power_bound_above_one(rng, monkeypatch):
    # Entries w^(N/2 * s_ij + a_i + b_j) give det = w^(sum a + sum b) * g,
    # g the integer determinant of the (-1)^s_ij.  At N = 770 (h = 3) r = 12
    # is the first size whose bound 2 * r! * h needs two primes; with h = 1
    # that happens from r = 13 on.
    import fourier_minors.powerdet as pd
    used = []
    original = pd._evaluate

    def recording(exps, n, index, values, ks=None):
        used.append(index)
        return original(exps, n, index, values, ks)

    monkeypatch.setattr(pd, "_evaluate", recording)
    n, half = 770, 385
    ring = ring_new(n)
    assert ring.power_bound == 3
    sign = [(1, 0), (-1, 0)]
    for r, primes in ((11, 1), (12, 2), (13, 2)):
        assert prod(field(n, i)[0] for i in range(primes)) > 2 * factorial(r) * 3
        used.clear()
        s = [[rng.randrange(2) for _ in range(r)] for _ in range(r)]
        a = [rng.randrange(n) for _ in range(r)]
        b = [rng.randrange(n) for _ in range(r)]
        exps = np.array([[[half * s[i][j] + a[i] + b[j] for j in range(r)]
                          for i in range(r)]])
        g, _ = gaussian_det([[sign[e] for e in row] for row in s])
        ref = ring.element([0] * ((sum(a) + sum(b)) % n) + [g])  # w^(sum a + sum b) * g
        assert tuple(int(c) for c in det_power_batch(ring, exps)[0]) == ref.coeffs
        assert used == list(range(primes))


def test_agrees_with_gaussian_oracle_beyond_r16(rng):
    unit = {2: [(1, 0), (-1, 0)], 4: [(1, 0), (0, 1), (-1, 0), (0, -1)]}
    for n in (2, 4):
        ring = ring_new(n)
        # 21! passes 2^62: coefficients come back as Python ints
        for r in (17, 20, 21):
            exps = random_exps(rng, n, r, 4)
            canon = det_power_batch(ring, exps)
            assert canon.dtype == (object if r == 21 else np.int64)
            flags, _ = zero_flags(n, exps)
            for b in range(4):
                ref = gaussian_det([[unit[n][e] for e in row] for row in exps[b].tolist()])
                assert tuple(int(c) for c in canon[b]) == ref[:ring.totient]
                assert bool(flags[b]) == (ref == (0, 0))


def test_zero_flags_never_computes_coefficients(rng, monkeypatch):
    import fourier_minors.powerdet as pd
    calls = []
    monkeypatch.setattr(pd, "det_power_batch", lambda *a: calls.append(a))
    monkeypatch.setattr(pd, "_coefficients", lambda *a: calls.append(a))
    zeros = 0
    for n in (8, 12, 16, 27):
        for r in (2, 3, 5, 8, 13, 16, 20):
            exps = random_exps(rng, n, r, 6, force_zero=1.0)
            flags, _ = zero_flags(n, exps)
            assert flags.all()  # a repeated row or column
            zeros += len(flags)
    assert not calls and zeros == 4 * 7 * 6


def test_conjugate_primes_pass_hadamard_bound(monkeypatch):
    import fourier_minors.powerdet as pd
    used = []
    original = pd._evaluate

    def recording(exps, n, index, values, ks=None):
        used.append(index)
        return original(exps, n, index, values, ks)

    monkeypatch.setattr(pd, "_evaluate", recording)
    for n in (3, 16, 27, 210):
        for r in range(1, 41):
            count = pd._primes_for(n, isqrt(r ** r))
            primes = [field(n, i)[0] for i in range(count)]
            assert prod(primes) ** 2 > r ** r
            assert prod(primes[:-1]) ** 2 <= r ** r  # no prime more than needed
            if r > 1 and n in (16, 27):
                used.clear()
                assert zero_flags(n, np.zeros((1, r, r), dtype=np.int64))[0][0]
                assert used == [0, *range(count)]  # the screen, then the sweep
    assert [pd._primes_for(16, isqrt(r ** r)) for r in (15, 16, 26, 27)] == [1, 2, 2, 3]


def _small_field(n, index):
    """The index-th smallest prime p = 1 (mod n), with an element of order n."""
    p, found = 1, -1
    while found < index:
        p += n
        found += all(p % q for q in range(2, isqrt(p) + 1))
    zeta = next(z for z in (pow(g, (p - 1) // n, p) for g in range(2, p))
                if all(pow(z, k, p) != 1 for k in range(1, n) if n % k == 0))
    return p, zeta


def test_zero_flags_exact_with_small_primes(rng, monkeypatch, leibniz):
    # primes near N make the screen's false zeros frequent; the sweep over
    # every unit and the Hadamard prime count must still decide them
    import fourier_minors.powerdet as pd
    pd._root_powers.cache_clear()
    monkeypatch.setattr(pd, "field", _small_field)
    false_zeros = 0
    try:
        for n in (5, 8, 12):
            ring = ring_new(n)
            for r in range(1, 6):
                exps = random_exps(rng, n, r, 40, force_zero=0.3)
                flags, _ = zero_flags(n, exps)
                screen = ~nonzero_screen(ring, exps)
                for b in range(len(exps)):
                    ref = leibniz(n, exps[b])
                    assert bool(flags[b]) == ref.is_zero(), (n, exps[b].tolist())
                    false_zeros += int(screen[b] and not ref.is_zero())
    finally:
        pd._root_powers.cache_clear()
    assert false_zeros >= 5


@pytest.mark.parametrize("n", [1000, 3000])
def test_large_modulus_coefficients_match_det_exact(rng, n):
    ring = ring_new(n)
    for _ in range(2):
        k = IndexSet.of(n, rng.sample(range(n), 3))
        exact = det_exact(n, exponent_matrix(k, k))
        assert det_power_single(ring, exponent_matrix(k, k)) == exact
    # three equal rows give a zero
    exps = np.array([[[5, 7, 11]] * 3])
    assert zero_flags(n, exps)[0].tolist() == [True]


def test_field_selection():
    for n in (1, 2, 3, 16, 22, 64, 96, 97, 210, 2310, 3000):
        previous = PRIME_LIMIT
        for index in range(3):
            p, zeta = field(n, index)
            assert p < previous and (p - 1) % n == 0
            assert all(p % d for d in range(2, isqrt(p) + 1))
            assert pow(zeta, n, p) == 1
            assert all(pow(zeta, k, p) != 1 for k in range(1, n) if n % k == 0)
            previous = p
    # the bound every ring has
    for n in (0, DEFAULT_MAX_MODULUS + 1):
        with pytest.raises(PreconditionError):
            field(n)


def test_field_choices_are_pinned():
    # False zeros mod p steer the most-constrained search order, so the
    # committed N = 16 node counts depend on the (p, zeta) of each modulus.
    # The digest was taken when zeta's order was tested against every
    # proper divisor of n; the prime divisors alone pick the same zeta.
    pairs = repr([field(n, 0) for n in range(1, 257)]).encode()
    assert hashlib.sha256(pairs).hexdigest() == (
        "e21bc00ea92fefe97b93684b17b02616f35db8b6889f60ae5a1c26b5afaf9514")


def test_screen_never_certifies_a_zero(rng):
    for _ in range(60):
        n = rng.randrange(2, 40)
        r = rng.randrange(2, 7)
        ring = ring_new(n)
        exps = random_exps(rng, n, r, 5)
        zero = ~det_power_batch(ring, exps).any(axis=1)
        assert not nonzero_screen(ring, exps)[zero].any()
    # prime N: every principal minor is nonzero (Chebotarev), and the screen
    # certifies all of them
    for n in (5, 7, 11, 13):
        ring = ring_new(n)
        for r in range(1, n + 1):
            sets = [sorted(rng.sample(range(n), r)) for _ in range(8)]
            exps = np.array([exponent_matrix(IndexSet.of(n, k), IndexSet.of(n, k))
                             for k in sets])
            assert nonzero_screen(ring, exps).all()
            flags, screened = zero_flags(n, exps)
            assert not flags.any() and screened == len(sets)


def test_approx_det_batch_certifies_nothing(rng):
    # the stub keeps perfbench's kernel points running: one (value, bound)
    # per matrix, and no value outside its bound
    ring = ring_new(12)
    for exps in (np.zeros((0, 4, 4), dtype=np.int64), random_exps(rng, 12, 4, 7)):
        vals, errs = approx_det_batch(ring, exps)
        assert vals.shape == errs.shape == (len(exps),)
        assert not (np.abs(vals) > errs).any()
    with pytest.raises(ValueError):
        approx_det_batch(ring, np.zeros((2, 3, 4), dtype=np.int64))
