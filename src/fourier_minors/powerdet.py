"""Exact determinants of matrices whose entries are powers of w, by
reduction modulo primes.

Lemma (reduction).  Let p be a prime with p = 1 (mod N), and zeta in F_p an
element of order exactly N (F_p^* is cyclic of order p - 1, so one exists).

For every unit u mod N, zeta^u has order N, so w -> zeta^u is a ring map
Z[w] = Z[x]/(Phi_N) -> F_p, and det(w^(e_ij)) maps to det(zeta^(u*e_ij)).
As p does not divide N, Phi_N = prod_u (x - zeta^u) splits into phi(N)
distinct linear factors.

Lemma (coefficients).  The canonical vector c of alpha = det(w^(e_ij)) of
size r is a polynomial of degree < phi with c(zeta^u) = alpha's image at u.
- Lagrange interpolation at the roots a_u = zeta^u of Phi_N gives c mod p
  as L @ (c(a_u))_u, with L[i, u] = q_u[i] / Phi_N'(a_u), q_u = Phi_N / (x - a_u).
- Leibniz writes alpha as r! signed powers w^j, whose vectors x^j mod Phi_N
  have entries of absolute value at most h = max_j max|coeff(x^j mod Phi_N)|.
  So |c_i| <= r! * h, and CRT over primes whose product exceeds 2 * r! * h
  recovers c as symmetric residues.

Lemma (zeros from conjugates).  Let alpha = det(w^(e_ij)) of size r.
- For p = 1 (mod N), the maps w -> zeta^u, one per unit u mod N, are the
  phi(N) ring maps Z[w] -> F_p.  Their kernels are the distinct primes of
  Z[w] above p (p splits completely and is unramified), and the product
  of those primes is pZ[w].
- So if alpha maps to 0 under every one of them, for each of several
  primes p with product M, then alpha lies in every prime above each p,
  hence in pZ[w] for each p, hence in M*Z[w].
- If alpha != 0, then alpha = M*beta with beta != 0 in Z[w], and
  |N(alpha)| = M^phi * |N(beta)| >= M^phi.  But each complex conjugate
  w -> w^u of alpha is det(w^(u*e_ij)), a determinant of an r x r matrix
  of roots of unity, of absolute value at most r^(r/2) by Hadamard's
  bound; so |N(alpha)| <= r^(r*phi/2), and M^2 <= r^r.
So, over primes whose product M satisfies M^2 > r^r, alpha = 0 iff it
vanishes at every unit at every one of those primes.  With primes near
2^31 that takes one prime for r <= 15 and two for 16 <= r <= 26.

Lemma (pair).  On rows {a, b} and columns {c, d} the minor is
w^(ac+bd) - w^(ad+bc), and it vanishes iff the exponents agree mod N, that
is iff (a - b)(c - d) = 0 (mod N); so the principal minor on {a, b}
vanishes iff N | (a - b)^2, never for square-free N.  Callers decide size 2
by this lemma (the search's tables, `verify_theorem1`) and tests compare it
with the engine.

The evaluation primitive `_evaluate` has three uses:

- screen: a determinant nonzero at the first prime with w -> zeta is
  nonzero in Z[w] (the first step of `zero_flags`);
- zero flags: the screen's survivors, or with `screen=False` every minor,
  are decided by flags-mode elimination at w -> zeta^u for every unit u,
  one prime at a time, until the primes' product M has M^2 > r^r
  (`zero_flags`; u = 1 at the first prime only without the screen);
  no coefficient is computed;
- coefficients: the values at the phi units, turned into coefficients
  mod p by the Lagrange matrix and combined by CRT over primes whose
  product exceeds 2 * r! * h, give c exactly (`det_power_batch`).

Zero decisions need N alone (prime fields, elements of order N, units), so
their entries take the modulus; only coefficients take a `CycRing`.

An int64 batch is used as given, each chunk reduced mod N before any
product; `index_zero_flags` builds batches from index sets in slices.

Determinants mod p come from batched, division-free Gaussian elimination
in numpy int64, the batch on the last axis: with p < 2^31 every product of
two residues stays below 2^62.  References: Chebotarev's theorem by
reduction mod p (Tao, "An uncertainty principle for cyclic groups of prime
order", 2005) and multimodular determinants (Abbott-Bronstein-Mulders,
ISSAC 1999).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, isqrt

import numpy as np

from .cyclotomic import (CycElem, CycRing, check_modulus, cyclotomic_polynomial,
                         prime_divisors, units)

PRIME_LIMIT = 2 ** 31
# Working-set cap of one batched elimination; larger batches are chunked.
_BATCH_BYTES = 16 * 2 ** 20
# Exponent products `index_zero_flags` builds at once: 2^19 int64 values.
_SLICE_BYTES = 4 * 2 ** 20


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 suffice below 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def field(n: int, index: int = 0) -> tuple[int, int]:
    """(p, zeta): the index-th largest prime p < 2^31 with p = 1 (mod n),
    and an element zeta of order exactly n modulo p (n as `check_modulus`).
    A candidate p > 53 with a prime factor up to 53 is skipped by one gcd
    before Miller-Rabin."""
    check_modulus(n)
    top = PRIME_LIMIT - 1 if index == 0 else field(n, index - 1)[0] - 1
    p = top - (top - 1) % n
    primorial = 32589158477190044730  # 2 * 3 * 5 * ... * 53
    while (p > 53 and gcd(p, primorial) > 1) or not _is_prime(p):
        p -= n
        if p <= n:
            raise ValueError(f"no prime p = 1 (mod {n}) left below 2^31")
    # zeta^n = 1, so its order is n unless it divides n / q for a prime q | n
    cofactors = [n // q for q in prime_divisors(n)]
    for g in range(2, p):
        zeta = pow(g, (p - 1) // n, p)
        if all(pow(zeta, d, p) != 1 for d in cofactors):
            return p, zeta
    raise AssertionError("F_p^* is cyclic; an element of order n exists")


@lru_cache(maxsize=None)
def _root_powers(n: int, index: int) -> np.ndarray:
    """zeta^j mod p for j = 0 .. n-1, for field(n, index)."""
    p, zeta = field(n, index)
    powers = [1] * n
    for j in range(1, n):
        powers[j] = powers[j - 1] * zeta % p
    out = np.array(powers, dtype=np.int64)
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _primes_for(n: int, bound: int) -> int:
    """How many of field(n, 0), field(n, 1), ... multiply past `bound`."""
    count, prod = 0, 1
    while prod <= bound:
        prod *= field(n, count)[0]
        count += 1
    return count


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """x^-1 mod p elementwise, and 0 for 0, by Montgomery's trick: prefix
    products, one modular inverse of their total, and one pass back."""
    vals = [v or 1 for v in x.tolist()]
    prefix = [1]
    for v in vals:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * vals[i] % p
    out = np.array(out, dtype=np.int64)
    out[x == 0] = 0
    return out


def _eliminate(a: np.ndarray, p: int, values: bool) -> np.ndarray:
    """Determinants mod p (values) or zero flags of the batch `a` of shape
    (r, r, M), entries in [0, p); `a` is overwritten.

    Division-free elimination: step k swaps a row with a nonzero entry into
    the pivot position, then replaces each row i below it by
    pivot * row_i - a_ik * row_k, which multiplies the determinant by
    pivot^(r-1-k).  The pivots end on the diagonal, so a determinant is
    zero exactly when a pivot is; its value is a[r-1, r-1] / den with
    den = (-1)^swaps * prod_k pivot_k^(r-2-k), the product over steps
    0 .. r-3 of the running pivot products `run` (for r <= 2 the sign
    alone, its own inverse).
    """
    r, _, m = a.shape
    run = np.ones(m, dtype=np.int64)
    den = np.ones(m, dtype=np.int64)
    for k in range(r - 1):
        pivot = a[k, k]
        if not pivot.all():
            shift = np.argmax(a[k:, k] != 0, axis=0)
            i = np.nonzero(shift)[0]
            if len(i):
                j = k + shift[i]
                row = a[k, :, i].copy()
                a[k, :, i] = a[j, :, i]
                a[j, :, i] = row
                den[i] = p - den[i]
        tail = a[k + 1:, k + 1:]
        tail *= pivot
        tail -= a[k + 1:, k, None] * a[k, None, k + 1:]
        np.remainder(tail, p, out=tail)
        if values and k < r - 2:
            run = run * pivot % p
            den = den * run % p
    if not values:
        return (np.diagonal(a) == 0).any(axis=1)
    if r <= 2:
        return a[r - 1, r - 1] * den % p
    return a[r - 1, r - 1] * _inverse(den, p) % p


def _evaluate(exps: np.ndarray, n: int, index: int, values: bool,
              ks: np.ndarray | None = None) -> np.ndarray:
    """Determinants mod the index-th prime (`values`) or zero flags of the
    w-power matrices `exps` at w -> zeta^k: shape (B, len(ks)) over the
    multipliers `ks`, or (B,) at k = 1 alone when `ks` is None.  Runs in
    byte-capped chunks, each reduced mod n before any product."""
    pw = _root_powers(n, index)
    p = field(n, index)[0]
    nbatch, r, _ = exps.shape
    count = 1 if ks is None else len(ks)
    chunk = max(1, _BATCH_BYTES // (8 * r * r * count))
    parts = []
    for s in range(0, max(nbatch, 1), chunk):  # an empty batch is one chunk
        e = exps[s:s + chunk].transpose(1, 2, 0)  # a view: no reduced copy outlives the gather
        a = pw[e % n] if ks is None else pw[(e % n)[..., None] * ks % n].reshape(r, r, -1)
        parts.append(_eliminate(a, p, values).reshape(-1, count))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return out[:, 0] if ks is None else out


@lru_cache(maxsize=None)
def _lagrange(n: int, index: int) -> np.ndarray:
    """The read-only Lagrange matrix L mod p of field(n, index), its columns
    the units u in `units` order (module docstring).  Synthetic division by
    x - a for every root a at once, q[i-1] = Phi_N[i] + a * q[i], yields
    row i of L before scaling; Horner's rule on the same q gives Phi_N'(a)."""
    p = field(n, index)[0]
    poly = [c % p for c in cyclotomic_polynomial(n)]
    phi = len(poly) - 1
    roots = _root_powers(n, index)[np.array(units(n)) % n]
    lag = np.empty((phi, phi), dtype=np.int64)
    q = np.ones(phi, dtype=np.int64)
    deriv = np.zeros(phi, dtype=np.int64)
    for i in range(phi - 1, -1, -1):
        lag[i] = q
        deriv = (deriv * roots + q) % p
        q = (q * roots + poly[i]) % p
    np.multiply(lag, _inverse(deriv, p), out=lag)
    np.remainder(lag, p, out=lag)
    lag.flags.writeable = False  # shared by every caller through the cache
    return lag


def _coefficients(vals: np.ndarray, n: int, index: int) -> np.ndarray:
    """Coefficients mod p from the values `vals` (B, phi) at the units:
    vals @ L^T in 16-bit limbs of vals, so that no int64 partial sum passes
    phi * 2^47 < 2^62 (phi < 2^15)."""
    p = field(n, index)[0]
    lag = _lagrange(n, index).T
    low = (vals & 0xFFFF) @ lag
    high = (vals >> 16) @ lag % p
    return ((high << 16) + low) % p


def _crt_symmetric(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The integers of absolute value below prod(primes) / 2 with the given
    residues (Garner's mixed-radix CRT; Python ints past one prime)."""
    x, m = residues[0], primes[0]
    if len(primes) > 1:
        x = x.astype(object)
        for res, p in zip(residues[1:], primes[1:]):
            x = x + m * ((res.astype(object) - x) * pow(m, -1, p) % p)
            m *= p
    return np.where(x > m // 2, x - m, x)


def _as_batch(exps) -> np.ndarray:
    """`exps` as an int64 batch of shape (B, r, r), r >= 1; not copied."""
    exps = np.asarray(exps, dtype=np.int64)
    if exps.ndim != 3 or exps.shape[1] != exps.shape[2] or exps.shape[1] < 1:
        raise ValueError("expected exponent matrices of shape (B, r, r), r >= 1")
    return exps


def det_power_batch(ring: CycRing, exps) -> np.ndarray:
    """Exact determinants of a batch of w-power matrices.

    exps: (B, r, r) integer exponents (any int64; reduced mod N per chunk).
    Returns canonical coefficient vectors, shape (B, phi): int64 while
    r! * max|coeff(w^j)| stays below 2^62, Python ints (dtype object) past it.
    """
    exps = _as_batch(exps)
    n, r = ring.modulus, exps.shape[1]
    weight = factorial(r) * ring.power_bound
    ks = np.array(units(n), dtype=np.int64)
    primes, residues = [], []
    for index in range(_primes_for(n, 2 * weight)):
        primes.append(field(n, index)[0])
        residues.append(_coefficients(_evaluate(exps, n, index, True, ks), n, index))
    coeffs = _crt_symmetric(residues, primes)
    return coeffs.astype(np.int64 if weight < 2 ** 62 else object, copy=False)


def zero_flags(n: int, exps, screen: bool = True) -> tuple[np.ndarray, int]:
    """(flags, screened): exact vanishing flags of a batch of w-power
    determinants at modulus n, and how many the one-prime screen certified
    nonzero.  The screen's survivors are swept by their Galois conjugates:
    those that vanish at every unit at each prime until M^2 > r^r vanish
    in Z[w] (module docstring), and no coefficient is computed.  The sweep
    skips u = 1 at the first prime, which the screen has taken.
    `screen=False`, for candidates a caller already found 0 mod the first
    prime, sends every minor to the sweep, u = 1 included: a candidate
    from a table 0 everywhere may be nonzero there.  `screened` is then 0."""
    exps = _as_batch(exps)
    r = exps.shape[1]
    idx = np.arange(len(exps))
    if screen:
        idx = idx[_evaluate(exps, n, 0, False)]
    screened = len(exps) - len(idx)
    ks = np.array(units(n), dtype=np.int64)
    for index in range(_primes_for(n, isqrt(r ** r))):
        todo = ks[1:] if screen and index == 0 else ks
        if len(idx) and len(todo):
            idx = idx[_evaluate(exps[idx], n, index, False, todo).all(axis=1)]
    flags = np.zeros(len(exps), dtype=bool)
    flags[idx] = True
    return flags, screened


def index_zero_flags(n: int, rows, cols, screen: bool = True) -> tuple[np.ndarray, int]:
    """`zero_flags` of the minors (w^(rows[b, i] * cols[b, j]))_ij given by
    integer index arrays of shape (B, r), one call per slice of at most
    _SLICE_BYTES of int64 products (an empty batch is one slice), so
    neither the products nor the engine's working set grow with B."""
    if rows.ndim != 2 or rows.shape != cols.shape:
        raise ValueError("expected row and column index arrays of one shape (B, r)")
    step = max(1, _SLICE_BYTES // (8 * max(rows.shape[1], 1) ** 2))
    parts = [zero_flags(n, np.multiply(rows[s:s + step, :, None], cols[s:s + step, None, :],
                                       dtype=np.int64), screen)
             for s in range(0, max(len(rows), 1), step)]
    return np.concatenate([flags for flags, _ in parts]), sum(hits for _, hits in parts)


def det_power_single(ring: CycRing, exps) -> CycElem:
    """Exact determinant of one w-power matrix, as a ring element."""
    return ring.element(det_power_batch(ring, np.asarray(exps, dtype=np.int64)[None])[0])


def approx_det_batch(ring: CycRing, exps) -> tuple[np.ndarray, np.ndarray]:
    """A stub that certifies nothing: value 0 within bound +inf for each
    matrix of the batch.  Its one caller is perfbench's kernel points (and
    the tracer binding that times them); ROADMAP item 5 deletes the stub
    together with that call."""
    nbatch = len(_as_batch(exps))
    return np.zeros(nbatch, dtype=np.complex128), np.full(nbatch, np.inf)
