"""Canonical values of Z[w], w = exp(2*pi*i/N), and their one reduction.

An element is an integer coefficient vector over the power basis
1, w, ..., w^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial by
`CycRing.element`.  Phi_N is the minimal polynomial of w over Q, so the
representation is canonical: two elements are equal as complex numbers
exactly when their coefficient vectors are identical, and the zero test is
"all coefficients zero".  The module does no ring arithmetic: `powerdet`
and `minors.det_exact` compute, and reduce their results here.

Phi_N is computed exactly from the binomials x^(N/e) - 1 over the
square-free divisors e of N (`cyclotomic_polynomial`); no factoring of
Phi_N and no floating point enters the arithmetic.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import PreconditionError

DEFAULT_MAX_MODULUS = 10_000

# The int64 power table is only built when every entry fits comfortably,
# leaving headroom for the batched determinant kernel.
_NP_TABLE_LIMIT = 2 ** 40


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending: each divisor > 1 that no smaller
    one divides."""
    primes: list[int] = []
    for d in divisors(n)[1:]:
        if all(d % p for p in primes):
            primes.append(d)
    return primes


def check_modulus(modulus: int) -> None:
    """Refuse a modulus outside 1 .. DEFAULT_MAX_MODULUS (rings, prime fields)."""
    if modulus < 1:
        raise PreconditionError("modulus must be >= 1")
    if modulus > DEFAULT_MAX_MODULUS:
        raise PreconditionError(f"modulus {modulus} exceeds the precomputation bound "
                                f"{DEFAULT_MAX_MODULUS}")


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The units mod n as 1 .. n, ascending (so 1 comes first)."""
    return tuple(u for u in range(1, n + 1) if math.gcd(u, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, exact integers, monic.

    Moebius inversion of x^n - 1 = prod_{d | n} Phi_d gives
    Phi_n = prod over square-free e | n of (x^(n/e) - 1)^mu(e).  The
    mu = +1 binomials are multiplied out, then the mu = -1 ones divided
    exactly: f = g * (x^d - 1) means f_k = g_(k-d) - g_k, so
    g_k = g_(k-d) - f_k from the lowest degree up.
    """
    if n < 1:
        raise PreconditionError("modulus must be a positive integer")
    terms = [(1, 1)]  # (square-free e, mu(e))
    for p in prime_divisors(n):
        terms += [(e * p, -mu) for e, mu in terms]
    poly = [1]
    for e, mu in terms:
        if mu == 1:
            d = n // e
            prod = [-c for c in poly] + [0] * d
            for k, c in enumerate(poly):
                prod[k + d] += c
            poly = prod
    for e, mu in terms:
        if mu == -1:
            d = n // e
            quot = [0] * (len(poly) - d)
            for k in range(len(quot)):
                quot[k] = (quot[k - d] if k >= d else 0) - poly[k]
            if poly[len(quot):] != ([0] * d + quot)[len(quot):]:
                raise AssertionError(f"inexact cyclotomic division at n={n}, e={e}")
            poly = quot
    return tuple(poly)


class CycRing:
    """Ring context for a fixed modulus N: Phi_N and its reduction.

    `element` reduces any coefficient list modulo Phi_N.  The int64 power
    table (`np_tables`) and `power_bound` are filled on first use and never
    change after (threads racing on first use build equal copies), so
    instances may be shared freely across threads and processes.
    """

    def __init__(self, modulus: int) -> None:
        check_modulus(modulus)
        self.modulus = modulus
        self.phi_poly: tuple[int, ...] = cyclotomic_polynomial(modulus)
        self.totient: int = len(self.phi_poly) - 1
        self._table: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"CycRing({self.modulus})"

    def element(self, coeffs) -> CycElem:
        """The canonical element sum_j coeffs[j] * w^j.

        A list longer than phi is folded to length N by x^N = 1 (Phi_N
        divides x^N - 1), then long-divided by the monic Phi_N in Python
        ints: from the top, a lead c at degree k >= phi is cleared by
        subtracting c * x^(k-phi) * Phi_N.
        """
        n, phi = self.modulus, self.totient
        coeffs = list(map(int, coeffs))
        if len(coeffs) <= phi:
            return CycElem(self, tuple(coeffs + [0] * (phi - len(coeffs))))
        rem = np.zeros(-(-len(coeffs) // n) * n, dtype=object)
        rem[:len(coeffs)] = coeffs
        rem = rem.reshape(-1, n).sum(axis=0)
        head = np.array(self.phi_poly[:-1], dtype=object)
        for k in range(n - 1, phi - 1, -1):
            if rem[k]:
                rem[k - phi:k] -= rem[k] * head
        return CycElem(self, tuple(rem[:phi].tolist()))

    @cached_property
    def power_bound(self) -> int:
        """h = max over j of max|coeff(x^j mod Phi_N)|, without the table."""
        return self._walk_powers()

    def np_tables(self) -> np.ndarray:
        """The read-only int64 power table, shape (N, phi): row j holds the
        canonical coefficients of x^j mod Phi_N, j = 0 .. N-1.  Raises
        PreconditionError when an entry exceeds _NP_TABLE_LIMIT."""
        if self._table is None:
            full = np.empty((self.modulus, self.totient), dtype=np.int64)
            self._walk_powers(full)
            full.flags.writeable = False
            self._table = full
        return self._table

    def _walk_powers(self, out: np.ndarray | None = None) -> int:
        """max|coeff(x^j mod Phi_N)| over j < N, row j written to out[j] if
        `out` is given.  x^(j+1) = x * x^j: shift up one degree (the window
        buf[N-1-j : N-1-j+phi] is row j) and fold the lead back through
        x^phi = -(Phi_N - x^phi).  An entry grows by at most
        |lead| * max|head| per step, so no entry overflows while every lead
        stays within _NP_TABLE_LIMIT; a zero lead leaves the bound as is."""
        n, phi = self.modulus, self.totient
        head = -np.array(self.phi_poly[:-1], dtype=np.int64)
        if n * int(np.abs(head).max()) * _NP_TABLE_LIMIT >= 2 ** 62:
            raise PreconditionError(f"Phi_{n} is too large for an int64 power table")
        buf = np.zeros(n - 1 + phi, dtype=np.int64)
        buf[n - 1] = bound = 1
        for j in range(n):
            row = buf[n - 1 - j:n - 1 - j + phi]
            lead = int(buf[n - 1 - j + phi]) if j else 0  # the last entry of row j-1
            if lead:
                row += lead * head
                bound = max(bound, int(row.max()), -int(row.min()))
                if bound > _NP_TABLE_LIMIT:
                    raise PreconditionError(f"x^j mod Phi_{n} outgrows the int64 power table")
            if out is not None:
                out[j] = row
        return bound


@lru_cache(maxsize=None)
def ring_new(modulus: int) -> CycRing:
    """Shared, cached ring context for the given modulus."""
    return CycRing(modulus)


class CycElem:
    """A canonical element of Z[w], as `CycRing.element` builds it; a value."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CycRing, coeffs: tuple[int, ...]) -> None:
        self.ring = ring
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"CycElem(N={self.ring.modulus}, {list(self.coeffs)})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycElem):
            return self.ring.modulus == other.ring.modulus and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.modulus, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)
