"""Test oracles and helpers that no command needs.

The closed small-minor forms and the translation identity never touch the
batched engine, so they cross-check its verdicts: the forms write their
count vectors (sum of c * x^e, length N) by hand and reduce them with
`CycRing.element`, and the identity compares two `det_exact` count
expansions, multiplying one by w^e as a shift of its coefficients before
`element`.  The polynomial helpers check Phi_N by plain long multiplication
and division, and `nonzero_screen` exposes the engine's one-prime screen on
its own.  `is_good_permutation` decides every principal minor of a permuted
matrix as its own engine determinant, with none of the search's bordered
tables.
"""

from itertools import combinations, islice

import numpy as np

from fourier_minors import IndexSet, Permutation, PreconditionError, det_exact
from fourier_minors import powerdet
from fourier_minors.theorems import _CHUNK


def index_reduce(k: IndexSet) -> IndexSet:
    """Translate so the smallest member becomes 0 (differences mod N)."""
    if len(k) == 0:
        raise PreconditionError("cannot reduce an empty index set")
    base = k.members[0]
    return IndexSet.of(k.modulus, ((x - base) % k.modulus for x in k.members))


def shift(k: IndexSet, c: int) -> IndexSet:
    return IndexSet.of(k.modulus, ((x + c) % k.modulus for x in k.members))


def _element(ring, terms):
    """sum of c * w^e over (e, c) in terms, through a count vector."""
    counts = [0] * ring.modulus
    for e, c in terms:
        counts[e % ring.modulus] += c
    return ring.element(counts)


def det_2x2_formula(ring, a: int):
    """Closed form for the minor on {0, a}: w^(a^2) - 1."""
    if not 0 < a <= ring.modulus - 1:
        raise PreconditionError("need 0 < a <= N-1")
    return _element(ring, [(a * a, 1), (0, -1)])


def _3x3_terms(ring, a: int, b: int):
    """The terms of (w^(a^2) - 1)(w^(b^2) - 1) and of (w^(ab) - 1)^2."""
    if not 0 < a < b <= ring.modulus - 1:
        raise PreconditionError("need 0 < a < b <= N-1")
    lhs = [(a * a + b * b, 1), (a * a, -1), (b * b, -1), (0, 1)]
    rhs = [(2 * a * b, 1), (a * b, -2), (0, 1)]
    return lhs, rhs


def det_3x3_formula(ring, a: int, b: int):
    """Closed form for the minor on {0, a, b}:
    (w^(a^2) - 1)(w^(b^2) - 1) - (w^(ab) - 1)^2.
    """
    lhs, rhs = _3x3_terms(ring, a, b)
    return _element(ring, lhs + [(e, -c) for e, c in rhs])


def singular_3x3_condition(ring, a: int, b: int) -> bool:
    """Whether (w^(a^2) - 1)(w^(b^2) - 1) equals (w^(ab) - 1)^2."""
    lhs, rhs = _3x3_terms(ring, a, b)
    return _element(ring, lhs) == _element(ring, rhs)


SHIFT_CHECK_MAX = 8


def shift_identity_check(ring, k: IndexSet) -> bool:
    """Verify det F[K] = w^(a1*(-r*a1 + 2*sum(K))) * det F[L], L = K - a1.

    Exact check of the translation identity behind `index_reduce`, at test
    scale (|K| <= 8).
    """
    r = len(k)
    if not 1 <= r <= SHIFT_CHECK_MAX:
        raise PreconditionError(f"need 1 <= |K| <= {SHIFT_CHECK_MAX}")
    n = ring.modulus
    lhs = det_exact(n, [[x * y for y in k] for x in k])
    reduced = index_reduce(k)
    a1 = k.members[0]
    exponent = a1 * (-r * a1 + 2 * sum(k.members))
    det_l = det_exact(n, [[x * y for y in reduced] for x in reduced])
    rhs = ring.element([0] * (exponent % n) + list(det_l.coeffs))
    return lhs == rhs


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def ring_add(x, y):
    """x + y for two elements of one ring: coefficients added, then reduced."""
    return x.ring.element([a + b for a, b in zip(x.coeffs, y.coeffs)])


def ring_mul(x, y):
    """x * y: the coefficient lists multiplied as polynomials, then reduced."""
    return x.ring.element(poly_mul(list(x.coeffs), list(y.coeffs)))


def poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial (ascending coefficients)."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    dn = len(den) - 1
    if len(rem) - 1 < dn:
        return [0], rem
    quot = [0] * (len(rem) - dn)
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            quot[k - dn] = c
            for i in range(dn + 1):
                rem[k - dn + i] -= c * den[i]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def nonzero_screen(ring, exps):
    """True where the determinant is nonzero at the first prime with
    w -> zeta.  Every True is an exact certificate; a False is undecided."""
    return ~powerdet._evaluate(powerdet._as_batch(exps), ring.modulus, 0, False)


def is_good_permutation(modulus: int, sigma) -> bool:
    """Exact check that no principal minor of the permuted matrix vanishes."""
    perm = sigma if isinstance(sigma, Permutation) else Permutation(modulus, tuple(sigma))
    image = np.array(perm.image, dtype=np.int64)
    for r in range(2, modulus + 1):  # a 1x1 minor is a power of w
        subsets = combinations(range(modulus), r)
        # batches of at most _CHUNK indices, so no array grows with C(N, r)
        for batch in iter(lambda: list(islice(subsets, max(1, _CHUNK // r))), []):
            rows = np.array(batch, dtype=np.int64)
            if powerdet.index_zero_flags(modulus, rows, image[rows])[0].any():
                return False
    return True
