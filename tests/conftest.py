import random
from itertools import combinations, permutations

import numpy as np
import pytest

from fourier_minors import ring_new
from fourier_minors import powerdet


def leibniz_det(modulus, exps):
    """Reference determinant of (w^exps[i][j]): the full permutation sum
    with inversion signs.

    Deliberately naive (r! terms), shares no code with the subset expansion
    or the batched kernel: the term of sigma adds its sign at exponent
    sum_i exps[i][sigma(i)] mod N of a count vector, which `element`
    reduces mod Phi_N.
    """
    r = len(exps)
    counts = [0] * modulus
    for perm in permutations(range(r)):
        inversions = sum(
            1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
        )
        exponent = sum(int(exps[i][perm[i]]) for i in range(r)) % modulus
        counts[exponent] += -1 if inversions % 2 else 1
    return ring_new(modulus).element(counts)


@pytest.fixture
def leibniz():
    return leibniz_det


@pytest.fixture
def rng():
    return random.Random(20240901)


_MAP_CACHE: dict[int, dict[int, bool]] = {}


def full_singularity_map(n: int) -> dict[int, bool]:
    """Singularity of every nonempty K (keyed by bitmask), exact."""
    if n not in _MAP_CACHE:
        ring = ring_new(n)
        flags: dict[int, bool] = {}
        for r in range(1, n + 1):
            members = np.array(list(combinations(range(n), r)), dtype=np.int64)
            members = members.reshape(-1, r)
            exps = (members[:, :, None] * members[:, None, :]) % n
            canon = powerdet.det_power_batch(ring, exps)
            singular = ~canon.any(axis=1)
            for row, flag in zip(members, singular):
                mask = 0
                for k in row:
                    mask |= 1 << int(k)
                flags[mask] = bool(flag)
        _MAP_CACHE[n] = flags
    return _MAP_CACHE[n]


@pytest.fixture
def singularity_map():
    return full_singularity_map


_SCAN_CACHE: dict[int, object] = {}


def cached_scan(n: int):
    """Default-config scan_all(n), shared across tests."""
    if n not in _SCAN_CACHE:
        from fourier_minors import scan_all

        _SCAN_CACHE[n] = scan_all(n)
    return _SCAN_CACHE[n]
