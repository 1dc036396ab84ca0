"""Fast exact determinants for matrices whose entries are powers of w.

Intermediate values are kept modulo x^N - 1 as length-N integer vectors, so
multiplying by an entry w^e is a cyclic index shift instead of a polynomial
product; a single linear reduction modulo Phi_N at the end brings results to
canonical form.  The expansion is the subset dynamic program over column
sets (memoized Laplace expansion, no division, valid over any commutative
ring): O(r * 2^r) shift-adds per matrix, vectorized across a batch of
matrices with numpy int64.

Every coefficient that appears is a signed count of Leibniz terms, bounded
by r!, so int64 arithmetic is exact within the enforced limits.  Callers
outside the limits fall back to the general CycElem determinant.

A structurally identical complex128 twin (`approx_det_batch`) computes the
determinant value in floats while propagating a rigorous error bound; it
certifies determinants as nonzero but never as zero.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

import numpy as np

from .cyclotomic import CycElem, CycRing, ROOT_ERROR, _EPS

ENGINE_MAX_R = 16
ENGINE_MAX_N = 64
_INT64_BUDGET = 2 ** 62
_LEVEL_BYTES_BUDGET = 256 * 2 ** 20


class EngineUnavailable(Exception):
    """The batched kernel cannot guarantee exactness for these parameters."""


@lru_cache(maxsize=None)
def _transitions(r: int):
    """Per-level expansion plan: for each column set, (prev index, col, sign).

    Level k holds all k-subsets of the r columns in lexicographic order;
    the determinant over rows 0..k-1 and column set T expands along row
    k-1 with cofactor sign (-1)^(k-1+pos).
    """
    levels = []
    prev_index = {(): 0}
    for k in range(1, r + 1):
        sets = list(combinations(range(r), k))
        trans = []
        for s in sets:
            row = []
            for pos, col in enumerate(s):
                rest = s[:pos] + s[pos + 1:]
                sign = 1 if (pos + k - 1) % 2 == 0 else -1
                row.append((prev_index[rest], col, sign))
            trans.append(tuple(row))
        levels.append(tuple(trans))
        prev_index = {s: i for i, s in enumerate(sets)}
    return tuple(levels)


def _check_engine(ring: CycRing, r: int) -> tuple[np.ndarray, np.ndarray]:
    if r < 1:
        raise ValueError("matrix dimension must be >= 1")
    if r > ENGINE_MAX_R or ring.modulus > ENGINE_MAX_N:
        raise EngineUnavailable(f"r={r}, N={ring.modulus} outside kernel limits")
    tables = ring.np_tables()
    if tables is None:
        raise EngineUnavailable("reduction table entries too large for int64")
    power, red = tables
    red_norm = int(np.abs(red).sum(axis=0).max()) if red.size else 0
    if factorial(r) * (1 + red_norm) > _INT64_BUDGET:
        raise EngineUnavailable("coefficient bound exceeds int64 budget")
    return power, red


def reduce_raw(ring: CycRing, raw: np.ndarray) -> np.ndarray:
    """Canonical (B, phi) coefficients from raw (B, N) vectors mod x^N - 1."""
    phi = ring.totient
    tables = ring.np_tables()
    if tables is None:
        raise EngineUnavailable("reduction table entries too large for int64")
    red = tables[1]
    out = raw[:, :phi].astype(np.int64, copy=True)
    if raw.shape[1] > phi:
        out += raw[:, phi:] @ red
    return out


def det_power_batch(ring: CycRing, exps: np.ndarray) -> np.ndarray:
    """Exact determinants of a batch of w-power matrices.

    exps: (B, r, r) integer exponents (any residues; reduced mod N here).
    Returns canonical coefficient vectors, shape (B, phi), int64.
    """
    exps = np.asarray(exps, dtype=np.int64)
    if exps.ndim != 3 or exps.shape[1] != exps.shape[2]:
        raise ValueError("expected exponent matrices of shape (B, r, r)")
    nbatch, r, _ = exps.shape
    _check_engine(ring, r)
    n = ring.modulus
    exps = exps % n
    if nbatch == 0:
        return np.zeros((0, ring.totient), dtype=np.int64)

    per_class = max(len(level) for level in _transitions(r)) * n * 8 * 2
    chunk = max(1, _LEVEL_BYTES_BUDGET // per_class)
    if nbatch <= chunk:
        return _det_chunk(ring, exps)
    parts = [_det_chunk(ring, exps[i:i + chunk]) for i in range(0, nbatch, chunk)]
    return np.concatenate(parts, axis=0)


def _det_chunk(ring: CycRing, exps: np.ndarray) -> np.ndarray:
    n = ring.modulus
    nbatch, r, _ = exps.shape
    ar = np.arange(n, dtype=np.int64)[None, :]
    prev = np.zeros((nbatch, 1, n), dtype=np.int64)
    prev[:, 0, 0] = 1
    for k, level in enumerate(_transitions(r), start=1):
        cur = np.zeros((nbatch, len(level), n), dtype=np.int64)
        row = k - 1
        for t_idx, contribs in enumerate(level):
            acc = cur[:, t_idx]
            for prev_idx, col, sign in contribs:
                e = exps[:, row, col]
                idx = (ar - e[:, None]) % n
                shifted = np.take_along_axis(prev[:, prev_idx], idx, axis=1)
                if sign > 0:
                    acc += shifted
                else:
                    acc -= shifted
        prev = cur
    return reduce_raw(ring, prev[:, 0])


def det_power_single(ring: CycRing, exps) -> CycElem:
    """Exact determinant of one w-power matrix, as a ring element."""
    canon = det_power_batch(ring, np.asarray(exps, dtype=np.int64)[None, :, :])[0]
    return CycElem(ring, tuple(int(c) for c in canon))


def approx_det_batch(ring: CycRing, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds): |values[b] - exact det| <= bounds[b], rigorously.

    The same subset expansion as the exact kernel, run in complex128 with
    per-state error propagation.  Entry values come from the ring's float
    root table (per-root error ROOT_ERROR); each multiply-add contributes
    generous rounding slack.  Useful only to certify determinants nonzero.
    """
    exps = np.asarray(exps, dtype=np.int64)
    nbatch, r, _ = exps.shape
    if r > ENGINE_MAX_R:
        raise EngineUnavailable(f"r={r} outside kernel limits")
    n = ring.modulus
    exps = exps % n
    roots = ring.float_roots
    if nbatch == 0:
        return np.zeros(0, dtype=np.complex128), np.zeros(0)

    per_class = max(len(level) for level in _transitions(r)) * 24 * 2
    chunk = max(1, _LEVEL_BYTES_BUDGET // per_class)
    if nbatch > chunk:
        parts = [approx_det_batch(ring, exps[i:i + chunk]) for i in range(0, nbatch, chunk)]
        return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))

    prev = np.ones((nbatch, 1), dtype=np.complex128)
    prev_err = np.zeros((nbatch, 1))
    for k, level in enumerate(_transitions(r), start=1):
        cur = np.zeros((nbatch, len(level)), dtype=np.complex128)
        cur_err = np.zeros((nbatch, len(level)))
        row = k - 1
        for t_idx, contribs in enumerate(level):
            acc = cur[:, t_idx]
            err = cur_err[:, t_idx]
            sum_abs = np.zeros(nbatch)
            for prev_idx, col, sign in contribs:
                w = roots[exps[:, row, col]]
                u = prev[:, prev_idx]
                term = w * u
                abs_u = np.abs(u)
                abs_t = np.abs(term)
                err += prev_err[:, prev_idx] + ROOT_ERROR * (abs_u + prev_err[:, prev_idx])
                err += 8.0 * _EPS * abs_t
                sum_abs += abs_t
                if sign > 0:
                    acc += term
                else:
                    acc -= term
            err += 2.0 * _EPS * k * sum_abs
        prev, prev_err = cur, cur_err
    return prev[:, 0].copy(), prev_err[:, 0].copy()
