"""Index sets, complementation, and exact principal minors.

Singularity tests and minor records on w-power submatrices use the exact
multimodular engine of `powerdet` at the modulus of their index set.
`det_exact` is the count expansion, an oracle that shares no code with the
engine; no command decides through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add, sub

import numpy as np

from .cyclotomic import CycElem, ring_new
from .errors import PreconditionError
from . import powerdet

DET_MAX_DIM = 28


@dataclass(frozen=True)
class IndexSet:
    """A subset of {0, ..., N-1}: strictly increasing members, fixed modulus."""

    modulus: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        prev = -1
        for k in self.members:
            if not isinstance(k, int):
                raise ValueError(f"member {k!r} is not an int")
            if not 0 <= k < self.modulus:
                raise ValueError(f"member {k!r} outside 0..{self.modulus - 1}")
            if k <= prev:
                raise ValueError("members must be strictly increasing")
            prev = k

    @classmethod
    def of(cls, modulus: int, members) -> IndexSet:
        members = sorted(int(k) for k in members)
        if len(set(members)) != len(members):
            raise ValueError("duplicate indices")
        return cls(modulus, tuple(members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, k: int) -> bool:
        return k in self.members


@dataclass(frozen=True)
class MinorRecord:
    """One decided principal minor: `singular` equals `determinant.is_zero()`."""

    index_set: IndexSet
    size: int
    singular: bool
    determinant: CycElem


def complement(k: IndexSet) -> IndexSet:
    present = set(k.members)
    return IndexSet(k.modulus, tuple(i for i in range(k.modulus) if i not in present))


def exponent_matrix(rows: IndexSet, cols: IndexSet) -> np.ndarray:
    """The exponents (k*l mod N) for k in rows, l in cols."""
    if rows.modulus != cols.modulus:
        raise ValueError(f"row and column sets of moduli {rows.modulus} and {cols.modulus}")
    r = np.array(rows.members, dtype=np.int64)
    c = np.array(cols.members, dtype=np.int64)
    return (r[:, None] * c[None, :]) % rows.modulus


def det_exact(modulus: int, exps) -> CycElem:
    """Exact determinant of the matrix (w^exps[i][j]), dimension 1..DET_MAX_DIM.

    Subset expansion along the last row, with no division, over count
    vectors: c of length N stands for sum_j c[j] x^j in Z[x]/(x^N - 1), so
    an entry w^e acts on it as a cyclic shift by e.  Level k holds the
    determinants of the first k rows against every k-subset of columns; the
    last level is reduced once mod Phi_N by `CycRing.element`.  Memory is
    the largest binomial level times N, so keep r small.
    """
    ring = ring_new(modulus)
    exps = [[int(e) % modulus for e in row] for row in exps]
    r = len(exps)
    if r == 0:
        raise PreconditionError("determinant of an empty matrix is not defined here")
    if r > DET_MAX_DIM:
        raise PreconditionError(f"dimension {r} exceeds the ceiling {DET_MAX_DIM}")
    if any(len(row) != r for row in exps):
        raise ValueError("matrix is not square")
    prev = {(): [1] + [0] * (modulus - 1)}
    for k, row in enumerate(exps, 1):
        cur: dict[tuple[int, ...], list[int]] = {}
        for cols in combinations(range(r), k):
            acc = [0] * modulus
            for pos, col in enumerate(cols):
                rest = prev[cols[:pos] + cols[pos + 1:]]
                cut = modulus - row[col]
                acc = list(map(add if (pos + k - 1) % 2 == 0 else sub, acc,
                               rest[cut:] + rest[:cut]))
            cur[cols] = acc
        prev = cur
    return ring.element(prev[tuple(range(r))])


def is_singular(k: IndexSet) -> bool:
    """Exact singularity of the principal submatrix for index set k."""
    if len(k) == 0:
        raise PreconditionError("singularity of the empty set is not defined")
    members = np.array(k.members)[None]
    return bool(powerdet.index_zero_flags(k.modulus, members, members)[0][0])


def minor_record(k: IndexSet) -> MinorRecord:
    det = powerdet.det_power_single(ring_new(k.modulus), exponent_matrix(k, k))
    return MinorRecord(index_set=k, size=len(k), singular=det.is_zero(), determinant=det)
