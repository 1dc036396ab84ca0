"""Index sets, complementation, and exact principal minors.

`det_exact` works over arbitrary ring elements (memoized Laplace expansion,
no division); it is kept as an independent oracle.  Singularity tests and
minor records on w-power submatrices use the exact multimodular engine of
`powerdet` at the modulus of their index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cyclotomic import CycElem, CycRing, ring_new
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
            if not isinstance(k, int) or not 0 <= k < self.modulus:
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


def submatrix(ring: CycRing, rows: IndexSet, cols: IndexSet) -> list[list[CycElem]]:
    """The matrix (w^(k*l)) for k in rows, l in cols."""
    if rows.modulus != ring.modulus or cols.modulus != ring.modulus:
        raise ValueError("index set modulus does not match the ring")
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal cardinality")
    return [[ring.root_power(k * l) for l in cols.members] for k in rows.members]


def det_exact(matrix: list[list[CycElem]]) -> CycElem:
    """Exact determinant over the ring, dimension 1..DET_MAX_DIM.

    Subset dynamic program: level k holds determinants of the first k rows
    against every k-subset of columns; expansion along the last row needs
    no division.  Memory is the largest binomial level, so keep r small.
    """
    r = len(matrix)
    if r == 0:
        raise PreconditionError("determinant of an empty matrix is not defined here")
    if r > DET_MAX_DIM:
        raise PreconditionError(f"dimension {r} exceeds the ceiling {DET_MAX_DIM}")
    if any(len(row) != r for row in matrix):
        raise ValueError("matrix is not square")
    ring = matrix[0][0].ring
    prev = {(): ring.one()}
    for k in range(1, r + 1):
        row = matrix[k - 1]
        cur: dict[tuple[int, ...], CycElem] = {}
        for cols in combinations(range(r), k):
            acc = ring.zero()
            for pos, col in enumerate(cols):
                rest = cols[:pos] + cols[pos + 1:]
                term = row[col] * prev[rest]
                acc = acc + term if (pos + k - 1) % 2 == 0 else acc - term
            cur[cols] = acc
        prev = cur
    return prev[tuple(range(r))]


def is_singular(k: IndexSet) -> bool:
    """Exact singularity of the principal submatrix for index set k."""
    if len(k) == 0:
        raise PreconditionError("singularity of the empty set is not defined")
    members = np.array(k.members)[None]
    return bool(powerdet.index_zero_flags(k.modulus, members, members)[0][0])


def minor_record(k: IndexSet) -> MinorRecord:
    det = powerdet.det_power_single(ring_new(k.modulus), exponent_matrix(k, k))
    return MinorRecord(index_set=k, size=len(k), singular=det.is_zero(), determinant=det)
