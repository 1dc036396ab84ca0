"""Backtracking search for column permutations whose permuted Fourier
matrix (w^(k*sigma(l))) has no vanishing principal minor.

For an index set K, the principal submatrix of the permuted matrix has
rows K and columns sigma(K) in the order of K, so every test is an exact
determinant of a w-power matrix.  The search assigns sigma position by
position, deciding at each node the domain of one free position (forward
checking; Haralick and Elliott, Artif. Intell. 14, 1980): for each unused
value, the smallest size of a vanishing minor on the position plus
assigned positions once it takes the value, or 0.  A vanishing minor
vanishes under every completion, so a prune loses no good permutation;
along a completed branch the tested families union to the full power set,
so a surviving leaf is good.  Each leaf is still checked in full by
`is_good_permutation`, a fresh sweep that reads none of the branch's tables
(the leaf lemma below).  That check borders by the same `_border` step and
rests on the same Desnanot-Jacobi lemma as the search, so a fault in either
would reach both; the check that decides every minor on its own, by the
engine alone, is the oracle in tests/oracles.py that the tests compare
against.

Lemma (bordered tables).  Let p be the first prime of `powerdet.field`,
zeta its element of order N, and M[r, v] = zeta^(r*v) mod p.  For a set S
of assigned positions, listed in assignment order, write m_S(r, v) for the
minor mod p on rows S + {r} and columns sigma(S) + {v}.  The search keeps,
for every S, a table over free positions r and unused values v:

    D_{}(r, v) = M[r, v],
    D_{S+d}(r, v) = D_S(d, sigma d) * D_S(r, v) - D_S(r, sigma d) * D_S(d, v)  (mod p)

for a position d assigned after S.  By the Desnanot-Jacobi identity, which
holds over any commutative ring, D_S(r, v) = +-k_S * m_S(r, v) with k_{} = 1
and k_{S+d} = k_S^2 * m(S), m(S) the minor of S alone.  This is bordering by
scaled Schur complements without division (Griffin and Tsatsomeros,
"Principal minors, Part I", Linear Algebra Appl. 419, 2006).  So k_S is a
product of powers of the minors of the proper prefixes of S, and:
- if none of those vanishes mod p, D_S(r, v) = 0 iff m_S(r, v) = 0;
- otherwise D_S is 0 everywhere.
Either way a nonzero entry proves the minor nonzero in Z[w], and a zero
entry is a candidate that `_vanishing_sizes` decides as follows.
- Sizes 1 and 2 (|S| <= 1, k_S = 1) are exact.  A 1x1 minor is a power of
  zeta.  On positions a, b with sa = sigma(a) and sb = sigma(b), the 2x2
  minor is zeta^(a*sa + b*sb) - zeta^(a*sb + b*sa); as zeta has order exactly
  N, it is 0 mod p iff the exponents agree mod N, that is iff
  (a - b)(sa - sb) = 0 (mod N), which is also when it vanishes in Z[w].
- A zero at size >= 3, which may be a zero mod p only or an entry of a table
  that is 0 everywhere, goes to the engine's conjugate sweep
  (`powerdet.index_confirm_zeros`): one batch per size, smallest size
  first, for the values of the row decided that no smaller size has failed.
  The search and the leaf sweep share this decoder.  There is no second
  screen at u = 1, but the sweep still takes u = 1: an entry of a table
  that is 0 everywhere says nothing about the minor's own value there,
  and the zeros-from-conjugates lemma of `powerdet` needs every unit.
These decisions need N alone, never a ring; |S| is the bit count of S's mask.

Assigning sigma(d) = v drops row d and column v from every table and adds
D_{S+d} for every S.  The tables of depth k are one (N-k) x (N-k) x 2^k int64
array, with the subsets by bitmask over assignment order on the last axis.
A branch holds sum_k 2^k (N-k)^2 entries, about 350k (2.8 MB) at N = 16.
`_descend` pushes them and pops them on return.  One assignment is one
`_border` step.

Lemma (leaf sweep).  For a whole permutation sigma, assign the positions
in ascending order and write the column of value sigma(c) as position c,
so D_{}(r, c) = zeta^(r*sigma(c)) and every step borders with row 0 and
column 0.  Every nonempty set T is S + {t} for t = max T and S within
0 .. t-1, so entry (0, 0) of D_S at depth t is, by the lemma above, a
nonzero multiple of the minor on T or an entry of a table that is 0
everywhere.  So N - 1 bordering steps cover all 2^N - 1 principal minors,
sum_k 2^k (N-k)^2 < 6 * 2^N residue operations in all, against C(N, r)
eliminations of O(r^3) for each size r when every minor is decided on its
own.  The shared decoder decides the zeros of entry (0, 0), smallest size
first, and the sweep stops at the first exact zero.

Block independence.  D_{S+d} is computed from D_S alone, so the tables of
S and of every S + T with T after S evolve without reading another
subset's table.  The subset axis can therefore be cut into blocks at any
depth, and each block swept to the end on its own: `_leaf_sweep` cuts a
block whose bordered tables would pass _LEAF_BYTES into blocks of as many
subsets as keep their tables under it to the end, and at least one.  The
tables a block is cut from hold at most about _LEAF_BYTES and stay alive
while its blocks are swept.  While one subset's tables fit, that is while
8 * max_t 2^t (f - t)^2 <= _LEAF_BYTES, i.e. f <= 16 rows at the cut
(every N <= 25), a cut happens once and the peak is a few _LEAF_BYTES.
Past that a block of one subset outgrows the cap and is cut again deeper,
each cut level keeping up to about _LEAF_BYTES alive, so the peak grows
with the number of cut levels and so with N (uncut, the tables of N = 21
alone peak near 83 MB RSS).

Each node decides one row with one `_domain` call, in both orders.
`ascending` decides the first free position.  `most-constrained`
(fail-first) compares every free row of the top tables with 0 and decides
the first with the fewest values whose entries are all nonzero.  By the
bordered-tables lemma that is the first with the fewest passing values,
unless a zero is one mod p only or lies in a table 0 everywhere; every
value of the row taken is confirmed, so the choice moves no verdict.  Each
value tried is one node (`nodes_expanded`); a value whose entry is a size
s is one prune at s (`prune_counts`); every other is searched below.

Lemma (shift).  Adding c to every value of sigma multiplies row k of the
permuted matrix by w^(k*c), and the minor on K by w^(c * sum K), so sigma
is good iff sigma - sigma(0) is.  The search walks only the tree of
sigma(0) = 0, and exhausting it shows that N has no good permutation;
`enumerate_good_permutations` still walks every first value, and the tests
compare it with brute force.  Complementation is NOT assumed for permuted
matrices.

Lemma (units).  The subtrees below the root sigma(0) = 0 in which the first
decided position (1 for `ascending`) takes the value v = 1..N-1 partition
the tree, so the root plus their counts are a serial walk's, and the first
find in DFS order is the first of the first unit with one.  A unit
(`_run_unit`) decides the root's domain again and reads its own cell.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .errors import PreconditionError
from .theorems import ordered_map
from . import powerdet

ORDER_ASCENDING = "ascending"
ORDER_MOST_CONSTRAINED = "most-constrained"

ENUMERATE_MAX_N = 12
# Working-set cap of one block of leaf-check tables (`_leaf_sweep`).
_LEAF_BYTES = 2 ** 20


@dataclass(frozen=True)
class Permutation:
    modulus: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.modulus or sorted(self.image) != list(range(self.modulus)):
            raise ValueError("image is not a permutation of 0..N-1")

    @classmethod
    def identity(cls, modulus: int) -> Permutation:
        return cls(modulus, tuple(range(modulus)))

    def __call__(self, i: int) -> int:
        return self.image[i]


@dataclass(frozen=True)
class SearchConfig:
    modulus: int
    order: str = ORDER_ASCENDING
    time_budget: float | None = None
    jobs: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise PreconditionError("need modulus >= 1")
        if self.order not in (ORDER_ASCENDING, ORDER_MOST_CONSTRAINED):
            raise PreconditionError(f"unknown order policy {self.order!r}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise PreconditionError("time budget must be positive")
        if self.jobs < 1:
            raise PreconditionError("jobs must be >= 1")


@dataclass(frozen=True)
class SearchOutcome:
    """found implies the permutation re-verified good in full; exhausted and
    not found implies no good permutation exists for this modulus, as the
    sigma(0) = 0 tree holds none (the shift lemma in the module docstring)."""

    modulus: int
    found: Permutation | None
    exhausted: bool
    nodes_expanded: int
    prune_counts: dict[int, int]
    wall_time: float


class _BudgetExpired(Exception):
    pass


def _border(tables: np.ndarray, i: int, j: int, p: int) -> np.ndarray:
    """One division-free bordering step (module docstring): the tables D_S
    of shape (f, g, m) for m subsets S become (f - 1, g - 1, 2m), every D_S
    without row i and column j on the first half and, on the second,
    D_(S + d) = D_S[i, j] * D_S - D_S[:, j] (x) D_S[i, :] mod p for the
    position d of row i."""
    f, g, m = tables.shape
    out = np.empty((f - 1, g - 1, 2 * m), dtype=np.int64)
    old, new = out[:, :, :m], out[:, :, m:]
    old[:i, :j], old[:i, j:] = tables[:i, :j], tables[:i, j + 1:]
    old[i:, :j], old[i:, j:] = tables[i + 1:, :j], tables[i + 1:, j + 1:]
    # residues below p < 2^31: each product and their difference fit int64
    np.multiply(old, tables[i, j], out=new)
    col = np.concatenate((tables[:i, j], tables[i + 1:, j]))
    row = np.concatenate((tables[i, :j], tables[i, j + 1:]))
    new -= col[:, None] * row
    np.remainder(new, p, out=new)
    return out


@lru_cache(maxsize=None)
def _ahead(f: int) -> int:
    """The most entries per subset that a block of leaf tables with f rows,
    or any block bordered from it, holds: max_t 2^t (f - t)^2."""
    return max(2 ** t * (f - t) ** 2 for t in range(f))


def _vanishing_sizes(by_bit, image, masks, cols, pos, value) -> np.ndarray:
    """fail[b]: the smallest size of an exactly vanishing minor among the
    zero entries of value[b] in the new row pos, or 0.  Entry e is the minor
    on positions S + {pos} and values image[S] + {value[cols[e]]}, S the
    positions by_bit[i] of the bits i of masks[e]; len(image) = N.  Sizes 1
    and 2 are exact (module docstring); the engine takes the rest in one
    batch per size, smallest first, for values no smaller size has failed."""
    fail = np.zeros(len(value), dtype=np.int64)
    sizes = np.bitwise_count(masks) + 1
    # a 1x1 minor is a power of zeta, never 0 mod p
    fail[cols[sizes == 2]] = 2
    for s in sorted(set(sizes[sizes > 2].tolist())):  # np.unique imports numpy.ma
        live = (sizes == s) & (fail[cols] == 0)
        if not live.any():
            continue
        bits = masks[live, None] >> np.arange(len(by_bit)) & 1
        minors = np.empty((len(bits), s), dtype=np.int64)
        minors[:, :-1] = by_bit[np.nonzero(bits)[1].reshape(-1, s - 1)]
        minors[:, -1] = pos
        columns = image[minors]
        columns[:, -1] = value[cols[live]]
        vanish = powerdet.index_confirm_zeros(len(image), minors, columns)
        fail[cols[live][vanish]] = s
    return fail


def _leaf_sweep(image: np.ndarray, tables: np.ndarray, masks: np.ndarray) -> bool:
    """Whether no minor on S + T vanishes, for the subsets S of positions
    below k = N - len(tables) given by bitmask in `masks`, their tables D_S
    (columns by position) in `tables`, and every nonempty T within k .. N-1.
    A block whose bordered tables would pass _LEAF_BYTES is cut along the
    subset axis into blocks that stay under it to the end, or of one subset
    each when one subset's tables outgrow it (module docstring)."""
    n = len(image)
    p = powerdet.field(n)[0]
    while True:
        f, _, m = tables.shape
        k = n - f
        if m > 1 and 16 * m * (f - 1) ** 2 > _LEAF_BYTES:
            step = max(1, _LEAF_BYTES // (8 * _ahead(f)))
            return all(_leaf_sweep(image, tables[:, :, s:s + step], masks[s:s + step])
                       for s in range(0, m, step))
        zero = tables[0, 0] == 0
        if zero.any():
            cell = np.zeros(np.count_nonzero(zero), dtype=np.int64)
            if _vanishing_sizes(np.arange(k), image, masks[zero], cell, k, image[k:k + 1])[0]:
                return False
        if f == 1:
            return True
        tables = _border(tables, 0, 0, p)
        masks = np.concatenate([masks, masks | 1 << k])


def is_good_permutation(modulus: int, sigma) -> bool:
    """Exact check that no principal minor of the permuted matrix vanishes,
    by one bordered sweep mod p over the positions in ascending order (the
    leaf lemma in the module docstring)."""
    perm = sigma if isinstance(sigma, Permutation) else Permutation(modulus, tuple(sigma))
    if perm.modulus != modulus:
        raise PreconditionError(f"a permutation of {perm.modulus} elements checked "
                                f"at modulus {modulus}")
    image = np.array(perm.image, dtype=np.int64)
    k = np.arange(modulus)
    tables = powerdet._root_powers(modulus, 0)[np.outer(k, image) % modulus][..., None]
    return _leaf_sweep(image, tables, np.zeros(1, dtype=np.int64))


class _SearchState:
    def __init__(self, config: SearchConfig, deadline: float | None = None):
        self.config = config
        self.n = config.modulus
        self.p = powerdet.field(self.n)[0]
        self.deadline = deadline
        self.nodes = 0
        self.prunes: Counter[int] = Counter()
        self.img = np.full(config.modulus, -1, dtype=np.int64)
        self.assigned: list[int] = []
        k = np.arange(self.n)
        # the tables D_S of each depth (module docstring)
        self.stack = [powerdet._root_powers(self.n, 0)[np.outer(k, k) % self.n][..., None]]

    def _check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExpired

    def _push(self, pos: int, value: int) -> None:
        """Assign sigma(pos) = value: every D_S loses row pos and column
        value, and D_(S + pos) joins them for every S."""
        img = self.img.tolist()
        i = sum(x < 0 for x in img[:pos])
        j = value - sum(0 <= x < value for x in img)
        self.stack.append(_border(self.stack[-1], i, j, self.p))
        self.img[pos] = value
        self.assigned.append(pos)

    def _domain(self, positions) -> tuple[int, np.ndarray, np.ndarray]:
        """(pos, values, fail): pos is the first of `positions` (free,
        ascending) with the fewest unused values whose table entries are all
        nonzero; values are the unused values, ascending; fail[b] is the
        smallest size of a vanishing minor on pos plus assigned positions
        once pos takes values[b], or 0.  One decoder call reads pos alone."""
        values = np.flatnonzero(np.bincount(self.img[self.assigned], minlength=self.n) == 0)
        zero = self.stack[-1][np.cumsum(self.img < 0)[positions] - 1] == 0  # their rows
        row = int(np.argmin(np.count_nonzero(~zero.any(axis=2), axis=1)))
        cols, masks = np.nonzero(zero[row])
        fail = _vanishing_sizes(np.array(self.assigned, dtype=np.int64), self.img, masks,
                                cols, positions[row], values)
        return positions[row], values, fail

    def _descend(self, pos: int, value: int):
        """Leaves below the assignment sigma(pos) = value."""
        self._push(pos, value)
        yield from self.leaves()
        self.img[self.assigned.pop()] = -1
        self.stack.pop()

    def leaves(self, cut: slice = slice(None)):
        """Re-verified good images below the current assignment, in DFS
        order, below the values[cut] of the position decided here."""
        self._check_budget()
        img = self.img.tolist()
        free = [p for p, x in enumerate(img) if x < 0]
        if not free:
            if is_good_permutation(self.n, img):
                yield tuple(img)
            return
        if self.config.order == ORDER_ASCENDING:
            free = free[:1]
        pos, values, fail = self._domain(free)
        for v, f in zip(values[cut].tolist(), fail[cut].tolist()):
            self.nodes += 1
            if f:
                self.prunes[f] += 1
            else:
                yield from self._descend(pos, v)


def _units(modulus: int) -> range:
    """The values 1..N-1 of the first position decided below the root, one
    unit each (units lemma).  F_1's root is its one leaf, and unit 1 holds it."""
    return range(1, max(modulus, 2))


def _run_unit(config: SearchConfig, value: int, deadline: float | None):
    """(image or None, nodes, prune counts, completed) of unit `value`, the
    DFS below sigma(0) = 0 and the first decided position taking `value`,
    up to its first leaf.  A unit started after the deadline does no work."""
    state = _SearchState(config, deadline=deadline)
    try:
        state._push(0, 0)
        # the root's values are 1..N-1 ascending
        image = next(state.leaves(slice(value - 1, value)), None)
        return image, state.nodes, dict(state.prunes), True
    except _BudgetExpired:
        return None, state.nodes, dict(state.prunes), False


def _load_checkpoint(path: str, config: SearchConfig):
    """(done, found, nodes, prunes) from the checkpoint at `path`.

    The first line is the config line, which must equal this search's; each
    `prefix_done` and `found` line adds its unit's nodes and prunes.  A
    last line without its newline is the trace of an interrupted write: once
    the rest is read, it is cut off, so appends start on a fresh line; a new
    or empty file gets its config line.  A refused file is left as it was:
    one with any other malformed line or unknown kind, a prefix other than
    [0, v] for a unit v or one that repeats a unit, a negative count, or a
    prune size outside 1..N.
    """
    header = {"kind": "config", "modulus": config.modulus, "order": config.order}
    done: set[int] = set()
    found: tuple[int, ...] | None = None
    nodes, prunes = 0, Counter()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    end = data.rfind(b"\n") + 1
    for number, line in enumerate(data[:end].splitlines(), 1):
        try:
            rec = json.loads(line)
            if number == 1 and rec["kind"] != "config":
                raise ValueError("the first line is not the config line")
            if rec["kind"] == "config":
                if rec != header:
                    raise PreconditionError(f"checkpoint {path} was written for {rec}, "
                                            f"not {header}")
                continue
            if rec["kind"] == "prefix_done":
                zero, v = rec["prefix"]
                if (type(zero), zero, type(v)) != (int, 0, int) or v in done or (
                        v not in _units(config.modulus)):
                    raise ValueError(f"prefix {rec['prefix']} is no new unit [0, v]")
                done.add(v)
            elif rec["kind"] == "found":
                found = Permutation(config.modulus, tuple(int(x) for x in rec["image"])).image
            else:
                raise ValueError(f"unknown kind {rec['kind']!r}")
            counts = {int(k): c for k, c in rec.get("prunes", {}).items()}
            work = [rec.get("nodes", 0), *counts.values()]
            if any(type(c) is not int or c < 0 for c in work) or not all(
                    1 <= k <= config.modulus for k in counts):
                raise ValueError("negative counts or prune sizes outside 1..N")
            nodes += work[0]
            prunes.update(counts)
        except PreconditionError:
            raise
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            raise PreconditionError(f"checkpoint {path} line {number} is malformed: "
                                    f"{exc}") from None
    with open(path, "r+b" if data else "wb") as fh:
        fh.truncate(end)
        if not end:
            fh.write(json.dumps(header).encode() + b"\n")
    return done, found, nodes, prunes


def find_good_permutation(config: SearchConfig) -> SearchOutcome:
    """Depth-first search of the sigma(0) = 0 tree, which decides every
    column permutation of the modulus (the shift lemma).

    Units (the units lemma) are taken in ascending order, each writing its
    checkpoint line when its result arrives, and the search stops at the
    first find, the first good permutation in DFS order.  jobs > 1 runs
    units ahead in worker processes (`ordered_map`), consumed in the same
    order, so outcome, node and prune counts equal a serial run's; the
    workers stop when the search returns or raises.  The root counts one
    node besides its units.  One absolute deadline (time.monotonic is
    system-wide) covers every unit, and a unit started after it does no
    work.  An expiry yields found=None, exhausted=False (inconclusive),
    unless with jobs > 1 a later unit finished with a find in time.
    """
    start = time.monotonic()
    n = config.modulus
    path = config.checkpoint_path
    done, found, nodes, prunes = (_load_checkpoint(path, config) if path
                                  else (set(), None, 0, Counter()))
    writer = open(path, "a", encoding="utf-8") if path else None
    results = None

    def _emit(rec: dict) -> None:
        if writer is not None:
            writer.write(json.dumps(rec) + "\n")
            writer.flush()

    try:
        # a checkpointed find is only re-verified
        pending = [v for v in ([] if found else _units(n)) if v not in done]
        deadline = start + config.time_budget if config.time_budget else None
        unit = partial(_run_unit, config, deadline=deadline)
        results = ordered_map(unit, pending, min(config.jobs, len(pending)))
        all_completed = True
        for v, (image, un, up, completed) in zip(pending, results):
            nodes += un
            prunes.update(up)
            work = {"nodes": un, "prunes": {str(k): c for k, c in up.items()}}
            if not completed:
                all_completed = False
            elif image is not None:
                found = image
                _emit({"kind": "found", "image": list(image), **work})
                break
            else:
                _emit({"kind": "prefix_done", "prefix": [0, v], **work})

        nodes += 1  # the root, sigma(0) = 0
        # `leaves` verified a fresh find; one read from the checkpoint is checked here
        if found and not pending and not is_good_permutation(n, found):
            raise PreconditionError(f"checkpoint {path} records a permutation "
                                    "that is not good")
        return SearchOutcome(n, Permutation(n, found) if found else None,
                             not found and all_completed, nodes, dict(prunes),
                             time.monotonic() - start)
    finally:
        if results is not None:
            results.close()
        if writer is not None:
            writer.close()


def enumerate_good_permutations(
    modulus: int, limit: int | None = None, *, override: bool = False
) -> list[Permutation]:
    """All good permutations (up to limit), in lexicographic image order."""
    if modulus > ENUMERATE_MAX_N and not override:
        raise PreconditionError(f"modulus {modulus} exceeds the enumeration ceiling "
                                f"{ENUMERATE_MAX_N}")
    leaves = _SearchState(SearchConfig(modulus)).leaves()
    return [Permutation(modulus, image) for image in islice(leaves, limit)]
