"""Backtracking search for column permutations whose permuted Fourier
matrix (w^(k*sigma(l))) has no vanishing principal minor.

For an index set K, the principal submatrix of the permuted matrix has
rows K and columns sigma(K) in the order of K, so every test is an exact
determinant of a w-power matrix.  The search assigns sigma position by
position, deciding at each node the domain of one free position (forward
checking; Haralick and Elliott, Artif. Intell. 14, 1980): for each unused
value, the smallest size of a vanishing minor on the position plus
assigned positions once it takes the value, or 0.  Each size is one engine
batch over (values still alive x subsets), smallest first.  A vanishing
minor vanishes under every completion, so a prune loses no good
permutation; along a completed branch the tested families union to the
full power set, so a surviving leaf is good (it is re-verified anyway).

Both order policies count alike.  `ascending` takes the first free
position, `most-constrained` the one with the fewest zero entries (the
first on ties).  Each value tried there is one node (`nodes_expanded`); a
value whose entry is a size s is one prune at s (`prune_counts`), and
every other value is assigned and searched below.

Complementation is NOT assumed for permuted matrices; nothing here relies
on it.  Exhaustion claims rest only on the plain depth-first tree, plus the
optional first-value symmetry reduction: adding a constant to every value
of sigma rescales each row of the permuted matrix by a root of unity and
preserves every minor's vanishing, so searching sigma(first position) = 0
covers all permutations up to that equivalence.  The reduction defaults to
off; the test suite validates it against brute force for small moduli and
as a shift-invariance property.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice

import numpy as np

from .cyclotomic import ring_new
from .errors import PreconditionError
from . import powerdet

ORDER_ASCENDING = "ascending"
ORDER_MOST_CONSTRAINED = "most-constrained"

ENUMERATE_MAX_N = 12


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
    symmetry: bool = False
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
    not found implies no good permutation exists for this modulus."""

    modulus: int
    found: Permutation | None
    exhausted: bool
    nodes_expanded: int
    prune_counts: dict[int, int]
    wall_time: float


class _BudgetExpired(Exception):
    pass


def is_good_permutation(modulus: int, sigma) -> bool:
    """Exact check that no principal minor of the permuted matrix vanishes."""
    perm = sigma if isinstance(sigma, Permutation) else Permutation(modulus, tuple(sigma))
    ring = ring_new(modulus)
    image = np.array(perm.image, dtype=np.int64)
    for r in range(1, modulus + 1):
        rows = np.array(list(combinations(range(modulus), r)), dtype=np.int64).reshape(-1, r)
        if powerdet.zero_flags(ring, rows[:, :, None] * image[rows][:, None, :])[0].any():
            return False
    return True


class _SearchState:
    def __init__(self, config: SearchConfig, on_test=None, deadline: float | None = None):
        self.config = config
        self.n = config.modulus
        self.ring = ring_new(config.modulus)
        self.on_test = on_test
        self.deadline = deadline
        self.nodes = 0
        self.prunes: Counter[int] = Counter()
        self.img = np.full(config.modulus, -1, dtype=np.int64)
        self.assigned: list[int] = []

    def _check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExpired

    def _domain(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, fail): the unused values in ascending order and, for
        each, the smallest size of a vanishing minor on `pos` plus assigned
        positions once sigma(pos) takes it, or 0 when none vanishes."""
        values = np.setdiff1d(np.arange(self.n), self.img[self.assigned])
        fail = np.zeros(len(values), dtype=np.int64)
        for s in range(1, len(self.assigned) + 2):
            live = np.flatnonzero(fail == 0)
            if not len(live):
                break
            rows = np.array([c + (pos,) for c in combinations(self.assigned, s - 1)],
                            dtype=np.int64).reshape(-1, s)
            for row in rows.tolist() if self.on_test is not None else []:
                self.on_test(tuple(sorted(row)), len(self.assigned))
            cols = np.repeat(self.img[rows][None], len(live), axis=0)
            cols[:, :, -1] = values[live, None]
            exps = rows[None, :, :, None] * cols[:, :, None, :]
            zero = powerdet.zero_flags(self.ring, exps.reshape(-1, s, s))[0]
            vanish = zero.reshape(len(live), -1).any(axis=1)
            fail[live[vanish]] = s
        return values, fail

    def _descend(self, pos: int, value: int):
        """Leaves below the assignment sigma(pos) = value."""
        self.img[pos] = value
        self.assigned.append(pos)
        yield from self.leaves()
        self.assigned.pop()
        self.img[pos] = -1

    def leaves(self):
        """Re-verified good images below the current assignment, in DFS order."""
        self._check_budget()
        free = [p for p in range(self.n) if self.img[p] < 0]
        if not free:
            image = tuple(int(x) for x in self.img)
            if is_good_permutation(self.n, image):
                yield image
            return
        if self.config.order == ORDER_ASCENDING:
            free = free[:1]
        best = None
        for p in free:
            values, fail = self._domain(p)
            if best is None or np.count_nonzero(fail == 0) < np.count_nonzero(best[2] == 0):
                best = p, values, fail
                if fail.all():
                    break
        pos, values, fail = best
        for v, f in zip(values.tolist(), fail.tolist()):
            self.nodes += 1
            if f:
                self.prunes[f] += 1
            else:
                yield from self._descend(pos, v)


def _run_branch(
    config: SearchConfig, first_value: int, deadline: float | None, on_test=None
) -> tuple[tuple[int, ...] | None, int, dict[int, int], bool]:
    """(image or None, nodes, prune counts, completed) of the DFS below
    sigma(0) = first_value, up to its first leaf.  A branch started after
    the deadline does no work."""
    state = _SearchState(config, on_test=on_test, deadline=deadline)
    try:
        state._check_budget()
        state.nodes += 1
        if on_test is not None:
            on_test((0,), 0)  # F[0, sigma(0)] = w^0 = 1 needs no engine call
        image = next(state._descend(0, first_value), None)
        return image, state.nodes, dict(state.prunes), True
    except _BudgetExpired:
        return None, state.nodes, dict(state.prunes), False


def _branches(config: SearchConfig) -> range:
    """The values of position 0, one branch each."""
    return range(1 if config.symmetry else config.modulus)


def _load_checkpoint(path: str, config: SearchConfig):
    """(done, found, nodes, prunes) from the checkpoint at `path`.

    The first line is a config line, which must match `config`; each
    `prefix_done` and `found` line adds its branch's nodes and prunes.  A
    last line without its newline is the trace of an interrupted write: it
    is dropped and cut off the file, so appends start on a fresh line.  Any
    other malformed line or unknown kind is refused, and so is a prefix
    that is not one of this search's branches or repeats one, a negative
    count, or a prune size outside 1..N.
    """
    done: set[int] = set()
    found: tuple[int, ...] | None = None
    nodes, prunes = 0, Counter()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    for number, line in enumerate(data[:end].splitlines(), 1):
        try:
            rec = json.loads(line)
            if number == 1 and rec["kind"] != "config":
                raise ValueError("the first line is not the config line")
            if rec["kind"] == "config":
                for key in ("modulus", "order", "symmetry"):
                    if rec[key] != getattr(config, key):
                        raise PreconditionError(f"checkpoint {path} was written with "
                                                f"{key}={rec[key]!r}")
                continue
            if rec["kind"] == "prefix_done":
                (v,) = rec["prefix"]
                if type(v) is not int or v not in _branches(config) or v in done:
                    raise ValueError(f"prefix {rec['prefix']} is no new branch")
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
    return done, found, nodes, prunes


def find_good_permutation(config: SearchConfig, on_test=None) -> SearchOutcome:
    """Depth-first search over all column permutations of the given modulus.

    Branches (first values) are taken in ascending order; each gets its
    checkpoint line when its result arrives, and the search stops at the
    first find, so that is the first good permutation in DFS order.
    jobs > 1 runs branches ahead in worker processes and consumes their
    results in the same order, so outcome, node and prune counts equal a
    serial run's.  One budget covers the search: every branch honours one
    absolute deadline (time.monotonic is system-wide) and a branch started
    after it does no work.  An expiry yields found=None, exhausted=False
    (inconclusive), distinct from a completed empty search, unless with
    jobs > 1 a later branch finished with a find in time.  on_test is
    honoured by serial runs only.
    """
    start = time.monotonic()
    n = config.modulus
    nodes = 0
    prunes: Counter[int] = Counter()
    done: set[int] = set()
    found: tuple[int, ...] | None = None
    writer = pool = None

    def _emit(rec: dict) -> None:
        if writer is not None:
            writer.write(json.dumps(rec) + "\n")
            writer.flush()

    if config.checkpoint_path:
        done, found, nodes, prunes = _load_checkpoint(config.checkpoint_path, config)
        writer = open(config.checkpoint_path, "a", encoding="utf-8")
        if writer.tell() == 0:  # a new or empty file starts with its config line
            _emit({"kind": "config", "modulus": n, "order": config.order,
                   "symmetry": config.symmetry})
    try:
        # a checkpointed find is only re-verified
        branches = [] if found else _branches(config)
        pending = [v for v in branches if v not in done]
        deadline = start + config.time_budget if config.time_budget else None
        branch = partial(_run_branch, config, deadline=deadline)
        if config.jobs > 1 and len(pending) > 1:
            import multiprocessing

            pool = multiprocessing.get_context("spawn").Pool(min(config.jobs, len(pending)))
            results = pool.imap(branch, pending)
        else:
            results = map(partial(branch, on_test=on_test), pending)
        all_completed = True
        for v, (image, bn, bp, completed) in zip(pending, results):
            nodes += bn
            prunes.update(bp)
            work = {"nodes": bn, "prunes": {str(k): c for k, c in bp.items()}}
            if not completed:
                all_completed = False
            elif image is not None:
                found = image
                _emit({"kind": "found", "image": list(image), **work})
                break
            else:
                _emit({"kind": "prefix_done", "prefix": [v], **work})

        if found is not None:
            if not is_good_permutation(n, found):
                if not pending:
                    raise PreconditionError(f"checkpoint {config.checkpoint_path} "
                                            "records a permutation that is not good")
                raise AssertionError("search returned a permutation that fails verification")
            return SearchOutcome(n, Permutation(n, found), False, nodes,
                                 dict(prunes), time.monotonic() - start)
        return SearchOutcome(n, None, all_completed, nodes, dict(prunes),
                             time.monotonic() - start)
    finally:
        if pool is not None:
            pool.terminate()
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
