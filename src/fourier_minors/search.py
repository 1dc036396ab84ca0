"""Backtracking search for column permutations whose permuted Fourier
matrix (w^(k*sigma(l))) has no vanishing principal minor.

For an index set K, the principal submatrix of the permuted matrix equals
the plain Fourier submatrix with rows K and columns sigma(K), so every test
reduces to an exact determinant of a w-power matrix.  The search assigns
sigma position by position; after each assignment it tests exactly the
subsets of assigned positions that contain the new position, smallest sizes
first, and prunes on the first vanishing minor.  Along any completed branch
those families union to the full power set, so a surviving leaf is a good
permutation (it is re-verified in full anyway).

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

from .cyclotomic import CycRing, ring_new
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


def _batch_rows_cols_singular(
    ring: CycRing, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Vanishing flags for dets of F[rows[b], cols[b]] batches."""
    return powerdet.zero_flags(ring, rows[:, :, None] * cols[:, None, :])[0]


def is_good_permutation(modulus: int, sigma) -> bool:
    """Exact check that no principal minor of the permuted matrix vanishes."""
    perm = sigma if isinstance(sigma, Permutation) else Permutation(modulus, tuple(sigma))
    ring = ring_new(modulus)
    image = np.array(perm.image, dtype=np.int64)
    for r in range(1, modulus + 1):
        rows = np.array(list(combinations(range(modulus), r)), dtype=np.int64)
        rows = rows.reshape(-1, r)
        cols = np.sort(image[rows], axis=1)
        if _batch_rows_cols_singular(ring, rows, cols).any():
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
        self.used: set[int] = set()

    def _check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExpired

    def _passes_incremental(self, pos: int) -> bool:
        """Test every subset of assigned positions containing `pos`."""
        others = self.assigned
        for s in range(1, len(others) + 2):
            combos = list(combinations(others, s - 1))
            rows = np.sort(
                np.array([c + (pos,) for c in combos], dtype=np.int64).reshape(-1, s),
                axis=1,
            )
            cols = np.sort(self.img[rows], axis=1)
            singular = _batch_rows_cols_singular(self.ring, rows, cols)
            if self.on_test is not None:
                for row in rows:
                    self.on_test(tuple(int(x) for x in row), len(self.assigned))
            if singular.any():
                self.prunes[s] += 1
                return False
        return True

    def _viable_values(self, pos: int) -> list[int]:
        vals = []
        for v in range(self.n):
            if v in self.used:
                continue
            self.img[pos] = v
            if self._passes_incremental(pos):
                vals.append(v)
            self.img[pos] = -1
        return vals

    def _select_position(self) -> tuple[int, list[int] | None]:
        unassigned = [p for p in range(self.n) if self.img[p] < 0]
        if self.config.order == ORDER_ASCENDING:
            return unassigned[0], None
        best_pos, best_vals = None, None
        for p in unassigned:
            vals = self._viable_values(p)
            if best_vals is None or len(vals) < len(best_vals):
                best_pos, best_vals = p, vals
                if not vals:
                    break
        return best_pos, best_vals

    def leaves(self):
        """Re-verified good images below the current assignment, in DFS order."""
        self._check_budget()
        if len(self.assigned) == self.n:
            image = tuple(int(x) for x in self.img)
            if is_good_permutation(self.n, image):
                yield image
            return
        pos, vals = self._select_position()
        candidates = vals if vals is not None else [
            v for v in range(self.n) if v not in self.used
        ]
        for v in candidates:
            self.nodes += 1
            self.img[pos] = v
            self.used.add(v)
            if vals is not None or self._passes_incremental(pos):
                self.assigned.append(pos)
                yield from self.leaves()
                self.assigned.pop()
            self.img[pos] = -1
            self.used.discard(v)


def _run_branch(
    config: SearchConfig, first_value: int, deadline: float | None, on_test=None
) -> tuple[tuple[int, ...] | None, int, dict[int, int], bool]:
    """DFS of the subtree with position 0 pinned to first_value, up to its
    first leaf.  A branch started after the deadline does no work.

    Returns (image or None, nodes, prune counts, completed).
    """
    state = _SearchState(config, on_test=on_test, deadline=deadline)
    image = None
    try:
        state._check_budget()
        state.nodes += 1
        state.img[0] = first_value
        state.used.add(first_value)
        if state._passes_incremental(0):
            state.assigned.append(0)
            image = next(state.leaves(), None)
        return image, state.nodes, dict(state.prunes), True
    except _BudgetExpired:
        return None, state.nodes, dict(state.prunes), False


def _load_checkpoint(path: str, config: SearchConfig):
    """(done, found, nodes, prunes) from the checkpoint at `path`.

    The first line is a config line, which must match `config`; each
    `prefix_done` and `found` line adds its branch's nodes and prunes.  A
    last line without its newline is the trace of an interrupted write: it
    is dropped and cut off the file, so appends start on a fresh line.  Any
    other malformed line or unknown kind is refused.
    """
    done: set[int] = set()
    found: tuple[int, ...] | None = None
    nodes = 0
    prunes: Counter[int] = Counter()
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
                        raise PreconditionError(
                            f"checkpoint {path} was written with {key}={rec[key]!r}"
                        )
                continue
            if rec["kind"] == "prefix_done":
                done.add(int(rec["prefix"][0]))
            elif rec["kind"] == "found":
                found = Permutation(config.modulus, tuple(int(x) for x in rec["image"])).image
            else:
                raise ValueError(f"unknown kind {rec['kind']!r}")
            nodes += int(rec.get("nodes", 0))
            prunes.update({int(k): int(v) for k, v in rec.get("prunes", {}).items()})
        except PreconditionError:
            raise
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            raise PreconditionError(
                f"checkpoint {path} line {number} is malformed: {exc}"
            ) from None
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
    writer = None
    pool = None
    if config.checkpoint_path:
        done, found, nodes, prunes = _load_checkpoint(config.checkpoint_path, config)
        writer = open(config.checkpoint_path, "a", encoding="utf-8")
        if writer.tell() == 0:  # a new or empty file starts with its config line
            writer.write(json.dumps({
                "kind": "config", "modulus": n, "order": config.order,
                "symmetry": config.symmetry,
            }) + "\n")
            writer.flush()

    def _emit(rec: dict) -> None:
        if writer is not None:
            writer.write(json.dumps(rec) + "\n")
            writer.flush()

    try:
        # a checkpointed find is only re-verified
        branches = [] if found else range(1 if config.symmetry else n)
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
        raise PreconditionError(
            f"modulus {modulus} exceeds the enumeration ceiling {ENUMERATE_MAX_N}"
        )
    leaves = _SearchState(SearchConfig(modulus)).leaves()
    return [Permutation(modulus, image) for image in islice(leaves, limit)]
