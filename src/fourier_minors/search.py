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
from itertools import combinations

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
    max_incremental_size: int | None = None
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
    exps = (rows[:, :, None] * cols[:, None, :]) % ring.modulus
    return powerdet.zero_flags(ring, exps)[0]


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
        limit = len(others) + 1
        if self.config.max_incremental_size is not None:
            limit = min(limit, self.config.max_incremental_size)
        for s in range(1, limit + 1):
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

    def dfs(self) -> tuple[int, ...] | None:
        self._check_budget()
        if len(self.assigned) == self.n:
            image = tuple(int(x) for x in self.img)
            if is_good_permutation(self.n, image):
                return image
            return None
        pos, vals = self._select_position()
        candidates = vals if vals is not None else [
            v for v in range(self.n) if v not in self.used
        ]
        for v in candidates:
            self.nodes += 1
            self.img[pos] = v
            self.used.add(v)
            ok = vals is not None or self._passes_incremental(pos)
            if ok:
                self.assigned.append(pos)
                result = self.dfs()
                if result is not None:
                    return result
                self.assigned.pop()
            self.img[pos] = -1
            self.used.discard(v)
        return None


def _run_branch(
    config: SearchConfig, first_value: int, deadline: float | None, on_test=None
) -> tuple[tuple[int, ...] | None, int, dict[int, int], bool]:
    """DFS of the subtree with position 0 pinned to first_value.

    Returns (image or None, nodes, prune counts, completed).
    """
    state = _SearchState(config, on_test=on_test, deadline=deadline)
    state.nodes += 1
    state.img[0] = first_value
    state.used.add(first_value)
    try:
        if not state._passes_incremental(0):
            return None, state.nodes, dict(state.prunes), True
        state.assigned.append(0)
        image = state.dfs()
        return image, state.nodes, dict(state.prunes), True
    except _BudgetExpired:
        return None, state.nodes, dict(state.prunes), False


def _branch_worker(args) -> tuple[tuple[int, ...] | None, int, dict[int, int], bool]:
    config, first_value, budget = args
    deadline = time.monotonic() + budget if budget is not None else None
    return _run_branch(config, first_value, deadline)


def _load_checkpoint(path: str, config: SearchConfig):
    done: set[int] = set()
    found: tuple[int, ...] | None = None
    nodes = 0
    prunes: Counter[int] = Counter()
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return done, found, nodes, prunes
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["kind"] == "config":
                for key in ("modulus", "order", "symmetry"):
                    if rec[key] != getattr(config, key):
                        raise PreconditionError(
                            f"checkpoint {path} was written with {key}={rec[key]!r}"
                        )
            elif rec["kind"] == "prefix_done":
                done.add(int(rec["prefix"][0]))
                nodes += int(rec.get("nodes", 0))
                prunes.update({int(k): v for k, v in rec.get("prunes", {}).items()})
            elif rec["kind"] == "found":
                found = tuple(int(x) for x in rec["image"])
    return done, found, nodes, prunes


def find_good_permutation(config: SearchConfig, on_test=None) -> SearchOutcome:
    """Depth-first search over all column permutations of the given modulus.

    Deterministic given the config: branches are explored in ascending
    first-value order and the first good permutation in that order is
    returned.  With jobs > 1 all branches are evaluated and the same
    lexicographically first find is selected.  A budget expiry yields
    found=None, exhausted=False (inconclusive), distinct from a completed
    empty search.
    """
    start = time.monotonic()
    n = config.modulus
    nodes = 0
    prunes: Counter[int] = Counter()
    done: set[int] = set()
    prior_found: tuple[int, ...] | None = None
    writer = None
    if config.checkpoint_path:
        done, prior_found, nodes, prunes = _load_checkpoint(config.checkpoint_path, config)
        writer = open(config.checkpoint_path, "a", encoding="utf-8")
        if not done and prior_found is None:
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
        if prior_found is not None:
            if not is_good_permutation(n, prior_found):
                raise AssertionError("checkpointed permutation failed re-verification")
            return SearchOutcome(n, Permutation(n, prior_found), False, nodes,
                                 dict(prunes), time.monotonic() - start)

        branches = [0] if config.symmetry else list(range(n))
        pending = [v for v in branches if v not in done]
        deadline = start + config.time_budget if config.time_budget else None
        found: tuple[int, ...] | None = None
        all_completed = True

        if config.jobs > 1 and len(pending) > 1:
            args = [(config, v, config.time_budget) for v in pending]
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                results = list(pool.map(_branch_worker, args))
            for v, (image, bn, bp, completed) in zip(pending, results):
                nodes += bn
                prunes.update(bp)
                if not completed:
                    all_completed = False
                    continue
                if image is not None and found is None:
                    found = image
                    _emit({"kind": "found", "image": list(image)})
                elif image is None:
                    _emit({"kind": "prefix_done", "prefix": [v], "nodes": bn,
                           "prunes": {str(k): c for k, c in bp.items()}})
        else:
            for v in pending:
                image, bn, bp, completed = _run_branch(config, v, deadline, on_test)
                nodes += bn
                prunes.update(bp)
                if not completed:
                    all_completed = False
                    break
                if image is not None:
                    found = image
                    _emit({"kind": "found", "image": list(image)})
                    break
                _emit({"kind": "prefix_done", "prefix": [v], "nodes": bn,
                       "prunes": {str(k): c for k, c in bp.items()}})

        if found is not None:
            if not is_good_permutation(n, found):
                raise AssertionError("search returned a permutation that fails verification")
            return SearchOutcome(n, Permutation(n, found), False, nodes,
                                 dict(prunes), time.monotonic() - start)
        return SearchOutcome(n, None, all_completed, nodes, dict(prunes),
                             time.monotonic() - start)
    finally:
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
    found: list[Permutation] = []
    state = _SearchState(SearchConfig(modulus))

    def walk() -> bool:
        if len(state.assigned) == modulus:
            image = tuple(int(x) for x in state.img)
            if is_good_permutation(modulus, image):
                found.append(Permutation(modulus, image))
                if limit is not None and len(found) >= limit:
                    return True
            return False
        pos = state.assigned[-1] + 1 if state.assigned else 0
        for v in range(modulus):
            if v in state.used:
                continue
            state.img[pos] = v
            state.used.add(v)
            if state._passes_incremental(pos):
                state.assigned.append(pos)
                if walk():
                    return True
                state.assigned.pop()
            state.img[pos] = -1
            state.used.discard(v)
        return False

    walk()
    return found

