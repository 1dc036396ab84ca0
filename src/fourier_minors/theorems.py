"""Executable checks at desk scale: nonvanishing of all 2x2 and 3x3
principal minors for square-free moduli, constructive singular witnesses of
every size for non-square-free moduli, and an exhaustive exact scan of all
principal minors of F_N.

The scanner decides every nonempty index set.  Two independently toggleable
reductions accelerate it without changing reported totals: complementary
sizes mirror each other (the complement lemma), and affine classes are
scanned once per orbit and weighted by orbit size.  Counts are always
full-orbit totals over all subsets.

Lemma (affine invariance).  For a unit u mod N and any c, F[uK + c] is
singular iff F[K] is.
- Translation: w^((k+c)(l+c)) = w^(kl) * w^(ck) * w^(cl) * w^(c^2), so
  F[K + c] is F[K] with rows and columns rescaled by roots of unity, and
  its determinant is det F[K] times a unit of Z[w].
- Multiplication: F[uK] = (w^(u^2 kl)) for k, l in K, the image of F[K]
  under the Galois automorphism w -> w^(u^2) of Q(w) (u^2 is a unit), which
  sends only 0 to 0.  Sorting uK permutes rows and columns alike, which
  leaves the determinant unchanged.
So singularity is constant on the orbits of the affine group
G = {k -> uk + c}, of order N * phi(N).  The scan decides one
representative per orbit, the set with the least bitmask sum 2^k, and
weights it by the orbit size N * phi(N) / |Stab(K)|, where
Stab(K) = {(u, c) : uK + c = K}.

Lemma (complement).  F[K] is singular iff F[K^c] is, for K^c = range(N) - K,
so sizes r and N - r are singular together.  F * conj(F) = N * I, so
F^-1 = conj(F) / N, and Jacobi's complementary-minor identity
det (A^-1)[K] = det A[K^c] / det A, applied to F and K^c, gives
    det F[K] = det F * conj(det F[K^c]) / N^(N - |K|),
where det F != 0 (|det F|^2 = N^N).  Conjugation is the Galois map
w -> w^-1, which sends only 0 to 0.  The scan's mirror, `build_witness`'s
complements and `verify_theorem1`'s sizes N-3 and N-2 rest on this;
tests/test_theorems.py::test_scan_reduction_equivalence_to_12 compares
scans with `use_complement` on and off.

Lemma (anchor rows).  Let N = p^2 m, p the least prime with p^2 | N.  Row
k*pm of F_N is (w^(k*pm*l))_l, and w^(pm) has order p, so the row depends
only on l mod p.  If K holds a >= 2 of these anchor rows and its members
meet fewer than a residue classes mod p, the a anchor rows of F[K] lie in
the space of vectors constant on each class, of dimension less than a, so
det F[K] = 0.  `build_witness` builds its sets to this condition.

Memory contract.  The candidates stream through the engine in chunks, so
a chunk's working set is bounded by _CHUNK, N <= 64 and EXEMPLAR_CAP,
whatever N, C(N-1, r-1) or the number of singular sets:
- a chunk is at most _CHUNK int8 rows, unranked by `_unrank`;
- the affine gap filter runs on the int8 rows, and only its survivors are
  widened to int64;
- the engine gets the members as index arrays, and its entry
  `powerdet.index_zero_flags` builds their exponent products one slice of
  at most 2^19 (16 * _CHUNK) at a time;
- orbit keys are expanded at most max(_IMAGES, N * phi(N)) images at a
  time, and at most 2 * EXEMPLAR_CAP keys per size are kept.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, islice
from math import comb, isqrt

import numpy as np

from .cyclotomic import check_modulus, divisors, units
from .errors import PreconditionError, WorkerError
from .minors import IndexSet, complement, is_singular
from . import powerdet


def is_square_free(n: int) -> bool:
    """True when no square larger than 1 divides n."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    return all(n % (d * d) for d in range(2, isqrt(n) + 1))


def smallest_square_factor(n: int) -> tuple[int, int]:
    """(p, m) with p the smallest prime whose square divides n, m = n / p^2."""
    for d in range(2, isqrt(n) + 1):
        if n % (d * d) == 0:
            return d, n // (d * d)
    raise PreconditionError(f"{n} is square-free")


# ---------------------------------------------------------------------------
# Small-minor nonvanishing sweep


@dataclass(frozen=True)
class Theorem1Report:
    modulus: int
    passed: bool
    counterexample: tuple[int, ...] | None
    pairs_checked: int
    certified_sizes: tuple[int, ...]
    wall_time: float


def verify_theorem1(modulus: int) -> Theorem1Report:
    """Check that no 2x2 / 3x3 principal minor vanishes, by the exact engine.

    Requires a square-free modulus >= 4.  By translation only the sets
    {0, a} and {0, a, b} with 0 < a < b < N need checking, and by the
    unit group far fewer:

    Lemma (one set per unit class).  For a in 1..N-1 let g = gcd(a, N).
    There is a unit u with ua = g (mod N): take u = (a/g)^-1 mod N/g and
    lift it to a unit mod N (reduction (Z/N)^* -> (Z/(N/g))^* is onto).
    So u{0, a} = {0, g} and u{0, a, b} = {0, g, ub}, and by the affine
    lemma (module docstring) each is singular iff the original is.

    Size 2 is decided by the pair lemma of `powerdet`: {0, a} vanishes
    iff N | a^2, never for square-free N, so no size-2 counterexample can
    occur.  Size 3 decides {0, g, b} for each proper divisor g of N and
    each b in 1..N-1 other than g, skipping a divisor b < g (that set is
    listed under b already), in one engine batch.  `pairs_checked` is the
    coverage, the translated sets the pass settles (N-1 + C(N-1, 2)), not
    the number of sets the engine decides.  A counterexample is reported
    as its failing representative, sorted: a translated pair (a, b) with
    a < b.  A pass for the translated sets {0, a} and {0, a, b} certifies
    every principal minor of sizes 2, 3, N-3 and N-2 (`certified_sizes`):
    translation preserves singularity, and sizes r and N-r are singular
    together (the complement lemma in the module docstring).
    """
    start = time.perf_counter()
    if modulus < 4:
        raise PreconditionError("need modulus >= 4")
    check_modulus(modulus)  # before the trial division of `is_square_free`
    if not is_square_free(modulus):
        raise PreconditionError(f"{modulus} is not square-free")
    proper = np.array(divisors(modulus)[:-1], dtype=np.int64)
    g = np.repeat(proper, modulus - 1)
    b = np.tile(np.arange(1, modulus, dtype=np.int64), len(proper))
    keep = (b != g) & ~((modulus % b == 0) & (b < g))
    tail = np.sort(np.stack([g, b], axis=1)[keep], axis=1)
    members = np.hstack([np.zeros((len(tail), 1), dtype=np.int64), tail])
    flags, _ = powerdet.index_zero_flags(modulus, members, members)
    counterexample = tuple(int(x) for x in tail[np.argmax(flags)]) if flags.any() else None
    certified = tuple(sorted({2, 3, modulus - 3, modulus - 2}))
    return Theorem1Report(modulus=modulus, passed=counterexample is None,
                          counterexample=counterexample,
                          pairs_checked=modulus - 1 + comb(modulus - 1, 2),
                          certified_sizes=certified, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Constructive singular witnesses

CASE_ANCHOR_ROWS = "ANCHOR_ROWS"
CASE_COMPLEMENTED = "COMPLEMENTED"


@dataclass(frozen=True)
class WitnessPlan:
    modulus: int
    size: int
    prime: int
    cofactor: int
    case: str
    index_set: IndexSet
    certificate: str


def _anchor_set(n: int, r: int) -> IndexSet:
    """The first r of: the anchors k*pm for k < p, then the other members
    of the residue classes 0, 1, .., p-2 mod p, class by class, each class
    ascending (N = p^2 m, p the least prime with p^2 | N).  The order holds
    (p-1) N / p >= N/2 members, and only the first r are generated."""
    p, m = smallest_square_factor(n)
    rest = (x for c in range(p - 1) for x in range(c, n, p) if x % (p * m))
    return IndexSet.of(n, islice(chain(range(0, n, p * m), rest), r))


def build_witness(modulus: int, size: int) -> WitnessPlan:
    """An index set of the requested size with a vanishing principal minor.

    Defined for non-square-free moduli >= 4 and 2 <= size <= N-2.  A size
    r <= N/2 takes `_anchor_set(N, r)` (case ANCHOR_ROWS): for r <= p it
    is r anchors, all in class 0; for r > p it holds all p anchors and
    meets at most p-1 classes.  Either way the anchor-row lemma (module
    docstring) applies.  A size r > N/2 takes the complement of
    `_anchor_set(N, N - r)` (case COMPLEMENTED; complement lemma).  Every
    returned set is checked once by the exact engine.
    """
    n, r = modulus, size
    check_modulus(n)
    if n < 4:
        raise PreconditionError("need modulus >= 4")
    if is_square_free(n):
        raise PreconditionError(f"{n} is square-free; no witness exists")
    if not 2 <= r <= n - 2:
        raise PreconditionError(f"size must lie in [2, {n - 2}]")
    p, m = smallest_square_factor(n)
    base = _anchor_set(n, min(r, n - r))
    if 2 * r <= n:
        members, case = base, CASE_ANCHOR_ROWS
        anchors = [k for k in base if k % (p * m) == 0]
        certificate = (
            f"anchor rows {anchors} depend only on the column mod {p}, and the "
            f"set meets {len({k % p for k in base})} of the {p} classes mod {p}, "
            f"fewer than {len(anchors)}"
        )
    else:
        members, case = complement(base), CASE_COMPLEMENTED
        certificate = (
            f"complement of the size-{n - r} anchor-row set {list(base.members)}; "
            f"complementary sizes are singular together"
        )
    if not is_singular(members):
        raise AssertionError(f"witness verification failed: N={n}, set={members.members}")
    return WitnessPlan(modulus=n, size=r, prime=p, cofactor=m, case=case,
                       index_set=members, certificate=certificate)


def witness_sweep(modulus: int) -> list[WitnessPlan]:
    """Verified witnesses for every size 2 .. N-2."""
    check_modulus(modulus)
    if modulus < 4 or is_square_free(modulus):
        raise PreconditionError("need a non-square-free modulus >= 4")
    return [build_witness(modulus, r) for r in range(2, modulus - 1)]


# ---------------------------------------------------------------------------
# Exhaustive scan

# Exemplar sets a scan keeps per size.
EXEMPLAR_CAP = 16


@dataclass(frozen=True)
class ScanConfig:
    exact: bool = True
    use_complement: bool = True
    use_shift_classes: bool = True  # one set per affine class (see the lemma)
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise PreconditionError("jobs must be >= 1")


@dataclass(frozen=True)
class ScanReport:
    """Full-orbit singular counts per size, with the lexicographically
    first EXEMPLAR_CAP singular sets of each size as exemplars.

    counts[r] == counts[N-r] always (the complement lemma); for a
    square-free modulus with no vanishing minors all counts are zero.  The
    settings that produced it are the ScanConfig's, not repeated here.
    """

    modulus: int
    counts: dict[int, int]
    exemplars: dict[int, list[tuple[int, ...]]]
    classes_tested: int
    prefilter_hits: int
    wall_time: float


# Most candidate sets in one chunk of the scan's stream, whatever C(N-1, r-1).
_CHUNK = 1 << 15
# Orbit images `_exemplar_keys` expands at once.
_IMAGES = 1 << 12


@lru_cache(maxsize=None)
def _binomials() -> np.ndarray:
    """C(t, i) at [i, t] for 0 <= i, t <= 64, as int64 (C(64, 32) < 2^61)."""
    table = np.array([[comb(t, i) for t in range(65)] for i in range(65)], dtype=np.int64)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _unrank(n: int, k: int, lo: int, start: int, stop: int) -> np.ndarray:
    """The k-subsets of range(lo, n) of lexicographic ranks start .. stop-1,
    in order, as int8 rows (so N <= 64): the sentinel lo-1, then the members.

    Lemma (unranking).  The reflection s -> n-1-s maps the k-subsets of
    range(lo, n) onto those of range(n - lo) and turns lexicographic rank R
    into colex rank C = C(n-lo, k) - 1 - R.  In the combinatorial number
    system (Buckles and Lybanon, ACM TOMS 3, 1977) the colex rank of
    t_1 < .. < t_k is sum_i C(t_i, i), so t_k is the largest t with
    C(t, k) <= C, C - C(t_k, k) ranks t_1 < .. < t_(k-1), and t_1 = C.  The
    members n-1-t_k < .. < n-1-t_1 come out ascending, a column per level.
    Rows between two rows with a common prefix share it, so while the
    first and last rows agree on a member only they are searched.
    """
    table = _binomials()[:, :n - lo]
    rows = np.full((stop - start, k + 1), lo - 1, dtype=np.int8)
    colex = comb(n - lo, k) - 1 - np.arange(start, stop, dtype=np.int64)
    shared = stop > start
    for i in range(k, 1, -1):
        if shared:
            first, last = np.searchsorted(table[i], colex[[0, -1]], side="right") - 1
            shared = first == last
        t = first if shared else np.searchsorted(table[i], colex, side="right") - 1
        rows[:, k + 1 - i] = n - 1 - t
        colex -= table[i].take(t)
    if k:
        rows[:, k] = n - 1 - colex
    return rows


def _masks(members: np.ndarray) -> np.ndarray:
    """Bitmask sum 2^k over the members on the last axis (uint64, so N <= 64)."""
    return np.bitwise_or.reduce(np.uint64(1) << members.astype(np.uint64, copy=False), axis=-1)


def _affine_reps(n: int, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `members` (sorted sets containing 0) whose bitmask is
    least in their affine orbit, with the orbit sizes N * phi(N) / |Stab|.

    The least translate of a set contains 0, so the least translate of uK is
    one of the r translates of uK that take a member to 0, and a (u, c)
    fixing K takes the member -c of uK to 0: counting those translates
    equal to K over every unit u counts Stab(K).  A translate taking x to 0
    has largest member N - g, g the cyclic gap below x, so K can only be
    least if no gap of K is wider than its last, N - max K.  The units go
    in batches of doubling size, each batch on the rows that survived the
    last.  The gap filter runs on the int8 rows of `_unrank`; only its
    survivors are widened to int64.
    """
    if members.shape[1] > 1:
        members = members[np.diff(members, axis=1).max(axis=1) <= n - members[:, -1]]
    members = members.astype(np.int64)
    masks = _masks(members)
    stab = np.zeros(len(masks), dtype=np.int64)
    full = np.uint64((1 << n) - 1)
    group, done = units(n), 0
    while done < len(group):
        batch = np.array(group[done:max(1, 2 * done)], dtype=np.int64)[:, None, None]
        done += len(batch)
        x = (members * batch % n).astype(np.uint64)
        umasks = _masks(x)[:, :, None]
        # the translates by -x, in two left shifts so none reaches 64 bits
        rots = ((umasks >> x) | (umasks << (np.uint64(n - 1) - x) << np.uint64(1))) & full
        least = masks[:, None]
        keep = (rots >= least).all(axis=(0, 2))
        stab = (stab + (rots == least).sum(axis=(0, 2)))[keep]
        members, masks = members[keep], masks[keep]
    return members, n * len(group) // stab


def _exemplar_keys(n: int, sets: np.ndarray, classes: bool, cap: int) -> np.ndarray:
    """`_ends(keys, cap)` of the distinct keys, ascending, of `sets` or,
    with `classes`, of every set in their affine orbits.  Member k sets
    bit N-1-k of a key, so among sets of one size the lexicographically
    first have the largest keys.  The orbits are expanded a block of at
    most max(_IMAGES, N * phi(N)) images at a time, and each block's keys
    are merged into the ends kept so far: the ends of a union are the ends
    of the union of its parts' ends."""
    mult = np.array(units(n) if classes else [1])[:, None, None]
    shifts = np.arange(n if classes else 1)[:, None]
    block = max(1, _IMAGES // (len(mult) * len(shifts)))
    keys = np.zeros(0, dtype=np.uint64)
    for s in range(0, len(sets), block):
        images = (sets[s:s + block, None, None, :] * mult + shifts) % n
        keys = _ends(_merge(keys, _masks(n - 1 - images.reshape(-1, sets.shape[-1]))), cap)
    return keys


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.union1d(a, b)`, which imports numpy.ma, as one sort and a dedupe."""
    keys = np.sort(np.concatenate([a, b]))
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if len(keys) else keys


def _last(keys: np.ndarray, cap: int) -> np.ndarray:
    return keys[max(len(keys) - cap, 0):]


def _ends(keys: np.ndarray, cap: int) -> np.ndarray:
    """The `cap` smallest and the `cap` largest of ascending `keys`."""
    return keys if len(keys) <= 2 * cap else np.concatenate([keys[:cap], _last(keys, cap)])


def _key_sets(n: int, keys: np.ndarray) -> list[tuple[int, ...]]:
    """The sets of ascending `keys`, in lexicographic order."""
    return [tuple(k for k in range(n) if key >> (n - 1 - k) & 1)
            for key in reversed(keys.tolist())]


def _scan_chunk(task: tuple) -> tuple[int, int, int, np.ndarray, int]:
    """(r, classes tested, singular sets, exemplar keys, screen hits) of
    one chunk of the scan: the size-r candidates of ranks start .. stop-1."""
    n, r, classes, cap, start, stop = task
    if classes:
        # candidates are {0} plus (r-1)-subsets of 1..N-1; the sentinel is 0
        members, weights = _affine_reps(n, _unrank(n, r - 1, 1, start, stop))
    else:
        members = _unrank(n, r, 0, start, stop)[:, 1:]
        weights = np.ones(len(members), dtype=np.int64)
    flags, hits = powerdet.index_zero_flags(n, members, members)
    keys = _exemplar_keys(n, members[flags], classes, cap)
    return r, len(members), int(weights[flags].sum()), keys, hits


def ordered_map(fn, tasks, jobs: int):
    """`fn` over `tasks`, results in task order: the builtin `map` for
    jobs <= 1, else one pool of `jobs` spawned workers with at most
    2 * jobs tasks submitted ahead of the one being read.  A dead worker
    raises WorkerError; closing the generator, or an exception, cancels
    the queued tasks and terminates the workers."""
    if jobs <= 1:
        yield from map(fn, tasks)
        return
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    try:
        window: deque = deque()
        for task in tasks:
            window.append(pool.submit(fn, task))
            if len(window) > 2 * jobs:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    except BrokenExecutor as exc:  # BrokenProcessPool, a dead worker
        raise WorkerError(f"a --jobs worker process died ({exc})") from exc
    finally:
        # Before Python 3.14 (`terminate_workers`) no public call stops a
        # running task, so the workers come from the executor's private
        # table, which shutdown() clears.
        workers = list(pool._processes.values())
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.terminate()


def scan_all(modulus: int, config: ScanConfig | None = None, **kwargs) -> ScanReport:
    """Decide singularity of every nonempty principal index set of F_N."""
    if config is None:
        config = ScanConfig(**kwargs)
    elif kwargs:
        config = replace(config, **kwargs)
    n = modulus
    if not 1 <= n <= 64:
        raise PreconditionError(f"the scan needs 1 <= N <= 64, got {n}")
    start = time.perf_counter()
    counts = {r: 0 for r in range(1, n + 1)}
    exemplars: dict[int, list[tuple[int, ...]]] = {r: [] for r in range(1, n + 1)}
    classes_tested = 0
    prefilter_hits = 0

    sizes = list(range(1, (n // 2 if config.use_complement else n) + 1))

    classes, cap = config.use_shift_classes, EXEMPLAR_CAP
    totals = {r: comb(n - 1, r - 1) if classes else comb(n, r) for r in sizes}
    tasks = ((n, r, classes, cap, start, min(start + _CHUNK, totals[r]))
             for r in sizes for start in range(0, totals[r], _CHUNK))
    keys = {r: np.zeros(0, dtype=np.uint64) for r in sizes}
    for r, tested, count, found, hits in ordered_map(_scan_chunk, tasks, config.jobs):
        classes_tested += tested
        if not config.exact:
            prefilter_hits += hits
        counts[r] += count
        keys[r] = _ends(_merge(keys[r], found), cap)
    full = np.uint64((1 << n) - 1)
    for r in sizes:
        exemplars[r] = _key_sets(n, _last(keys[r], cap))
        rc = n - r
        if config.use_complement and rc != r:
            # Complementing reverses the key order among sets of one size,
            # so the first sets of size N - r are the complements of the
            # sets of size r with the smallest keys.  counts[N] mirrors the
            # empty set, whose principal matrix is never singular.
            counts[rc] = counts[r]
            exemplars[rc] = _key_sets(n, full ^ keys[r][:cap][::-1])

    return ScanReport(modulus=n, counts=counts, exemplars=exemplars,
                      classes_tested=classes_tested, prefilter_hits=prefilter_hits,
                      wall_time=time.perf_counter() - start)
