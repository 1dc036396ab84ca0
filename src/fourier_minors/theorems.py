"""Executable checks at desk scale: nonvanishing of all 2x2 and 3x3
principal minors for square-free moduli, constructive singular witnesses of
every size for non-square-free moduli, and an exhaustive exact scan of all
principal minors of F_N.

The scanner decides every nonempty index set.  Two independently toggleable
reductions accelerate it without changing reported totals: complementary
sizes mirror each other (r and N-r agree), and translation classes are
scanned once per orbit and weighted by orbit size.  Counts are always
full-orbit totals over all subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .cyclotomic import CycRing, ring_new
from .errors import PreconditionError
from .minors import IndexSet, complement, is_singular
from . import powerdet


def is_square_free(n: int) -> bool:
    """True when no square larger than 1 divides n."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def smallest_square_factor(n: int) -> tuple[int, int]:
    """(p, m) with p the smallest prime whose square divides n, m = n / p^2."""
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return d, n // (d * d)
        d += 1
    raise PreconditionError(f"{n} is square-free")


# ---------------------------------------------------------------------------
# Small-minor nonvanishing sweep


@dataclass(frozen=True)
class Theorem1Report:
    modulus: int
    sizes: tuple[int, ...]
    passed: bool
    counterexample: tuple[int, ...] | None
    pairs_checked: int
    certified_sizes: tuple[int, ...]
    note: str
    wall_time: float


def verify_theorem1(modulus: int, sizes: tuple[int, ...] = (2, 3)) -> Theorem1Report:
    """Check that no 2x2 / 3x3 principal minor vanishes, by the exact engine.

    Requires a square-free modulus >= 4.  Only the translated sets {0, a}
    and {0, a, b} need checking, one batch per size; a pass certifies sizes
    2, 3, N-3 and N-2 outright (translation preserves singularity, and
    complementary sizes mirror each other).
    """
    start = time.perf_counter()
    if modulus < 4:
        raise PreconditionError("need modulus >= 4")
    if not is_square_free(modulus):
        raise PreconditionError(f"{modulus} is not square-free")
    sizes = tuple(sorted(set(sizes)))
    if not sizes or any(s not in (2, 3) for s in sizes):
        raise PreconditionError("sizes must be a nonempty subset of {2, 3}")

    ring = ring_new(modulus)
    counterexample: tuple[int, ...] | None = None
    pairs = 0
    for size in sizes:
        if size == 2:
            tail = np.arange(1, modulus, dtype=np.int64)[:, None]
        else:
            tail = np.stack(np.triu_indices(modulus - 1, k=1), axis=1).astype(np.int64) + 1
        members = np.hstack([np.zeros((len(tail), 1), dtype=np.int64), tail])
        flags, _ = _judge_members(ring, members, True)
        pairs += len(members)
        if flags.any():
            counterexample = tuple(int(x) for x in tail[np.argmax(flags)])
            break

    certified = tuple(sorted({*sizes, *(modulus - s for s in sizes)}))
    note = (
        "a pass for the translated sets {0,a} and {0,a,b} certifies every "
        "principal minor of the listed sizes: translation preserves "
        "singularity and sizes r, N-r are singular together"
    )
    return Theorem1Report(
        modulus=modulus,
        sizes=sizes,
        passed=counterexample is None,
        counterexample=counterexample,
        pairs_checked=pairs,
        certified_sizes=certified,
        note=note,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Constructive singular witnesses

CASE_P2_EVEN = "P2_EVEN"
CASE_PGE3_SMALL_R = "PGE3_SMALL_R"
CASE_PGE3_BLOCKS = "PGE3_BLOCKS"
CASE_COMPLEMENTED = "COMPLEMENTED"


@dataclass(frozen=True)
class WitnessPlan:
    modulus: int
    size: int
    prime: int
    cofactor: int
    case: str
    s: int | None
    t: int | None
    index_set: IndexSet
    certificate: str
    directly_verified: bool


def build_witness(modulus: int, size: int) -> WitnessPlan:
    """An index set of the requested size with a vanishing principal minor.

    Defined for non-square-free moduli >= 4 and 2 <= size <= N-2.  Sets of
    size at most N/2 are built directly, larger sizes complement a smaller
    witness; every set is verified by exact determinant.
    """
    n, r = modulus, size
    if n < 4:
        raise PreconditionError("need modulus >= 4")
    if is_square_free(n):
        raise PreconditionError(f"{n} is square-free; no witness exists")
    if not 2 <= r <= n - 2:
        raise PreconditionError(f"size must lie in [2, {n - 2}]")
    p, m = smallest_square_factor(n)
    ring = ring_new(n)

    if 2 * r > n:
        base = build_witness(n, n - r)
        members = complement(base.index_set)
        if not is_singular(ring, members):
            raise AssertionError(f"witness verification failed: N={n}, set={members.members}")
        return WitnessPlan(
            modulus=n, size=r, prime=p, cofactor=m, case=CASE_COMPLEMENTED,
            s=None, t=None, index_set=members,
            certificate=(
                f"complement of the exactly verified size-{n - r} witness "
                f"{base.index_set.members} ({base.case}); complementary sizes "
                f"are singular together"
            ),
            directly_verified=True,
        )

    s_param: int | None = None
    t_param: int | None = None
    if p == 2:
        two_m = 2 * m
        chosen = [0, two_m]
        for x in range(0, n, 2):
            if len(chosen) == r:
                break
            if x not in (0, two_m):
                chosen.append(x)
        case = CASE_P2_EVEN
        certificate = (
            f"rows 0 and {two_m} restricted to even columns are both all-ones"
        )
    elif r <= p:
        pm = p * m
        chosen = [k * pm for k in range(r)]
        case = CASE_PGE3_SMALL_R
        certificate = (
            f"every entry is 1: products of multiples of {pm} vanish mod {n}"
        )
    else:
        pm = p * m
        s_param, t_param = divmod(r, pm)
        anchors = [k * pm for k in range(p)]
        if s_param == 0:
            chosen = list(anchors)
            for x in range(0, n, p):
                if len(chosen) == r:
                    break
                if x not in chosen:
                    chosen.append(x)
            certificate = (
                f"the {p} rows at multiples of {pm} are all-ones over columns "
                f"that are multiples of {p}"
            )
        else:
            chosen = []
            for j in range(s_param):
                chosen.extend(k * p + j for k in range(pm))
            chosen.extend(k * p + s_param for k in range(t_param))
            certificate = (
                f"the {p} rows at multiples of {pm} take at most {s_param + 1} "
                f"distinct column-block values, fewer than {p} rows"
            )
        case = CASE_PGE3_BLOCKS
        if not set(anchors) <= set(chosen):
            raise AssertionError("block construction lost its anchor rows")
    if len(set(chosen)) != r:
        raise AssertionError(f"construction produced {len(set(chosen))} indices, wanted {r}")
    members = IndexSet.of(n, chosen)
    if not is_singular(ring, members):
        raise AssertionError(f"witness verification failed: N={n}, set={members.members}")
    return WitnessPlan(
        modulus=n, size=r, prime=p, cofactor=m, case=case,
        s=s_param, t=t_param, index_set=members,
        certificate=certificate, directly_verified=True,
    )


def witness_sweep(modulus: int) -> list[WitnessPlan]:
    """Verified witnesses for every size 2 .. N-2."""
    if modulus < 4 or is_square_free(modulus):
        raise PreconditionError("need a non-square-free modulus >= 4")
    return [build_witness(modulus, r) for r in range(2, modulus - 1)]


# ---------------------------------------------------------------------------
# Exhaustive scan

DEFAULT_SCAN_CEILING = 22


@dataclass(frozen=True)
class ScanConfig:
    exact: bool = True
    use_complement: bool = True
    use_shift_classes: bool = True
    ceiling: int = DEFAULT_SCAN_CEILING
    override: bool = False
    exemplar_cap: int = 16
    jobs: int = 1


@dataclass(frozen=True)
class ScanReport:
    """Full-orbit singular counts per size, with capped exemplar sets.

    counts[r] == counts[N-r] always (complementary sizes mirror); for a
    square-free modulus with no vanishing minors all counts are zero.
    """

    modulus: int
    exact_mode: bool
    use_complement: bool
    use_shift_classes: bool
    counts: dict[int, int]
    exemplars: dict[int, list[tuple[int, ...]]]
    exemplar_cap: int
    classes_tested: int
    prefilter_hits: int
    wall_time: float


def _all_subsets(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    members = np.array(list(combinations(range(n), r)), dtype=np.int64).reshape(-1, r)
    return members, np.ones(len(members), dtype=np.int64)


def _shift_class_reps(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical translation-class representatives of size r, with orbit sizes.

    Representatives contain 0 and have the minimal bitmask among the N
    rotations of the set; weight is the orbit length N / |stabilizer|.
    Bitmasks are uint64, so N is at most 64.
    """
    if n > 64:
        raise PreconditionError(f"translation classes need N <= 64, got {n}")
    if r == 1:
        return np.zeros((1, 1), dtype=np.int64), np.array([n], dtype=np.int64)
    tail = np.array(list(combinations(range(1, n), r - 1)), dtype=np.int64).reshape(-1, r - 1)
    members = np.hstack([np.zeros((len(tail), 1), dtype=np.int64), tail])
    masks = np.bitwise_or.reduce(
        np.left_shift(np.uint64(1), members.astype(np.uint64)), axis=1
    )
    full = np.uint64((1 << n) - 1)
    best = masks.copy()
    stab = np.ones(len(masks), dtype=np.int64)
    for c in range(1, n):
        rot = ((masks >> np.uint64(c)) | (masks << np.uint64(n - c))) & full
        np.minimum(best, rot, out=best)
        stab += rot == masks
    keep = masks == best
    weights = (n // stab[keep]).astype(np.int64)
    return members[keep], weights


def _judge_members(ring: CycRing, members: np.ndarray, exact: bool) -> tuple[np.ndarray, int]:
    """Singularity flags for principal sets given as (B, r) member arrays,
    and in prefilter mode the number the one-prime screen certified."""
    flags, screened = powerdet.zero_flags(ring, members[:, :, None] * members[:, None, :])
    return flags, 0 if exact else screened


def _judge_worker(args: tuple[int, np.ndarray, bool]) -> tuple[np.ndarray, int]:
    modulus, members, exact = args
    return _judge_members(ring_new(modulus), members, exact)


def _orbit_sets(n: int, rows: np.ndarray, cap: int) -> list[tuple[int, ...]]:
    """The first `cap` distinct translates of the (F, r) sets `rows`, sorted."""
    shifted = np.sort((rows[:, None, :] + np.arange(n)[:, None]) % n, axis=2)
    sets = np.unique(shifted.reshape(-1, rows.shape[1]), axis=0)[:cap]
    return [tuple(s) for s in sets.tolist()]


def scan_all(modulus: int, config: ScanConfig | None = None, **kwargs) -> ScanReport:
    """Decide singularity of every nonempty principal index set of F_N."""
    if config is None:
        config = ScanConfig(**kwargs)
    elif kwargs:
        config = replace(config, **kwargs)
    n = modulus
    if n < 1:
        raise PreconditionError("need modulus >= 1")
    if n > config.ceiling and not config.override:
        raise PreconditionError(
            f"modulus {n} exceeds the scan ceiling {config.ceiling}; pass override"
        )
    start = time.perf_counter()
    ring = ring_new(n)
    counts = {r: 0 for r in range(1, n + 1)}
    exemplars: dict[int, list[tuple[int, ...]]] = {r: [] for r in range(1, n + 1)}
    classes_tested = 0
    prefilter_hits = 0

    if config.use_complement:
        sizes = list(range(1, n // 2 + 1))
    else:
        sizes = list(range(1, n + 1))

    for r in sizes:
        if config.use_shift_classes:
            members, weights = _shift_class_reps(n, r)
        else:
            members, weights = _all_subsets(n, r)
        classes_tested += len(members)
        flags, hits = _run_judgments(ring, members, config)
        prefilter_hits += hits
        counts[r] = int(weights[flags].sum())
        if flags.any():
            if config.use_shift_classes:
                exemplars[r] = _orbit_sets(n, members[flags], config.exemplar_cap)
            else:
                sets = sorted(tuple(int(x) for x in row) for row in members[flags])
                exemplars[r] = sets[: config.exemplar_cap]

    if config.use_complement:
        # counts[N] mirrors the empty set, whose principal matrix is the
        # empty product and never singular.
        for r in sizes:
            rc = n - r
            if rc == r or rc < 1:
                continue
            counts[rc] = counts[r]
            comp = [
                tuple(complement(IndexSet.of(n, s)).members) for s in exemplars[r]
            ]
            exemplars[rc] = sorted(comp)[: config.exemplar_cap]

    return ScanReport(
        modulus=n,
        exact_mode=config.exact,
        use_complement=config.use_complement,
        use_shift_classes=config.use_shift_classes,
        counts=counts,
        exemplars=exemplars,
        exemplar_cap=config.exemplar_cap,
        classes_tested=classes_tested,
        prefilter_hits=prefilter_hits,
        wall_time=time.perf_counter() - start,
    )


def _run_judgments(
    ring: CycRing, members: np.ndarray, config: ScanConfig
) -> tuple[np.ndarray, int]:
    if config.jobs <= 1 or len(members) < 4096:
        return _judge_members(ring, members, config.exact)
    chunks = np.array_split(members, config.jobs * 4)
    args = [(ring.modulus, chunk, config.exact) for chunk in chunks if len(chunk)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        results = list(pool.map(_judge_worker, args))
    flags = np.concatenate([f for f, _ in results]) if results else np.zeros(0, dtype=bool)
    hits = sum(h for _, h in results)
    return flags, hits
