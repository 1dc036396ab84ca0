"""Task lists of the three benchmark workloads, generated from a seed.

A task is one `fourier_minors.cli.main(argv)` call.  Only the generated
argv reaches the program; the benchmark appends `--out <record>` itself.

Every workload carries a stream of `det` queries, so that every workload
reports the per-query latency metrics.  Each stream draws (N, r) from a fixed
stratified grid that is uniform over the stated ranges, and the seed draws
the index set K.  Stratifying keeps the latency percentiles from swinging
with how many expensive (large N, large r) pairs a seed happens to draw; the
seed still changes every determinant computed.  The queries run in a fixed
strided order of the grid, so large and small N and r are spread evenly
over the stream, and the stream is cut into equal chunks placed before,
between and after the workload's other tasks.  Its samples then span the
whole round rather than one stretch of it, and the first chunk meets cold
ring caches.
"""

from __future__ import annotations

import random

DET_QUERIES = 200
DET_MAX_R = 8
_GOLDEN = 0.6180339887498949
_STRIDE = 77  # coprime with DET_QUERIES

# The fixed-budget N = 16 search of the traced run, in seconds.
N16_BUDGET = 10

# Exact scan counts come from scan_counts.json; these are the scanned moduli.
SCAN_TASKS = (
    (16, ()),
    (17, ()),
    (18, ("--prefilter",)),
)

SEARCH_TASKS = (
    (9, ()),
    (10, ()),
    (10, ("--order", "most-constrained")),
    (11, ()),
)

THEOREM1_RANGE = (4, 150)
WITNESS_MODULI = (9, 12)

WHY = {
    "scan": "exhaustive exact scans: the batched kernel in its throughput regime, "
            "moduli with and without singular sets, and the float prefilter",
    "search": "permutation search at sizes that finish: the kernel in its latency "
              "regime, backtracking, leaf re-verification, both order policies",
    "sweep": "theorem1 and witness claims plus single det queries up to N = 96, "
             "which bypass the batched kernel and reach det_exact and ring builds",
}

# Which claim of the paper each task checks (recorded in every result file).
CLAIMS = {
    "scan": "every principal minor of F_N decided exactly; counts mirror under "
            "complementation; prime N has no vanishing minor (Chebotarev)",
    "perm-search": "a column permutation with no vanishing principal minor "
                   "exists for these N",
    "theorem1": "no 2x2 or 3x3 principal minor vanishes for square-free N, "
                "which also settles sizes N-2 and N-3",
    "witness": "a non-square-free N has a vanishing principal minor of every "
               "size 2..N-2",
    "det": "a single principal minor is decided exactly over Z[w]",
}


def _det_stream(rng: random.Random, moduli: list[int]) -> list[dict]:
    """DET_QUERIES principal-minor queries over the given moduli.

    Grid point i takes N = moduli[i * len(moduli) // DET_QUERIES] and r
    from a golden-ratio sequence over 2..min(DET_MAX_R, N); K is drawn by
    the seed.  Query j is grid point j * _STRIDE mod DET_QUERIES.
    """
    tasks = []
    for j in range(DET_QUERIES):
        i = j * _STRIDE % DET_QUERIES
        n = moduli[i * len(moduli) // DET_QUERIES]
        rmax = min(DET_MAX_R, n)
        r = 2 + int(((i * _GOLDEN) % 1.0) * (rmax - 1))
        k = sorted(rng.sample(range(n), r))
        tasks.append({
            "kind": "det", "n": n, "set": k,
            "argv": ["det", "--n", str(n), "--set", ",".join(map(str, k))],
        })
    return tasks


def build_tasks(workload: str, seed: int) -> list[dict]:
    """The ordered task list of one round of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    tasks: list[dict] = []
    if workload == "scan":
        for n, extra in SCAN_TASKS:
            tasks.append({"kind": "scan", "n": n,
                          "argv": ["scan", "--n", str(n), *extra]})
        stream = _det_stream(rng, [n for n, _ in SCAN_TASKS])
    elif workload == "search":
        for n, extra in SEARCH_TASKS:
            tasks.append({"kind": "perm-search", "n": n,
                          "argv": ["perm-search", "--n", str(n), *extra]})
        stream = _det_stream(rng, sorted({n for n, _ in SEARCH_TASKS}))
    elif workload == "sweep":
        lo, hi = THEOREM1_RANGE
        tasks.append({"kind": "theorem1", "lo": lo, "hi": hi,
                      "argv": ["theorem1", "--range", f"{lo}..{hi}"]})
        for n in WITNESS_MODULI:
            tasks.append({"kind": "witness", "n": n,
                          "argv": ["witness", "--n", str(n), "--all"]})
        stream = _det_stream(rng, list(range(4, 97)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    chunks = len(tasks) + 1
    out = []
    for i in range(chunks):
        out += stream[i * len(stream) // chunks:(i + 1) * len(stream) // chunks]
        if i < len(tasks):
            out.append(tasks[i])
    return out


def extra_tasks() -> list[dict]:
    """CLI tasks measured only in the traced run (pool and N = 16 search)."""
    return [
        {"kind": "scan", "n": 18, "jobs": 1,
         "argv": ["scan", "--n", "18", "--jobs", "1"]},
        {"kind": "scan", "n": 18, "jobs": 2,
         "argv": ["scan", "--n", "18", "--jobs", "2"]},
        {"kind": "perm-search", "n": 16, "budget": N16_BUDGET, "allowed_rc": (0, 3),
         "argv": ["perm-search", "--n", "16", "--symmetry",
                  "--budget", str(N16_BUDGET)]},
    ]


# Kernel points of the traced run: (N, r, batch size), principal sets.
KERNEL_POINTS = ((16, 8, 1024), (20, 10, 192), (22, 11, 96))


def kernel_batches(seed: int) -> list[tuple[int, int, list[list[int]]]]:
    """Fixed seeded batches of principal index sets for the kernel points."""
    out = []
    for n, r, size in KERNEL_POINTS:
        rng = random.Random(f"kernel:{n}:{r}:{seed}")
        out.append((n, r, [sorted(rng.sample(range(n), r)) for _ in range(size)]))
    return out
