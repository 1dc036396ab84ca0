"""Output checks for the benchmark's tasks, run outside the timed process.

The oracle shares no code with `fourier_minors.powerdet`, and it imports
`fourier_minors` from the frozen copy in `baseline/` (run.py puts it on the
path), so a change to the program under `src/` cannot change a check.  A
minor is certified nonzero in floats: numpy's SVD is backward stable, so the
computed smallest singular value is within `SVD_SLACK * r * eps * sigma_max`
of the true one, and a computed value above that slack proves the matrix
nonsingular.  A minor the bound cannot certify is decided by
`minors.det_exact`, the dict-based expansion over `CycElem`.  Witness sets,
whose sizes reach N - 2 where `det_exact` is out of reach, are checked
numerically rank-deficient (smallest singular value below
`RANK_TOL * sigma_max`) and exactly by `det_exact` up to size
`EXACT_WITNESS_MAX`.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from fourier_minors.cyclotomic import ring_new
from fourier_minors.minors import IndexSet, det_exact, submatrix

SVD_SLACK = 64.0
RANK_TOL = 1e-8
EXACT_WITNESS_MAX = 8
EXEMPLAR_SAMPLE = 2
THEOREM1_SAMPLE = 3
_EPS = np.finfo(np.float64).eps


def fourier_block(n: int, rows, cols) -> np.ndarray:
    """(..., r, r) complex matrices exp(2 pi i * rows[k] * cols[l] / N)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    e = (rows[..., :, None] * cols[..., None, :]) % n
    return np.exp(2j * np.pi * e / n)


def certified_nonzero(n: int, rows, cols) -> np.ndarray:
    """True where the SVD bound proves the minor nonzero (batched)."""
    m = fourier_block(n, rows, cols)
    r = m.shape[-1]
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., -1] > SVD_SLACK * r * _EPS * s[..., 0]


def exact_zero(n: int, rows, cols) -> bool:
    ring = ring_new(n)
    rset = IndexSet.of(n, [int(x) for x in rows])
    cset = IndexSet.of(n, [int(x) for x in cols])
    return det_exact(submatrix(ring, rset, cset)).is_zero()


def minor_is_zero(n: int, rows, cols) -> bool:
    if certified_nonzero(n, rows, cols):
        return False
    return exact_zero(n, rows, cols)


def is_square_free(n: int) -> bool:
    return all(n % (d * d) for d in range(2, int(n ** 0.5) + 1))


def check_det(task: dict, rec: dict, errors: list[str]) -> None:
    p = rec["payload"]
    n, k = task["n"], task["set"]
    if p["modulus"] != n or p["set"] != k or p["size"] != len(k):
        errors.append(f"det N={n} {k}: record echoes another set")
        return
    coeffs = p["determinant"]["coeffs"]
    if p["singular"] != (not any(coeffs)):
        errors.append(f"det N={n} {k}: verdict disagrees with its coefficients")
        return
    if p["singular"] != minor_is_zero(n, k, k):
        errors.append(f"det N={n} {k}: verdict {p['singular']} disagrees with the oracle")


def check_scan(task: dict, rec: dict, table: dict, rng: random.Random,
               errors: list[str]) -> None:
    p = rec["payload"]
    n = task["n"]
    want = table[str(n)]
    got = {int(r): c for r, c in p["counts"].items()}
    if p["modulus"] != n or got != {int(r): c for r, c in want.items()}:
        errors.append(f"scan N={n}: counts differ from scan_counts.json")
        return
    pool = [s for r, sets in p["exemplars"].items() if int(r) <= n // 2 for s in sets]
    for s in rng.sample(pool, min(EXEMPLAR_SAMPLE, len(pool))):
        if not exact_zero(n, s, s):
            errors.append(f"scan N={n}: exemplar {s} is not singular")


def check_good_permutation(n: int, image: list[int], errors: list[str]) -> None:
    """Every principal minor of (w^(k * sigma(l))) is nonzero."""
    if sorted(image) != list(range(n)):
        errors.append(f"perm-search N={n}: {image} is not a permutation")
        return
    sigma = np.array(image, dtype=np.int64)
    for r in range(1, n + 1):
        rows = np.array(list(combinations(range(n), r)), dtype=np.int64)
        cols = sigma[rows]
        ok = certified_nonzero(n, rows, cols)
        for i in np.nonzero(~ok)[0]:
            if exact_zero(n, rows[i], np.sort(cols[i])):
                errors.append(f"perm-search N={n}: minor {rows[i].tolist()} vanishes")
                return


def check_search(task: dict, rec: dict, rc: int, errors: list[str]) -> None:
    """A found permutation is verified good.  Only a budgeted search may end
    without one: inconclusive (exit code 3), or exhausted within its budget,
    a claim of exhaustion the oracle cannot recheck."""
    p = rec["payload"]
    n = task["n"]
    inconclusive = p["found"] is None and not p["exhausted"]
    if (rc == 3) != inconclusive:
        errors.append(f"perm-search N={n}: exit code {rc} disagrees with the record")
    elif p["found"] is not None:
        check_good_permutation(n, p["found"], errors)
    elif not task.get("budget"):
        errors.append(f"perm-search N={n}: no permutation found")


def check_theorem1(task: dict, rec: dict, rng: random.Random, errors: list[str]) -> None:
    """Reports and skips match the range; for a seeded sample of the moduli
    every minor on {0, a} and {0, a, b} is confirmed nonzero."""
    p = rec["payload"]
    moduli = range(task["lo"], task["hi"] + 1)
    square_free = [n for n in moduli if is_square_free(n)]
    if [r["modulus"] for r in p["reports"]] != square_free:
        errors.append("theorem1: reported moduli are not the square-free ones")
    if p["skipped_not_square_free"] != [n for n in moduli if not is_square_free(n)]:
        errors.append("theorem1: skipped list is not the non-square-free moduli")
    bad = [r["modulus"] for r in p["reports"] if not r["passed"]]
    if bad:
        errors.append(f"theorem1: reports fail for N={bad}")
    for n in rng.sample(square_free, min(THEOREM1_SAMPLE, len(square_free))):
        sets = [[0, a] for a in range(1, n)]
        sets3 = [[0, a, b] for a, b in combinations(range(1, n), 2)]
        for batch in (np.array(sets), np.array(sets3)):
            for i in np.nonzero(~certified_nonzero(n, batch, batch))[0]:
                if exact_zero(n, batch[i], batch[i]):
                    errors.append(f"theorem1: N={n} minor {batch[i].tolist()} vanishes")
                    return


def check_witness(task: dict, rec: dict, errors: list[str]) -> None:
    n = task["n"]
    plans = rec["payload"]["plans"]
    if [pl["size"] for pl in plans] != list(range(2, n - 1)):
        errors.append(f"witness N={n}: sizes are not 2..N-2")
        return
    for pl in plans:
        k = pl["set"]
        if pl["modulus"] != n or len(set(k)) != pl["size"]:
            errors.append(f"witness N={n}: malformed plan of size {pl['size']}")
            return
        s = np.linalg.svd(fourier_block(n, k, k), compute_uv=False)
        if s[-1] > RANK_TOL * s[0]:
            errors.append(f"witness N={n}: set {k} is not rank-deficient")
            return
        if pl["size"] <= EXACT_WITNESS_MAX and not exact_zero(n, k, k):
            errors.append(f"witness N={n}: set {k} has a nonzero minor")
            return


def check_task(task: dict, rec: dict, rc: int, table: dict,
               rng: random.Random) -> list[str]:
    """Errors found in one task's run record (empty when it is correct)."""
    errors: list[str] = []
    kind = task["kind"]
    if rec.get("command") != kind:
        return [f"{kind}: record is for command {rec.get('command')!r}"]
    if kind == "det":
        check_det(task, rec, errors)
    elif kind == "scan":
        check_scan(task, rec, table, rng, errors)
    elif kind == "perm-search":
        check_search(task, rec, rc, errors)
    elif kind == "theorem1":
        check_theorem1(task, rec, rng, errors)
    elif kind == "witness":
        check_witness(task, rec, errors)
    return errors


def check_kernel_point(point: dict) -> list[str]:
    """The kernel's zero flags against the oracle; the float twin may only
    certify minors the kernel finds nonzero."""
    n, sets = point["n"], point["sets"]
    errors = []
    rows = np.array(sets, dtype=np.int64)
    cert = certified_nonzero(n, rows, rows)
    for i, (zero, approx) in enumerate(zip(point["exact_zero"], point["approx_certified"])):
        if zero and (approx or cert[i]):
            errors.append(f"kernel N={n}: {sets[i]} zero but certified nonzero")
        elif zero != (not cert[i] and exact_zero(n, sets[i], sets[i])):
            errors.append(f"kernel N={n}: {sets[i]} verdict disagrees with the oracle")
    return errors
