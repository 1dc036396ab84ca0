"""One round of a workload in a fresh Python process, served task by task.

    python3 perfbench/worker.py SPEC.json

SPEC holds the task list, the record directory, whether to trace and the
directory to import `fourier_minors` from (`src/` unless it names the
baseline copy).  The worker reads task indices from standard input, one
JSON value a line, runs each task through `cli.main(argv + ["--out",
record])` with the program's standard output discarded, times the call
alone, and answers with one JSON line: time, exit code, error and record
path.  `null` ends the round, and the last line is the worker's peak RSS
and, in a traced round, its spans and wrapped bindings.  With "extras" set
it first measures the kernel points and adds them to that last line.  The
parent chooses the order, so two workers can take turns task by task.
Checking the records is left to the parent, so no check runs here.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_task(cli, task: dict, record: Path) -> dict:
    error = rc = None
    t0 = time.perf_counter()
    try:
        rc = cli.main([*task["argv"], "--out", str(record)])
    except Exception:
        error = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    return {"seconds": t1 - t0, "rc": rc, "error": error, "record": str(record)}


def kernel_points(seed: int) -> list[dict]:
    """µs/det of the exact kernel and its float twin on fixed seeded batches."""
    import numpy as np

    from fourier_minors import powerdet, ring_new
    from workloads import kernel_batches

    out = []
    for n, r, sets in kernel_batches(seed):
        ring = ring_new(n)
        members = np.array(sets, dtype=np.int64)
        exps = (members[:, :, None] * members[:, None, :]) % n
        powerdet.det_power_batch(ring, exps[:2])  # build the plan for r
        powerdet.approx_det_batch(ring, exps[:2])
        exact_s, approx_s = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            canon = powerdet.det_power_batch(ring, exps)
            t1 = time.perf_counter()
            vals, errs = powerdet.approx_det_batch(ring, exps)
            t2 = time.perf_counter()
            exact_s.append(t1 - t0)
            approx_s.append(t2 - t1)
        out.append({
            "n": n, "r": r, "batch": len(sets), "sets": sets,
            "exact_s": exact_s, "approx_s": approx_s,
            "exact_zero": (~canon.any(axis=1)).tolist(),
            "approx_certified": (np.abs(vals) > errs).tolist(),
        })
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec.get("src", str(ROOT / "src")))
    record_dir = Path(spec["record_dir"])
    record_dir.mkdir(parents=True, exist_ok=True)
    # Replies go to a copy of the standard output; the descriptor itself,
    # which pool processes inherit, and sys.stdout now lead to /dev/null.
    reply = os.fdopen(os.dup(1), "w")
    sys.stdout = open(os.devnull, "w")
    os.dup2(sys.stdout.fileno(), 1)

    from fourier_minors import cli

    final: dict = {}
    if spec.get("extras"):
        final["kernel"] = kernel_points(spec["seed"])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for line in sys.stdin:
        i = json.loads(line)
        if i is None:
            break
        if tracer is not None:
            tracer.task = i
        res = run_task(cli, spec["tasks"][i], record_dir / f"rec-{i:04d}.json")
        reply.write(json.dumps(res) + "\n")
        reply.flush()
    if tracer is not None:
        final["spans"], final["bindings"] = tracer.spans, tracer.bindings
    final["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reply.write(json.dumps(final) + "\n")
    reply.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
