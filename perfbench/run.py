"""The fourier-minors benchmark: CLI workloads measured end to end, and a
traced run for per-layer numbers.

    python3 perfbench/run.py --workload scan|search|sweep --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  A round of a workload runs in a fresh
Python process (`worker.py`) that calls `fourier_minors.cli.main(argv)` for
one task at a time, with `--out`, so argument parsing and record writing are
part of the measurement.  Each round of the program under `src/` is paired
with a round of `baseline/`, a frozen copy of the program, and the two
processes take turns task by task.  Pairs repeat while one more, as long
as the last, fits in `--seconds`, so there is at least one.  The end-to-end
times are reported relative to the baseline's, which met the same machine.  Every run record
of the program is read back after the rounds, outside the timed processes,
and checked by `oracle.py`, or found equal apart from its times to a record
of the same task that passed that check.

With `--trace 0` the last line of standard output reports the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it reports the per-layer metrics,
from one untraced round, one traced round (spans from `tracing.py`) and the
traced-only measurements (kernel points, process pool, N = 16 search).  A
full result file, and for traced runs the span file, go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
OUT = ROOT / ".perfbench_out"

SETUP_PAIRS = 2  # import samples of each side before each pair of rounds
# The baseline's median import time on the machine the bounds were set on
# (2-core shared VM, Python 3.11.7, numpy 2.4.6); setup_s reads as the
# program's import time on that machine.
BASELINE_SETUP_S = 0.25
RUN_LIMIT_S = 170.0  # a run must end within 180 s; leave room for checks

_READY = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import fourier_minors.cli; print('ready', flush=True)")


def measure_setup(root: Path, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until the CLI under `root`
    is imported."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _READY, str(root)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("the CLI failed to import")
        samples.append(t1 - t0)
    return samples


def run_round(specs: list[dict], work: Path, deadline: float, flip: int = 0) -> list[dict]:
    """One round of each spec, each in a fresh worker process.

    The workers take turns task by task, in an order that alternates from
    task to task, so each task of one meets the machine as the same task of
    the other did.  Returns each worker's last reply, with its replies to
    the tasks under "tasks".
    """
    procs = []
    for spec in specs:
        spec_path = work / f"{Path(spec['record_dir']).name}-spec.json"
        spec_path.write_text(json.dumps(spec))
        procs.append(subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                      cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True))
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               lambda: [p.kill() for p in procs])
    watchdog.start()

    def ask(proc, message):
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker ended early or exceeded the run's time limit")
        return json.loads(line)

    replies: list[list[dict]] = [[] for _ in procs]
    try:
        for i in range(len(specs[0]["tasks"])):
            for k in range(len(procs))[::-1 if (i + flip) % 2 else 1]:
                replies[k].append(ask(procs[k], i))
        finals = [ask(proc, None) for proc in procs]
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        watchdog.cancel()
        for proc in procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
            proc.wait()
    for proc, final, tasks in zip(procs, finals, replies):
        if proc.returncode != 0:
            raise RuntimeError(f"a worker exited with code {proc.returncode}")
        final["tasks"] = tasks
    return finals


def read_record(path: str) -> dict | None:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def without_times(doc):
    """A run record with every `wall_time` field left out."""
    if isinstance(doc, dict):
        return {k: without_times(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [without_times(v) for v in doc]
    return doc


def check_round(tasks: list[dict], results: list[dict], table: dict, rng: random.Random,
                passed: dict[int, dict]) -> tuple[list[dict | None], list[str]]:
    """Records of one round and the failure of each failed task.

    `passed` maps a task's index to its record, without times, from a round
    in which it passed the oracle; an equal record passes without a second
    check, and a new record that passes is added.
    """
    import oracle

    records, failures = [], []
    for i, (task, res) in enumerate(zip(tasks, results)):
        rec = read_record(res["record"])
        records.append(rec)
        label = " ".join(task["argv"])
        if res["error"]:
            errors = [f"raised {res['error'].strip().splitlines()[-1]}"]
        elif res["rc"] not in task.get("allowed_rc", (0,)):
            errors = [f"exit code {res['rc']}"]
        elif rec is None:
            errors = ["no run record"]
        elif passed.get(i) == without_times(rec):
            errors = []
        else:
            errors = oracle.check_task(task, rec, res["rc"], table, rng)
            if not errors:
                passed[i] = without_times(rec)
        if errors:
            failures.append(f"{label}: {'; '.join(errors)}")
    return records, failures


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def task_table(tasks: list[dict], rounds: list[list[dict]],
               base_rounds: list[list[dict]]) -> list[dict]:
    return [{"argv": t["argv"], "seconds": [r[i]["seconds"] for r in rounds],
             "baseline_seconds": [r[i]["seconds"] for r in base_rounds],
             "samples": len(rounds), "baseline_samples": len(base_rounds)}
            for i, t in enumerate(tasks)]


def end_to_end(tasks, rounds, base_rounds, peak_rss, setup, base_setup) -> tuple[dict, dict]:
    """Measured times of the program and, under `baseline.`, of the baseline
    copy, and the ratios of the two that BENCHMARK.json reports.

    The machine's speed swings by up to 1.6x within seconds and drifts by
    up to a half over minutes, and not by the same factor for every kind of
    work; the baseline takes turns with the program task by task, so both
    meet the same machine and the swings cancel in the ratios of totals and
    of percentiles over every sample.
    """
    metrics = {"peak_rss_mb": max(peak_rss)}
    samples = {"rounds": len(rounds), "baseline_rounds": len(base_rounds),
               "setup_s": len(setup), "baseline_setup_s": len(base_setup)}
    for prefix, rs, st in (("", rounds, setup), ("baseline.", base_rounds, base_setup)):
        if not rs:
            continue
        det_ms = [x["seconds"] * 1e3 for r in rs for t, x in zip(tasks, r)
                  if t["kind"] == "det"]
        metrics[prefix + "wall_s"] = statistics.mean(sum(x["seconds"] for x in r) for r in rs)
        metrics[prefix + "det_ms.p50"] = quantile(det_ms, 50)
        metrics[prefix + "det_ms.p95"] = quantile(det_ms, 95)
        metrics[prefix + "import_s"] = statistics.median(st)
        samples[prefix + "det_queries"] = len(det_ms)
        samples[prefix + "det_ms.beyond_p95"] = sum(
            1 for x in det_ms if x > metrics[prefix + "det_ms.p95"])
    if base_rounds:
        for name in ("wall_s", "det_ms.p50", "det_ms.p95"):
            metrics[f"{name}.rel"] = metrics[name] / metrics[f"baseline.{name}"]
        metrics["setup_s"] = (metrics["import_s"] / metrics["baseline.import_s"]
                              * BASELINE_SETUP_S)
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "fourier_minors" / "cli.py").is_file():
        print(f"error: no fourier_minors sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "scan_counts.json").read_text())
    # The oracle and the layer metrics use the frozen baseline copy, so the
    # checks do not depend on the code under test.
    sys.path.insert(0, str(BASELINE))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True)
    tasks = workloads.build_tasks(args.workload, args.seed)
    spec = {"tasks": tasks, "seed": args.seed}
    setup: list[float] = []
    base_setup: list[float] = []
    rounds: list[list[dict]] = []
    base_rounds: list[list[dict]] = []
    peak_rss: list[float] = []
    traced = extras = None
    t_measure = time.monotonic()
    if args.trace:
        setup = measure_setup(SRC, SETUP_PAIRS)
        untraced, = run_round([{**spec, "record_dir": str(work / "untraced")}], work, deadline)
        rounds.append(untraced["tasks"])
        peak_rss.append(untraced["peak_rss_mb"])
        traced, = run_round([{**spec, "record_dir": str(work / "traced"), "trace": True}],
                            work, deadline)
        extras, = run_round([{**spec, "record_dir": str(work / "extras"), "extras": True,
                              "tasks": workloads.extra_tasks()}], work, deadline)
    else:
        # The program and the baseline alternate in imports and in tasks, and
        # each pair of rounds starts with the other side.  A pair starts only
        # if one as long as the last still fits in --seconds.
        while True:
            t_pair = time.monotonic()
            flip = len(rounds) % 2
            for j in range(SETUP_PAIRS):
                sides = ((SRC, setup), (BASELINE, base_setup))
                for root, samples in sides[::-1 if (j + flip) % 2 else 1]:
                    samples += measure_setup(root, 1)
            tag = f"round{len(rounds)}"
            mine, base = run_round(
                [{**spec, "src": str(SRC), "record_dir": str(work / tag)},
                 {**spec, "src": str(BASELINE), "record_dir": str(work / f"baseline-{tag}")}],
                work, deadline, flip)
            rounds.append(mine["tasks"])
            base_rounds.append(base["tasks"])
            peak_rss.append(mine["peak_rss_mb"])
            now = time.monotonic()
            if 2 * now - t_pair - t_measure > args.seconds:
                break

    check_rng = random.Random(f"check:{args.seed}")
    failures: list[str] = []
    round_records = []
    passed: dict[int, dict] = {}
    for r in rounds + ([traced["tasks"]] if traced else []):
        records, fails = check_round(tasks, r, table, check_rng, passed)
        round_records.append(records)
        failures += fails
    attempted = len(tasks) * len(round_records)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "claims": workloads.CLAIMS, "machine": machine(), "commit": git_commit(),
        "src_lines": src_lines(), "setup_s_samples": setup,
        "baseline_setup_s_samples": base_setup,
        "tasks": task_table(tasks, rounds, base_rounds),
    }
    e2e, samples = end_to_end(tasks, rounds, base_rounds, peak_rss, setup, base_setup)
    result["end_to_end"], result["samples"] = e2e, samples

    if args.trace:
        import oracle
        from layers import extras_metrics, scan_accounting, self_by_span, span_metrics

        extra_tasks = workloads.extra_tasks()
        extra_records, fails = check_round(extra_tasks, extras["tasks"], table, check_rng, {})
        failures += fails
        for point in extras["kernel"]:
            errors = oracle.check_kernel_point(point)
            if errors:
                failures.append(f"kernel point N={point['n']} r={point['r']}: {errors[0]}")
        attempted += len(extra_tasks) + len(extras["kernel"])
        spans = traced["spans"]
        layer = span_metrics(spans, tasks, round_records[-1])
        layer.update(extras_metrics(extras, extra_records))
        wall_untraced = sum(x["seconds"] for x in rounds[0])
        wall_traced = sum(x["seconds"] for x in traced["tasks"])
        layer["trace.overhead_frac"] = (wall_traced - wall_untraced) / wall_untraced
        result["per_layer"] = layer
        result["self_s_by_span"] = self_by_span(spans)
        result["scan_accounting"] = scan_accounting(spans, tasks, rounds[0], traced["tasks"])
        result["bindings_wrapped"] = traced["bindings"]
        result["traced_tasks"] = [{"argv": t["argv"], "seconds": x["seconds"]}
                                  for t, x in zip(tasks, traced["tasks"])]
        result["extra_tasks"] = [{"argv": t["argv"], "seconds": x["seconds"]}
                                 for t, x in zip(extra_tasks, extras["tasks"])]
        result["kernel_points"] = [{k: v for k, v in p.items() if k in
                                    ("n", "r", "batch", "exact_s", "approx_s")}
                                   for p in extras["kernel"]]
        with open(OUT / f"spans-{run_id}.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "task",
                                              "items"), s))) + "\n")
        values, wanted = layer, bench["per_layer"]
    else:
        values, wanted = e2e, bench["end_to_end"]

    result["attempted"], result["failed"] = attempted, len(failures)
    result["failed_frac"] = len(failures) / attempted
    result["failures"] = failures
    result["benchmark_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (OUT / f"result-{run_id}.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(work)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
