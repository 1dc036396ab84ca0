"""Per-layer metrics of a traced run, from its spans and run records.

Counts of work (nodes, classes, plans, prunes) come from the run records;
times and call counts come from the spans written by `tracing.Tracer`.
"""

from __future__ import annotations

import statistics
from math import comb

from fourier_minors.cyclotomic import cyclotomic_polynomial
from tracing import has_ancestor, self_times

PRUNE_SIZES = range(2, 9)


def theorem1_bytes(n: int) -> int:
    """Computed bytes of the arrays the 3x3 check of verify_theorem1
    materialises for modulus n, each array counted once: 19 index vectors
    of P = C(n-1, 2) int64, ten (P, phi) int64 arrays (five gathers, one
    scaling, four sums), the (P, phi) bool comparison and the P-bool result.
    """
    p = comb(n - 1, 2)
    phi = len(cyclotomic_polynomial(n)) - 1
    return p * (19 * 8 + 10 * 8 * phi + phi + 1)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _prune_metrics(prefix: str, prunes: dict[str, int]) -> dict[str, float]:
    out = {f"{prefix}.size{k}": float(prunes.get(str(k), 0)) for k in PRUNE_SIZES}
    out[f"{prefix}.size{PRUNE_SIZES[-1] + 1}plus"] = float(sum(
        v for k, v in prunes.items() if int(k) > PRUNE_SIZES[-1]))
    return out


def span_metrics(spans: list[list], tasks: list[dict], records: list[dict | None]) -> dict:
    """Layer metrics of one traced round of a workload."""
    selfs = self_times(spans)
    dur = [s[2] - s[1] for s in spans]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    m: dict[str, float] = {}
    exact = named("powerdet.exact")
    calls, dets, secs = len(exact), sum(spans[i][5] for i in exact), sum(dur[i] for i in exact)
    m["powerdet.exact.calls"] = float(calls)
    m["powerdet.exact.dets"] = float(dets)
    m["powerdet.exact.s"] = secs
    m["powerdet.exact.us_per_det"] = _div(secs, dets) * 1e6
    m["powerdet.exact.us_per_call"] = _div(secs, calls) * 1e6
    m["powerdet.exact.batch_mean"] = _div(dets, calls)

    approx = [i for i in named("powerdet.approx")
              if not has_ancestor(spans, i, {"powerdet.approx"})]
    adets = sum(spans[i][5] for i in approx)
    m["powerdet.approx.dets"] = float(adets)
    m["powerdet.approx.s"] = sum(dur[i] for i in approx)

    for name in ("minors.det_exact", "minors.is_singular"):
        idx = named(name)
        m[f"{name}.calls"] = float(len(idx))
        m[f"{name}.s"] = sum(dur[i] for i in idx)

    builds = named("cyclotomic.ring_build")
    m["cyclotomic.ring_build.calls"] = float(sum(1 for i in builds if spans[i][5] == 1))
    m["cyclotomic.ring_build.s"] = sum(dur[i] for i in builds)

    scans = [(t, r) for t, r in zip(tasks, records) if t["kind"] == "scan" and r]
    classes = sum(r["payload"]["classes_tested"] for _, r in scans)
    hits = sum(r["payload"]["prefilter_hits"] for _, r in scans)
    m["powerdet.approx.certified_ratio"] = _div(hits, adets)
    m["theorems.scan.self_s"] = sum(selfs[i] for i in named("theorems.scan"))
    m["theorems.scan.classes"] = float(classes)
    m["theorems.scan.sets_per_class"] = _div(sum(2 ** t["n"] - 1 for t, _ in scans), classes)

    t1 = named("theorems.theorem1")
    t1_s = sum(dur[i] for i in t1)
    t1_bytes = sum(theorem1_bytes(rep["modulus"])
                   for t, r in zip(tasks, records) if t["kind"] == "theorem1" and r
                   for rep in r["payload"]["reports"])
    m["theorems.theorem1.s"] = t1_s
    m["theorems.theorem1.gb_per_s"] = _div(t1_bytes, t1_s) / 1e9

    m["theorems.witness.s"] = sum(dur[i] for i in named("theorems.witness"))
    m["theorems.witness.plans"] = float(sum(
        len(r["payload"]["plans"]) for t, r in zip(tasks, records)
        if t["kind"] == "witness" and r))

    searches = [r["payload"] for t, r in zip(tasks, records) if t["kind"] == "perm-search" and r]
    nodes = sum(p["nodes_expanded"] for p in searches)
    prunes: dict[str, int] = {}
    for p in searches:
        for k, v in p["prune_counts"].items():
            prunes[k] = prunes.get(k, 0) + v
    m["search.nodes"] = float(nodes)
    m["search.prunes"] = float(sum(prunes.values()))
    m.update(_prune_metrics("search.prunes", prunes))
    m["search.self_s"] = sum(selfs[i] for i in named("search.find"))
    m["search.verify.s"] = sum(dur[i] for i in named("search.verify"))
    incremental = [i for i in exact if has_ancestor(spans, i, {"search.find"})
                   and not has_ancestor(spans, i, {"search.verify"})]
    m["search.kernel_calls_per_node"] = _div(len(incremental), nodes)

    m["cli.self_s"] = sum(selfs[i] for i in named("cli.main"))
    return m


def self_by_span(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name, over the whole traced round."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        out[s[0]] = out.get(s[0], 0.0) + t
    return dict(sorted(out.items()))


def scan_accounting(spans: list[list], tasks: list[dict], untraced: list[dict],
                    traced: list[dict]) -> dict | None:
    """How much of the scan tasks' traced time the powerdet spans, the self
    time of theorems.scan and the self time of cli.main cover, next to the
    tracing overhead measured on the same tasks.  None without scan tasks."""
    scan = {i for i, t in enumerate(tasks) if t["kind"] == "scan"}
    if not scan:
        return None
    covered = sum(t for s, t in zip(spans, self_times(spans)) if s[4] in scan and (
        s[0].startswith("powerdet.") or s[0] in ("theorems.scan", "cli.main")))
    traced_s = sum(traced[i]["seconds"] for i in scan)
    untraced_s = sum(untraced[i]["seconds"] for i in scan)
    uncovered = 1.0 - covered / traced_s
    overhead = (traced_s - untraced_s) / untraced_s
    return {"covered_s": covered, "traced_s": traced_s, "untraced_s": untraced_s,
            "uncovered_frac": uncovered, "overhead_frac": overhead,
            "within_overhead": abs(uncovered) <= abs(overhead)}


def extras_metrics(extras: dict, records: list[dict | None]) -> dict[str, float]:
    """Kernel points, pool speed-up and the fixed-budget N = 16 search."""
    m: dict[str, float] = {}
    for point in extras["kernel"]:
        n, r, batch = point["n"], point["r"], point["batch"]
        tag = f"n{n}r{r}"
        m[f"powerdet.exact.us_per_det.{tag}"] = statistics.median(point["exact_s"]) / batch * 1e6
        m[f"powerdet.approx.us_per_det.{tag}"] = statistics.median(point["approx_s"]) / batch * 1e6
        m[f"powerdet.exact.ops_per_det.{tag}"] = float(r * 2 ** (r - 1) * n)
    jobs1, jobs2, n16 = extras["tasks"]
    m["theorems.pool.speedup_jobs2"] = _div(jobs1["seconds"], jobs2["seconds"])
    p = records[2]["payload"] if records[2] else {"nodes_expanded": 0, "prune_counts": {},
                                                  "wall_time": 0.0}
    m["search.n16.nodes"] = float(p["nodes_expanded"])
    m["search.n16.nodes_per_s"] = _div(p["nodes_expanded"], p["wall_time"])
    m.update(_prune_metrics("search.n16.prunes", p["prune_counts"]))
    return m
