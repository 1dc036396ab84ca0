"""Command-line surface and stable record serialization.

Every command can write a single self-describing RunRecord as one JSON line
(`--out`): schema version, command, full parameter/configuration echo, and
the result payload.  Identical command plus configuration reproduces the
payload byte for byte (wall-time fields excepted).  `perm-search --resume`
checkpoint lines are not run records: they list prune counts in Counter
order and fall outside this byte contract.

Payloads are result dataclasses written by one codec, `encode`, and read
back by its inverse, `decode`:
- each field becomes the key of the same name, except `index_set`, which
  is written as `set` (`_KEYS`);
- an IndexSet is written as its members and a Permutation as its image,
  both read back with the `modulus` of the enclosing payload; a CycElem
  is `{modulus, totient, coeffs}`;
- int dict keys become strings, and the record lists them in string order
  ("10" before "2": `RunRecord.to_json_line` sorts every key); tuples
  become lists;
- None is written as null, and a field typed `X | None` reads null as None.
A payload adds its `kind` (a minor record also its `modulus`) to the
encoded fields.  The `scan` and `perm-search` config echoes are their
encoded configurations, the latter without `modulus`.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 inconclusive (time budget expired before the search space was covered),
4 a theorem1 counterexample (a vanishing 2x2 or 3x3 minor for a square-free
modulus), 5 a `--jobs` worker process died (no record is written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import __version__
from .cyclotomic import CycElem, ring_new
from .errors import PreconditionError, WorkerError
from .minors import IndexSet, minor_record
from .search import Permutation, SearchConfig, find_good_permutation
from .theorems import (ScanConfig, build_witness, is_square_free, scan_all,
                       verify_theorem1, witness_sweep)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """One reproducible run: command, parameter echo, result payload."""

    command: str
    version: str
    params: dict
    config: dict
    payload: dict
    exact_mode: bool
    wall_time: float

    def __post_init__(self) -> None:
        expected = _PAYLOAD_KINDS.get(self.command)
        if expected is not None and self.payload.get("kind") != expected:
            raise ValueError(
                f"payload kind {self.payload.get('kind')!r} does not match "
                f"command {self.command!r}"
            )

    def to_json_line(self) -> str:
        doc = {"record": "run", "schema": SCHEMA_VERSION,
               **{f.name: getattr(self, f.name) for f in fields(self)}}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


_PAYLOAD_KINDS = {
    "det": "minor_record",
    "scan": "scan_report",
    "witness": "witness_plans",
    "theorem1": "theorem1_report",
    "perm-search": "search_outcome",
}


def parse_run_record(line: str) -> RunRecord:
    doc = json.loads(line)
    if doc.get("record") != "run" or doc.get("schema") != SCHEMA_VERSION:
        raise ValueError("not a schema-1 run record")
    return RunRecord(**{f.name: doc[f.name] for f in fields(RunRecord)})


# ---------------------------------------------------------------------------
# The record codec (payloads are plain JSON-able dicts)

_KEYS = {"index_set": "set"}  # the one field whose payload key differs


def encode(value):
    """The JSON form of a result value, as the module docstring states."""
    if value is None or isinstance(value, (int, float, str)):
        return value  # leaves first: most values in a payload are ints
    if isinstance(value, IndexSet):
        return list(value.members)
    if isinstance(value, Permutation):
        return list(value.image)
    if isinstance(value, CycElem):
        return {"modulus": value.ring.modulus, "totient": value.ring.totient,
                "coeffs": list(value.coeffs)}
    if is_dataclass(value):
        return {_KEYS.get(f.name, f.name): encode(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def decode(tp, doc, modulus: int | None = None):
    """The value of type `tp` that `encode` wrote as `doc`.  IndexSet and
    Permutation take `modulus`, the one of the enclosing payload."""
    if doc is None:
        return None
    if tp is IndexSet:
        return IndexSet.of(modulus, doc)
    if tp is Permutation:
        return Permutation(modulus, tuple(doc))
    if tp is CycElem:
        return ring_new(doc["modulus"]).element(doc["coeffs"])
    if is_dataclass(tp):
        modulus = doc.get("modulus", modulus)
        hints = get_type_hints(tp)
        return tp(**{f.name: decode(hints[f.name], doc[_KEYS.get(f.name, f.name)], modulus)
                     for f in fields(tp)})
    origin, args = get_origin(tp), get_args(tp)
    if origin is dict:
        return {int(k): decode(args[1], v, modulus) for k, v in doc.items()}
    if origin in (list, tuple):  # list[X] or tuple[X, ...]
        return origin(decode(args[0], v, modulus) for v in doc)
    if origin is UnionType:  # X | None, and doc is not None
        return decode(next(a for a in args if a is not type(None)), doc, modulus)
    return doc


# ---------------------------------------------------------------------------
# Commands


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_record(args, start: float, params: dict, result,
                  config: dict | None = None, exact_mode: bool = True) -> None:
    """Build the command's RunRecord, its payload the command's `kind` plus
    the encoded `result`, and write it to `--out`, if given."""
    payload = {"kind": _PAYLOAD_KINDS[args.command], **encode(result)}
    record = RunRecord(args.command, __version__, params, config or {}, payload,
                       exact_mode, time.perf_counter() - start)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(record.to_json_line() + "\n")


def _parse_index_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad index list {text!r}") from exc


def cmd_det(args) -> int:
    start = time.perf_counter()
    try:
        indices = _parse_index_list(args.set)
        k = IndexSet.of(args.n, indices)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(k) == 0:
        print("error: empty index set", file=sys.stderr)
        return 1
    rec = minor_record(k)
    ring = rec.determinant.ring
    verdict = "singular" if rec.singular else "nonsingular"
    print(f"F_{args.n}[{list(k.members)}] is {verdict}")
    print(f"modulus={args.n} totient={ring.totient}")
    print(f"determinant coefficients (basis 1, w, ..., w^{ring.totient - 1}):")
    print(f"  {list(rec.determinant.coeffs)}")
    _write_record(args, start, {"n": args.n, "set": list(k.members)},
                  {"modulus": args.n, **encode(rec)})
    return 0


def cmd_scan(args) -> int:
    start = time.perf_counter()
    config = ScanConfig(
        exact=not args.prefilter, use_complement=not args.no_complement,
        use_shift_classes=not args.no_shift_classes, override=args.override,
        exemplar_cap=args.cap, jobs=args.jobs,
    )
    report = scan_all(args.n, config)
    total = sum(report.counts.values())
    mode = "exact" if report.exact_mode else "exact, counting one-prime screen hits"
    print(f"scan N={args.n} [{mode}]: {total} singular principal index sets")
    for r in sorted(report.counts):
        if report.counts[r]:
            shown = ", ".join(str(list(s)) for s in report.exemplars[r][:4])
            more = "" if report.counts[r] <= 4 else ", ..."
            print(f"  size {r}: {report.counts[r]}  e.g. {shown}{more}")
    if total == 0:
        print("  no vanishing principal minors")
    print(f"classes tested: {report.classes_tested}, prefilter hits: "
          f"{report.prefilter_hits}, {report.wall_time:.2f}s")
    _write_record(args, start, {"n": args.n}, report, encode(config), report.exact_mode)
    return 0


def cmd_witness(args) -> int:
    start = time.perf_counter()
    plans = witness_sweep(args.n) if args.all else [build_witness(args.n, args.r)]
    for p in plans:
        print(f"N={p.modulus} r={p.size} [{p.case}] {list(p.index_set.members)} (verified)")
        print(f"  {p.certificate}")
    _write_record(args, start, {"n": args.n, "r": args.r, "all": args.all},
                  {"plans": plans})
    return 0


def cmd_theorem1(args) -> int:
    start = time.perf_counter()
    if args.range is not None:
        try:
            lo, hi = args.range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            print(f"error: bad range {args.range!r}, expected A..B", file=sys.stderr)
            return 1
        moduli = list(range(max(4, lo), hi + 1))
        if not moduli:
            print(f"error: range {args.range!r} holds no modulus >= 4", file=sys.stderr)
            return 1
    else:
        moduli = [args.n]
    reports, skipped = [], []
    for n in moduli:
        if args.range is not None and not is_square_free(n):
            skipped.append(n)
            print(f"N={n}: skipped (not square-free)")
            continue
        rep = verify_theorem1(n)
        reports.append(rep)
        status = "pass" if rep.passed else f"FAIL at {rep.counterexample}"
        print(f"N={n}: {status} ({rep.pairs_checked} translated sets checked; "
              f"certifies sizes {list(rep.certified_sizes)})")
    _write_record(args, start, {"n": args.n, "range": args.range},
                  {"reports": reports, "skipped_not_square_free": skipped})
    # a counterexample would falsify the arithmetic, not the usage; keep it
    # distinct from the reserved codes 1..3
    return 0 if all(r.passed for r in reports) else 4


def cmd_perm_search(args) -> int:
    start = time.perf_counter()
    config = SearchConfig(modulus=args.n, order=args.order, time_budget=args.budget,
                          jobs=args.jobs, checkpoint_path=args.resume)
    outcome = find_good_permutation(config)
    if outcome.found:
        print(f"N={args.n}: good permutation {list(outcome.found.image)} "
              f"(re-verified exactly)")
    elif outcome.exhausted:
        print(f"N={args.n}: search space exhausted, no good permutation exists")
    else:
        print(f"N={args.n}: INCONCLUSIVE (budget expired before exhaustion)")
    print(f"nodes={outcome.nodes_expanded} prunes={dict(sorted(outcome.prune_counts.items()))} "
          f"{outcome.wall_time:.2f}s")
    echo = encode(config)
    del echo["modulus"]  # echoed as params.n
    _write_record(args, start, {"n": args.n}, outcome, echo)
    if outcome.found is None and not outcome.exhausted:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fourier-minors",
                     description="Exact principal minors of Fourier matrices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("det", help="decide one principal minor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", type=str, required=True, help="comma-separated indices")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("scan", help="decide every principal minor of F_N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefilter", action="store_true",
                   help="same exact engine; report how many classes its "
                        "one-prime screen certified nonzero")
    p.add_argument("--no-complement", action="store_true")
    p.add_argument("--no-shift-classes", action="store_true",
                   help="decide every set, not one per affine class")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--override", action="store_true", help="ignore the scan ceiling")
    p.add_argument("--cap", type=int, default=16, help="exemplars kept per size")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("witness", help="construct singular principal index sets")
    p.add_argument("--n", type=int, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--r", type=int, default=None)
    size.add_argument("--all", action="store_true", help="every size 2..N-2")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("theorem1", help="2x2/3x3 nonvanishing sweep (square-free N)")
    moduli = p.add_mutually_exclusive_group(required=True)
    moduli.add_argument("--n", type=int, default=None)
    moduli.add_argument("--range", type=str, default=None, help="A..B inclusive")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("perm-search", help="search for a good column permutation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", type=str, default=None,
                   help="checkpoint file; created if missing, resumed if present")
    p.add_argument("--order", choices=["ascending", "most-constrained"],
                   default="ascending")
    # perfbench's traced N = 16 task still passes it; every search now walks
    # the sigma(0) = 0 tree alone (the shift lemma of `search`)
    p.add_argument("--symmetry", action="store_true",
                   help="no effect: every search fixes sigma(0) = 0")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_perm_search)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
