import json
from collections import Counter
from pathlib import Path

import pytest

from fourier_minors import (IndexSet, MinorRecord, ScanReport, SearchOutcome,
                            Theorem1Report, WitnessPlan, WorkerError, build_witness,
                            minor_record, ring_new, scan_all, witness_sweep)
from fourier_minors.cli import decode, encode, main, parse_run_record
from fourier_minors.search import SearchConfig, find_good_permutation
from fourier_minors.theorems import verify_theorem1


def run(args):
    return main(args)


def read_record(path):
    return parse_run_record(path.read_text().strip())


def strip_wall_time(doc):
    doc = json.loads(json.dumps(doc))

    def scrub(node):
        if isinstance(node, dict):
            node.pop("wall_time", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)
    scrub(doc)
    return doc


def test_det_singular_and_record(tmp_path, capsys):
    out = tmp_path / "det.jsonl"
    assert run(["det", "--n", "4", "--set", "0,2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "singular" in stdout and "totient=2" in stdout
    record = read_record(out)
    assert record.command == "det"
    assert record.payload["modulus"] == 4
    rec = decode(MinorRecord, record.payload)
    assert rec.singular and rec.index_set.members == (0, 2)
    direct = minor_record(IndexSet.of(4, [0, 2]))
    assert rec == direct


def test_det_nonsingular():
    assert run(["det", "--n", "4", "--set", "0,1,2"]) == 0


def test_det_bad_indices_is_usage_error(capsys):
    assert run(["det", "--n", "4", "--set", "0,9"]) == 1
    assert run(["det", "--n", "4", "--set", "a,b"]) == 1
    assert run(["det", "--n", "4", "--set", ""]) == 1
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert run(["det", "--n", "4"]) == 1
    assert run(["nonsense"]) == 1
    assert run(["scan", "--n", "4", "--exact"]) == 1  # exact is the only mode
    capsys.readouterr()


def test_parser_is_reused_across_calls(capsys):
    # one parser serves every call of a process; usage errors still exit 1
    assert run(["scan", "--n", "5", "--bogus"]) == 1
    assert run(["det", "--n", "4", "--set", "0,2"]) == 0
    assert run(["det", "--n", "4", "--set", "0,2", "--cap", "3"]) == 1
    assert run(["det", "--n", "4", "--set", "0,1"]) == 0
    capsys.readouterr()


def test_cli_import_skips_mpmath_and_multiprocessing():
    # neither the import nor a serial scan or search pulls in these; numpy.ma
    # (imported by np.unique, np.union1d and np.setdiff1d) costs 15 ms
    import subprocess
    import sys
    from pathlib import Path

    import fourier_minors
    src = str(Path(fourier_minors.__file__).resolve().parent.parent)
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
            "import fourier_minors.cli as cli\n"
            "names = ('mpmath', 'multiprocessing', 'concurrent.futures', 'numpy.ma')\n"
            "print(sorted(m for m in names if m in sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['scan', '--n', '16']), cli.main(['perm-search', '--n', '9'])]\n"
            "print(codes, sorted(m for m in names if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[0, 0] []"]


def test_scan_record_round_trip(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    assert run(["scan", "--n", "9", "--out", str(out)]) == 0
    record = read_record(out)
    report = decode(ScanReport, record.payload)
    direct = scan_all(9)
    assert report.counts == direct.counts
    assert report.exemplars == direct.exemplars
    assert record.exact_mode
    capsys.readouterr()


def test_scan_prefilter_flag(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    assert run(["scan", "--n", "15", "--prefilter", "--out", str(out)]) == 0
    record = read_record(out)
    assert not record.exact_mode
    assert decode(ScanReport, record.payload).prefilter_hits > 0
    assert run(["scan", "--n", "15", "--out", str(out)]) == 0
    assert decode(ScanReport, read_record(out).payload).prefilter_hits == 0
    capsys.readouterr()


def test_scan_rejects_negative_cap_and_jobs(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    for flag, value in (("--cap", "-1"), ("--jobs", "-3"), ("--jobs", "0")):
        assert run(["scan", "--n", "12", flag, value, "--out", str(out)]) == 2
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, call", [
    (["scan", "--n", "12", "--jobs", "2"], "scan_all"),
    (["perm-search", "--n", "8", "--jobs", "2"], "find_good_permutation"),
])
def test_dead_worker_exits_5_without_record(tmp_path, capsys, monkeypatch, argv, call):
    import fourier_minors.cli as cli

    def dead(*args, **kwargs):
        raise WorkerError("a --jobs worker process died (pool broken)")

    monkeypatch.setattr(cli, call, dead)
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "worker" in err
    assert not out.exists()


def test_scan_ceiling_precondition(capsys):
    assert run(["scan", "--n", "23"]) == 2
    capsys.readouterr()


def test_scan_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["scan", "--n", "12", "--out", str(a)]) == 0
    assert run(["scan", "--n", "12", "--out", str(b)]) == 0
    da = strip_wall_time(json.loads(a.read_text()))
    db = strip_wall_time(json.loads(b.read_text()))
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    capsys.readouterr()


def test_witness_single_and_all(tmp_path, capsys):
    out = tmp_path / "w.jsonl"
    assert run(["witness", "--n", "9", "--r", "3", "--out", str(out)]) == 0
    plans = decode(list[WitnessPlan], read_record(out).payload["plans"])
    assert len(plans) == 1 and plans[0].index_set.members == (0, 3, 6)
    assert run(["witness", "--n", "8", "--all", "--out", str(out)]) == 0
    plans = decode(list[WitnessPlan], read_record(out).payload["plans"])
    assert plans == witness_sweep(8)
    capsys.readouterr()


def test_witness_requires_r_or_all(capsys):
    assert run(["witness", "--n", "8"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["witness", "--n", "8", "--r", "3", "--all"],
    ["theorem1", "--n", "10", "--range", "4..6"],
    ["theorem1"],
    ["theorem1", "--range", "9..5"],
    ["theorem1", "--range", "1..3"],
    ["theorem1", "--range", ""],
])
def test_conflicting_or_empty_flags_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_witness_records_with_dropped_fields_decode():
    # older witness records carry block parameters the plans no longer
    # have; decode reads only the fields that exist
    plan = build_witness(18, 7)
    assert decode(list[WitnessPlan], [{**encode(plan), "s": 1, "t": 1}]) == [plan]


def test_witness_square_free_precondition(capsys):
    assert run(["witness", "--n", "10", "--r", "2"]) == 2
    capsys.readouterr()


def test_theorem1_single_and_range(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert run(["theorem1", "--n", "6", "--out", str(out)]) == 0
    reports = decode(list[Theorem1Report], read_record(out).payload["reports"])
    direct = verify_theorem1(6)
    assert reports[0].passed and reports[0].certified_sizes == direct.certified_sizes
    assert run(["theorem1", "--range", "5..12", "--out", str(out)]) == 0
    record = read_record(out)
    moduli = [r["modulus"] for r in record.payload["reports"]]
    assert moduli == [5, 6, 7, 10, 11]
    assert record.payload["skipped_not_square_free"] == [8, 9, 12]
    stdout = capsys.readouterr().out
    assert "skipped (not square-free)" in stdout


def test_theorem1_non_square_free_precondition(capsys):
    assert run(["theorem1", "--n", "12"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["theorem1", "--n", "10010"],
    ["witness", "--n", "10004", "--r", "2"],
    ["perm-search", "--n", "10001", "--budget", "1"],
    ["det", "--n", "10010", "--set", "0,1"],
])
def test_moduli_past_the_bound_are_refused(argv, tmp_path, capsys):
    # no command builds a ring for its zero decisions; the prime field
    # refuses the same moduli a ring does, and no record is written
    out = tmp_path / "r.jsonl"
    assert run([*argv, "--out", str(out)]) == 2
    assert "exceeds the precomputation bound 10000" in capsys.readouterr().err
    assert not out.exists()


def test_perm_search_found(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    assert run(["perm-search", "--n", "4", "--out", str(out)]) == 0
    outcome = decode(SearchOutcome, read_record(out).payload)
    direct = find_good_permutation(SearchConfig(4))
    assert outcome.found == direct.found
    capsys.readouterr()


def test_committed_n16_exhaustion_matches_its_checkpoint():
    # the most-constrained sigma(0) = 0 tree of N = 16, searched to the end
    # in two workers (census/README.md); the root plus the checkpoint's one
    # line per unit carry its work
    census = Path(__file__).resolve().parent.parent / "census"
    record = read_record(census / "perm-search-n16.json")
    outcome = decode(SearchOutcome, record.payload)
    assert record.command == "perm-search" and record.params == {"n": 16}
    assert outcome.modulus == 16 and outcome.exhausted and outcome.found is None
    assert outcome.nodes_expanded == 4258592
    assert outcome.prune_counts == {2: 1319319, 4: 1221760, 6: 888960, 7: 45536,
                                    8: 130912, 9: 960, 10: 1216}
    assert record.config["order"] == "most-constrained" and record.config["jobs"] == 2
    lines = (census / "perm-search-n16.ckpt").read_text().splitlines()
    header, *units = map(json.loads, lines)
    assert header == {"kind": "config", "modulus": 16, "order": "most-constrained"}
    assert [u["kind"] for u in units] == ["prefix_done"] * 15
    assert [u["prefix"] for u in units] == [[0, v] for v in range(1, 16)]
    assert sum(u["nodes"] for u in units) + 1 == outcome.nodes_expanded
    prunes = sum((Counter({int(k): c for k, c in u["prunes"].items()}) for u in units),
                 Counter())
    assert prunes == outcome.prune_counts


def test_perm_search_symmetry_flag_changes_nothing(tmp_path, capsys):
    # the flag still parses, but every search fixes sigma(0) = 0
    outs = [tmp_path / "plain.jsonl", tmp_path / "symmetry.jsonl"]
    for out, extra in zip(outs, ([], ["--symmetry"])):
        assert run(["perm-search", "--n", "8", "--order", "most-constrained", *extra,
                    "--out", str(out)]) == 0
    plain, symmetry = (strip_wall_time(json.loads(out.read_text())) for out in outs)
    assert plain == symmetry and "symmetry" not in plain["config"]
    capsys.readouterr()


def test_perm_search_budget_inconclusive(tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    code = run(["perm-search", "--n", "16", "--budget", "0.2", "--out", str(out)])
    assert code == 3
    outcome = decode(SearchOutcome, read_record(out).payload)
    assert outcome.found is None and not outcome.exhausted
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_perm_search_resume_flag(tmp_path, capsys):
    ckpt = tmp_path / "c.jsonl"
    assert run(["perm-search", "--n", "6", "--resume", str(ckpt)]) == 0
    assert ckpt.exists()
    assert run(["perm-search", "--n", "6", "--resume", str(ckpt)]) == 0
    capsys.readouterr()


def test_run_record_round_trip_equality(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    for args, kind in ((["det", "--n", "9", "--set", "0,3,6"], "minor_record"),
                       (["scan", "--n", "8"], "scan_report"),
                       (["witness", "--n", "12", "--all"], "witness_plans"),
                       (["theorem1", "--n", "10"], "theorem1_report"),
                       (["perm-search", "--n", "5"], "search_outcome")):
        assert run(args + ["--out", str(out)]) == 0
        record = read_record(out)
        assert record.payload["kind"] == kind
        assert parse_run_record(record.to_json_line()) == record
    capsys.readouterr()


def test_payload_kind_mismatch_rejected():
    from fourier_minors.cli import RunRecord
    with pytest.raises(ValueError):
        RunRecord(command="scan", version="0", params={}, config={},
                  payload={"kind": "minor_record"}, exact_mode=True, wall_time=0.0)


def test_payload_builders_invert():
    rec = minor_record(IndexSet.of(9, [0, 3, 6]))
    assert decode(MinorRecord, encode(rec), 9) == rec
    rep = scan_all(6)
    assert decode(ScanReport, encode(rep)) == rep
    plans = witness_sweep(9)
    assert decode(list[WitnessPlan], encode(plans)) == plans
    outcome = find_good_permutation(SearchConfig(5))
    assert decode(SearchOutcome, encode(outcome)) == outcome


def test_codec_round_trips_edge_shapes():
    def through_json(payload):
        return json.loads(json.dumps(payload, sort_keys=True))

    outcome = SearchOutcome(16, None, False, 5654, {2: 3659, 10: 1}, 0.5)
    payload = encode(outcome)
    assert payload["found"] is None
    assert decode(SearchOutcome, through_json(payload)) == outcome
    # the record sorts every key, so int keys come out in string order
    from fourier_minors.cli import RunRecord
    line = RunRecord("perm-search", "0", {}, {}, {"kind": "search_outcome", **payload},
                     True, 0.0).to_json_line()
    assert list(json.loads(line)["payload"]["prune_counts"]) == ["10", "2"]

    report = Theorem1Report(12, (2, 3), False, (3, 6), 66, (2, 3, 9, 10), "note", 0.1)
    payload = encode({"reports": [report], "skipped_not_square_free": [8, 9]})
    assert payload["reports"][0]["counterexample"] == [3, 6]
    assert decode(list[Theorem1Report], through_json(payload)["reports"]) == [report]

    rep = scan_all(8, use_shift_classes=False)
    assert not rep.use_shift_classes and any(rep.counts.values())
    assert decode(ScanReport, through_json(encode(rep))) == rep

    ring = ring_new(9)
    big = ring.element([2**70, -(2**65), 3, 0, 0, 1])
    rec = MinorRecord(IndexSet.of(9, [0, 3, 6]), 3, False, big)
    payload = {"modulus": 9, **encode(rec)}  # the det command's payload fields
    assert payload["set"] == [0, 3, 6]
    assert payload["determinant"] == {"modulus": 9, "totient": 6,
                                      "coeffs": [2**70, -(2**65), 3, 0, 0, 1]}
    assert decode(MinorRecord, through_json(payload)) == rec


def test_perfbench_bindings_exist():
    # perfbench/tracing.py wraps these attributes by name.  They are only
    # looked up: Tracer.install would rebind this process's module globals.
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [*tracing.FUNCTIONS,
                ("cyclotomic", "CycRing.__init__"), ("cyclotomic", "CycRing.np_tables"),
                ("powerdet", "det_power_batch"), ("powerdet", "approx_det_batch")]
    assert {mod for mod, _ in bindings} <= set(tracing.MODULES)
    for mod, attr in bindings:
        obj = importlib.import_module(f"fourier_minors.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)
