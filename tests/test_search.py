import json
import time
from itertools import combinations, permutations

import pytest

from fourier_minors import (IndexSet, Permutation, PreconditionError, SearchConfig,
                            enumerate_good_permutations, find_good_permutation,
                            is_good_permutation, powerdet, ring_new)
from fourier_minors.minors import det_exact, submatrix
from fourier_minors.search import ORDER_MOST_CONSTRAINED, _SearchState


def brute_force_images(n):
    return {img for img in permutations(range(n)) if is_good_permutation(n, img)}


def test_permutation_validation():
    assert Permutation.identity(4).image == (0, 1, 2, 3)
    assert Permutation(3, (2, 0, 1))(0) == 2
    with pytest.raises(ValueError):
        Permutation(3, (0, 1, 1))
    with pytest.raises(ValueError):
        Permutation(3, (0, 1))


def test_is_good_permutation_fixtures():
    assert is_good_permutation(5, range(5))       # prime modulus
    assert not is_good_permutation(4, range(4))   # {0,2} vanishes
    assert is_good_permutation(1, [0])


def test_good_permutation_search_small():
    for n in range(1, 7):
        outcome = find_good_permutation(SearchConfig(n))
        assert outcome.found is not None, n
        assert is_good_permutation(n, outcome.found)
        assert not outcome.exhausted  # stopped at the first find


def test_search_agrees_with_brute_force_to_6():
    for n in range(1, 7):
        brute = brute_force_images(n)
        outcome = find_good_permutation(SearchConfig(n))
        assert (outcome.found is not None) == bool(brute), n
        if outcome.found:
            assert outcome.found.image in brute
        fast = {p.image for p in enumerate_good_permutations(n)}
        assert fast == brute, n


def test_enumerate_fixtures():
    assert [p.image for p in enumerate_good_permutations(1)] == [(0,)]
    assert [p.image for p in enumerate_good_permutations(2)] == [(0, 1), (1, 0)]
    four = enumerate_good_permutations(4)
    assert four and all(is_good_permutation(4, p) for p in four)
    images = [p.image for p in four]
    assert images == sorted(images)  # lexicographic order


def test_enumerate_limit_and_ceiling():
    assert len(enumerate_good_permutations(5, limit=3)) == 3
    with pytest.raises(PreconditionError):
        enumerate_good_permutations(13)


def test_incremental_family_covers_power_set():
    # On moduli where the first branch completes without backtracking the
    # tested subsets along that branch must be the whole power set.
    for n in (5, 6, 7):
        seen = set()
        outcome = find_good_permutation(
            SearchConfig(n), on_test=lambda subset, depth: seen.add(subset)
        )
        assert outcome.nodes_expanded == n  # no backtracking happened
        expected = set()
        for r in range(1, n + 1):
            expected.update(combinations(range(n), r))
        assert seen == expected, n


def test_incremental_family_identity_to_8():
    # The family tested at step d (ascending order) is every subset of
    # positions 0..d containing d, independent of the values tried, so the
    # union over a completed branch is the full power set by construction.
    for n in range(1, 9):
        union = set()
        for d in range(n):
            for s in range(d + 1):
                for tail in combinations(range(d), s):
                    union.add(tuple(sorted(tail + (d,))))
        expected = set()
        for r in range(1, n + 1):
            expected.update(combinations(range(n), r))
        assert union == expected, n


def test_monotone_pruning_validity():
    # a partial assignment whose assigned positions already contain a
    # vanishing principal minor admits no good completion
    cases = [
        (4, {0: 0, 2: 2}),   # rows {0,2} x cols {0,2} is the all-ones block
        (4, {1: 1, 3: 3}),
        (8, {0: 0, 4: 4}),
    ]
    for n, partial in cases:
        remaining_pos = [p for p in range(n) if p not in partial]
        remaining_val = [v for v in range(n) if v not in partial.values()]
        for completion in permutations(remaining_val):
            image = [0] * n
            for p, v in partial.items():
                image[p] = v
            for p, v in zip(remaining_pos, completion):
                image[p] = v
            assert not is_good_permutation(n, tuple(image)), (n, partial, image)


def test_value_shift_preserves_goodness(rng):
    # adding a constant to every sigma value rescales rows by roots of
    # unity; goodness is invariant (the basis for the symmetry reduction)
    for _ in range(60):
        n = rng.randrange(2, 9)
        image = list(range(n))
        rng.shuffle(image)
        good = is_good_permutation(n, tuple(image))
        c = rng.randrange(1, n)
        shifted = tuple((v + c) % n for v in image)
        assert is_good_permutation(n, shifted) == good, (n, image, c)


def test_symmetry_reduction_agrees_with_brute_force_to_6():
    for n in range(1, 7):
        outcome = find_good_permutation(SearchConfig(n, symmetry=True))
        brute = brute_force_images(n)
        assert (outcome.found is not None) == bool(brute), n
        if outcome.found:
            assert outcome.found.image[0] == 0
            assert outcome.found.image in brute


def test_most_constrained_order_finds_verified_permutations():
    for n in (4, 6, 8):
        outcome = find_good_permutation(SearchConfig(n, order=ORDER_MOST_CONSTRAINED))
        assert outcome.found is not None
        assert is_good_permutation(n, outcome.found)
    for n in range(1, 7):
        brute = brute_force_images(n)
        config = SearchConfig(n, order=ORDER_MOST_CONSTRAINED)
        outcome = find_good_permutation(config)
        assert outcome.found is not None and outcome.found.image in brute, n
        # the most-constrained tree's leaves are every good permutation
        assert set(_SearchState(config).leaves()) == brute, n
        assert {p.image for p in enumerate_good_permutations(n)} == brute, n


def _oracle_fail(ring, sigma, assigned, pos):
    """Smallest r with a vanishing minor on S + {pos}, |S| = r - 1, S within
    the assigned positions, by det_exact (no engine code); 0 if none."""
    for r in range(1, len(assigned) + 2):
        for rest in combinations(assigned, r - 1):
            rows = tuple(sorted(rest + (pos,)))
            cols = tuple(sorted(sigma[k] for k in rows))
            matrix = submatrix(ring, IndexSet(ring.modulus, rows),
                               IndexSet(ring.modulus, cols))
            if det_exact(matrix).is_zero():
                return r
    return 0


def test_domain_matches_exact_oracle(rng, monkeypatch):
    calls = []
    engine = powerdet.zero_flags
    monkeypatch.setattr(powerdet, "zero_flags",
                        lambda *args: calls.append(1) or engine(*args))
    sizes = set()
    for _ in range(100):
        n = rng.randrange(2, 10)
        ring = ring_new(n)
        positions = list(range(n))
        rng.shuffle(positions)
        depth = rng.randrange(n)  # any set of assigned positions, any free pos
        assigned, pos = positions[:depth], positions[depth]
        image = rng.sample(range(n), depth)
        state = _SearchState(SearchConfig(n, order=ORDER_MOST_CONSTRAINED))
        for k, v in zip(assigned, image):
            state.img[k] = v
        state.assigned = list(assigned)
        calls.clear()
        values, fail = state._domain(pos)
        # one engine call per size, however many values are free
        assert len(calls) <= depth + 1, (n, assigned, pos)
        assert values.tolist() == sorted(set(range(n)) - set(image))
        for v, f in zip(values.tolist(), fail.tolist()):
            sigma = dict(zip(assigned, image))
            sigma[pos] = v
            assert f == _oracle_fail(ring, sigma, assigned, pos), (n, sigma, pos)
            sizes.add(f)
    assert {0, 2, 3, 4} <= sizes  # the cases cover several failing sizes


def test_budget_expiry_is_inconclusive():
    outcome = find_good_permutation(SearchConfig(16, time_budget=0.2))
    assert outcome.found is None
    assert not outcome.exhausted


def test_parallel_branches_match_serial():
    for n in (4, 8, 12):
        serial = find_good_permutation(SearchConfig(n))
        parallel = find_good_permutation(SearchConfig(n, jobs=2))
        assert parallel.found == serial.found, n
        assert parallel.exhausted == serial.exhausted, n
        assert parallel.nodes_expanded == serial.nodes_expanded, n
        assert parallel.prune_counts == serial.prune_counts, n


def test_parallel_budget_is_global():
    # one deadline for the whole search, not one budget per worker
    start = time.monotonic()
    outcome = find_good_permutation(SearchConfig(16, time_budget=1.0, jobs=2))
    assert time.monotonic() - start < 4.0
    assert outcome.found is None
    assert not outcome.exhausted


def test_parallel_checkpoint_stops_at_first_find(tmp_path):
    path = tmp_path / "parallel.ckpt"
    first = find_good_permutation(SearchConfig(8, jobs=2, checkpoint_path=str(path)))
    assert first.found is not None
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["kind"] == "config"
    # the found line carries its branch's work, so the lines sum to the run's
    assert lines[-1] == {"kind": "found", "image": list(first.found.image),
                         "nodes": lines[-1]["nodes"], "prunes": lines[-1]["prunes"]}
    assert sum(l["nodes"] for l in lines[1:]) == first.nodes_expanded
    # one line per branch before the find, in order, and nothing after it
    middle = lines[1:-1]
    assert all(l["kind"] == "prefix_done" for l in middle)
    assert [l["prefix"] for l in middle] == [[v] for v in range(first.found.image[0])]
    resumed = find_good_permutation(SearchConfig(8, jobs=2, checkpoint_path=str(path)))
    assert resumed.found == first.found


def test_checkpoint_write_and_resume(tmp_path):
    path = tmp_path / "search.ckpt"
    first = find_good_permutation(SearchConfig(8, checkpoint_path=str(path)))
    assert first.found is not None
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    kinds = [l["kind"] for l in lines]
    assert kinds[0] == "config"
    assert kinds[-1] == "found"
    resumed = find_good_permutation(SearchConfig(8, checkpoint_path=str(path)))
    assert resumed.found == first.found


def test_checkpoint_resume_skips_completed_prefixes(tmp_path):
    path = tmp_path / "resume.ckpt"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "config", "modulus": 4, "order": "ascending",
                             "symmetry": False}) + "\n")
        # claim the first branch was already exhausted without a find
        fh.write(json.dumps({"kind": "prefix_done", "prefix": [0], "nodes": 99,
                             "prunes": {"2": 7}}) + "\n")
    outcome = find_good_permutation(SearchConfig(4, checkpoint_path=str(path)))
    # branch 0 not re-explored: its recorded node count is carried over
    assert outcome.found is not None
    assert outcome.found.image[0] != 0
    assert outcome.nodes_expanded >= 99
    assert outcome.prune_counts.get(2, 0) >= 7


def test_resume_after_find_reports_first_run_work(tmp_path):
    path = tmp_path / "found.ckpt"
    first = find_good_permutation(SearchConfig(9, checkpoint_path=str(path)))
    assert first.found is not None and first.prune_counts
    for _ in range(2):
        resumed = find_good_permutation(SearchConfig(9, checkpoint_path=str(path)))
        assert resumed.found == first.found
        assert resumed.nodes_expanded == first.nodes_expanded
        assert resumed.prune_counts == first.prune_counts


def test_truncated_checkpoint_line_resumes_cleanly(tmp_path):
    whole = find_good_permutation(SearchConfig(8))
    path = tmp_path / "cut.ckpt"
    find_good_permutation(SearchConfig(8, checkpoint_path=str(path)))
    lines = path.read_text().splitlines(keepends=True)
    last = lines[-1]
    for cut in (1, len(last) // 2, len(last) - 1):  # an interrupted last write
        path.write_text("".join(lines[:-1]) + last[:cut])
        resumed = find_good_permutation(SearchConfig(8, checkpoint_path=str(path)))
        assert resumed.found == whole.found, cut
        assert resumed.exhausted == whole.exhausted, cut
        assert resumed.nodes_expanded == whole.nodes_expanded, cut
        assert resumed.prune_counts == whole.prune_counts, cut
        # the partial line was cut off before the resume appended its own
        assert path.read_text() == "".join(lines), cut


def test_corrupt_checkpoint_is_refused(tmp_path, capsys):
    from fourier_minors.cli import main

    config = json.dumps({"kind": "config", "modulus": 8, "order": "ascending",
                         "symmetry": False}) + "\n"
    symmetric = json.dumps({"kind": "config", "modulus": 8, "order": "ascending",
                            "symmetry": True}) + "\n"
    done = json.dumps({"kind": "prefix_done", "prefix": [0], "nodes": 1,
                       "prunes": {}}) + "\n"

    def branch(prefix, nodes=1, prunes=None):
        return json.dumps({"kind": "prefix_done", "prefix": prefix, "nodes": nodes,
                           "prunes": prunes or {}}) + "\n"
    bodies = {
        "garbage": config + "garbage\n" + done,
        "partial middle line": config + done[:20] + "\n" + done,
        "unknown kind": config + json.dumps({"kind": "later"}) + "\n",
        "missing config": done,
        "not a permutation": config + json.dumps({"kind": "found",
                                                  "image": [0] * 8}) + "\n",
        "not good": config + json.dumps({"kind": "found",
                                         "image": list(range(8))}) + "\n",
        "prefix outside 0..N-1": config + branch([99], nodes=-5),
        "negative nodes": config + branch([1], nodes=-5),
        "negative prune count": config + branch([1], prunes={"2": -7}),
        "prune size above N": config + branch([1], prunes={"99": 1}),
        "prune size 0": config + branch([1], prunes={"0": 1}),
        "repeated branch": config + done + done,
        "prefix of two values": config + branch([0, 1]),
        "non-integer prefix": config + branch([True]),
        "branch outside --symmetry": symmetric + branch([3]),
    }
    for name, body in bodies.items():
        path = tmp_path / "corrupt.ckpt"
        path.write_text(body)
        argv = ["perm-search", "--n", "8", "--resume", str(path)]
        if body.startswith(symmetric):
            argv.append("--symmetry")
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert "precondition violated" in err and "Traceback" not in err, name
        assert path.read_text() == body, name


def test_checkpoint_config_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "config", "modulus": 5, "order": "ascending",
                             "symmetry": False}) + "\n")
    with pytest.raises(PreconditionError):
        find_good_permutation(SearchConfig(4, checkpoint_path=str(path)))


def test_search_config_validation():
    with pytest.raises(PreconditionError):
        SearchConfig(0)
    with pytest.raises(PreconditionError):
        SearchConfig(4, order="random")
    with pytest.raises(PreconditionError):
        SearchConfig(4, time_budget=0.0)
    with pytest.raises(PreconditionError):
        SearchConfig(4, jobs=0)
