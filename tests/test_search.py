import json
import time
from functools import lru_cache
from itertools import combinations, islice, permutations

import numpy as np
import pytest

from fourier_minors import (Permutation, PreconditionError, SearchConfig,
                            enumerate_good_permutations, find_good_permutation,
                            is_good_permutation, powerdet, ring_new)
from fourier_minors.minors import det_exact
from fourier_minors.search import ORDER_MOST_CONSTRAINED, _SearchState
from oracles import is_good_permutation as oracle_is_good

# No 2x2 minor of this N = 12 permutation vanishes; eight of size 6 do, and
# none smaller.
ONLY_LARGE_ZEROS = (8, 3, 1, 5, 9, 7, 11, 0, 4, 2, 6, 10)


def brute_force_images(n):
    return {img for img in permutations(range(n)) if is_good_permutation(n, img)}


def test_permutation_validation():
    assert Permutation.identity(4).image == (0, 1, 2, 3)
    assert Permutation(3, (2, 0, 1)).image[0] == 2
    with pytest.raises(ValueError):
        Permutation(3, (0, 1, 1))
    with pytest.raises(ValueError):
        Permutation(3, (0, 1))


def test_is_good_permutation_fixtures():
    assert is_good_permutation(5, range(5))       # prime modulus
    assert not is_good_permutation(4, range(4))   # {0,2} vanishes
    assert is_good_permutation(1, [0])
    with pytest.raises(PreconditionError):
        is_good_permutation(0, ())
    # the check reads a Permutation's own image, so its modulus must agree
    assert is_good_permutation(7, Permutation.identity(7))
    for modulus, size in ((5, 7), (4, 8), (8, 4)):
        with pytest.raises(PreconditionError):
            is_good_permutation(modulus, Permutation.identity(size))


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


def test_symmetry_reduction_agrees_with_brute_force_to_6():
    # the search walks only sigma(0) = 0 (the shift lemma): that tree holds a
    # good permutation exactly when the full one does, and the find lies in it
    for n in range(1, 7):
        brute = brute_force_images(n)
        assert any(img[0] == 0 for img in brute) == bool(brute), n
        outcome = find_good_permutation(SearchConfig(n))
        assert (outcome.found is not None) == bool(brute), n
        if outcome.found:
            assert outcome.found.image[0] == 0
            assert outcome.found.image in brute


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


def test_engine_never_sees_1x1_minors(monkeypatch):
    # a 1x1 minor is a power of w, and a 2x2 one is decided exactly by the
    # pair lemma; the search and the leaf check hand the engine neither
    import fourier_minors.powerdet as pd
    sizes = set()
    engine = pd.index_zero_flags

    def recording_confirm(n, rows, cols, screen=True):
        if not screen:
            sizes.add(rows.shape[1])
        return engine(n, rows, cols, screen)

    monkeypatch.setattr(pd, "index_zero_flags", recording_confirm)
    for order in ("ascending", ORDER_MOST_CONSTRAINED):
        outcome = find_good_permutation(SearchConfig(9, order=order))
        assert outcome.found is not None
    assert find_good_permutation(SearchConfig(12)).prune_counts == {2: 81, 4: 1, 6: 10}
    assert not is_good_permutation(12, ONLY_LARGE_ZEROS)
    assert is_good_permutation(1, (0,))
    assert sizes and min(sizes) >= 3


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
    # unity; goodness is invariant (the shift lemma the search rests on)
    for _ in range(60):
        n = rng.randrange(2, 9)
        image = list(range(n))
        rng.shuffle(image)
        good = is_good_permutation(n, tuple(image))
        c = rng.randrange(1, n)
        shifted = tuple((v + c) % n for v in image)
        assert is_good_permutation(n, shifted) == good, (n, image, c)


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
            cols = sorted(sigma[k] for k in rows)
            if det_exact(ring.modulus, [[k * l for l in cols] for k in rows]).is_zero():
                return r
    return 0


def _random_domain(rng, n, config):
    """(state, positions, pos, values, fail): a random assignment, pushed in
    random order, and one `_domain` call on a random set of free positions."""
    order = rng.sample(range(n), n)
    depth = rng.randrange(n)  # any set of assigned positions, at least one free
    assigned, image = order[:depth], rng.sample(range(n), depth)
    state = _SearchState(config)
    for k, v in zip(assigned, image):
        state._push(k, v)
    free = order[depth:]
    positions = sorted(rng.sample(free, rng.randrange(1, len(free) + 1)))
    pos, values, fail = state._domain(positions)
    assert pos in positions and fail.shape == values.shape
    assert values.tolist() == sorted(set(range(n)) - set(image))
    return state, positions, pos, values, fail


def _check_domain(state, positions, pos, values, fail, real_prime=True):
    """The failing sizes of a domain, whose every cell must equal
    `_oracle_fail`, and whose position must be the first of `positions`
    with the fewest values free of table zeros.  With `real_prime`, and
    when no minor on the assigned positions vanishes (as along every
    branch of the search), it must also be the first with the fewest
    values that no minor fails, by the oracle."""
    ring, assigned = ring_new(state.n), list(state.assigned)
    given = {a: int(state.img[a]) for a in assigned}

    def oracle(p):
        return [_oracle_fail(ring, {**given, p: v}, assigned, p) for v in values.tolist()]

    want = oracle(pos)
    assert fail.tolist() == want, (state.n, given, pos)
    free = [p for p in range(state.n) if p not in given]  # the rows of the top tables
    tables = state.stack[-1][[free.index(p) for p in positions]]
    clear = (tables != 0).all(axis=2).sum(axis=1).tolist()
    assert positions.index(pos) == clear.index(min(clear)), (state.n, given, positions)
    if real_prime and not any(_oracle_fail(ring, given, assigned[:i], a)
                              for i, a in enumerate(assigned)):
        passing = [oracle(p).count(0) for p in positions]
        assert positions.index(pos) == passing.index(min(passing)), (state.n, given)
    return set(want)


def test_domain_matches_exact_oracle(rng, monkeypatch):
    calls = []
    engine = powerdet.index_zero_flags

    def counting(n, rows, cols, screen=True):
        if not screen:
            calls.append(1)
        return engine(n, rows, cols, screen)

    monkeypatch.setattr(powerdet, "index_zero_flags", counting)
    sizes, widths = set(), set()
    for _ in range(100):
        n = rng.randrange(2, 10)
        calls.clear()
        state, positions, pos, values, fail = _random_domain(
            rng, n, SearchConfig(n, order=ORDER_MOST_CONSTRAINED))
        # one engine call per size, however many positions and values are free
        assert len(calls) <= len(state.assigned) + 1, (n, state.assigned, positions)
        sizes |= _check_domain(state, positions, pos, values, fail)
        widths.add(len(positions))
    assert {0, 2, 3, 4} <= sizes  # the cases cover several failing sizes
    assert max(widths) >= 5  # and domains of several positions at once


@pytest.mark.parametrize("n, assigned, image", [
    (9, (3, 1, 5, 0, 6, 7), (2, 8, 4, 1, 7, 6)),  # row 1 fails every value at size 2
    (8, (7, 6, 1, 0, 2), (1, 4, 5, 7, 6)),
    (9, (4, 6, 1, 7, 3), (4, 6, 5, 7, 0)),  # row 0 at sizes 2 and 3
])
def test_domain_confirms_only_the_row_it_returns(monkeypatch, n, assigned, image):
    # each node decides one row: the engine is handed minors on the position
    # `_domain` returns and assigned positions, and no other free position
    handed = _record_domain_engine_calls(monkeypatch)
    state = _SearchState(SearchConfig(n, order=ORDER_MOST_CONSTRAINED))
    for k, v in zip(assigned, image):
        state._push(k, v)
    free = [p for p in range(n) if p not in assigned]
    pos, values, fail = state._domain(free)
    _check_domain(state, free, pos, values, fail)
    assert handed
    for _, rows, _ in handed:
        assert all(set(minor) - set(assigned) == {pos} for minor in rows.tolist())


def test_pair_lemma_matches_leibniz_to_12(leibniz):
    # with one assigned position a, the domain of pos is the 2x2 lemma
    # alone: fail == 2 iff the minor on {a, pos} vanishes, by Leibniz
    for n in range(2, 13):
        for a in range(n):
            for sa in range(n):
                state = _SearchState(SearchConfig(n))
                state._push(a, sa)
                for pos in (pos for pos in range(n) if pos != a):
                    got, values, fail = state._domain([pos])
                    assert got == pos
                    rows = sorted((a, pos))
                    for v, f in zip(values.tolist(), fail.tolist()):
                        sigma = {a: sa, pos: v}
                        exps = [[k * sigma[l] for l in rows] for k in rows]
                        assert (f == 2) == leibniz(n, exps).is_zero(), (n, a, sa, pos, v)
                        assert f in (0, 2)


def _record_domain_engine_calls(monkeypatch):
    """A list that collects (modulus, rows, cols) of every confirmation call
    made from inside `_SearchState._domain`, not from the leaf check."""
    handed, active = [], []
    domain, engine = _SearchState._domain, powerdet.index_zero_flags

    def recording_domain(self, positions):
        active.append(positions)
        try:
            return domain(self, positions)
        finally:
            active.pop()

    def recording_engine(n, rows, cols, screen=True):
        if active and not screen:
            handed.append((n, rows.copy(), cols.copy()))
        return engine(n, rows, cols, screen)

    monkeypatch.setattr(_SearchState, "_domain", recording_domain)
    monkeypatch.setattr(powerdet, "index_zero_flags", recording_engine)
    return handed


def _zero_mod_p(n, rows, cols):
    """Whether each minor (w^(rows[b, i] * cols[b, j])) vanishes at the first
    prime with w -> zeta, computed directly by the engine's elimination."""
    return powerdet._evaluate(rows[:, :, None] * cols[:, None, :], n, 0, False)


def test_domain_hands_the_engine_sizes_3_and_up(monkeypatch):
    # the tables decide sizes 1 and 2 exactly; every engine call made from a
    # domain confirms table zeros of size >= 3.  N = 12's first find prunes
    # at sizes 4 and 6, so the engine is reached.
    handed = _record_domain_engine_calls(monkeypatch)
    screens = []
    evaluate = powerdet._evaluate

    def recording_evaluate(exps, n, index, values, ks=None):
        if ks is None:  # the one-prime screen at u = 1
            screens.append(len(exps))
        return evaluate(exps, n, index, values, ks)

    monkeypatch.setattr(powerdet, "_evaluate", recording_evaluate)
    outcome = find_good_permutation(SearchConfig(12))
    assert outcome.prune_counts == {2: 81, 4: 1, 6: 10}
    assert not screens  # table zeros are confirmed without a second screen
    sizes = {rows.shape[1] for _, rows, _ in handed}
    assert {4, 6} <= sizes and min(sizes) >= 3
    for n, rows, cols in handed:
        assert _zero_mod_p(n, rows, cols).all()


@pytest.fixture
def small_prime(monkeypatch):
    """A call that patches powerdet.field to the smallest primes p = 1
    (mod N), so that mod-p zeros which are not exact zeros, and tables that
    are 0 everywhere, are frequent."""
    from test_powerdet import _small_field
    small_field = lru_cache(maxsize=None)(_small_field)

    def patch():
        powerdet._root_powers.cache_clear()
        monkeypatch.setattr(powerdet, "field", lambda n, index=0: small_field(n, index))

    yield patch
    monkeypatch.undo()
    powerdet._root_powers.cache_clear()


def test_domain_with_small_prime_matches_exact_oracle(rng, monkeypatch, small_prime):
    pinned = {n: find_good_permutation(SearchConfig(n)) for n in (9, 10)}
    walk = _SearchState(SearchConfig(8, order=ORDER_MOST_CONSTRAINED))
    leaves = set(walk._descend(0, 0))
    small_prime()
    handed = _record_domain_engine_calls(monkeypatch)
    calls = len(handed)
    for _ in range(150):
        n = rng.randrange(2, 10)
        state, positions, pos, values, fail = _random_domain(rng, n, SearchConfig(n))
        assert len(handed) - calls <= len(state.assigned) + 1, (n, state.assigned, positions)
        calls = len(handed)
        # false zeros are frequent here, so the position taken may differ
        # from the oracle's fewest-passing row; its cells are still exact
        _check_domain(state, positions, pos, values, fail, real_prime=False)
    # a handed minor nonzero mod p came from a table that is 0 everywhere; one
    # zero mod p that the engine found nonzero was a false zero
    degenerate = false_zero = 0
    for n, rows, cols in handed:
        zero = _zero_mod_p(n, rows, cols)
        exact = powerdet.index_zero_flags(n, rows, cols)[0]
        degenerate += int((~zero).sum())
        false_zero += int((zero & ~exact).sum())
    assert degenerate and false_zero
    # ascending decides the same positions, so its search is unchanged
    for n, expected in pinned.items():
        outcome = find_good_permutation(SearchConfig(n))
        assert outcome.found == expected.found, n
        assert outcome.nodes_expanded == expected.nodes_expanded, n
        assert outcome.prune_counts == expected.prune_counts, n
    # most-constrained may take another position where a table zero is
    # false, but its verdicts are exact: the same leaves, a good first find
    walk = _SearchState(SearchConfig(8, order=ORDER_MOST_CONSTRAINED))
    assert set(walk._descend(0, 0)) == leaves
    outcome = find_good_permutation(SearchConfig(10, order=ORDER_MOST_CONSTRAINED))
    assert oracle_is_good(10, outcome.found.image)


@pytest.mark.parametrize("small", [False, True])
def test_table_entries_are_bordered_minors_mod_p(rng, small, small_prime):
    # D_S[r, v] = 0 iff the minor on S + {r} with sigma(r) = v vanishes mod
    # p, where no proper prefix of S (in assignment order) has a minor that
    # vanishes mod p; where one does, D_S is 0 everywhere
    if small:
        small_prime()
    for _ in range(60):
        n = rng.randrange(2, 9)
        positions = list(range(n))
        rng.shuffle(positions)
        depth = rng.randrange(n)
        assigned, image = positions[:depth], rng.sample(range(n), depth)
        state = _SearchState(SearchConfig(n))
        for k, v in zip(assigned, image):
            state._push(k, v)
        tables = state.stack[-1]
        free = [r for r in range(n) if r not in assigned]
        unused = [v for v in range(n) if v not in image]
        assert tables.shape == (len(free), len(unused), 2 ** depth)
        for mask in range(2 ** depth):
            members = [assigned[b] for b in range(depth) if mask >> b & 1]
            prefixes = [np.array([members[:k]]) for k in range(1, len(members))]
            rows = np.array([members + [r] for r in free for _ in unused])
            cols = state.img[rows]
            cols[:, -1] = unused * len(free)
            zero = _zero_mod_p(n, rows, cols).reshape(len(free), len(unused))
            if any(_zero_mod_p(n, k, state.img[k])[0] for k in prefixes):
                zero[:] = True
            assert np.array_equal(tables[:, :, mask] == 0, zero), (n, assigned, image, mask)


def test_leaf_check_matches_engine_oracle_to_7():
    # every permutation up to N = 7: the bordered sweep against the check
    # that decides each minor as its own engine determinant
    for n in range(1, 8):
        for image in permutations(range(n)):
            assert is_good_permutation(n, image) == oracle_is_good(n, image), image


def _leaf_cases(rng, n, count, good):
    """`count` random permutations of N, plus `good` leaves of the search
    (good by the sweep itself, so the oracle must confirm them) with a random
    value shift each."""
    cases = [tuple(rng.sample(range(n), n)) for _ in range(count)]
    leaves = list(islice(_SearchState(SearchConfig(n)).leaves(), 4 * good))
    for image in rng.sample(leaves, min(good, len(leaves))):
        c = rng.randrange(n)
        cases.append(tuple((v + c) % n for v in image))
    return cases


def _record_leaf_confirmations(monkeypatch):
    """(check, handed): the leaf check, patched so that the list `handed`
    collects (modulus, rows, cols) of every confirmation call made inside it."""
    from fourier_minors import search
    handed, active = [], []
    check, engine = search.is_good_permutation, powerdet.index_zero_flags

    def recording_check(modulus, sigma):
        active.append(modulus)
        try:
            return check(modulus, sigma)
        finally:
            active.pop()

    def recording_engine(n, rows, cols, screen=True):
        if active and not screen:
            handed.append((n, rows.copy(), cols.copy()))
        return engine(n, rows, cols, screen)

    monkeypatch.setattr(search, "is_good_permutation", recording_check)
    monkeypatch.setattr(powerdet, "index_zero_flags", recording_engine)
    return recording_check, handed


@pytest.mark.parametrize("n", range(8, 13))
def test_leaf_check_matches_engine_oracle(rng, n):
    verdicts = []
    for image in _leaf_cases(rng, n, 300, 40):
        verdicts.append(is_good_permutation(n, image))
        assert verdicts[-1] == oracle_is_good(n, image), image
    # every square submatrix of F_p is nonsingular (Chebotarev), so at prime
    # N = 11 every permutation is good
    assert len(verdicts) >= 300 and any(verdicts) and all(verdicts) == (n == 11)


def test_leaf_check_with_small_prime_matches_engine_oracle(rng, monkeypatch, small_prime):
    cases = {n: _leaf_cases(rng, n, 300, 20) for n in range(8, 13)}
    small_prime()
    check, handed = _record_leaf_confirmations(monkeypatch)
    for n, images in cases.items():
        verdicts = [check(n, image) for image in images]
        assert verdicts == [oracle_is_good(n, image) for image in images], n
        assert any(verdicts) and all(verdicts) == (n == 11), n
    # a handed minor nonzero mod p came from a table that is 0 everywhere; one
    # zero mod p that the engine found nonzero was a false zero
    by_shape = {}
    for n, rows, cols in handed:
        by_shape.setdefault((n, rows.shape[1]), []).append((rows, cols))
    assert min(r for _, r in by_shape) >= 3
    degenerate = false_zero = 0
    for (n, _), parts in by_shape.items():
        rows, cols = (np.concatenate(part) for part in zip(*parts))
        zero = _zero_mod_p(n, rows, cols)
        exact = powerdet.index_zero_flags(n, rows, cols)[0]
        degenerate += int((~zero).sum())
        false_zero += int((zero & ~exact).sum())
    assert degenerate and false_zero


@pytest.mark.parametrize("n, image, smallest", [
    (10, (2, 9, 3, 7, 0, 5, 6, 8, 4, 1), 4),
    (12, ONLY_LARGE_ZEROS, 6),
])
def test_leaf_check_finds_zeros_of_size_3_and_up(monkeypatch, n, image, smallest):
    # no 2x2 minor vanishes, so the verdict rests on the engine's
    # confirmations; the sweep stops at the first exact zero
    assert all((a - b) * (image[a] - image[b]) % n for a, b in combinations(range(n), 2))
    assert not oracle_is_good(n, image)
    check, handed = _record_leaf_confirmations(monkeypatch)
    assert not check(n, image)
    exact = [powerdet.index_zero_flags(n, rows, cols)[0] for _, rows, cols in handed]
    assert [flags.any() for flags in exact] == [False] * (len(exact) - 1) + [True]
    assert handed[-1][1].shape[1] == smallest


def test_leaf_check_in_tiny_blocks_matches_engine_oracle(rng, monkeypatch):
    # cutting the subset axis into blocks changes no verdict
    from fourier_minors import search
    monkeypatch.setattr(search, "_LEAF_BYTES", 4096)
    blocks = []
    sweep = search._leaf_sweep
    monkeypatch.setattr(search, "_leaf_sweep", lambda *args: blocks.append(1) or sweep(*args))
    for n in range(8, 13):
        for image in _leaf_cases(rng, n, 40, 10) + [tuple(range(n))]:
            assert is_good_permutation(n, image) == oracle_is_good(n, image), image
    assert not is_good_permutation(12, ONLY_LARGE_ZEROS)
    blocks.clear()
    assert is_good_permutation(13, tuple(range(13)))
    assert len(blocks) > 32  # N = 13 was swept in many blocks


@lru_cache(maxsize=None)
def _zero_walk(n, order):
    """(leaves, nodes, prunes) of the whole sigma(0) = 0 tree, each leaf
    checked by the bordered sweep."""
    state = _SearchState(SearchConfig(n, order=order))
    leaves = list(state._descend(0, 0))
    return leaves, state.nodes, dict(state.prunes)


@pytest.mark.parametrize("n, good, nodes, prunes", [
    (8, 288, 2421, {2: 934, 4: 192}),
    (9, 5184, 28252, {2: 9312}),
])
def test_first_value_zero_walks(n, good, nodes, prunes):
    leaves, walked, pruned = _zero_walk(n, "ascending")
    assert len(leaves) == good and leaves == sorted(set(leaves))
    assert walked == nodes and pruned == prunes
    if n == 8:
        # the most-constrained tree of N = 8 reaches the same leaves by
        # another route, choosing among every free row at each node
        leaves, walked, pruned = _zero_walk(n, ORDER_MOST_CONSTRAINED)
        assert set(leaves) == set(_zero_walk(n, "ascending")[0])
        assert walked == 1231 and pruned == {2: 187, 4: 128}


@pytest.mark.parametrize("n, good, nodes, prunes", [
    (9, 5184, 15386, {2: 998}),
    (10, 4340, 23577, {2: 6028, 4: 1752, 6: 768}),
])
def test_most_constrained_first_value_zero_walks(n, good, nodes, prunes):
    # every node decides one row, the first with the fewest values free of
    # table zeros, and reaches the good permutations the bordered sweep keeps
    leaves, walked, pruned = _zero_walk(n, ORDER_MOST_CONSTRAINED)
    assert len(leaves) == len(set(leaves)) == good
    if n == 9:
        assert set(leaves) == set(_zero_walk(n, "ascending")[0])
    assert walked == nodes and pruned == prunes


@pytest.mark.parametrize("n, order", [(8, "ascending"), (8, ORDER_MOST_CONSTRAINED),
                                      (9, ORDER_MOST_CONSTRAINED),
                                      (10, ORDER_MOST_CONSTRAINED)])
def test_interrupt_and_resume_at_every_unit_boundary(tmp_path, monkeypatch, n, order):
    # with every leaf rejected the search exhausts the sigma(0) = 0 tree:
    # the root plus its units count what one walk of the tree does, and a
    # run cut after any of its checkpoint lines resumes to the same totals
    # and the same lines (jobs = 1: spawned workers would not see the patch)
    from fourier_minors import search
    _, walked, pruned = _zero_walk(n, order)
    monkeypatch.setattr(search, "is_good_permutation", lambda modulus, sigma: False)
    path = tmp_path / "cut.ckpt"
    config = SearchConfig(n, order=order, checkpoint_path=str(path))
    fresh = find_good_permutation(config)
    assert fresh.found is None and fresh.exhausted
    assert fresh.nodes_expanded == walked + 1 and fresh.prune_counts == pruned
    lines = path.read_text().splitlines(keepends=True)
    assert [json.loads(l)["prefix"] for l in lines[1:]] == [[0, v] for v in range(1, n)]
    for cut in range(1, len(lines) + 1):
        path.write_text("".join(lines[:cut]))
        resumed = find_good_permutation(config)
        assert resumed.found is None and resumed.exhausted, cut
        assert resumed.nodes_expanded == fresh.nodes_expanded, cut
        assert resumed.prune_counts == fresh.prune_counts, cut
        assert path.read_text() == "".join(lines), cut


def test_tables_carried_through_the_search_equal_replayed(monkeypatch):
    # the stack pushed in _descend, and popped on backtrack, holds the tables
    # a fresh replay of the assignment builds, at every domain and after
    # every return
    checks = []
    domain, descend = _SearchState._domain, _SearchState._descend

    def check(state):
        assert len(state.stack) == len(state.assigned) + 1
        assert (state.img >= 0).sum() == len(state.assigned)
        replay = _SearchState(state.config)
        for a in state.assigned:
            replay._push(a, int(state.img[a]))
        assert np.array_equal(state.stack[-1], replay.stack[-1])
        checks.append(len(state.assigned))

    def checking_domain(self, positions):
        check(self)
        return domain(self, positions)

    def checking_descend(self, pos, value):
        yield from descend(self, pos, value)
        check(self)

    monkeypatch.setattr(_SearchState, "_domain", checking_domain)
    monkeypatch.setattr(_SearchState, "_descend", checking_descend)
    for n, order in ((8, "ascending"), (10, ORDER_MOST_CONSTRAINED), (12, "ascending")):
        assert find_good_permutation(SearchConfig(n, order=order)).found is not None
    # a check at a shallower depth than the one before it follows a backtrack
    assert sum(b < a for a, b in zip(checks, checks[1:])) > 10


@pytest.mark.parametrize("n, order, nodes, prunes, found", [
    (9, "ascending", 12, {2: 3}, (0, 1, 2, 4, 3, 6, 5, 8, 7)),
    (10, "ascending", 10, {}, tuple(range(10))),
    (10, ORDER_MOST_CONSTRAINED, 14, {2: 3, 4: 1}, (0, 2, 4, 8, 6, 1, 3, 9, 7, 5)),
    (11, "ascending", 11, {}, tuple(range(11))),
    (12, "ascending", 124, {2: 81, 4: 1, 6: 10}, (0, 1, 2, 3, 7, 11, 9, 10, 5, 6, 4, 8)),
    (12, ORDER_MOST_CONSTRAINED, 21, {2: 8, 4: 1}, (0, 6, 2, 10, 4, 7, 1, 9, 5, 11, 3, 8)),
    # one node per position: the first branch completes without backtracking,
    # so the domains along it decided every principal minor
    (5, "ascending", 5, {}, tuple(range(5))),
    (6, "ascending", 6, {}, tuple(range(6))),
    (7, "ascending", 7, {}, tuple(range(7))),
])
def test_first_find_node_and_prune_counts(n, order, nodes, prunes, found):
    # pinned first finds: the engine's batching must not move a count
    outcome = find_good_permutation(SearchConfig(n, order=order))
    assert outcome.found.image == found
    assert outcome.nodes_expanded == nodes
    assert outcome.prune_counts == prunes


def test_budget_expiry_is_inconclusive():
    outcome = find_good_permutation(SearchConfig(16, time_budget=0.2))
    assert outcome.found is None
    assert not outcome.exhausted


def test_parallel_units_match_serial():
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


def _config_line(n, order="ascending"):
    return json.dumps({"kind": "config", "modulus": n, "order": order}) + "\n"


def _unit_line(prefix, nodes=1, prunes=None):
    return json.dumps({"kind": "prefix_done", "prefix": prefix, "nodes": nodes,
                       "prunes": prunes or {}}) + "\n"


def test_parallel_checkpoint_stops_at_first_find(tmp_path):
    # most-constrained decides position 4 of N = 8 below the root; its odd
    # values hold finds and its even ones prune at size 2.  With units 1 and
    # 3 marked done, two workers take units 2, 4, 5, ... and the lines
    # written are a serial run's
    head = _config_line(8, ORDER_MOST_CONSTRAINED) + "".join(
        _unit_line([0, v], nodes=0) for v in (1, 3))
    runs, texts = {}, {}
    for jobs in (1, 2):
        path = tmp_path / f"jobs{jobs}.ckpt"
        path.write_text(head)
        config = SearchConfig(8, order=ORDER_MOST_CONSTRAINED, jobs=jobs,
                              checkpoint_path=str(path))
        runs[jobs] = find_good_permutation(config)
        texts[jobs] = path.read_text()
    first = runs[2]
    assert first.found is not None and first.found.image[4] == 5
    assert (first.found, first.nodes_expanded, first.prune_counts) == (
        runs[1].found, runs[1].nodes_expanded, runs[1].prune_counts)
    assert texts[2] == texts[1]
    lines = [json.loads(l) for l in texts[2].splitlines()]
    # the found line carries its unit's work, so the lines and the root sum
    # to the run's
    assert lines[-1] == {"kind": "found", "image": list(first.found.image),
                         "nodes": lines[-1]["nodes"], "prunes": lines[-1]["prunes"]}
    assert sum(l["nodes"] for l in lines[1:]) + 1 == first.nodes_expanded
    # one line per unit before the find, in order, and nothing after it
    assert lines[3:-1] == [json.loads(_unit_line([0, v], prunes={"2": 1})) for v in (2, 4)]
    resumed = find_good_permutation(config)
    assert resumed.found == first.found
    assert resumed.nodes_expanded == first.nodes_expanded


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
    # claim the first unit (sigma(1) = 1) was already exhausted without a find
    path.write_text(_config_line(4) + _unit_line([0, 1], nodes=99, prunes={"2": 7}))
    outcome = find_good_permutation(SearchConfig(4, checkpoint_path=str(path)))
    # unit 1 not re-explored: its recorded node count is carried over
    assert outcome.found is not None
    assert outcome.found.image[:2] != (0, 1)
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


def test_each_find_is_verified_once(tmp_path, monkeypatch):
    # a fresh find is checked in full at its leaf only; a find read back from
    # a checkpoint is checked once, before it is reported
    from fourier_minors import search

    calls = []

    def counting(modulus, sigma):
        calls.append(tuple(sigma))
        return is_good_permutation(modulus, sigma)

    monkeypatch.setattr(search, "is_good_permutation", counting)
    for n in (9, 10, 11, 12):
        path = tmp_path / f"n{n}.ckpt"
        calls.clear()
        fresh = find_good_permutation(SearchConfig(n, checkpoint_path=str(path)))
        assert calls == [fresh.found.image], n
        calls.clear()
        resumed = find_good_permutation(SearchConfig(n, checkpoint_path=str(path)))
        assert resumed.found == fresh.found and calls == [fresh.found.image], n


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

    config, done = _config_line(8), _unit_line([0, 1])
    # the N-branch format before units: a `symmetry` key, one-value prefixes
    old = {"kind": "config", "modulus": 8, "order": "ascending"}
    symmetric = json.dumps({**old, "symmetry": True}) + "\n"
    bodies = {
        "garbage": config + "garbage\n" + done,
        "partial middle line": config + done[:20] + "\n" + done,
        "unknown kind": config + json.dumps({"kind": "later"}) + "\n",
        "missing config": done,
        "not a permutation": config + json.dumps({"kind": "found",
                                                  "image": [0] * 8}) + "\n",
        "not good": config + json.dumps({"kind": "found",
                                         "image": list(range(8))}) + "\n",
        "unit outside 1..N-1": config + _unit_line([0, 99], nodes=-5),
        "unit 0": config + _unit_line([0, 0]),
        "negative nodes": config + _unit_line([0, 1], nodes=-5),
        "negative prune count": config + _unit_line([0, 1], prunes={"2": -7}),
        "prune size above N": config + _unit_line([0, 1], prunes={"99": 1}),
        "prune size 0": config + _unit_line([0, 1], prunes={"0": 1}),
        "repeated unit": config + done + done,
        "prefix off the root": config + _unit_line([1, 2]),
        "prefix of three values": config + _unit_line([0, 1, 2]),
        "non-integer prefix": config + _unit_line([0, True]),
        "non-integer root": config + _unit_line([False, 1]),
        "old config": json.dumps({**old, "symmetry": False}) + "\n",
        "old symmetric config": symmetric + _unit_line([0]),
        "old branch line": config + _unit_line([3]),
        "old line, then an interrupted write": symmetric + _unit_line([0])[:30],
    }
    for name, body in bodies.items():
        path = tmp_path / "corrupt.ckpt"
        path.write_text(body)
        assert main(["perm-search", "--n", "8", "--resume", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert "precondition violated" in err and "Traceback" not in err, name
        assert path.read_text() == body, name


def test_checkpoint_config_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    with open(path, "w") as fh:
        fh.write(_config_line(5))
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
