import collections
import inspect
import json
import random
import time

import numpy as np
import pytest

from latticelab import zoo
from latticelab.atlas import enumerate_lattices
from latticelab.classify import classify
from latticelab.errors import (
    BoundExceededError,
    CycleError,
    DuplicatePairError,
    FormatError,
    InvalidCoverError,
    LatticeError,
    NotReducedError,
)
from latticelab.lattice import ideal_lattice, try_lattice
from latticelab.poset import (
    MAX_ELEMENTS,
    FinitePoset,
    _check_pairs,
    _check_size,
    _find_cycle,
    canonical_form,
    canonical_relabeling,
    canonicalize,
    is_isomorphic,
    poset_from_canonical,
    poset_from_covers,
    transitive_reduce,
)

HEXAGON_COVERS = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


def test_hexagon_poset_structure():
    p = poset_from_covers(6, HEXAGON_COVERS)
    assert p.n == 6
    assert p.covers == tuple(sorted(HEXAGON_COVERS))
    assert p.leq[0, 5] and p.leq[1, 3] and p.leq[1, 5]
    assert not p.leq[1, 2] and not p.leq[3, 4]
    assert p.leq[2, 2]


def test_single_point():
    p = poset_from_covers(1, [])
    assert p.n == 1 and p.covers == ()
    assert p.leq[0, 0]


def test_rejects_implied_pair():
    with pytest.raises(NotReducedError) as err:
        poset_from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert err.value.pair == (0, 2)
    assert err.value.path == (0, 1, 2)


def test_rejects_cycle():
    with pytest.raises(CycleError):
        poset_from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_find_cycle_walks_long_paths_without_recursion():
    n = 5000
    cycle, up = _find_cycle(n, [(i, i + 1) for i in range(n - 1)])
    assert cycle is None and up[0] == (1 << n) - 1 and up[n - 1] == 1 << (n - 1)
    # A back edge reached from a branch: the cycle starts where it closes.
    cycle, up = _find_cycle(5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)])
    assert cycle == [1, 2, 3, 1] and up is None
    n = 3000
    with pytest.raises(CycleError) as err:
        poset_from_covers(n, [(i, (i + 1) % n) for i in range(n)])
    assert err.value.path == tuple(range(n)) + (0,)


def test_rejects_duplicates_and_bad_pairs():
    with pytest.raises(DuplicatePairError):
        poset_from_covers(2, [(0, 1), (0, 1)])
    with pytest.raises(InvalidCoverError):
        poset_from_covers(2, [(0, 2)])
    with pytest.raises(InvalidCoverError):
        poset_from_covers(2, [(1, 1)])


def test_transitive_reduce_removes_implied():
    p = transitive_reduce(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == ((0, 1), (1, 2))


def test_transitive_reduce_already_reduced():
    assert transitive_reduce(2, [(0, 1)]).covers == ((0, 1),)


def test_transitive_reduce_full_chain_relation():
    pairs = [(a, b) for a in range(4) for b in range(4) if a < b]
    p = transitive_reduce(4, pairs)
    assert p.covers == ((0, 1), (1, 2), (2, 3))


def test_transitive_reduce_rejects_cycle():
    with pytest.raises(CycleError):
        transitive_reduce(2, [(0, 1), (1, 0)])


def test_covers_are_transitive_reduction_of_leq():
    for L in zoo.fixture_lattices().values():
        again = transitive_reduce(
            L.n, [(a, b) for a in range(L.n) for b in range(L.n)
                  if a != b and L.leq[a, b]]
        )
        assert again.covers == L.covers
        assert np.array_equal(again.leq, L.leq)


def test_levels_and_topological_order():
    p = poset_from_covers(6, HEXAGON_COVERS)
    assert p.levels == (0, 1, 1, 2, 2, 3)
    order = p.topological_order
    for a, b in p.covers:
        assert order.index(a) < order.index(b)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
def test_up_and_down_sets_are_the_rows_and_columns_of_leq(n):
    "Sizes around the byte and word boundaries, relabeled at random."
    rng = random.Random(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.1]
    perm = list(range(n))
    rng.shuffle(perm)
    p = transitive_reduce(n, pairs).relabel(perm)
    bits = lambda row: sum(1 << x for x in np.flatnonzero(row).tolist())
    assert p.up_sets == [bits(p.leq[x]) for x in range(n)]
    assert p.down_sets == [bits(p.leq[:, x]) for x in range(n)]


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(20240511)
    for name, L in zoo.fixture_lattices().items():
        base = canonical_form(L.poset)
        for _ in range(100):
            perm = list(range(L.n))
            rng.shuffle(perm)
            assert canonical_form(L.poset.relabel(perm)) == base, name


def test_canonical_form_separates_fixtures():
    fixtures = list(zoo.fixture_lattices().items())
    for i, (name1, L1) in enumerate(fixtures):
        for name2, L2 in fixtures[i + 1:]:
            assert canonical_form(L1.poset) != canonical_form(L2.poset), (
                name1, name2,
            )


def test_is_isomorphic_distinguishes_sizes():
    assert not is_isomorphic(zoo.m3().poset, zoo.hexagon().poset)


def test_nine_element_fixture_is_self_dual():
    # Confirmed by the explicit relabeling below, independent of forms.
    from latticelab.lattice import dual

    L = zoo.extremal_not_left_modular()
    d = dual(L)
    assert is_isomorphic(d.poset, L.poset)
    phi = [8, 5, 4, 7, 2, 1, 6, 3, 0]
    assert L.poset.relabel(phi) == d.poset


def test_canonical_form_roundtrip():
    for L in zoo.fixture_lattices().values():
        form = canonical_form(L.poset)
        back = poset_from_canonical(form)
        assert canonical_form(back) == form
        assert back == canonicalize(L.poset)


@pytest.mark.parametrize(
    "form",
    [
        b"\x00\x00\x00\x05",  # no body
        b"\x00\x00\x00",  # no full header
        bytes.fromhex("000000028000"),  # a trailing byte
        bytes.fromhex("0000000281"),  # a pad bit set
    ],
    ids=["no body", "short header", "trailing byte", "pad bit"],
)
def test_malformed_canonical_form_is_rejected(form):
    with pytest.raises(FormatError):
        poset_from_canonical(form)


def test_canonical_output_places_bottom_first():
    for L in zoo.fixture_lattices().values():
        q = canonicalize(L.poset)
        assert q.leq[0, :].all()


def test_canonical_relabeling_is_permutation():
    p = zoo.m3().poset
    perm = canonical_relabeling(p)
    assert sorted(perm) == list(range(p.n))


def test_relabel_identity_and_validation():
    p = poset_from_covers(3, [(0, 1), (1, 2)])
    assert p.relabel([0, 1, 2]) == p
    with pytest.raises(ValueError):
        p.relabel([0, 0, 1])


def test_element_count_is_bounded_before_allocation():
    cap = inspect.signature(ideal_lattice).parameters["cap"].default
    assert MAX_ELEMENTS == cap == 4096
    for n in (MAX_ELEMENTS + 1, 10**9, -3):
        with pytest.raises(BoundExceededError, match=f"element count {n}"):
            poset_from_covers(n, [(0, 1)])
        with pytest.raises(BoundExceededError, match=f"element count {n}"):
            transitive_reduce(n, [(0, 1)])
    for header in (b"\x00\x00\x10\x01", b"\xff\xff\xff\xff"):
        with pytest.raises(BoundExceededError, match="element count"):
            poset_from_canonical(header)
    assert poset_from_covers(0, []).n == 0


# ---------------------------------------------------------------------------
# Oracles: ingestion by a dense closure and a matrix-product cover check
# ---------------------------------------------------------------------------


def reference_find_cycle(n, pairs):
    "A cyclic path of the digraph of pairs, or None; the same walk order."
    succ = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    state = [0] * n  # 0 unseen, 1 on the path, 2 done
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        todo = [iter(succ[root])]
        while todo:
            for w in todo[-1]:
                if state[w] == 1:
                    return path[path.index(w):] + [w]
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    todo.append(iter(succ[w]))
                    break
            else:
                todo.pop()
                state[path.pop()] = 2
    return None


def reference_order(n, pair_set):
    """(leq, hasse): the closure by n outer products and the cover matrix
    as the strict order minus its square."""
    cycle = reference_find_cycle(n, pair_set)
    if cycle:
        raise CycleError(cycle)
    leq = np.eye(n, dtype=bool)
    for a, b in pair_set:
        leq[a, b] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    lt = leq & ~np.eye(n, dtype=bool)
    return leq, lt & ~np.matmul(lt, lt)


def reference_poset_from_covers(n, pairs):
    _check_size(n)
    pair_set = _check_pairs(n, pairs)
    leq, hasse = reference_order(n, pair_set)
    for a, b in sorted(pair_set):
        if not hasse[a, b]:
            mid = next(
                c for c in range(n) if a != c != b and leq[a, c] and leq[c, b]
            )
            raise NotReducedError((a, b), (a, mid, b))
    return FinitePoset(n, pair_set, leq)


def reference_transitive_reduce(n, pairs):
    _check_size(n)
    pair_set = {(a, b) for a, b in pairs}
    for pair in pair_set:
        a, b = pair
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise InvalidCoverError(f"pair {pair!r} invalid for n={n}")
    leq, hasse = reference_order(n, pair_set)
    pairs = [(int(a), int(b)) for a, b in zip(*np.nonzero(hasse))]
    return FinitePoset(n, pairs, leq)


def outcome(build, n, pairs):
    "(covers, leq bytes) of the poset built, or the error's type and message."
    try:
        p = build(n, pairs)
    except LatticeError as exc:
        return type(exc), str(exc)
    assert p.leq.shape == (n, n) and p.leq.dtype == bool
    return p.covers, p.leq.tobytes()


def assert_matches_references(n, pairs):
    "Both ingestion paths agree with their oracles; the strict outcome."
    assert outcome(transitive_reduce, n, pairs) == outcome(
        reference_transitive_reduce, n, pairs
    )
    strict = outcome(poset_from_covers, n, pairs)
    assert strict == outcome(reference_poset_from_covers, n, pairs)
    return strict[0] if isinstance(strict[0], type) else None


def random_pair_list(rng):
    """Pairs on n <= 9 elements, mostly a < b, with an occasional reversed
    pair, duplicate, self-loop or end out of range."""
    n = rng.randint(0, 9)
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        r = rng.random()
        if n < 2 or r < 0.01:
            pairs.append((rng.randint(-1, n), rng.randint(-1, n)))
        elif r < 0.015 and pairs:
            pairs.append(rng.choice(pairs))
        else:
            a, b = sorted(rng.sample(range(n), 2))
            pair = (b, a) if r < 0.06 else (a, b)
            if pair not in pairs:
                pairs.append(pair)
    return n, pairs


def test_ingestion_matches_references_on_small_lattices():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            covers = list(L.covers)
            assert outcome(poset_from_covers, n, covers) == outcome(
                reference_poset_from_covers, n, covers
            )
            order = [tuple(ab) for ab in np.argwhere(L.leq).tolist() if ab[0] != ab[1]]
            assert outcome(transitive_reduce, n, order) == outcome(
                reference_transitive_reduce, n, order
            ) == (L.covers, L.leq.tobytes())


def test_ingestion_matches_references_on_seeded_pair_lists():
    rng = random.Random(20261018)
    seen = collections.Counter(
        assert_matches_references(*random_pair_list(rng)) for _ in range(6000)
    )
    assert set(seen) == {
        None,
        NotReducedError,
        CycleError,
        DuplicatePairError,
        InvalidCoverError,
    }
    assert min(seen.values()) >= 50, seen


def test_ingestion_takes_numpy_integers():
    L = zoo.boolean(7)  # ends past bit 63 of a machine word
    order = list(zip(*np.nonzero(L.leq & ~np.eye(L.n, dtype=bool))))
    p = transitive_reduce(L.n, order)
    assert p.covers == L.covers and np.array_equal(p.leq, L.leq)
    assert {type(x) for pair in p.covers for x in pair} == {int}
    covers = [tuple(np.array(pair)) for pair in L.covers]
    q = poset_from_covers(L.n, covers)
    assert q.covers == L.covers and np.array_equal(q.leq, L.leq)
    assert {type(x) for pair in q.covers for x in pair} == {int}
    m3_covers = [tuple(pair) for pair in np.array(zoo.m3().covers)]
    m3 = try_lattice(poset_from_covers(5, m3_covers))
    assert {type(x) for pair in m3.covers for x in pair} == {int}
    json.dumps(classify(m3).as_json())
    with pytest.raises(NotReducedError) as err:
        poset_from_covers(L.n, covers + [(np.int64(0), np.int64(127))])
    assert err.value.pair == (0, 127) and err.value.path == (0, 1, 127)


def test_ingestion_scales_to_the_element_cap():
    B12 = zoo.boolean(12)
    start = time.perf_counter()
    p = poset_from_covers(B12.n, B12.covers)
    assert time.perf_counter() - start < 2.0
    assert p.covers == B12.covers and np.array_equal(p.leq, B12.leq)
    B11 = zoo.boolean(11)
    order = [(a, b) for a, b in np.argwhere(B11.leq).tolist() if a != b]
    assert len(order) == 3**11 - 2**11
    start = time.perf_counter()
    p = transitive_reduce(B11.n, order)
    assert time.perf_counter() - start < 3.0
    assert p.covers == B11.covers and np.array_equal(p.leq, B11.leq)
