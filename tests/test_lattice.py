import json
import random

import numpy as np
import pytest

import latticelab.lattice
from latticelab import classify, zoo
from latticelab.atlas import enumerate_lattices
from latticelab.errors import (
    BoundExceededError,
    CapExceededError,
    LatticeError,
    NoBottom,
    NotALatticeError,
    NotComparableError,
    NoTop,
    NoUniqueJoin,
    NoUniqueMeet,
)
from latticelab.lattice import dual, ideal_lattice, interval, try_lattice
from latticelab.poset import (
    MAX_ELEMENTS,
    FinitePoset,
    canonical_form,
    canonicalize,
    is_isomorphic,
    poset_from_covers,
    transitive_reduce,
)

from conftest import random_ideal_posets


def reference_try_lattice(p):
    """try_lattice as the library computed it before: per-pair numpy ANDs
    of up-sets and down-sets, looked up in indexes of their bytes."""
    n = p.n
    leq = p.leq
    if n == 0:
        raise NoBottom("empty poset has no bottom")
    tops = [x for x in range(n) if leq[:, x].all()]
    if not tops:
        raise NoTop("no element above all others")
    bots = [x for x in range(n) if leq[x, :].all()]
    if not bots:
        raise NoBottom("no element below all others")

    def minimal(bounds):
        return [x for x in bounds if not any(leq[y, x] and y != x for y in bounds)]

    def maximal(bounds):
        return [x for x in bounds if not any(leq[x, y] and y != x for y in bounds)]

    up_index = {leq[x, :].tobytes(): x for x in range(n)}
    down_index = {leq[:, x].tobytes(): x for x in range(n)}
    join = np.zeros((n, n), dtype=np.int32)
    meet = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            common_up = leq[a, :] & leq[b, :]
            u = up_index.get(common_up.tobytes())
            if u is None:
                bounds = [x for x in range(n) if common_up[x]]
                raise NoUniqueJoin(a, b, minimal(bounds))
            join[a, b] = join[b, a] = u
            common_down = leq[:, a] & leq[:, b]
            m = down_index.get(common_down.tobytes())
            if m is None:
                bounds = [x for x in range(n) if common_down[x]]
                raise NoUniqueMeet(a, b, maximal(bounds))
            meet[a, b] = meet[b, a] = m
    return join, meet, bots[0], tops[0]


def reference_ideal_lattice(p):
    """ideal_lattice as the library computed it before: tables filled pair
    by pair from the unions and intersections of the ideals' bitmasks."""
    n = p.n
    seen = {0}
    frontier = [0]
    steps = []
    while frontier:
        mask = frontier.pop()
        for x in range(n):
            if mask >> x & 1 or any(not mask >> y & 1 for y in p.lower_covers[x]):
                continue
            new = mask | (1 << x)
            steps.append((mask, new))
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    leq = np.zeros((size, size), dtype=bool)
    join = np.zeros((size, size), dtype=np.int32)
    meet = np.zeros((size, size), dtype=np.int32)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            leq[i, j] = mi & mj == mi
            join[i, j] = index[mi | mj]
            meet[i, j] = index[mi & mj]
    covers = tuple(sorted((index[lo], index[hi]) for lo, hi in steps))
    ideals = tuple(
        frozenset(x for x in range(n) if m >> x & 1) for m in masks
    )
    return covers, leq, join, meet, ideals


def outcome(build, p):
    "What build(p) gives: its tables and bounds, or its error's details."
    try:
        result = build(p)
    except LatticeError as exc:
        return type(exc), str(exc), getattr(exc, "candidates", None)
    if not isinstance(result, tuple):
        result = (result.join, result.meet, result.bot, result.top)
    join, meet, bot, top = result
    return join.dtype, join.tolist(), meet.tolist(), bot, top


def random_poset(rng, max_n=9):
    """A seeded random poset on up to max_n + 2 elements, randomly labeled;
    most of them get a new bottom and top, so all four errors occur."""
    n = rng.randint(0, max_n)
    density = rng.random()
    pairs = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density
    ]
    if n and rng.random() < 0.7:
        pairs += [(n, x) for x in range(n)] + [(x, n + 1) for x in range(n + 1)]
        n += 2
    perm = list(range(n))
    rng.shuffle(perm)
    return transitive_reduce(n, [(perm[a], perm[b]) for a, b in pairs])


def test_try_lattice_matches_reference_on_every_lattice_up_to_8():
    rng = random.Random(5)
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for p in (L.poset, L.poset.relabel(perm)):
                assert outcome(try_lattice, p) == outcome(reference_try_lattice, p)


def test_try_lattice_matches_reference_on_random_posets():
    rng = random.Random(11)
    kinds = set()
    for _ in range(2000):
        p = random_poset(rng)
        got = outcome(try_lattice, p)
        assert got == outcome(reference_try_lattice, p), p
        kinds.add(got[0])
    assert {NoBottom, NoTop, NoUniqueJoin, NoUniqueMeet} < kinds


def test_try_lattice_matches_reference_in_tiny_blocks(monkeypatch):
    # Five cells a block: most blocks are one row, the last ones a few.
    monkeypatch.setattr(latticelab.lattice, "_BLOCK", 5)
    test_try_lattice_matches_reference_on_every_lattice_up_to_8()
    test_try_lattice_matches_reference_on_random_posets()


def glued(L, s):
    """L plus x, y, z with bot < x, y < s and x, y < z < top, for s neither
    bot nor top: x v y has the minimal upper bounds s and z, and z ^ t the
    maximal lower bounds x and y for every t >= s but the top."""
    x, y, z = range(L.n, L.n + 3)
    covers = list(L.covers) + [(L.bot, x), (L.bot, y), (x, s), (y, s)]
    covers += [(x, z), (y, z), (z, L.top)]
    return transitive_reduce(L.n + 3, covers)


def test_try_lattice_matches_reference_past_the_first_word(monkeypatch):
    """Lattices of 128-300 elements and non-lattices made from them, whose
    failing pairs have their bounds in the second or a later 64-bit word,
    in the default blocks and in one-row blocks.  Each is relabeled by
    v -> 63 - v mod n, which sends the glued x, y, z to 66, 65, 64 and so
    puts the first failing pair in row 64, and once at random."""
    rng = random.Random(16)
    B7, chain = zoo.boolean(7), zoo.chain(130)
    lattices = [B7.poset, chain.poset, zoo.chain(299).poset]
    non_lattices = [glued(B7, B7.coatoms[0]), glued(chain, 100)]
    for block in (latticelab.lattice._BLOCK, 5):
        monkeypatch.setattr(latticelab.lattice, "_BLOCK", block)
        for p in lattices + non_lattices:
            n = p.n
            mirror = p.relabel([(63 - v) % n for v in range(n)])
            if p in non_lattices:
                with pytest.raises(NotALatticeError) as err:
                    try_lattice(mirror)
                assert err.value.a == 64
            for q in (mirror, p.relabel(rng.sample(range(n), n))):
                assert outcome(try_lattice, q) == outcome(reference_try_lattice, q)


def test_hexagon_is_lattice():
    L = zoo.hexagon()
    assert (L.bot, L.top) == (0, 5)
    assert L.join[1, 2] == 5 and L.meet[3, 4] == 0


def test_a_lattice_is_its_own_poset():
    L = zoo.hexagon()
    built = [
        L,
        ideal_lattice(poset_from_covers(3, [(0, 1)]))[0],
        dual(L),
        interval(L, 0, 3).lattice,
        L.relabel([5, 3, 1, 0, 2, 4]),
    ]
    for M in built:
        assert isinstance(M, FinitePoset) and M.poset is M


def test_try_lattice_keeps_the_posets_memos(monkeypatch):
    import latticelab.poset as poset_module

    q = canonicalize(poset_from_covers(6, zoo.hexagon().covers))
    order = q.topological_order
    monkeypatch.setattr(poset_module, "_canonical_search", None)  # must not run
    L = try_lattice(q)
    assert canonical_form(L) == canonical_form(q)
    assert L.topological_order is order


def test_lattices_with_the_same_covers_are_equal():
    L = zoo.hexagon()
    p = FinitePoset(L.n, L.covers, L.leq)
    M = try_lattice(p)
    assert M is not L and M == L and hash(M) == hash(L)
    # A lattice is the poset it is, so it equals a bare poset with its covers.
    assert L == p and p == L and hash(L) == hash(p)
    assert L != L.relabel([1, 0, 2, 3, 4, 5])


def test_relabel_takes_numpy_integers_and_rejects_floats():
    """A numpy permutation gives Python int covers, bottom and top, so the
    record dumps to JSON; a float one is no permutation of ids."""
    M = zoo.m3().relabel(np.array([0, 2, 1, 3, 4]))
    assert {type(x) for pair in M.covers for x in pair} == {int}
    assert (type(M.bot), type(M.top)) == (int, int)
    assert M == zoo.m3().relabel([0, 2, 1, 3, 4])
    json.dumps(classify(M).as_json())
    for q in (zoo.m3(), zoo.m3().poset):
        with pytest.raises(TypeError):
            q.relabel([0.0, 2.0, 1.0, 3.0, 4.0])


def test_two_point_antichain_is_not_a_lattice():
    with pytest.raises((NoTop, NoUniqueJoin)):
        try_lattice(poset_from_covers(2, []))


def test_m3_is_lattice():
    L = zoo.m3()
    assert (L.bot, L.top) == (0, 4)
    assert L.join[1, 2] == 4 and L.meet[1, 2] == 0


def test_no_unique_join_witness():
    # two atoms under two incomparable upper bounds, then a common top
    p = poset_from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                              (3, 5), (4, 5)])
    with pytest.raises(NotALatticeError) as err:
        try_lattice(p)
    assert err.value.candidates == frozenset({3, 4})


def test_empty_poset_is_not_a_lattice():
    with pytest.raises((NoBottom, NoTop)):
        try_lattice(poset_from_covers(0, []))


def test_lattice_axioms_hold_exhaustively():
    for name, L in zoo.fixture_lattices().items():
        j, m, n = L.join, L.meet, L.n
        assert (j == j.T).all() and (m == m.T).all(), name
        assert all(j[x, x] == x and m[x, x] == x for x in range(n)), name
        for a in range(n):
            # absorption
            assert all(j[a, m[a, b]] == a for b in range(n)), name
            assert all(m[a, j[a, b]] == a for b in range(n)), name
            # associativity
            assert (j[j[a], :] == j[a, j]).all(), name
            assert (m[m[a], :] == m[a, m]).all(), name


def test_order_agrees_with_tables():
    for name, L in zoo.fixture_lattices().items():
        for a in range(L.n):
            for b in range(L.n):
                assert L.leq[a, b] == (L.join[a, b] == b) == (L.meet[a, b] == a), name


def test_join_is_least_upper_bound():
    for L in zoo.fixture_lattices().values():
        for a in range(L.n):
            for b in range(L.n):
                u = L.join[a, b]
                assert L.leq[a, u] and L.leq[b, u]
                for c in range(L.n):
                    if L.leq[a, c] and L.leq[b, c]:
                        assert L.leq[u, c]


def test_dual_is_involution():
    lattices = dict(zoo.fixture_lattices(), B7=zoo.boolean(7))
    for n in range(1, 8):
        lattices.update((f"n{n} #{i}", L) for i, L in enumerate(enumerate_lattices(n)))
    for name, L in lattices.items():
        D = dual(L)
        assert dual(D) == L, name
        assert D.bot == L.top and D.top == L.bot
        assert np.array_equal(D.join, L.meet)
        assert np.array_equal(D.leq, L.leq.T)


def test_dual_shares_the_read_only_tables():
    L = zoo.hexagon()
    D = dual(L)
    assert np.shares_memory(D.join, L.meet)
    assert np.shares_memory(D.meet, L.join)
    for table in (D.join, D.meet, L.join, L.meet):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_dual_m3_is_isomorphic_to_m3():
    assert is_isomorphic(dual(zoo.m3()).poset, zoo.m3().poset)


def test_dual_swaps_irreducibles():
    from latticelab.irreducibles import join_irreducible_ids, meet_irreducibles

    L = zoo.jsd_not_left_modular()
    assert len(meet_irreducibles(L)) == 5
    assert len(join_irreducible_ids(dual(L))) == 5
    assert sorted(join_irreducible_ids(dual(L))) == sorted(meet_irreducibles(L))


def test_full_interval_is_whole_lattice():
    L = zoo.hexagon()
    iv = interval(L, L.bot, L.top)
    assert iv.back_map == tuple(range(L.n))
    assert is_isomorphic(iv.lattice.poset, L.poset)


def test_one_point_interval():
    L = zoo.m3()
    iv = interval(L, 2, 2)
    assert iv.lattice.n == 1 and iv.back_map == (2,)


def test_hexagon_interval_is_chain():
    iv = interval(zoo.hexagon(), 0, 3)
    assert iv.back_map == (0, 1, 3)
    assert iv.lattice.covers == ((0, 1), (1, 2))


def test_interval_requires_comparable_endpoints():
    with pytest.raises(NotComparableError):
        interval(zoo.hexagon(), 1, 2)


def test_interval_tables_agree_with_ambient():
    L = zoo.extremal_not_left_modular()
    for a in range(L.n):
        for b in range(L.n):
            if not L.leq[a, b]:
                continue
            iv = interval(L, a, b)
            back = iv.back_map
            sub = iv.lattice
            for x in range(sub.n):
                for y in range(sub.n):
                    assert back[sub.join[x, y]] == L.join[back[x], back[y]]
                    assert back[sub.meet[x, y]] == L.meet[back[x], back[y]]


def test_ideal_lattice_of_vee_poset():
    L, ideals = ideal_lattice(zoo.vee_plus_isolated())
    assert L.n == 10
    assert ideals[0] == frozenset()
    assert ideals[-1] == frozenset({0, 1, 2, 3})


def test_ideal_lattice_of_antichain_is_boolean():
    for k in range(5):
        L, _ = ideal_lattice(zoo.antichain(k))
        assert L.n == 2 ** k


def test_ideal_lattice_of_chain_is_longer_chain():
    L, _ = ideal_lattice(poset_from_covers(3, [(0, 1), (1, 2)]))
    assert L.n == 4
    assert L.covers == ((0, 1), (1, 2), (2, 3))


def test_ideal_lattice_join_is_union():
    L, ideals = ideal_lattice(zoo.vee_plus_isolated())
    index = {s: i for i, s in enumerate(ideals)}
    for i, a in enumerate(ideals):
        for j, b in enumerate(ideals):
            assert L.join[i, j] == index[a | b]
            assert L.meet[i, j] == index[a & b]


def test_ideal_lattice_is_always_distributive():
    from latticelab.properties import is_distributive

    for p in (zoo.vee_plus_isolated(), zoo.antichain(3),
              zoo.hexagon().poset, zoo.m3().poset):
        L, _ = ideal_lattice(p)
        ok, violation = is_distributive(L)
        assert ok and violation is None


def test_ideal_lattice_cap():
    with pytest.raises(CapExceededError):
        ideal_lattice(zoo.antichain(13))
    # a custom cap bites earlier
    with pytest.raises(CapExceededError):
        ideal_lattice(zoo.antichain(4), cap=10)


def test_ideal_lattice_rejects_a_cap_outside_the_element_bound():
    # Checked before any ideal is listed: 2^20 of them would not fit.
    for cap in (-1, MAX_ELEMENTS + 1):
        with pytest.raises(BoundExceededError, match=f"ideal cap {cap} is outside"):
            ideal_lattice(zoo.antichain(20), cap)
    with pytest.raises(CapExceededError):
        ideal_lattice(zoo.antichain(1), cap=0)
    assert ideal_lattice(zoo.antichain(1), cap=2)[0].n == 2


def test_ideal_lattice_counts_the_empty_ideal_against_the_cap():
    for p in (zoo.antichain(0), zoo.antichain(3), zoo.chain(2).poset):
        with pytest.raises(CapExceededError):
            ideal_lattice(p, cap=0)
    L, ideals = ideal_lattice(zoo.antichain(0), cap=1)
    assert (L.n, ideals) == (1, (frozenset(),))


def test_ideal_lattice_covers_are_the_one_element_steps():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 6)
        pairs = [
            (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
        ]
        L, ideals = ideal_lattice(transitive_reduce(n, pairs))
        scan = tuple(
            (i, j)
            for i, lo in enumerate(ideals)
            for j, hi in enumerate(ideals)
            if lo < hi and len(hi - lo) == 1
        )
        assert L.covers == scan


def test_ideal_lattice_matches_reference():
    for p in random_ideal_posets(7, 8) + [zoo.antichain(k) for k in range(9)]:
        L, ideals = ideal_lattice(p)
        covers, leq, join, meet, ref_ideals = reference_ideal_lattice(p)
        assert L.covers == covers, p
        assert L.join.dtype == L.meet.dtype == np.int32
        assert np.array_equal(L.leq, leq), p
        assert np.array_equal(L.join, join), p
        assert np.array_equal(L.meet, meet), p
        assert ideals == ref_ideals, p
        assert (L.bot, L.top) == (0, L.n - 1)
