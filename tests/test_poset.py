import random

import numpy as np
import pytest

from latticelab import zoo
from latticelab.errors import (
    BoundExceededError,
    CycleError,
    DuplicatePairError,
    InvalidCoverError,
    NotReducedError,
)
from latticelab.lattice import DEFAULT_IDEAL_CAP
from latticelab.poset import (
    MAX_ELEMENTS,
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
    assert _find_cycle(n, [(i, i + 1) for i in range(n - 1)]) is None
    # A back edge reached from a branch: the cycle starts where it closes.
    assert _find_cycle(5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)]) == [1, 2, 3, 1]
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
    assert MAX_ELEMENTS == DEFAULT_IDEAL_CAP == 4096
    for n in (MAX_ELEMENTS + 1, 10**9, -3):
        with pytest.raises(BoundExceededError, match=f"element count {n}"):
            poset_from_covers(n, [(0, 1)])
        with pytest.raises(BoundExceededError, match=f"element count {n}"):
            transitive_reduce(n, [(0, 1)])
    assert poset_from_covers(0, []).n == 0
