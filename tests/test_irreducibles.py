import inspect
import sys

import numpy as np
import pytest

from latticelab import zoo
from latticelab.atlas import enumerate_lattices
from latticelab.errors import (
    LatticeError,
    NotACoverError,
    NotAMaximalChainError,
    NotJoinIrreducibleError,
)
from latticelab.irreducibles import (
    _cover_paths,
    canonical_join_rep,
    check_maximal_chain,
    gamma,
    is_perspective,
    join_irreducible_ids,
    join_irreducibles,
    kappa_data,
    length,
    maximal_chains,
    meet_irreducibles,
    perspectivity_witness_recursive,
    perspectivity_witness_scan,
)
from latticelab.lattice import _on_poset, dual, ideal_lattice, interval
from latticelab.poset import FinitePoset, poset_from_covers
from latticelab.properties import is_distributive, is_semidistributive


def fig1d():
    return ideal_lattice(zoo.vee_plus_isolated())


def orange_chain(L, ideals):
    index = {s: i for i, s in enumerate(ideals)}
    stages = [set(), {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}]
    return tuple(index[frozenset(s)] for s in stages)


def test_hexagon_has_four_join_irreducibles():
    L = zoo.hexagon()
    assert join_irreducible_ids(L) == [1, 2, 3, 4]
    assert length(L) == 3  # strictly below |J|: not join extremal


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_weak_order_counts_match_the_literature(k):
    """The weak order of S_k has k! elements and the length k(k-1)/2 of
    the longest permutation's inversion set.  Its join irreducibles are
    the permutations with exactly one descent, 2^k - k - 1 of them (the
    Eulerian number A(k, 1)), and it is self-dual, so it has as many meet
    irreducibles (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    2005, ch. 3).  It is semidistributive and, for k >= 3, not
    distributive."""
    L = zoo.weak_order(k)
    assert L.n == [1, 1, 2, 6, 24, 120, 720][k]
    assert length(L) == k * (k - 1) // 2
    assert len(join_irreducibles(L)) == len(meet_irreducibles(L)) == 2**k - k - 1
    assert is_semidistributive(L)[0] and not is_distributive(L)[0]


def test_ideal_lattice_irreducibles_are_principal_ideals():
    L, ideals = fig1d()
    principal = sorted(
        frozenset(x for x in range(4) if zoo.vee_plus_isolated().leq[x, g])
        for g in range(4)
    )
    assert sorted(ideals[j] for j in join_irreducible_ids(L)) == principal


def test_chain_irreducibles():
    L = zoo.chain(4)
    assert join_irreducible_ids(L) == [1, 2, 3, 4]
    assert meet_irreducibles(L) == [0, 1, 2, 3]


def test_m3_meet_irreducibles():
    assert meet_irreducibles(zoo.m3()) == [1, 2, 3]


def test_seven_element_fixture_irreducible_counts():
    L = zoo.left_modular_not_semidistributive()
    assert len(join_irreducible_ids(L)) == 3
    assert len(meet_irreducibles(L)) == 4


def test_hexagon_irreducible_counts_match():
    L = zoo.hexagon()
    assert len(meet_irreducibles(L)) == 4 == len(join_irreducible_ids(L))


def test_hexagon_chains():
    L = zoo.hexagon()
    assert list(maximal_chains(L)) == [(0, 1, 3, 5), (0, 2, 4, 5)]
    assert length(L) == 3


def test_ideal_lattice_length_and_orange_chain():
    L, ideals = fig1d()
    assert length(L) == 4
    chain = orange_chain(L, ideals)
    assert chain in set(maximal_chains(L))


def test_one_point_lattice_chains():
    L = zoo.chain(0)
    assert length(L) == 0
    assert list(maximal_chains(L)) == [(0,)]


def test_length_is_self_dual():
    for name, L in zoo.fixture_lattices().items():
        assert length(L) == length(dual(L)), name


def test_gamma_on_orange_chain_is_bijection():
    L, ideals = fig1d()
    chain = orange_chain(L, ideals)
    by_ideal = {ideals[j]: j for j in join_irreducible_ids(L)}
    values = [
        gamma(L, chain, by_ideal[frozenset(s)])
        for s in ({0}, {1}, {2}, {0, 1, 3})
    ]
    assert values == [1, 2, 3, 4]


def test_gamma_on_m3_is_not_injective():
    L = zoo.m3()
    assert [gamma(L, (0, 1, 4), j) for j in (1, 2, 3)] == [1, 2, 2]


def test_gamma_of_atom_is_first_covering_stage():
    L = zoo.pentagon()
    for chain in maximal_chains(L):
        for atom in L.atoms:
            s = gamma(L, chain, atom)
            assert L.leq[atom, chain[s]] and not L.leq[atom, chain[s - 1]]


def test_gamma_rejects_non_irreducible():
    L = zoo.m3()
    with pytest.raises(NotJoinIrreducibleError):
        gamma(L, (0, 1, 4), 4)
    with pytest.raises(NotAMaximalChainError):
        gamma(L, (0, 4), 1)


def test_check_maximal_chain_rejects_a_chain_off_the_ends():
    L = zoo.m3()
    assert check_maximal_chain(L, [0, 1, 4]) == (0, 1, 4)
    for chain in ((), (1, 4), (0, 1)):
        with pytest.raises(NotAMaximalChainError, match="does not run bottom to top"):
            check_maximal_chain(L, chain)


def test_hexagon_perspectivity_examples():
    L = zoo.hexagon()
    # bottom-left atom cover is perspective to the right coatom-top cover
    assert is_perspective(L, (0, 1), (4, 5))
    # the right atom-coatom cover is perspective only to itself
    for cover in L.covers:
        expected = cover == (2, 4)
        assert is_perspective(L, (2, 4), cover) == expected


def test_perspectivity_is_reflexive_and_symmetric():
    for L in (zoo.hexagon(), zoo.m3(), zoo.extremal_not_left_modular()):
        for c1 in L.covers:
            assert is_perspective(L, c1, c1)
            for c2 in L.covers:
                assert is_perspective(L, c1, c2) == is_perspective(L, c2, c1)


def test_is_perspective_rejects_non_cover():
    with pytest.raises(NotACoverError):
        is_perspective(zoo.hexagon(), (0, 5), (0, 1))


def test_hexagon_witness_for_top_cover():
    L = zoo.hexagon()
    valid = [
        ji.j
        for ji in join_irreducibles(L)
        if is_perspective(L, (4, 5), (ji.j_star, ji.j))
    ]
    assert valid == [1]
    assert perspectivity_witness_scan(L, (4, 5)).j == 1
    assert perspectivity_witness_recursive(L, (4, 5)).j == 1


def test_irreducible_cover_is_its_own_witness():
    for L in zoo.fixture_lattices().values():
        for ji in join_irreducibles(L):
            assert perspectivity_witness_scan(L, (ji.j_star, ji.j)) == ji


def test_nine_element_top_cover_witness():
    L = zoo.extremal_not_left_modular()
    for witness in (
        perspectivity_witness_scan(L, (7, 8)),
        perspectivity_witness_recursive(L, (7, 8)),
    ):
        assert is_perspective(L, (7, 8), (witness.j_star, witness.j))


def test_both_witness_implementations_verify_on_small_lattices():
    from latticelab.atlas import enumerate_lattices

    for n in range(1, 7):
        for L in enumerate_lattices(n):
            for cover in L.covers:
                scan = perspectivity_witness_scan(L, cover)
                descent = perspectivity_witness_recursive(L, cover)
                assert is_perspective(L, cover, (scan.j_star, scan.j))
                assert is_perspective(L, cover, (descent.j_star, descent.j))


def test_kappa_set_always_contains_j_star():
    for L in zoo.fixture_lattices().values():
        for j in join_irreducible_ids(L):
            kd = kappa_data(L, j)
            assert kd.j.j_star in kd.members
            assert kd.maximals
            assert kd.maximals <= kd.members


def test_kappa_on_m3():
    kd = kappa_data(zoo.m3(), 1)
    assert kd.members == frozenset({0, 2, 3})
    assert kd.maximals == frozenset({2, 3})
    assert kd.kappa is None


def test_kappa_maximals_are_meet_irreducible():
    for name, L in zoo.fixture_lattices().items():
        mi = set(meet_irreducibles(L))
        for j in join_irreducible_ids(L):
            assert kappa_data(L, j).maximals <= mi, name


def test_kappa_unique_maximal_reading_matches_join_reading():
    # The join of the blocking set lands inside it exactly when the set
    # has a unique maximal element, so the two definitions never diverge.
    from latticelab.atlas import enumerate_lattices

    for n in range(1, 7):
        for L in enumerate_lattices(n):
            for j in join_irreducible_ids(L):
                kd = kappa_data(L, j)
                join_k = L.join_all(kd.members)
                assert (kd.kappa is not None) == (join_k in kd.members)
                if kd.kappa is not None:
                    assert kd.kappa == join_k


def test_kappa_rejects_non_irreducible():
    with pytest.raises(NotJoinIrreducibleError):
        kappa_data(zoo.m3(), 4)


def test_canonical_join_rep_of_ideal_lattice_top():
    L, ideals = fig1d()
    rep = canonical_join_rep(L, L.top)
    assert rep is not None
    assert sorted(ideals[j] for j in rep) == sorted(
        [frozenset({2}), frozenset({0, 1, 3})]
    )


def test_canonical_join_rep_of_bottom_is_empty():
    for L in zoo.fixture_lattices().values():
        assert canonical_join_rep(L, L.bot) == ()


def test_m3_top_has_no_canonical_join_rep():
    assert canonical_join_rep(zoo.m3(), 4) is None


def test_join_irreducible_is_its_own_rep():
    for L in (zoo.hexagon(), zoo.pentagon()):
        for j in join_irreducible_ids(L):
            assert canonical_join_rep(L, j) == (j,)


def test_canonical_join_rep_is_an_antichain_joining_to_x():
    for L in zoo.fixture_lattices().values():
        for x in range(L.n):
            rep = canonical_join_rep(L, x)
            if rep is None:
                continue
            assert L.join_all(rep) == x
            for u in rep:
                for v in rep:
                    assert u == v or not L.leq[u, v]


def test_every_element_has_a_rep_exactly_in_jsd_lattices():
    from latticelab.atlas import enumerate_lattices
    from latticelab.properties import is_join_semidistributive

    for n in range(1, 9):
        for L in enumerate_lattices(n):
            total = all(
                canonical_join_rep(L, x) is not None for x in range(L.n)
            )
            assert total == is_join_semidistributive(L)[0], L.covers


def test_kappa_disjoint_on_join_semidistributive_fixtures():
    from latticelab.properties import is_join_semidistributive

    for name, L in zoo.fixture_lattices().items():
        if not is_join_semidistributive(L)[0]:
            continue
        irr = join_irreducible_ids(L)
        for i, j1 in enumerate(irr):
            for j2 in irr[i + 1:]:
                shared = kappa_data(L, j1).maximals & kappa_data(L, j2).maximals
                assert not shared, name


# ---------------------------------------------------------------------------
# The cover walks against the recursive walks they replaced
# ---------------------------------------------------------------------------


def reference_cover_paths(L, a, b):
    "The recursive walker that _cover_paths replaced, kept as its reference."
    out = []
    path = [a]

    def walk(v):
        if v == b:
            out.append(tuple(path))
            return
        for w in L.upper_covers[v]:
            if L.leq[w, b]:
                path.append(w)
                walk(w)
                path.pop()

    walk(a)
    return out


def reference_descend(L, a, b):
    "The recursive descent, building the interval [bot, b] at every level."
    if b != L.top:
        sub = interval(L, L.bot, b)
        local = {x: i for i, x in enumerate(sub.back_map)}
        return sub.back_map[reference_descend(sub.lattice, local[a], local[b])]
    if len(L.lower_covers[L.top]) == 1:
        return L.top
    c = next(x for x in L.coatoms if x != a)
    z = int(L.meet[a, c])
    d = next(
        x
        for x in L.upper_covers[z]
        if L.leq[x, c] and not L.leq[x, a]
    )
    sub = interval(L, L.bot, d)
    local = {x: i for i, x in enumerate(sub.back_map)}
    return sub.back_map[reference_descend(sub.lattice, local[z], local[d])]


@pytest.fixture(scope="module")
def lattices_up_to_eight():
    return [L for n in range(1, 9) for L in enumerate_lattices(n)]


def test_cover_paths_match_the_recursive_walker(lattices_up_to_eight):
    intervals = 0
    for L in lattices_up_to_eight:
        for a in range(L.n):
            for b in range(L.n):
                if L.leq[a, b]:
                    got = list(_cover_paths(L, a, b))
                    assert got == reference_cover_paths(L, a, b), (L, a, b)
                    intervals += 1
        assert list(maximal_chains(L)) == reference_cover_paths(L, L.bot, L.top)
    assert intervals == 8007


def test_maximal_chains_walk_a_long_chain_without_recursion():
    n = 1200
    ids = np.arange(n)
    L = _on_poset(
        FinitePoset(n, [(i, i + 1) for i in range(n - 1)], ids[:, None] <= ids),
        np.maximum.outer(ids, ids),
        np.minimum.outer(ids, ids),
        0,
        n - 1,
    )
    assert list(maximal_chains(L)) == [tuple(range(n))]


def test_witness_descent_matches_the_recursive_reference(lattices_up_to_eight):
    covers = 0
    for L in lattices_up_to_eight:
        for a, b in L.covers:
            j = reference_descend(L, a, b)
            ji = perspectivity_witness_recursive(L, (a, b))
            assert (ji.j, ji.j_star) == (j, L.lower_covers[j][0]), (L, a, b)
            covers += 1
    assert covers == 2669


def test_witness_descent_runs_without_recursion():
    # The 2 x 60 grid: down-sets of a point beside a 59-element chain.
    L, _ = ideal_lattice(
        poset_from_covers(60, [(i, i + 1) for i in range(1, 59)])
    )
    expected = {c: reference_descend(L, c, L.top) for c in L.coatoms}
    limit = sys.getrecursionlimit()
    # 30 frames above the caller's depth: too few for a recursive descent
    # through the 60 levels of the grid.
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        got = {
            c: perspectivity_witness_recursive(L, (c, L.top)).j
            for c in L.coatoms
        }
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


@pytest.mark.parametrize("x", [-1, -5, 5, 99])
def test_element_ids_outside_the_lattice_are_errors(x):
    L = zoo.pentagon()
    chain = next(maximal_chains(L))
    calls = (
        lambda: interval(L, x, L.top),
        lambda: interval(L, L.bot, x),
        lambda: gamma(L, chain, x),
        lambda: kappa_data(L, x),
        lambda: canonical_join_rep(L, x),
    )
    for call in calls:
        with pytest.raises(LatticeError, match=f"element id {x} is outside"):
            call()
