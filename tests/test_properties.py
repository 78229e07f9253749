import inspect
import random
import sys
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from latticelab import zoo
from latticelab.atlas import enumerate_lattices
from latticelab.classify import FLAG_NAMES, classify
from latticelab.irreducibles import (
    join_irreducible_ids,
    length,
    maximal_chains,
    meet_irreducibles,
)
from latticelab.lattice import dual, ideal_lattice, try_lattice
from latticelab.poset import transitive_reduce
from latticelab.properties import (
    Violation,
    is_distributive,
    is_join_semidistributive,
    is_meet_semidistributive,
    is_semidistributive,
    left_modular_chain,
    left_modular_elements,
)


def _first_violation(kind, a, bad):
    b, c = map(int, np.argwhere(bad)[0])
    return Violation(kind, (a, b, c))


def reference_is_distributive(L):
    """is_distributive as the library computed it before: both
    distributive laws over all triples, for each a in turn
    (a x b) y (a x c) = a x (b y c) with (x, y) = (join, meet), then with
    (meet, join); the first failing triple in that order."""
    join, meet = L.join, L.meet
    for a in range(L.n):
        for x, y in ((join, meet), (meet, join)):
            bad = y[np.ix_(x[a], x[a])] != x[a][y]
            if bad.any():
                return False, _first_violation("distributive", a, bad)
    return True, None


def reference_left_modular_element_violation(L, a):
    "First pair b < c with (b v a) ^ c != b v (a ^ c), over all pairs."
    strict = L.leq & ~np.eye(L.n, dtype=bool)
    lhs = L.meet[L.join[:, a]]
    rhs = L.join[:, L.meet[a]]
    bad = strict & (lhs != rhs)
    if bad.any():
        return _first_violation("left_modular", a, bad)
    return None


def reference_left_modular_elements(L):
    return [
        a
        for a in range(L.n)
        if reference_left_modular_element_violation(L, a) is None
    ]


def reference_semidistributive(kind, x, y):
    """The semidistributive laws as the library decided them before: for
    each a in turn, a x b = a x c forcing a x b = a x (b y c) over every
    pair (b, c); the first failing triple in that order."""
    for a in range(len(x)):
        row = x[a]
        bad = (row[:, None] == row[None, :]) & (row[y] != row[:, None])
        if bad.any():
            return False, _first_violation(kind, a, bad)
    return True, None


def assert_matches_references(L):
    assert is_distributive(L) == reference_is_distributive(L), L
    assert is_join_semidistributive(L) == reference_semidistributive(
        "join_semidistributive", L.join, L.meet
    ), L
    assert is_meet_semidistributive(L) == reference_semidistributive(
        "meet_semidistributive", L.meet, L.join
    ), L
    assert left_modular_elements(L) == reference_left_modular_elements(L), L


def test_deciders_match_references_on_every_lattice_up_to_8_and_duals():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            assert_matches_references(L)
            assert_matches_references(dual(L))


def test_deciders_match_references_on_large_families(large_lattices):
    distributive, semidistributive = {}, {}
    for name, L in large_lattices.items():
        assert_matches_references(L)
        distributive[name] = is_distributive(L)[0]
        semidistributive[name] = is_semidistributive(L)[0]
    # Chains, Boolean and ideal lattices are distributive; partition
    # lattices of 3 or more points, the weak order of S5 and M3 on a chain
    # are not.  The weak order is semidistributive all the same.
    not_distributive = ["partitions4", "partitions5", "partitions6", "weak5",
                        "m3_on_chain99"]
    assert [name for name, ok in distributive.items() if not ok] == (
        not_distributive + [f"dual_{name}" for name in not_distributive]
    )
    not_sd = ["partitions4", "partitions5", "partitions6", "m3_on_chain99"]
    assert [name for name, ok in semidistributive.items() if not ok] == (
        not_sd + [f"dual_{name}" for name in not_sd]
    )


def test_the_first_failing_element_of_m3_on_a_chain_comes_late(large_lattices):
    # The fiber test must run past the first ten elements to find it.
    for name in ("m3_on_chain99", "dual_m3_on_chain99"):
        L = large_lattices[name]
        for decide in (is_join_semidistributive, is_meet_semidistributive):
            ok, violation = decide(L)
            assert not ok and violation.elements[0] >= 10, (name, violation)


def test_distributivity_and_left_modularity_scale_to_b10():
    L = zoo.boolean(10)
    for decide in (is_distributive, left_modular_elements):
        start = time.perf_counter()
        result = decide(L)
        assert time.perf_counter() - start < 3, decide.__name__
    assert is_distributive(L) == (True, None)
    assert result == list(range(L.n))


def test_classify_b10_within_three_seconds():
    L = zoo.boolean(10)
    for decide in (is_join_semidistributive, is_meet_semidistributive):
        start = time.perf_counter()
        assert decide(L) == (True, None)
        assert time.perf_counter() - start < 1, decide.__name__
    start = time.perf_counter()
    record = classify(zoo.boolean(10))
    assert time.perf_counter() - start < 3
    assert record.semidistributive and record.el_shellable == "yes"


def test_a_thousand_element_chain_is_left_modular_throughout():
    L = zoo.chain(999)
    assert left_modular_elements(L) == list(range(1000))


def test_classify_tests_each_element_for_left_modularity_once(monkeypatch):
    import latticelab.properties as properties

    calls = []
    decide = properties.left_modular_elements
    monkeypatch.setattr(
        properties,
        "left_modular_elements",
        lambda L: calls.append(decide(L)) or calls[-1],
    )
    for L in (zoo.chain(30), zoo.boolean(3), zoo.m3()):
        calls.clear()
        record = classify(L)
        assert record.left_modular and record.el_shellable == "yes"
        assert calls == [list(range(L.n))]


def test_left_modular_elements_match_the_reference_in_tiny_blocks(monkeypatch):
    import latticelab.lattice

    # Five cells a block: one element a block, or a few on few covers.
    monkeypatch.setattr(latticelab.lattice, "_BLOCK", 5)
    for n in range(1, 8):
        for L in enumerate_lattices(n):
            for M in (L, dual(L)):
                assert left_modular_elements(M) == reference_left_modular_elements(M)


def test_ideal_lattice_is_distributive():
    L, _ = ideal_lattice(zoo.vee_plus_isolated())
    ok, violation = is_distributive(L)
    assert ok and violation is None


def test_m3_is_not_distributive():
    ok, violation = is_distributive(zoo.m3())
    assert not ok
    a, b, c = violation.elements
    L = zoo.m3()
    assert L.meet[L.join[a, b], L.join[a, c]] != L.join[a, L.meet[b, c]]


def test_chains_are_distributive():
    for k in range(5):
        assert is_distributive(zoo.chain(k))[0]


def test_hexagon_left_modular_elements():
    assert left_modular_elements(zoo.hexagon()) == [0, 5]


def test_m3_left_modular_elements():
    assert left_modular_elements(zoo.m3()) == [0, 1, 2, 3, 4]


def test_bottom_and_top_are_always_left_modular():
    for name, L in zoo.fixture_lattices().items():
        lm = left_modular_elements(L)
        assert L.bot in lm and L.top in lm, name


def test_m3_left_modular_chain():
    assert left_modular_chain(zoo.m3()) == (0, 1, 4)


def test_eight_element_fixture_has_no_left_modular_chain():
    assert left_modular_chain(zoo.jsd_not_left_modular()) is None


def test_seven_element_fixture_left_modular_chain():
    chain = left_modular_chain(zoo.left_modular_not_semidistributive())
    assert chain == (0, 2, 4, 6)
    assert len(chain) - 1 == 3


def lattices_and_duals_up_to_8():
    return [M for n in range(1, 9) for L in enumerate_lattices(n) for M in (L, dual(L))]


def test_left_modular_chain_is_lexicographically_least():
    named = list(zoo.fixture_lattices().items())
    named += [(L.covers, L) for L in lattices_and_duals_up_to_8()]
    for name, L in named:
        lm = set(left_modular_elements(L))
        k = length(L)
        qualifying = [
            c
            for c in maximal_chains(L)
            if len(c) - 1 == k and all(x in lm for x in c)
        ]
        expected = min(qualifying) if qualifying else None
        assert left_modular_chain(L) == expected, name


def test_every_maximal_chain_of_left_modular_elements_is_a_longest_one():
    "The lemma of the left_modular_chain docstring."
    found = 0
    for L in lattices_and_duals_up_to_8():
        lm = set(left_modular_elements(L))
        for c in maximal_chains(L):
            if lm.issuperset(c):
                assert len(c) - 1 == length(L), (L, c)
                found += 1
    assert found == 1086


def test_left_modular_chain_walks_long_chains_without_recursion():
    L = zoo.chain(299)
    limit = sys.getrecursionlimit()
    # 100 frames above the caller's depth: far too few for a recursive
    # walk up 300 covers.
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        chain = left_modular_chain(L)
    finally:
        sys.setrecursionlimit(limit)
    assert chain == tuple(range(300))


def test_hexagon_is_join_semidistributive():
    ok, violation = is_join_semidistributive(zoo.hexagon())
    assert ok and violation is None


def test_m3_join_semidistributive_violation():
    L = zoo.m3()
    ok, violation = is_join_semidistributive(L)
    assert not ok
    a, b, c = violation.elements
    assert (a, b, c) == (1, 2, 3)
    assert L.join[a, b] == L.join[a, c] == 4
    assert L.join[a, L.meet[b, c]] == a


def test_eight_element_fixture_is_join_semidistributive():
    assert is_join_semidistributive(zoo.jsd_not_left_modular())[0]


def test_seven_element_fixture_meet_semidistributive_violation():
    L = zoo.left_modular_not_semidistributive()
    ok, violation = is_meet_semidistributive(L)
    assert not ok
    a, b, c = violation.elements
    assert L.meet[a, b] == L.meet[a, c]
    assert L.meet[a, L.join[b, c]] != L.meet[a, b]


def test_semidistributive_laws_are_dual_on_every_lattice_up_to_8():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            flag, v = is_meet_semidistributive(L)
            dual_flag, dual_v = is_join_semidistributive(dual(L))
            assert flag == dual_flag
            assert (v and v.elements) == (dual_v and dual_v.elements)
            if v:
                assert (v.kind, dual_v.kind) == (
                    "meet_semidistributive",
                    "join_semidistributive",
                )


def test_distributivity_agrees_with_the_dual_on_every_lattice_up_to_8():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            assert is_distributive(L)[0] == is_distributive(dual(L))[0]


def test_classify_survives_relabeling_up_to_7():
    rng = random.Random(29)
    for n in range(1, 8):
        for L in enumerate_lattices(n):
            perm = list(range(n))
            rng.shuffle(perm)
            want, got = classify(L), classify(L.relabel(perm))
            for name in FLAG_NAMES + (
                "length", "num_join_irreducibles", "num_meet_irreducibles",
            ):
                assert getattr(got, name) == getattr(want, name), (L, perm, name)


def test_is_semidistributive_combines_both_laws():
    assert is_semidistributive(zoo.hexagon())[0]
    assert not is_semidistributive(zoo.m3())[0]


CAPTION_FLAGS = {
    # name: (jsd, join_extremal, left_modular, semidistributive, extremal)
    "hexagon": (True, False, False, True, False),
    "m3": (False, False, True, False, False),
    "extremal_not_left_modular": (False, True, False, False, True),
    "left_modular_not_semidistributive": (True, True, True, False, False),
    "jsd_not_left_modular": (True, True, False, False, False),
}


def test_classify_reproduces_fixture_captions():
    fixtures = zoo.fixture_lattices()
    for name, flags in CAPTION_FLAGS.items():
        record = classify(fixtures[name])
        got = (
            record.join_semidistributive,
            record.join_extremal,
            record.left_modular,
            record.semidistributive,
            record.extremal,
        )
        assert got == flags, (name, got)


def test_classify_nine_element_fixture():
    record = classify(zoo.extremal_not_left_modular())
    assert record.join_extremal
    assert not record.left_modular
    assert not record.join_semidistributive


def test_classify_seven_element_fixture():
    record = classify(zoo.left_modular_not_semidistributive())
    assert record.join_semidistributive
    assert record.join_extremal
    assert record.left_modular
    assert not record.semidistributive


def test_classify_ideal_lattice_all_flags_true():
    L, _ = ideal_lattice(zoo.vee_plus_isolated())
    record = classify(L)
    assert record.distributive
    for name in ("join_semidistributive", "meet_semidistributive",
                 "semidistributive", "join_extremal", "extremal",
                 "left_modular"):
        assert getattr(record, name), name
    assert record.el_shellable == "yes"


def test_record_internal_consistency():
    for L in zoo.fixture_lattices().values():
        r = classify(L)
        assert r.semidistributive == (
            r.join_semidistributive and r.meet_semidistributive
        )
        assert r.extremal == (
            r.join_extremal and r.length == r.num_meet_irreducibles
        )
        assert r.join_extremal == (r.length == r.num_join_irreducibles)


def test_distributive_implies_every_flag_checked_not_assumed():
    from latticelab.atlas import enumerate_lattices

    for n in range(1, 7):
        for L in enumerate_lattices(n):
            r = classify(L)
            if not r.distributive:
                continue
            assert r.join_semidistributive and r.meet_semidistributive
            assert r.semidistributive and r.join_extremal and r.extremal
            assert r.left_modular and r.el_shellable == "yes"


def test_violations_reevaluate():
    for L in zoo.fixture_lattices().values():
        ok, violation = is_join_semidistributive(L)
        if ok:
            continue
        a, b, c = violation.elements
        assert L.join[a, b] == L.join[a, c]
        assert L.join[a, L.meet[b, c]] != L.join[a, b]


def test_record_json_roundtrip():
    from latticelab.classify import ClassificationRecord

    record = classify(zoo.pentagon())
    again = ClassificationRecord.from_json(record.as_json())
    assert again == record


LAW_LATTICES = [L for n in range(1, 8) for L in enumerate_lattices(n)]


@settings(max_examples=200)
@given(st.data())
def test_distributivity_and_left_modularity_laws(data):
    L = data.draw(st.sampled_from(LAW_LATTICES))
    assert is_distributive(L)[0] == is_distributive(dual(L))[0]
    perm = data.draw(st.permutations(range(L.n)))
    lm = left_modular_elements(L)
    assert left_modular_elements(L.relabel(perm)) == sorted(perm[a] for a in lm)
    k = data.draw(st.integers(1, 7))
    point = st.integers(0, k - 1)
    pairs = data.draw(st.sets(st.tuples(point, point)))
    poset = transitive_reduce(k, [(a, b) for a, b in pairs if a < b])
    M, _ = ideal_lattice(poset)
    assert is_distributive(M) == (True, None)


def family_lattice(k, sets):
    """The subsets of a k-set in sets (as bitmasks), closed under
    intersection and with the full set added, ordered by inclusion."""
    family = {(1 << k) - 1}
    for s in sets:
        family |= {s & t for t in family}
    members = sorted(family)
    pairs = [
        (i, j)
        for i, a in enumerate(members)
        for j, b in enumerate(members)
        if a != b and a & b == a
    ]
    return try_lattice(transitive_reduce(len(members), pairs))


def test_family_lattices_reach_past_distributive_ones():
    L = family_lattice(3, [0b001, 0b010, 0b100])  # M3
    assert L.n == 5
    assert not is_distributive(L)[0] and not is_semidistributive(L)[0]


@settings(max_examples=200)
@given(st.data())
def test_semidistributive_and_irreducible_laws_on_intersection_families(data):
    k = data.draw(st.integers(1, 6))
    sets = data.draw(st.lists(st.integers(0, (1 << k) - 1), max_size=8))
    L = family_lattice(k, sets)
    D = dual(L)
    jsd, v = is_join_semidistributive(L)
    dual_msd, dual_v = is_meet_semidistributive(D)
    assert jsd == dual_msd
    assert (v and v.elements) == (dual_v and dual_v.elements)
    msd = is_meet_semidistributive(L)[0]
    perm = data.draw(st.permutations(range(L.n)))
    M = L.relabel(perm)
    assert (is_join_semidistributive(M)[0], is_meet_semidistributive(M)[0]) == (
        jsd,
        msd,
    )
    assert len(join_irreducible_ids(L)) == len(meet_irreducibles(D))
    assert length(L) == length(D)
