"""Canonical labeling: the stack-based search against the recursive one it
replaced, byte identity of the forms, and the once-per-poset memo."""

import hashlib
import random
import time

import numpy as np
import pytest

from latticelab import zoo
from latticelab.atlas import (
    _candidate_covers,
    _child,
    _down_set_extensions,
    _lattices,
    _masks_with_at_least,
    enumerate_lattices,
)
from latticelab.errors import InvariantViolation
from latticelab.lattice import ideal_lattice, try_lattice
from latticelab.poset import (
    FinitePoset,
    _canonical_search,
    canonical_form,
    canonical_relabeling,
    canonicalize,
    is_isomorphic,
    poset_from_canonical,
    transitive_reduce,
)

from conftest import weak_order


def reference_colors(p):
    "Colour refinement as the library computed it before."
    n = p.n
    colors = [
        (len(p.lower_covers[v]), len(p.upper_covers[v]), p.levels[v])
        for v in range(n)
    ]
    palette = sorted(set(colors))
    colors = [palette.index(c) for c in colors]
    while True:
        signature = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in p.lower_covers[v])),
                tuple(sorted(colors[w] for w in p.upper_covers[v])),
            )
            for v in range(n)
        ]
        palette = sorted(set(signature))
        new = [palette.index(s) for s in signature]
        if new == colors:
            return colors
        colors = new


def reference_canonical(p):
    """(perm, form) by the recursive search the library used before: every
    node re-reads the numpy cover matrix and compares the whole bit prefix
    with the best leaf's."""
    n = p.n
    if n == 0:
        return (), n.to_bytes(4, "big")
    colors = reference_colors(p)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_color = []
    for c in sorted(by_color):
        slot_color.extend([c] * len(by_color[c]))

    cover = np.zeros((n, n), dtype=bool)
    for a, b in p.covers:
        cover[a, b] = True

    best_bits = None
    best_assignment = None
    assignment = [None] * n  # slot -> element
    used = [False] * n
    bits = []

    def extend(slot):
        nonlocal best_bits, best_assignment
        if slot == n:
            if best_bits is None or bits < best_bits:
                best_bits = list(bits)
                best_assignment = list(assignment)
            return
        for v in by_color[slot_color[slot]]:
            if used[v]:
                continue
            chunk = []
            for t in range(slot):
                chunk.append(cover[assignment[t], v])
            for t in range(slot):
                chunk.append(cover[v, assignment[t]])
            bits.extend(chunk)
            prefix = len(bits)
            if best_bits is None or bits <= best_bits[:prefix]:
                assignment[slot] = v
                used[v] = True
                extend(slot + 1)
                used[v] = False
                assignment[slot] = None
            del bits[prefix - len(chunk):]

    extend(0)
    perm = [0] * n
    for slot, v in enumerate(best_assignment):
        perm[v] = slot
    form = n.to_bytes(4, "big") + np.packbits(
        np.asarray(best_bits, dtype=np.uint8)
    ).tobytes()
    return tuple(perm), form


def reference_down_set_extensions(p):
    "The frozenset scan _down_set_extensions replaced."
    n = p.n
    down = [frozenset(x for x in range(n) if p.leq[x, a]) for a in range(n)]
    out = []
    for mask in range(1 << n):
        members = frozenset(x for x in range(n) if mask >> x & 1)
        if any(not set(p.lower_covers[x]) <= members for x in members):
            continue
        ok = True
        for a in range(n):
            cut = members & down[a]
            maximal = [
                x for x in cut if not any(p.leq[x, y] and x != y for y in cut)
            ]
            if len(maximal) != 1:
                ok = False
                break
        if ok:
            out.append(members)
    return out


def fresh(p):
    "A structurally equal copy with no memo."
    return FinitePoset(p.n, p.covers, p.leq)


def without_top(L):
    "The meet-closed poset L minus its top, ids above the top moved down."
    keep = [x for x in range(L.n) if x != L.top]
    local = {x: i for i, x in enumerate(keep)}
    covers = [(local[a], local[b]) for a, b in L.covers if b != L.top]
    return FinitePoset(L.n - 1, covers, L.leq[np.ix_(keep, keep)])


def random_perm(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def shuffled(p, rng):
    return fresh(p.relabel(random_perm(p.n, rng)))


# Digests of the concatenated canonical forms of enumerate_lattices(n),
# fixed by the recursive search.
FORM_DIGESTS = {
    1: "b40711a88c703975",
    2: "865c4463e1a74b48",
    3: "711053510ddfcd1e",
    4: "5db4a5df2f0fae96",
    5: "7099e45fe2f8cf2f",
    6: "d6dcaf3dee82c4bf",
    7: "1060997269a5bae0",
    8: "f2553b2c05aed6c7",
    9: "c61f84549f6cbce0",
    10: "ab78a6241ac00fa3",
}


@pytest.mark.parametrize("n", sorted(FORM_DIGESTS))
def test_canonical_forms_are_byte_identical(n):
    forms = b"".join(canonical_form(L.poset) for L in enumerate_lattices(n))
    assert hashlib.sha256(forms).hexdigest()[:16] == FORM_DIGESTS[n]


def test_ten_element_class_count():
    "A006966 at n = 10."
    assert len(enumerate_lattices(10)) == 5994


def test_search_matches_the_recursive_reference():
    rng = random.Random(3)
    posets = [L.poset for n in range(1, 9) for L in enumerate_lattices(n)]
    posets += [without_top(L) for n in range(2, 9) for L in _lattices(n)]
    assert len(posets) == 300 + 299
    for p in posets:
        for _ in range(2):
            q = shuffled(p, rng)
            perm, form = reference_canonical(q)
            assert canonical_relabeling(q) == perm, q
            assert canonical_form(q) == form, q


def test_search_matches_the_reference_on_random_posets():
    "Posets with wide colour classes (antichains, forests) as well."
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 7)
        density = rng.random() / 2
        pairs = [
            (a, b) for a in range(n) for b in range(a + 1, n)
            if rng.random() < density
        ]
        q = shuffled(transitive_reduce(n, pairs), rng)
        assert (canonical_relabeling(q), canonical_form(q)) == reference_canonical(q)


def test_enumerated_lattices_are_canonically_labeled():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            identity = tuple(range(n))
            assert canonical_relabeling(L.poset) == identity
            assert canonical_relabeling(fresh(L.poset)) == identity


def test_seeded_memo_equals_a_fresh_search():
    rng = random.Random(7)
    for L in enumerate_lattices(7):
        M = L.relabel(random_perm(L.n, rng))
        q = canonicalize(M.poset)
        assert canonical_relabeling(q) == canonical_relabeling(fresh(q))
        assert canonical_form(q) == canonical_form(fresh(q))
        assert canonical_form(q) == canonical_form(L.poset)


def record_searches(monkeypatch, calls):
    "Record the arguments of every canonical search, by the poset or the enumerator."
    import latticelab.atlas as atlas_module
    import latticelab.poset as poset_module

    search = poset_module._canonical_search

    def recorded(*args):
        calls.append(args)
        return search(*args)

    for module in (poset_module, atlas_module):
        monkeypatch.setattr(module, "_canonical_search", recorded)


def test_search_runs_once_per_poset(monkeypatch):
    calls = []
    record_searches(monkeypatch, calls)
    p = fresh(zoo.hexagon().poset.relabel([5, 3, 1, 0, 2, 4]))
    q = canonicalize(p)
    canonical_relabeling(p), canonical_form(p), canonical_form(q)
    canonical_relabeling(q), is_isomorphic(p, q)
    assert calls == [(p.n, p.upper_covers, p.lower_covers, p.levels)]


def test_enumeration_searches_once_per_candidate(monkeypatch):
    """One search per candidate lattice with 2..8 elements whose new
    element is a largest coatom (451), plus at most one for the
    one-element base; the returned lattices are seeded, not searched."""
    calls = []
    record_searches(monkeypatch, calls)
    _lattices.cache_clear()
    lattices = [L for n in range(1, 9) for L in enumerate_lattices(n)]
    assert 451 <= len(calls) <= 452
    searched = len(calls)
    for L in lattices:
        canonical_relabeling(L.poset), canonical_form(L.poset)
    assert len(calls) == searched


def test_enumeration_past_one_element_reduces_decodes_and_validates_nothing(
    monkeypatch,
):
    import latticelab.atlas as atlas_module

    def forbidden(*args):
        raise AssertionError("called past n = 1")

    _lattices.cache_clear()
    _lattices(1)
    for name in ("transitive_reduce", "poset_from_canonical", "try_lattice"):
        monkeypatch.setattr(atlas_module, name, forbidden)
    assert len(enumerate_lattices(8)) == 222


def test_candidates_equal_their_transitive_reductions():
    """Each candidate with at most 8 elements, built from its parent by
    _child with no reduction, is the poset transitive_reduce makes of the
    parent's covers, the new element over the mask and under the top,
    relabeled by the candidate's canonical relabeling."""
    for n in range(2, 9):
        for L in _lattices(n - 1):
            for mask in _down_set_extensions(L):
                below = [(x, n - 1) for x in range(n - 1) if mask >> x & 1]
                want = transitive_reduce(n, [*L.covers, *below, (n - 1, L.top)])
                perm, form = _canonical_search(n, *_candidate_covers(L, mask))
                got = _child(L, mask, perm, form)
                inverse = np.empty(n, dtype=np.intp)
                inverse[list(perm)] = np.arange(n)
                relabeled = {(perm[a], perm[b]) for a, b in want.covers}
                assert set(got.covers) == relabeled, (L, mask)
                assert got.leq.dtype == bool
                assert np.array_equal(
                    got.leq, want.leq[np.ix_(inverse, inverse)]
                ), (L, mask)


def test_candidate_covers_equal_the_candidate_posets():
    """The cover lists and levels the enumerator searches, edited from the
    parent's with no reduction, are those transitive_reduce gives the
    parent's covers with the new element over the mask and under the
    top, for every candidate with at most 8 elements."""
    for n in range(2, 9):
        for L in _lattices(n - 1):
            for mask in _down_set_extensions(L):
                below = [(x, n - 1) for x in range(n - 1) if mask >> x & 1]
                p = transitive_reduce(n, [*L.covers, *below, (n - 1, L.top)])
                ups, downs, levels = _candidate_covers(L, mask)
                assert tuple(ups) == p.upper_covers, (L, mask)
                assert tuple(downs) == p.lower_covers, (L, mask)
                assert tuple(levels) == p.levels, (L, mask)


def test_classes_equal_their_decoded_forms():
    """Each class with at most 8 elements, built from its parent's
    tables, is the lattice try_lattice makes of its decoded form, with
    int32 tables, and its form is what a fresh search finds."""
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            form = canonical_form(L)
            want = try_lattice(poset_from_canonical(form))
            assert L.covers == want.covers
            assert L.leq.dtype == bool and np.array_equal(L.leq, want.leq)
            for got, table in ((L.join, want.join), (L.meet, want.meet)):
                assert got.dtype == np.int32 and np.array_equal(got, table)
            assert (L.bot, L.top) == (want.bot, want.top)
            assert canonical_form(want) == form


def test_a_child_over_a_cut_that_is_not_principal_is_an_invariant_violation():
    "Over {a, b} in B2, b cut below a is {a}, no element's down-set."
    L = next(L for L in _lattices(4) if len(L.coatoms) == 2)
    mask = sum(1 << c for c in L.coatoms)
    with pytest.raises(InvariantViolation):
        _child(L, mask, tuple(range(5)), b"")


def reference_extension_masks(L):
    """Bitmasks over L's ids of the reference scan of L minus its top,
    each with the size of the down-set it gives the new element."""
    ids = [x for x in range(L.n) if x != L.top]  # id in p -> id in L
    return [
        (sum(1 << ids[x] for x in members), len(members) + 1)
        for members in reference_down_set_extensions(without_top(L))
    ]


def test_largest_coatom_rule_keeps_every_class():
    """Every candidate of the reference scan, with no size rule, lands in
    a class the generator keeps."""
    for n in range(2, 9):
        forms = set()
        for L in _lattices(n - 1):
            for mask, _ in reference_extension_masks(L):
                below = [(x, n - 1) for x in range(n - 1) if mask >> x & 1]
                pairs = [*L.covers, *below, (n - 1, L.top)]
                forms.add(canonical_form(transitive_reduce(n, pairs)))
        assert forms == {canonical_form(L) for L in _lattices(n)}, n


def test_candidates_per_level():
    """The scan yields only the extensions whose new element is a largest
    coatom: one per canonical search of the enumeration."""
    counts = [
        sum(len(_down_set_extensions(L)) for L in _lattices(n - 1))
        for n in range(2, 9)
    ]
    assert counts == [1, 1, 2, 6, 20, 80, 341]
    assert sum(counts) == 451


def test_long_chain_without_recursion():
    n = 1500
    leq = np.triu(np.ones((n, n), dtype=bool))
    chain = FinitePoset(n, [(i, i + 1) for i in range(n - 1)], leq)
    perm = random_perm(n, random.Random(1))
    shuffled_chain = chain.relabel(perm)
    # Element i of the chain is element perm[i] of the shuffled one.
    slots = canonical_relabeling(chain)
    shuffled_slots = canonical_relabeling(shuffled_chain)
    assert [shuffled_slots[perm[i]] for i in range(n)] == list(slots)
    assert is_isomorphic(chain, shuffled_chain)


def test_masks_with_at_least_a_size_in_increasing_order():
    for width in range(9):
        for need in range(width + 3):
            want = [m for m in range(1 << width) if m.bit_count() >= need]
            assert list(_masks_with_at_least(width, need)) == want, (width, need)


def test_down_set_extensions_match_the_reference():
    "The reference scan, kept where the new element is a largest coatom."
    for n in range(1, 9):
        for L in _lattices(n):
            need = max((int(L.leq[:, c].sum()) for c in L.coatoms), default=0)
            expected = [
                mask for mask, size in reference_extension_masks(L) if size >= need
            ]
            assert _down_set_extensions(L) == expected


def m_k(k):
    "The lattice with k atoms between a bottom and a top."
    pairs = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    return try_lattice(transitive_reduce(k + 2, pairs))


def test_search_matches_the_reference_on_symmetric_lattices():
    """Lattices with many automorphisms, where the orbit pruning cuts
    most of the search, as given and shuffled.  The last is the product
    of two copies of B2 with a new top, the down-sets of two disjoint
    copies of 0, 1 < 2.  A search that also prunes with automorphisms
    that do not fix the path gets its labeling wrong."""
    rng = random.Random(11)
    lattices = [zoo.boolean(3), zoo.boolean(4), zoo.hexagon()]
    lattices += [m_k(k) for k in range(3, 7)]
    two_vees = transitive_reduce(6, [(0, 2), (1, 2), (3, 5), (4, 5)])
    lattices.append(ideal_lattice(two_vees)[0])
    for L in lattices:
        for q in (fresh(L.poset), *(shuffled(L.poset, rng) for _ in range(3))):
            assert (canonical_relabeling(q), canonical_form(q)) == reference_canonical(q)


@pytest.mark.parametrize(
    "make",
    [lambda: zoo.boolean(7).poset, lambda: m_k(20).poset, lambda: weak_order(5).poset],
)
def test_symmetric_posets_are_labeled_within_a_second(make):
    q = shuffled(make(), random.Random(13))
    start = time.perf_counter()
    perm = canonical_relabeling(q)
    assert time.perf_counter() - start < 1.0
    assert canonical_form(canonicalize(q)) == canonical_form(q)
    assert canonical_relabeling(fresh(canonicalize(q))) == tuple(range(q.n))
    assert sorted(perm) == list(range(q.n))
