"""Canonical labeling: the walk against the recursive search and the
stack walk it replaced, byte identity of the forms and tables, and the
once-per-poset memo."""

import hashlib
import random
import time

import numpy as np
import pytest

from latticelab import zoo
from latticelab.atlas import (
    _candidate_covers,
    _class_block,
    _down_set_extensions,
    _lattices,
    _least_image,
    enumerate_lattices,
)
from latticelab.lattice import dual, ideal_lattice, interval, try_lattice
from latticelab.poset import (
    FinitePoset,
    _canonical_search,
    _packed,
    _refined_cells,
    canonical_form,
    canonical_relabeling,
    canonicalize,
    is_isomorphic,
    poset_from_canonical,
    poset_from_covers,
    transitive_reduce,
)

from conftest import weak_order


def reference_colors(ups, downs, levels):
    """Colour refinement as the library computed it before, for the
    poset whose element v has the upper covers ups[v], the lower covers
    downs[v] and the level levels[v]."""
    n = len(levels)
    colors = [(len(downs[v]), len(ups[v]), levels[v]) for v in range(n)]
    palette = sorted(set(colors))
    colors = [palette.index(c) for c in colors]
    while True:
        signature = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in downs[v])),
                tuple(sorted(colors[w] for w in ups[v])),
            )
            for v in range(n)
        ]
        palette = sorted(set(signature))
        new = [palette.index(s) for s in signature]
        if new == colors:
            return colors
        colors = new


def cell_colors(cells):
    """Each element's colour read off the refined cells: the index of
    its cell.  The ids must increase within each cell."""
    colors = [None] * sum(map(len, cells))
    for c, cell in enumerate(cells):
        assert cell == sorted(cell)
        for v in cell:
            colors[v] = c
    return colors


def reference_canonical(p):
    """(perm, form) by the recursive search the library used before: every
    node re-reads the numpy cover matrix and compares the whole bit prefix
    with the best leaf's."""
    n = p.n
    if n == 0:
        return (), n.to_bytes(4, "big")
    colors = reference_colors(p.upper_covers, p.lower_covers, p.levels)
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


def reference_stack_search(n, ups, downs, levels):
    """(perm, form, automorphisms) by the stack walk the library used
    before, with a frame for every slot and the colours of
    reference_colors; the packing is the library's _packed."""
    if n == 0:
        return (), n.to_bytes(4, "big"), ()
    colors = reference_colors(ups, downs, levels)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_class = []
    for c in sorted(by_color):
        slot_class.extend([by_color[c]] * len(by_color[c]))

    low = [0] * n
    high = [0] * n
    used = [False] * n
    path = []
    chunks = []
    best = best_path = None
    below = -1  # no best leaf yet: everything is below it
    todo = [iter(slot_class[0])]
    tried = [0]  # per node, the candidates taken there, bit v for v
    fixing = [[]]  # per node, the automorphisms found that fix the path
    found = fixing[0]
    back = None  # the slot to go back to after an automorphism
    while todo:
        s = len(todo) - 1
        if below >= s:
            below = n
        fix = fixing[s]
        for v in todo[-1]:
            if fix and any(tried[s] >> g[v] & 1 for g in fix):
                continue
            tried[s] |= 1 << v
            chunk = low[v] << n | high[v]
            if below >= s:
                if chunk > best[s]:
                    continue
                if chunk < best[s]:
                    below = s
            if s + 1 < n:
                break
            if below < n:
                best, best_path, below = chunks + [chunk], path + [v], n
                continue
            g = [0] * n
            for w, x in zip(best_path, path + [v]):
                g[w] = x
            back = next(k for k, w in enumerate(path) if w != best_path[k])
            for f in fixing[: back + 1]:
                f.append(g)
        else:
            keep = s if back is None else back + 1
            back = None
            while len(todo) > keep:
                todo.pop()
                tried.pop()
                fixing.pop()
                if path:
                    v = path.pop()
                    chunks.pop()
                    used[v] = False
                    clear = ~(1 << (n - len(todo)))
                    for w in ups[v]:
                        low[w] &= clear
                    for w in downs[v]:
                        high[w] &= clear
            continue
        bit = 1 << (n - 1 - s)
        for w in ups[v]:
            low[w] |= bit
        for w in downs[v]:
            high[w] |= bit
        used[v] = True
        path.append(v)
        chunks.append(chunk)
        nxt = slot_class[s + 1]
        if len(nxt) > 1:
            nxt = [w for w in nxt if not used[w]]
            if below <= s and len(nxt) > 1:
                keys = [low[w] << n | high[w] for w in nxt]
                least = min(keys)
                nxt = [w for w, key in zip(nxt, keys) if key == least]
        todo.append(iter(nxt))
        tried.append(0)
        fixing.append([g for g in fix if g[v] == v] if fix else [])
    return _packed(n, best_path, best, found)


def reference_least_in_orbit(mask, automorphisms):
    """The orbit walk _least_image replaced.  Whether no product of the
    automorphisms maps the bitmask mask to a smaller one.  The orbit is
    walked image by image and left at the first smaller image."""
    seen = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        members = [x for x in range(m.bit_length()) if m >> x & 1]
        for g in automorphisms:
            image = sum(1 << g[x] for x in members)
            if image < mask:
                return False
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return True


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


# sha256 over every class with at most 10 elements, in enumeration
# order: its leq, join and meet bytes, then repr((covers, bot, top,
# _canonical)).  It pins the dtypes and the automorphisms too.
TABLE_DIGEST = "1fb4db10fffa1b2e"


def test_class_tables_are_byte_identical():
    h = hashlib.sha256()
    for n in range(1, 11):
        for L in enumerate_lattices(n):
            for table in (L.leq, L.join, L.meet):
                h.update(table.tobytes())
            h.update(repr((L.covers, L.bot, L.top, L._canonical)).encode())
    assert h.hexdigest()[:16] == TABLE_DIGEST


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
    """One search per candidate lattice whose new element is a largest
    coatom and whose mask no automorphism of the parent maps lower, and
    one for the one-element base: 314 with at most 8 elements, of 452
    without the orbit rule, and 7,946 with at most 10, of 11,214.  The
    returned lattices are seeded, not searched."""
    calls = []
    record_searches(monkeypatch, calls)
    _lattices.cache_clear()
    lattices = [L for n in range(1, 9) for L in enumerate_lattices(n)]
    assert len(calls) == 314
    for L in lattices:
        canonical_relabeling(L.poset), canonical_form(L.poset)
    assert len(calls) == 314
    enumerate_lattices(10)
    assert len(calls) == 7946


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


def candidates(n):
    """Every candidate with n elements, searched, in scan order, as
    _class_block takes it."""
    out = []
    for L in _lattices(n - 1):
        for mask, meets in _down_set_extensions(L):
            ups, downs, levels = _candidate_covers(L, mask)
            perm, form, automorphisms = _canonical_search(n, ups, downs, levels)
            out.append((L, mask, meets, perm, automorphisms, form, ups))
    return out


def test_candidates_equal_their_transitive_reductions():
    """Each candidate with at most 8 elements, built from its parent by
    _class_block with no reduction, in one block per level, is the
    lattice try_lattice makes of the parent's covers with the new element
    over the mask and under the top, relabeled by the candidate's
    canonical relabeling: the same covers, order, join and meet, so the
    scan's meet row is checked on every candidate, kept or not."""
    for n in range(2, 9):
        block = candidates(n)
        for (L, mask, _, perm, *_), got in zip(block, _class_block(n, block)):
            below = [(x, n - 1) for x in range(n - 1) if mask >> x & 1]
            want = transitive_reduce(n, [*L.covers, *below, (n - 1, L.top)])
            assert_same_class(got, try_lattice(want).relabel(perm))


def test_candidate_covers_equal_the_candidate_posets():
    """The cover lists and levels the enumerator searches, edited from the
    parent's with no reduction, are those transitive_reduce gives the
    parent's covers with the new element over the mask and under the
    top, for every candidate with at most 8 elements."""
    for n in range(2, 9):
        for L in _lattices(n - 1):
            for mask, _ in _down_set_extensions(L):
                below = [(x, n - 1) for x in range(n - 1) if mask >> x & 1]
                p = transitive_reduce(n, [*L.covers, *below, (n - 1, L.top)])
                ups, downs, levels = _candidate_covers(L, mask)
                assert tuple(ups) == p.upper_covers, (L, mask)
                assert tuple(downs) == p.lower_covers, (L, mask)
                assert tuple(levels) == p.levels, (L, mask)


def assert_same_class(got, want):
    "Equal covers, order, int32 tables, bottom and top."
    assert got.covers == want.covers
    assert got.leq.dtype == bool and np.array_equal(got.leq, want.leq)
    for table, other in ((got.join, want.join), (got.meet, want.meet)):
        assert table.dtype == np.int32 and np.array_equal(table, other)
    assert (got.bot, got.top) == (want.bot, want.top)


def test_classes_equal_their_decoded_forms():
    """Each class with at most 9 elements, built from its parent's
    tables, is the lattice try_lattice makes of its decoded form, and
    its form is what a fresh search finds.  The 1,078 classes with 9
    elements take more than one block."""
    for n in range(1, 10):
        for L in enumerate_lattices(n):
            form = canonical_form(L)
            want = try_lattice(poset_from_canonical(form))
            assert_same_class(L, want)
            assert canonical_form(want) == form


@pytest.mark.parametrize("size", [1, 7])
def test_blocks_of_any_size_build_the_same_classes(monkeypatch, size):
    """Built in blocks of one class or of seven, every class with at most
    9 elements is the one the default blocks give, with the same
    canonical search result, and the lattice of its decoded form, whose
    own search finds the identity relabeling and the same form."""
    import latticelab.lattice as lattice_module

    default = {n: _lattices(n) for n in range(1, 10)}
    _lattices.cache_clear()
    try:
        for n in range(1, 10):
            monkeypatch.setattr(lattice_module, "_BLOCK", size * n * n)
            got = _lattices(n)
            assert len(got) == len(default[n])
            for L, D in zip(got, default[n]):
                assert L._canonical == D._canonical
                assert_same_class(L, D)
                W = try_lattice(poset_from_canonical(L._canonical[1]))
                assert W._canonical[:2] == L._canonical[:2]
                assert_same_class(L, W)
    finally:
        _lattices.cache_clear()


def test_enumerated_tables_cannot_be_made_writable():
    """numpy refuses to make the tables of any lattice writable: those of
    an enumerated class, views of a block shared by the whole level, the
    one-element class and a lattice from each other builder, and the
    order of a poset."""
    H = zoo.hexagon()
    lattices = [
        enumerate_lattices(9)[500],
        enumerate_lattices(1)[0],
        H,
        ideal_lattice(zoo.antichain(3))[0],
        dual(H),
        interval(H, H.bot, H.top).lattice,
        H.relabel(list(range(H.n))[::-1]),
    ]
    tables = [poset_from_covers(3, [(0, 1), (1, 2)]).leq]
    tables += [t for L in lattices for t in (L.leq, L.join, L.meet)]
    for table in tables:
        with pytest.raises(ValueError):
            table.flags.writeable = True


def test_a_large_down_set_whose_cut_is_not_principal_is_no_extension():
    """In B3, {0̂, a, b} is a down-set as large as the coatoms need, but
    its cut below a ∨ b is itself, no element's down-set, so the new
    element would have no meet with a ∨ b and the scan skips it."""
    L = zoo.boolean(3)
    mask = 0b111
    down = L.down_sets
    assert all(down[x] & mask == down[x] for x in range(3))
    assert mask.bit_count() >= max(down[c].bit_count() - 1 for c in L.coatoms)
    ab = L.join[1, 2]
    assert down[ab] & mask == mask and mask not in down
    assert mask not in [m for m, _ in _down_set_extensions(L)]


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
    coatom; the enumerator searches those no automorphism maps lower."""
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


def test_down_set_extensions_match_the_reference():
    "The reference scan, kept where the new element is a largest coatom."
    for n in range(1, 9):
        for L in _lattices(n):
            need = max((int(L.leq[:, c].sum()) for c in L.coatoms), default=0)
            expected = [
                mask for mask, size in reference_extension_masks(L) if size >= need
            ]
            assert [m for m, _ in _down_set_extensions(L)] == expected


def m_k(k):
    "The lattice with k atoms between a bottom and a top."
    pairs = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    return try_lattice(transitive_reduce(k + 2, pairs))


def test_orbit_pruning_keeps_the_classes_of_the_unpruned_loop():
    """Searching every extension mask and keeping the first candidate per
    form gives, class for class, the lattices the enumerator keeps when
    it skips the masks a parent's automorphisms map to smaller ones."""
    for n in range(2, 9):
        forms = {}
        for candidate in candidates(n):
            forms.setdefault(candidate[5], candidate)
        want = _class_block(n, [forms[form] for form in sorted(forms)])
        got = _lattices(n)
        assert len(got) == len(want)
        for M, W in zip(got, want):
            assert M._canonical == W._canonical
            assert M.covers == W.covers and np.array_equal(M.leq, W.leq)
            assert np.array_equal(M.join, W.join)
            assert np.array_equal(M.meet, W.meet)
            assert (M.bot, M.top) == (W.bot, W.top)


def test_one_image_per_automorphism_skips_as_the_orbit_walk_does():
    """_least_image, which tests each automorphism's image of a mask once,
    skips the masks the orbit walk skips, for every parent with at most
    9 elements and each mask _down_set_extensions yields for it."""
    skipped = 0
    for n in range(1, 10):
        for L in _lattices(n):
            automorphisms = L._canonical[2]
            for mask, _ in _down_set_extensions(L):
                least = reference_least_in_orbit(mask, automorphisms)
                assert _least_image(mask, automorphisms) == least, (L, mask)
                skipped += not least
    assert skipped == 11214 - 7946


def slot_covers(p):
    "p's covers in canonical slot ids."
    perm = canonical_relabeling(p)
    return {(perm[a], perm[b]) for a, b in p.covers}


def maps_covers_onto_covers(g, covers):
    return sorted(g) == list(range(len(g))) and {
        (g[a], g[b]) for a, b in covers
    } == covers


def group_order(n, generators):
    "The order of the permutation group the generators generate."
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        f = todo.pop()
        for g in generators:
            h = tuple(g[x] for x in f)
            if h not in group:
                group.add(h)
                todo.append(h)
    return len(group)


def count_automorphisms(p):
    """Brute force: the bijections that map covers onto covers, built
    element by element in id order, each image checked against the
    images already chosen."""
    n, covers = p.n, set(p.covers)
    image = []
    count = 0
    todo = [iter(range(n))]
    while todo:
        for y in todo[-1]:
            x = len(image)
            if y in image:
                continue
            if all(
                ((w, x) in covers) == ((z, y) in covers)
                and ((x, w) in covers) == ((y, z) in covers)
                for w, z in enumerate(image)
            ):
                image.append(y)
                if len(image) == n:
                    count += 1
                    image.pop()
                    continue
                todo.append(iter(range(n)))
                break
        else:
            todo.pop()
            if image:
                image.pop()
    return count


def test_returned_automorphisms_generate_the_automorphism_group():
    """Each automorphism the search returns maps covers onto covers, in
    canonical slot ids, and for every class with at most 8 elements they
    generate a group of the order a brute-force count gives."""
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            automorphisms = L._canonical[2]
            covers = set(L.covers)
            assert all(maps_covers_onto_covers(g, covers) for g in automorphisms)
            assert group_order(n, automorphisms) == count_automorphisms(L), L


@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: zoo.boolean(5), 120),
        (lambda: m_k(8), 40320),  # M8 has ten elements
        (zoo.hexagon, 2),
        (lambda: weak_order(4), 2),
    ],
)
def test_returned_automorphisms_of_symmetric_lattices(make, order):
    "Given shuffled, and read in canonical slot ids."
    q = shuffled(make().poset, random.Random(17))
    automorphisms = q._canonical[2]
    covers = slot_covers(q)
    assert all(maps_covers_onto_covers(g, covers) for g in automorphisms)
    assert canonicalize(q)._canonical[2] == automorphisms
    assert group_order(q.n, automorphisms) == order


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


def test_walk_matches_the_stack_walk_on_every_candidate():
    """The walk that keeps frames only where a node has two or more
    candidates gives the stack walk's relabeling, form and automorphisms
    on every candidate with at most 9 elements, orbit-skipped or not,
    and refines to the reference colours."""
    count = 0
    for n in range(2, 10):
        for L, mask, _, perm, automorphisms, form, _ in candidates(n):
            ups, downs, levels = _candidate_covers(L, mask)
            want = reference_stack_search(n, ups, downs, levels)
            assert (perm, form, automorphisms) == want, (L, mask)
            assert cell_colors(_refined_cells(ups, downs, levels)) == (
                reference_colors(ups, downs, levels)
            )
            count += 1
    assert count == 451 + 1676


SYMMETRIC_LATTICES = [
    *(lambda k=k: zoo.boolean(k) for k in range(2, 7)),
    zoo.m3,
    zoo.hexagon,
    lambda: weak_order(4),
    lambda: weak_order(5),
]


@pytest.mark.parametrize("make", SYMMETRIC_LATTICES)
def test_walk_matches_the_stack_walk_on_symmetric_lattices(make):
    "B2-B6, M3, the hexagon and the weak orders of S4 and S5, as given and shuffled."
    L = make()
    for p in (fresh(L.poset), shuffled(L.poset, random.Random(19))):
        lists = p.upper_covers, p.lower_covers, p.levels
        want = reference_stack_search(p.n, *lists)
        assert _canonical_search(p.n, *lists) == want
        assert cell_colors(_refined_cells(*lists)) == reference_colors(*lists)


def assert_equitable(ups, downs, levels):
    "Each member of a refined cell has the same cover counts in each cell."
    cells = _refined_cells(ups, downs, levels)
    color = cell_colors(cells)
    for cell in cells:
        counts = {
            (
                tuple(sorted(color[w] for w in downs[v])),
                tuple(sorted(color[w] for w in ups[v])),
            )
            for v in cell
        }
        assert len(counts) == 1, cell


def test_refined_cells_are_equitable():
    """Each member of a refined cell has as many lower covers, and as many
    upper covers, in every cell as any other member, which is why the
    walk compares no chunk at a node with one candidate.  Checked on
    every candidate with at most 9 elements and on the symmetric
    lattices, as given and shuffled."""
    for n in range(2, 10):
        for L, mask, *_ in candidates(n):
            assert_equitable(*_candidate_covers(L, mask))
    for make in SYMMETRIC_LATTICES:
        L = make()
        for p in (fresh(L.poset), shuffled(L.poset, random.Random(19))):
            assert_equitable(p.upper_covers, p.lower_covers, p.levels)


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


def test_weak_order_of_s6_is_labeled_without_a_per_backtrack_sweep():
    """The weak order of S6 (720 elements) backtracks often; going back
    must clear bits on the covers of the slots it leaves, not on every
    element, or the labeling takes ten times as long."""
    q = shuffled(zoo.weak_order(6).poset, random.Random(13))
    start = time.perf_counter()
    canonical_relabeling(q)
    assert time.perf_counter() - start < 10.0
    assert canonical_form(canonicalize(q)) == canonical_form(q)
