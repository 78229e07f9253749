"""Finite posets on elements 0..n-1 with an explicit cover relation.

The order is stored twice: as the transitively reduced cover set (the Hasse
diagram) and as a dense boolean reachability matrix ``leq``.  Neither is
changed after construction, and numpy refuses to make ``leq`` writable;
instances are safe to share between threads.
They are built in one sweep: the cycle search yields every up-set as an int
bitset, ``leq`` is unpacked from them, and a pair (a, b) is a cover exactly
when b is not strictly above another successor of a.
"""

from functools import cached_property, lru_cache
from math import isqrt
from operator import index

import numpy as np

from .errors import (
    BoundExceededError,
    CycleError,
    DuplicatePairError,
    FormatError,
    InvalidCoverError,
    LatticeError,
    NotReducedError,
)

# The largest element count a poset may have.  It is the default cap of
# ideal_lattice, so every lattice the CLI writes can be read back, and it
# is checked before anything of size n is allocated.
MAX_ELEMENTS = 4096


def _check_size(n, what="element count"):
    if not 0 <= n <= MAX_ELEMENTS:
        raise BoundExceededError(f"{what} {n} is outside 0..{MAX_ELEMENTS}")


def _check_element(p, x):
    "Raise LatticeError unless x is an element id of p, 0..n-1."
    if not 0 <= x < p.n:
        raise LatticeError(f"element id {x} is outside 0..{p.n - 1}")


def _find_cycle(n, pairs):
    """(cycle, up): a cyclic path of the digraph of pairs and None if it
    has one, else None and each element's up-set as an int, bit x for x.

    Depth-first search with an explicit stack, so long chains cannot hit
    the interpreter's recursion limit.  When the walk leaves v, up[v] is
    bit v joined with the up-sets of v's successors, all complete by then.
    """
    succ = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    state = [0] * n  # 0 unseen, 1 on the path, 2 done
    up = [1 << v for v in range(n)]
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        path = [root]
        todo = [iter(succ[root])]
        while todo:
            for w in todo[-1]:
                if state[w] == 1:
                    return path[path.index(w):] + [w], None
                if state[w] == 0:
                    state[w] = 1
                    path.append(w)
                    todo.append(iter(succ[w]))
                    break
            else:
                todo.pop()
                v = path.pop()
                state[v] = 2
                for w in succ[v]:
                    up[v] |= up[w]
    return None, up


def _check_pairs(n, pairs):
    seen = set()
    for pair in pairs:
        a, b = pair
        a, b = index(a), index(b)
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidCoverError(f"pair {pair!r} out of range for n={n}")
        if a == b:
            raise InvalidCoverError(f"self-loop {pair!r}")
        if (a, b) in seen:
            raise DuplicatePairError((a, b))
        seen.add((a, b))
    return seen


class FinitePoset:
    """A validated finite poset.

    Attributes:
        n: number of elements (ids 0..n-1).
        covers: sorted tuple of (lower, upper) covering pairs.
        leq: read-only n x n bool matrix, leq[a, b] iff a <= b.
    """

    __slots__ = ("n", "covers", "leq", "__dict__")

    def __init__(self, n, covers, leq):
        self.n = n
        self.covers = tuple(sorted(covers))
        self.leq = _read_only(leq, bool)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, covers={list(self.covers)})"

    def __eq__(self, other):
        "Structural equality (same labels), not isomorphism."
        return (
            isinstance(other, FinitePoset)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.n, self.covers))

    @cached_property
    def upper_covers(self):
        "The upper covers of each element, in increasing order as covers is sorted."
        ups = [[] for _ in range(self.n)]
        for a, b in self.covers:
            ups[a].append(b)
        return tuple(map(tuple, ups))

    @cached_property
    def lower_covers(self):
        "The lower covers of each element, in increasing order as covers is sorted."
        downs = [[] for _ in range(self.n)]
        for a, b in self.covers:
            downs[b].append(a)
        return tuple(map(tuple, downs))

    @cached_property
    def levels(self):
        "Longest cover-path length from a minimal element, per element."
        level = [0] * self.n
        for v in self.topological_order:
            for w in self.upper_covers[v]:
                level[w] = max(level[w], level[v] + 1)
        return tuple(level)

    @cached_property
    def up_sets(self):
        "The up-set of each element as an int, bit x standing for element x."
        return _int_rows(self.leq)

    @cached_property
    def down_sets(self):
        "The down-set of each element as an int, bit x standing for element x."
        return _int_rows(self.leq.T)

    @cached_property
    def topological_order(self):
        "Element ids sorted by (number of elements strictly below, id)."
        below = self.leq.sum(axis=0)
        return tuple(np.argsort(below, kind="stable").tolist())

    @cached_property
    def _canonical(self):
        "(canonical relabeling, canonical form, automorphisms), searched once."
        return _canonical_search(
            self.n, self.upper_covers, self.lower_covers, self.levels
        )

    def relabel(self, perm):
        "Copy with element i renamed to perm[i], an integer id."
        perm = [index(i) for i in perm]
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
        covers = [(perm[a], perm[b]) for a, b in self.covers]
        inverse = np.argsort(perm)
        return FinitePoset(self.n, covers, self.leq[np.ix_(inverse, inverse)])


def _read_only(table, dtype=None):
    """A view of table, as an array of dtype, that numpy will not let be
    made writable: the array that owns its memory is made read-only.
    That owner is still reachable through the view's .base, and numpy
    lets the owner itself be made writable again."""
    table = np.asarray(table, dtype=dtype)
    owner = table
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    owner.flags.writeable = False
    return table.view()


def _minimal_of(leq, members):
    "Members with no other member strictly below them (maximal: pass leq.T)."
    return [x for x in members if not any(leq[y, x] and y != x for y in members)]


def _int_rows(matrix):
    "Each row of a bool matrix as an int, bit x standing for column x."
    bits = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _order(n, pair_set):
    """(leq, implied): the order the pairs generate, and the pairs (a, b)
    with b strictly above another successor of a, that is, those that are
    not covers (Aho, Garey and Ullman, SIAM J. Comput. 1, 1972).
    """
    cycle, up = _find_cycle(n, pair_set)
    if cycle:
        raise CycleError(cycle)
    bit = [1 << v for v in range(n)]
    above = [0] * n  # above[a]: what lies strictly above a successor of a
    for a, c in pair_set:
        above[a] |= up[c] ^ bit[c]
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(u.to_bytes(width, "little") for u in up), np.uint8)
    leq = np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little")
    return leq.view(bool), [(a, b) for a, b in pair_set if above[a] & bit[b]]


def poset_from_covers(n, pairs):
    """Build a poset from an exact cover relation (strict ingestion).

    Rejects pairs implied by longer paths instead of silently reducing
    them: a redundant pair in hand-written data usually means a typo.
    """
    _check_size(n)
    pair_set = _check_pairs(n, pairs)
    leq, implied = _order(n, pair_set)
    if implied:
        a, b = bad = min(implied)
        mid = next(c for c in range(n) if a != c != b and leq[a, c] and leq[c, b])
        raise NotReducedError(bad, (a, mid, b))
    return FinitePoset(n, pair_set, leq)


def transitive_reduce(n, pairs):
    """Build a poset from arbitrary order pairs (lenient ingestion).

    The input may mix covers and implied relations; the result's cover set
    is the transitive reduction of the input's transitive closure.
    """
    _check_size(n)
    pair_set = {(index(a), index(b)) for a, b in pairs}
    for a, b in pair_set:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise InvalidCoverError(f"pair {(a, b)!r} invalid for n={n}")
    leq, implied = _order(n, pair_set)
    return FinitePoset(n, pair_set.difference(implied), leq)


# ---------------------------------------------------------------------------
# Canonical forms (isomorphism rejection)
# ---------------------------------------------------------------------------
#
# Two-stage scheme: iterative colour refinement on (in-degree, out-degree,
# level), then backtracking over colour-respecting relabelings choosing the
# lexicographically least adjacency encoding, with automorphisms found on
# the way pruning symmetric subtrees.  Exact and deterministic; symmetric
# lattices such as B7 (128 elements) or M_40 take under a second.  The
# search returns the automorphisms it found, in canonical slot ids, so
# they do not depend on how the input was labeled; the atlas skips a
# candidate whose mask one of its parent's automorphisms maps lower.


def _refined_cells(ups, downs, levels):
    """The refined colour classes, in colour order, each a list of ids in
    increasing order.  The first colours rank the keys (lower cover
    count, upper cover count, level), packed in one integer each; then
    each round splits every class of two or more elements by its
    members' signatures, the sorted colours of their lower and then
    upper covers, until a round splits none.

    A round ranks signatures within each old class, and the parts of a
    class take the ranks after those of the classes before it: this is
    the rank of (colour, signature) among all elements, so an element
    alone in its class keeps its place and a discrete colouring is
    final.  The keys pack as down << 26 | up << 13 | level, which sorts
    as the tuples do, since no count or level exceeds MAX_ELEMENTS < 2^13.
    """
    n = len(levels)
    colors = _ranks([
        len(down) << 26 | len(up) << 13 | level
        for down, up, level in zip(downs, ups, levels)
    ])
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    while len(cells) < n:
        color = colors.__getitem__
        parts = []
        for cell in cells:
            if len(cell) > 1:
                signature = [
                    (
                        tuple(sorted(map(color, downs[v]))),
                        tuple(sorted(map(color, ups[v]))),
                    )
                    for v in cell
                ]
                distinct = sorted(set(signature))
                if len(distinct) > 1:
                    rank = {key: i for i, key in enumerate(distinct, len(parts))}
                    parts += [[] for _ in distinct]
                    for v, key in zip(cell, signature):
                        parts[rank[key]].append(v)
                    continue
            parts.append(cell)
        if len(parts) == len(cells):
            return cells
        cells = parts
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
    return cells


def _ranks(keys):
    "Each key's index among the distinct keys in sorted order."
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _canonical_search(n, ups, downs, levels):
    """(perm, form, automorphisms) for the poset on 0..n-1 whose element
    v has the upper covers ups[v], the lower covers downs[v] and the level
    levels[v]: the colour-respecting relabeling whose encoding is least,
    that encoding, and the automorphisms the search found on the way.
    The cover lists may come in any order.

    Each automorphism is a tuple g of canonical slot ids, g[s] the slot
    that slot s goes to, so it does not depend on how the input was
    labeled; a poset with none found gives ().  They need not generate
    the whole automorphism group.

    The encoding lists, slot by slot, the chunk of slot s: whether the
    element on slot t is covered by it, for t < s, then whether it is
    covered by the element on slot t.  Slots are filled colour class by
    colour class, in the order and with the classes that _refined_cells
    gives, with candidates in increasing id, depth first; a subtree is
    cut once its chunks exceed the best leaf's, and the first least leaf
    wins.

    Only a node with two or more candidates gets a frame on the explicit
    stack.  A node with one candidate (a colour class of one, the last
    member of a class, or the one survivor of the least-chunk rule) is
    filled in place, so a discrete colouring walks to its one leaf with
    no frame.  Going back takes every slot from the deepest frame's on
    off the path in one pass, clearing their bits from the chunks of
    their covers only.  The last slot always has one candidate, so a
    leaf is never a frame.

    Three rules skip only subtrees that cannot hold the first least
    leaf, so they change no (perm, form):
    - While the path does not tie the best leaf (it is strictly below
      it, or there is none yet), a node keeps only its candidates with
      the least chunk: every path extends to a leaf, and leaves compare
      chunk by chunk.
    - A leaf equal to the best one gives an automorphism g, taking the
      best path's slot s to the leaf's.  g fixes the slots where the two
      paths agree, up to slot k where they first differ, so the subtree
      of the leaf's candidate at slot k is g's image of the best leaf's
      one, searched before it: the search goes back to slot k at once.
      Both candidates were tried at that node, so it is a frame.
    - A candidate is skipped if an automorphism found so far fixes the
      path and maps it to a candidate already tried at the node: its
      subtree is the image of that one's, with the same chunks.
    The last two are the orbit pruning of nauty (McKay and Piperno,
    J. Symbolic Comput. 60, 2014), with no refinement after a slot is
    filled, since that would reorder the slots.  An automorphism that
    fixes the path maps a node's candidates onto themselves, so it fixes
    a node's one candidate: the automorphisms that fix the path change
    only at frames, and only frames keep them.  Each found one is added
    to the root's list and to those of the frames at slots up to k.

    A chunk is kept as one integer per element, updated along the cover
    edges as slots fill: bit n-1-t of ``low[v]`` says slot t is covered by
    v, the same bit of ``high[v]`` that v is covered by slot t, so
    comparing (low << n) | high compares chunks lexicographically.
    Chunks are compared with the best leaf's only while the path ties it
    (``tied``), and only for the candidates of a frame:
    - A node with one candidate needs no comparison.  The refined cells
      are equitable: each member of a cell has as many lower covers, and
      as many upper covers, in every cell as any other member.  While the
      path ties, the least-chunk rule is off, so the one candidate v is
      the last unplaced member of its cell C.  Each earlier slot holds a
      member of the same cell on both paths, with as many covers in C;
      the tied chunks place those with the rest of C, so the one with v
      matches too, and v's chunk is the best leaf's.
    - Going back needs no reset.  No comparison cuts a descent that has
      left the tie, and a frame's first candidate is never skipped, so
      that descent reaches a leaf, which becomes the new best: at every
      return to a frame the path ties already.
    """
    if n == 0:
        return (), n.to_bytes(4, "big"), ()
    slot_class = [cell for cell in _refined_cells(ups, downs, levels) for _ in cell]

    low = [0] * n
    high = [0] * n
    used = [False] * n
    path = []
    chunks = []
    best = best_path = None
    tied = False  # whether the path ties the best leaf; none yet
    found = []  # every automorphism found
    # Per node with two or more candidates: [slot, candidates, the
    # candidates taken there as bit v for v, the automorphisms found
    # that fix the path up to the slot].
    frames = []
    nxt = slot_class[0]  # the candidates at slot len(path)
    while True:
        s = len(path)
        v = None
        if len(nxt) > 1:
            fix = []  # those of the deepest frame that fix its candidate
            if frames and frames[-1][3]:
                t, _, _, above = frames[-1]
                fix = [g for g in above if g[path[t]] == path[t]]
            frames.append([s, iter(nxt), 0, fix])
        else:
            v = nxt[0]
            chunk = low[v] << n | high[v]
            if s + 1 == n:  # a leaf
                if not tied:
                    best, best_path, tied = chunks + [chunk], path + [v], True
                else:
                    g = [0] * n
                    for w, x in zip(best_path, path + [v]):
                        g[w] = x
                    back = next(k for k, w in enumerate(path) if w != best_path[k])
                    found.append(g)
                    for frame in frames:
                        if frame[0] > back:
                            break
                        frame[3].append(g)
                    while frames[-1][0] > back:
                        frames.pop()
                v = None
        if v is None:
            # Back to the deepest frame, for its next candidate.
            while frames:
                frame = frames[-1]
                s, todo, tried, fix = frame
                if len(path) > s:
                    # Slot t is bit n-1-t: keep the bits of the slots before
                    # s, on the covers of the elements taken off the path.
                    keep = -1 << (n - s)
                    for w in path[s:]:
                        used[w] = False
                        for x in ups[w]:
                            low[x] &= keep
                        for x in downs[w]:
                            high[x] &= keep
                    del path[s:], chunks[s:]
                for v in todo:
                    if fix and any(tried >> g[v] & 1 for g in fix):
                        continue
                    tried |= 1 << v
                    chunk = low[v] << n | high[v]
                    if tied:
                        if chunk > best[s]:
                            continue
                        tied = chunk == best[s]
                    frame[2] = tried
                    break
                else:
                    frames.pop()
                    continue
                break
            else:
                return _packed(n, best_path, best, found)
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
            if not tied and len(nxt) > 1:  # strictly below: least chunks
                keys = [low[w] << n | high[w] for w in nxt]
                least = min(keys)
                nxt = [w for w, key in zip(nxt, keys) if key == least]


def _packed(n, best_path, best, found):
    """_canonical_search's (perm, form, automorphisms) for its least leaf
    best_path, with the chunks best, and the automorphisms found as maps
    of elements."""
    perm = [0] * n
    for slot, v in enumerate(best_path):
        perm[v] = slot
    # The form packs the winning chunks: slot s gives the top s bits of
    # its low half, then those of its high half, padded to whole bytes.
    mask = (1 << n) - 1
    bits = 0
    for s, chunk in enumerate(best):
        bits = bits << s | chunk >> (2 * n - s)
        bits = bits << s | (chunk & mask) >> (n - s)
    width = n * (n - 1)
    pad = -width % 8
    form = (bits << pad).to_bytes((width + pad) // 8, "big")
    # g takes element w to g[w], so it takes slot s to perm[g[best_path[s]]].
    automorphisms = tuple(tuple(perm[g[w]] for w in best_path) for g in found)
    return tuple(perm), n.to_bytes(4, "big") + form, automorphisms


def canonical_relabeling(p):
    """Permutation perm with perm[i] = canonical slot of element i.

    The canonical labeling minimizes the triangular adjacency encoding of
    the cover matrix over all colour-respecting relabelings (sound because
    refined colours are isomorphism invariants).  The search runs once per
    poset; later calls read its memo.
    """
    return p._canonical[0]


def canonical_form(p):
    """Byte string determined exactly by the isomorphism class of p."""
    return p._canonical[1]


def _seed_canonical(q, form, automorphisms):
    """Record on q, a canonically labeled poset, that form is its canonical
    form and that automorphisms, found by the search that gave form, are
    automorphisms of q.

    On a canonically labeled poset the search's first leaf is the identity
    path and no leaf is strictly smaller, so its relabeling would be the
    identity and its form form.  The automorphisms are in canonical slot
    ids, which on q are its element ids.  Seed only what the search
    computed: a form read from a file need not be canonical, so
    entry_lattice does not seed.
    """
    q.__dict__["_canonical"] = (_identity(q.n), form, automorphisms)
    return q


@lru_cache(maxsize=None)
def _identity(n):
    "tuple(range(n)), one tuple per n, the relabeling _seed_canonical seeds."
    return tuple(range(n))


def _form_size(form):
    "The element count a canonical form states in its 4-byte prefix."
    return int.from_bytes(form[:4], "big")


def poset_from_canonical(form):
    """Inverse of canonical_form: rebuild the canonically labeled poset.

    The size is checked before anything is allocated; a form whose length
    or pad bits do not match its size raises FormatError.
    """
    n = _form_size(form)
    _check_size(n)
    width = n * (n - 1)
    if len(form) != 4 + (width + 7) // 8:
        raise FormatError(f"canonical form of size {n} has {len(form)} bytes")
    flat = np.unpackbits(np.frombuffer(form[4:], dtype=np.uint8))
    if flat[width:].any():
        raise FormatError(f"canonical form of size {n} has nonzero pad bits")
    # Slot s holds 2s bits from bit s(s-1) on: t covered by s for t < s,
    # then s covered by t, so bit i belongs to s = (1 + isqrt(4i + 1)) // 2.
    pairs = []
    for i in np.flatnonzero(flat).tolist():
        s = (1 + isqrt(4 * i + 1)) // 2
        t = i - s * (s - 1)
        pairs.append((t, s) if t < s else (s, t - s))
    return poset_from_covers(n, sorted(pairs))


def canonicalize(p):
    "Relabeled copy of p in canonical form."
    perm, form, automorphisms = p._canonical
    return _seed_canonical(p.relabel(perm), form, automorphisms)


def is_isomorphic(p, q):
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False
    return canonical_form(p) == canonical_form(q)
