"""Finite posets on elements 0..n-1 with an explicit cover relation.

The order is stored twice: as the transitively reduced cover set (the Hasse
diagram) and as a dense boolean reachability matrix ``leq``.  Both are
immutable after construction; instances are safe to share between threads.
They are built in one sweep: the cycle search yields every up-set as an int
bitset, ``leq`` is unpacked from them, and a pair (a, b) is a cover exactly
when b is not strictly above another successor of a.
"""

from functools import cached_property
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
        leq = np.asarray(leq, dtype=bool)
        leq.flags.writeable = False
        self.n = n
        self.covers = tuple(sorted(covers))
        self.leq = leq

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
        ups = [[] for _ in range(self.n)]
        for a, b in self.covers:
            ups[a].append(b)
        return tuple(tuple(sorted(u)) for u in ups)

    @cached_property
    def lower_covers(self):
        downs = [[] for _ in range(self.n)]
        for a, b in self.covers:
            downs[b].append(a)
        return tuple(tuple(sorted(d)) for d in downs)

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
        return tuple(sorted(range(self.n), key=lambda v: (below[v], v)))

    @cached_property
    def _canonical(self):
        "(canonical relabeling, canonical form), searched once."
        return _canonical_search(
            self.n, self.upper_covers, self.lower_covers, self.levels
        )

    def relabel(self, perm):
        "Copy with element i renamed to perm[i]."
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
        covers = [(perm[a], perm[b]) for a, b in self.covers]
        inverse = np.argsort(perm)
        return FinitePoset(self.n, covers, self.leq[np.ix_(inverse, inverse)])


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
# the way pruning symmetric subtrees.  Exact and deterministic; the atlas
# searches every candidate up to n = 10, and symmetric lattices such as
# B7 (128 elements) or M_40 take under a second.


def _refined_colors(ups, downs, levels):
    """Colour classes as ranks.  A signature starts with the colour, so
    an element alone in its class keeps its rank whatever its neighbours,
    and a discrete colouring is final."""
    n = len(levels)
    colors = _ranks(list(zip(map(len, downs), map(len, ups), levels)))
    while max(colors, default=0) + 1 < n:
        size = [0] * n
        for c in colors:
            size[c] += 1
        signature = [
            (
                c,
                tuple(sorted([colors[w] for w in down])),
                tuple(sorted([colors[w] for w in up])),
            )
            if size[c] > 1
            else (c,)
            for c, down, up in zip(colors, downs, ups)
        ]
        new = _ranks(signature)
        if new == colors:
            return colors
        colors = new
    return colors


def _ranks(keys):
    "Each key's index among the distinct keys in sorted order."
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _canonical_search(n, ups, downs, levels):
    """(perm, form) for the poset on 0..n-1 whose element v has the upper
    covers ups[v], the lower covers downs[v] and the level levels[v]: the
    colour-respecting relabeling whose encoding is least, and that
    encoding.  The cover lists may come in any order.

    The encoding lists, slot by slot, the chunk of slot s: whether the
    element on slot t is covered by it, for t < s, then whether it is
    covered by the element on slot t.  Slots are filled colour class by
    colour class with candidates in increasing id, depth first on an
    explicit stack; a subtree is cut once its chunks exceed the best
    leaf's, and the first least leaf wins.

    Three rules skip only subtrees that cannot hold the first least
    leaf, so they change no (perm, form):
    - While the path is strictly below the best leaf, or there is none
      yet, a node keeps only its candidates with the least chunk: every
      path extends to a leaf, and leaves compare chunk by chunk.
    - A leaf equal to the best one gives an automorphism g, taking the
      best path's slot s to the leaf's.  g fixes the slots where the two
      paths agree, up to slot k where they first differ, so the subtree
      of the leaf's candidate at slot k is g's image of the best leaf's
      one, searched before it: the search goes back to slot k at once.
    - A candidate is skipped if an automorphism found so far fixes the
      path and maps it to a candidate already tried at the node: its
      subtree is the image of that one's, with the same chunks.
    The last two are the orbit pruning of nauty (McKay and Piperno,
    J. Symbolic Comput. 60, 2014), with no refinement after a slot is
    filled, since that would reorder the slots.

    A chunk is kept as one integer per element, updated along the cover
    edges as slots fill: bit n-1-t of ``low[v]`` says slot t is covered by
    v, the same bit of ``high[v]`` that v is covered by slot t, so
    comparing (low << n) | high compares chunks lexicographically.
    Chunks are compared with the best leaf's only while the path ties it;
    ``below`` is the slot where the path went strictly below the best.
    """
    if n == 0:
        return (), n.to_bytes(4, "big")
    colors = _refined_colors(ups, downs, levels)
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
    todo = [iter(slot_class[0])]  # an empty path: every chunk is 0
    tried = [0]  # per node, the candidates taken there, bit v for v
    fixing = [[]]  # per node, the automorphisms found that fix the path
    back = None  # the slot to go back to after an automorphism
    while todo:
        s = len(todo) - 1
        if below >= s:
            below = n  # path[:s] ties the best leaf again
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
            # A leaf: the last slot's class has one candidate left.
            if below < n:  # strictly below the best leaf
                best, best_path, below = chunks + [chunk], path + [v], n
                continue
            g = [0] * n
            for w, x in zip(best_path, path + [v]):
                g[w] = x
            back = next(k for k, w in enumerate(path) if w != best_path[k])
            for f in fixing[: back + 1]:
                f.append(g)
        else:
            # Take filled slots off the path, back to the node before
            # this one, or to slot `back` after an automorphism.
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
            if below <= s and len(nxt) > 1:  # strictly below: least chunks
                keys = [low[w] << n | high[w] for w in nxt]
                least = min(keys)
                nxt = [w for w, key in zip(nxt, keys) if key == least]
        todo.append(iter(nxt))
        tried.append(0)
        fixing.append([g for g in fix if g[v] == v] if fix else [])

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
    return tuple(perm), n.to_bytes(4, "big") + form


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


def _seed_canonical(q, form):
    """Record on q, a canonically labeled poset, that form is its canonical
    form.

    On a canonically labeled poset the search's first leaf is the identity
    path and no leaf is strictly smaller, so its result would be the
    identity and form.  Seed only a form the search computed: a form read
    from a file need not be canonical, so entry_lattice does not seed.
    """
    q.__dict__["_canonical"] = (tuple(range(q.n)), form)
    return q


def poset_from_canonical(form):
    """Inverse of canonical_form: rebuild the canonically labeled poset.

    The size is checked before anything is allocated; a form whose length
    or pad bits do not match its size raises FormatError.
    """
    n = int.from_bytes(form[:4], "big")
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
    perm, form = p._canonical
    return _seed_canonical(p.relabel(perm), form)


def is_isomorphic(p, q):
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False
    return canonical_form(p) == canonical_form(q)
