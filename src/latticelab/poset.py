"""Finite posets on elements 0..n-1 with an explicit cover relation.

The order is stored twice: as the transitively reduced cover set (the Hasse
diagram) and as a dense boolean reachability matrix ``leq``.  Both are
immutable after construction; instances are safe to share between threads.
"""

from functools import cached_property

import numpy as np

from .errors import (
    CycleError,
    DuplicatePairError,
    InvalidCoverError,
    NotReducedError,
)


def _closure_from_covers(n, covers):
    "Reflexive-transitive closure of a cover digraph as a bool matrix."
    leq = np.eye(n, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    return leq


def _find_cycle(n, pairs):
    """Return a cyclic path if the digraph of pairs has one, else None.

    Depth-first search with an explicit stack, so long chains cannot hit
    the interpreter's recursion limit.
    """
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
        return f"FinitePoset(n={self.n}, covers={list(self.covers)})"

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
    def topological_order(self):
        "Element ids sorted by (number of elements strictly below, id)."
        below = self.leq.sum(axis=0)
        return tuple(sorted(range(self.n), key=lambda v: (below[v], v)))

    def relabel(self, perm):
        "Copy with element i renamed to perm[i]."
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
        covers = [(perm[a], perm[b]) for a, b in self.covers]
        inverse = np.argsort(perm)
        return FinitePoset(self.n, covers, self.leq[np.ix_(inverse, inverse)])


def poset_from_covers(n, pairs):
    """Build a poset from an exact cover relation (strict ingestion).

    Rejects pairs implied by longer paths instead of silently reducing
    them: a redundant pair in hand-written data usually means a typo.
    """
    pair_set = _check_pairs(n, pairs)
    cycle = _find_cycle(n, pair_set)
    if cycle:
        raise CycleError(cycle)
    leq = _closure_from_covers(n, pair_set)
    _raise_if_not_reduced(n, pair_set, leq)
    return FinitePoset(n, pair_set, leq)


def _raise_if_not_reduced(n, pair_set, leq):
    lt = leq & ~np.eye(n, dtype=bool)
    two_step = np.matmul(lt, lt)
    for a, b in sorted(pair_set):
        if two_step[a, b]:
            mid = next(c for c in range(n) if lt[a, c] and lt[c, b])
            raise NotReducedError((a, b), (a, mid, b))


def transitive_reduce(n, pairs):
    """Build a poset from arbitrary order pairs (lenient ingestion).

    The input may mix covers and implied relations; the result's cover set
    is the transitive reduction of the input's transitive closure.
    """
    pair_set = {(a, b) for a, b in pairs}
    for pair in pair_set:
        a, b = pair
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise InvalidCoverError(f"pair {pair!r} invalid for n={n}")
    cycle = _find_cycle(n, pair_set)
    if cycle:
        raise CycleError(cycle)
    leq = _closure_from_covers(n, pair_set)
    lt = leq & ~np.eye(n, dtype=bool)
    covers = lt & ~np.matmul(lt, lt)
    pairs = [(int(a), int(b)) for a, b in zip(*np.nonzero(covers))]
    return FinitePoset(n, pairs, leq)


# ---------------------------------------------------------------------------
# Canonical forms (isomorphism rejection)
# ---------------------------------------------------------------------------
#
# Two-stage scheme: iterative colour refinement on (in-degree, out-degree,
# level), then backtracking over colour-respecting relabelings choosing the
# lexicographically least adjacency encoding.  Exact and deterministic;
# meant for the desk scale (n up to roughly 12) used by the atlas.


def _refined_colors(p):
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


def canonical_relabeling(p):
    """Permutation perm with perm[i] = canonical slot of element i.

    The canonical labeling minimizes the triangular adjacency encoding of
    the cover matrix over all colour-respecting relabelings (sound because
    refined colours are isomorphism invariants).
    """
    n = p.n
    if n == 0:
        return ()
    colors = _refined_colors(p)
    # Slots grouped by colour: all colour-0 elements first, and so on.
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
    return tuple(perm)


def canonical_form(p):
    """Byte string determined exactly by the isomorphism class of p."""
    n = p.n
    perm = canonical_relabeling(p)
    cover = np.zeros((n, n), dtype=bool)
    for a, b in p.covers:
        cover[perm[a], perm[b]] = True
    bits = []
    for s in range(n):
        for t in range(s):
            bits.append(cover[t, s])
        for t in range(s):
            bits.append(cover[s, t])
    return n.to_bytes(4, "big") + np.packbits(
        np.asarray(bits, dtype=np.uint8)
    ).tobytes()


def poset_from_canonical(form):
    "Inverse of canonical_form: rebuild the canonically labeled poset."
    n = int.from_bytes(form[:4], "big")
    flat = np.unpackbits(np.frombuffer(form[4:], dtype=np.uint8))
    cover = np.zeros((n, n), dtype=bool)
    pos = 0
    for s in range(n):
        for t in range(s):
            cover[t, s] = flat[pos]
            pos += 1
        for t in range(s):
            cover[s, t] = flat[pos]
            pos += 1
    pairs = [(int(a), int(b)) for a, b in zip(*np.nonzero(cover))]
    return poset_from_covers(n, pairs)


def canonicalize(p):
    "Relabeled copy of p in canonical form."
    return p.relabel(canonical_relabeling(p))


def is_isomorphic(p, q):
    if p.n != q.n or len(p.covers) != len(q.covers):
        return False
    return canonical_form(p) == canonical_form(q)
