"""Lattices: posets whose every pair has a unique join and meet.

Join/meet tables are fully materialized (n stays in the hundreds at most),
trading O(n^2) memory for O(1) queries.  Like FinitePoset, a Lattice never
mutates after construction.
"""

from functools import cached_property, reduce

import numpy as np

from .errors import (
    CapExceededError,
    NoBottom,
    NotComparableError,
    NoTop,
    NoUniqueJoin,
    NoUniqueMeet,
)
from .poset import (
    MAX_ELEMENTS,
    FinitePoset,
    _seed_canonical,
    canonical_relabeling,
)


class Lattice:
    """A FinitePoset plus join/meet tables and located bottom/top.

    Build instances through try_lattice, ideal_lattice, dual or interval;
    the constructor trusts its tables.
    """

    __slots__ = ("poset", "join", "meet", "bot", "top", "__dict__")

    def __init__(self, poset, join, meet, bot, top):
        join = np.asarray(join)
        meet = np.asarray(meet)
        join.flags.writeable = False
        meet.flags.writeable = False
        self.poset = poset
        self.join = join
        self.meet = meet
        self.bot = bot
        self.top = top

    # poset delegation

    @property
    def n(self):
        return self.poset.n

    @property
    def leq(self):
        return self.poset.leq

    @property
    def covers(self):
        return self.poset.covers

    @property
    def upper_covers(self):
        return self.poset.upper_covers

    @property
    def lower_covers(self):
        return self.poset.lower_covers

    @property
    def levels(self):
        return self.poset.levels

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={list(self.covers)})"

    def __eq__(self, other):
        "Structural equality on the underlying poset, not isomorphism."
        return isinstance(other, Lattice) and self.poset == other.poset

    def __hash__(self):
        return hash(self.poset)

    def join_all(self, elements):
        return reduce(lambda a, b: int(self.join[a, b]), elements, self.bot)

    def meet_all(self, elements):
        return reduce(lambda a, b: int(self.meet[a, b]), elements, self.top)

    @cached_property
    def atoms(self):
        return self.upper_covers[self.bot]

    @cached_property
    def coatoms(self):
        return self.lower_covers[self.top]

    def relabel(self, perm):
        "Copy with element i renamed to perm[i]."
        poset = self.poset.relabel(perm)
        ids = np.asarray(perm, dtype=self.join.dtype)
        inverse = np.argsort(ids)
        square = np.ix_(inverse, inverse)
        return Lattice(
            poset,
            ids[self.join[square]],
            ids[self.meet[square]],
            perm[self.bot],
            perm[self.top],
        )

    def canonicalize(self):
        "Relabeled copy in canonical form; its poset knows it is canonical."
        L = self.relabel(canonical_relabeling(self.poset))
        _seed_canonical(L.poset, self.poset)
        return L


def _minimal_of(leq, members):
    "Members with no other member strictly below them."
    return [
        x
        for x in members
        if not any(leq[y, x] and y != x for y in members)
    ]


def _maximal_of(leq, members):
    return [
        x
        for x in members
        if not any(leq[x, y] and y != x for y in members)
    ]


def try_lattice(p):
    """Validate that poset p is a lattice and materialize its tables.

    Raises NoBottom/NoTop/NoUniqueJoin/NoUniqueMeet with a witness set of
    minimal upper (maximal lower) bounds when validation fails.
    """
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
    bot, top = bots[0], tops[0]

    # a has least upper bound u with b  iff  up(a) & up(b) == up(u).
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
                raise NoUniqueJoin(a, b, _minimal_of(leq, bounds))
            join[a, b] = join[b, a] = u
            common_down = leq[:, a] & leq[:, b]
            m = down_index.get(common_down.tobytes())
            if m is None:
                bounds = [x for x in range(n) if common_down[x]]
                raise NoUniqueMeet(a, b, _maximal_of(leq, bounds))
            meet[a, b] = meet[b, a] = m
    return Lattice(p, join, meet, bot, top)


def dual(L):
    "The same elements under the reversed order; an involution."
    n = L.n
    covers = [(b, a) for a, b in L.covers]
    leq = np.ascontiguousarray(L.leq.T)
    return Lattice(
        FinitePoset(n, covers, leq), L.meet.copy(), L.join.copy(), L.top, L.bot
    )


class Interval:
    """The closed interval [lo, hi] of a lattice, itself a lattice.

    ``lattice`` is the sublattice on local ids 0..m-1; ``back_map[i]`` is
    the ambient id of local element i.  Betweenness is inherited, so the
    sub-cover relation is exactly the ambient one restricted.
    """

    __slots__ = ("lo", "hi", "lattice", "back_map")

    def __init__(self, lo, hi, lattice, back_map):
        self.lo = lo
        self.hi = hi
        self.lattice = lattice
        self.back_map = back_map


def interval(L, a, b):
    if not L.leq[a, b]:
        raise NotComparableError(f"{a} is not below {b}")
    members = [c for c in range(L.n) if L.leq[a, c] and L.leq[c, b]]
    local = {amb: i for i, amb in enumerate(members)}
    m = len(members)
    leq = L.leq[np.ix_(members, members)]
    covers = [
        (local[x], local[y]) for x, y in L.covers if x in local and y in local
    ]
    join = np.zeros((m, m), dtype=np.int32)
    meet = np.zeros((m, m), dtype=np.int32)
    for i, x in enumerate(members):
        for j, y in enumerate(members):
            join[i, j] = local[int(L.join[x, y])]
            meet[i, j] = local[int(L.meet[x, y])]
    sub = Lattice(FinitePoset(m, covers, leq), join, meet, local[a], local[b])
    return Interval(a, b, sub, tuple(members))


DEFAULT_IDEAL_CAP = MAX_ELEMENTS


def ideal_lattice(p, cap=DEFAULT_IDEAL_CAP):
    """The lattice of down-closed subsets of poset p, ordered by inclusion.

    Join is union and meet is intersection; the result is always
    distributive.  Returns (lattice, ideals) where ideals[i] is the member
    set of lattice element i.  The element count can grow exponentially,
    so enumeration aborts with CapExceededError beyond ``cap``.
    """
    n = p.n
    seen = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        for x in range(n):
            if mask >> x & 1:
                continue
            if any(not (mask >> y & 1) for y in p.lower_covers[x]):
                continue
            new = mask | (1 << x)
            if new not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(cap)
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
    covers = [
        (i, j)
        for i, mi in enumerate(masks)
        for j, mj in enumerate(masks)
        if mi & mj == mi and bin(mj ^ mi).count("1") == 1
    ]
    lattice = Lattice(
        FinitePoset(size, covers, leq), join, meet, 0, size - 1
    )
    ideals = tuple(
        frozenset(x for x in range(n) if m >> x & 1) for m in masks
    )
    return lattice, ideals
