"""Lattices: posets whose every pair has a unique join and meet.

A Lattice is a FinitePoset with n x n int32 join/meet tables, trading
O(n^2) memory for O(1) queries: 64 MB a table at MAX_ELEMENTS = 4096.
It never mutates after construction, so what is derived from it (the
canonical labeling, the deciders' tables) is kept in its one memo dict.

try_lattice finds and validates joins and meets with one routine,
_least_bounds: each up-set is a bitset of 64-bit words over a linear
extension, the lowest bit of two up-sets' intersection is a minimal
common upper bound, and it is the join exactly when the intersection has
as many bits as its own up-set.  The table is built in numpy a block of
rows at a time, each against the columns from its first row on, so that
a block's temporaries hold at most _BLOCK cells and the blocks, taken in
order, meet the first pair without a join first.  Meets are the same
routine on the reversed order and extension.
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
    _check_element,
    _check_size,
    _minimal_of,
    _read_only,
)

# Cells per block of the whole-table kernels here and in properties; bounds
# their temporaries to a megabyte or two.
_BLOCK = 1 << 15


class Lattice(FinitePoset):
    """A FinitePoset plus join/meet tables and located bottom/top.

    Build instances through try_lattice, ideal_lattice, dual, interval,
    relabel or the enumerator (atlas.enumerate_lattices).  The constructor
    takes its parts as they are and checks nothing: covers a sorted tuple,
    as FinitePoset keeps them, and leq, join and meet tables that numpy
    will not let be made writable (poset._read_only).
    """

    __slots__ = ("join", "meet", "bot", "top")

    def __init__(self, n, covers, leq, join, meet, bot, top):
        self.n = n
        self.covers = covers
        self.leq = leq
        self.join = join
        self.meet = meet
        self.bot = bot
        self.top = top

    @property
    def poset(self):
        "The lattice itself, as the poset it is."
        return self

    def join_all(self, elements):
        return reduce(lambda a, b: int(self.join[a, b]), elements, self.bot)

    @cached_property
    def atoms(self):
        return self.upper_covers[self.bot]

    @cached_property
    def coatoms(self):
        return self.lower_covers[self.top]

    def relabel(self, perm):
        "Copy with element i renamed to perm[i], an integer id."
        poset = super().relabel(perm)
        ids = np.asarray(perm, dtype=self.join.dtype)
        inverse = np.argsort(ids)
        square = np.ix_(inverse, inverse)
        return _on_poset(
            poset,
            ids[self.join[square]],
            ids[self.meet[square]],
            int(ids[self.bot]),
            int(ids[self.top]),
        )


def _on_poset(p, join, meet, bot, top):
    """The lattice on the validated poset p, with its sorted covers,
    read-only leq and memos as they are, and with the join and meet
    tables made read-only."""
    L = Lattice(p.n, p.covers, p.leq, _read_only(join), _read_only(meet), bot, top)
    vars(L).update(vars(p))
    return L


def _up_words(leq, order):
    """Row x of leq as ceil(n/64) uint64 words, word-major: bit i of
    words[k, x] is leq[x, order[64k + i]].  Meets pass leq.T, a view."""
    n = len(order)
    bits = np.packbits(np.take(leq, order, axis=1), axis=1, bitorder="little")
    padded = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)  # whole words
    padded[:, : bits.shape[1]] = bits
    return np.ascontiguousarray(padded.view("<u8").T, dtype=np.uint64)


def _least_bounds(leq, order):
    """(table, first_bad): least upper bounds under leq, as int32, filled
    by blocks of rows until the block holding the first pair (a, b),
    a <= b in row-major order, that has none (first_bad is None when
    every pair has one).  Every pair needs a common upper bound.

    Up-sets are uint64 words whose bit i stands for order[i], a linear
    extension.  A block of rows [r0, r1) meets the columns [r0, n), the
    upper triangle plus its mirror inside the block, so the first
    failing cell of the block in row-major order is the pair sought.
    With n <= MAX_ELEMENTS, counts fit uint16 and word indices uint8.
    """
    n = len(order)
    order = np.asarray(order, dtype=np.intp)
    size = leq.sum(axis=1, dtype=np.int32)  # |up(x)|
    up = _up_words(leq, order)
    position = np.argsort(order)  # up(x) has no bit below position[x]
    table = np.empty((n, n), dtype=np.int32)
    r0 = 0
    while r0 < n:
        r1 = min(n, r0 + max(1, _BLOCK // (n - r0)))
        shape = (r1 - r0, n - r0)
        lo = position[r0:r1].min() // 64  # no row has a bit below word lo
        common = np.empty(shape, dtype=np.uint64)
        bits = np.empty(shape, dtype=np.uint8)
        count = np.zeros(shape, dtype=np.uint16)  # |up(a) & up(b)|
        word = np.full(shape, lo, dtype=np.uint8)  # its first nonzero word
        empty = np.ones(shape, dtype=bool)  # no nonzero word yet
        for k in range(lo, len(up)):
            np.bitwise_and(up[k, r0:r1, None], up[k, None, r0:], out=common)
            np.bitwise_count(common, out=bits)
            count += bits
            empty &= bits == 0
            word += empty
        word = word.astype(np.intp)
        first = up[word, np.arange(r0, r1)[:, None]] & up[word, np.arange(r0, n)]
        low = np.bitwise_count((first & -first) - 1)  # trailing zeros
        bound = order[64 * word + low]  # a minimal common upper bound
        bad = size[bound] != count  # the join exactly when up(bound) is common
        if bad.any():
            i, j = divmod(int(bad.argmax()), n - r0)
            return table, (r0 + i, r0 + j)
        table[r0:r1, r0:] = bound
        table[r0:, r0:r1] = bound.T
        r0 = r1
    return table, None


def try_lattice(p):
    """Validate that poset p is a lattice and materialize its tables.

    Raises NoBottom/NoTop/NoUniqueJoin/NoUniqueMeet with a witness set of
    minimal upper (maximal lower) bounds when validation fails; a pair's
    join is tested before its meet, pairs in row-major order.
    """
    n = p.n
    leq = p.leq
    if n == 0:
        raise NoBottom("empty poset has no bottom")
    tops = np.flatnonzero(leq.all(axis=0))
    if not len(tops):
        raise NoTop("no element above all others")
    bots = np.flatnonzero(leq.all(axis=1))
    if not len(bots):
        raise NoBottom("no element below all others")

    # Meets are the joins of the reversed order, along the reversed extension.
    order = p.topological_order
    join, bad_join = _least_bounds(leq, order)
    meet, bad_meet = _least_bounds(leq.T, order[::-1])
    failures = [(bad_join, NoUniqueJoin, leq), (bad_meet, NoUniqueMeet, leq.T)]
    failures = [f for f in failures if f[0] is not None]
    if failures:  # the first failing pair; its join before its meet
        (a, b), error, rel = min(failures, key=lambda f: f[0])
        bounds = np.flatnonzero(rel[a] & rel[b]).tolist()
        raise error(a, b, _minimal_of(rel, bounds))
    return _on_poset(p, join, meet, int(bots[0]), int(tops[0]))


def dual(L):
    "The reversed order on L's tables, read off its meet L.join; an involution."
    n = L.n
    covers = [(b, a) for a, b in L.covers]
    leq = L.join == np.arange(n)[:, None]
    return _on_poset(FinitePoset(n, covers, leq), L.meet, L.join, L.top, L.bot)


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
    _check_element(L, a)
    _check_element(L, b)
    if not L.leq[a, b]:
        raise NotComparableError(f"{a} is not below {b}")
    members = np.flatnonzero(L.leq[a] & L.leq[:, b])
    local = np.full(L.n, -1, dtype=np.int32)  # ambient id -> local id
    local[members] = np.arange(len(members))
    ids = local.tolist()
    covers = [
        (ids[x], ids[y]) for x, y in L.covers if ids[x] >= 0 and ids[y] >= 0
    ]
    square = np.ix_(members, members)
    sub = _on_poset(
        FinitePoset(len(members), covers, L.leq[square]),
        local[L.join[square]],
        local[L.meet[square]],
        ids[a],
        ids[b],
    )
    return Interval(a, b, sub, tuple(members.tolist()))


def ideal_lattice(p, cap=MAX_ELEMENTS):
    """The lattice of down-closed subsets of poset p, ordered by inclusion.

    Join is union and meet is intersection; the result is always
    distributive.  Returns (lattice, ideals) where ideals[i] is the member
    set of lattice element i.  The element count can grow exponentially,
    so enumeration aborts with CapExceededError beyond ``cap``.  A cap
    outside 0..MAX_ELEMENTS raises BoundExceededError before any work.
    """
    _check_size(cap, "ideal cap")
    n = p.n
    down = p.down_sets
    seen, frontier = {0}, [0]
    steps = []  # (mask, mask | {x}): every cover of the result, once
    while frontier:
        if len(seen) > cap:  # seen counts the empty ideal; each ideal is popped
            raise CapExceededError(cap)
        mask = frontier.pop()
        for x in range(n):
            if down[x] & ~mask != 1 << x:  # x is in mask or not addable
                continue
            new = mask | (1 << x)
            steps.append((mask, new))
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    # step[u, x] is the ideal u + {x}, for x in u or addable to it; each
    # ideal j but the empty one is some cover via[j] = (k, x), j = k + {x}.
    step = np.full((size, n), -1, dtype=np.int32)
    via = [None] * size
    for lo, hi in steps:
        k, j = index[lo], index[hi]
        x = (hi ^ lo).bit_length() - 1
        step[k, x] = j
        via[j] = (k, x)
    member = np.zeros((size, n), dtype=bool)
    ids = np.arange(size, dtype=np.int32)
    for j in range(1, size):
        k, x = via[j]
        member[j] = member[k]
        member[j, x] = True
        step[j, member[j]] = j
    # Rows in increasing order, each from a cover below it: with j = k + {x},
    # i v j = (i v k) + {x}, and i ^ j = (i ^ k) + {x} when x is in i.
    join = np.empty((size, size), dtype=np.int32)
    meet = np.empty((size, size), dtype=np.int32)
    join[0], meet[0] = ids, 0
    for j in range(1, size):
        k, x = via[j]
        join[j] = step[join[k], x]
        meet[j] = np.where(member[:, x], step[meet[k], x], meet[k])
    leq = meet == ids[:, None]  # i <= j exactly when i ^ j = i
    covers = [(index[lo], index[hi]) for lo, hi in steps]
    lattice = _on_poset(FinitePoset(size, covers, leq), join, meet, 0, size - 1)
    ideals = tuple(frozenset(np.flatnonzero(row).tolist()) for row in member)
    return lattice, ideals
