"""Decision procedures for the lattice property zoo.

Each law is decided by an exact characterisation that needs far less
than a scan of every triple:

* Distributivity, in O(n * |J|).  Let J be the join irreducibles, j_*
  the lower cover of j, and cnt[y] = |{j in J : j <= y}|.  L is
  distributive exactly when cnt[x v j] = cnt[x] + 1 for every x and every
  j in J with j_* <= x and j not <= x.  Proof: x -> J & down(x) always
  embeds L into the down-sets of J (Birkhoff); its image is every
  down-set exactly when it is closed under adding one minimal missing j,
  such a j is minimal exactly when j_* <= x, and the only candidate for
  the new image is x v j.
* Left modularity, in O(n * m) table lookups for m covers, made for a
  block of elements at a time.  a is left modular exactly when no cover
  y < z collapses both ways: a v y = a v z and a ^ y = a ^ z.
  Proof: a failure of (b v a) ^ c = b v (a ^ c) at y < z gives
  y' = y v (a ^ z) < z' = (y v a) ^ z with a ^ y' = a ^ z' and
  a v y' = a v z', and every cover y' < w <= z' inherits both
  equalities, so such a cover collapses.  Conversely a collapsing cover
  y < z has (y v a) ^ z = (z v a) ^ z = z, which is not
  y = y v (a ^ y) = y v (a ^ z).
* Join semidistributivity, in O(m) per element a.  The fibers
  F_v = {x : a v x = v}, one for each v >= a, are convex (x <= z <= w
  with x, w in F_v puts z in F_v) and closed under joins.  The law
  a v b = a v c => a v (b ^ c) = a v b holds at a exactly when every
  fiber is closed under meets, that is, when every fiber has a least
  element: a least element m of F_v lies below b ^ c for b, c in F_v, so
  convexity puts b ^ c in F_v, and a fiber closed under meets holds the
  meet of its members.  By convexity, x is minimal in its fiber exactly
  when no lower cover y of x has a v y = a v x.  Every fiber has a
  minimal element, and only one exactly when it has a least element.  So
  the law holds at a exactly when the |up(a)| fibers have |up(a)| minimal
  elements in all, that is, when the elements with such a lower cover
  number n - |up(a)|.  The meet law is the same test on meets, with the
  covers reversed and down(a).
* A failing join law fails at a meet irreducible, so where the law holds
  the fiber test runs only at the |M| meet irreducibles, in
  O(|M| * m) (the meet law: at the join irreducibles).  Proof: suppose
  a v b = a v c > a v (b ^ c) for some a; fix b and c, take a maximal
  with this property, and let v = a v b.  w = a v (b ^ c) has the
  property too and w >= a, so w = a, that is, b ^ c <= a.  An upper
  cover p of a has p v b = p v c = p v v and p v (b ^ c) = p, so by
  maximality p = p v v >= v, and p = v as a < v <= p.  So a has the
  one upper cover v: it is meet irreducible.
  Where the law fails, the first failing element of the full scan may
  still be reducible; it lies below the first failing meet irreducible,
  among the elements the walk skipped, and they are tested in order.

Only when a fast test fails does the triple scan run, to name the same
first violation as the scan over every triple would.  The brute-force
deciders these tests replace are kept in tests/test_properties.py as
reference_is_distributive, reference_left_modular_elements and
reference_semidistributive, and the tests hold the fast paths to them.
"""

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import lattice
from .errors import InvariantViolation
from .irreducibles import join_irreducible_ids, length


@dataclass(frozen=True)
class Violation:
    kind: str  # "distributive" | "join_semidistributive" | "meet_semidistributive" | "left_modular"
    elements: tuple


def _violation(kind, a, bad):
    """The Violation at a and the first (b, c), in row-major order, where
    the bool matrix bad is set; None when no cell is set."""
    b, c = divmod(int(bad.argmax()), bad.shape[1])
    return Violation(kind, (a, b, c)) if bad[b, c] else None


def _one_step_distributive(L):
    "Birkhoff's one-step test of the module docstring."
    J = join_irreducible_ids(L)
    if len(J) != length(L):  # a distributive L adds one j per cover step
        return False
    j_star = [L.lower_covers[j][0] for j in J]
    leq = L.leq
    cnt = leq[J].sum(axis=0)
    minimal_missing = (leq[j_star] & ~leq[J]).T  # rows x, cols j
    grows_by_one = cnt[L.join[:, J]] == cnt[:, None] + 1
    return bool((grows_by_one | ~minimal_missing).all())


def is_distributive(L):
    """(flag, violation) for both distributive laws, decided by the
    one-step test.  A violation is the first offending triple of the scan:
    for each a in turn, (a x b) y (a x c) = a x (b y c) with
    (x, y) = (join, meet), then with (meet, join)."""
    if _one_step_distributive(L):
        return True, None
    join, meet = L.join, L.meet
    for a in range(L.n):
        for x, y in ((join, meet), (meet, join)):
            bad = y[np.ix_(x[a], x[a])] != x[a][y]
            if bad.any():
                return False, _violation("distributive", a, bad)
    raise InvariantViolation(
        f"{L!r} fails the one-step test but satisfies both distributive laws"
    )


def _semidistributive(kind, x, y, far, near, starts, outside, single):
    """(flag, violation) for a x b = a x c forcing a x b = a x (b y c): the
    join semidistributive law for (x, y) = (join, meet), the meet one for
    (meet, join).  The violation is the first failing triple.

    Decided by the fiber test of the module docstring; (far, near, starts,
    outside, single) are from _cover_index.  The test runs at the elements
    marked in single, in order, and once one fails, at the unmarked
    elements below it: by the lemma of the module docstring the law fails
    at a marked element whenever it fails, so this finds the same first
    failing a as a test of every element in order.  Only that a is scanned
    for its triple."""
    end = len(x)
    for marked in (1, 0):
        for a in range(end):
            if single[a] != marked:
                continue
            row = x[a]
            # the far ends with a cover toward near inside their own fiber
            inner = np.logical_or.reduceat(row[near] == row[far], starts)
            if np.count_nonzero(inner) != outside[a]:
                end = a
                break
        if end == len(x):
            return True, None
    row = x[end]
    bad = (row[:, None] == row[None, :]) & (row[y] != row[:, None])
    violation = _violation(kind, end, bad)
    if violation is None:
        raise InvariantViolation(
            f"{end} fails the fiber test of the {kind} law "
            "but no triple violates it"
        )
    return False, violation


def is_join_semidistributive(L):
    "a v b = a v c must force a v b = a v (b ^ c); first violating triple otherwise."
    return _semidistributive(
        "join_semidistributive", L.join, L.meet, *_cover_index(L, up=True)
    )


def is_meet_semidistributive(L):
    "The dual condition: a ^ b = a ^ c must force a ^ b = a ^ (b v c)."
    return _semidistributive(
        "meet_semidistributive", L.meet, L.join, *_cover_index(L, up=False)
    )


def is_semidistributive(L):
    jsd, v = is_join_semidistributive(L)
    if not jsd:
        return False, v
    return is_meet_semidistributive(L)


def _cover_ends(L):
    """The lower and upper ends of L's covers, in L.covers order, as the
    two rows of one (2, m) intp array: built once per lattice and kept on
    it, the one copy of its cover ends that left_modular_elements,
    shellability.lm_labeling and the down _cover_index read."""
    memo = L.__dict__
    if "_cover_ends" not in memo:
        memo["_cover_ends"] = np.array(
            list(zip(*L.covers)) or [(), ()], dtype=np.intp
        )
    return memo["_cover_ends"]


def _cover_index(L, up):
    """(far, near, starts, outside, single): the covers of L as index arrays
    grouped by far, their upper ends when up and their lower ends
    otherwise.  Each group begins at one of starts, outside[a] counts the
    elements outside the up-set (down-set) of a, and single[a] is 1 when a
    is the near end of exactly one cover, that is, meet irreducible (join
    irreducible), and 0 otherwise.  The fiber test of the join law reads
    all five with up, that of the meet law with not up; only these two
    tests ask for the index.

    With not up, (far, near) is (lower, upper) in L.covers order, which
    _cover_ends keeps, so only starts, outside and single are built and
    kept, as one array.  With up, the covers sorted stably by upper end
    (so each group in increasing lower end) are kept ahead of the three,
    in one array too.  Both are counted in Python lists: at n = 10 the
    up index takes a median of about 11.5 us a class, against 11.9 us
    for a sort of (upper, lower) pairs and 1.5 to 2 times that for an
    argsort of the ends in numpy (the 5,994 classes, 2 vCPUs, Python
    3.11.7, numpy 2.4.6)."""
    key = "_cover_index_up" if up else "_cover_index_down"
    memo = L.__dict__
    n = L.n
    if key not in memo:
        if up:
            pairs = sorted(L.covers, key=itemgetter(1))
            far, near = [b for _, b in pairs], [a for a, _ in pairs]
        else:
            far, near = _cover_ends(L).tolist()
        count = [0] * n
        for w in near:
            count[w] += 1
        memo[key] = np.array(
            (far + near if up else [])
            + [i for i, v in enumerate(far) if not i or far[i - 1] != v]
            + (n - L.leq.sum(axis=1 if up else 0)).tolist()
            + [c == 1 for c in count],
            dtype=np.intp,
        )
    packed = memo[key]
    if up:
        m = len(L.covers)
        far, near, starts = packed[:m], packed[m:2 * m], packed[2 * m:-2 * n]
    else:
        (far, near), starts = _cover_ends(L), packed[:-2 * n]
    return far, near, starts, packed[-2 * n:-n], packed[-n:]


def left_modular_elements(L):
    """All elements a with (b v a) ^ c = b v (a ^ c) whenever b < c: those
    at which no cover y < z has a v y = a v z and a ^ y = a ^ z, decided
    for a block of elements at once.  Both equalities are one comparison
    of (a v x) * n + (a ^ x) at x = y and x = z (below 2^24 in the int32
    tables, as n <= MAX_ELEMENTS), read at the lower and upper ends of
    _cover_ends: that pair is all this reads of the cover index, and
    its fiber sections are not built.  At n = 9 this costs about a third
    less, cover ends included, than four gathers of the down cover index
    built first did (the 803 left-modular classes, relabeled and freshly
    built, timed in pairs; 2 vCPUs, Python 3.11.7, numpy 2.4.6)."""
    n, ends = L.n, _cover_ends(L)
    step = max(1, lattice._BLOCK // max(1, n, ends.size))
    found = []
    for a0 in range(0, n, step):
        rows = slice(a0, a0 + step)
        both = (L.join[rows] * n + L.meet[rows]).take(ends, axis=1)
        left_modular = (both[:, 0] != both[:, 1]).all(axis=1)
        found += (np.flatnonzero(left_modular) + a0).tolist()
    return found


def _left_modular_set(L):
    """left_modular_elements(L) as a frozenset, computed once per lattice
    and kept on it (a Lattice never changes)."""
    memo = L.__dict__
    if "_left_modular_set" not in memo:
        memo["_left_modular_set"] = frozenset(left_modular_elements(L))
    return memo["_left_modular_set"]


def left_modular_chain(L):
    """Lexicographically least maximal chain of left-modular elements.

    Returns the chain as a tuple, or None when no maximal chain stays
    inside the left-modular elements.  A depth-first walk up from the
    bottom, which is left modular, tries the upper covers of each element
    in increasing order, steps only onto left-modular elements, and backs
    off an element once all its covers are tried; an element backed off
    from reaches the top along no such path, so it is not tried again.
    The first path to reach the top is the lexicographically least, and
    the walk reads each cover at most once.

    Any maximal chain c_0 < ... < c_k of left-modular elements is a
    longest chain of L, so the chain found is also the lexicographically
    least one of maximum length.  Proof: let l(x -< y) be the least i with
    y <= x v c_i, as in shellability.lm_labeling; it lies in 1..k.  Take
    x -< y <= x' -< y' with l(x -< y) = i.  Left modularity of c_{i-1}
    gives (x v c_{i-1}) ^ y = x v (c_{i-1} ^ y), which lies in [x, y] and
    is not y, so it is x and c_{i-1} ^ y <= x.  Left modularity of c_i
    gives y = (x v c_i) ^ y = x v (c_i ^ y), so c_i ^ y is not below x,
    nor below c_{i-1} (it would lie below c_{i-1} ^ y).  Hence
    c_{i-1} v (c_i ^ y) = c_i, as c_{i-1} -< c_i, and since c_i ^ y <= x',
    x' v c_i = x' v c_{i-1}: l(x' -< y') is not i.  So the labels along
    any maximal chain are distinct values in 1..k, and no maximal chain
    is longer than c.
    """
    lm = _left_modular_set(L)
    ups, top = L.upper_covers, L.top
    path, tries, dead = [L.bot], [iter(ups[L.bot])], set()
    while path[-1] != top:
        for w in tries[-1]:
            if w in lm and w not in dead:
                path.append(w)
                tries.append(iter(ups[w]))
                break
        else:
            dead.add(path.pop())
            tries.pop()
            if not path:
                return None
    return tuple(path)
