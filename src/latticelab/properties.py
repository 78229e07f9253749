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
  block of elements at a time.  a is left modular exactly when
  (b v a) ^ c = b v (a ^ c) on every cover b < c.
  Proof: a failure at y < z gives y' = y v (a ^ z) < z' = (y v a) ^ z
  with a ^ y' = a ^ z' and a v y' = a v z', and every cover y' < w <= z'
  inherits both equalities, so the law fails on that cover.
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

Only when a fast test fails does the triple scan run, to name the same
first violation as the scan over every triple would.  The brute-force
deciders these tests replace are kept in tests/test_properties.py as
reference_is_distributive, reference_left_modular_elements and
reference_semidistributive, and the tests hold the fast paths to them.
"""

from dataclasses import dataclass

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
    the bool matrix bad is set; bad has some cell set."""
    b, c = divmod(int(bad.argmax()), bad.shape[1])
    return Violation(kind, (a, b, c))


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


def _semidistributive(kind, x, y, far, near, starts, outside):
    """(flag, violation) for a x b = a x c forcing a x b = a x (b y c): the
    join semidistributive law for (x, y) = (join, meet), the meet one for
    (meet, join).  The violation is the first failing triple.

    Decided by the fiber test of the module docstring for each a in turn;
    (far, near, starts, outside) are from _cover_index.  Only the first a
    that fails is scanned for its triple."""
    for a in range(len(x)):
        row = x[a]
        # the far ends with a cover toward near inside their own fiber
        inner = np.logical_or.reduceat(row[near] == row[far], starts)
        if np.count_nonzero(inner) != outside[a]:
            bad = (row[:, None] == row[None, :]) & (row[y] != row[:, None])
            if not bad.any():
                raise InvariantViolation(
                    f"{a} fails the fiber test of the {kind} law "
                    "but no triple violates it"
                )
            return False, _violation(kind, a, bad)
    return True, None


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


def _cover_index(L, up):
    """(far, near, starts, outside): the covers of L as index arrays grouped
    by far, their upper ends when up and their lower ends otherwise.  Each
    group begins at one of starts, and outside[a] counts the elements
    outside the up-set (down-set) of a.  The fiber test of the join law
    reads all four with up, that of the meet law with not up.  With not up,
    (far, near) is (lower, upper) in L.covers order, which is all that
    left_modular_elements and shellability.lm_labeling read.  Built once
    per lattice and kept on it as one array, which costs the least memory."""
    key = "_cover_index_up" if up else "_cover_index_down"
    memo = L.__dict__
    if key not in memo:
        pairs = sorted((b, a) for a, b in L.covers) if up else L.covers
        memo[key] = np.array(
            [v for v, _ in pairs]
            + [w for _, w in pairs]
            + [i for i, (v, _) in enumerate(pairs) if not i or pairs[i - 1][0] != v]
            + (L.n - L.leq.sum(axis=1 if up else 0)).tolist(),
            dtype=np.intp,
        )
    packed, m = memo[key], len(L.covers)
    return packed[:m], packed[m:2 * m], packed[2 * m:-L.n], packed[-L.n:]


def left_modular_elements(L):
    """All elements a with (b v a) ^ c = b v (a ^ c) whenever b < c,
    decided on every cover b < c for a block of elements at once.  The
    tables are read flat, [x, y] at x * n + y, in int32 (n * n < 2**31)."""
    n = L.n
    lower, upper = _cover_index(L, up=False)[:2]
    lower_at = (lower * n).astype(np.int32)
    upper_at = upper.astype(np.int32)
    join, meet = L.join.ravel(), L.meet.ravel()
    step = max(1, lattice._BLOCK // max(1, len(lower)))
    found = []
    for a0 in range(0, n, step):
        rows = slice(a0, a0 + step)
        # take, not [rows, lower]: mixed indexing returns a transposed layout
        lhs = meet.take(L.join[rows].take(lower, axis=1) * n + upper_at)
        rhs = join.take(L.meet[rows].take(upper, axis=1) + lower_at)
        found += (a0 + np.flatnonzero((lhs == rhs).all(axis=1))).tolist()
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
    inside the left-modular elements.  Working down a topological order,
    an element is marked when it is left modular and is the top or has a
    marked upper cover; the walk up from the bottom then takes the first
    marked upper cover at each step.  Every marked element has a marked
    cover path to the top, so the walk never backtracks.

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
    ups = L.upper_covers
    marked = set()
    for v in reversed(L.topological_order):
        if v in lm and (v == L.top or not marked.isdisjoint(ups[v])):
            marked.add(v)
    if L.bot not in marked:
        return None
    path = [L.bot]
    while path[-1] != L.top:
        path.append(next(w for w in ups[path[-1]] if w in marked))
    return tuple(path)
