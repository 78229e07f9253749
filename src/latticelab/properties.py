"""Decision procedures for the lattice property zoo.

Every check is an exhaustive scan over pairs or triples.  That is slow in
the asymptotic sense and exactly what we want here: these functions are
the trusted oracles that the rest of the library (and the atlas) is
validated against, so no shortcuts.
"""

from dataclasses import dataclass

import numpy as np

from .irreducibles import length


@dataclass(frozen=True)
class Violation:
    kind: str  # "distributive" | "join_semidistributive" | "meet_semidistributive" | "left_modular"
    elements: tuple

    def as_json(self):
        return {"kind": self.kind, "elements": list(self.elements)}


def _violation(kind, a, bad):
    "The Violation at a and the first (b, c) where the bool matrix bad is set."
    b, c = map(int, np.argwhere(bad)[0])
    return Violation(kind, (a, b, c))


def is_distributive(L):
    """Check both distributive laws over all triples: for each a in turn,
    (a x b) y (a x c) = a x (b y c) with (x, y) = (join, meet), then with
    (meet, join).  Returns (flag, violation), the first offending triple
    in that order when they fail."""
    join, meet = L.join, L.meet
    for a in range(L.n):
        for x, y in ((join, meet), (meet, join)):
            bad = y[np.ix_(x[a], x[a])] != x[a][y]
            if bad.any():
                return False, _violation("distributive", a, bad)
    return True, None


def _semidistributive(kind, x, y):
    """(flag, violation) for a x b = a x c forcing a x b = a x (b y c): the
    join semidistributive law for (x, y) = (join, meet), the meet one for
    (meet, join).  The violation is the first failing triple."""
    for a in range(len(x)):
        row = x[a]
        bad = (row[:, None] == row[None, :]) & (row[y] != row[:, None])
        if bad.any():
            return False, _violation(kind, a, bad)
    return True, None


def is_join_semidistributive(L):
    "a v b = a v c must force a v b = a v (b ^ c); first violating triple otherwise."
    return _semidistributive("join_semidistributive", L.join, L.meet)


def is_meet_semidistributive(L):
    "The dual condition: a ^ b = a ^ c must force a ^ b = a ^ (b v c)."
    return _semidistributive("meet_semidistributive", L.meet, L.join)


def is_semidistributive(L):
    jsd, v = is_join_semidistributive(L)
    if not jsd:
        return False, v
    return is_meet_semidistributive(L)


def left_modular_element_violation(L, a):
    "First pair b < c with (b v a) ^ c != b v (a ^ c), or None."
    strict = L.leq & ~np.eye(L.n, dtype=bool)
    lhs = L.meet[L.join[:, a]]        # rows: b, cols: c
    rhs = L.join[:, L.meet[a]]
    bad = strict & (lhs != rhs)
    if bad.any():
        return _violation("left_modular", a, bad)
    return None


def left_modular_elements(L):
    "All elements a with (b v a) ^ c = b v (a ^ c) whenever b < c."
    return [
        a for a in range(L.n) if left_modular_element_violation(L, a) is None
    ]


def _left_modular_set(L):
    """left_modular_elements(L) as a frozenset, computed once per lattice
    and kept on it (a Lattice never changes)."""
    memo = L.__dict__
    if "_left_modular_set" not in memo:
        memo["_left_modular_set"] = frozenset(left_modular_elements(L))
    return memo["_left_modular_set"]


def left_modular_chain(L):
    """Lexicographically least maximum-length maximal chain of left-modular elements.

    Returns the chain as a tuple, or None when no maximal chain of length
    len(L) stays inside the left-modular elements.  Walks up the covers,
    taking at each step the first cover that still has a long enough
    left-modular path to the top; every such cover leads to a chain of
    length len(L), so the walk never backtracks.
    """
    lm = _left_modular_set(L)
    if L.bot not in lm or L.top not in lm:
        return None
    k = length(L)
    # Longest left-modular cover path from each element up to the top.
    reach = {L.top: 0}
    for v in reversed(L.poset.topological_order):
        if v not in lm or v == L.top:
            continue
        best = -1
        for w in L.upper_covers[v]:
            if w in reach:
                best = max(best, reach[w] + 1)
        if best >= 0:
            reach[v] = best
    if reach.get(L.bot, -1) < k:
        return None

    path = [L.bot]
    while path[-1] != L.top:
        need = k - len(path)
        path.append(
            next(w for w in L.upper_covers[path[-1]] if reach.get(w, -1) >= need)
        )
    return tuple(path)
