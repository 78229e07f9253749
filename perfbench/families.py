"""Lattices of known structure, written as `.lat` text for `check`.

Every generator here is independent of latticelab: the benchmark builds
its inputs itself and checks the program's answers against values known
from the theory of each family.  All lattices returned are given as
(n, covers) with elements 0..n-1 and the bottom at 0 before permutation.
"""

from itertools import combinations
from math import comb

# JSON flags of `latticelab check --json` that every family fixes.
FLAGS = (
    "distributive",
    "join_semidistributive",
    "meet_semidistributive",
    "semidistributive",
    "join_extremal",
    "extremal",
    "left_modular",
    "el_shellable",
)
_ALL_TRUE = dict.fromkeys(FLAGS, True) | {"el_shellable": "yes"}


def chain(m):
    "The m-element chain."
    covers = [(i, i + 1) for i in range(m - 1)]
    return m, covers, dict(_ALL_TRUE, length=m - 1, J=m - 1, M=m - 1)


def _down_set_lattice(p, lower_covers, cap=None):
    """Lattice of down-sets of a poset on 0..p-1, as (n, covers).

    `lower_covers[x]` may list any elements below x whose closure is the
    order.  Returns None once more than `cap` down-sets turn up.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        mask = frontier.pop()
        for x in range(p):
            if not mask >> x & 1 and all(mask >> y & 1 for y in lower_covers[x]):
                new = mask | 1 << x
                if new not in seen:
                    if cap is not None and len(seen) >= cap:
                        return None
                    seen.add(new)
                    frontier.append(new)
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    covers = [
        (index[m], index[m | 1 << x])
        for m in masks
        for x in range(p)
        if m | 1 << x in index and not m >> x & 1
    ]
    return len(masks), covers


def boolean(k):
    "Subsets of a k-set: distributive, with J = M = length = k."
    n, covers = _down_set_lattice(k, [()] * k)
    return n, covers, dict(_ALL_TRUE, length=k, J=k, M=k)


def ideals(p, lower_covers, cap=None):
    """Down-set lattice J(P) of a p-element poset, or None beyond `cap`.

    It is distributive, so every flag holds, and its join and meet
    irreducibles both correspond to the elements of P: J = M = length = p.
    """
    lattice = _down_set_lattice(p, lower_covers, cap)
    if lattice is None:
        return None
    n, covers = lattice
    return n, covers, dict(_ALL_TRUE, length=p, J=p, M=p)


def partitions(k):
    """Partition lattice of a k-set, ordered by refinement.

    Supersolvable, hence left modular and EL-shellable; for k >= 3 it is
    neither semidistributive nor extremal.  Length k-1, C(k,2) join
    irreducibles (one non-singleton block of two) and 2^(k-1)-1 meet
    irreducibles (two blocks).
    """
    parts = [[]]
    for x in range(k):
        parts = [
            q[:i] + [q[i] | {x}] + q[i + 1:] for q in parts for i in range(len(q))
        ] + [q + [frozenset({x})] for q in parts]
    elements = sorted(
        (frozenset(map(frozenset, q)) for q in parts),
        key=lambda q: (-len(q), sorted(sorted(b) for b in q)),
    )
    index = {q: i for i, q in enumerate(elements)}
    covers = [
        (index[q], index[(q - {a, b}) | {a | b}])
        for q in elements
        for a, b in combinations(q, 2)
    ]
    expected = {
        "distributive": k < 3,
        "join_semidistributive": k < 3,
        "meet_semidistributive": k < 3,
        "semidistributive": k < 3,
        "join_extremal": k < 3,
        "extremal": k < 3,
        "left_modular": True,
        "el_shellable": "yes",
        "length": k - 1,
        "J": comb(k, 2),
        "M": 2 ** (k - 1) - 1,
    }
    return len(elements), covers, expected


def dual(lattice):
    "Reversed order; the bottom moves to 0 again.  J and M swap."
    n, covers, expected = lattice
    flip = lambda v: n - 1 - v
    covers = [(flip(b), flip(a)) for a, b in covers]
    expected = dict(expected, J=expected["M"], M=expected["J"])
    expected["join_semidistributive"], expected["meet_semidistributive"] = (
        expected["meet_semidistributive"],
        expected["join_semidistributive"],
    )
    expected["join_extremal"] = expected["length"] == expected["J"]
    return n, covers, expected
