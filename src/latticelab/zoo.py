"""A small zoo of named lattices and posets used in tests and demos.

The three long-named lattices are the classic separating witnesses for the
property grid: each satisfies exactly the combination its name states and
refutes the converse implications.
"""

import itertools

from .lattice import ideal_lattice, try_lattice
from .poset import poset_from_covers


def chain(k):
    "The (k+1)-element chain 0 < 1 < ... < k; length k."
    return try_lattice(
        poset_from_covers(k + 1, [(i, i + 1) for i in range(k)])
    )


def antichain(k):
    "k pairwise incomparable points (a poset, not a lattice for k > 1)."
    return poset_from_covers(k, [])


def boolean(k):
    "Boolean lattice of all subsets of a k-set, via the ideal construction."
    lattice, _ = ideal_lattice(antichain(k))
    return lattice


def weak_order(k):
    """The weak order on the permutations of k letters: w is covered by the
    swaps of its adjacent ascents.  Semidistributive, not distributive for
    k >= 3; length k(k-1)/2, and 2^k - k - 1 join and as many meet
    irreducibles."""
    perms = sorted(itertools.permutations(range(k)))
    index = {w: i for i, w in enumerate(perms)}
    covers = [
        (index[w], index[w[:i] + (w[i + 1], w[i]) + w[i + 2:]])
        for w in perms
        for i in range(k - 1)
        if w[i] < w[i + 1]
    ]
    return try_lattice(poset_from_covers(len(perms), covers))


def m3():
    "The diamond: three atoms under a common top.  Left modular, not join semidistributive, not join extremal."
    return try_lattice(
        poset_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    )


def pentagon():
    "The pentagon: a 2-chain and a 3-chain glued at bottom and top."
    return try_lattice(
        poset_from_covers(5, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)])
    )


def hexagon():
    "Two parallel 3-chains glued at bottom and top.  Join semidistributive, not join extremal, not left modular."
    return try_lattice(
        poset_from_covers(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)])
    )


def extremal_not_left_modular():
    "Nine elements; extremal but neither left modular nor join semidistributive."
    covers = [
        (0, 1), (0, 2), (0, 3),
        (1, 4), (1, 7), (2, 4), (2, 5), (3, 5), (3, 6),
        (4, 8), (5, 8), (6, 7), (7, 8),
    ]
    return try_lattice(poset_from_covers(9, covers))


def left_modular_not_semidistributive():
    "Seven elements; join semidistributive, join extremal and left modular, but not semidistributive."
    covers = [
        (0, 1), (0, 2), (0, 3),
        (1, 4), (2, 4), (2, 5), (3, 5),
        (4, 6), (5, 6),
    ]
    return try_lattice(poset_from_covers(7, covers))


def jsd_not_left_modular():
    "Eight elements; join semidistributive, join extremal and EL-shellable, but not left modular."
    covers = [
        (0, 1), (0, 2), (0, 3),
        (1, 5), (2, 5), (2, 6), (3, 4),
        (4, 6), (5, 7), (6, 7),
    ]
    return try_lattice(poset_from_covers(8, covers))


def vee_plus_isolated():
    "Four-element poset: one element covering two others, plus an isolated point."
    return poset_from_covers(4, [(0, 3), (1, 3)])


def fixture_lattices():
    "Name -> lattice for the recurring test fixtures."
    return {
        "m3": m3(),
        "pentagon": pentagon(),
        "hexagon": hexagon(),
        "extremal_not_left_modular": extremal_not_left_modular(),
        "left_modular_not_semidistributive": left_modular_not_semidistributive(),
        "jsd_not_left_modular": jsd_not_left_modular(),
        "boolean3": boolean(3),
        "chain4": chain(4),
    }
