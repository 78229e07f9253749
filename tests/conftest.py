import random

import pytest
from hypothesis import settings

from latticelab import zoo
from latticelab.errors import CapExceededError
from latticelab.lattice import dual, ideal_lattice, try_lattice
from latticelab.poset import poset_from_covers, transitive_reduce
from latticelab.zoo import weak_order

# Every property-based test draws the same examples on every run, without a
# per-example time limit and without an example database on disk.
settings.register_profile("latticelab", derandomize=True, deadline=None, database=None)
settings.load_profile("latticelab")


def partition_lattice(k):
    "Set partitions of a k-set ordered by refinement."
    parts = [()]
    for x in range(k):
        parts = [
            q[:i] + (q[i] | {x},) + q[i + 1:] for q in parts for i in range(len(q))
        ] + [q + (frozenset({x}),) for q in parts]
    pairs = [
        (i, j)
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if i != j and all(any(b <= c for c in q) for b in p)
    ]
    return try_lattice(transitive_reduce(len(parts), pairs))


def random_ideal_posets(seed, count, k=10, cap=300):
    """Seeded random k-element posets, the first count of them whose ideal
    lattices have at most cap elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        density = rng.uniform(0.1, 0.5)
        pairs = [
            (a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < density
        ]
        poset = transitive_reduce(k, pairs)
        try:
            ideal_lattice(poset, cap)
        except CapExceededError:
            continue
        out.append(poset)
    return out


def m3_on_chain(k):
    """M3 stacked on the chain 0 < ... < k: atoms k+1..k+3 cover k, and
    k+4 covers them.  Only the atoms violate either semidistributive law."""
    covers = [(i, i + 1) for i in range(k)]
    covers += [(k, a) for a in range(k + 1, k + 4)]
    covers += [(a, k + 4) for a in range(k + 1, k + 4)]
    return try_lattice(poset_from_covers(k + 5, covers))


@pytest.fixture(scope="session")
def large_lattices():
    """Name -> lattice for families of 15-250 elements and their duals:
    chains, B5-B7, the partition lattices of 4-6 points, the weak order of
    S5, M3 on a 100-element chain and ideal lattices of random 10-element
    posets."""
    named = {f"chain{k}": zoo.chain(k) for k in (99, 149, 199)}
    named |= {f"boolean{k}": zoo.boolean(k) for k in (5, 6, 7)}
    named |= {f"partitions{k}": partition_lattice(k) for k in (4, 5, 6)}
    named["weak5"] = weak_order(5)
    named["m3_on_chain99"] = m3_on_chain(99)
    for i, p in enumerate(random_ideal_posets(7, 8)):
        named[f"ideals{i}"] = ideal_lattice(p)[0]
    return named | {f"dual_{name}": dual(L) for name, L in named.items()}
